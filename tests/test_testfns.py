import numpy as np
import pytest

from wamcyl.testfns import REGISTRY, get_function


def eval_test(fid, p):
    return float(get_function(fid).fn(*np.asarray(p, dtype=float)))


def test_point_values():
    assert eval_test("f4", (0, 0, 0)) == 1.0
    assert eval_test("f3", (0, 0, 0)) == 1.0
    assert eval_test("f2", (0.4, 0.4, 0.4)) == 0.0
    assert eval_test("const1", (0.2, -0.3, 0.9)) == 1.0


def test_f1_literal_second_term():
    # second exponential is linear in the y and z shifts, not squared
    x, y, z = 0.1, 0.2, -0.3
    expected = (
        0.75 * np.exp(-((9 * x - 2) ** 2 + (9 * y - 2) ** 2 + (9 * z - 2) ** 2) / 4)
        + 0.75 * np.exp(-(9 * x + 1) ** 2 / 49 - (9 * y + 1) / 10 - (9 * z + 1) / 10)
        + 0.5 * np.exp(-((9 * x - 7) ** 2 + (9 * y - 3) ** 2 + (9 * z - 5) ** 2) / 4)
        - 0.2 * np.exp(-(9 * x - 4) ** 2 - (9 * y - 7) ** 2 - (9 * z - 5) ** 2)
    )
    assert eval_test("f1", (x, y, z)) == pytest.approx(expected, rel=1e-15)
    squared_variant = expected - 0.75 * np.exp(
        -(9 * x + 1) ** 2 / 49 - (9 * y + 1) / 10 - (9 * z + 1) / 10
    ) + 0.75 * np.exp(
        -(9 * x + 1) ** 2 / 49 - (9 * y + 1) ** 2 / 10 - (9 * z + 1) ** 2 / 10
    )
    assert eval_test("f1", (x, y, z)) != pytest.approx(squared_variant, rel=1e-6)


def test_radial_functions_rotation_invariant():
    rng = np.random.default_rng(14)
    for fid in ("f5", "f6"):
        fn = get_function(fid).fn
        for _ in range(20):
            r = np.sqrt(rng.uniform(0, 1))
            phi = rng.uniform(0, 2 * np.pi)
            x, y, z = r * np.cos(phi), r * np.sin(phi), rng.uniform(-1, 1)
            assert fn(x, y, z) == pytest.approx(fn(-y, x, z), rel=1e-13, abs=1e-15)


def test_f3_argument_symmetry():
    rng = np.random.default_rng(15)
    for _ in range(10):
        x, y, z = rng.uniform(-0.5, 0.5, 3)
        assert eval_test("f3", (x, y, z)) == pytest.approx(
            eval_test("f3", (z, y, x)), abs=1e-15
        )


def test_registry_metadata():
    assert set(REGISTRY) == {"f1", "f2", "f3", "f4", "f5", "f6", "const1"}
    assert get_function("f3").oracle_tol == 1e-12
    assert get_function("f6").oracle_tol == 1e-12
    assert get_function("f2").oracle_tol == 1e-10
    assert {fid: tf.singular_point for fid, tf in REGISTRY.items()} == {
        "f1": None, "f2": (0.4, 0.4, 0.4), "f3": None, "f4": None,
        "f5": (0.0, 0.0, 0.0), "f6": None, "const1": None,
    }
    with pytest.raises(ValueError):
        get_function("f7")


def test_vectorized_evaluation():
    x = np.linspace(-0.5, 0.5, 7)
    for tf in REGISTRY.values():
        vals = np.asarray(tf.fn(x, x, x), dtype=float)
        assert vals.shape == x.shape
        assert np.all(np.isfinite(vals))
