"""Benchmark functions on the cylinder, with oracle tolerances and, where
a function has one, the point singularity the oracle grades toward.

All evaluators accept coordinate arrays.  Note the second exponential of
f1 is linear (not squared) in its y and z terms.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TestFunction:
    id: str
    fn: object
    oracle_tol: float
    smoothness: str
    singular_point: tuple | None = None


def _f1(x, y, z):
    return (
        0.75 * np.exp(-((9 * x - 2) ** 2 + (9 * y - 2) ** 2 + (9 * z - 2) ** 2) / 4)
        + 0.75 * np.exp(-((9 * x + 1) ** 2) / 49 - (9 * y + 1) / 10 - (9 * z + 1) / 10)
        + 0.5 * np.exp(-((9 * x - 7) ** 2 + (9 * y - 3) ** 2 + (9 * z - 5) ** 2) / 4)
        - 0.2 * np.exp(-((9 * x - 4) ** 2) - (9 * y - 7) ** 2 - (9 * z - 5) ** 2)
    )


def _f2(x, y, z):
    return np.sqrt((x - 0.4) ** 2 + (y - 0.4) ** 2 + (z - 0.4) ** 2)


def _f3(x, y, z):
    return np.cos(4 * (x + y + z))


def _f4(x, y, z):
    return 1.0 / (1.0 + 16.0 * (x**2 + y**2 + z**2))


def _f5(x, y, z):
    return np.sqrt((x**2 + y**2 + z**2) ** 3)


def _f6(x, y, z):
    return np.cos(x**2 + y**2 + z**2)


def _const1(x, y, z):
    return np.ones_like(np.asarray(x, dtype=float))


REGISTRY = {
    "f1": TestFunction("f1", _f1, 1e-10, "analytic"),
    "f2": TestFunction("f2", _f2, 1e-10, "point singularity at (0.4, 0.4, 0.4)",
                       (0.4, 0.4, 0.4)),
    "f3": TestFunction("f3", _f3, 1e-12, "entire"),
    "f4": TestFunction("f4", _f4, 1e-10, "analytic, Runge-type"),
    "f5": TestFunction("f5", _f5, 1e-10, "C2, singular third derivatives at 0",
                       (0.0, 0.0, 0.0)),
    "f6": TestFunction("f6", _f6, 1e-12, "entire"),
    "const1": TestFunction("const1", _const1, 1e-12, "constant"),
}


def get_function(fid):
    try:
        return REGISTRY[fid]
    except KeyError:
        raise ValueError(f"unknown test function {fid!r}") from None
