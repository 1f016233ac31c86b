"""Random test problems shared by the solver and scaling tests: a
complex R and b from a seed, the operators built from R, and the
classes whose structure probe accepts each."""

import numpy as np

from symkrylov.core import SymmetryClass

CS = SymmetryClass.COMPLEX_SYMMETRIC
SS = SymmetryClass.SKEW_SYMMETRIC
SH = SymmetryClass.SKEW_HERMITIAN
H = SymmetryClass.HERMITIAN

# A built from a complex R -> the classes whose probe accepts it: each
# class's pairing (core.STRUCTURES) and nothing else decides
ACCEPTED_BY = {
    "R + R^T": {CS},
    "R + R^H": {H},
    "R - R^H": {SS, SH},
    "real R - R^T": {SS, SH},
    "R - R^T": set(),           # complex skew-symmetric: no class yet
}


def constructions(r):
    return {"R + R^T": r + r.T, "R + R^H": r + r.conj().T, "R - R^H": r - r.conj().T,
            "real R - R^T": r.real - r.real.T, "R - R^T": r - r.T}


def random_problem(n, s):
    rng = np.random.default_rng(s)
    r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return r, rng.standard_normal(n) + 1j * rng.standard_normal(n)
