"""Random test problems shared by the solver, scaling, ownership and
preconditioner tests: a complex R and b from a seed, the operators built
from R, the classes whose structure probe accepts each, and one random
matrix of each class."""

import numpy as np

from symkrylov.core import SymmetryClass
from symkrylov.oracle import skew_hermitian_matrix, skew_symmetric_matrix, symmetric_imaginary_matrix

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


def class_matrix(variant, n, rng):
    """An order-n matrix of the class, from one generator call on the
    SplitMix64 stream rng."""
    return {CS: lambda: symmetric_imaginary_matrix(n, n, rng),
            SS: lambda: skew_symmetric_matrix(n, rng),
            SH: lambda: skew_hermitian_matrix(n, rng),
            H: lambda: 1j * symmetric_imaginary_matrix(n, n, rng)}[SymmetryClass(variant)]()
