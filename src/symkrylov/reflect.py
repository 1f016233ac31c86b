"""Stable 2x2 reflections with real cosine and complex sine."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Reflection:
    """Reflector [[c, s], [conj(s), -c]] with c real, c^2 + |s|^2 = 1.

    r is the value the pair (a, b) it was built from maps to:
    r = c*a + s*b, and conj(s)*a - c*b = 0.
    """

    c: float
    s: complex
    r: complex


def sym_ortho(a: complex, b: complex) -> Reflection:
    """Build the reflection annihilating b against a.

    Scaled throughout so inputs near the overflow/underflow limits are
    safe.  sym_ortho(0, 0) returns (c, s) = (1, 0), i.e. diag(1, -1);
    callers must apply that sign flip like any other reflection.
    """
    a = complex(a)
    b = complex(b)
    absa = abs(a)
    absb = abs(b)
    if absb == 0.0:
        return Reflection(1.0, 0.0 + 0.0j, a)
    if absa == 0.0:
        return Reflection(0.0, 1.0 + 0.0j, b)
    # unit-phase factors; magnitudes handled separately to dodge overflow
    sign_a = a / absa
    sign_b = b / absb
    if absb >= absa:
        tau = absa / absb
        cpre = 1.0 / math.sqrt(1.0 + tau * tau)
        s = cpre * sign_a * np.conj(sign_b)
        c = cpre * tau
        r = b / np.conj(s)
    else:
        tau = absb / absa
        c = 1.0 / math.sqrt(1.0 + tau * tau)
        s = c * tau * sign_a * np.conj(sign_b)
        r = a / c
    return Reflection(float(c), complex(s), complex(r))

