"""Stable 2x2 reflections with real cosine and complex sine."""

from __future__ import annotations

import math
from typing import NamedTuple


class Reflection(NamedTuple):
    """Reflector [[c, s], [conj(s), -c]] with c real, c^2 + |s|^2 = 1.

    r is the value the pair (a, b) it was built from maps to:
    r = c*a + s*b, and conj(s)*a - c*b = 0.
    """

    c: float
    s: complex
    r: complex


# builds a Reflection from its three fields without the Python-level
# __new__ that NamedTuple generates
_reflection = tuple.__new__


def sym_ortho(a: complex, b: complex) -> Reflection:
    """Build the reflection annihilating b against a.

    Scaled throughout so inputs near the overflow/underflow limits are
    safe.  sym_ortho(0, 0) returns (c, s) = (1, 0), i.e. diag(1, -1);
    callers must apply that sign flip like any other reflection.
    """
    if type(a) is not complex:
        a = complex(a)
    if type(b) is not complex:
        b = complex(b)
    absa = abs(a)
    absb = abs(b)
    if absb == 0.0:
        return _reflection(Reflection, (1.0, 0.0 + 0.0j, a))
    if absa == 0.0:
        return _reflection(Reflection, (0.0, 1.0 + 0.0j, b))
    # unit-phase factors; magnitudes handled separately to dodge overflow
    sign_a = a / absa
    sign_b = b / absb
    if absb >= absa:
        tau = absa / absb
        cpre = 1.0 / math.sqrt(1.0 + tau * tau)
        s = cpre * sign_a * sign_b.conjugate()
        c = cpre * tau
        r = b / s.conjugate()
    else:
        tau = absb / absa
        c = 1.0 / math.sqrt(1.0 + tau * tau)
        s = c * tau * sign_a * sign_b.conjugate()
        r = a / c
    return _reflection(Reflection, (c, s, r))

