import math

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from symkrylov.core import EPS
from symkrylov.reflect import Reflection, sym_ortho


def test_real_three_four_five():
    r = sym_ortho(3.0, 4.0)
    assert abs(r.c - 0.6) <= 4 * EPS
    assert abs(r.s - 0.8) <= 4 * EPS
    assert abs(r.r - 5.0) <= 20 * EPS


def test_zero_zero_gives_identity_with_flip():
    r = sym_ortho(0.0, 0.0)
    assert r.c == 1.0 and r.s == 0.0 and r.r == 0.0


def test_b_zero_passes_a_through():
    r = sym_ortho(2.0 - 1.0j, 0.0)
    assert r.c == 1.0 and r.s == 0.0 and r.r == 2.0 - 1.0j


def test_a_zero_swaps():
    r = sym_ortho(0.0, 3.0j)
    assert r.c == 0.0 and abs(abs(r.s) - 1.0) <= 2 * EPS
    assert abs(r.r - 3.0j) <= 4 * EPS


def test_imaginary_pair_annihilates():
    r = sym_ortho(1.0, 1.0j)
    lo = np.conj(r.s) * 1.0 - r.c * 1.0j
    assert abs(lo) <= 8 * EPS
    hi = r.c * 1.0 + r.s * 1.0j
    assert abs(hi - r.r) <= 8 * EPS


def test_extreme_magnitudes_no_overflow():
    for a, b in [(1e150, 1e-150), (1e-150, 1e150), (1e150 + 1e150j, 1e150),
                 (1e-150j, 1e-150)]:
        r = sym_ortho(a, b)
        assert math.isfinite(r.c) and np.isfinite(r.s) and np.isfinite(r.r)
        assert abs(r.c**2 + abs(r.s) ** 2 - 1.0) <= 8 * EPS


# the stated domain is pair magnitudes in [1e-150, 1e150]; subnormal
# components sit outside it and degrade the unit-phase factors
log_mag = st.floats(min_value=-150.0, max_value=150.0)
angle = st.floats(min_value=-math.pi, max_value=math.pi)


def _cnum(m, t):
    return (10.0**m) * complex(math.cos(t), math.sin(t))


@given(log_mag, angle, log_mag, angle)
@seed(2026)
@settings(max_examples=300)
def test_unitarity_and_annihilation(ma, ta, mb, tb):
    a = _cnum(ma, ta)
    b = _cnum(mb, tb)
    r = sym_ortho(a, b)
    assert abs(r.c**2 + abs(r.s) ** 2 - 1.0) <= 8 * EPS
    scale = max(abs(a), abs(b))
    assert abs(np.conj(r.s) * a - r.c * b) <= 8 * EPS * scale
    # |r|^2 = |a|^2 + |b|^2, compared through hypot to dodge overflow
    assert abs(abs(r.r) - math.hypot(abs(a), abs(b))) <= 8 * EPS * scale


@given(log_mag, angle, log_mag, angle)
@seed(2026)
@settings(max_examples=200)
def test_involution(ma, ta, mb, tb):
    a = _cnum(ma, ta)
    b = _cnum(mb, tb)
    r = sym_ortho(a, b)
    # apply [[c, s], [conj(s), -c]] twice
    x1, y1 = r.c * a + r.s * b, np.conj(r.s) * a - r.c * b
    x2, y2 = r.c * x1 + r.s * y1, np.conj(r.s) * x1 - r.c * y1
    scale = max(abs(a), abs(b))
    assert abs(x2 - a) <= 16 * EPS * scale
    assert abs(y2 - b) <= 16 * EPS * scale


def test_reflection_is_frozen():
    r = Reflection(1.0, 0.0 + 0.0j, 0.0 + 0.0j)
    try:
        r.c = 0.5
        raised = False
    except AttributeError:
        raised = True
    assert raised
