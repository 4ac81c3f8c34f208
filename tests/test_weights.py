from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cgmt.weights as cgmt_weights
from cgmt.core import CgmtError
from cgmt.weights import (
    AlgebraicWeight,
    ScaledRing,
    _float_sign,
    _refine_sign,
    cylinder_weight,
    sign_of,
)

W = AlgebraicWeight
HALF = Fraction(1, 2)


def mp_value(w: AlgebraicWeight) -> mpmath.mpf:
    with mpmath.workdps(60):
        return mpmath.fsum(
            mpmath.mpf(r.numerator) / r.denominator * mpmath.power(2, mpmath.mpf(-j) / w.q)
            for j, r in enumerate(w.coeffs)
        )


rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=64
)


@st.composite
def weights(draw):
    q = draw(st.integers(min_value=1, max_value=5))
    raw = {j: draw(rationals) for j in range(draw(st.integers(0, q + 3)))}
    return W._make(q, raw)


def test_two_power_integer():
    assert W.two_power(0) == W.from_rational(1)
    assert W.two_power(3) == W.from_rational(8)
    assert W.two_power(-2) == W.from_rational(Fraction(1, 4))


def test_two_power_half_dimension():
    u = W.two_power(Fraction(-1, 2))
    assert u.q == 2
    # 2^(-1/2) squared is exactly 1/2.
    assert u * u == W.from_rational(HALF)
    # Two strings of length 2 at s = 1/2 weigh exactly 1.
    assert cylinder_weight(HALF, 2) * 2 == W.from_rational(1)


def test_frozen_cover_weights():
    # Two length-1 strings at s = 1/2: 2 * 2^(-1/2) = sqrt(2).
    w = cylinder_weight(HALF, 1) * 2
    assert w.decimal(5) == "1.41421"
    assert (cylinder_weight(HALF, 2) * 2).decimal(5) == "1.00000"


def test_canonical_minimal_q():
    # 2^(-2/4) should canonicalize to q = 2.
    w = W._make(4, {2: Fraction(1)})
    assert w.q == 2
    assert w == W.two_power(Fraction(-1, 2))
    # Entries at index 0 only collapse to rationals.
    assert W._make(6, {0: Fraction(3)}).q == 1
    assert W._make(3, {}).is_zero()


def test_fold_past_q():
    # u^5 with q = 3 is (1/2) * u^2.
    w = W._make(3, {5: Fraction(1)})
    assert w == W._make(3, {2: HALF})


def test_sign_mixed():
    # sqrt(1/2) vs 7/10: 0.7071... > 0.7.
    u = W.two_power(Fraction(-1, 2))
    assert (u - W.from_rational(Fraction(7, 10))).sign() == 1
    assert (u - W.from_rational(Fraction(71, 100))).sign() < 0


def test_comparison_operators():
    a = W.two_power(Fraction(-1, 3))
    b = W.two_power(Fraction(-1, 2))
    assert b < a < W.from_rational(1)
    assert a >= b and a != b
    assert max(a, b) == a


def test_close_comparison_forces_refinement():
    # 2^(-1/2) against a 40-digit convergent of itself: no double can
    # separate them, so the float filter defers to interval refinement
    u = W.two_power(Fraction(-1, 2))
    approx = Fraction(7071067811865475244008443621048490392848, 10 ** 40)
    before = cgmt_weights.refinements
    assert (u - W.from_rational(approx)).sign() == 1
    assert cgmt_weights.refinements == before + 1
    # a comparison a double can settle never reaches the refinement
    assert (u - W.from_rational(Fraction(7, 10))).sign() == 1
    assert cgmt_weights.refinements == before + 1


def test_decimal_truncation():
    u = W.two_power(Fraction(-1, 2))
    assert u.decimal(30) == "0.707106781186547524400844362104"
    assert (-u).decimal(5) == "-0.70710"
    assert W.zero().decimal(4) == "0.0000"
    assert W.from_rational(Fraction(5, 2)).decimal(3) == "2.500"


def test_irrational_guard():
    with pytest.raises(CgmtError):
        W.two_power(Fraction(-1, 2)).as_fraction()
    assert W.from_rational(HALF).as_fraction() == HALF


def test_json_roundtrip():
    w = W._make(6, {1: Fraction(3, 8), 5: Fraction(-2, 7)})
    obj = w.to_json_obj()
    assert obj["coeffs"][1] == "3/8"
    assert W.from_json_obj(obj) == w
    with pytest.raises(CgmtError):
        W.from_json_obj({"q": 2, "coeffs": ["0", "0"]})  # not canonical
    with pytest.raises(CgmtError):
        W.from_json_obj({"q": "x", "coeffs": []})


@settings(max_examples=100)
@given(weights(), weights(), weights())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + W.zero() == a
    assert a * W.from_rational(1) == a
    assert (a - a).is_zero()


@settings(max_examples=100)
@given(weights(), weights())
def test_sign_agrees_with_mpmath(a, b):
    d = a - b
    approx = mp_value(d)
    if abs(approx) > mpmath.mpf("1e-40"):
        assert d.sign() == (1 if approx > 0 else -1)
    else:
        assert d.is_zero() == (d.sign() == 0)


@settings(max_examples=60)
@given(weights())
def test_decimal_agrees_with_mpmath(w):
    text = w.decimal(20)
    with mpmath.workdps(60):
        assert abs(mpmath.mpf(text) - mp_value(w)) < mpmath.mpf("1e-19")


@given(st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12))
def test_two_power_multiplies(e):
    w = W.two_power(e) * W.two_power(-e)
    assert w == W.from_rational(1)


# -- the float filter ---------------------------------------------------------------


def mp_sign(coeffs, q) -> int:
    with mpmath.workdps(60):
        v = mpmath.fsum(
            mpmath.mpf(Fraction(r).numerator) / Fraction(r).denominator
            * mpmath.power(2, mpmath.mpf(-j) / q)
            for j, r in enumerate(coeffs)
        )
    return (v > 0) - (v < 0)


@st.composite
def near_ties(draw):
    """Int vectors over q in {2, 3, 5} whose value is within about 2^-bits of 0."""
    q = draw(st.sampled_from([2, 3, 5]))
    tail = [draw(st.integers(-(1 << 40), 1 << 40)) for _ in range(q - 1)]
    bits = draw(st.integers(0, 90))
    with mpmath.workdps(80):
        rest = mpmath.fsum(c * mpmath.power(2, mpmath.mpf(-j) / q) for j, c in enumerate(tail, 1))
        head = int(mpmath.nint(-rest * 2**bits)) + draw(st.integers(-2, 2))
    return q, (head,) + tuple(c << bits for c in tail)


@settings(max_examples=200)
@given(near_ties())
def test_filtered_sign_equals_refinement_and_mpmath(tie):
    q, coeffs = tie
    if not any(coeffs):
        return
    exact = mp_sign(coeffs, q)
    assert exact != 0  # 1, u, ..., u^(q-1) are linearly independent
    assert _refine_sign(coeffs, q) == exact
    assert sign_of(coeffs, q) == exact
    fractions = tuple(Fraction(c, 3 << 70) for c in coeffs)
    assert sign_of(fractions, q) == exact
    assert W._make(q, dict(enumerate(fractions))).sign() == exact


@settings(max_examples=200)
@given(near_ties())
def test_float_filter_decides_only_correctly(tie):
    q, coeffs = tie
    got = _float_sign(coeffs, q)
    assert got is None or got == mp_sign(coeffs, q)


def test_float_filter_decides_clear_signs_and_defers_near_ties():
    # 1000 * 2^(-1/3) = 793.7...
    assert _float_sign((-793, 1000, 0), 3) == 1
    assert _float_sign((794, -1000, 0), 3) == 1
    assert _float_sign((793, -1000, 0), 3) == -1
    # 40 digits of 2^(-1/2) against u: beyond double precision
    approx = Fraction(7071067811865475244008443621048490392848, 10 ** 40)
    assert _float_sign((-approx, Fraction(1)), 2) is None


def test_float_filter_defers_out_of_range():
    # too large for a double, and too small to stay in the normal range
    huge = (-(3 << 1100), 4 << 1100, 0)
    tiny = (Fraction(-3, 1 << 1000), Fraction(4, 1 << 1000), Fraction(0))
    for coeffs in (huge, tiny):
        assert _float_sign(coeffs, 3) is None
        assert sign_of(coeffs, 3) == 1


@pytest.mark.parametrize("s", [Fraction(0), Fraction(1, 3), HALF, Fraction(2, 3), Fraction(1), Fraction(7, 5)])
def test_scaled_ring_matches_algebraic_weights(s):
    m = 63
    ring = ScaledRing(s, m)
    total_v = ring.cylinder(m)
    total_w = W.two_power(-s * m)
    for length in range(m):
        v = ring.cylinder(length)
        w = W.two_power(-s * length)
        assert ring.weight(v) == w
        assert ring.le(v, total_v) == (w <= total_w)
        assert ring.le(total_v, v) == (total_w <= w)
        total_v = ring.add(total_v, v)
        total_w = total_w + w
        assert ring.weight(total_v) == total_w


@st.composite
def ring_and_weight(draw):
    """A ScaledRing, an int vector of it, and a weight w with q in {1, 2, 3, 5, 6}.

    Half the time w lies within a small rational step of the vector's own
    weight, so near ties and exact ties (step 0) come up often.
    """
    s = Fraction(draw(st.sampled_from(["0", "1/3", "1/2", "2/3", "3/4", "1", "7/5"])))
    ring = ScaledRing(s, draw(st.integers(0, 40)))
    v = tuple(draw(st.integers(-(1 << 50), 1 << 50)) for _ in range(ring.q))
    if draw(st.booleans()):
        step = draw(st.fractions(min_value=-1, max_value=1, max_denominator=1 << 60))
        return ring, v, ring.weight(v) + W.from_rational(step)
    q = draw(st.sampled_from([1, 2, 3, 5, 6]))
    return ring, v, W._make(q, {j: draw(rationals) * (1 << 40) for j in range(q)})


@settings(max_examples=300)
@given(ring_and_weight())
def test_ring_sign_against_agrees_with_weights(case):
    ring, v, w = case
    got = ring.sign_against(v, w)
    assert got == (ring.weight(v) - w).sign()
    assert (got < 0) == (ring.weight(v) < w)
