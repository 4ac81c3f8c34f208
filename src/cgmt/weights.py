"""Exact arithmetic for weights of the form sum_j r_j * 2^(-j/q).

Cover weights at dimension s = a/b are sums of terms 2^(-s*m), all of which
live in the ring Z[1/2][u] with u = 2^(-1/q) and u^q = 1/2.  Since 2*x^q - 1
is irreducible over the rationals, {1, u, ..., u^(q-1)} is linearly
independent, so a weight is zero exactly when its reduced coefficient vector
is zero and every comparison can be decided exactly.

Every sign goes through sign_of.  Coefficients of one sign settle it at
once.  Mixed ones first meet a float filter (after Shewchuk 1997, "Adaptive
precision floating-point arithmetic and fast robust geometric predicates"):
the polynomial is evaluated in doubles, with powers of u rounded from a
dyadic enclosure, and its sign is taken only when the value clears a proved
bound of 2(q+5)*2^-53 times the sum of the terms' magnitudes (the proof is
at _float_sign).  What the filter cannot decide falls back to interval
refinement: enclose u between dyadic rationals via integer q-th roots,
evaluate the polynomial in interval arithmetic, and double the precision
until the sign is resolved (termination is guaranteed by the linear
independence above).  The module counter `refinements` counts those
fallbacks.

ScaledRing is the integer kernel of one min/sum pass: with s and the deepest
length fixed, every value of the pass is an int vector over a common power
of two, sums are int sums, and AlgebraicWeight stays the type every value is
exchanged in.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from typing import Iterable, Optional, Union

from .core import CgmtError, ParseError, shown

Rationalish = Union[int, Fraction]

_MAX_REFINE_BITS = 1 << 20

# A run's ring is capped where outside input enters (cap_violation): the
# float filter's power table costs steeply more with the root order q (0.16 s
# at q = 256, 13 s at 2,000), and 2^(-s*m) holds about s*m bits.
MAX_ROOT_ORDER, MAX_DIMENSION = 256, 16


def cap_violation(s: Optional[Fraction], weights: Iterable["AlgebraicWeight"]) -> Optional[str]:
    """Why a run at dimension s (None: no dimension) with these weights breaks a cap, or None.

    Its values live at the lcm of the root orders of s and of every weight.
    """
    if s is not None and not 0 < s <= MAX_DIMENSION:
        return f"dimension {s} is outside the cap (0, {MAX_DIMENSION}]"
    order = math.lcm(1 if s is None else s.denominator, *(w.q for w in weights))
    if order > MAX_ROOT_ORDER:
        return (f"root order {order} (the lcm of s's denominator and the weights' q) "
                f"is past the cap {MAX_ROOT_ORDER}")
    return None


@contextmanager
def _all_digits():
    """Lift the interpreter's cap on int-to-text conversion, for an exact value's own digits."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def _nth_root_floor(x: int, n: int) -> int:
    """floor(x ** (1/n)) for nonnegative integer x, by Newton iteration."""
    if x < 0:
        raise CgmtError("nth root of a negative integer")
    if x == 0:
        return 0
    if n == 1:
        return x
    r = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            return r
        r = nr


@lru_cache(maxsize=None)
def _root_enclosure(q: int, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic enclosure lo <= 2^(-1/q) <= hi with denominator ~2^bits."""
    # t/2^bits <= 2^(1/q) < (t+1)/2^bits, then invert.
    t = _nth_root_floor(1 << (q * bits + 1), q)
    scale = 1 << bits
    return Fraction(scale, t + 1), Fraction(scale, t)


def _interval_value(
    coeffs: tuple[Fraction, ...], q: int, bits: int
) -> tuple[Fraction, Fraction]:
    u_lo, u_hi = _root_enclosure(q, bits)
    lo = hi = Fraction(0)
    p_lo, p_hi = Fraction(1), Fraction(1)
    for j, r in enumerate(coeffs):
        if j:
            p_lo *= u_lo
            p_hi *= u_hi
        if r > 0:
            lo += r * p_lo
            hi += r * p_hi
        elif r < 0:
            lo += r * p_hi
            hi += r * p_lo
    return lo, hi


# unit roundoff of an IEEE double; below _TINY a double may leave the normal range
_EPS = 2.0**-53
_TINY = 2.0**-900

# signs that the float filter left to interval refinement (read by tests and
# benchmarks; no verdict depends on it)
refinements = 0


@lru_cache(maxsize=None)
def _float_powers(q: int) -> Optional[tuple[float, ...]]:
    """Doubles p_j with |p_j - u^j| <= 2*eps*p_j for j < q, or None.

    Each p_j is the double nearest the lower end of a dyadic enclosure of
    u^j; the bound is checked exactly against the enclosure, and a q whose
    table fails the check (or whose sums are too long for the error bound)
    gets no filter at all.
    """
    if q > 1 << 20:
        return None
    lo, hi = _root_enclosure(q, 64 + q.bit_length())
    limit = 2 * Fraction(_EPS)
    powers = []
    for j in range(q):
        a, b = lo**j, hi**j
        p = float(a)
        if max(abs(a - Fraction(p)), abs(b - Fraction(p))) > limit * Fraction(p):
            return None
        powers.append(p)
    return tuple(powers)


def _float_sign(coeffs: tuple, q: int) -> Optional[int]:
    """The sign of sum_j coeffs[j] * u^j when a double evaluation proves it.

    coeffs are ints or Fractions, whose float() is correctly rounded.  With
    eps = 2^-53, every nonzero f_j = fl(c_j) is at least 2^-900 and every
    power p_j lies in [1/2, 1], so all roundings below are relative:
    c_j = f_j(1+a_j), u^j = p_j(1+b_j) and f_j*p_j = t_j(1+h_j) with
    |a_j|, |h_j| <= eps and |b_j| <= 2*eps, hence c_j*u^j = t_j(1+e_j) with
    |e_j| <= 5*eps.  Summing the q products t_j in order errs by at most
    g*sum|t_j|, g = (q-1)eps/(1-(q-1)eps), and the computed A = fl(sum|t_j|)
    is at least (1-g)*sum|t_j|.  So the float sum S is within
    (5*eps + g)/(1-g) * A <= fl(2(q+5)*eps * A) of the true value when
    q <= 2^20, and |S| beyond that bound has the true value's sign.  A
    coefficient too large for a double, one below 2^-900, or an infinite
    sum leaves the sign undecided (None).
    """
    powers = _float_powers(q)
    if powers is None:
        return None
    total = bound = 0.0
    try:
        for r, p in zip(coeffs, powers):
            if r:
                f = float(r)
                if -_TINY < f < _TINY:
                    return None
                t = f * p
                total += t
                bound += abs(t)
    except OverflowError:
        return None
    err = 2 * (q + 5) * _EPS * bound  # inf when the sums overflowed: no decision
    if total > err:
        return 1
    if total < -err:
        return -1
    return None


def _enclosures(coeffs: tuple, q: int, bits: int, top: int):
    """Intervals around sum_j coeffs[j] * u^j, doubling the precision from bits to top."""
    while bits <= top:
        yield _interval_value(coeffs, q, bits)
        bits *= 2
    raise CgmtError("interval refinement did not converge")


def _refine_sign(coeffs: tuple, q: int) -> int:
    """The sign of a nonzero sum_j coeffs[j] * u^j by interval refinement."""
    for lo, hi in _enclosures(coeffs, q, 64, _MAX_REFINE_BITS):
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1


def sign_of(coeffs: tuple, q: int) -> int:
    """Exact sign of sum_j coeffs[j] * u^j, u = 2^(-1/q), coeffs ints or Fractions.

    Coefficients of one sign settle it; mixed ones go to the float filter,
    and what the filter cannot prove goes to interval refinement.
    """
    global refinements
    positive = negative = False
    for r in coeffs:
        if r > 0:
            positive = True
        elif r < 0:
            negative = True
    if not negative:
        return 1 if positive else 0
    if not positive:
        return -1
    sgn = _float_sign(coeffs, q)
    if sgn is None:
        refinements += 1
        sgn = _refine_sign(coeffs, q)
    return sgn


@dataclass(frozen=True)
class AlgebraicWeight:
    """Canonical element of Q(2^(-1/q)): q minimal, coeffs[j] multiplies u^j."""

    q: int
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def _make(q: int, raw: dict[int, Fraction]) -> "AlgebraicWeight":
        # Fold u^j for j >= q down via u^q = 1/2, drop zeros, minimize q.
        folded: dict[int, Fraction] = {}
        for j, r in raw.items():
            if not r:
                continue
            if j < 0:
                raise CgmtError(f"negative exponent index: {j}")
            k, j0 = divmod(j, q)
            folded[j0] = folded.get(j0, Fraction(0)) + r / (1 << k)
        folded = {j: r for j, r in folded.items() if r}
        if not folded:
            return AlgebraicWeight(1, (Fraction(0),))
        g = q
        for j in folded:
            g = math.gcd(g, j)
        q2 = q // g
        coeffs = [Fraction(0)] * q2
        for j, r in folded.items():
            coeffs[j // g] = r
        return AlgebraicWeight(q2, tuple(coeffs))

    def __post_init__(self) -> None:
        if self.q < 1 or len(self.coeffs) != self.q:
            raise CgmtError(f"malformed weight: q={self.q}, {len(self.coeffs)} coefficients")

    @staticmethod
    def zero() -> "AlgebraicWeight":
        return AlgebraicWeight(1, (Fraction(0),))

    @staticmethod
    def from_rational(r: Rationalish) -> "AlgebraicWeight":
        return AlgebraicWeight(1, (Fraction(r),))

    @staticmethod
    def two_power(exponent: Rationalish) -> "AlgebraicWeight":
        """The weight 2^exponent for a rational exponent."""
        e = Fraction(exponent)
        a, b = e.numerator, e.denominator
        if b == 1:
            return AlgebraicWeight.from_rational(
                Fraction(1 << a) if a >= 0 else Fraction(1, 1 << -a)
            )
        # 2^(a/b) = 2^k * u^j with u = 2^(-1/b): pick j = -a mod b.
        j = (-a) % b
        k = (a + j) // b
        r = Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k)
        return AlgebraicWeight._make(b, {j: r})

    # -- ring operations ----------------------------------------------------

    def _lift(self, q: int) -> dict[int, Fraction]:
        step = q // self.q
        return {j * step: r for j, r in enumerate(self.coeffs) if r}

    def __add__(self, other: "AlgebraicWeight") -> "AlgebraicWeight":
        if not isinstance(other, AlgebraicWeight):
            return NotImplemented
        q = self.q * other.q // math.gcd(self.q, other.q)
        raw = self._lift(q)
        for j, r in other._lift(q).items():
            raw[j] = raw.get(j, Fraction(0)) + r
        return AlgebraicWeight._make(q, raw)

    def __neg__(self) -> "AlgebraicWeight":
        return AlgebraicWeight(self.q, tuple(-r for r in self.coeffs))

    def __sub__(self, other: "AlgebraicWeight") -> "AlgebraicWeight":
        if not isinstance(other, AlgebraicWeight):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["AlgebraicWeight", Rationalish]) -> "AlgebraicWeight":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return AlgebraicWeight._make(
                self.q, {j: r * f for j, r in enumerate(self.coeffs)}
            )
        if not isinstance(other, AlgebraicWeight):
            return NotImplemented
        q = self.q * other.q // math.gcd(self.q, other.q)
        a, b = self._lift(q), other._lift(q)
        raw: dict[int, Fraction] = {}
        for ja, ra in a.items():
            for jb, rb in b.items():
                j = ja + jb
                raw[j] = raw.get(j, Fraction(0)) + ra * rb
        return AlgebraicWeight._make(q, raw)

    __rmul__ = __mul__

    # -- comparisons ---------------------------------------------------------

    def sign(self) -> int:
        return sign_of(self.coeffs, self.q)

    def is_zero(self) -> bool:
        return self.q == 1 and self.coeffs[0] == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraicWeight):
            return NotImplemented
        return self.q == other.q and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.q, self.coeffs))

    def __lt__(self, other: "AlgebraicWeight") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "AlgebraicWeight") -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: "AlgebraicWeight") -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: "AlgebraicWeight") -> bool:
        return (self - other).sign() >= 0

    # -- rendering -----------------------------------------------------------

    def as_fraction(self) -> Fraction:
        if self.q != 1:
            raise CgmtError(f"weight is irrational (q={self.q})")
        return self.coeffs[0]

    def decimal(self, digits: int = 30) -> str:
        """Sign + integer part + exactly `digits` fractional digits, truncated."""
        sgn = self.sign()
        if sgn == 0:
            return "0." + "0" * digits
        mag = self if sgn > 0 else -self
        scale = 10 ** digits
        if mag.q == 1:
            n = mag.coeffs[0].numerator * scale // mag.coeffs[0].denominator
        else:
            for lo, hi in _enclosures(mag.coeffs, mag.q, 128, 2 * _MAX_REFINE_BITS):
                n = lo.numerator * scale // lo.denominator
                if n == hi.numerator * scale // hi.denominator:
                    break
        whole, frac = divmod(n, scale)
        body = f"{whole}.{frac:0{digits}d}"
        return body if sgn > 0 else "-" + body

    def __repr__(self) -> str:
        terms = [f"{r}*u{j}" for j, r in enumerate(self.coeffs) if r]
        inner = " + ".join(terms) if terms else "0"
        return f"AlgebraicWeight(q={self.q}: {inner})"

    # -- serialization --------------------------------------------------------

    def to_json_obj(self) -> dict:
        try:
            coeffs, decimal = [str(r) for r in self.coeffs], self.decimal(30)
        except ValueError:
            # more digits than the interpreter turns into text by default; its cap
            # stays for reading outside documents
            with _all_digits():
                coeffs, decimal = [str(r) for r in self.coeffs], self.decimal(30)
        return {"q": self.q, "coeffs": coeffs, "decimal": decimal}

    @staticmethod
    def from_json_obj(obj: dict) -> "AlgebraicWeight":
        """The weight a to_json_obj document names; anything else is a ParseError."""
        q = obj.get("q") if isinstance(obj, dict) else None
        raw = obj.get("coeffs") if isinstance(obj, dict) else None
        if (
            type(q) is not int
            or q < 1
            or not isinstance(raw, list)
            or len(raw) != q
            or not all(isinstance(c, str) for c in raw)
        ):
            raise ParseError(f"malformed weight object: {shown(obj)}")
        try:
            coeffs = tuple(Fraction(c) for c in raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed weight object: {shown(obj)}") from exc
        if AlgebraicWeight._make(q, dict(enumerate(coeffs))).coeffs != coeffs:
            raise ParseError(f"weight object is not in canonical form: {shown(obj)}")
        return AlgebraicWeight(q, coeffs)


@lru_cache(maxsize=None)
def _scaled_power(num: int, den: int, length: int) -> AlgebraicWeight:
    return AlgebraicWeight.two_power(Fraction(-num * length, den))


def cylinder_weight(s: Fraction, length: int) -> AlgebraicWeight:
    """2^(-s * length), the s-weight of one cylinder of the given length."""
    return _scaled_power(s.numerator, s.denominator, length)


class ScaledRing:
    """The weights of one min/sum pass as int vectors over a common 2^K.

    With s = a/q and lengths up to m fixed, the cylinder weight
    2^(-s*L) = 2^(-k) * u^r (a*L = k*q + r) is the vector with 2^(K-k) at
    index r, K = floor(a*m/q): every value of the pass is sum_j v_j u^j / 2^K
    with int v_j.  Sums are elementwise int sums, comparisons go through
    sign_of, sign_against compares a vector with any AlgebraicWeight without
    building the vector's weight, and weight() converts a vector back to its
    canonical AlgebraicWeight once, at the end.
    """

    __slots__ = ("a", "q", "scale")

    def __init__(self, s: Fraction, m: int):
        self.a, self.q = s.numerator, s.denominator
        self.scale = self.a * m // self.q

    def cylinder(self, length: int) -> tuple[int, ...]:
        k, r = divmod(self.a * length, self.q)
        v = [0] * self.q
        v[r] = 1 << (self.scale - k)
        return tuple(v)

    def add(self, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(add, x, y))

    def le(self, x: tuple[int, ...], y: tuple[int, ...]) -> bool:
        return sign_of(tuple(map(sub, x, y)), self.q) <= 0

    def sign_against(self, v: tuple[int, ...], w: AlgebraicWeight) -> int:
        """Exact sign of v/2^K - w, for any weight w, with one sign_of call.

        Both sides are lifted to lcm(q, w.q) and the difference is
        multiplied by 2^K times the common denominator of w's coefficients,
        which leaves its sign alone and every coefficient an int.
        """
        q = self.q * w.q // math.gcd(self.q, w.q)
        den = 1
        for r in w.coeffs:
            den = math.lcm(den, r.denominator)
        coeffs = [0] * q
        step = q // self.q
        for j, c in enumerate(v):
            coeffs[j * step] = c * den
        step = q // w.q
        scaled = den << self.scale
        for j, r in enumerate(w.coeffs):
            coeffs[j * step] -= r.numerator * (scaled // r.denominator)
        return sign_of(tuple(coeffs), q)

    def weight(self, v: tuple[int, ...]) -> AlgebraicWeight:
        den = 1 << self.scale
        return AlgebraicWeight._make(self.q, {j: Fraction(c, den) for j, c in enumerate(v)})


def as_weight(x) -> AlgebraicWeight:
    """A weight as given, or the rational it names."""
    if isinstance(x, AlgebraicWeight):
        return x
    return AlgebraicWeight.from_rational(Fraction(x))
