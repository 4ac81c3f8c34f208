"""Tests for the interpolation engine and the staged pipelines.

Expected numbers fall in three groups: closed forms checked by hand
(single-cover weights, unit-dimension totals), values frozen from oracle
runs that were verified against independent DP recomputation, and pure
error-path assertions.
"""

import dataclasses
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from helpers_markings import assert_code_conditions, grown_source, marking_of_source, tree_of

from cgmt import construct
from cgmt.core import BudgetExceeded, CgmtError, compatible
from cgmt.construct import (
    DensityViolated,
    NoStableIndex,
    PiecewiseCode,
    PromiseViolated,
    approx_subset,
    baire_intersect,
    besicovitch_extract,
    interpolate_subset,
    lebesgue_path,
    thinify,
)
from cgmt.measure import PreconditionMeasure, ShapeTable, htilde
from cgmt.treespec import spec_from_obj
from cgmt.trees import (
    BlockMarking,
    NotExtendible,
    TreeSource,
    dyadic_tree,
    full_tree,
    grow,
    levels_of_source,
    prefix_closure,
    quotient_of_source,
    rooted_tree,
)
from cgmt.weights import AlgebraicWeight, ScaledRing, cylinder_weight

HALF = Fraction(1, 2)


def W(x) -> AlgebraicWeight:
    return AlgebraicWeight.from_rational(Fraction(x))


def exactly(value: AlgebraicWeight, expected) -> bool:
    return (value - W(expected)).is_zero()


def branch_is_thin(code: PiecewiseCode, s, n: int, tau: str, theta, depth: int) -> bool:
    """The branch above tau weighs at most its baseline 2^(-ns) plus theta at depth."""
    value = htilde(code.restricted(tau).marking(depth), s, n + 1, want_witness=False).value
    return value <= AlgebraicWeight.two_power(-Fraction(s) * n) + W(theta)


def counting_source(base: TreeSource, forbid_counts: bool = True) -> tuple[TreeSource, dict]:
    calls = {"member": 0, "extendible": 0}

    def member(s: str) -> bool:
        calls["member"] += 1
        return base.member(s)

    def extendible(s: str) -> bool:
        calls["extendible"] += 1
        return base.require_extendible()(s)

    def no_counts(tau: str, m: int) -> int:
        raise AssertionError("extension_count must stay untouched here")

    return (
        TreeSource(
            member=member,
            extendible=extendible,
            extension_count=no_counts if forbid_counts else None,
            name=f"{base.name}:counting",
        ),
        calls,
    )


# -- piecewise codes --------------------------------------------------------------


def test_root_code_shape():
    zc = PiecewiseCode.root_of(full_tree())
    assert zc.live_depth == 0
    assert zc.top() == {""}
    assert len(zc.level(3)) == 8
    assert "101" in zc.level(3)
    marking = zc.marking(2)
    assert [len(level) for level in marking.levels] == [1, 2, 4]


def test_derived_codes_are_not_asked_again(monkeypatch):
    # every code's levels are grown from its source, so building one (directly,
    # as a restriction, a sweep result or a thinning merge) asks the source
    # (the jump oracle, on a pruned ambient) nothing
    src, calls = counting_source(full_tree())
    code = PiecewiseCode(src, 4, marking_of_source(full_tree(), 4).levels)
    restricted = code.restricted("01")
    assert calls == {"member": 0, "extendible": 0}
    assert restricted.level(4) == {s for s in code.level(4) if s.startswith("01")}

    build = PiecewiseCode.__init__
    built = []

    def unasked(self, *args, **kwargs):
        before = dict(calls)
        build(self, *args, **kwargs)
        assert calls == before, "building a code asked its source"
        built.append(self)

    monkeypatch.setattr(PiecewiseCode, "__init__", unasked)
    src, calls = counting_source(full_tree())
    _, certs = besicovitch_extract(src, HALF, 1, 0, 3)
    assert all(cert.verify() for cert in certs)
    assert len(built) > 1 and calls["extendible"] > 0


def test_restricted_code_filters():
    zc = PiecewiseCode.root_of(full_tree()).restricted("1")
    assert zc.level(2) == {"10", "11"}
    assert "01" not in zc.level(2)
    assert "110" in zc.level(3)


def test_code_prefix_roundtrip():
    marking = PiecewiseCode.root_of(full_tree()).marking(2)
    assert [len(level) for level in marking.levels] == [1, 2, 4]
    assert_code_conditions(marking, full_tree())


# -- interpolation ----------------------------------------------------------------


def test_interpolate_left_half_unit_dimension():
    # full tree, s=1, n=0, target [1/2, 3/4): one level-1 branch carries exactly 1/2
    r = approx_subset(full_tree(), 1, 0, HALF, Fraction(1, 4))
    assert r.top_level == 1
    assert r.restored == 0
    assert r.code.top() == {"0"}
    assert [b for b, _ in r.values] == [1, 2, 3]
    assert all(exactly(v, HALF) for _, v in r.values)
    assert exactly(r.bracket.lower, HALF)
    assert exactly(r.bracket.upper, HALF)


def test_interpolate_identity_case():
    # the ambient value is already inside [c, c+eps); the sweep returns the tree itself
    r = approx_subset(full_tree(), 1, 0, 1, Fraction(1, 8))
    assert r.top_level == 0
    assert r.restored == 0
    assert r.code.top() == {""}
    assert all(exactly(v, 1) for _, v in r.values)


def test_interpolate_half_dimension_pair():
    r = approx_subset(full_tree(), HALF, 1, 1, Fraction(1, 8))
    assert r.top_level == 2
    assert r.code.top() == {"00", "10"}
    assert [b for b, _ in r.values] == [2, 3, 4]
    assert all(exactly(v, 1) for _, v in r.values)
    assert exactly(r.bracket.upper, 1)


def test_interpolate_zero_target_positive_tree():
    # c=0 defers to a positive floor below eps; here floor = eps/2 = 1/8
    r = approx_subset(full_tree(), 1, 0, 0, Fraction(1, 4))
    for _, v in r.values:
        assert v >= W(Fraction(1, 8))
        assert v < W(Fraction(1, 4))
    assert exactly(r.bracket.lower, Fraction(1, 8))


def test_interpolate_zero_target_dead_tree():
    dead = marking_of_source(full_tree(), 2).to_source()
    r = approx_subset(dead, 1, 0, 0, Fraction(1, 4))
    assert r.bracket.lower.is_zero()
    assert r.bracket.upper.is_zero()
    assert all(v.is_zero() for _, v in r.values)


def test_interpolate_precondition_failures():
    with pytest.raises(PreconditionMeasure):
        approx_subset(full_tree(), 1, 0, 2, Fraction(1, 4))
    with pytest.raises(PreconditionMeasure):
        approx_subset(rooted_tree("0"), 1, 0, Fraction(3, 4), Fraction(1, 8))


def test_interpolate_argument_guards():
    with pytest.raises(CgmtError):
        approx_subset(full_tree(), 1, 0, HALF, 0)
    with pytest.raises(CgmtError):
        approx_subset(full_tree(), 1, 0, -1, Fraction(1, 4))
    with pytest.raises(PreconditionMeasure):
        approx_subset(full_tree(), 0, 0, HALF, Fraction(1, 4))
    base = approx_subset(full_tree(), HALF, 1, 1, Fraction(1, 8)).code
    with pytest.raises(CgmtError):
        interpolate_subset(base, 1, HALF, 1, 1, Fraction(1, 8))


def test_interpolate_prefix_resume():
    base = approx_subset(full_tree(), HALF, 1, 1, Fraction(1, 8)).code
    r = interpolate_subset(base, 3, HALF, 2, 1, Fraction(1, 8))
    # the level-2 cover {00,10} keeps every window block at exactly 1
    assert r.top_level == 3
    assert r.code.top() == {"000", "001", "100", "101"}
    for length in range(4):
        assert r.code.level(length) == base.level(length)
    assert all(exactly(v, 1) for _, v in r.values)


def test_pruned_variant_child_condition():
    r = approx_subset(full_tree().pruned(), HALF, 1, 1, Fraction(1, 8))
    assert r.code.top() == {"00", "10"}
    assert all(exactly(v, 1) for _, v in r.values)
    assert_code_conditions(r.code.marking(r.code.live_depth + 2), full_tree(), pruned=True)


def test_interpolate_random_brackets():
    import random

    rng = random.Random(0)
    stable = 0
    unstable = 0
    for _ in range(30):
        depth = rng.randint(2, 4)
        leaves = [
            format(j, f"0{depth}b")
            for j in range(1 << depth)
            if rng.random() < 0.7
        ]
        if not leaves:
            leaves = ["0" * depth]
        src = grown_source(tree_of(leaves, depth))
        s = rng.choice([HALF, Fraction(2, 3), Fraction(1)])
        n = rng.choice([0, 1])
        zc = PiecewiseCode.root_of(src)
        total = htilde(zc.marking(max(depth, n) + 2), s, n, want_witness=False).value
        if total.is_zero():
            continue
        c = total * Fraction(rng.randint(1, 8), 8)
        eps = W(Fraction(1, 1 << rng.randint(3, 6)))
        try:
            r = interpolate_subset(zc, n, s, n, c, eps)
        except NoStableIndex:
            unstable += 1
            continue
        stable += 1
        for _, v in r.values:
            assert v >= c
            assert v < c + eps
        for length in range(r.code.live_depth + 3):
            for sigma in r.code.level(length):
                assert src.member(sigma)
        assert r.code.level(n) <= zc.level(n)
    assert stable >= 20, f"only {stable} stable runs ({unstable} unstable)"


def sweep_marking(zc, n_prime: int, m: int, index: int, block: int) -> BlockMarking:
    """The restore sweep's marking at one index and block, rebuilt level by level.

    Skeleton: the least level-m string below each level-n_prime root; the
    removed strings come back in bit-reversed order.  Levels through n_prime
    are the code's own, n_prime+1..m the prefixes of the swept top, and the
    deeper ones the code's strings below that top.  The checking
    constructor sees every level.
    """
    ambient = zc.marking(block)
    z_top = ambient.levels[m]
    skeleton = {min(t for t in z_top if t.startswith(rho)) for rho in {t[:n_prime] for t in z_top}}
    removed = sorted(z_top - skeleton, key=lambda t: (int(t[::-1], 2) if t else 0, t))
    top = skeleton | set(removed[:index])
    levels = list(ambient.levels[: n_prime + 1])
    levels += [{t[:length] for t in top} for length in range(n_prime + 1, m + 1)]
    levels += [{t for t in ambient.levels[length] if t[:m] in top} for length in range(m + 1, block + 1)]
    return BlockMarking(block, levels)


NO_11 = {"kind": "automatic", "transitions": [[0, 1], [0, 2], [2, 2]], "accepting": [0, 1]}
SWEEP_CODES = {
    "full": lambda: PiecewiseCode.root_of(full_tree()),
    "dyadic(5/8)": lambda: PiecewiseCode.root_of(dyadic_tree(5, 3)),
    "no-11": lambda: PiecewiseCode.root_of(spec_from_obj(NO_11)),
    "restricted": lambda: PiecewiseCode.root_of(dyadic_tree(5, 3)).restricted("10"),
}
# bits at even positions are free and odd ones are 0: dimension 1/2, so at
# s > 1/2 block values fall with the block and the window's blocks need
# different sweep indices; on the codes above they all need the same one
EVEN_BITS = {"kind": "automatic", "transitions": [[1, 1], [0, 2], [2, 2]], "accepting": [0, 1]}
CARRY_CODES = {**SWEEP_CODES, "even-bits": lambda: PiecewiseCode.root_of(spec_from_obj(EVEN_BITS))}


@pytest.mark.parametrize("name", list(SWEEP_CODES))
@pytest.mark.parametrize("s", [Fraction(1, 3), HALF, Fraction(2, 3)], ids=str)
def test_sweep_matches_materialized_markings(name, s):
    # the sweep climbs shape ids and never builds its markings; rebuilding
    # them here must give the reported values at the chosen index, and one
    # step earlier some window block must still be below the target
    rng = random.Random(f"{name} {s}")
    zc = SWEEP_CODES[name]()
    checked = 0
    for _ in range(4):
        n = rng.randint(0, 2)
        n_prime = n + rng.randint(0, 2)
        ceiling = htilde(zc.marking(n_prime + 6), s, n, want_witness=False).value
        # a low target at s = 1/3 needs a top level near 20 on the full tree
        c = ceiling * Fraction(rng.randint(3, 8), 8)
        eps = ceiling * Fraction(1, 1 << rng.randint(2, 5))
        try:
            r = interpolate_subset(zc, n_prime, s, n, c, eps)
        except NoStableIndex:
            continue
        checked += 1
        m = r.top_level
        assert r.code.top() == sweep_marking(zc, n_prime, m, r.restored, m).levels[m]
        for block, value in r.values:
            marking = sweep_marking(zc, n_prime, m, r.restored, block)
            assert htilde(marking, s, n, want_witness=False).value == value
        if r.restored > 0:
            assert any(
                htilde(sweep_marking(zc, n_prime, m, r.restored - 1, block), s, n).value < c
                for block, _ in r.values
            )
    assert checked >= 2


@pytest.mark.parametrize("name", list(CARRY_CODES))
@pytest.mark.parametrize("s", [Fraction(1, 3), HALF, Fraction(2, 3)], ids=str)
def test_sweep_index_is_the_window_max_of_least_indices(name, s):
    # the sweep carries one index across the window; it must be the largest
    # over the window's blocks of each block's least index at target, found
    # here by a linear scan of rebuilt markings
    rng = random.Random(f"carried index {name} {s}")
    zc = CARRY_CODES[name]()
    checked = 0
    for _ in range(6):
        n = rng.randint(0, 2)
        n_prime = n + rng.randint(0, 2)
        ceiling = htilde(zc.marking(n_prime + 6), s, n, want_witness=False).value
        c = ceiling * Fraction(rng.randint(4, 16), 16)
        eps = ceiling * Fraction(1, 1 << rng.randint(1, 3))
        try:
            r = interpolate_subset(zc, n_prime, s, n, c, eps)
        except (NoStableIndex, PreconditionMeasure):
            continue
        checked += 1
        least = []
        for block, _ in r.values:
            # past the last removed string the sweep is the ambient code,
            # which is at target or the search would have raised
            i = 0
            while htilde(sweep_marking(zc, n_prime, r.top_level, i, block), s, n, False).value < c:
                i += 1
            least.append(i)
        assert r.restored == max(least), (n, n_prime, c, eps, least)
    assert checked >= 2


def _dense_explicit(seed: str, depth: int) -> dict:
    """A seeded explicit spec: below each member each child is kept with probability 0.85."""
    rng = random.Random(seed)
    level, members = [""], [""]
    for _ in range(depth):
        grown = []
        for sigma in level:
            kids = [sigma + bit for bit in "01" if rng.random() < 0.85]
            grown += kids or [sigma + rng.choice("01")]
        level = grown
        members += grown
    return {"kind": "explicit", "depth": depth, "members": members}


STATELESS_SWEEP_CODES = {
    "explicit": lambda: PiecewiseCode.root_of(spec_from_obj(_dense_explicit("sweep", 11))),
    "explicit|1": lambda: PiecewiseCode.root_of(spec_from_obj(_dense_explicit("sweep", 11))).restricted("1"),
}


@pytest.mark.parametrize("name", list(STATELESS_SWEEP_CODES))
@pytest.mark.parametrize("s", [Fraction(1, 3), HALF, Fraction(2, 3)], ids=str)
def test_sweep_matches_materialized_markings_without_states(name, s):
    # the oracle of test_sweep_matches_materialized_markings on a source
    # without states, whose quotient has one class per member; its tree
    # ends at depth 11, so a probe past it finds the ambient below target
    rng = random.Random(f"stateless {name} {s}")
    zc = STATELESS_SWEEP_CODES[name]()
    assert zc.source.state is None
    checked = 0
    for _ in range(6):
        n = rng.randint(0, 2)
        n_prime = n + rng.randint(0, 2)
        ceiling = htilde(zc.marking(n_prime + 4), s, n, want_witness=False).value
        c = ceiling * Fraction(rng.randint(3, 8), 8)
        eps = ceiling * Fraction(1, 1 << rng.randint(2, 5))
        try:
            r = interpolate_subset(zc, n_prime, s, n, c, eps)
        except (NoStableIndex, PreconditionMeasure):
            continue
        checked += 1
        m = r.top_level
        assert r.code.top() == sweep_marking(zc, n_prime, m, r.restored, m).levels[m]
        for block, value in r.values:
            marking = sweep_marking(zc, n_prime, m, r.restored, block)
            assert htilde(marking, s, n, want_witness=False).value == value
        if r.restored > 0:
            assert any(
                htilde(sweep_marking(zc, n_prime, m, r.restored - 1, block), s, n).value < c
                for block, _ in r.values
            )
    assert checked >= 2


def test_probe_climbs_only_its_roots(monkeypatch):
    # on the full tree with roots at level 2, the probes run to top level
    # 10, a top of 1,024 strings; each evaluation hands the table's climb
    # at most the 4 roots, and a probe that finds no index asks the
    # source about nothing below the roots
    asked = []
    base = full_tree()
    src = dataclasses.replace(base, member=lambda s: asked.append(s) or base.member(s))
    n_prime = 2
    climbed, probes = [], []
    climb, probe = ShapeTable.climb, construct._probe

    def counted_climb(self, ids, length):
        if sys._getframe(1).f_globals["__name__"] == "cgmt.construct":
            climbed[-1][1].append(len(ids))
        return climb(self, ids, length)

    def counted_probe(zc, n_prime, m, *rest):
        climbed.append((m, []))
        start = len(asked)
        got = probe(zc, n_prime, m, *rest)
        probes.append((m, got is None, max(map(len, asked[start:]), default=0)))
        return got

    monkeypatch.setattr(ShapeTable, "climb", counted_climb)
    monkeypatch.setattr(construct, "_probe", counted_probe)
    r = interpolate_subset(src, n_prime, 1, n_prime, Fraction(7, 10), Fraction(1, 1024))
    monkeypatch.undo()
    assert r.top_level >= 10 and len(r.code.top()) >= 512
    assert all(len(r.code.level(length)) <= 1 << length for length in range(11))
    assert any(m >= 10 for m, _ in climbed)
    for m, sizes in climbed:
        assert sizes and max(sizes) <= 1 << n_prime, (m, sizes)
    missed = [(m, longest) for m, none, longest in probes if none]
    assert missed and all(longest <= n_prime for _, longest in missed), missed


def test_extraction_searches_each_window_once(monkeypatch):
    # a binary search per block made 183 climbs to the root here (180 of
    # them sweep steps), and an eager top cap 150 exact comparisons
    counts = {"climbs": 0, "lt": 0}
    climb, lt = ShapeTable.climb, AlgebraicWeight.__lt__

    def counted_climb(self, ids, length):
        # htilde's own climbs come from cgmt.measure
        if sys._getframe(1).f_globals["__name__"] == "cgmt.construct":
            counts["climbs"] += 1
        return climb(self, ids, length)

    def counted_lt(a, b):
        counts["lt"] += 1
        return lt(a, b)

    monkeypatch.setattr(ShapeTable, "climb", counted_climb)
    monkeypatch.setattr(AlgebraicWeight, "__lt__", counted_lt)
    besicovitch_extract(full_tree(), HALF, 1, 0, 6)
    monkeypatch.undo()
    assert counts["climbs"] <= 90, counts
    assert counts["lt"] <= 30, counts


def test_lazy_top_cap_tries_the_eager_tops(monkeypatch):
    # this target has no stable index at any top; the tops tried must be
    # n_prime through the least m whose cylinders are thin enough
    src = spec_from_obj(EVEN_BITS)
    s, n_prime, c, eps = Fraction(2, 3), 1, W(Fraction(1, 4)), W(Fraction(1, 16))
    roots = len(PiecewiseCode.root_of(src).level(n_prime))
    top_cap = n_prime
    while not (
        cylinder_weight(s, top_cap) < eps and cylinder_weight(s, top_cap) * roots < c + eps
    ):
        top_cap += 1
    tops = []
    probe = construct._probe

    def counted_probe(zc, n_prime, m, *rest):
        tops.append(m)
        return probe(zc, n_prime, m, *rest)

    monkeypatch.setattr(construct, "_probe", counted_probe)
    with pytest.raises(NoStableIndex):
        interpolate_subset(src, n_prime, s, n_prime, c, eps)
    assert tops == list(range(n_prime, top_cap + 1))


@pytest.mark.parametrize("name", ["no-11", "even-bits"])
def test_restricted_levels_are_the_compatible_filter(name):
    # a code explicit through length 3 with a seeded top; a tau no longer
    # than that restricts the tail through the top alone, a longer one
    # filters the tail itself
    src = spec_from_obj({"no-11": NO_11, "even-bits": EVEN_BITS}[name])
    rng = random.Random(f"restricted {name}")
    top = {t for t in sorted(levels_of_source(src, 3)[3]) if rng.random() < 0.6}
    code = PiecewiseCode(src, 3, prefix_closure(top, 3))
    for length in range(6):
        for v in range(1 << length):
            tau = format(v, f"0{length}b") if length else ""
            restricted = code.restricted(tau)
            for level in range(code.live_depth + 1, code.live_depth + 4):
                expected = {t for t in code.level(level) if compatible(t, tau)}
                assert restricted.level(level) == expected, (tau, level)


def test_sweep_weighs_shared_shapes_once(monkeypatch):
    # one shape table per probe: a binary-search step pays ring work only
    # for shapes no earlier step of the probe has weighed
    counts = {"add": 0, "le": 0}

    def counted(kind, fn):
        def wrapper(*args):
            counts[kind] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(ScaledRing, "add", counted("add", ScaledRing.add))
    monkeypatch.setattr(ScaledRing, "le", counted("le", ScaledRing.le))
    besicovitch_extract(full_tree(), HALF, 1, 0, 6)
    monkeypatch.undo()
    assert counts["add"] <= 1_000, counts


@pytest.mark.parametrize("run", [
    # the full tree holds 2^13 - 1 strings through level 12, thinify's branch loop
    lambda src: thinify(src, HALF, 12, 12, Fraction(1, 8), Fraction(1, 64), budget=1000),
    # and 2^15 - 1 through level 14, interpolate_subset's roots
    lambda src: interpolate_subset(src, 14, HALF, 1, Fraction(1, 4), Fraction(1, 8), budget=1000),
], ids=["thinify", "interpolate_subset"])
def test_every_level_is_grown_under_the_budget(run):
    src, calls = counting_source(full_tree())
    with pytest.raises(BudgetExceeded):
        run(src)
    # the root, then one query per string held until the count passes 1000
    assert calls["member"] <= 1001
    assert calls["extendible"] == 0


# -- codes valued without their tail ------------------------------------------------

# a stateless tree: 14 seeded length-9 strings and their prefixes
_EXPLICIT_RNG = random.Random("explicit tail")
EXPLICIT = {
    "kind": "explicit",
    "depth": 9,
    "members": sorted({
        t[:length]
        for t in ("".join(_EXPLICIT_RNG.choice("01") for _ in range(9)) for _ in range(14))
        for length in range(10)
    }),
}
TAIL_SOURCES = {
    "no-11": lambda: spec_from_obj(NO_11),
    "even-bits": lambda: spec_from_obj(EVEN_BITS),
    "full": full_tree,
    "dyadic(5/8)": lambda: dyadic_tree(5, 3),
    "explicit": lambda: spec_from_obj(EXPLICIT),
}


def tail_codes(src: TreeSource, rng: random.Random, top: int) -> list:
    """A code over src with a seeded explicit part through top, and restrictions of it.

    Each tau is a member of length top - 1, top and top + 1 when the tree
    has one, so the restricted code's explicit part ends below, at and above
    |tau|.
    """
    levels = levels_of_source(src, top + 1)
    kept = [t for t in sorted(levels[top]) if rng.random() < 0.6] or sorted(levels[top])[:1]
    # members of src with their prefixes
    code = PiecewiseCode(src, top, prefix_closure(kept, top))
    codes = [code]
    for length in range(max(top - 1, 0), top + 2):
        if levels[length]:
            codes.append(code.restricted(rng.choice(sorted(levels[length]))))
    return codes


@pytest.mark.parametrize("pruned", [False, True], ids=["ambient", "pruned"])
@pytest.mark.parametrize("name", list(TAIL_SOURCES))
def test_code_values_equal_htilde_on_the_grown_marking(name, pruned):
    # the tail weighed on the source's state quotient (one class per string
    # without states) against htilde on the grown marking, at every block
    # through the explicit top plus 3; the budget counts the same strings
    rng = random.Random(f"tail {name} {pruned}")
    src = TAIL_SOURCES[name]()
    if pruned:
        src = src.pruned()
    for top in (0, 2, 4):
        for code in tail_codes(src, rng, top):
            for block in range(code.live_depth + 4):
                held = sum(map(len, code.marking(block).levels))
                with pytest.raises(BudgetExceeded, match=f"than {held - 1} strings through block {block}$"):
                    code.value(block, HALF, 1, budget=held - 1)
                marking = code.marking(block)
                for s in (Fraction(1, 3), HALF, Fraction(2, 3), 1):
                    for n in (0, 1, 2):
                        got = code.value(block, s, n, budget=held)
                        assert got == htilde(marking, s, n).value, (code, block, s, n)


def test_code_value_checks_the_dimension_and_granularity():
    code = PiecewiseCode.root_of(full_tree())
    with pytest.raises(CgmtError, match="granularity"):
        code.value(2, HALF, -1)
    with pytest.raises(CgmtError, match="dimension"):
        code.value(2, -1, 1)


@pytest.mark.parametrize("name", ["no-11", "even-bits", "full", "dyadic(5/8)"])
def test_pruned_and_restricted_sources_keep_the_state_contract(name):
    # members of one length with equal states have the same children in equal
    # states, so the quotient's multiplicities are grow's level sizes
    base = TAIL_SOURCES[name]()
    rng = random.Random(f"contract {name}")
    depth = 9
    trees = [(base.pruned(), levels_of_source(base.pruned(), 0))]
    for top in (2, 4):
        for code in tail_codes(base, rng, top)[1:]:
            trees.append((code.source, code.marking(top).levels))
    for src, levels in trees:
        assert src.state is base.state
        grown = grow(src.member, list(levels), depth)
        quotient = quotient_of_source(src, depth, levels=levels)
        assert [sum(m) for m in quotient.multiplicity] == list(map(len, grown[len(levels) - 1 :]))
        for level in grown[:-1]:
            seen = {}
            for sigma in sorted(level):
                kids = tuple(
                    src.state(c) if src.member(c) else None for c in (sigma + "0", sigma + "1")
                )
                assert seen.setdefault(src.state(sigma), kids) == kids, (src.name, sigma)


def test_probe_asks_nothing_per_tail_string(monkeypatch):
    # below a probe's top the full tree is one class per level, so a probe
    # asks about its two children per level, not about |top| * 2^window strings
    asked = []
    base = full_tree()
    src = dataclasses.replace(base, member=lambda s: asked.append(s) or base.member(s))
    below = []
    probe = construct._probe

    def counted_probe(zc, n_prime, m, *rest):
        start = len(asked)
        try:
            return probe(zc, n_prime, m, *rest)
        finally:
            below.append((m, sum(len(t) > m for t in asked[start:])))

    monkeypatch.setattr(construct, "_probe", counted_probe)
    window = 3
    r = interpolate_subset(src, 4, HALF, 1, 1, Fraction(1, 8), window=window)
    assert len(r.code.top()) >= 16
    assert below and all(count <= 2 * window for _, count in below), below


# -- thinning ---------------------------------------------------------------------


def test_thinify_full_half_dimension():
    out, cert = thinify(full_tree(), HALF, 1, 0, 1, Fraction(1, 64))
    assert cert.replaced() == ("0", "1")
    assert out.live_depth == 5
    assert len(out.top()) == 12
    assert {"10000", "10100", "11000", "11100"} <= out.top()
    assert exactly(cert.floor_value, 1)
    assert cert.floor_block == 7
    for tau in ("0", "1"):
        assert branch_is_thin(out, HALF, 1, tau, Fraction(1, 64), 7)


def test_thinify_already_thin_is_identity():
    zc = PiecewiseCode.root_of(full_tree())
    out, cert = thinify(zc, 1, 1, 0, 1, 0)
    assert out is zc
    assert cert.replaced() == ()
    assert all(report.kept for report in cert.branches)
    assert exactly(cert.floor_value, 1)


def test_thinify_theta_zero_unattainable():
    with pytest.raises(NoStableIndex) as info:
        thinify(full_tree(), HALF, 1, 0, 1, 0)
    assert info.value.window == 2


def test_thinify_floor_guard():
    with pytest.raises(PreconditionMeasure):
        thinify(full_tree(), HALF, 1, 0, Fraction(9, 8), Fraction(1, 64))


def test_thinify_random_floor_and_transfer():
    import random

    rng = random.Random(7)
    checked = 0
    while checked < 50:
        depth = rng.randint(2, 3)
        leaves = [
            format(j, f"0{depth}b")
            for j in range(1 << depth)
            if rng.random() < 0.75
        ]
        if not leaves:
            continue
        src = grown_source(tree_of(leaves, depth))
        s = rng.choice([HALF, Fraction(1)])
        n = rng.choice([0, 1])
        theta = Fraction(1, 1 << rng.randint(4, 6))
        zc = PiecewiseCode.root_of(src)
        c = htilde(zc.marking(depth + 2), s, n, want_witness=False).value
        if c.is_zero():
            continue
        try:
            out, cert = thinify(zc, s, n, 0, c, theta)
        except (NoStableIndex, PreconditionMeasure):
            continue
        checked += 1
        deep = out.live_depth + 2
        floor = htilde(out.marking(deep), s, n, want_witness=False).value
        assert floor >= c
        assert exactly(cert.floor_value - floor, 0) or cert.floor_block != deep
        # transfer: the next-granularity value stays within the branch-count slack
        w = htilde(out.marking(deep), s, n, want_witness=False).value
        u = htilde(out.marking(deep), s, n + 1, want_witness=False).value
        slack = W(theta) * len(out.level(n))
        assert u <= w + slack
        for tau in sorted(out.level(n)):
            assert branch_is_thin(out, s, n, tau, theta, deep)


# -- staged extraction ------------------------------------------------------------


def test_besicovitch_half_dimension_run():
    code, certs = besicovitch_extract(full_tree(), HALF, 1, 0, 6)
    assert code.live_depth == 12
    assert [c.stage for c in certs] == [1, 2, 3, 4, 5, 6]
    for cert in certs:
        assert cert.verify()
        assert exactly(cert.lower_target, 1)
        assert exactly(cert.upper_target, 1 + Fraction(1, 1 << cert.stage))
        for _, value in cert.lower_checks:
            assert exactly(value, 1)
        assert exactly(cert.upper_witness[1], 1)
    assert [c.upper_witness[0] for c in certs] == [2, 2, 6, 6, 12, 12]
    assert [c.lower_checks[0][0] for c in certs] == [4, 4, 8, 8, 14, 14]
    final = htilde(code.marking(14), HALF, 0, want_witness=False).value
    assert exactly(final, 1)


def test_besicovitch_unit_dimension_trivial():
    code, certs = besicovitch_extract(full_tree(), 1, 1, 0, 4)
    assert code.live_depth == 0
    assert len(certs) == 4
    for cert in certs:
        assert cert.verify()
        assert exactly(cert.upper_witness[1], 1)


def test_besicovitch_precondition():
    with pytest.raises(PreconditionMeasure):
        besicovitch_extract(full_tree(), HALF, 3, 0, 4)


def test_besicovitch_certificate_detects_tampering():
    import dataclasses

    _, certs = besicovitch_extract(full_tree(), 1, 1, 0, 2)
    cert = certs[0]
    block, value = cert.upper_witness
    forged = dataclasses.replace(cert, upper_witness=(block, value + W(Fraction(1, 16))))
    assert not forged.verify()
    forged_low = dataclasses.replace(
        cert, lower_checks=((cert.lower_checks[0][0], W(Fraction(1, 2))),)
    )
    assert not forged_low.verify()


# -- unit-dimension path extraction -----------------------------------------------


def test_lebesgue_full_tree_all_ones():
    assert lebesgue_path(full_tree(), 1, 8) == "11111111"


def test_lebesgue_left_half():
    # bit 0: only i=1 has empty mass; afterwards i=0 qualifies at every step
    assert lebesgue_path(rooted_tree("0"), HALF, 8) == "01111111"


def test_lebesgue_dyadic_three_quarters():
    assert lebesgue_path(dyadic_tree(3, 2), Fraction(3, 4), 12) == "101111111111"


def test_lebesgue_depth_64_members():
    cases = [
        (rooted_tree("0"), HALF),
        (rooted_tree("00"), Fraction(1, 4)),
        (dyadic_tree(3, 2), Fraction(3, 4)),
    ]
    for src, c in cases:
        path = lebesgue_path(src, c, 64)
        assert len(path) == 64
        for k in range(65):
            assert src.member(path[:k])


def test_lebesgue_false_promise():
    with pytest.raises(PromiseViolated) as info:
        lebesgue_path(rooted_tree("0"), Fraction(3, 4), 8)
    assert info.value.cap == 16
    with pytest.raises(PromiseViolated):
        lebesgue_path(dyadic_tree(3, 2), 1, 8)


@pytest.mark.parametrize("src, c", [(dyadic_tree(5, 3), Fraction(5, 8)), (full_tree(), 1)],
                         ids=["dyadic(5/8)", "full"])
def test_lebesgue_asks_each_count_once(src, c):
    # the root once per level m, whatever the path; per level tried, child "1",
    # and child "0" only when "1" does not qualify (all but "1" weighs c or more)
    asked = []

    def count(tau, m):
        asked.append((tau, m))
        return src.extension_count(tau, m)

    path = lebesgue_path(dataclasses.replace(src, extension_count=count), c, 12)
    assert path == lebesgue_path(src, c, 12)
    assert len(asked) == len(set(asked))
    assert all(tau == "" or tau[:-1] == path[: len(tau) - 1] for tau, _ in asked)
    tried = {(len(tau) - 1, m) for tau, m in asked if tau}
    expected = {("", m) for _, m in tried}
    for k, m in tried:
        expected.add((path[:k] + "1", m))
        rest = src.extension_count("", m) - src.extension_count(path[:k] + "1", m)
        if rest * c.denominator >= c.numerator << m:
            expected.add((path[:k] + "0", m))
    assert set(asked) == expected


# perfbench's seed-1 layered automaton: 21 states, the last one the dead sink, mass 13/32
LAYERED_SEED1 = {
    "kind": "automatic",
    "transitions": [[2, 1], [5, 6], [4, 3], [8, 10], [10, 9], [10, 7], [10, 7], [11, 11],
                    [13, 11], [14, 12], [11, 20], [20, 16], [18, 17], [18, 15], [17, 20],
                    [19, 19], [19, 19], [19, 20], [19, 19], [19, 19], [20, 20]],
    "accepting": list(range(20)),
}


def test_lebesgue_memory_is_linear_in_the_states():
    # the count rows are kept only as far as a child's remaining length asks;
    # past that only the start state's column grows (24 MiB while every row was kept)
    src = spec_from_obj(LAYERED_SEED1)
    tracemalloc.start()
    try:
        path = lebesgue_path(src, Fraction(13, 32), 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(path) == 4000 and src.member(path)
    assert peak < 6 << 20, peak


def test_lebesgue_refuses_a_source_without_counts():
    # level weights are closed-form counts only; nothing is grown or asked in their place
    asked = []

    def member(sigma):
        asked.append(sigma)
        return compatible(sigma, "0")

    bare = TreeSource(member=member, name="bare")
    with pytest.raises(CgmtError, match="^bare: no closed-form extension counts"):
        lebesgue_path(bare, HALF, 8)
    assert asked == []


def test_lebesgue_rejects_bad_mass():
    with pytest.raises(CgmtError):
        lebesgue_path(full_tree(), 0, 8)
    with pytest.raises(CgmtError):
        lebesgue_path(full_tree(), 2, 8)


# -- category and minimization ----------------------------------------------------


def test_baire_all_accepting_leftmost():
    path = baire_intersect(full_tree(), [lambda s: True] * 3, "", 6)
    assert path == "000000"


def test_baire_contains_one():
    path = baire_intersect(full_tree(), [lambda s: "1" in s], "", 6)
    assert path == "100000"
    assert any("1" in path[:k] for k in range(7))


def test_baire_respects_tree():
    src = rooted_tree("01")
    path = baire_intersect(src, [lambda s: s.count("1") >= 2], "", 8)
    assert path == "01100000"
    for k in range(9):
        assert src.require_extendible()(path[:k])


def test_baire_multi_stage_independent_recheck():
    opens = [
        lambda s: "1" in s,
        lambda s: len(s) >= 3 and s[2] == "1",
        lambda s: "11" in s,
    ]
    path = baire_intersect(full_tree(), opens, "", 10)
    for accepts in opens:
        assert any(accepts(path[:k]) for k in range(11))


def test_baire_empty_open_and_dead_start():
    with pytest.raises(DensityViolated) as info:
        baire_intersect(full_tree(), [lambda s: False], "", 6, cap=64)
    assert info.value.stage == 0
    assert info.value.cap == info.value.tested == 64
    with pytest.raises(NotExtendible):
        baire_intersect(rooted_tree("0"), [lambda s: True], "1", 6)


ONE_PATH = {"kind": "automatic", "transitions": [[0, 1], [1, 1]], "accepting": [0]}


def test_baire_search_stays_within_the_depth():
    # the one-path tree's only member of each length is 0...0, so no candidate
    # meets the open: the search asks the start and two children per length
    # through depth 5, then stops, well short of the cap's 20,000 queries
    src, calls = counting_source(spec_from_obj(ONE_PATH))
    with pytest.raises(DensityViolated) as info:
        baire_intersect(src, [lambda s: "1" in s], "", 5, cap=10_000)
    assert info.value.stage == 0
    assert info.value.depth == info.value.tested == 5
    assert calls["extendible"] <= 11
    with pytest.raises(CgmtError, match="longer than the requested depth"):
        baire_intersect(full_tree(), [], "0000", 3)


# -- oracle discipline ------------------------------------------------------------


def test_membership_ops_never_consult_extendible():
    src, calls = counting_source(full_tree())
    approx_subset(src, HALF, 1, 1, Fraction(1, 8))
    assert calls["member"] > 0
    assert calls["extendible"] == 0

    src, calls = counting_source(full_tree())
    interpolate_subset(PiecewiseCode.root_of(src), 0, 1, 0, HALF, Fraction(1, 4))
    assert calls["extendible"] == 0

    src, calls = counting_source(full_tree())
    thinify(src, HALF, 1, 0, 1, Fraction(1, 64))
    assert calls["extendible"] == 0


def test_jump_ops_use_both_oracles_only():
    src, calls = counting_source(full_tree())
    approx_subset(src.pruned(), HALF, 1, 1, Fraction(1, 8))
    assert calls["extendible"] > 0

    src, calls = counting_source(full_tree())
    baire_intersect(src, [lambda s: "1" in s], "", 6)
    assert calls["extendible"] > 0

    src, calls = counting_source(full_tree())
    besicovitch_extract(src, 1, 1, 0, 2)
    assert calls["extendible"] > 0
