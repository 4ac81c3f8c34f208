import dataclasses
import random
from fractions import Fraction

import mpmath
import pytest

from helpers_markings import cyclic_automaton, marking_of_source, pruned, random_marking, tree_of

from cgmt.core import BudgetExceeded, CgmtError
from cgmt.measure import (
    CoverSet,
    DepthTooLarge,
    LengthViolation,
    MeasureBracket,
    NotACover,
    count_covers,
    cover_weight,
    htilde,
    htilde_bruteforce,
    measure_sequence,
    verify_marking_cover,
)
from cgmt.trees import (
    BlockMarking,
    dyadic_tree,
    full_tree,
    prefix_closure,
    quotient_of_source,
    rooted_tree,
)
from cgmt.treespec import spec_from_obj
from cgmt.weights import AlgebraicWeight, ScaledRing

W = AlgebraicWeight
HALF = Fraction(1, 2)


def marking_of(*levels: set) -> BlockMarking:
    return BlockMarking(len(levels) - 1, tuple(frozenset(l) for l in levels))


# -- frozen single values -----------------------------------------------------


def test_case2_short_prefix():
    v = htilde(BlockMarking(-1, ()), HALF, 2)
    assert v.value == W.from_rational(2)
    assert v.witness.strings == {"00", "01", "10", "11"}


def test_case2_block_below_granularity():
    m = marking_of({""}, {"0", "1"})
    v = htilde(m, HALF, 2)
    assert v.value == W.from_rational(2)
    assert v.at_block == 1


def test_full_block2_half_dimension():
    m = marking_of({""}, {"0", "1"}, {"00", "01", "10", "11"})
    v = htilde(m, HALF, 1)
    assert v.value == W.two_power(Fraction(-1, 2)) * 2
    assert v.witness.strings == {"0", "1"}


def test_left_half_unit_dimension():
    m = marking_of({""}, {"0"}, {"00", "01"})
    v = htilde(m, 1, 0)
    assert v.value == W.from_rational(HALF)
    assert v.witness.strings == {"0"}


def test_empty_top_is_zero():
    m = BlockMarking(2, (frozenset({""}), frozenset(), frozenset()))
    assert htilde(m, HALF, 0).value.is_zero()
    assert htilde_bruteforce(m, HALF, 0).value.is_zero()


def test_single_leaf():
    m = marking_of({""}, {"1"}, {"10"}, {"100"})
    v = htilde(m, 1, 0)
    assert v.value == W.from_rational(Fraction(1, 8))
    assert v.witness.strings == {"100"}
    b = htilde_bruteforce(m, 1, 0)
    assert b.value == v.value


def test_tie_prefers_shallow_single():
    # At s = 1 every split is a tie; the witness should sit at level n.
    m = marking_of({""}, {"0", "1"}, {"00", "01", "10", "11"})
    v = htilde(m, 1, 1)
    assert v.witness.strings == {"0", "1"}
    assert v.value == W.from_rational(1)


# -- brute force as independent oracle ------------------------------------------


@pytest.mark.parametrize("s", [HALF, Fraction(2, 3), Fraction(1), Fraction(3, 2)])
def test_oracle_equivalence(s):
    rng = random.Random(f"oracle:{s}")
    for _ in range(50):
        n = rng.randint(0, 2)
        marking = random_marking(rng, n=n)
        a = htilde(marking, s, n)
        b = htilde_bruteforce(marking, s, n)
        assert a.value == b.value, (marking, s, n)
        assert verify_marking_cover(a.witness, marking, n, s) == a.value
        assert verify_marking_cover(b.witness, marking, n, s) == b.value


def test_bruteforce_witness_is_first_least_cover():
    # At s = 1 the least covers {000, 01, 10}, {000, 01, 100, 101},
    # {000, 010, 011, 10} and {000, 010, 011, 100, 101} tie with four
    # different length histograms.  Weighing each histogram once must still
    # give the first least cover of the literal enumeration.
    levels = ({""}, {"0", "1"}, {"00", "01", "10"}, {"000", "010", "011", "100", "101"})
    m = marking_of(*levels)
    top = levels[-1]

    def covers(sigma, n):
        if len(sigma) == m.block:
            yield (sigma,)
            return
        if len(sigma) >= n:
            yield (sigma,)
        kids = [c for c in (sigma + "0", sigma + "1") if any(t.startswith(c) for t in top)]
        if len(kids) == 1:
            yield from covers(kids[0], n)
        else:
            for a in covers(kids[0], n):
                for b in covers(kids[1], n):
                    yield a + b

    for n in (0, 1):
        best = best_weight = None
        ties = 0
        for cover in covers("", n):
            w = cover_weight(cover, 1)
            if best_weight is None or w < best_weight:
                best, best_weight, ties = cover, w, 1
            elif w == best_weight:
                ties += 1
        assert ties == 4
        b = htilde_bruteforce(m, 1, n)
        assert b.value == best_weight
        assert b.witness.strings == frozenset(best) == {"000", "01", "10"}


def test_bruteforce_depth_guard():
    deep = marking_of(*[{format(0, f"0{L}b") if L else ""} for L in range(9)])
    with pytest.raises(DepthTooLarge):
        htilde_bruteforce(deep, 1, 0)


def test_bruteforce_budget_guard():
    full = marking_of_source(full_tree(), 6)
    assert count_covers(full, 0) > 1_000_000
    with pytest.raises(BudgetExceeded):
        htilde_bruteforce(full, 1, 0, budget=1000)


# -- shared subtree shapes --------------------------------------------------------


@pytest.mark.parametrize("src", [full_tree(), dyadic_tree(5, 3)], ids=["full", "dyadic(5/8)"])
def test_equal_subtrees_are_weighed_once(src, monkeypatch):
    # 131,071 and 81,921 live strings, but only a few distinct subtree shapes
    # per length: the exact ring work must scale with the shapes, not the strings
    block = 16
    marking = marking_of_source(src, block)
    counts = {"add": 0, "sign": 0}

    def counted(kind, fn):
        def wrapper(*args):
            counts[kind] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(W, "__add__", counted("add", W.__add__))
    monkeypatch.setattr(W, "sign", counted("sign", W.sign))
    monkeypatch.setattr(ScaledRing, "add", counted("add", ScaledRing.add))
    monkeypatch.setattr(ScaledRing, "le", counted("sign", ScaledRing.le))
    v = htilde(marking, HALF, 1)
    monkeypatch.undo()
    assert counts["add"] <= 4 * (block + 1), counts
    assert counts["sign"] <= 4 * (block + 1), counts
    assert verify_marking_cover(v.witness, marking, 1, HALF) == v.value


def glued_marking(rng: random.Random, block: int) -> BlockMarking:
    """Random stems, each continued by one of a few random subtrees to the block."""
    stem_length = rng.randint(0, block - 1)
    depth = block - stem_length
    density = rng.uniform(0.05, 0.5)
    pieces = [
        [x for x in (format(v, f"0{depth}b") for v in range(1 << depth)) if rng.random() < density]
        or ["0" * depth]
        for _ in range(rng.randint(1, 3))
    ]
    stems = [format(v, f"0{stem_length}b") if stem_length else "" for v in range(1 << stem_length)]
    density = rng.uniform(0.05, 0.6)
    stems = [p for p in stems if rng.random() < density] or [stems[-1]]
    top = {stem + x for stem in stems for x in rng.choice(pieces)}
    return BlockMarking(block, prefix_closure(top, block))


def test_glued_markings_match_cover_check_and_oracle():
    rng = random.Random("glued")
    compared = set()
    for trial in range(144):
        block = 1 + trial % 12
        n = rng.randint(0, min(2, block))
        s = rng.choice([HALF, Fraction(2, 3), Fraction(1), Fraction(3, 2)])
        marking = glued_marking(rng, block)
        v = htilde(marking, s, n)
        assert verify_marking_cover(v.witness, marking, n, s) == v.value, (marking, s, n)
        if block <= 7 and count_covers(marking, n) <= 20_000:
            assert htilde_bruteforce(marking, s, n).value == v.value, (marking, s, n)
            compared.add(block)
    assert compared == set(range(1, 8))


def deep_marking(rng: random.Random, block: int) -> BlockMarking:
    """A sparse marking of the full tree: a few random stems, each with a random bush below."""
    bush = rng.randint(1, 6)
    stems = {format(rng.getrandbits(block - bush), f"0{block - bush}b") for _ in range(rng.randint(1, 6))}
    top = {
        stem + x
        for stem in stems
        for x in (format(v, f"0{bush}b") for v in range(1 << bush))
        if rng.random() < 0.6
    } or {min(stems) + "0" * bush}
    return BlockMarking(block, prefix_closure(top, block))


def mp_min_cover(marking: BlockMarking, s: Fraction, n: int) -> mpmath.mpf:
    """The min-cover recursion at 60 digits, independent of the exact ring."""
    m = marking.block
    live = prefix_closure(marking.marked_at(m), m)

    def value(sigma: str) -> mpmath.mpf:
        here = mpmath.power(2, -mpmath.mpf(s.numerator) * len(sigma) / s.denominator)
        if len(sigma) == m:
            return here
        kids = sum(value(c) for c in (sigma + "0", sigma + "1") if c in live[len(sigma) + 1])
        return min(here, kids) if len(sigma) >= n else kids

    with mpmath.workdps(60):
        return value("")


@pytest.mark.parametrize("s", [Fraction(1, 3), HALF, Fraction(2, 3), Fraction(1)])
def test_deep_values_match_witness_weight_and_mpmath(s):
    # blocks to 63 put 2^(s*63) into the ring's common denominator
    rng = random.Random(f"deep-{s}")
    for block in (20, 40, 63, 63):
        n = rng.randint(0, 2)
        marking = deep_marking(rng, block)
        v = htilde(marking, s, n)
        assert verify_marking_cover(v.witness, marking, n, s) == v.value
        with mpmath.workdps(60):
            exact = sum(
                mpmath.mpf(r.numerator) / r.denominator * mpmath.power(2, mpmath.mpf(-j) / v.value.q)
                for j, r in enumerate(v.value.coeffs)
            )
            assert abs(exact - mp_min_cover(marking, s, n)) < mpmath.mpf(10) ** -45


# -- invariants -----------------------------------------------------------------


def test_prefix_monotonicity():
    rng = random.Random("prefix-mono")
    for _ in range(60):
        marking = random_marking(rng, allow_empty_top=False)
        s = rng.choice([HALF, Fraction(2, 3), Fraction(1), Fraction(3, 2)])
        n = rng.randint(0, 2)
        values = []
        for k in range(marking.block + 1):
            sub = BlockMarking(k, marking.levels[: k + 1])
            values.append(htilde(sub, s, n, want_witness=False).value)
        for earlier, later in zip(values, values[1:]):
            assert earlier >= later


def test_upper_bound_level_n_cover():
    rng = random.Random("upper")
    for _ in range(40):
        marking = random_marking(rng)
        s = rng.choice([HALF, Fraction(1), Fraction(3, 2)])
        n = rng.randint(0, 2)
        bound = W.two_power((1 - s) * n)
        assert htilde(marking, s, n, want_witness=False).value <= bound


def test_granularity_monotonicity():
    rng = random.Random("delta")
    for _ in range(40):
        n = rng.randint(0, 2)
        marking = random_marking(rng, n=n + 1, allow_empty_top=False)
        if marking.block < n + 1:
            continue
        s = rng.choice([HALF, Fraction(2, 3), Fraction(1)])
        a = htilde(marking, s, n, want_witness=False).value
        b = htilde(marking, s, n + 1, want_witness=False).value
        assert a <= b


def test_top_block_determinism():
    rng = random.Random("top-det")
    for _ in range(40):
        marking = random_marking(rng, allow_empty_top=False)
        m = marking.block
        # same top level, all intermediate marks replaced by bare ancestors
        levels = [set() for _ in range(m + 1)]
        levels[m] = set(marking.levels[m])
        for length in range(m, 0, -1):
            levels[length - 1] = {s[:-1] for s in levels[length]}
        lean = BlockMarking(m, tuple(frozenset(l) for l in levels))
        s = rng.choice([HALF, Fraction(1), Fraction(3, 2)])
        assert (
            htilde(marking, s, 1, want_witness=False).value
            == htilde(lean, s, 1, want_witness=False).value
        )


def test_unit_dimension_closed_form():
    rng = random.Random("lebesgue-form")
    for _ in range(40):
        marking = random_marking(rng, allow_empty_top=False)
        count = len(marking.marked_at(marking.block))
        expected = W.two_power(-marking.block) * count
        for n in range(0, marking.block + 1):
            assert htilde(marking, 1, n, want_witness=False).value == expected


# -- cover verification ------------------------------------------------------------


def test_verify_delta_cover_accepts_witness():
    t = pruned(tree_of(["000", "011", "110"], 3))
    marking = marking_of_source(t.to_source(), 3)
    for s, n in [(HALF, 1), (Fraction(1), 0), (Fraction(3, 2), 2)]:
        v = htilde(marking, s, n)
        assert verify_marking_cover(v.witness, t, n, s) == v.value


def test_verify_delta_cover_rejects():
    t = marking_of_source(full_tree(), 2)
    with pytest.raises(LengthViolation):
        verify_marking_cover(CoverSet(frozenset({""}), 0, 2), t, 1, 1)
    with pytest.raises(NotACover) as e:
        verify_marking_cover(CoverSet(frozenset({"0"}), 0, 2), t, 0, 1)
    assert e.value.witness in {"10", "11"}


def test_cover_set_length_invariant():
    with pytest.raises(CgmtError):
        CoverSet(frozenset({"0"}), 2, 3)


def test_cover_weight_values():
    assert cover_weight(["0", "1"], HALF) == W.two_power(Fraction(-1, 2)) * 2
    assert cover_weight([], 1).is_zero()
    assert cover_weight(["00", "01", "10", "11"], HALF) == W.from_rational(2)


# -- sequences and comparison --------------------------------------------------------


def test_measure_sequence_full_tree():
    for n, expected in [(0, W.from_rational(1)), (1, W.two_power(-HALF) * 2), (2, W.from_rational(2))]:
        values = measure_sequence(full_tree(), HALF, n, [n + 1, n + 2, n + 4])
        assert all(v.value == expected for v in values)


def test_measure_sequence_unit_dimension_constant():
    values = measure_sequence(full_tree(), 1, 0, [0, 1, 3, 5])
    assert all(v.value == W.from_rational(1) for v in values)
    values = measure_sequence(rooted_tree("0"), 1, 0, [1, 2, 5])
    assert all(v.value == W.from_rational(HALF) for v in values)


def test_measure_sequence_monotone():
    rng = random.Random("seq")
    for _ in range(20):
        depth = rng.randint(2, 5)
        strings = [
            "".join(rng.choice("01") for _ in range(depth)) for _ in range(rng.randint(1, 10))
        ]
        src = tree_of(strings, depth).to_source()
        values = measure_sequence(src, HALF, 1, list(range(depth + 1)))
        for earlier, later in zip(values, values[1:]):
            assert earlier.value >= later.value


def test_measure_sequence_checks_its_arguments_before_the_budget():
    # block 40 of the full tree passes a budget of 100 strings, so the
    # dimension and the granularity must be checked before the quotient is built
    with pytest.raises(CgmtError, match="granularity must be nonnegative"):
        measure_sequence(full_tree(), HALF, -1, [40], budget=100)
    with pytest.raises(CgmtError, match="dimension must be nonnegative"):
        measure_sequence(full_tree(), -HALF, 1, [40], budget=100)
    with pytest.raises(BudgetExceeded):
        measure_sequence(full_tree(), HALF, 1, [40], budget=100)


def test_measure_sequence_checks_one_marking(monkeypatch):
    # the only marking built is the explicit spec's own, checked by the
    # constructor when it is parsed; measure_sequence weighs the quotient and
    # builds no marking, with or without states
    checks, derived = [], []
    post_init = BlockMarking.__post_init__
    monkeypatch.setattr(
        BlockMarking, "__post_init__", lambda self: checks.append(self.block) or post_init(self)
    )
    grown = BlockMarking.derived.__func__
    monkeypatch.setattr(
        BlockMarking, "derived",
        classmethod(lambda cls, block, *a, **kw: derived.append(block) or grown(cls, block, *a, **kw)),
    )
    explicit = spec_from_obj(
        {"kind": "explicit", "depth": 8, "members": ["", "0", "1", "01", "010", "0101"]}
    )
    assert checks == [8] and derived == []
    for src in (full_tree(), enumerated(full_tree()), explicit):
        values = measure_sequence(src, HALF, 1, [3, 5, 8])
        assert [v.at_block for v in values] == [3, 5, 8]
    assert checks == [8] and derived == []


def test_measure_sequence_rejects_unsorted():
    with pytest.raises(CgmtError):
        measure_sequence(full_tree(), 1, 0, [2, 1])


def test_bracket_validation():
    with pytest.raises(CgmtError):
        MeasureBracket(W.from_rational(1), W.from_rational(HALF), 0, 0)
    b = MeasureBracket(W.from_rational(HALF), W.from_rational(1), 2, 3)
    assert b.lower_block == 2


def test_restriction_marking_zero():
    code = marking_of_source(full_tree(), 2)
    marking = code.restrict("00")
    v = htilde(marking, HALF, 1)
    assert v.value == W.two_power(-1)
    gone = code.restrict("000000")  # nothing marked that deep except prefixes
    assert htilde(gone, HALF, 0).value == W.two_power(-1)


# -- the state quotient -------------------------------------------------------------

THIRDS = Fraction(2, 3)
# members of length 0, 1 and 2 only: the tree dies out before the block
DIES = {"kind": "automatic", "transitions": [[1, 1], [2, 2], [3, 3], [3, 3]],
        "accepting": [0, 1, 2], "start": 0}


def enumerated(src):
    """The same tree without its state callback: every member is its own class."""
    return dataclasses.replace(src, state=None)


def seeded_automata(count: int, block: int = 16, held=(1_000, 40_000)) -> list:
    """Seeded 7-state automata holding held[0]..held[1] strings through the block."""
    rng = random.Random("quotient")
    found = []
    for _ in range(1000):
        src = spec_from_obj(cyclic_automaton(rng))
        if held[0] <= sum(src.extension_count("", m) for m in range(block + 1)) <= held[1]:
            found.append(src)
            if len(found) == count:
                return found
    raise AssertionError("too few seeded automata of the wanted size")


def test_quotient_equals_enumeration_on_seeded_automata():
    # value and witness at every block 0..16
    blocks = list(range(17))
    for src in seeded_automata(4):
        marking = marking_of_source(enumerated(src), 16)
        for s in (HALF, THIRDS, 1):
            for n in (0, 1, 2):
                want = [htilde(marking.cut(b), s, n) for b in blocks]
                assert measure_sequence(src, s, n, blocks) == want, (src, s, n)


@pytest.mark.parametrize("src", [
    full_tree(), rooted_tree("0"), dyadic_tree(5, 3), dyadic_tree(3, 2),
    spec_from_obj(DIES),
], ids=["full", "branch-left", "dyadic(5/8)", "dyadic(3/4)", "dies-out"])
def test_quotient_equals_enumeration_on_builtins(src):
    # value and witness, against htilde on the grown marking and against the
    # quotient of one class per member
    blocks = list(range(13))
    marking = marking_of_source(enumerated(src), 12)
    for s in (HALF, THIRDS, 1):
        for n in (0, 1, 2):
            want = [htilde(marking.cut(b), s, n) for b in blocks]
            assert measure_sequence(src, s, n, blocks) == want
            assert measure_sequence(enumerated(src), s, n, blocks) == want
    # the strings held are the classes' multiplicities, the count grow reaches
    quotient = quotient_of_source(src, 12)
    levels = marking_of_source(enumerated(src), 12).levels
    assert [sum(m) for m in quotient.multiplicity] == [len(level) for level in levels]


def test_quotient_equals_bruteforce_to_block_7():
    sources = [full_tree(), dyadic_tree(5, 3), spec_from_obj(DIES)]
    sources += seeded_automata(3, block=7, held=(20, 200))
    for src in sources:
        marking = marking_of_source(enumerated(src), 7)
        for s in (HALF, THIRDS, 1):
            for n in (0, 1, 2):
                blocks = [b for b in range(8) if count_covers(marking.cut(b), n) <= 20_000]
                values = measure_sequence(src, s, n, blocks)
                for b, v in zip(blocks, values):
                    assert v.value == htilde_bruteforce(marking.cut(b), s, n).value, (src, s, n, b)


@pytest.mark.parametrize("src", [
    full_tree(), rooted_tree("101"), dyadic_tree(5, 3), dyadic_tree(7, 4),
    spec_from_obj(DIES), *seeded_automata(2, block=8, held=(50, 500)),
], ids=["full", "rooted:101", "dyadic(5/8)", "dyadic(7/16)", "dies-out", "auto0", "auto1"])
def test_state_contract(src):
    # members of one length with equal states: the same children, in equal states
    for level in marking_of_source(enumerated(src), 8).levels[:-1]:
        seen = {}
        for sigma in sorted(level):
            kids = tuple(
                src.state(c) if src.member(c) else None for c in (sigma + "0", sigma + "1")
            )
            assert seen.setdefault(src.state(sigma), kids) == kids, sigma


def counting_state_source(base):
    calls = {"member": 0, "extendible": 0, "extension_count": 0, "state": 0}

    def counted(name):
        fn = getattr(base, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    return dataclasses.replace(base, **{name: counted(name) for name in calls}), calls


@pytest.mark.parametrize("s", [HALF, 1])
def test_quotient_asks_only_member_and_state(s):
    depth = 16
    for base in seeded_automata(2):
        src, calls = counting_state_source(base)
        values = measure_sequence(src, s, 1, list(range(depth + 1)))
        assert calls["extendible"] == 0 and calls["extension_count"] == 0
        classes = max(map(len, quotient_of_source(base, depth).multiplicity))
        witness = max(len(v.witness.strings) for v in values)
        assert 0 < calls["member"] <= 2 * classes * depth + 2 * witness * depth, calls
        assert calls["state"] <= calls["member"]


def test_quotient_budget_stops_at_the_crossing_level():
    # 127 strings through level 6 cross a budget of 100; nothing deeper is asked
    src, calls = counting_state_source(full_tree())
    with pytest.raises(BudgetExceeded, match="more than 100 strings through block 40"):
        measure_sequence(src, HALF, 1, [40], budget=100)
    assert calls["member"] == 1 + 2 * 6
