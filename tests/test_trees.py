import random

import pytest

from helpers_markings import cyclic_automaton, pruned, tree_of

from cgmt.construct import PiecewiseCode
from cgmt.core import CgmtError, compatible, iter_strings, string_at
from cgmt import trees as tr
from cgmt.treespec import spec_from_obj
from cgmt.trees import (
    BlockMarking,
    Condition1Violation,
    Condition2Violation,
    Condition3Violation,
    NotExtendible,
    PrunedViolation,
    SeparableSequence,
    TreeSource,
    code_of_levels,
    constant_tail_path,
    dyadic_tree,
    full_tree,
    leftmost_path,
    marking_of_source,
    prefix_closure,
    restrict,
    rooted_tree,
    separable_from_pruned,
    tree_from_separable,
    validate_code,
)


def empty_tree() -> TreeSource:
    return TreeSource(member=lambda s: False, extendible=lambda s: False, name="empty")


# -- validate_code -------------------------------------------------------------


def test_validate_full_code():
    # Length 7 = 2^3 - 1 covers every string of length <= 2.
    code = validate_code("1" * 7, full_tree())
    assert code.validated_block == 2
    assert code.is_marked("01")


def test_validate_prefix_closure():
    # "01" marked while "0" is not.
    bits = ["0"] * 7
    bits[0] = "1"
    bits[4] = "1"
    with pytest.raises(Condition1Violation) as e:
        validate_code("".join(bits), full_tree())
    assert e.value.witness == "01"


def test_validate_ambient():
    with pytest.raises(Condition2Violation) as e:
        validate_code("101", rooted_tree("0"))
    assert e.value.witness == "1"


def test_validate_level_coverage():
    with pytest.raises(Condition3Violation) as e:
        validate_code("100", full_tree())
    assert e.value.witness == "1"


def test_validate_pruned_child():
    # "1" is marked, its children are in view, neither is marked.
    assert validate_code("1111000", full_tree(), pruned=False).validated_block == 2
    with pytest.raises(PrunedViolation) as e:
        validate_code("1111000", full_tree(), pruned=True)
    assert e.value.witness == "1"


def brute_accepts(nu: str, ambient: TreeSource) -> bool:
    # Independent transcription of the three code conditions.
    marked = {string_at(i) for i, b in enumerate(nu) if b == "1"}
    for s in marked:
        for j in range(len(s)):
            if s[:j] not in marked:
                return False
    if any(not ambient.member(s) for s in marked):
        return False
    n = 0
    while (1 << (n + 1)) - 1 <= len(nu):
        if not any(len(s) == n for s in marked):
            return False
        n += 1
    return True


def test_validator_matches_bruteforce():
    ambients = [full_tree(), rooted_tree("0"), dyadic_tree(3, 2)]
    rng = random.Random(20260816)
    prefixes = [""]
    for length in range(1, 16):
        for _ in range(40):
            prefixes.append("".join(rng.choice("01") for _ in range(length)))
    # Short prefixes exhaustively, longer ones sampled.
    for length in range(1, 8):
        prefixes.extend(format(v, f"0{length}b") for v in range(1 << length))
    for ambient in ambients:
        for nu in prefixes:
            try:
                validate_code(nu, ambient)
                accepted = True
            except tr.CodeViolation:
                accepted = False
            assert accepted == brute_accepts(nu, ambient), (nu, ambient.name)


# -- truncations ----------------------------------------------------------------


def test_truncation_rejects_non_prefix_closed():
    with pytest.raises(CgmtError):
        BlockMarking(1, (frozenset(), frozenset({"0"})))


def test_from_strings_collects_prefixes():
    t = tree_of(["01"], 2)
    assert sorted(t.marked_at(1)) == ["0"]
    assert t.is_marked("") and t.is_marked("0") and t.is_marked("01")
    assert not t.is_marked("1") and not t.is_marked("00")


def test_prune_removes_dead_branch():
    t = tree_of(["000", "10"], 3)
    p = pruned(t)
    assert not p.is_marked("10") and not p.is_marked("1")
    assert p.is_marked("00")
    assert p.marked_at(3) == t.marked_at(3)


def test_prune_empty_top_level():
    t = tree_of(["00", "11"], 3)
    assert not pruned(t).marked_at(0)


def test_prune_random_trees():
    rng = random.Random(7)
    for _ in range(200):
        depth = rng.randint(1, 8)
        strings = [
            "".join(rng.choice("01") for _ in range(rng.randint(0, depth)))
            for _ in range(rng.randint(0, 12))
        ]
        t = tree_of([""] + strings, depth)
        p = pruned(t)
        assert pruned(p) == p
        assert p.levels[depth] == t.levels[depth]
        # keep rule, checked directly
        for length in range(depth + 1):
            for s in t.marked_at(length):
                survives = any(
                    deep.startswith(s) for deep in t.marked_at(depth)
                )
                assert p.is_marked(s) == survives


def test_full_truncation_counts():
    t = marking_of_source(full_tree(), 4)
    assert [len(t.marked_at(L)) for L in range(5)] == [1, 2, 4, 8, 16]
    assert pruned(t) == t


def test_source_conversion():
    t = tree_of(["000", "10"], 3)
    src = t.to_source()
    assert src.member("10")
    assert not src.extendible("10")
    assert src.extendible("00")
    assert marking_of_source(src, 3) == t


def test_source_marking_before_block_zero_is_empty():
    assert tr.levels_of_source(full_tree(), -1) == []
    assert marking_of_source(full_tree(), -1) == BlockMarking.empty()


def test_from_source_budget():
    with pytest.raises(tr.BudgetExceeded):
        marking_of_source(full_tree(), 8, budget=100)


# -- grown trees ----------------------------------------------------------------

GROWN_BLOCK = 14

GROWN_SOURCES = {
    "full": full_tree,
    "branch-left": lambda: rooted_tree("0"),
    "branch-right": lambda: rooted_tree("1"),
    "dyadic(5/8)": lambda: dyadic_tree(5, 3),
    "dyadic(3/4)": lambda: dyadic_tree(3, 2),
    **{
        f"automaton-{seed}": lambda seed=seed: spec_from_obj(
            cyclic_automaton(random.Random(seed))
        ).source()
        for seed in (1401, 1402, 1403, 1404)
    },
}


def members_through(src: TreeSource, block: int) -> tuple[frozenset[str], ...]:
    """Every member of length <= block, by asking about every string."""
    levels: list[set[str]] = [set() for _ in range(block + 1)]
    for s in iter_strings(block):
        if src.member(s):
            levels[len(s)].add(s)
    return tuple(map(frozenset, levels))


def checked(marking: BlockMarking) -> BlockMarking:
    return BlockMarking(marking.block, marking.levels, restriction=marking.restriction)


@pytest.mark.parametrize("name", GROWN_SOURCES)
def test_grown_markings_equal_the_checked_construction(name):
    src = GROWN_SOURCES[name]()
    grown = marking_of_source(src, GROWN_BLOCK)
    assert checked(grown) == grown
    assert grown.levels == members_through(src, GROWN_BLOCK)
    code = PiecewiseCode.root_of(src)
    assert code.marking(GROWN_BLOCK) == grown
    for tau in ("0", "10", "0110"):
        restricted = grown.restrict(tau)
        assert checked(restricted) == restricted
        assert restricted.levels == tuple(
            frozenset(s for s in level if compatible(s, tau)) for level in grown.levels
        )
        via_code = code.restricted(tau).marking(GROWN_BLOCK)
        assert checked(via_code) == via_code == restricted


@pytest.mark.parametrize("seed", (1401, 1402, 1403, 1404))
def test_grown_tail_of_an_explicit_code(seed):
    # an explicit part through length 6, grown from its top by the ambient source
    rng = random.Random(seed)
    src = spec_from_obj(cyclic_automaton(rng)).source()
    ambient = marking_of_source(src, GROWN_BLOCK)
    top = {t for t in sorted(ambient.marked_at(6)) if rng.random() < 0.5}
    explicit = prefix_closure(top, 6)
    code = PiecewiseCode(src, 6, explicit)
    grown = code.marking(GROWN_BLOCK)
    assert checked(grown) == grown
    assert grown.levels[:7] == explicit
    for length in range(7, GROWN_BLOCK + 1):
        assert grown.levels[length] == {t for t in ambient.marked_at(length) if t[:6] in top}


def test_grow_asks_only_about_children_of_marks():
    src = spec_from_obj(cyclic_automaton(random.Random(1405))).source()
    asked = []
    levels = tr.grow(lambda s: asked.append(s) or src.member(s), [frozenset({""})], 10)
    children = [c for level in levels[:-1] for s in level for c in (s + "0", s + "1")]
    assert sorted(asked) == sorted(children)
    assert tuple(levels) == members_through(src, 10)


def test_grow_budget_counts_every_string_held():
    member = full_tree().member
    # the full tree holds 1 + 2 + 4 + 8 = 15 strings through length 3, root included
    assert sum(map(len, tr.grow(member, [frozenset({""})], 3, budget=15))) == 15
    levels = [frozenset({""})]
    with pytest.raises(tr.BudgetExceeded):
        tr.grow(member, levels, 3, budget=14)
    # the raise keeps the complete levels only
    assert levels == list(marking_of_source(full_tree(), 2).levels)
    # strings already held count as well, with nothing left to grow
    with pytest.raises(tr.BudgetExceeded):
        tr.grow(member, levels, 2, budget=6)
    assert tr.grow(member, levels, 3) == list(marking_of_source(full_tree(), 3).levels)


def test_dyadic_tree_counts():
    d = dyadic_tree(3, 2)
    assert [d.level_count(m) for m in range(5)] == [1, 2, 3, 6, 12]
    got = [s for s in iter_strings(2) if d.member(s)]
    assert got == ["", "0", "1", "00", "01", "10"]
    for m in range(5):
        assert sum(d.member(format(v, f"0{m}b") if m else "") for v in range(1 << m)) == d.level_count(m)


def test_extension_counts_match_enumeration():
    sources = [full_tree(), rooted_tree("10"), dyadic_tree(3, 2), dyadic_tree(5, 3), dyadic_tree(1, 4)]
    for src in sources:
        for tau in iter_strings(4):
            for m in range(7):
                expected = sum(
                    1
                    for v in range(1 << m)
                    if (s := format(v, f"0{m}b") if m else "").startswith(tau) and src.member(s)
                )
                assert src.extension_count(tau, m) == expected, (src.name, tau, m)


def test_extension_counts_stay_closed_form_deep():
    d = dyadic_tree(3, 2)
    assert d.extension_count("", 64) == 3 << 62
    assert d.extension_count("10", 64) == 1 << 62
    assert d.extension_count("11", 64) == 0
    assert rooted_tree("0").extension_count("0", 64) == 1 << 63


# -- paths and separability --------------------------------------------------------


def test_leftmost_paths():
    assert leftmost_path(full_tree(), 5) == "00000"
    assert leftmost_path(rooted_tree("1"), 3) == "100"
    with pytest.raises(NotExtendible):
        leftmost_path(empty_tree(), 3)


def test_leftmost_prefixes_are_members():
    for src in [full_tree(), rooted_tree("10"), dyadic_tree(5, 3)]:
        path = leftmost_path(src, 8)
        for k in range(9):
            assert src.member(path[:k])


def test_separable_full_tree():
    seq = separable_from_pruned(full_tree(), 3, depth=4)
    assert [g.prefix(4) for g in seq.generators] == ["0000", "0000", "1000"]


def test_separable_count_zero():
    assert separable_from_pruned(full_tree(), 0, 4).generators == ()


def test_tree_from_separable():
    seq = SeparableSequence((constant_tail_path(""), constant_tail_path("1")))
    t = tree_from_separable(seq, 2)
    members = {s for s in iter_strings(2) if t.is_marked(s)}
    assert members == {"", "0", "1", "00", "10"}


def test_separable_roundtrip():
    rng = random.Random(99)
    for _ in range(30):
        depth = rng.randint(1, 6)
        strings = ["".join(rng.choice("01") for _ in range(depth)) for _ in range(rng.randint(1, 10))]
        p = pruned(tree_of(strings, depth))
        src = p.to_source()
        count = sum(len(p.marked_at(L)) for L in range(depth + 1))
        rebuilt = tree_from_separable(separable_from_pruned(src, count, depth), depth)
        assert rebuilt == p


# -- codes and restriction ----------------------------------------------------------


def test_code_of_tree_roundtrip():
    t = tree_of(["00", "01", "1"], 2)
    code = code_of_levels(t.levels)
    assert code.bits == "1111100"
    marking = code.marking()
    assert marking.marked_at(2) == {"00", "01"}
    assert marking.marked_at(1) == {"0", "1"}


def test_restrict_full_code():
    full = validate_code("1" * 15, full_tree())
    r = restrict(full, "1")
    assert r.restriction
    marked = set(r.marked_strings())
    assert marked == {"", "1", "10", "11", "100", "101", "110", "111"}
    assert restrict(r, "1").bits == r.bits


def test_restrict_marking_levels():
    m = validate_code("1" * 7, full_tree()).marking().restrict("0")
    assert m.restriction
    assert m.marked_at(1) == {"0"}
    assert m.marked_at(0) == {""}


def test_marking_partial_block():
    code = validate_code("11011", full_tree())
    assert code.validated_block == 1
    with pytest.raises(CgmtError):
        code.marking(2)
    assert code.marking().marked_at(1) == {"0"}


def test_cut_equals_checked_construction():
    rng = random.Random("cut")
    for _ in range(30):
        block = rng.randint(0, 7)
        top = {format(rng.getrandbits(block), f"0{block}b") if block else "" for _ in range(5)}
        marking = tree_of(top, block)
        for b in range(-1, block + 1):
            cut = marking.cut(b)
            assert cut == BlockMarking(b, marking.levels[: b + 1], restriction=marking.restriction)
    with pytest.raises(CgmtError):
        marking.cut(block + 1)
