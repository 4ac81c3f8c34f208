import os
import random
import subprocess
import sys

import pytest

from helpers_markings import (
    assert_code_conditions,
    cyclic_automaton,
    marking_of_source,
    pruned,
    random_marking,
    strings_through,
    tree_of,
)

import cgmt
from cgmt.construct import PiecewiseCode
from cgmt.core import CgmtError, compatible
from cgmt import trees as tr
from cgmt.treespec import spec_from_obj
from cgmt.trees import (
    BlockMarking,
    Condition1Violation,
    NotExtendible,
    ShapeViolation,
    TreeSource,
    dyadic_tree,
    full_tree,
    leftmost_extension_path,
    prefix_closure,
    rooted_tree,
)


def empty_tree() -> TreeSource:
    return TreeSource(member=lambda s: False, extendible=lambda s: False, name="empty")


# -- the conditions of a subset code ---------------------------------------------------


def test_validate_full_code():
    code = marking_of_source(full_tree(), 2)
    assert_code_conditions(code, full_tree())
    assert [len(level) for level in code.levels] == [1, 2, 4]
    assert "01" in code.marked_at(2)


def test_validate_prefix_closure():
    # "01" marked while "0" is not
    with pytest.raises(Condition1Violation) as e:
        BlockMarking(2, ({""}, set(), {"01"}))
    assert e.value.witness == "01"


# level 3 holds orphans (no "1" is marked); level 4 more orphans and, in a
# second marking, marks that are not binary strings of their length
OFFENDING = (
    [""], ["0"], ["00", "01"],
    ["000", "011"] + [format(v, "03b") for v in range(4, 8)],
    ["0000", "0111"] + [format(v, "04b") for v in range(9, 16)],
)
NOT_BINARY = OFFENDING[:3] + (["000", "011"], ["0000", "0111", "0x", "011x", "00y0"])

_NAME_THE_WITNESS = """
from cgmt.trees import BlockMarking, CodeViolation
for levels in ({offending!r}, {not_binary!r}):
    try:
        BlockMarking(4, levels)
    except CodeViolation as exc:
        print(type(exc).__name__, exc.witness)
"""


def test_constructor_names_the_least_offending_mark_in_any_hash_order():
    # one process cannot see set-iteration order change; two can
    src = os.path.dirname(os.path.dirname(cgmt.__file__))
    script = _NAME_THE_WITNESS.format(offending=OFFENDING, not_binary=NOT_BINARY)
    outputs = []
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    # the shortest failing level first, then lexicographic order, whatever the kind
    assert outputs[0] == "Condition1Violation 100\nShapeViolation 00y0\n"
    assert outputs[1] == outputs[0] == outputs[2]


def test_validate_ambient():
    with pytest.raises(AssertionError, match="condition 2"):
        assert_code_conditions(BlockMarking(1, ({""}, {"1"})), rooted_tree("0"))


def test_validate_level_coverage():
    # a marking may die below its block; a subset code may not
    with pytest.raises(AssertionError, match="condition 3: level 1"):
        assert_code_conditions(BlockMarking(1, ({""}, set())), full_tree())


def test_validate_pruned_child():
    # "1" is marked, its children are in view, neither is marked
    code = BlockMarking(2, ({""}, {"0", "1"}, {"00"}))
    assert_code_conditions(code, full_tree())
    with pytest.raises(AssertionError, match="condition 4 at '1'"):
        assert_code_conditions(code, full_tree(), pruned=True)


def brute_accepts(marked: set, block: int, ambient: TreeSource) -> bool:
    # Independent transcription of the three code conditions.
    for s in marked:
        for j in range(len(s)):
            if s[:j] not in marked:
                return False
    if any(not ambient.member(s) for s in marked):
        return False
    return all(any(len(s) == n for s in marked) for n in range(block + 1))


def test_validator_matches_bruteforce():
    # every mark set through blocks 0..2, and sampled ones through block 3,
    # held without the constructor's check so that condition 1 can fail
    ambients = [full_tree(), rooted_tree("0"), dyadic_tree(3, 2)]
    rng = random.Random(20260816)
    cases = []
    for block in range(4):
        strings = list(strings_through(block))
        bits = [format(v, f"0{len(strings)}b") for v in range(1 << len(strings))]
        if block == 3:
            bits = [format(rng.getrandbits(len(strings)), f"0{len(strings)}b") for _ in range(600)]
            bits.append("1" * len(strings))
        cases.extend((block, {s for s, b in zip(strings, nu) if b == "1"}) for nu in bits)
    for ambient in ambients:
        for block, marked in cases:
            levels = tuple(
                frozenset(s for s in marked if len(s) == length) for length in range(block + 1)
            )
            try:
                assert_code_conditions(BlockMarking.derived(block, levels), ambient)
                accepted = True
            except AssertionError:
                accepted = False
            assert accepted == brute_accepts(marked, block, ambient), (marked, ambient.name)


# -- truncations ----------------------------------------------------------------


def test_marking_rejects_bad_levels():
    # a mark whose parent is unmarked, and one level too few for the block
    with pytest.raises(Condition1Violation):
        BlockMarking(2, (frozenset([""]), frozenset(["0"]), frozenset(["11"])))
    with pytest.raises(ShapeViolation, match="1 levels for block 1"):
        BlockMarking(1, (frozenset([""]),))


def test_truncation_rejects_non_prefix_closed():
    with pytest.raises(CgmtError):
        BlockMarking(1, (frozenset(), frozenset({"0"})))


def test_from_strings_collects_prefixes():
    t = tree_of(["01"], 2)
    assert sorted(t.marked_at(1)) == ["0"]
    assert "" in t.marked_at(0) and "0" in t.marked_at(1) and "01" in t.marked_at(2)
    assert "1" not in t.marked_at(1) and "00" not in t.marked_at(2)


def test_prune_removes_dead_branch():
    t = tree_of(["000", "10"], 3)
    p = pruned(t)
    assert "10" not in p.marked_at(2) and "1" not in p.marked_at(1)
    assert "00" in p.marked_at(2)
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
                assert (s in p.marked_at(length)) == survives


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
    assert marking_of_source(full_tree(), -1) == BlockMarking(-1, ())


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
        )
        for seed in (1401, 1402, 1403, 1404)
    },
}


def members_through(src: TreeSource, block: int) -> tuple[frozenset[str], ...]:
    """Every member of length <= block, by asking about every string."""
    levels: list[set[str]] = [set() for _ in range(block + 1)]
    for s in strings_through(block):
        if src.member(s):
            levels[len(s)].add(s)
    return tuple(map(frozenset, levels))


def checked(marking: BlockMarking) -> BlockMarking:
    return BlockMarking(marking.block, marking.levels)


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
    src = spec_from_obj(cyclic_automaton(rng))
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
    src = spec_from_obj(cyclic_automaton(random.Random(1405)))
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
    assert [d.extension_count("", m) for m in range(5)] == [1, 2, 3, 6, 12]
    got = [s for s in strings_through(2) if d.member(s)]
    assert got == ["", "0", "1", "00", "01", "10"]
    for m in range(5):
        assert sum(d.member(format(v, f"0{m}b") if m else "") for v in range(1 << m)) == d.extension_count("", m)


def test_extension_counts_match_enumeration():
    sources = [full_tree(), rooted_tree("10"), dyadic_tree(3, 2), dyadic_tree(5, 3), dyadic_tree(1, 4)]
    for src in sources:
        for tau in strings_through(4):
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


# -- paths ----------------------------------------------------------------------------


def test_leftmost_paths():
    assert leftmost_extension_path(full_tree(), "", 5) == "00000"
    assert leftmost_extension_path(rooted_tree("1"), "", 3) == "100"
    with pytest.raises(NotExtendible):
        leftmost_extension_path(empty_tree(), "", 0)


def test_leftmost_prefixes_are_members():
    for src in [full_tree(), rooted_tree("10"), dyadic_tree(5, 3)]:
        path = leftmost_extension_path(src, "", 8)
        for k in range(9):
            assert src.member(path[:k])


# -- restriction and cuts -------------------------------------------------------------


def test_restrict_full_code():
    full = marking_of_source(full_tree(), 3)
    r = full.restrict("1")
    marked = {s for level in r.levels for s in level}
    assert marked == {"", "1", "10", "11", "100", "101", "110", "111"}
    assert r.restrict("1") == r


def test_restrict_marking_levels():
    m = marking_of_source(full_tree(), 2).restrict("0")
    assert m.marked_at(1) == {"0"}
    assert m.marked_at(0) == {""}


def test_restrict_is_the_compatible_filter():
    # taus of length 0, shorter than the block, equal to it and longer; half
    # extend a mark of their length (or of the top), half are random bits
    rng = random.Random("restrict")
    for _ in range(60):
        marking = random_marking(rng, max_block=7)
        block = marking.block
        shorter = rng.randrange(1, block) if block > 1 else 0
        for length in (0, shorter, block, block + rng.randint(1, 3)):
            marks = sorted(marking.marked_at(min(length, block)))
            stem = rng.choice(marks) if marks and rng.random() < 0.5 else ""
            tau = stem + "".join(rng.choice("01") for _ in range(length - len(stem)))
            expected = tuple(
                frozenset(s for s in level if compatible(s, tau)) for level in marking.levels
            )
            assert marking.restrict(tau).levels == expected, (marking, tau)


def test_cut_equals_checked_construction():
    rng = random.Random("cut")
    for _ in range(30):
        block = rng.randint(0, 7)
        top = {format(rng.getrandbits(block), f"0{block}b") if block else "" for _ in range(5)}
        marking = tree_of(top, block)
        for b in range(-1, block + 1):
            cut = marking.cut(b)
            assert cut == BlockMarking(b, marking.levels[: b + 1])
    with pytest.raises(CgmtError):
        marking.cut(block + 1)
