"""Acceptance battery: nine pinned criteria, one test per criterion.

Every numeric comparison is exact ring arithmetic; the only widths in
play are the bracket widths the criteria themselves pin.  Criteria with
a wall-clock budget assert it.  Each test prints one summary line so a
verbose run reads as a checklist.
"""

import random
import time
from fractions import Fraction

import pytest

from helpers_markings import grown_source, marking_of_source, random_marking, tree_of

from cgmt.cli import run_verify_suite
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
)
from cgmt.gadgets import (
    InjectionTable,
    build_gadget,
    check_gadget,
    marker,
    required_depth,
    single_one_path,
)
from cgmt.measure import (
    htilde,
    htilde_bruteforce,
)
from cgmt.trees import (
    BlockMarking,
    TreeSource,
    dyadic_tree,
    full_tree,
    rooted_tree,
)
from cgmt.weights import AlgebraicWeight

W = AlgebraicWeight
F = Fraction
ONE = W.from_rational(1)


def counting_source(base: TreeSource) -> tuple[TreeSource, dict]:
    calls = {"member": 0, "extendible": 0}

    def member(s: str) -> bool:
        calls["member"] += 1
        return base.member(s)

    def extendible(s: str) -> bool:
        calls["extendible"] += 1
        return base.require_extendible()(s)

    def no_counts(tau: str, m: int) -> int:
        raise AssertionError("closed-form counts are off limits in this run")

    return (
        TreeSource(member=member, extendible=extendible, extension_count=no_counts),
        calls,
    )


def test_criterion_1_dp_equals_enumeration_on_200_seeded_markings():
    start = time.monotonic()
    report = run_verify_suite(200, seed=7, block_max=6, n_max=2)
    elapsed = time.monotonic() - start
    assert report["trials"] == 200
    assert report["mismatches"] == [] and report["ok"]
    assert elapsed < 30.0
    print(f"\nCRITERION 1 PASS: 200/200 markings, dp == enumeration, {elapsed:.1f}s")


def _bruteforce_by_subtree(marking: BlockMarking, s, n: int) -> AlgebraicWeight:
    # covers use lengths >= n only, so the literal minimum distributes over
    # the disjoint level-n subtrees; each piece stays exhaustively enumerable
    total = W.zero()
    for tau in sorted(marking.marked_at(n)):
        total = total + htilde_bruteforce(marking.restrict(tau), s, n).value
    return total


def test_criterion_2_closed_forms_match_brute_force():
    for s in (F(1, 2), F(2, 3)):
        for n in range(5):
            expected = W.two_power((1 - s) * n)
            for m in range(n, n + 3):
                marking = marking_of_source(full_tree(), m)
                value = htilde(marking, s, n, want_witness=False).value
                assert (value - expected).is_zero(), (s, n, m)
                assert (value - _bruteforce_by_subtree(marking, s, n)).is_zero()
    for n in range(5):
        for m in range(n, n + 3):
            marking = marking_of_source(full_tree(), m)
            value = htilde(marking, 1, n, want_witness=False).value
            assert (value - ONE).is_zero(), (n, m)
            assert (value - _bruteforce_by_subtree(marking, 1, n)).is_zero()
    print("\nCRITERION 2 PASS: full-tree closed forms exact for s in {1/2, 2/3, 1}, n <= 4")


def test_criterion_3_monotonicity_suite_500_instances():
    start = time.monotonic()
    rng = random.Random("acceptance-monotone")
    dims = (F(1, 2), F(2, 3), F(1), F(3, 2))
    counts = [0, 0, 0, 0]
    for i in range(500):
        which = i % 4
        counts[which] += 1
        if which == 0:
            # prefix monotonicity: deeper blocks never raise the value
            marking = random_marking(rng, allow_empty_top=False)
            s = rng.choice(dims)
            n = rng.randint(0, 2)
            values = [
                htilde(BlockMarking(k, marking.levels[: k + 1]), s, n, want_witness=False).value
                for k in range(marking.block + 1)
            ]
            for earlier, later in zip(values, values[1:]):
                assert earlier >= later
        elif which == 1:
            # granularity monotonicity in the m >= n case
            n = rng.randint(0, 2)
            marking = random_marking(rng, n=n + 1, allow_empty_top=False)
            if marking.block < n + 1:
                continue
            s = rng.choice((F(1, 2), F(2, 3), F(1)))
            a = htilde(marking, s, n, want_witness=False).value
            b = htilde(marking, s, n + 1, want_witness=False).value
            assert a <= b
        elif which == 2:
            # top-block determinism: only the deepest level matters
            marking = random_marking(rng, allow_empty_top=False)
            m = marking.block
            levels = [set() for _ in range(m + 1)]
            levels[m] = set(marking.levels[m])
            for length in range(m, 0, -1):
                levels[length - 1] = {x[:-1] for x in levels[length]}
            lean = BlockMarking(m, tuple(frozenset(l) for l in levels))
            s = rng.choice(dims)
            assert (
                htilde(marking, s, 1, want_witness=False).value
                == htilde(lean, s, 1, want_witness=False).value
            )
        else:
            # unit dimension: value is the deepest level count over 2^block
            marking = random_marking(rng, allow_empty_top=False)
            expected = W.two_power(-marking.block) * len(marking.marked_at(marking.block))
            for n in range(marking.block + 1):
                assert htilde(marking, 1, n, want_witness=False).value == expected
    elapsed = time.monotonic() - start
    assert sum(counts) == 500
    assert elapsed < 60.0
    print(f"\nCRITERION 3 PASS: 500 instances across 4 properties {counts}, {elapsed:.1f}s")


def _random_truncation(rng: random.Random) -> BlockMarking:
    while True:
        depth = rng.randint(3, 4)
        density = rng.uniform(0.3, 0.9)
        leaves = {
            format(v, f"0{depth}b") for v in range(1 << depth) if rng.random() < density
        }
        if leaves:
            return tree_of(leaves, depth)


def test_criterion_4_interpolation_brackets_100_instances():
    rng = random.Random("acceptance-brackets")
    dims = (F(1, 2), F(2, 3), F(1))
    stable = 0
    no_stable_index = 0
    for i in range(100):
        t = _random_truncation(rng)
        src = grown_source(t)
        s = dims[i % 3]
        n = rng.randint(0, 2)
        certified = htilde(
            marking_of_source(src, t.block + 2), s, n, want_witness=False
        ).value
        if certified.sign() == 0:
            certified = ONE  # degenerate tree: fall back to c = 0 below
            c = W.zero()
        else:
            c = certified * W.from_rational(F(rng.randint(1, 8), 8))
        eps = F(1, 1 << rng.randint(2, 4))
        try:
            res = approx_subset(src, s, n, c, eps)
        except NoStableIndex:
            no_stable_index += 1
            continue
        upper = c + W.from_rational(eps)
        assert res.values, (i, s, n)
        for block, val in res.values:
            assert (val - c).sign() >= 0, (i, block)
            assert (val - upper).sign() < 0, (i, block)
        code = res.code
        for L in range(code.live_depth + 1):
            for mark in code.level(L):
                assert src.member(mark)
                if L:
                    assert mark[:-1] in code.level(L - 1)
        stable += 1
    assert stable + no_stable_index == 100
    print(
        f"\nCRITERION 4 PASS: {stable}/100 exact brackets, "
        f"NoStableIndex rate {no_stable_index}/100"
    )


def test_criterion_5_besicovitch_desk_run():
    start = time.monotonic()
    code, certs = besicovitch_extract(full_tree(), F(1, 2), 1, 0, 6)
    assert [cert.stage for cert in certs] == [1, 2, 3, 4, 5, 6]
    for cert in certs:
        bound = ONE + W.two_power(-cert.stage)
        assert (cert.lower_target - ONE).is_zero()
        assert (cert.upper_target - bound).is_zero()
        for _, value in cert.lower_checks:
            assert (value - ONE).sign() >= 0
        assert (cert.upper_witness[1] - bound).sign() < 0
        assert cert.verify()
        # recompute both verdicts from the recorded levels, from scratch
        for block, value in cert.lower_checks:
            got = htilde(
                cert.marks.cut(block), cert.dimension, cert.lower_granularity, want_witness=False
            ).value
            assert (got - value).is_zero()
        block, value = cert.upper_witness
        got = htilde(
            cert.marks.cut(block), cert.dimension, cert.upper_granularity, want_witness=False
        ).value
        assert (got - value).is_zero()
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"\nCRITERION 5 PASS: 6 certificates, lower >= 1 and upper < 1 + 2^-n exact, {elapsed:.1f}s")


def test_criterion_6_lebesgue_paths_at_depth_64():
    cases = [
        (rooted_tree("0"), F(1, 2)),
        (dyadic_tree(1, 2), F(1, 4)),
        (dyadic_tree(3, 2), F(3, 4)),
    ]
    for src, c in cases:
        path = lebesgue_path(src, c, 64)
        assert len(path) == 64
        for k in range(65):
            assert src.member(path[:k])
    with pytest.raises(PromiseViolated):
        lebesgue_path(rooted_tree("0"), F(3, 4), 16)
    print("\nCRITERION 6 PASS: depth-64 members for c in {1/2, 1/4, 3/4}; false promise refused")


def test_criterion_7_gadget_equivalences_horizon_64():
    rng = random.Random("acceptance-gadgets")
    kinds = ("marker-tree", "point-sequence", "column-tree", "deficit-min")
    for trial in range(20):
        table = InjectionTable(tuple(rng.sample(range(2000), 64)))
        ran = table.range_at_horizon()
        direct = {n for n in range(64) if n in ran}
        for kind in kinds:
            g = build_gadget(kind, table, required_depth(kind, table))
            report = check_gadget(g)
            assert report.ok, (trial, kind, report.mismatches())
            assert {n for n, verdict, _ in report.rows if verdict} == direct
        # the survivor form: a string extends the marker iff n is missing
        g = build_gadget("marker-tree", table, 64)
        for n in range(64):
            witness_alive = g.source.member(marker(n) + "0" * (64 - n - 1))
            assert witness_alive == (n not in ran)
        # and the literal exists-k scan over the point stems
        g = build_gadget("point-sequence", table, required_depth("point-sequence", table))
        stems = [single_one_path(v, g.depth) for v in table.values]
        for n in range(64):
            path = single_one_path(n, g.depth)
            exists_k = any(stem == path for stem in stems)
            assert exists_k == (n in ran) == g.source.member(path)
    print("\nCRITERION 7 PASS: 20 tables x 4 encodings decode range-at-horizon-64 exactly")


def test_criterion_8_oracle_discipline_instrumented():
    src, calls = counting_source(full_tree())
    approx_subset(src, F(1, 2), 1, 1, F(1, 8))
    assert calls["member"] > 0 and calls["extendible"] == 0

    src, calls = counting_source(full_tree())
    interpolate_subset(PiecewiseCode.root_of(src), 0, 1, 0, F(1, 2), F(1, 4))
    assert calls["extendible"] == 0

    jump_ops = {
        "pruned": lambda s: approx_subset(s.pruned(), F(1, 2), 1, 1, F(1, 8)),
        "baire": lambda s: baire_intersect(s, [lambda x: "1" in x], "", 6),
        "staged": lambda s: besicovitch_extract(s, 1, 1, 0, 2),
    }
    for name, op in jump_ops.items():
        src, calls = counting_source(full_tree())
        op(src)  # the poisoned count callback raises if consulted
        assert calls["extendible"] > 0, name
    print("\nCRITERION 8 PASS: membership ops never touch extendible; jump ops use both only")


def test_criterion_9_baire_with_eight_dense_opens():
    base = dyadic_tree(3, 2)
    ext = base.require_extendible()
    pruned = TreeSource(member=ext, extendible=ext, name="dyadic:pruned")
    opens = [lambda sigma, need=i: sigma.count("1") >= need for i in range(1, 9)]
    z = baire_intersect(pruned, opens, "", 24)
    assert len(z) == 24 and pruned.member(z)
    for i, hit in enumerate(opens):
        assert any(hit(z[:k]) for k in range(len(z) + 1)), i
    with pytest.raises(DensityViolated):
        baire_intersect(pruned, [lambda sigma: False], "", 8, cap=500)
    print("\nCRITERION 9 PASS: path meets all 8 dense opens; empty open refused")
