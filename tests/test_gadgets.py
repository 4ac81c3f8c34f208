"""Tests for the injection-range encodings and their decoders.

Frozen expectations come from direct simulation of the membership and
weight rules (survivor probes, deficit sums) double-checked by hand on
small tables; everything else is an exhaustive or sampled invariant with
both sides computed independently.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from cgmt import core, gadgets
from cgmt.core import CgmtError, column, pair
from cgmt.gadgets import (
    GADGET_KINDS,
    MAX_GADGET_DEPTH,
    GadgetReport,
    InjectionTable,
    build_gadget,
    check_gadget,
    decode_column_path,
    decode_range_via_baire,
    eval_counterexample,
    marker,
    required_depth,
    single_one_path,
    smmin_weight,
)
from cgmt.weights import AlgebraicWeight


def W(x) -> AlgebraicWeight:
    return AlgebraicWeight.from_rational(Fraction(x))


def exactly(value: AlgebraicWeight, expected) -> bool:
    return (value - W(expected)).is_zero()


EVENS10 = InjectionTable(tuple(2 * k for k in range(10)))
IDENT10 = InjectionTable(tuple(k for k in range(10)))


def random_table(rng: random.Random, horizon: int, universe: int) -> InjectionTable:
    return InjectionTable(tuple(rng.sample(range(universe), horizon)))


class TestInjectionTable:
    def test_basic_fields(self):
        t = InjectionTable((3, 0, 7))
        assert t.horizon == 3
        assert t.range_at_horizon() == frozenset({0, 3, 7})
        assert t.witness(7) == 2
        assert t.witness(1) is None

    def test_rejects_collision(self):
        with pytest.raises(CgmtError, match="distinct"):
            InjectionTable((1, 2, 1))

    def test_rejects_negative(self):
        with pytest.raises(CgmtError, match="nonnegative"):
            InjectionTable((0, -1))

    def test_empty_table(self):
        t = InjectionTable(())
        assert t.horizon == 0
        assert t.range_at_horizon() == frozenset()

    def test_helpers(self):
        assert marker(0) == "1"
        assert marker(3) == "0001"
        assert single_one_path(2, 6) == "001000"
        assert single_one_path(5, 3) == "000"


class TestMarkerTree:
    def test_survivor_above_unenumerated_marker(self):
        # 3 is odd, never a value of k -> 2k, so its marked subtree stays full
        g = build_gadget("marker-tree", EVENS10, 10)
        assert g.source.member(marker(3) + "0" * 6)
        assert g.source.extendible(marker(3))

    def test_no_survivor_under_identity(self):
        g = build_gadget("marker-tree", IDENT10, 10)
        assert not g.source.member(marker(3) + "0" * 6)
        assert not g.source.extendible(marker(3))

    def test_all_zero_spine_always_inside(self):
        g = build_gadget("marker-tree", IDENT10, 10)
        assert g.source.member("0" * 10)
        assert g.source.extendible("0" * 10)

    def test_survivors_monotone_in_depth(self):
        rng = random.Random(11)
        for _ in range(20):
            t = random_table(rng, 6, 12)
            g = build_gadget("marker-tree", t, 16)
            for n in range(6):
                for d in range(n + 1, 15):
                    deeper = g.source.member(marker(n) + "0" * (d + 1 - n - 1))
                    shallower = g.source.member(marker(n) + "0" * (d - n - 1))
                    assert not deeper or shallower

    def test_extension_count_matches_enumeration(self):
        t = InjectionTable((1, 3))
        g = build_gadget("marker-tree", t, 8)
        for m in range(7):
            for tau in ("", "0", "001", "01", "1"):
                direct = sum(
                    1
                    for i in range(1 << m)
                    for s in (format(i, f"0{m}b") if m else "",)
                    if s.startswith(tau) and g.source.member(s)
                )
                assert g.source.extension_count(tau, m) == direct


class TestPointSequence:
    def test_stems_are_single_one_paths(self):
        g = build_gadget("point-sequence", InjectionTable((2, 0, 5)), 8)
        stems = tuple(single_one_path(v, g.depth) for v in g.table.values)
        assert stems == ("00100000", "10000000", "00000100")
        # the members of full length are exactly the stems
        full = (format(i, "08b") for i in range(1 << 8))
        assert {s for s in full if g.source.member(s)} == set(stems)

    def test_membership_is_stem_prefix(self):
        g = build_gadget("point-sequence", InjectionTable((2, 0, 5)), 8)
        assert g.source.member("001")
        assert g.source.member("0000010")
        assert not g.source.member("11")
        assert not g.source.member("01")

    def test_depth_must_clear_values(self):
        with pytest.raises(CgmtError, match="depth"):
            build_gadget("point-sequence", InjectionTable((2, 9)), 8)


class TestColumnTree:
    def test_zero_in_enumerated_column_is_pruned(self):
        t = InjectionTable((1, 2, 5, 8))
        g = build_gadget("column-tree", t, 16)
        # column 1 sits at positions pair(1, m) = 2, 7, ...; 1 is in range
        sigma = "1101"
        assert column(sigma, 1) == "0"
        assert not g.source.extendible(sigma)
        # the membership bound is the string length, so the witness k=0
        # (value 1) is already in view at length 4
        assert not g.source.member(sigma)

    def test_zero_in_unenumerated_column_survives(self):
        t = InjectionTable((1, 2, 5, 8))
        g = build_gadget("column-tree", t, 16)
        sigma = "0111"  # column 0 holds positions 0, 1, 3, ...
        assert g.source.member(sigma)
        assert g.source.extendible(sigma)

    def test_opens_upward_closed(self):
        rng = random.Random(23)
        t = InjectionTable((1, 2, 5, 8))
        g = build_gadget("column-tree", t, 16)
        for _ in range(300):
            sigma = "".join(rng.choice("01") for _ in range(rng.randrange(0, 12)))
            tail = "".join(rng.choice("01") for _ in range(rng.randrange(0, 6)))
            for hit in g.opens:
                assert not hit(sigma) or hit(sigma + tail)

    def test_generic_path_meets_tree_and_all_opens(self):
        t = InjectionTable((1, 2, 5, 8))
        g = build_gadget("column-tree", t, 16)
        z = g.generic_path
        assert g.source.member(z) and g.source.extendible(z)
        for hit in g.opens:
            assert hit(z)

    def test_decode_prefers_earlier_decision(self):
        t = InjectionTable((1, 2, 5, 8))
        g = build_gadget("column-tree", t, 16)
        assert decode_column_path(g, g.generic_path, 1) is True
        assert decode_column_path(g, g.generic_path, 0) is False
        assert decode_column_path(g, "", 0) is None

    def test_baire_decode_matches_range(self):
        t = InjectionTable((1, 2, 5, 8))
        g = build_gadget("column-tree", t, 16)
        got = decode_range_via_baire(g, cap=100_000)
        assert got == frozenset(n for n in range(4) if n in t.range_at_horizon())

    def test_baire_decode_rejects_other_kinds(self):
        g = build_gadget("deficit-min", InjectionTable((0, 2)), 4)
        with pytest.raises(CgmtError, match="column-tree"):
            decode_range_via_baire(g)


class TestDeficitMin:
    def test_frozen_example(self):
        # positions 0, 2, 4 of 111111 are enumerated by k -> 2k, so the
        # deficit is 1/2 + 1/8 + 1/32 and the weight is 11/32
        assert exactly(smmin_weight(EVENS10, "111111"), Fraction(11, 32))

    def test_zero_bits_enter_the_deficit(self):
        t = InjectionTable((5,))
        assert exactly(smmin_weight(t, "0"), Fraction(1, 2))
        assert exactly(smmin_weight(t, "1"), 1)
        assert exactly(smmin_weight(t, ""), 1)

    def test_monotone_decreasing_on_random_extension_pairs(self):
        rng = random.Random(5)
        for _ in range(1000):
            t = random_table(rng, rng.randrange(0, 8), 20)
            sigma = "".join(rng.choice("01") for _ in range(rng.randrange(0, 14)))
            tail = "".join(rng.choice("01") for _ in range(rng.randrange(0, 8)))
            shorter = smmin_weight(t, sigma)
            longer = smmin_weight(t, sigma + tail)
            assert (shorter - longer).sign() >= 0

    def test_range_indicator_strings_approach_zero_exactly(self):
        t = InjectionTable((1, 2, 5, 8))
        ran = t.range_at_horizon()
        for length in range(t.horizon, t.horizon + 16):
            sigma = "".join("1" if k in ran else "0" for k in range(length))
            assert exactly(smmin_weight(t, sigma), Fraction(1, 1 << length))

    def test_separation_at_unenumerated_one_bit(self):
        # an extension can spend everything except the 2^{-k-1} share of
        # the unenumerated 1 at position k, so that share is the floor
        rng = random.Random(17)
        for _ in range(200):
            t = random_table(rng, 5, 12)
            outside = [n for n in range(12) if n not in t.range_at_horizon()]
            k = rng.choice(outside)
            sigma = "".join(
                "1" if i == k else rng.choice("01") for i in range(k + 1)
            )
            tail = "".join(rng.choice("01") for _ in range(rng.randrange(0, 10)))
            value = smmin_weight(t, sigma + tail)
            assert (value - W(Fraction(1, 1 << (k + 1)))).sign() >= 0

    def test_separation_floor_is_tight(self):
        # 0^k 1 0^{L-k-1} evaluates to 2^{-k-1} + 2^{-L}, which drops
        # under 2^{-k} as soon as L > k + 1: the floor really is 2^{-k-1}
        t = InjectionTable((9,))
        k, length = 2, 8
        sigma = "0" * k + "1" + "0" * (length - k - 1)
        value = smmin_weight(t, sigma)
        assert exactly(value, Fraction(1, 1 << (k + 1)) + Fraction(1, 1 << length))
        assert (value - W(Fraction(1, 1 << k))).sign() < 0


def deficit_weight_by_definition(table: InjectionTable, sigma: str) -> Fraction:
    """1 minus the sum of 2^{-n-1} over the positions n that trigger, one Fraction at a time."""
    enumerated = {table.values[k] for k in range(min(len(sigma), table.horizon))}
    deficit = Fraction(0)
    for n, bit in enumerate(sigma):
        if bit == "0" or n in enumerated:
            deficit += Fraction(1, 1 << (n + 1))
    return 1 - deficit


class TestDeficitAgainstDefinition:
    def test_seeded_tables_and_strings(self):
        rng = random.Random(23)
        for _ in range(120):
            horizon = rng.randrange(0, 300)
            t = random_table(rng, horizon, 2 * horizon + 1)
            length = rng.randrange(0, 601)
            sigma = "".join(rng.choice("01") for _ in range(length))
            assert exactly(smmin_weight(t, sigma), deficit_weight_by_definition(t, sigma))

    def test_all_ones_and_flipped_probes(self):
        # the probes _check_deficit_min makes, at its default depth and past it
        rng = random.Random(29)
        for horizon in (1, 17, 256):
            t = random_table(rng, horizon, 2 * horizon)
            depth = required_depth("deficit-min", t)
            for length in (depth, depth + 1, 600):
                ones = "1" * length
                for n in {0, length // 2, length - 1}:
                    flipped = ones[:n] + "0" + ones[n + 1 :]
                    for sigma in (ones, flipped):
                        assert exactly(smmin_weight(t, sigma), deficit_weight_by_definition(t, sigma))

    def test_check_rows_match_definition(self):
        rng = random.Random(31)
        t = random_table(rng, 256, 512)
        report = check_gadget(build_gadget("deficit-min", t, required_depth("deficit-min", t)))
        expected = []
        for n in range(t.horizon):
            ones = "1" * max(report.depth, n + 1)
            flipped = ones[:n] + "0" + ones[n + 1 :]
            same = deficit_weight_by_definition(t, ones) == deficit_weight_by_definition(t, flipped)
            expected.append((n, same, t.witness(n) is not None))
        assert report.rows == tuple(expected) and report.ok


# the lookups as linear scans of the table, the definitions the index replaces


def scanned_witness(values, n):
    for k, v in enumerate(values):
        if v == n:
            return k
    return None


def scanned_before(values, n, bound):
    return any(values[k] == n for k in range(min(bound, len(values))))


def scanned_marker_member(values, sigma):
    first = sigma.find("1")
    return first < 0 or not scanned_before(values, first, len(sigma))


def scanned_marker_count(values, tau, m):
    if m < len(tau) or not scanned_marker_member(values, tau):
        return 0
    first = tau.find("1")
    if first >= 0:
        return 0 if scanned_before(values, first, m) else 1 << (m - len(tau))
    return 1 + sum(1 << (m - n - 1) for n in range(len(tau), m) if not scanned_before(values, n, m))


def scanned_column_member(values, sigma):
    n = 0
    while pair(n, 0) < len(sigma):
        if "0" in column(sigma, n) and scanned_before(values, n, len(sigma)):
            return False
        n += 1
    return True


class TestIndexAgainstLinearScan:
    """The table's index answers every lookup as a scan of values would."""

    @pytest.fixture(scope="class")
    def tables(self):
        rng = random.Random(37)
        horizons = [0, 1, 64] + [rng.randint(0, 64) for _ in range(12)]
        return [random_table(rng, h, 96) for h in horizons]

    @staticmethod
    def strings(rng: random.Random):
        # markers at every position with random tails, all-zero strings, and
        # strings that are mostly ones, so that some columns hold no 0
        for first in range(0, 100, 3):
            yield "0" * first + "1" + "".join(rng.choice("01") for _ in range(rng.randint(0, 20)))
        for length in (0, 1, 7, 64, 99):
            yield "0" * length
        for _ in range(40):
            weight = rng.choice((0.5, 0.97))
            yield "".join("1" if rng.random() < weight else "0" for _ in range(rng.randint(0, 160)))

    def test_witness(self, tables):
        for t in tables:
            for n in range(100):
                assert t.witness(n) == scanned_witness(t.values, n)

    def test_marker_tree(self, tables):
        rng = random.Random(41)
        for t in tables:
            source = build_gadget("marker-tree", t, required_depth("marker-tree", t)).source
            for sigma in self.strings(rng):
                assert source.member(sigma) == scanned_marker_member(t.values, sigma)
                first = sigma.find("1")
                assert source.extendible(sigma) == (first < 0 or scanned_witness(t.values, first) is None)
                for tau in (sigma[: rng.randint(0, len(sigma))], "0" * rng.randint(0, 70)):
                    for m in (len(tau), len(tau) + rng.randint(1, 12), rng.randint(0, 90)):
                        assert source.extension_count(tau, m) == scanned_marker_count(t.values, tau, m)

    def test_column_tree(self, tables):
        rng = random.Random(43)
        for t in tables:
            g = build_gadget("column-tree", t, required_depth("column-tree", t))
            for sigma in self.strings(rng):
                assert g.source.member(sigma) == scanned_column_member(t.values, sigma)
                for n, hit in enumerate(g.opens):
                    assert hit(sigma) == (scanned_before(t.values, n, len(sigma)) or "0" in column(sigma, n))


# the replays' closed forms against the scans they replace


def scanned_point_member(values, depth, sigma):
    """Whether sigma is a prefix of some stem 0^v 1 0^(depth-v-1)."""
    stems = ["0" * v + "1" + "0" * (depth - v - 1) for v in values]
    if len(sigma) > depth:
        return False
    return any(s.startswith(sigma) for s in stems) if stems else sigma == ""


def scanned_column_decision(values, z, n):
    """decode_column_path by reading column n of z and scanning the table."""
    witness = scanned_witness(values, n)
    col = column(z, n)
    first_zero = pair(n, col.index("0")) if "0" in col else None
    if witness is not None and witness < len(z) and (first_zero is None or witness < first_zero):
        return True
    if first_zero is not None and (witness is None or first_zero < witness):
        return False
    return None


def scanned_rows(kind, values, depth):
    """check_gadget's rows for kind, each row from the scans above."""
    rows = []
    t = InjectionTable(values)
    if kind == "column-tree":
        zeros = {pair(n, 0) for n in range(len(values)) if scanned_witness(values, n) is None}
        z = "".join("0" if pos in zeros else "1" for pos in range(depth))
    for n in range(len(values)):
        direct = scanned_witness(values, n) is not None
        if kind == "point-sequence":
            probe = "0" * n + "1" + "0" * (depth - n - 1)
            verdict = scanned_point_member(values, depth, probe)
        elif kind == "deficit-min":
            ones = "1" * max(depth, n + 1)
            flipped = ones[:n] + "0" + ones[n + 1 :]
            verdict = deficit_weight_by_definition(t, ones) == deficit_weight_by_definition(t, flipped)
        else:
            verdict = scanned_column_decision(values, z, n)
            if verdict is None:
                verdict = not direct
        rows.append((n, verdict, direct))
    return tuple(rows)


class TestClosedFormsAgainstScans:
    """Each replay answers as the scan it replaced would, and does the work once."""

    def test_point_sequence_member(self):
        rng = random.Random(47)
        tables = [(), (0,), (6,), (0, 1, 2, 3, 4, 5, 6)]
        tables += [tuple(rng.sample(range(7), rng.randint(1, 6))) for _ in range(8)]
        for values in tables:
            t = InjectionTable(values)
            need = max(required_depth("point-sequence", t), 1)
            for depth in (need, need + 1):
                member = build_gadget("point-sequence", t, depth).source.member
                for length in range(depth + 2):
                    for i in range(1 << length):
                        sigma = format(i, f"0{length}b") if length else ""
                        assert member(sigma) == scanned_point_member(values, depth, sigma), (values, sigma)
                for bad in ("2", "0a", "x" * (depth + 3)):
                    with pytest.raises(CgmtError, match="binary"):
                        member(bad)

    def test_deficit_weight_interleaved_lengths(self):
        # one table, lengths revisited out of order, so that a mask kept for
        # the wrong length would show
        rng = random.Random(53)
        t = random_table(rng, 40, 80)
        for length in [0, 1, 5, 40, 41, 80, 5, 0, 41, 39, 1, 40, 100, 5]:
            for _ in range(3):
                sigma = "".join(rng.choice("01") for _ in range(length))
                assert exactly(smmin_weight(t, sigma), deficit_weight_by_definition(t, sigma))

    # column-tree's least depth passes MAX_GADGET_DEPTH past horizon 180;
    # deficit-min at horizon 256 is TestDeficitAgainstDefinition's check
    LARGE_HORIZONS = {"point-sequence": [256], "deficit-min": [], "column-tree": [180]}

    @pytest.mark.parametrize("kind", list(LARGE_HORIZONS))
    def test_check_rows(self, kind):
        rng = random.Random(59)
        for horizon in [*range(65), *self.LARGE_HORIZONS[kind]]:
            t = random_table(rng, horizon, 2 * horizon + 1)
            depth = max(required_depth(kind, t), 1)
            report = check_gadget(build_gadget(kind, t, depth))
            assert report.rows == scanned_rows(kind, t.values, depth), (kind, horizon)
            assert report.ok

    def test_decode_column_path_rejects_non_binary(self):
        g = build_gadget("column-tree", InjectionTable((1, 2, 5, 8)), 16)
        with pytest.raises(CgmtError, match="binary"):
            decode_column_path(g, g.generic_path[:-1] + "2", 0)

    def test_deficit_min_weighs_the_unflipped_string_once(self):
        t = random_table(random.Random(61), 64, 128)
        g = build_gadget("deficit-min", t, required_depth("deficit-min", t))
        calls = []

        def counted(sigma):
            calls.append(len(sigma))
            return g.evaluator(sigma)

        assert check_gadget(dataclasses.replace(g, evaluator=counted)).ok
        assert len(calls) == t.horizon + 1

    def test_column_tree_checks_the_generic_path_once(self, monkeypatch):
        t = random_table(random.Random(67), 64, 128)
        g = build_gadget("column-tree", t, required_depth("column-tree", t))
        checked = []

        def counted(s):
            checked.append(len(s))
            core.check_bits(s)

        monkeypatch.setattr(gadgets, "check_bits", counted)
        assert check_gadget(g).ok
        assert checked == [g.depth]

    def test_deficit_mask_built_once_per_length(self):
        class CountingMemo(dict):
            def __init__(self):
                super().__init__()
                self.stores = []

            def __setitem__(self, length, mask):
                self.stores.append(length)
                super().__setitem__(length, mask)

        t = random_table(random.Random(71), 64, 128)
        memo = CountingMemo()
        object.__setattr__(t, "_deficit_masks", memo)
        for length in (5, 9, 5, 9, 0, 64):
            smmin_weight(t, "1" * length)
        g = build_gadget("deficit-min", t, 64)
        assert check_gadget(g).ok
        assert sorted(memo.stores) == [0, 5, 9, 64]


class TestEvalCounterexample:
    def test_frozen_values(self):
        assert exactly(eval_counterexample("001"), Fraction(1, 4))
        assert exactly(eval_counterexample("0000"), 1)
        assert exactly(eval_counterexample(""), 1)
        assert exactly(eval_counterexample("1"), 1)
        assert exactly(eval_counterexample("0101"), Fraction(1, 2))

    def test_per_depth_minimum_positive_and_attained(self):
        for depth in range(1, 11):
            values = [
                eval_counterexample(format(i, f"0{depth}b"))
                for i in range(1 << depth)
            ]
            floor = min(values, key=lambda v: v.as_fraction())
            assert exactly(floor, Fraction(1, 1 << (depth - 1)))
            assert all(v.sign() > 0 for v in values)
            assert all((v - W(Fraction(1, 1 << depth))).sign() > 0 for v in values)


class TestBuildGadget:
    def test_unknown_kind(self):
        with pytest.raises(CgmtError, match="unknown gadget kind"):
            build_gadget("mystery", EVENS10, 8)

    def test_depth_bounds(self):
        with pytest.raises(CgmtError, match="depth"):
            build_gadget("marker-tree", EVENS10, 0)
        with pytest.raises(CgmtError, match="depth"):
            build_gadget("marker-tree", EVENS10, MAX_GADGET_DEPTH + 1)

    def test_depth_must_cover_decoding(self):
        t = InjectionTable((0, 1, 2, 3))
        for kind in GADGET_KINDS:
            need = required_depth(kind, t)
            with pytest.raises(CgmtError):
                build_gadget(kind, t, need - 1)
            build_gadget(kind, t, need)

    def test_reproducible_from_inputs(self):
        t = InjectionTable((1, 2, 5, 8))
        a = build_gadget("column-tree", t, 16)
        b = build_gadget("column-tree", t, 16)
        assert a.generic_path == b.generic_path
        ra, rb = check_gadget(a), check_gadget(b)
        assert ra.rows == rb.rows and ra.ok and rb.ok
        pa = build_gadget("point-sequence", t, 12)
        pb = build_gadget("point-sequence", t, 12)
        stems = [single_one_path(v, 12) for v in t.values]
        assert all(pa.source.member(x) and pb.source.member(x) for x in stems)
        assert check_gadget(pa).rows == check_gadget(pb).rows


class TestCheckGadget:
    def test_evens_decode_exactly(self):
        t = InjectionTable(tuple(2 * k for k in range(8)))
        for kind in ("marker-tree", "point-sequence", "column-tree", "deficit-min"):
            depth = max(required_depth(kind, t), 16)
            report = check_gadget(build_gadget(kind, t, depth))
            assert report.ok and report.mismatches() == ()
            decoded = {n for n, verdict, _ in report.rows if verdict}
            assert decoded == {0, 2, 4, 6}

    def test_identity_decodes_all_in_range(self):
        t = InjectionTable(tuple(k for k in range(8)))
        for kind in ("marker-tree", "point-sequence", "column-tree", "deficit-min"):
            depth = max(required_depth(kind, t), 16)
            report = check_gadget(build_gadget(kind, t, depth))
            assert report.ok
            assert all(verdict for _, verdict, _ in report.rows)

    def test_empty_horizon_empty_report(self):
        t = InjectionTable(())
        for kind in ("marker-tree", "column-tree", "deficit-min"):
            report = check_gadget(build_gadget(kind, t, 4))
            assert report.ok and report.rows == ()

    def test_first_one_inf_report(self):
        report = check_gadget(build_gadget("first-one-inf", EVENS10, 20))
        assert report.ok and len(report.rows) == 12

    def test_column_tree_names_stand_in(self):
        t = InjectionTable((1, 2, 5, 8))
        report = check_gadget(build_gadget("column-tree", t, 16))
        assert "closed-form" in report.stand_in

    def test_mismatch_listing(self):
        report = GadgetReport(
            kind="marker-tree",
            horizon=2,
            depth=4,
            rows=((0, True, True), (1, True, False)),
            ok=False,
        )
        assert report.mismatches() == (1,)


class TestLargeHorizon:
    def test_horizon_64_all_tree_kinds(self):
        rng = random.Random(7)
        t = InjectionTable(tuple(rng.sample(range(200), 64)))
        for kind in ("marker-tree", "point-sequence", "column-tree", "deficit-min"):
            depth = required_depth(kind, t)
            report = check_gadget(build_gadget(kind, t, depth))
            assert report.ok, f"{kind} mismatches: {report.mismatches()}"

    def test_column_tree_depth_formula(self):
        t = InjectionTable(tuple(range(64)))
        assert required_depth("column-tree", t) == pair(63, 0) + 1 == 2080
