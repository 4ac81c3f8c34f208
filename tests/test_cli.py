"""Tests for spec parsing, report emission, and the command-line front end.

CLI runs go through main(argv) in-process; stdout is captured and parsed
back.  Expected numbers are closed forms already pinned by the library
tests (full-tree value 2u at s = 1/2, dyadic masses), so the assertions
here are about plumbing: exact serialization, byte determinism, exit
codes, and round-trips.
"""

import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_markings import strings_through
from test_readme_reports import GOLDEN

from cgmt.cli import (
    EXIT_BUDGET,
    EXIT_DENSITY,
    EXIT_INTERNAL,
    EXIT_NO_STABLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_PROMISE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    EXIT_VERDICT,
    build_parser,
    main,
    parse_constant,
    run_verify_suite,
)
from cgmt.construct import MAX_STAGES, besicovitch_extract
from cgmt.core import CgmtError
from cgmt.gadgets import GADGET_KINDS
from cgmt.report import (
    certificate_from_obj,
    certificate_obj,
    render_csv,
    render_json,
    report_document,
)
from cgmt.treespec import NotPrefixClosed, ParseError, parse_spec, spec_from_obj
from cgmt.trees import BlockMarking, full_tree
from cgmt.weights import AlgebraicWeight


def W(x) -> AlgebraicWeight:
    return AlgebraicWeight.from_rational(Fraction(x))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestTreeSpecBuiltins:
    def test_full(self):
        src = parse_spec("full")
        assert src.member("") and src.member("0110")
        assert src.extendible("0110")

    def test_branches(self):
        left = parse_spec("branch-left")
        right = parse_spec("branch-right")
        assert left.member("01") and not left.member("10")
        assert right.member("10") and not right.member("01")

    def test_dyadic(self):
        src = parse_spec("dyadic(3/4)")
        assert src.member("10") and not src.member("11")
        assert src.extension_count("", 4) == 12

    def test_dyadic_rejects_non_dyadic(self):
        with pytest.raises(ParseError, match="power-of-two"):
            parse_spec("dyadic(1/3)")
        with pytest.raises(ParseError, match="in \\(0, 1\\]"):
            parse_spec("dyadic(5/4)")

    def test_unknown_builtin(self):
        with pytest.raises(ParseError, match="unknown builtin"):
            spec_from_obj({"kind": "builtin", "name": "cantor"})

    def test_dyadic_one_is_the_full_tree(self):
        # dyadic(1) has k = 0: no string has a length-k prefix to read
        src = parse_spec("dyadic(1)")
        assert src.member("") and src.member("0110")
        assert src.extension_count("", 4) == 16


class TestTreeSpecExplicit:
    DOC = {"kind": "explicit", "depth": 2, "members": ["", "0", "00", "01"]}

    def test_members_match_listing(self):
        src = spec_from_obj(self.DOC)
        assert src.member("") and src.member("0") and src.member("00") and src.member("01")
        assert not src.member("1") and not src.member("10")
        assert not src.member("000")

    def test_depth_capped_extendibility(self):
        src = spec_from_obj(self.DOC)
        assert src.extendible("0") and src.extendible("01")
        assert not src.extendible("1")

    def test_not_prefix_closed_witness(self):
        with pytest.raises(NotPrefixClosed) as info:
            spec_from_obj({"kind": "explicit", "depth": 2, "members": ["", "01"]})
        assert info.value.witness == "01"

    def test_missing_root_witnessed(self):
        with pytest.raises(NotPrefixClosed) as info:
            spec_from_obj({"kind": "explicit", "depth": 1, "members": ["0"]})
        assert info.value.witness == "0"

    def test_rejects_overlong_members(self):
        with pytest.raises(ParseError, match="longer than depth"):
            spec_from_obj({"kind": "explicit", "depth": 1, "members": ["", "0", "00"]})

    def test_rejects_bad_fields(self):
        with pytest.raises(ParseError):
            spec_from_obj({"kind": "explicit", "members": ["", "0"]})
        with pytest.raises(ParseError):
            spec_from_obj({"kind": "explicit", "depth": -1, "members": []})

    def test_random_member_lists_match_own_sets(self):
        rng = random.Random("explicit-source")
        for _ in range(60):
            depth = rng.randint(0, 8)
            keep = rng.uniform(0.3, 0.9)
            members = {""} if rng.random() < 0.95 else set()
            frontier = sorted(members)
            for _ in range(depth):
                frontier = [p + b for p in frontier for b in "01" if rng.random() < keep]
                members.update(frontier)
            listed = sorted(members) + rng.sample(sorted(members), len(members) // 3)
            rng.shuffle(listed)
            src = spec_from_obj({"kind": "explicit", "depth": depth, "members": listed})
            counts = {}
            for t in members:
                for k in range(len(t) + 1):
                    counts[t[:k], len(t)] = counts.get((t[:k], len(t)), 0) + 1
            extendible = {t[:k] for t in members if len(t) == depth for k in range(depth + 1)}
            for tau in strings_through(depth + 1):
                assert src.member(tau) == (tau in members), tau
                assert src.extendible(tau) == (tau in extendible), tau
                for m in range(depth + 2):
                    assert src.extension_count(tau, m) == counts.get((tau, m), 0), (tau, m)

    def test_deep_single_branch_is_cheap(self):
        start = time.monotonic()
        members = ["1" * k for k in range(41)]
        src = spec_from_obj({"kind": "explicit", "depth": 40, "members": members})
        assert src.member("1" * 40) and src.member("1" * 17)
        assert not src.member("1" * 39 + "0") and not src.member("1" * 41)
        assert src.extendible("") and src.extendible("1" * 40)
        assert not src.extendible("0") and not src.extendible("1" * 41)
        assert src.extension_count("", 40) == 1 and src.extension_count("1" * 9, 33) == 1
        assert src.extension_count("10", 40) == 0 and src.extension_count("1" * 5, 4) == 0
        assert time.monotonic() - start < 1.0

    def test_depth_cap(self):
        # the cap of the command-line depths; past it, refused before any level is built
        src = spec_from_obj({"kind": "explicit", "depth": MAX_STAGES, "members": [""]})
        assert src.member("") and not src.extendible("")
        for depth in (MAX_STAGES + 1, 100_000_000, 10**100):
            with pytest.raises(ParseError) as info:
                spec_from_obj({"kind": "explicit", "depth": depth, "members": [""]})
            assert str(info.value) == f"explicit spec depth {depth} is past the cap {MAX_STAGES}"

    def test_depth_refuses_booleans(self):
        for depth in (True, False):
            with pytest.raises(ParseError, match="integer depth"):
                spec_from_obj({"kind": "explicit", "depth": depth, "members": ["", "1"]})


class TestTreeSpecAutomatic:
    LEFT = {
        "kind": "automatic",
        "transitions": [[1, 2], [1, 1], [2, 2]],
        "accepting": [0, 1],
    }

    def test_recognizes_branch_left(self):
        src = spec_from_obj(self.LEFT)
        assert src.member("") and src.member("0") and src.member("011")
        assert not src.member("1") and not src.member("10")
        assert src.extendible("011")

    def test_closed_form_counts_match_enumeration(self):
        src = spec_from_obj(self.LEFT)
        for m in range(9):
            direct = sum(
                1
                for i in range(1 << m)
                for s in (format(i, f"0{m}b") if m else "",)
                if src.member(s)
            )
            assert src.extension_count("", m) == direct

    def test_prefix_closure_violation_witnessed(self):
        doc = {"kind": "automatic", "transitions": [[1, 0], [0, 1]], "accepting": [0]}
        # acceptance counts 0-parity, so "0" is rejected but "00" accepted
        with pytest.raises(NotPrefixClosed) as info:
            spec_from_obj(doc)
        assert info.value.witness == "00"

    def test_prefix_closure_witness_is_the_least_violation(self):
        # "1" is rejected and "10" accepted; "000" is a violation too, but longer
        doc = {"kind": "automatic", "transitions": [[1, 2], [3, 3], [0, 0], [4, 4], [4, 4]],
               "accepting": [0, 4], "start": 0}
        with pytest.raises(NotPrefixClosed) as info:
            spec_from_obj(doc)
        assert info.value.witness == "10"

    def test_dead_branch_not_extendible(self):
        doc = {
            "kind": "automatic",
            "transitions": [[1, 2], [2, 2], [2, 2]],
            "accepting": [0, 1],
        }
        src = spec_from_obj(doc)
        assert src.member("0") and not src.member("00")
        assert not src.extendible("0") and not src.extendible("")

    def test_rejects_malformed_tables(self):
        with pytest.raises(ParseError, match="two transitions"):
            spec_from_obj({"kind": "automatic", "transitions": [[0]], "accepting": [0]})
        with pytest.raises(ParseError, match="out of range"):
            spec_from_obj({"kind": "automatic", "transitions": [[0, 5]], "accepting": [0]})
        with pytest.raises(ParseError, match="accepting state"):
            spec_from_obj({"kind": "automatic", "transitions": [[0, 0]], "accepting": [3]})

    # bool is an int subtype in Python, but true and false are not JSON integers
    def test_accepting_refuses_booleans(self):
        with pytest.raises(ParseError, match="accepting list of integer states"):
            spec_from_obj({"kind": "automatic", "transitions": [[1, 1], [1, 1]],
                           "accepting": [True, 0]})

    def test_start_refuses_booleans(self):
        with pytest.raises(ParseError, match="start must be an integer, got False"):
            spec_from_obj({"kind": "automatic", "transitions": [[0, 0]], "accepting": [0],
                           "start": False})

    @pytest.mark.parametrize("row, bad", [([True, 1], True), ([1, False], False)])
    def test_transition_targets_refuse_booleans(self, row, bad):
        with pytest.raises(ParseError, match=f"state 0 transition target {bad} is not an integer"):
            spec_from_obj({"kind": "automatic", "transitions": [row, [1, 1]],
                           "accepting": [0, 1]})


class TestTreeSpecFiles:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(self_doc()), encoding="utf-8")
        src = parse_spec(str(path))
        assert src.member("01") and not src.member("1")

    def test_bare_builtin_name(self):
        assert parse_spec("full").member("1101")

    def test_bare_builtin_name_file_is_not_a_spec(self, capsys, monkeypatch, tmp_path):
        # a spec file holds a JSON document; builtin names are --tree values only
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tree.txt").write_text("full\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "measure", "--tree", "tree.txt", "--s", "1", "--n", "0")
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error[3] ParseError: bad spec file: ")

    def test_missing_file(self):
        with pytest.raises(ParseError, match="no such spec file"):
            parse_spec("definitely-not-a-file.json")

    @pytest.mark.parametrize("name, message", [
        ("dyadic(3/5)", "dyadic constant needs a power-of-two denominator, got 3/5"),
        ("dyadic(9/8)", "dyadic constant must be in (0, 1], got 9/8"),
        ("dyadic(x)", "bad dyadic constant 'x'"),
    ])
    def test_malformed_dyadic_names_the_builtin(self, capsys, name, message):
        code, out, err = run_cli(capsys, "measure", "--tree", name, "--s", "1", "--n", "0")
        assert code == EXIT_PARSE and out == ""
        assert err == f"error[3] ParseError: {message}\n"

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError, match="bad spec file"):
            parse_spec(str(path))

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="unknown spec kind"):
            spec_from_obj({"kind": "fractal"})


def self_doc():
    return {"kind": "explicit", "depth": 2, "members": ["", "0", "00", "01"]}


# keys and strings with escapes, control characters and non-ASCII text
_TEXT = st.text(alphabet=st.characters(max_codepoint=0x1F600), max_size=6)
_SCALARS = (
    st.none() | st.booleans() | st.integers(min_value=-(1 << 200), max_value=1 << 200)
    | st.floats() | _TEXT
)
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, inner, max_size=4)
        # a list of strings, joined in one call, and one with a non-string after strings
        | st.lists(_TEXT, min_size=1, max_size=5)
        | st.tuples(_TEXT, inner).map(list)
    ),
    max_leaves=16,
)


def test_render_json_keys_that_are_not_strings():
    # json quotes number and literal keys as text, and refuses any other key
    for doc in ({2.5: None, 1: "a", -3: [1]}, {True: 0}, {None: {}}, {float("nan"): 1}):
        assert render_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    for doc in ({(1, 2): 0}, {"a": object()}):
        with pytest.raises(TypeError):
            json.dumps(doc, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            render_json(doc)


@settings(max_examples=100, deadline=None)
@given(_DOCS)
def test_render_json_equals_json_dumps(doc):
    assert render_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestReportRendering:
    def test_weight_roundtrip(self):
        w = W(Fraction(3, 8))
        assert (AlgebraicWeight.from_json_obj(w.to_json_obj()) - w).is_zero()

    def test_json_is_deterministic(self):
        doc = report_document("measure", {"b": 1, "a": 2}, {"x": [1, 2]})
        assert render_json(doc) == render_json(doc)
        assert render_json(doc).endswith("\n")

    def test_csv_requires_sequence(self):
        doc = report_document("gadget", {}, {"ok": True})
        with pytest.raises(CgmtError, match="measure sequences"):
            render_csv(doc)

    def test_certificate_roundtrip_verifies(self):
        _, certs = besicovitch_extract(full_tree(), Fraction(1, 2), 1, 0, 2)
        for cert in certs:
            clone = certificate_from_obj(json.loads(json.dumps(certificate_obj(cert))))
            assert clone.verify()
            assert clone.stage == cert.stage

    def test_tampered_certificate_fails(self):
        _, certs = besicovitch_extract(full_tree(), Fraction(1, 2), 1, 0, 2)
        obj = certificate_obj(certs[0])
        tampered = json.loads(json.dumps(obj))
        tampered["upper"]["witness"]["value"] = W(Fraction(1, 64)).to_json_obj()
        assert not certificate_from_obj(tampered).verify()


class TestParseConstant:
    def test_rational(self):
        assert parse_constant("3/4") == Fraction(3, 4)
        assert parse_constant("1") == Fraction(1)

    def test_weight_object(self):
        w = W(Fraction(5, 8))
        back = parse_constant(json.dumps(w.to_json_obj()))
        assert (back - w).is_zero()

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_constant("one half")

    @pytest.mark.parametrize(
        "text", ['{"q": 1}', '{"q": "a", "coeffs": ["1"]}', '{"q": 2, "coeffs": ["0", "0"]}']
    )
    def test_rejects_malformed_weight_object(self, text):
        with pytest.raises(ParseError):
            parse_constant(text)


class TestCliCommands:
    def test_measure_full_half_dimension(self, capsys):
        doc = run_json(capsys, "measure", "--tree", "full", "--s", "1/2", "--n", "1", "--depth", "4")
        seq = doc["results"]["sequence"]
        assert [row["block"] for row in seq] == [1, 2, 3, 4]
        for row in seq:
            value = AlgebraicWeight.from_json_obj(row["value"])
            assert (value - AlgebraicWeight.two_power(Fraction(1, 2))).is_zero()
            assert row["value"]["decimal"].startswith("1.41421356")

    def test_measure_csv_flattening(self, capsys):
        code, out, err = run_cli(
            capsys, "measure", "--tree", "dyadic(3/4)", "--s", "1", "--n", "1",
            "--depth", "3", "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "block,value,decimal"
        assert lines[1].startswith("1,q=1|1,")
        assert lines[2].startswith("2,q=1|3/4,")

    def test_csv_limited_to_sequences(self, capsys):
        code, out, err = run_cli(
            capsys, "gadget", "--kind", "deficit-min", "--table", "0,2", "--format", "csv"
        )
        assert code == 10
        assert "measure sequences" in err

    def test_seed_echoed(self, capsys):
        doc = run_json(capsys, "measure", "--tree", "full", "--s", "1", "--n", "0",
                       "--depth", "2", "--seed", "5")
        assert doc["seed"] == 5

    def test_byte_identical_reruns(self, capsys):
        argv = ["besicovitch", "--tree", "full", "--s", "1/2", "--c", "1",
                "--stages", "2", "--seed", "11"]
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b

    def test_besicovitch_cover_verify_roundtrip(self, capsys, tmp_path):
        doc = run_json(capsys, "besicovitch", "--tree", "full", "--s", "1/2",
                       "--c", "1", "--stages", "3")
        assert doc["results"]["verified"] == [True, True, True]
        path = tmp_path / "certs.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        verdicts = run_json(capsys, "cover-verify", "--certificate", str(path))
        assert verdicts["results"]["all_ok"] is True
        assert [v["stage"] for v in verdicts["results"]["verdicts"]] == [1, 2, 3]

    def test_cover_verify_flags_tampering(self, capsys, tmp_path):
        doc = run_json(capsys, "besicovitch", "--tree", "full", "--s", "1/2",
                       "--c", "1", "--stages", "2")
        cert = doc["results"]["certificates"][0]
        cert["upper"]["witness"]["value"] = W(Fraction(1, 128)).to_json_obj()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([cert]), encoding="utf-8")
        code, out, _ = run_cli(capsys, "cover-verify", "--certificate", str(path))
        assert code == EXIT_VERDICT
        assert json.loads(out)["results"]["all_ok"] is False

    def _tampered_cover_verify(self, capsys, tmp_path, tamper):
        doc = run_json(capsys, "besicovitch", "--tree", "full", "--s", "1/2",
                       "--c", "1", "--stages", "3")
        tamper(doc["results"]["certificates"][-1])
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "cover-verify", "--certificate", str(path))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("error[9] ")
        assert err.count("\n") == 1
        return err

    def test_empty_levels_are_a_tree_and_a_negative_verdict(self, capsys, tmp_path):
        # a finite tree may die below its block: the shape check accepts it
        dead = BlockMarking(2, [{""}, set(), set()])
        assert dead.levels == (frozenset({""}), frozenset(), frozenset())
        doc = run_json(capsys, "besicovitch", "--tree", "full", "--s", "1/2",
                       "--c", "1", "--stages", "3")
        doc["results"]["certificates"][-1]["levels"][-1] = []
        path = tmp_path / "emptied.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "cover-verify", "--certificate", str(path))
        assert code == EXIT_VERDICT and err == ""
        assert [v["ok"] for v in json.loads(out)["results"]["verdicts"]] == [True, True, False]

    def test_cover_verify_rejects_non_binary_mark(self, capsys, tmp_path):
        def tamper(cert):
            levels = cert["levels"]
            levels[-1][0] = "2" * len(levels[-1][0])

        err = self._tampered_cover_verify(capsys, tmp_path, tamper)
        assert "not a binary string" in err

    def test_cover_verify_rejects_mark_without_parent(self, capsys, tmp_path):
        def tamper(cert):
            levels = cert["levels"]
            levels[-2].remove(levels[-1][0][:-1])

        err = self._tampered_cover_verify(capsys, tmp_path, tamper)
        assert "unmarked parent" in err

    def test_cover_verify_rejects_witness_block_past_levels(self, capsys, tmp_path):
        def tamper(cert):
            cert["upper"]["witness"]["block"] = 99

        err = self._tampered_cover_verify(capsys, tmp_path, tamper)
        assert "records levels only to block" in err

    def test_cover_verify_rejects_lower_check_past_levels(self, capsys, tmp_path):
        def tamper(cert):
            cert["lower"]["checks"][0]["block"] = len(cert["levels"])

        err = self._tampered_cover_verify(capsys, tmp_path, tamper)
        assert "records levels only to block" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("levels", 5),
            ("stage", "x"),
            ("theta", {"q": 1}),
            ("theta", {"q": "a", "coeffs": ["1"]}),
            ("dimension", "-1/2"),
            # past the ring's caps: s above 16, root orders above 256
            ("dimension", "17"),
            ("dimension", "1/257"),
            ("theta", {"q": 3000, "coeffs": ["1", "-1/2"] + ["0"] * 2998}),
            # a coefficient of more digits than outside input may hold
            ("theta", {"q": 1, "coeffs": ["1/" + "3" * 5000]}),
            # granularities are the construction's: upper the stage, lower
            # below it; 10^12 would ask for 2^(10^12 / 2)
            ("lower.granularity", -1),
            ("lower.granularity", 10**12),
            ("upper.granularity", 10**12),
            ("upper.granularity", 2),
            ("stage", 10**12),
        ],
    )
    def test_cover_verify_rejects_malformed_fields(self, capsys, tmp_path, field, value):
        doc = run_json(capsys, "besicovitch", "--tree", "full", "--s", "1/2",
                       "--c", "1", "--stages", "3")
        cert = doc["results"]["certificates"][0]
        *parents, key = field.split(".")
        for parent in parents:
            cert = cert[parent]
        cert[key] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "cover-verify", "--certificate", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error[3] ParseError: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            # every stage's granularity passes the recorded block 3
            ("--s", "16", "--c", "0", "--stages", "4"),
            ("--s", "1/2", "--c", "1", "--stages", "3", "--window", "0"),
        ],
    )
    def test_cover_verify_accepts_emitted_certificates(self, capsys, tmp_path, args):
        doc = run_json(capsys, "besicovitch", "--tree", "full", *args)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "cover-verify", "--certificate", str(path))
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["results"]["all_ok"] is True

    def test_cover_verify_rejects_non_object_results(self, capsys, tmp_path):
        path = tmp_path / "results.json"
        path.write_text(json.dumps({"results": 5}), encoding="utf-8")
        code, out, err = run_cli(capsys, "cover-verify", "--certificate", str(path))
        assert code == EXIT_PARSE
        assert out == "" and err.startswith("error[3] ParseError: ")

    def test_extract_reports_bracket(self, capsys):
        doc = run_json(capsys, "extract", "--tree", "full", "--s", "1/2", "--n", "1",
                       "--c", "1", "--eps", "1/4")
        interp = doc["results"]["interpolation"]
        assert interp["code"]["levels"][0] == [""]
        lower = AlgebraicWeight.from_json_obj(interp["bracket"]["lower"])
        assert (lower - W(1)).sign() >= 0

    def test_gadget_report(self, capsys):
        doc = run_json(capsys, "gadget", "--kind", "column-tree", "--table", "1,2,5,8")
        results = doc["results"]
        assert results["ok"] is True and results["mismatches"] == []
        decoded = {row["n"] for row in results["rows"] if row["gadget"]}
        assert decoded == {1, 2}
        assert "closed-form" in results["stand_in"]

    def test_lebesgue_and_baire(self, capsys, tmp_path):
        doc = run_json(capsys, "lebesgue-path", "--tree", "branch-left", "--c", "1/2",
                       "--depth", "8")
        assert doc["results"]["path"] == "01111111"
        # a rational as a weight object is the same promise
        doc = run_json(capsys, "lebesgue-path", "--tree", "branch-left",
                       "--c", '{"q": 1, "coeffs": ["1/2"]}', "--depth", "8")
        assert doc["results"]["path"] == "01111111"
        opens = tmp_path / "opens.json"
        opens.write_text(json.dumps([["0"], ["00", "01"], ["000", "0110"]]), encoding="utf-8")
        doc = run_json(capsys, "baire", "--tree", "branch-left", "--opens", str(opens),
                       "--depth", "16")
        path = doc["results"]["path"]
        assert len(path) == 16
        for stage in doc["results"]["stages"]:
            assert path.startswith(stage["prefix"])

    def test_verify_suite_clean(self, capsys):
        doc = run_json(capsys, "verify-suite", "--trials", "25", "--seed", "7")
        assert doc["results"]["ok"] is True
        assert doc["results"]["mismatches"] == []

    def test_explicit_spec_file(self, capsys, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(self_doc()), encoding="utf-8")
        doc = run_json(capsys, "measure", "--tree", str(path), "--s", "1", "--n", "1",
                       "--depth", "2")
        values = [AlgebraicWeight.from_json_obj(row["value"]) for row in doc["results"]["sequence"]]
        assert all((v - W(Fraction(1, 2))).is_zero() for v in values)


class TestCliExitCodes:
    def test_parse_failure(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "explicit", "depth": 2, "members": ["", "01"]}))
        code, _, err = run_cli(capsys, "measure", "--tree", str(path), "--s", "1", "--n", "0")
        assert code == EXIT_PARSE and "01" in err

    def test_precondition(self, capsys):
        code, _, err = run_cli(capsys, "extract", "--tree", "full", "--s", "1/2",
                               "--n", "1", "--c", "5", "--eps", "1/8")
        assert code == EXIT_PRECONDITION

    def test_no_stable_index(self, capsys):
        code, _, err = run_cli(capsys, "thin", "--tree", "full", "--s", "1/2",
                               "--n", "1", "--c", "1", "--theta", "0")
        assert code == EXIT_NO_STABLE

    def test_density(self, capsys, tmp_path):
        opens = tmp_path / "opens.json"
        opens.write_text(json.dumps([[]]), encoding="utf-8")
        code, _, err = run_cli(capsys, "baire", "--tree", "full", "--opens", str(opens),
                               "--depth", "8", "--cap", "500")
        assert code == EXIT_DENSITY
        assert err == "error[6] DensityViolated: density promise failed at stage 0 (cap 500)\n"
        # the one-path tree never meets the open: the search stops at --depth,
        # not at the default cap of a million candidates
        tree = tmp_path / "one-path.json"
        tree.write_text(json.dumps({"kind": "automatic", "transitions": [[0, 1], [1, 1]],
                                    "accepting": [0]}), encoding="utf-8")
        opens = tmp_path / "opens.json"
        opens.write_text(json.dumps([["1"]]), encoding="utf-8")
        code, out, err = run_cli(capsys, "baire", "--tree", str(tree), "--opens", str(opens),
                                 "--depth", "5")
        assert code == EXIT_DENSITY and out == ""
        assert err == ("error[6] DensityViolated: density promise failed at stage 0 "
                       "(depth 5, all 5 extensions tested)\n")

    @pytest.mark.parametrize("argv", [
        ("measure", "--tree", "f", "--s", "1", "--n", "0", "--blocks", "1"),
        ("baire", "--tree", "f", "--opens", "opens.json", "--depth", "5"),
    ])
    def test_explicit_depth_past_the_cap(self, capsys, monkeypatch, tmp_path, argv):
        # a level list per length would ask for about 20 GB at depth 10^8
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f").write_text(json.dumps({"kind": "explicit", "depth": 100_000_000,
                                                "members": [""]}), encoding="utf-8")
        (tmp_path / "opens.json").write_text(json.dumps([[""]]), encoding="utf-8")
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE and out == ""
        assert err == f"error[3] ParseError: explicit spec depth 100000000 is past the cap {MAX_STAGES}\n"

    @pytest.mark.parametrize("spec", [
        {"kind": "explicit", "depth": True, "members": ["", "1"]},
        {"kind": "automatic", "transitions": [[0, 0]], "accepting": [True]},
        {"kind": "automatic", "transitions": [[0, 0]], "accepting": [0], "start": True},
        {"kind": "automatic", "transitions": [[True, True], [1, 1]], "accepting": [0, 1]},
    ], ids=["depth", "accepting", "start", "transitions"])
    def test_boolean_spec_fields(self, capsys, monkeypatch, tmp_path, spec):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f").write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run_cli(capsys, "measure", "--tree", "f", "--s", "1", "--n", "0")
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error[3] ParseError: ") and err.count("\n") == 1

    def test_promise(self, capsys):
        code, _, err = run_cli(capsys, "lebesgue-path", "--tree", "branch-left",
                               "--c", "7/8", "--depth", "8")
        assert code == EXIT_PROMISE

    def test_budget(self, capsys):
        code, _, err = run_cli(capsys, "extract", "--tree", "full", "--s", "1/2",
                               "--n", "1", "--c", "1", "--eps", "1/4", "--budget", "1")
        assert code == EXIT_BUDGET

    def test_measure_budget(self, capsys):
        # unbudgeted, depth 30 on the full tree would enumerate 2^31 strings
        code, out, err = run_cli(capsys, "measure", "--tree", "full", "--s", "1/2",
                                 "--n", "1", "--depth", "30", "--budget", "10000")
        assert code == EXIT_BUDGET
        assert out == ""
        assert err.startswith("error[8] ") and err.count("\n") == 1

    def test_validation(self, capsys, tmp_path):
        dead = tmp_path / "dead.json"
        dead.write_text(json.dumps({"kind": "automatic", "transitions": [[0, 0]],
                                    "accepting": []}), encoding="utf-8")
        opens = tmp_path / "opens.json"
        opens.write_text(json.dumps([["0"]]), encoding="utf-8")
        code, _, err = run_cli(capsys, "baire", "--tree", str(dead), "--opens", str(opens),
                               "--depth", "4")
        assert code == EXIT_VALIDATION

    # the least passing budget is the count of strings held through the deepest
    # block the command grows, root included (the same at the parent commit)
    @pytest.mark.parametrize("least, argv", [
        (31, ("extract", "--tree", "full", "--s", "1/2", "--n", "1", "--c", "1", "--eps", "1/4")),
        (81, ("extract-pruned", "--tree", "dyadic(5/8)", "--s", "1/2", "--n", "1",
              "--c", "1/2", "--eps", "1/8")),
        (128, ("thin", "--tree", "full", "--s", "1/2", "--n", "1", "--c", "1", "--theta", "1/64")),
        (129, ("besicovitch", "--tree", "full", "--s", "1/2", "--c", "1", "--stages", "3")),
        (641, ("measure", "--tree", "dyadic(5/8)", "--s", "1/2", "--n", "1", "--depth", "9")),
        # probes up to top level 10, whose ambient top holds 1,024 strings
        (8191, ("extract", "--tree", "full", "--s", "1", "--n", "0", "--c", "7/10",
                "--eps", "1/1024")),
    ])
    def test_budget_threshold(self, capsys, least, argv):
        code, out, err = run_cli(capsys, *argv, "--budget", str(least - 1))
        assert code == EXIT_BUDGET and out == ""
        assert err.startswith("error[8] ") and err.count("\n") == 1
        code, _, err = run_cli(capsys, *argv, "--budget", str(least))
        assert code == EXIT_OK, err

    # a constant out of its range is a usage error; a malformed one stays a parse error
    @pytest.mark.parametrize("code, argv", [
        (EXIT_USAGE, ("extract", "--tree", "full", "--s", "1", "--n", "0", "--c", "1/2",
                      "--eps", "0")),
        (EXIT_USAGE, ("extract-pruned", "--tree", "full", "--s", "1", "--n", "0", "--c", "1/2",
                      "--eps", '{"q": 2, "coeffs": ["0", "-1"]}')),
        (EXIT_USAGE, ("thin", "--tree", "full", "--s", "1/2", "--n", "1", "--c", "1",
                      "--theta", "-1")),
        (EXIT_USAGE, ("lebesgue-path", "--tree", "full", "--c", "2", "--depth", "3")),
        (EXIT_USAGE, ("lebesgue-path", "--tree", "full", "--c=-1", "--depth", "3")),
        (EXIT_USAGE, ("lebesgue-path", "--tree", "full", "--c", "0", "--depth", "3")),
        (EXIT_PARSE, ("extract", "--tree", "full", "--s", "1", "--n", "0", "--c", "1/2",
                      "--eps", "x")),
        (EXIT_PARSE, ("thin", "--tree", "full", "--s", "1/2", "--n", "1", "--c", "1",
                      "--theta", "1/0")),
        (EXIT_PARSE, ("lebesgue-path", "--tree", "full", "--c", "{", "--depth", "3")),
        (EXIT_USAGE, ("lebesgue-path", "--tree", "full", "--c", '{"q": 2, "coeffs": ["0", "1"]}',
                      "--depth", "3")),
        (EXIT_USAGE, ("extract", "--tree", "full", "--s", "1", "--n", "0", "--c=-1",
                      "--eps", "1/4")),
        (EXIT_USAGE, ("extract-pruned", "--tree", "full", "--s", "1", "--n", "0", "--c=-1",
                      "--eps", "1/4")),
        (EXIT_USAGE, ("besicovitch", "--tree", "full", "--s", "1/2", "--c=-1", "--stages", "3")),
        (EXIT_USAGE, ("besicovitch", "--tree", "full", "--s", "1/2", "--c", "1",
                      "--stages", str(MAX_STAGES + 1))),
    ])
    def test_constant_range(self, capsys, code, argv):
        try:
            got = main(list(argv))
        except SystemExit as info:
            got = info.code
        captured = capsys.readouterr()
        assert got == code and captured.out == ""
        assert captured.err.startswith(f"error[{code}] ") and captured.err.count("\n") == 1

    # past the caps a run would build the float filter's table for a large root
    # order (2.6 s at q = 1,024, more than a minute at 3,000) or hold values of
    # hundreds of thousands of digits
    @pytest.mark.parametrize("argv", [
        ("measure", "--tree", "full", "--s", "1/1024", "--n", "1", "--depth", "3"),
        ("measure", "--tree", "full", "--s", "1/2000", "--n", "1", "--depth", "3"),
        ("measure", "--tree", "full", "--s", "1/3000", "--n", "1", "--depth", "3"),
        ("measure", "--tree", "full", "--s", "1/999999", "--n", "1", "--depth", "3"),
        ("measure", "--tree", "full", "--s", "999999/7", "--n", "1", "--depth", "5"),
        ("measure", "--tree", "full", "--s", "99999999999/7", "--n", "1", "--depth", "5"),
        ("extract", "--tree", "full", "--s", "1/2", "--n", "1", "--eps", "1/4", "--c",
         json.dumps({"q": 3000, "coeffs": ["1", "-1/2"] + ["0"] * 2998})),
        # each root order within the cap, their lcm 65,280 past it
        ("extract", "--tree", "full", "--s", "1/256", "--n", "1", "--eps", "1/4", "--c",
         json.dumps({"q": 255, "coeffs": ["1", "-1/2"] + ["0"] * 253})),
        ("thin", "--tree", "full", "--s", "1/2", "--n", "1", "--theta", "1/64", "--c",
         json.dumps({"q": 3000, "coeffs": ["1", "-1/2"] + ["0"] * 2998})),
    ])
    def test_values_past_the_caps_exit_fast(self, capsys, argv):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert info.value.code == EXIT_USAGE and captured.out == ""
        assert captured.err.startswith("error[2] ") and captured.err.count("\n") == 1
        assert "the cap" in captured.err

    @pytest.mark.parametrize("s", ["16", "1/256"])
    def test_values_at_the_caps_run(self, capsys, s):
        doc = run_json(capsys, "measure", "--tree", "full", "--s", s, "--n", "1", "--depth", "3")
        assert len(doc["results"]["sequence"]) == 3

    # a granularity past the stage cap made htilde's case 2 build 2^((1-s)n):
    # 10^12 exited 11 with MemoryError and 3,000,000 ran for seconds.  The
    # depths of measure and lebesgue-path take the same cap: at --depth
    # 100,000,000, measure listed every block before any budget check and exited
    # 11 with MemoryError under a 1.5 GB address-space limit, and lebesgue-path
    # printed nothing for 12 s
    GRANULARITY_ARGV = {
        "measure --n": ("measure", "--tree", "full", "--s", "1/2", "--blocks", "3", "--n"),
        "extract --n": ("extract", "--tree", "full", "--s", "1/2", "--c", "1", "--eps", "1/4",
                        "--n"),
        "extract-pruned --n": ("extract-pruned", "--tree", "full", "--s", "1/2", "--c", "1",
                               "--eps", "1/4", "--n"),
        "thin --n": ("thin", "--tree", "full", "--s", "1/2", "--c", "1", "--theta", "1/64",
                     "--n"),
        "thin --nu": ("thin", "--tree", "full", "--s", "1/2", "--n", "1", "--c", "1",
                      "--theta", "1/64", "--nu"),
        "thin --n0": ("thin", "--tree", "full", "--s", "1/2", "--n", "1", "--c", "1",
                      "--theta", "1/64", "--n0"),
        "measure --depth": ("measure", "--tree", "full", "--s", "1/2", "--n", "1", "--depth"),
        "measure --blocks": ("measure", "--tree", "full", "--s", "1/2", "--n", "1", "--blocks"),
        "lebesgue-path --depth": ("lebesgue-path", "--tree", "full", "--c", "1/2", "--depth"),
    }

    @pytest.mark.parametrize("value", [10**12, 3_000_000])
    @pytest.mark.parametrize("option", list(GRANULARITY_ARGV))
    def test_granularity_past_the_cap_exits_2(self, capsys, option, value):
        argv = [*self.GRANULARITY_ARGV[option], str(value)]
        # the parser rejects it before any command runs
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        capsys.readouterr()
        start = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert time.perf_counter() - start < 0.1
        captured = capsys.readouterr()
        assert info.value.code == EXIT_USAGE and captured.out == ""
        assert captured.err.startswith("error[2] ") and captured.err.count("\n") == 1
        assert f"must be in 0..{MAX_STAGES}" in captured.err

    @pytest.mark.parametrize("option", list(GRANULARITY_ARGV))
    def test_granularity_at_the_cap_parses(self, option):
        args = build_parser().parse_args([*self.GRANULARITY_ARGV[option], str(MAX_STAGES)])
        value = getattr(args, option.split("--")[1])
        assert MAX_STAGES == 16384 and value in (MAX_STAGES, [MAX_STAGES])

    def test_lebesgue_false_promise_at_the_largest_cap(self, capsys):
        # every level through the cap keeps an exact count as wide as the level
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "lebesgue-path", "--tree", "full", "--c", "1/3",
                                 "--depth", "5", "--cap", str(MAX_STAGES + 8))
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_PROMISE and out == ""
        assert err.startswith("error[7] ") and err.count("\n") == 1

    def test_baire_cap_at_its_largest_parses(self):
        args = build_parser().parse_args(["baire", "--tree", "full", "--opens", "opens.json",
                                          "--depth", "3", "--cap", "1000000"])
        assert args.cap == 1_000_000

    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_gadget_empty_table_decodes_at_depth_1(self, capsys, kind):
        doc = run_json(capsys, "gadget", "--kind", kind, "--table", "")
        assert doc["inputs"]["depth"] == 1 and doc["results"]["ok"] is True
        if kind != "first-one-inf":
            assert doc["results"]["rows"] == []

    def test_usage_error_is_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gadget", "--kind", "mystery", "--table", "1"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("lebesgue-path", "--tree", "full", "--c", "1", "--depth", "-3"),
        ("measure", "--tree", "full", "--s", "1", "--n", "0", "--depth", "-2"),
        ("measure", "--tree", "full", "--s", "1", "--n", "-1"),
        ("extract", "--tree", "full", "--s", "1/2", "--n", "-1", "--c", "1", "--eps", "1/4"),
        ("gadget", "--kind", "marker-tree", "--table", "1,1"),
        ("gadget", "--kind", "column-tree", "--table", "1,2", "--depth", "0"),
        ("gadget", "--kind", "column-tree", "--table", "1,2", "--depth", "100000"),
        ("measure", "--tree", "full", "--s", "1", "--n", "0", "--budget", "-1"),
        ("measure", "--tree", "full", "--s", "1", "--n", "0", "--blocks", "-1"),
        ("measure", "--tree", "full", "--s", "1", "--n", "0", "--blocks", "3,2"),
        ("measure", "--tree", "full", "--s", "1", "--n", "0", "--blocks", "2,a"),
        ("lebesgue-path", "--tree", "full", "--c", "1", "--depth", "3", "--cap", "-1"),
        ("baire", "--tree", "full", "--opens", "opens.json", "--depth", "3", "--cap", "-1"),
        ("verify-suite", "--trials", "-1"),
        ("verify-suite", "--block-max", "-1"),
        ("verify-suite", "--block-max", "8"),
        ("verify-suite", "--n-max", "-1"),
        ("besicovitch", "--tree", "full", "--s", "1/2", "--c", "1", "--n0", "3", "--stages", "2"),
        ("baire", "--tree", "full", "--opens", "opens.json", "--depth", "16385"),
        ("baire", "--tree", "full", "--opens", "opens.json", "--depth", "3", "--start", "2"),
        ("baire", "--tree", "full", "--opens", "opens.json", "--depth", "3", "--start", "0000"),
        ("verify-suite", "--n-max", "13"),
        # least decodable depth 100,001, past the gadget depth cap
        ("gadget", "--kind", "point-sequence", "--table", "100000"),
        # marker-tree at horizon 2 needs depth 2
        ("gadget", "--kind", "marker-tree", "--table", "0,1", "--depth", "1"),
        ("lebesgue-path", "--tree", "full", "--c", "1", "--depth", "3", "--cap", "16393"),
        ("baire", "--tree", "full", "--opens", "opens.json", "--depth", "3", "--cap", "1000001"),
        ("lebesgue-path", "--tree", "full", "--c", "1", "--depth", "3", "--budget", "5"),
    ])
    def test_argument_out_of_range(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        captured = capsys.readouterr()
        assert info.value.code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("error[2] ") and captured.err.count("\n") == 1


class TestSharedParser:
    """One parser serves every main call of a process and keeps nothing between them."""

    COMMANDS = [line for line in GOLDEN if line.split()[1] in ("measure", "gadget")]

    def readme_digests(self, capsys) -> dict:
        got = {}
        for line in self.COMMANDS:
            code = main(shlex.split(line)[1:])
            got[line] = (code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        return got

    def test_errors_leave_no_state(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert build_parser() is build_parser()
        expected = {line: GOLDEN[line] for line in self.COMMANDS}
        assert len(expected) == 3
        assert self.readme_digests(capsys) == expected
        with pytest.raises(SystemExit) as info:
            main(["measure", "--tree", "full", "--s", "1/2", "--n", "-1"])
        assert info.value.code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error[2] ")
        code, out, err = run_cli(capsys, "measure", "--tree", "missing.json", "--s", "1/2",
                                 "--n", "1")
        assert code == EXIT_PARSE and out == "" and err.startswith("error[3] ")
        assert self.readme_digests(capsys) == expected


# drawn like perfbench's `paths` workload: layers of 1, 2, 4, 4, 4, 4 accepting
# states feeding a full sink (state 19), dead sink 20; a quarter of the
# length-6 strings reach the full sink, so the mass is exactly 1/4
LAYERED_MASS = {
    "kind": "automatic",
    "transitions": [[2, 1], [3, 6], [5, 4], [8, 9], [9, 8], [7, 20], [10, 8], [14, 13],
                    [20, 13], [11, 13], [12, 14], [18, 15], [17, 16], [20, 18], [15, 20],
                    [20, 19], [19, 19], [19, 19], [19, 20], [19, 19], [20, 20]],
    "accepting": list(range(20)),
    "start": 0,
}


class TestDeepLebesguePath:
    """Linear-time probes: a deep path stays fast and its report stays the same.

    The digests are of the reports written before the run-state memo and
    the integer comparison; that code took 0.66 s at depth 2000 and 9.1 s
    at depth 8000 on a 2-CPU host.
    """

    @pytest.mark.parametrize("depth, digest", [
        (2000, "b1d7edeedf2552dd9b5d9c1147aa1ad6afbf0efe2516db1a13453b8a192c19f0"),
        (8000, "484b4ab055360eb9d24071e30d33d679a2e9d80ba1abd00f49d937997882bbdc"),
    ])
    def test_time_bound_and_golden_report(self, capsys, monkeypatch, tmp_path, depth, digest):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mass.json").write_text(json.dumps(LAYERED_MASS), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "lebesgue-path", "--tree", "mass.json", "--c", "1/4",
                                 "--depth", str(depth))
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK, err
        assert elapsed < 3.0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# binary strings with no two consecutive ones
NO_11 = {"kind": "automatic", "transitions": [[0, 1], [0, 2], [2, 2]], "accepting": [0, 1]}


class TestDeepMeasure:
    """measure weighs (state, length) classes, so its time does not follow the 2^depth strings."""

    def test_depth_63_within_a_large_budget(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "no11.json").write_text(json.dumps(NO_11), encoding="utf-8")
        start = time.perf_counter()
        doc = run_json(capsys, "measure", "--tree", "no11.json", "--s", "1/2", "--n", "1",
                       "--depth", "63", "--budget", str(10**20))
        assert time.perf_counter() - start < 2.0
        sequence = doc["results"]["sequence"]
        assert len(sequence) == 63
        # s = 1/2 is below the dimension, log2 of the golden ratio: from block 2 on
        # the cheapest cover is "0" and "10", the only child of "1"
        assert all(v["witness"] == ["0", "10"] for v in sequence[1:])
        assert all(v["value"]["coeffs"] == ["1/2", "1"] for v in sequence[1:])

    def test_depth_63_over_the_default_budget(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "no11.json").write_text(json.dumps(NO_11), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "measure", "--tree", "no11.json", "--s", "1/2",
                                 "--n", "1", "--depth", "63")
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_BUDGET and out == ""
        assert err.startswith("error[8] ") and err.count("\n") == 1


class TestLongExactValues:
    """Exact values are written whole, however many digits they have."""

    def test_value_past_the_interpreter_digit_limit(self, capsys, monkeypatch, tmp_path):
        # one path: the value at block b is 2^-b, 4,516 digits at b = 15,000
        monkeypatch.chdir(tmp_path)
        spec = {"kind": "automatic", "transitions": [[0, 1], [1, 1]], "accepting": [0], "start": 0}
        (tmp_path / "path.json").write_text(json.dumps(spec), encoding="utf-8")
        doc = run_json(capsys, "measure", "--tree", "path.json", "--s", "1", "--n", "1",
                       "--blocks", "15000")
        (row,) = doc["results"]["sequence"]
        assert row["value"]["decimal"] == "0." + "0" * 30
        # reading outside input keeps the interpreter's limit, so lift it here
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            value = AlgebraicWeight.from_json_obj(row["value"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert value == AlgebraicWeight.two_power(-15000)
        assert sys.get_int_max_str_digits() == limit


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


class TestHostileInputFiles:
    """Whatever an input file holds, it exits 3 with one error line, never a traceback."""

    @pytest.mark.parametrize("content, argv", [
        (_nested(200_000), ("cover-verify", "--certificate", "f")),
        (_nested(200_000), ("baire", "--tree", "full", "--opens", "f", "--depth", "3")),
        ('{"kind": ' + _nested(200_000) + "}", ("measure", "--tree", "f", "--s", "1", "--n", "0")),
        (b"\xff\xfe", ("measure", "--tree", "f", "--s", "1", "--n", "0")),
        (b"\xff\xfe", ("cover-verify", "--certificate", "f")),
        (b"\xff\xfe", ("baire", "--tree", "full", "--opens", "f", "--depth", "3")),
        ("[" + "1" * 5000 + "]", ("cover-verify", "--certificate", "f")),
        (json.dumps([["0"], ["01", "2" * 5000]]),
         ("baire", "--tree", "full", "--opens", "f", "--depth", "3")),
    ], ids=["certificate-nested", "opens-nested", "spec-nested", "spec-not-utf8",
            "certificate-not-utf8", "opens-not-utf8", "certificate-long-integer",
            "opens-not-binary"])
    def test_parse_error(self, capsys, monkeypatch, tmp_path, content, argv):
        monkeypatch.chdir(tmp_path)
        if isinstance(content, bytes):
            (tmp_path / "f").write_bytes(content)
        else:
            (tmp_path / "f").write_text(content, encoding="utf-8")
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error[3] ParseError: ") and err.count("\n") == 1
        assert len(err) < 300

    # a 4,000-digit or 4,000-character field is echoed clipped, on one short line
    @pytest.mark.parametrize("spec", [
        {"kind": "explicit", "depth": -int("9" * 4000), "members": [""]},
        {"kind": "explicit", "depth": int("9" * 4000), "members": [""]},
        {"kind": "explicit", "depth": 2, "members": ["", "0", "1" * 4000]},
        {"kind": "automatic", "transitions": [[0, 0]], "accepting": [0], "start": int("9" * 4000)},
        {"kind": "automatic", "transitions": [[0, 0]], "accepting": [0], "start": "9" * 4000},
        {"kind": "automatic", "transitions": [[0, int("9" * 4000)]], "accepting": [0]},
        {"kind": "automatic", "transitions": [[0, "9" * 4000]], "accepting": [0]},
        {"kind": "automatic", "transitions": [[0, 0]], "accepting": [int("9" * 4000)]},
        {"kind": "builtin", "name": "dyadic(" + "9" * 4000 + ")"},
    ], ids=["negative-depth", "depth-past-cap", "member", "start", "start-string", "target",
            "target-string", "accepting", "dyadic"])
    def test_long_spec_values_are_clipped(self, capsys, monkeypatch, tmp_path, spec):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f").write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run_cli(capsys, "measure", "--tree", "f", "--s", "1", "--n", "0")
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error[3] ParseError: ") and err.count("\n") == 1
        assert "... (400" in err and len(err) < 300

    @pytest.mark.parametrize("argv", [
        ("extract", "--tree", "full", "--s", "1", "--n", "0", "--c", "1" + "0" * 4000 + "x",
         "--eps", "1/2"),
        ("extract", "--tree", "full", "--s", "1", "--n", "0", "--c",
         '{"q": 1, "coeffs": ["' + "1" * 4000 + '"], "x": 0', "--eps", "1/2"),
        ("extract", "--tree", "full", "--s", "1", "--n", "0", "--c",
         '{"q": 1, "coeffs": ["' + "1" * 4000 + 'x"]}', "--eps", "1/2"),
        ("measure", "--tree", "full", "--s", "1" + "0" * 4000 + "x", "--n", "0"),
    ], ids=["constant", "weight-object-json", "weight-object", "dimension"])
    def test_long_command_line_values_are_clipped(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error[3] ParseError: ") and err.count("\n") == 1
        assert "characters)" in err and len(err) < 400

    def test_nested_weight_argument(self, capsys):
        code, out, err = run_cli(capsys, "extract", "--tree", "full", "--s", "1/2", "--n", "1",
                                 "--c", '{"q": ' + _nested(50_000) + "}", "--eps", "1/4")
        assert code == EXIT_PARSE and out == ""
        assert err == "error[3] ParseError: bad weight object: nested too deeply\n"

    def test_unknown_builtin_in_a_spec_file_is_not_echoed(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"kind": "builtin", "name": "cantor " * 1000}))
        with pytest.raises(ParseError, match="unknown builtin") as info:
            parse_spec(str(path))
        assert "cantor" not in str(info.value)

    def test_crash_exits_11_not_1(self, capsys, monkeypatch):
        # exit 1 is a negative verdict; an exception that is no library error is not one
        def crash(*args, **kwargs):
            raise ZeroDivisionError("a bug")

        monkeypatch.setattr("cgmt.cli.measure_sequence", crash)
        code, out, err = run_cli(capsys, "measure", "--tree", "full", "--s", "1", "--n", "0")
        assert code == EXIT_INTERNAL == 11 and out == ""
        assert err == "error[11] ZeroDivisionError: a bug\n"


class TestVerifySuiteHarness:
    def test_seeded_reproducibility(self):
        a = run_verify_suite(30, seed=7)
        b = run_verify_suite(30, seed=7)
        assert a == b and a["ok"]

    def test_markings_do_not_depend_on_hash_seed(self):
        # one process cannot see set-iteration order change; two can
        import cgmt

        script = (
            "import random\n"
            "from cgmt.cli import random_marking\n"
            "rng = random.Random(7)\n"
            "for n in (0, 1, 2) * 10:\n"
            "    marking = random_marking(rng, 6, n, 250_000)\n"
            "    print([sorted(level) for level in marking.levels])\n"
        )
        src = os.path.dirname(os.path.dirname(cgmt.__file__))
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.append(proc.stdout)
        assert outputs[0].count("\n") == 30
        assert outputs[0] == outputs[1]

    def test_covers_all_dimensions(self):
        # the sampler must exercise every pinned dimension at this size
        from cgmt.cli import random_marking
        import random as _random

        rng = _random.Random(3)
        seen = set()
        for _ in range(60):
            marking = random_marking(rng, 5, 1, 250_000)
            seen.add(marking.block)
        assert {0, 1, 2, 3, 4, 5} <= seen
