"""Each benchmark check passes a real cgmt report and rejects a tampered one.

    python3 -m pytest perfbench/tests -q

Reports come from `cgmt.cli.main` on small inputs, run from the repository
root's src/.
"""

import contextlib
import copy
import io
import json
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cgmt import cli  # noqa: E402

HALF, TWO_THIRDS, ONE = Fraction(1, 2), Fraction(2, 3), Fraction(1)
DYADIC = checks.dyadic_tree(5, 3)


def report(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())


def rejected(problems: list[str], word: str) -> bool:
    return any(word in p for p in problems)


def leaving_flip(path: str, tree: checks.OwnTree) -> str:
    """The path with its first bit flipped whose flip leaves the tree."""
    for k, bit in enumerate(path):
        flipped = path[:k] + "10"[int(bit)] + path[k + 1 :]
        if not tree.member(flipped[: k + 1]):
            return flipped
    raise AssertionError("every single-bit flip stays in the tree")


# -- measure ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def measure_doc():
    return report("measure", "--tree", "dyadic(5/8)", "--s", "2/3", "--n", "1", "--blocks", "7,8")


def test_measure_report_passes(measure_doc):
    assert checks.check_measure(measure_doc, DYADIC, TWO_THIRDS, 1, [7, 8]) == []


def test_measure_rejects_a_changed_ring_coefficient(measure_doc):
    doc = copy.deepcopy(measure_doc)
    value = doc["results"]["sequence"][1]["value"]
    assert value["q"] == 3
    value["coeffs"][1] = str(Fraction(value["coeffs"][1]) + Fraction(1, 1 << 20))
    assert rejected(checks.check_measure(doc, DYADIC, TWO_THIRDS, 1, [7, 8]), "!= own")


def test_measure_rejects_a_witness_missing_one_string(measure_doc):
    doc = copy.deepcopy(measure_doc)
    witness = doc["results"]["sequence"][0]["witness"]
    assert len(witness) > 1
    witness.pop()
    assert rejected(checks.check_measure(doc, DYADIC, TWO_THIRDS, 1, [7, 8]), "witness misses")


def test_measure_rejects_a_wrong_decimal(measure_doc):
    doc = copy.deepcopy(measure_doc)
    value = doc["results"]["sequence"][0]["value"]
    value["decimal"] = value["decimal"][:-3] + ("000" if value["decimal"][-3:] != "000" else "999")
    assert rejected(checks.check_measure(doc, DYADIC, TWO_THIRDS, 1, [7, 8]), "decimal")


def test_measure_s1_value_is_the_level_count():
    doc = report("measure", "--tree", "dyadic(5/8)", "--s", "1", "--n", "1", "--blocks", "6")
    assert checks.check_measure(doc, DYADIC, ONE, 1, [6]) == []
    doc["results"]["sequence"][0]["value"]["coeffs"][0] = "41/64"
    assert rejected(checks.check_measure(doc, DYADIC, ONE, 1, [6]), "N_m/2^m")


def test_measure_full_tree_closed_form():
    doc = report("measure", "--tree", "full", "--s", "1/2", "--n", "2", "--blocks", "6")
    assert checks.check_measure(doc, checks.full_tree(), HALF, 2, [6]) == []


# -- besicovitch and cover-verify -------------------------------------------------------


@pytest.fixture(scope="module")
def besicovitch_doc():
    return report("besicovitch", "--tree", "dyadic(5/8)", "--s", "2/3", "--c", "1/2", "--stages", "3")


def test_besicovitch_report_passes(besicovitch_doc):
    assert checks.check_besicovitch(besicovitch_doc, DYADIC, TWO_THIRDS, HALF, 3) == []


def test_besicovitch_rejects_a_mark_outside_the_tree(besicovitch_doc):
    doc = copy.deepcopy(besicovitch_doc)
    levels = doc["results"]["certificates"][-1]["levels"]
    # a child of a marked string that leaves dyadic(5/8), so the marks stay prefix-closed
    length, outside = next(
        (length, child)
        for length in range(1, len(levels))
        for parent in levels[length - 1]
        for child in (parent + "0", parent + "1")
        if not DYADIC.member(child)
    )
    levels[length].append(outside)
    problems = checks.check_besicovitch(doc, DYADIC, TWO_THIRDS, HALF, 3)
    assert rejected(problems, "outside")


def test_besicovitch_rejects_a_changed_upper_value(besicovitch_doc):
    doc = copy.deepcopy(besicovitch_doc)
    value = doc["results"]["certificates"][0]["upper"]["witness"]["value"]
    value["coeffs"][0] = str(Fraction(value["coeffs"][0]) - Fraction(1, 1 << 30))
    assert rejected(checks.check_besicovitch(doc, DYADIC, TWO_THIRDS, HALF, 3), "upper block")


def test_besicovitch_rejects_a_lower_value_below_c(besicovitch_doc):
    doc = copy.deepcopy(besicovitch_doc)
    cert = doc["results"]["certificates"][0]
    block = cert["lower"]["checks"][0]["block"]
    cert["levels"][block] = cert["levels"][block][:1]
    assert rejected(checks.check_besicovitch(doc, DYADIC, TWO_THIRDS, HALF, 3), "below c")


def test_cover_verify_report_passes_and_rejects_a_false_verdict(tmp_path, besicovitch_doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(besicovitch_doc))
    doc = report("cover-verify", "--certificate", str(path))
    assert checks.check_cover_verify(doc, 3) == []
    doc["results"]["verdicts"][1]["ok"] = False
    assert checks.check_cover_verify(doc, 3)


def test_extract_and_thin_reports_pass_and_reject_tampering():
    full = checks.full_tree()
    doc = report("extract", "--tree", "full", "--s", "1/2", "--n", "1", "--c", "1", "--eps", "1/4")
    assert checks.check_extract(doc, full, HALF, 1, ONE, Fraction(1, 4)) == []
    doc["results"]["interpolation"]["code"]["levels"][-1].pop()
    assert checks.check_extract(doc, full, HALF, 1, ONE, Fraction(1, 4))
    doc = report("thin", "--tree", "full", "--s", "1/2", "--n", "1", "--c", "1", "--theta", "1/64")
    assert checks.check_thin(doc, HALF, 1, ONE, Fraction(1, 64)) == []
    doc["results"]["certificate"]["floor"]["value"] = {"q": 1, "coeffs": ["1/2"], "decimal": "0.5"}
    assert rejected(checks.check_thin(doc, HALF, 1, ONE, Fraction(1, 64)), "floor")


# -- paths ------------------------------------------------------------------------------


def test_lebesgue_path_passes_and_rejects_a_flipped_bit():
    doc = report("lebesgue-path", "--tree", "dyadic(5/8)", "--c", "5/8", "--depth", "64")
    assert checks.check_lebesgue(doc, DYADIC, 64) == []
    doc["results"]["path"] = leaving_flip(doc["results"]["path"], DYADIC)
    assert rejected(checks.check_lebesgue(doc, DYADIC, 64), "outside")


@pytest.fixture(scope="module")
def baire_case(tmp_path_factory):
    rng = random.Random(11)
    members = workloads.seeded_pruned_tree(rng)
    opens = [workloads.seeded_bar(rng, set(members)) for _ in range(4)]
    tmp = tmp_path_factory.mktemp("baire")
    spec, opens_file = tmp / "tree.json", tmp / "opens.json"
    spec.write_text(json.dumps({"kind": "explicit", "depth": workloads.BAIRE_DEPTH, "members": members}))
    opens_file.write_text(json.dumps(opens))
    doc = report("baire", "--tree", str(spec), "--opens", str(opens_file), "--depth", str(workloads.BAIRE_DEPTH))
    return doc, checks.explicit_tree(members, workloads.BAIRE_DEPTH), opens


def test_baire_report_passes(baire_case):
    doc, tree, opens = baire_case
    assert checks.check_baire(doc, tree, opens, workloads.BAIRE_DEPTH) == []


def test_baire_rejects_a_stage_prefix_not_in_its_open(baire_case):
    doc, tree, opens = copy.deepcopy(baire_case)
    stage = doc["results"]["stages"][0]
    # the path itself is a prefix of the path, but no listed prefix of the open
    stage["prefix"] = doc["results"]["path"]
    assert stage["prefix"] not in opens[0]
    assert rejected(checks.check_baire(doc, tree, opens, workloads.BAIRE_DEPTH), "not a listed prefix")


def test_baire_rejects_a_flipped_path_bit(baire_case):
    doc, tree, opens = copy.deepcopy(baire_case)
    doc["results"]["path"] = leaving_flip(doc["results"]["path"], tree)
    assert rejected(checks.check_baire(doc, tree, opens, workloads.BAIRE_DEPTH), "outside")


@pytest.mark.parametrize("kind", workloads.GADGET_HORIZONS)
def test_gadget_rows_pass_and_reject_a_wrong_row(kind):
    table = random.Random(3).sample(range(32), 16)
    doc = report("gadget", "--kind", kind, "--table", ",".join(map(str, table)))
    assert checks.check_gadget(doc, kind, table) == []
    row = doc["results"]["rows"][0]
    row["gadget"] = not row["gadget"]
    assert checks.check_gadget(doc, kind, table)


# -- inputs -----------------------------------------------------------------------------


def test_seeded_automaton_closure_matches_enumeration():
    spec, block = workloads.seeded_automaton(random.Random(5))
    levels = checks.own_levels(workloads._own_automaton(spec), block)
    closure, level = 0, set(levels[block])
    while level:
        closure += len(level)
        level = {sigma[:-1] for sigma in level if sigma}
    assert closure == workloads.closure_sizes(spec, block)[block]
    assert workloads.AUTO_CLOSURE[0] <= closure <= workloads.AUTO_CLOSURE[1]


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        a.mkdir()
        b.mkdir()
        assert [c.argv for c in workloads.build(name, 7, str(a))] == [
            c.argv for c in workloads.build(name, 7, str(b))
        ]
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for file in os.listdir(a):
            assert (a / file).read_bytes() == (b / file).read_bytes()


def test_benchmark_json_lists_what_run_py_prints():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    summary = {"setup_s": 0.1, "times": {"a": [1.0, 2.0]}, "in_refs": {"a": [150.0, 300.0]}, "peak_rss_mb": 30.0}
    printed = {name: unit for name, (_, unit) in run.end_to_end(summary).items()}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == printed
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(tracing.PER_LAYER)
