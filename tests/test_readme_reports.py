"""The README's commands keep their exact report bytes and exit codes.

Each command in the README's command-line block runs in-process through
cgmt.cli.main, in order, inside a temporary directory: `besicovitch` writes
run.json for `cover-verify`, and `baire` reads the README's opens.json.
Reports echo their path arguments, so both files are named relatively.
The digests were recorded before the min-cover DP began sharing equal
subtrees; a change that alters any report byte fails here.

PINNED holds commands outside the README that run the paths a code's
report, a pruned ambient and an explicit spec take: an `extract` at c = 0
(on the full tree, and on a tree that dies, which returns the unrefined
code), `extract-pruned` and `thin` on a dyadic tree, `besicovitch` at
c = 0, `measure` and `baire` on an explicit spec file, and `measure` on
the no-11 automaton.  Their digests were recorded before codes stopped
keeping a restriction flag and explicit specs went through the
BlockMarking constructor.
"""

import hashlib
import json
import re
import shlex
from pathlib import Path

from cgmt.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

OPENS = [["0"], ["00", "01"], ["000", "0110"]]

# command line as written in the README -> (exit code, sha256 of stdout)
GOLDEN = {
    "cgmt measure --tree full --s 1/2 --n 1 --depth 8": (
        0, "5323756a4df42be36a4e112f251b2c9c8c17bacbcd8eee97643292997f76ea43"),
    "cgmt measure --tree 'dyadic(3/4)' --s 1 --n 1 --depth 6 --format csv": (
        0, "44ee94ebeab7351b4afc7912684df76621acd4ac8c3f765fa61c6cc5af330b2a"),
    "cgmt extract --tree full --s 1/2 --n 1 --c 1 --eps 1/4": (
        0, "2fa69fa6c0afbaa94e387efe359fbdc2aa9c71a7fd340271b6fd2e87a70057c4"),
    "cgmt thin --tree full --s 1/2 --n 1 --c 1 --theta 1/64": (
        0, "3ba8b37dbf23cdcab3c48c9b84fe59028202bce134b0a9780135a8a839fe6a80"),
    "cgmt besicovitch --tree full --s 1/2 --c 1 --stages 6 > run.json": (
        0, "62802033a8c4f60ff4e7eb4c63c2d4bc4f849233dae771434ca5ab8c80397450"),
    "cgmt cover-verify --certificate run.json": (
        0, "490ab6f87764a345e4006e00da680e403370f7e81a240e24100ba093c7b9f1f6"),
    "cgmt lebesgue-path --tree branch-left --c 1/2 --depth 64": (
        0, "425d564c1843c529ece441cb54796a94db9a467637e5c548adcd16430668f07d"),
    "cgmt baire --tree branch-left --opens opens.json --depth 16": (
        0, "866489eb76c3e96dccc1e669668e6b90a74ea70c9696c1f87874ba237f279f3f"),
    "cgmt gadget --kind column-tree --table 1,2,5,8": (
        0, "7df220ba811b6083fa23246b74adb047b09b0dfd622b11dd2463b73fd471120e"),
    "cgmt verify-suite --trials 200 --seed 7": (
        0, "65bbdc012939b999ab87d834fbe05dab6bf0788e7664793dee89ef1faa9e1308"),
}


# an explicit spec whose branch at "1" dies at length 2 and at "0100" at length 4
EXPLICIT = {"kind": "explicit", "depth": 5, "members": sorted(
    {s[:k] for s in ["00000", "00101", "01110", "01111", "0100", "10", "011"]
     for k in range(len(s) + 1)}
)}
NO_11 = {"kind": "automatic", "transitions": [[0, 1], [0, 2], [2, 2]], "accepting": [0, 1]}
PINNED_OPENS = [["0"], ["000", "001", "01"]]

PINNED = {
    "extract --tree full --s 1/2 --n 1 --c 0 --eps 1/4": (
        0, "5fd62c0233a168dba8c9e26e09ceff27bc55a461c4b5b3b101452ab913142bef"),
    "extract --tree explicit.json --s 1/2 --n 1 --c 0 --eps 1/4": (
        0, "8fd0b021753346978be42e79ceeab1228833e35fd9e7ca3cd1d7d754b81d8724"),
    "extract-pruned --tree dyadic(5/8) --s 1/2 --n 1 --c 1/2 --eps 1/8": (
        0, "31595a3046962506dd6d5960ae51b7765e7ad0109194f569d05d7e7ab820aa31"),
    "thin --tree dyadic(5/8) --s 1/2 --n 1 --c 1/2 --theta 1/64": (
        0, "a06b88c41c66c06265d580737b7ff842e0444cb9e72849dc413ffae4c7cc1141"),
    "besicovitch --tree full --s 1/2 --c 0 --stages 3": (
        0, "2ffb2fa73ec5b5d7e5af2cec9e9d846e40c4094564b5d578989c0166d2a6b5cc"),
    "measure --tree explicit.json --s 1/2 --n 1 --depth 5": (
        0, "1be7fe1386df2ffb8b5ac55d32fd2ed6c85f63e2d224ce6d4bdf7fe76a36502f"),
    "baire --tree explicit.json --opens opens.json --depth 5": (
        0, "5b4896dc663d1844ecb852b6d7b4a47f70591eb08374fdfd91eab8dfa8cd4bd6"),
    "measure --tree no11.json --s 1/2 --n 1 --depth 12": (
        0, "ee07db799b4fff5e8bd3436ba7a6301277e4bb7619c18f1d5561e996cb9f9a6a"),
}


def readme_commands() -> list[str]:
    """The lines of the README's fenced sh block under "Command line"."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.strip()]


def test_golden_list_is_the_readme_block():
    assert readme_commands() == list(GOLDEN)


def test_readme_reports_are_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "opens.json").write_text(json.dumps(OPENS), encoding="utf-8")
    got = {}
    for line, (want_code, _) in GOLDEN.items():
        argv = shlex.split(line)[1:]
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
        code = main(argv)
        out = capsys.readouterr().out
        if target is not None:
            (tmp_path / target).write_text(out, encoding="utf-8")
        got[line] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == GOLDEN


def test_pinned_reports_are_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "explicit.json").write_text(json.dumps(EXPLICIT), encoding="utf-8")
    (tmp_path / "no11.json").write_text(json.dumps(NO_11), encoding="utf-8")
    (tmp_path / "opens.json").write_text(json.dumps(PINNED_OPENS), encoding="utf-8")
    got = {}
    for line in PINNED:
        code = main(line.split())
        got[line] = (code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert got == PINNED
