"""Command-line front end: parse specs, dispatch, emit deterministic reports.

Commands cover the exact-measure engine (measure, cover-verify), subset
extraction (extract, extract-pruned, thin, besicovitch), path operations
(lebesgue-path, baire), the injection-range encodings (gadget), and the
seeded DP-vs-enumeration harness (verify-suite).

Exit codes, one per error family:

  0  success
  1  command ran to completion with a negative verdict
  2  usage error (argparse), including an argument out of its range
  3  spec or input parse failure
  4  measure precondition failure
  5  no stable index inside the window
  6  dense-open search exhausted
  7  promised mass refuted
  8  explicit work budget exhausted
  9  validation failure (code discipline, covers, extendibility)
 10  other library error
 11  internal error: an exception that is not a library error (a bug)
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from typing import Optional

from .core import BudgetExceeded, CgmtError, read_input, shown
from .weights import MAX_ROOT_ORDER, AlgebraicWeight, as_weight, cap_violation
from .trees import BlockMarking, CodeViolation, NotExtendible
from .measure import (
    BRUTEFORCE_MAX_BLOCK,
    CASE2_WITNESS_CAP,
    DepthTooLarge,
    LengthViolation,
    NotACover,
    PreconditionMeasure,
    count_covers,
    htilde,
    htilde_bruteforce,
    measure_sequence,
)
from .construct import (
    DEFAULT_SEARCH_BUDGET,
    MAX_STAGES,
    DensityViolated,
    NoStableIndex,
    PromiseViolated,
    approx_subset,
    baire_intersect,
    besicovitch_extract,
    lebesgue_path,
    thinify,
)
from .gadgets import (
    GADGET_KINDS,
    MAX_GADGET_DEPTH,
    InjectionTable,
    build_gadget,
    check_gadget,
    required_depth,
)
from .treespec import ParseError, parse_spec
from .report import (
    certificate_from_obj,
    certificate_obj,
    interpolation_obj,
    measure_value_obj,
    render_csv,
    render_json,
    report_document,
    thinning_obj,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4
EXIT_NO_STABLE = 5
EXIT_DENSITY = 6
EXIT_PROMISE = 7
EXIT_BUDGET = 8
EXIT_VALIDATION = 9
EXIT_LIBRARY = 10
EXIT_INTERNAL = 11

_ERROR_FAMILIES = (
    (ParseError, EXIT_PARSE),
    (PreconditionMeasure, EXIT_PRECONDITION),
    (NoStableIndex, EXIT_NO_STABLE),
    (DensityViolated, EXIT_DENSITY),
    (PromiseViolated, EXIT_PROMISE),
    (BudgetExceeded, EXIT_BUDGET),
    (DepthTooLarge, EXIT_VALIDATION),
    (NotACover, EXIT_VALIDATION),
    (LengthViolation, EXIT_VALIDATION),
    (CodeViolation, EXIT_VALIDATION),
    (NotExtendible, EXIT_VALIDATION),
    (CgmtError, EXIT_LIBRARY),
)


def parse_constant(text: str):
    """Exact constant: a rational literal or a JSON weight object."""
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            return AlgebraicWeight.from_json_obj(json.loads(stripped))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad weight object {shown(text)}: {exc}") from exc
        except RecursionError:
            raise ParseError("bad weight object: nested too deeply") from None
    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational constant {shown(text)}") from exc


def parse_dimension(text: str) -> Fraction:
    try:
        s = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad dimension {shown(text)}") from exc
    if s <= 0:
        raise ParseError(f"dimension must be positive, got {shown(s)}")
    return s


# -- argument ranges, checked while parsing (a failure exits 2) ---------------------


def int_in(lo: int, hi: Optional[int] = None):
    """An argparse type: an integer in lo..hi (no upper end when hi is None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {shown(text)}") from None
        if value < lo or (hi is not None and value > hi):
            span = f"in {lo}..{hi}" if hi is not None else f"at least {lo}"
            raise argparse.ArgumentTypeError(f"must be {span}, got {shown(value)}")
        return value

    return parse


def constant_in(test, span: str):
    """An argparse type: a constant (see parse_constant) for which test holds.

    The text itself is kept, for the report.  Malformed text passes through
    unchanged, so that the command's own parse rejects it (exit 3).
    """

    def check(text: str) -> str:
        try:
            value = as_weight(parse_constant(text))
        except ParseError:
            return text
        # past the ring's cap, main rejects it; test's sign would build the float filter for q
        if value.q <= MAX_ROOT_ORDER and not test(value):
            raise argparse.ArgumentTypeError(f"must be {span}, got {text}")
        return text

    return check


_NONNEGATIVE = constant_in(lambda w: w.sign() >= 0, "at least 0")

# below a shallower block, htilde at granularity n builds 2^((1-s)n); so --n, --n0
# and thin's --nu take the cap that certificates and besicovitch --stages have.
# So do the depths of measure (each --blocks value too), which lists a block per
# level before any budget is checked, and of lebesgue-path, which keeps a count
# per level.  baire's depth takes it too: the leftmost path to it costs time
# quadratic in the depth
_STAGE_CAPPED = int_in(0, MAX_STAGES)


def block_list(text: str) -> list[int]:
    """An argparse type: comma-separated, strictly increasing integers in 0..MAX_STAGES."""
    blocks = [_STAGE_CAPPED(v) for v in text.split(",") if v.strip() != ""]
    if blocks != sorted(set(blocks)):
        raise argparse.ArgumentTypeError("blocks must be strictly increasing")
    return blocks


def table_values(text: str) -> tuple[int, ...]:
    """An argparse type: comma-separated, pairwise distinct nonnegative integers."""
    values = tuple(int_in(0)(v) for v in text.split(",") if v.strip() != "")
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError("table values must be pairwise distinct")
    return values


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error[2]` line, like every other failure."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error[{EXIT_USAGE}] ArgumentError: {self.prog}: {message}\n")


# -- verification harness ---------------------------------------------------------


# covers the literal enumeration may visit for one random marking
COVER_BUDGET = 250_000


def random_marking(rng: random.Random, block_max: int, n: int, cover_budget: int) -> BlockMarking:
    """Seeded prefix-closed marking whose enumeration cost fits the budget."""
    while True:
        block = rng.randint(0, block_max)
        levels: list[frozenset[str]] = [frozenset({""})]
        for length in range(1, block + 1):
            kept = set()
            # sorted, so that the seed alone (not the hash order) fixes the draws
            for parent in sorted(levels[-1]):
                for bit in "01":
                    if rng.random() < 0.72:
                        kept.add(parent + bit)
            if not kept and levels[-1]:
                parent = rng.choice(sorted(levels[-1]))
                kept.add(parent + rng.choice("01"))
            levels.append(frozenset(kept))
        marking = BlockMarking(block, tuple(levels))
        if count_covers(marking, n) <= cover_budget:
            return marking


def run_verify_suite(
    trials: int,
    seed: int,
    block_max: int = 6,
    n_max: int = 2,
) -> dict:
    """DP-vs-literal-enumeration comparison on seeded random markings."""
    rng = random.Random(seed)
    dimensions = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2))
    mismatches = []
    for trial in range(trials):
        s = dimensions[rng.randrange(len(dimensions))]
        n = rng.randint(0, n_max)
        marking = random_marking(rng, block_max, n, COVER_BUDGET)
        fast = htilde(marking, s, n, want_witness=False).value
        slow = htilde_bruteforce(marking, s, n).value
        if not (fast - slow).is_zero():
            mismatches.append(
                {
                    "trial": trial,
                    "s": str(s),
                    "n": n,
                    "block": marking.block,
                    "dp": fast.to_json_obj(),
                    "enumeration": slow.to_json_obj(),
                }
            )
    return {
        "trials": trials,
        "block_max": block_max,
        "n_max": n_max,
        "mismatches": mismatches,
        "ok": not mismatches,
    }


# -- command handlers -------------------------------------------------------------


def _cmd_measure(args) -> tuple[dict, dict, int]:
    src = parse_spec(args.tree)
    blocks = args.blocks or list(range(args.n, args.depth + 1))
    values = measure_sequence(src, parse_dimension(args.s), args.n, blocks, budget=args.budget)
    results = {"sequence": [measure_value_obj(v) for v in values]}
    inputs = {"tree": args.tree, "s": args.s, "n": args.n, "blocks": blocks}
    return inputs, results, EXIT_OK


def _cmd_cover_verify(args) -> tuple[dict, dict, int]:
    doc = read_input(args.certificate, "certificate file", json.loads)
    if isinstance(doc, dict) and "results" in doc:
        results = doc["results"]
        doc = results.get("certificates", []) if isinstance(results, dict) else None
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise ParseError("certificate file must hold an object or a list")
    verdicts = []
    for obj in doc:
        cert = certificate_from_obj(obj)
        verdicts.append({"stage": cert.stage, "ok": cert.verify()})
    all_ok = all(v["ok"] for v in verdicts)
    results = {"certificates": len(verdicts), "verdicts": verdicts, "all_ok": all_ok}
    return (
        {"certificate": args.certificate},
        results,
        EXIT_OK if all_ok else EXIT_VERDICT,
    )


def _cmd_extract(args, pruned: bool) -> tuple[dict, dict, int]:
    src = parse_spec(args.tree)
    res = approx_subset(
        src.pruned() if pruned else src,
        parse_dimension(args.s),
        args.n,
        parse_constant(args.c),
        parse_constant(args.eps),
        window=args.window,
        budget=args.budget,
    )
    inputs = {
        "tree": args.tree,
        "s": args.s,
        "n": args.n,
        "c": args.c,
        "eps": args.eps,
        "window": args.window,
    }
    return inputs, {"interpolation": interpolation_obj(res)}, EXIT_OK


def _cmd_thin(args) -> tuple[dict, dict, int]:
    src = parse_spec(args.tree)
    code, cert = thinify(
        src,
        parse_dimension(args.s),
        args.n,
        args.nu if args.nu is not None else args.n,
        parse_constant(args.c),
        parse_constant(args.theta),
        window=args.window,
        n0=args.n0,
        budget=args.budget,
    )
    inputs = {
        "tree": args.tree,
        "s": args.s,
        "n": args.n,
        "c": args.c,
        "theta": args.theta,
        "n0": args.n0,
    }
    results = {
        "certificate": thinning_obj(cert),
        "live_depth": code.live_depth,
        "replaced": list(cert.replaced()),
    }
    return inputs, results, EXIT_OK


def _cmd_besicovitch(args) -> tuple[dict, dict, int]:
    src = parse_spec(args.tree)
    code, certs = besicovitch_extract(
        src,
        parse_dimension(args.s),
        parse_constant(args.c),
        args.n0,
        args.stages,
        window=args.window,
        budget=args.budget,
    )
    verified = [cert.verify() for cert in certs]
    inputs = {
        "tree": args.tree,
        "s": args.s,
        "c": args.c,
        "n0": args.n0,
        "stages": args.stages,
    }
    results = {
        "certificates": [certificate_obj(c) for c in certs],
        "verified": verified,
        "live_depth": code.live_depth,
    }
    return inputs, results, EXIT_OK if all(verified) else EXIT_VERDICT


def _cmd_lebesgue(args) -> tuple[dict, dict, int]:
    src = parse_spec(args.tree)
    path = lebesgue_path(
        src,
        as_weight(parse_constant(args.c)).as_fraction(),
        args.depth,
        cap=args.cap,
    )
    inputs = {"tree": args.tree, "c": args.c, "depth": args.depth}
    return inputs, {"path": path}, EXIT_OK


def _load_opens(path: str) -> list[list[str]]:
    doc = read_input(path, "opens file", json.loads)
    if not isinstance(doc, list) or not all(
        isinstance(code, list) and all(isinstance(p, str) for p in code) for code in doc
    ):
        raise ParseError("opens file must hold a list of prefix lists")
    for k, code in enumerate(doc):
        for i, p in enumerate(code):
            if p.strip("01"):
                raise ParseError(f"opens file: prefix {i} of open {k} is not a binary string")
    return doc


def _cmd_baire(args) -> tuple[dict, dict, int]:
    src = parse_spec(args.tree)
    prefix_codes = _load_opens(args.opens)

    def as_open(prefixes: list[str]):
        return lambda sigma: any(sigma.startswith(p) for p in prefixes)

    z = baire_intersect(
        src,
        [as_open(code) for code in prefix_codes],
        args.start,
        args.depth,
        cap=args.cap,
    )
    stages = []
    for i, prefixes in enumerate(prefix_codes):
        hit = next((p for p in sorted(prefixes) if z.startswith(p)), None)
        if hit is None:
            raise CgmtError(f"stage {i} recheck failed on the emitted path")
        stages.append({"stage": i, "prefix": hit})
    inputs = {"tree": args.tree, "opens": args.opens, "depth": args.depth, "start": args.start}
    return inputs, {"path": z, "stages": stages}, EXIT_OK


def _cmd_gadget(args) -> tuple[dict, dict, int]:
    report = check_gadget(build_gadget(args.kind, InjectionTable(args.table), args.depth))
    inputs = {"kind": args.kind, "table": list(args.table), "depth": args.depth}
    results = {
        "horizon": report.horizon,
        "rows": [{"n": n, "gadget": g, "direct": d} for n, g, d in report.rows],
        "ok": report.ok,
        "mismatches": list(report.mismatches()),
        "stand_in": report.stand_in,
    }
    return inputs, results, EXIT_OK if report.ok else EXIT_VERDICT


def _cmd_verify_suite(args) -> tuple[dict, dict, int]:
    seed = args.seed if args.seed is not None else 0
    results = run_verify_suite(
        args.trials,
        seed,
        block_max=args.block_max,
        n_max=args.n_max,
    )
    inputs = {"trials": args.trials, "seed": seed, "block_max": args.block_max, "n_max": args.n_max}
    return inputs, results, EXIT_OK if results["ok"] else EXIT_VERDICT


# -- argument wiring --------------------------------------------------------------


def _add_tree(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tree", required=True, help="spec file path or builtin name")


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int_in(0), default=1_000_000,
                   help="strings held through the deepest block, root included")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every main call.

    Callers must not mutate it.  Sharing is safe because nothing in it
    depends on a call: its defaults are immutable, its types are pure
    functions, parse_args returns a fresh namespace and error raises
    without touching the parser.
    """
    parser = _Parser(
        prog="cgmt",
        description="Exact Hausdorff premeasures and effective subset extraction on tree codes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=None, help="echoed into the report")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def sub_parser(name: str, help: str) -> argparse.ArgumentParser:
        return subparsers.add_parser(name, help=help, parents=[common])

    p = sub_parser("measure", "premeasure value sequence over blocks")
    _add_tree(p)
    p.add_argument("--s", required=True, help="dimension: rational in (0, 16], denominator <= 256")
    p.add_argument("--n", type=_STAGE_CAPPED, required=True, help="granularity")
    p.add_argument("--depth", type=_STAGE_CAPPED, default=6, help="last block when --blocks is absent")
    p.add_argument("--blocks", type=block_list, default=None,
                   help="comma-separated, strictly increasing block list")
    _add_budget(p)
    p.set_defaults(handler=_cmd_measure)

    p = sub_parser("cover-verify", "recheck emitted certificates")
    p.add_argument("--certificate", required=True, help="certificate JSON path")
    p.set_defaults(handler=_cmd_cover_verify)

    for name, pruned in (("extract", False), ("extract-pruned", True)):
        p = sub_parser(name, "interpolated subset with pinned block values")
        _add_tree(p)
        p.add_argument("--s", required=True)
        p.add_argument("--n", type=_STAGE_CAPPED, required=True)
        p.add_argument("--c", type=_NONNEGATIVE, required=True,
                       help="target value (rational or weight object)")
        p.add_argument("--eps", type=constant_in(lambda w: w.sign() > 0, "positive"),
                       required=True, help="bracket width")
        p.add_argument("--window", type=int_in(0), default=2)
        _add_budget(p)
        p.set_defaults(handler=lambda a, _pruned=pruned: _cmd_extract(a, _pruned))

    p = sub_parser("thin", "force branches to baseline weight, keep the floor")
    _add_tree(p)
    p.add_argument("--s", required=True)
    p.add_argument("--n", type=_STAGE_CAPPED, required=True)
    p.add_argument("--nu", type=_STAGE_CAPPED, default=None,
                   help="committed prefix block (default n)")
    p.add_argument("--c", required=True)
    p.add_argument("--theta", type=_NONNEGATIVE, required=True, help="slack per branch")
    p.add_argument("--window", type=int_in(0), default=2)
    p.add_argument("--n0", type=_STAGE_CAPPED, default=0, help="granularity where c was certified")
    _add_budget(p)
    p.set_defaults(handler=_cmd_thin)

    p = sub_parser("besicovitch", "staged extraction with closing upper bounds")
    _add_tree(p)
    p.add_argument("--s", required=True)
    p.add_argument("--c", type=_NONNEGATIVE, required=True)
    p.add_argument("--n0", type=int_in(0), default=0)
    p.add_argument("--stages", type=int_in(1, MAX_STAGES), required=True)
    p.add_argument("--window", type=int_in(0), default=2)
    _add_budget(p)
    p.set_defaults(handler=_cmd_besicovitch)

    p = sub_parser("lebesgue-path", "path through a tree of promised unit-dimension mass")
    _add_tree(p)
    p.add_argument("--c", required=True, help="promised mass",
                   type=constant_in(lambda w: w.q == 1 and w.sign() > 0 and w <= as_weight(1),
                                    "a rational in (0, 1]"))
    p.add_argument("--depth", type=_STAGE_CAPPED, required=True)
    # each level tried keeps an exact count as wide as the level: the default cap
    # at the deepest --depth bounds them
    p.add_argument("--cap", type=int_in(0, MAX_STAGES + 8), default=None,
                   help="deepest level tried per bit (default depth + 8)")
    p.set_defaults(handler=_cmd_lebesgue)

    p = sub_parser("baire", "extendible string meeting every open code")
    _add_tree(p)
    p.add_argument("--opens", required=True, help="JSON file: list of prefix lists")
    p.add_argument("--depth", type=_STAGE_CAPPED, required=True)
    p.add_argument("--start", default="", help="binary string of at most --depth bits")
    # the candidate frontier can hold up to cap strings
    p.add_argument("--cap", type=int_in(0, DEFAULT_SEARCH_BUDGET), default=DEFAULT_SEARCH_BUDGET,
                   help="extendible candidates tested per open")
    p.set_defaults(handler=_cmd_baire)

    p = sub_parser("gadget", "build one injection-range encoding and decode it")
    p.add_argument("--kind", required=True, choices=GADGET_KINDS)
    p.add_argument("--table", type=table_values, required=True,
                   help="comma-separated, pairwise distinct nonnegative integers")
    p.add_argument("--depth", type=int_in(1, MAX_GADGET_DEPTH), default=None,
                   help="default: least decodable depth")
    p.set_defaults(handler=_cmd_gadget)

    p = sub_parser("verify-suite", "seeded DP-vs-enumeration comparison")
    p.add_argument("--trials", type=int_in(0), default=200)
    p.add_argument("--block-max", dest="block_max", type=int_in(0, BRUTEFORCE_MAX_BLOCK),
                   default=6)
    p.add_argument("--n-max", dest="n_max", type=int_in(0, CASE2_WITNESS_CAP), default=2)
    p.set_defaults(handler=_cmd_verify_suite)

    return parser


def _cap_violation(args) -> Optional[str]:
    """weights.cap_violation of --s and the constants; None if one is malformed (exit 3 later)."""
    names = [name for name in ("c", "eps", "theta") if getattr(args, name, None) is not None]
    try:
        s = parse_dimension(args.s) if "s" in args else None
        return cap_violation(s, [as_weight(parse_constant(getattr(args, k))) for k in names])
    except ParseError:
        return None


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "besicovitch" and args.stages <= args.n0:
        parser.error(f"--stages must exceed --n0, got {args.stages} <= {args.n0}")
    if args.command == "baire" and (args.start.strip("01") or len(args.start) > args.depth):
        parser.error(f"--start must be a binary string of at most --depth bits: {shown(args.start)}")
    if args.command == "gadget":
        # table_values already checked what InjectionTable checks
        need = required_depth(args.kind, InjectionTable(args.table))
        if need > MAX_GADGET_DEPTH:
            parser.error(f"--table needs depth {need} to decode, past {MAX_GADGET_DEPTH}")
        if args.depth is None:
            args.depth = need
        elif args.depth < need:
            parser.error(f"--depth must be at least {need} to decode --table, got {args.depth}")
    problem = _cap_violation(args)
    if problem is not None:
        parser.error(problem)
    try:
        inputs, results, code = args.handler(args)
        doc = report_document(args.command, inputs, results, args.seed)
        sys.stdout.write(render_csv(doc) if args.format == "csv" else render_json(doc))
        return code
    except CgmtError as exc:
        for family, code in _ERROR_FAMILIES:
            if isinstance(exc, family):
                break
        else:
            code = EXIT_LIBRARY
        sys.stderr.write(f"error[{code}] {type(exc).__name__}: {exc}\n")
        return code
    except OSError as exc:
        sys.stderr.write(f"error[{EXIT_PARSE}] {type(exc).__name__}: {exc}\n")
        return EXIT_PARSE
    except Exception as exc:
        # exit 1 is a verdict, so a crash must not reach the interpreter's exit 1
        sys.stderr.write(f"error[{EXIT_INTERNAL}] {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
