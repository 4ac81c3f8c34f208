"""Checks of cgmt's reports, computed apart from the package.

Nothing here imports cgmt.  Trees are re-implemented from their definitions
(`OwnTree`), level sets are built by this module's own breadth-first search,
and premeasure values are recomputed with mpmath by a bottom-up min-cover
recursion at 60 significant digits.  Each check takes a parsed report and
returns a list of problems; an empty list means the report passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from typing import Callable, Iterable, Optional

import mpmath

DIGITS = 60
# an exact ring value and its 60-digit evaluation may differ only by rounding
TOL = mpmath.mpf(10) ** -45
# the reports carry decimals truncated to 30 digits
DECIMAL_TOL = mpmath.mpf(10) ** -29


# -- trees, re-implemented from their definitions -------------------------------------


@dataclass(frozen=True)
class OwnTree:
    """A tree of binary strings given by a membership predicate."""

    name: str
    member: Callable[[str], bool]


def full_tree() -> OwnTree:
    return OwnTree("full", lambda sigma: True)


def dyadic_tree(p: int, k: int) -> OwnTree:
    """The first p length-k strings in lexicographic order, everything above them."""

    def member(sigma: str) -> bool:
        head = sigma[:k]
        # the least length-k extension of head is head followed by zeros
        return int(head.ljust(k, "0") or "0", 2) < p

    return OwnTree(f"dyadic({p}/{1 << k})", member)


def automaton_tree(transitions, accepting, start: int = 0) -> OwnTree:
    """Strings whose run stays in accepting states (the specs here close prefixes)."""
    accepting = frozenset(accepting)

    def member(sigma: str) -> bool:
        state = start
        if state not in accepting:
            return False
        for bit in sigma:
            state = transitions[state][int(bit)]
            if state not in accepting:
                return False
        return True

    return OwnTree("automatic", member)


def explicit_tree(members: Iterable[str], depth: int) -> OwnTree:
    listed = frozenset(members)
    return OwnTree("explicit", lambda sigma: len(sigma) <= depth and sigma in listed)


def own_levels(tree: OwnTree, depth: int) -> list[list[str]]:
    """Members of each length 0..depth, by breadth-first search from the root."""
    levels = [[""] if tree.member("") else []]
    for _ in range(depth):
        levels.append([c for t in levels[-1] for c in (t + "0", t + "1") if tree.member(c)])
    return levels


def extend_top(top: Iterable[str], to_length: int, tree: OwnTree) -> list[str]:
    """Members of length to_length extending the given strings."""
    level = list(top)
    while level and len(level[0]) < to_length:
        level = [c for t in level for c in (t + "0", t + "1") if tree.member(c)]
    return level


# -- exact values, evaluated -----------------------------------------------------------


def mp_of(x) -> mpmath.mpf:
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def string_weight(s: Fraction, length: int) -> mpmath.mpf:
    """2^(-s*length)."""
    return mpmath.power(2, -mp_of(s) * length)


def ring_value(obj: dict) -> mpmath.mpf:
    """sum_j coeffs[j] * 2^(-j/q), the value of a serialized ring element."""
    q = int(obj["q"])
    if q < 1 or len(obj["coeffs"]) != q:
        raise ValueError(f"malformed ring element {obj!r}")
    u = mpmath.power(2, mpmath.mpf(-1) / q)
    return mpmath.fsum(mp_of(c) * u**j for j, c in enumerate(obj["coeffs"]))


def min_cover(top: Iterable[str], m: int, n: int, s: Fraction) -> mpmath.mpf:
    """Least s-weight of a cover of the length-m strings by strings of length n..m.

    Bottom-up: a string's best cover is itself (when at least n long) or the
    best covers of its children summed; below length n it must split.
    """
    top = list(top)
    if m < n:
        return mpmath.power(2, (1 - mp_of(s)) * n)
    if not top:
        return mpmath.mpf(0)
    weights = [string_weight(s, length) for length in range(m + 1)]
    best = dict.fromkeys(top, weights[m])
    for length in range(m - 1, -1, -1):
        sums: dict[str, mpmath.mpf] = {}
        for sigma, value in best.items():
            parent = sigma[:-1]
            sums[parent] = sums[parent] + value if parent in sums else value
        if length >= n:
            here = weights[length]
            best = {sigma: min(here, total) for sigma, total in sums.items()}
        else:
            best = sums
    return best[""]


def close(a, b) -> bool:
    return abs(a - b) <= TOL * max(1, abs(b))


def _value_problems(where: str, obj: dict, expected: mpmath.mpf) -> list[str]:
    """Ring value and decimal annotation both agree with an own computation."""
    problems = []
    try:
        got = ring_value(obj)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"{where}: unreadable value ({exc})"]
    if not close(got, expected):
        problems.append(f"{where}: value {mpmath.nstr(got, 20)} != own {mpmath.nstr(expected, 20)}")
    try:
        decimal = mpmath.mpf(obj["decimal"])
    except (KeyError, TypeError, ValueError):
        return problems + [f"{where}: unreadable decimal"]
    if abs(decimal - expected) > DECIMAL_TOL:
        problems.append(f"{where}: decimal {obj['decimal']} != own {mpmath.nstr(expected, 35)}")
    return problems


def _binary(sigma) -> bool:
    return isinstance(sigma, str) and set(sigma) <= {"0", "1"}


def _marks_problems(where: str, levels, tree: OwnTree) -> list[str]:
    """Marks are binary, filed at their own length, prefix-closed and in the tree."""
    problems = []
    seen: list[set[str]] = []
    for length, level in enumerate(levels):
        current = set()
        for sigma in level:
            if not _binary(sigma) or len(sigma) != length:
                problems.append(f"{where}: mark {sigma!r} filed at length {length}")
                continue
            if length and sigma[:-1] not in seen[length - 1]:
                problems.append(f"{where}: mark {sigma!r} has no marked parent")
            if not tree.member(sigma):
                problems.append(f"{where}: mark {sigma!r} is outside {tree.name}")
            current.add(sigma)
        seen.append(current)
    return problems


# -- per-command checks ----------------------------------------------------------------


def _at_precision(check):
    @wraps(check)
    def run(*args, **kwargs):
        with mpmath.workdps(DIGITS):
            return check(*args, **kwargs)

    return run


@_at_precision
def check_measure(doc: dict, tree: OwnTree, s: Fraction, n: int, blocks: list[int]) -> list[str]:
    """Premeasure sequence: own recursion, closed forms, witnesses, monotonicity."""
    sequence = doc["results"]["sequence"]
    if [row["block"] for row in sequence] != blocks:
        return [f"blocks {[row['block'] for row in sequence]} != requested {blocks}"]
    levels = own_levels(tree, max(blocks))
    problems = []
    previous: Optional[mpmath.mpf] = None
    for row in sequence:
        b = row["block"]
        where = f"{tree.name} s={s} n={n} block {b}"
        top = levels[b]
        own = min_cover(top, b, n, s)
        problems += _value_problems(where, row["value"], own)
        if tree.name == "full":
            closed = mpmath.mpf(1) if s == 1 else mpmath.power(2, (1 - mp_of(s)) * n)
            if not close(own, closed):
                problems.append(f"{where}: own value is not the full-tree closed form")
        if s == 1:
            exact = Fraction(len(top), 1 << b)
            value = row["value"]
            if value["q"] != 1 or Fraction(value["coeffs"][0]) != exact:
                problems.append(f"{where}: s = 1 value is not N_m/2^m = {exact}")
        witness = row.get("witness")
        if witness is None:
            problems.append(f"{where}: no witness")
        else:
            problems += _cover_problems(where, witness, top, n, b, s, own)
        value = ring_value(row["value"])
        if previous is not None and value > previous + TOL:
            problems.append(f"{where}: value rose with the block")
        previous = value
    return problems


def _cover_problems(where, witness, top, n, m, s, value) -> list[str]:
    cover = set(witness)
    problems = [f"{where}: witness string {w!r} outside lengths [{n}, {m}]"
                for w in sorted(cover) if not _binary(w) or not n <= len(w) <= m]
    for sigma in top:
        if not any(sigma[:length] in cover for length in range(n, m + 1)):
            problems.append(f"{where}: witness misses {sigma!r}")
            break
    weight = mpmath.fsum(string_weight(s, len(w)) for w in cover)
    if not close(weight, value):
        problems.append(f"{where}: witness weighs {mpmath.nstr(weight, 20)}, not the value")
    return problems


@_at_precision
def check_besicovitch(doc: dict, tree: OwnTree, s: Fraction, c: Fraction, stages: int) -> list[str]:
    """Staged certificates: marks, lower and upper verdicts, own recomputation."""
    results = doc["results"]
    certs = results["certificates"]
    problems = []
    if len(certs) != stages or results["verified"] != [True] * stages:
        problems.append(f"{tree.name}: verified {results['verified']} for {len(certs)} certificates")
    c_mp = mp_of(c)
    for k, cert in enumerate(certs, start=1):
        where = f"{tree.name} stage {cert.get('stage')}"
        if cert["stage"] != k or Fraction(cert["dimension"]) != s:
            problems.append(f"{where}: expected stage {k} at dimension {s}")
        levels = cert["levels"]
        problems += _marks_problems(where, levels, tree)
        lower, upper = cert["lower"], cert["upper"]
        problems += _value_problems(f"{where} lower target", lower["target"], c_mp)
        for row in lower["checks"]:
            block = row["block"]
            own = min_cover(levels[block], block, lower["granularity"], s)
            problems += _value_problems(f"{where} lower block {block}", row["value"], own)
            if own < c_mp - TOL:
                problems.append(f"{where}: lower value below c")
        target = c_mp + mpmath.power(2, -k)
        problems += _value_problems(f"{where} upper target", upper["target"], target)
        block = upper["witness"]["block"]
        own = min_cover(levels[block], block, upper["granularity"], s)
        problems += _value_problems(f"{where} upper block {block}", upper["witness"]["value"], own)
        if not own < target:
            problems.append(f"{where}: upper value not below c + 2^-{k}")
    return problems


def check_cover_verify(doc: dict, stages: int) -> list[str]:
    results = doc["results"]
    verdicts = results["verdicts"]
    if (
        results["certificates"] != stages
        or [v["stage"] for v in verdicts] != list(range(1, stages + 1))
        or not all(v["ok"] is True for v in verdicts)
        or results["all_ok"] is not True
    ):
        return [f"cover-verify: {results}"]
    return []


@_at_precision
def check_extract(doc: dict, tree: OwnTree, s: Fraction, n: int, c: Fraction, eps: Fraction) -> list[str]:
    """Window values lie in [c, c+eps) and match the own recursion on the code.

    tree is the ambient the code was cut from; for extract-pruned its
    extendible part, which for the dyadic trees is the tree itself.
    """
    interp = doc["results"]["interpolation"]
    levels = interp["code"]["levels"]
    problems = _marks_problems("extract code", levels, tree)
    top = levels[interp["code"]["live_depth"]]
    lo, hi = mp_of(c), mp_of(c + eps)
    for row in interp["values"]:
        block = row["block"]
        own = min_cover(extend_top(top, block, tree), block, n, s)
        problems += _value_problems(f"extract block {block}", row["value"], own)
        if not lo - TOL <= own < hi:
            problems.append(f"extract block {block}: value outside [c, c+eps)")
    return problems


@_at_precision
def check_thin(doc: dict, s: Fraction, n: int, c: Fraction, theta: Fraction) -> list[str]:
    """Every branch ends within theta of 2^(-s*n); the floor stays at c."""
    cert = doc["results"]["certificate"]
    baseline = string_weight(s, n)
    problems = _value_problems("thin baseline", cert["baseline"], baseline)
    for branch in cert["branches"]:
        value = ring_value(branch["value"])
        if value > baseline + mp_of(theta) + TOL:
            problems.append(f"thin branch {branch['branch']}: above baseline + theta")
    floor = cert["floor"]
    if ring_value(floor["value"]) < mp_of(c) - TOL:
        problems.append("thin: floor value below c")
    return problems


def _path_problems(where: str, path, tree: OwnTree, depth: int) -> list[str]:
    if not _binary(path) or len(path) != depth:
        return [f"{where}: path of length {len(path) if isinstance(path, str) else '?'}, want {depth}"]
    for length in range(depth + 1):
        if not tree.member(path[:length]):
            return [f"{where}: prefix of length {length} is outside {tree.name}"]
    return []


def check_lebesgue(doc: dict, tree: OwnTree, depth: int) -> list[str]:
    return _path_problems(f"lebesgue-path {tree.name}", doc["results"]["path"], tree, depth)


def check_baire(doc: dict, tree: OwnTree, opens: list[list[str]], depth: int) -> list[str]:
    """The path lies in the tree, and each stage names a prefix of it from its open."""
    results = doc["results"]
    path = results["path"]
    problems = _path_problems("baire", path, tree, depth)
    stages = results["stages"]
    if [row["stage"] for row in stages] != list(range(len(opens))):
        return problems + [f"baire: {len(stages)} stages for {len(opens)} opens"]
    for row, prefixes in zip(stages, opens):
        prefix = row["prefix"]
        if prefix not in prefixes or not path.startswith(prefix):
            problems.append(f"baire stage {row['stage']}: {prefix!r} not a listed prefix of the path")
    return problems


def check_gadget(doc: dict, kind: str, table: list[int]) -> list[str]:
    """Decoded rows equal the table's range below its horizon."""
    results = doc["results"]
    rows = results["rows"]
    if kind == "first-one-inf":
        # this kind decodes no range: each probed depth d must show the floor 2^-(d-1)
        want = [(d, True, True) for d in range(1, max(len(rows), 1) + 1)]
    else:
        in_range = set(table)
        want = [(k, k in in_range, k in in_range) for k in range(len(table))]
    got = [(row["n"], row["gadget"], row["direct"]) for row in rows]
    if got != want or results["ok"] is not True or results["mismatches"]:
        return [f"gadget {kind}: rows do not decode the table's range"]
    return []
