"""Effective refinement of tree codes under exact block-value verdicts.

The engine is interpolation: copy a committed code prefix, keep one
lexicographically least skeleton branch per committed node, then restore the
removed level-m branches one at a time in bit-reversed order.  Restoring a
branch can raise any block value by at most that branch's own weight, so the
values seen along the sweep are monotone in the sweep index.  One search per
window carries the largest index so far across its blocks, binary-searching
above it only a block still below target there; that index is re-verified
exactly on the window before anything is returned.  The top cap, which ends
the tops tried, is tested only after a top misses.  Neither the sweep's
markings nor its level-m tops are built.  In bit-reversed order the top at a
sweep index is the skeleton plus the strings below a threshold, so each
node below the level-n_prime roots needs only its state class, its own
threshold and whether it is on the skeleton: those keys get their shape ids
from one measure.ShapeTable, a sweep step climbs only the roots to the
root, and the binary search compares the root's ring vector with the
target exactly.  The classes come from the ambient's state quotient below
the roots, grown a level per top tried; only the top that lands is spelled
out as strings.  PiecewiseCode.value values the codes of thinning and the
staged pipeline on the same quotient.

Everything else is built from that engine.  Thinning forces every length-n
branch down to its baseline weight by re-interpolating the fat ones, the
staged extraction pipeline alternates thinning with certificate snapshots
whose verdicts are recomputable by `htilde`, and the path extractors (Baire
intersection, unit-dimension mass splitting) share the same budgeted,
deterministic search style.  All verdicts are exact weight comparisons;
floating point certifies nothing here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Optional, Sequence, Union

from .core import BudgetExceeded, CgmtError, check_bits, compatible
from .measure import MeasureBracket, PreconditionMeasure, ShapeTable, htilde, quotient_htilde
from .trees import (
    BlockMarking,
    NotExtendible,
    TreeSource,
    deepen_quotient,
    grow,
    leftmost_extension_path,
    quotient_of_source,
)
from .weights import AlgebraicWeight, as_weight, cylinder_weight

DEFAULT_SEARCH_BUDGET = 1_000_000
# A stage-n certificate checks htilde at granularity n, which can pass its
# recorded block and then costs 2^((1-s)n), about 15n bits at s = 16.
MAX_STAGES = 1 << 14

_HALF = Fraction(1, 2)


class NoStableIndex(CgmtError):
    """No sweep index lands inside the bracket on every window block."""

    def __init__(self, window: int):
        super().__init__(
            f"no sweep index is stable across {window} extra blocks; enlarge the window"
        )
        self.window = window


class DensityViolated(CgmtError):
    """No extension through the requested depth met a stage's open within the cap.

    The message names the bound that ended the search: the cap, or the
    depth when fewer than cap extensions exist, with the count tested.
    """

    def __init__(self, stage: int, cap: int, depth: int, tested: int):
        if tested < cap:
            bound = f"depth {depth}, all {tested} extensions tested"
        else:
            bound = f"cap {cap}"
        super().__init__(f"density promise failed at stage {stage} ({bound})")
        self.stage = stage
        self.cap = cap
        self.depth = depth
        self.tested = tested


class PromiseViolated(CgmtError):
    """The caller's exact-mass promise is inconsistent with the tree."""

    def __init__(self, cap: int):
        super().__init__(f"mass promise failed within level cap {cap}")
        self.cap = cap


# -- piecewise codes ----------------------------------------------------------------


class PiecewiseCode:
    """Subtree code kept explicit through a working depth, ambient-backed above.

    The explicit part is the first live_depth + 1 levels of one level list.
    A longer string is marked iff its length-live_depth prefix is marked and
    the ambient source accepts it, so deeper levels are never given:
    trees.grow grows them from the top level on demand, and they are kept
    after the explicit ones in the same list.  The explicit part never
    changes, and refinement steps build new instances; the grown tail is a
    cache that grow extends in place.  It stays because it shares tail
    strings between a stage's certificate and the next stage's merge:
    growing tails afresh per call gave the same reports but raised a
    five-stage s = 2/3 besicovitch run from 94 to 108 MB peak and from
    about 1.5 to 1.7-2.4 s.

    Every code is built from levels the library grew from source (or from
    a code over it), so the constructor checks nothing and asks source
    nothing: the levels are a tree by construction, as BlockMarking.derived
    asks, and every mark is a member because source accepted it when it
    was grown.  Each caller says why in a comment.
    """

    __slots__ = ("source", "live_depth", "_levels")

    def __init__(self, source: TreeSource, live_depth: int, levels: tuple[frozenset[str], ...]):
        self.source = source
        self.live_depth = live_depth
        self._levels: list[frozenset[str]] = list(levels)

    @classmethod
    def root_of(cls, source: TreeSource) -> "PiecewiseCode":
        """The ambient tree's own code, explicit only at the root."""
        if not source.member(""):
            raise CgmtError(f"{source.name}: the ambient tree is empty")
        # the root, just accepted
        return cls(source, 0, (frozenset({""}),))

    def top(self) -> frozenset[str]:
        return self._levels[self.live_depth]

    def level(self, length: int, budget: Optional[int] = None) -> frozenset[str]:
        """Marked strings of one length; budget bounds the strings through it."""
        if length < 0:
            raise CgmtError(f"negative length {length}")
        return grow(self.source.member, self._levels, length, budget)[length]

    def marking(self, block: int, budget: Optional[int] = None) -> BlockMarking:
        """The code through block; budget bounds the strings it holds."""
        levels = tuple(grow(self.source.member, self._levels, block, budget)[: block + 1])
        # the explicit part plus a tail grown from its top level
        return BlockMarking.derived(block, levels)

    def value(self, block: int, s, n: int, budget: Optional[int] = None) -> AlgebraicWeight:
        """htilde's value of marking(block), its tail weighed from the source's states, not grown."""
        explicit = self._levels[: min(block, self.live_depth) + 1]
        # budget bounds the explicit strings plus the classes' multiplicities,
        # the strings that growing the tail would hold
        quotient = quotient_of_source(self.source, block, budget, explicit)
        return quotient_htilde(quotient, s, n, block, want_witness=False).value

    def restricted(self, tau: str) -> "PiecewiseCode":
        """Marks compatible with tau, as a code over the restricted ambient.

        The restricted ambient keeps the source's states.  Its members
        shorter than tau are tau's prefixes, one per length, so the state
        contract holds there trivially; from |tau| on its subtrees are the
        source's own, so equal states still mean equal subtrees.
        """
        # the explicit part, a tree grown from source
        explicit = BlockMarking.derived(self.live_depth, tuple(self._levels[: self.live_depth + 1]))
        member = self.source.member
        if len(tau) > self.live_depth:
            # a tail string can leave tau only while tau is longer than the top
            member = lambda s, _t=tau, _m=member: compatible(s, _t) and _m(s)
        src = TreeSource(
            member=member, name=f"{self.source.name}|{tau or 'root'}", state=self.source.state
        )
        # this code's marks compatible with tau: members of src, parents kept
        return PiecewiseCode(src, self.live_depth, explicit.restrict(tau).levels)

    def __repr__(self) -> str:
        return (
            f"PiecewiseCode(source={self.source.name!r}, live_depth={self.live_depth}, "
            f"top={len(self.top())})"
        )


def _as_code(z: Union[TreeSource, PiecewiseCode]) -> PiecewiseCode:
    if isinstance(z, PiecewiseCode):
        return z
    if isinstance(z, TreeSource):
        return PiecewiseCode.root_of(z)
    raise CgmtError(f"expected a tree source or piecewise code, got {type(z).__name__}")


# -- interpolation ------------------------------------------------------------------


@dataclass(frozen=True)
class InterpolationResult:
    """A refined code plus the exact values that justified selecting it."""

    code: PiecewiseCode
    bracket: MeasureBracket
    top_level: int
    restored: int
    values: tuple[tuple[int, AlgebraicWeight], ...]


def interpolate_subset(
    z: Union[TreeSource, PiecewiseCode],
    nu: int,
    s,
    n: int,
    c,
    eps,
    window: int = 2,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> InterpolationResult:
    """Refine z above the prefix nu until block values land in [c, c+eps).

    The prefix is the code z itself through block nu; it is kept as it is.
    Tops m = nu, nu + 1, ... are tried until one lands (see _probe): the
    sweep at top m keeps, below each level-nu root, its least level-m
    string and the level-m strings t with int(t[::-1], 2) below a
    threshold.  Values are verified exactly at every block of the
    verification window; deeper levels of the result delegate to the
    ambient source.
    """
    zc = _as_code(z)
    s = Fraction(s)
    if s <= 0:
        raise PreconditionMeasure("interpolation needs s > 0")
    if n < 0:
        raise CgmtError(f"granularity must be nonnegative, got {n}")
    if window < 0:
        raise CgmtError(f"window must be nonnegative, got {window}")
    c_w = as_weight(c)
    eps_w = as_weight(eps)
    if eps_w.sign() <= 0:
        raise CgmtError("eps must be positive")
    if c_w.sign() < 0:
        raise CgmtError("the target lower bound must be nonnegative")
    if nu < zc.live_depth:
        raise CgmtError("interpolation must resume at or beyond the explicit working depth")
    n_prime = nu
    if n_prime < n:
        raise CgmtError("the prefix block must be at least the granularity")

    if c_w.is_zero():
        return _interpolate_above_zero(zc, n_prime, s, n, eps_w, window, budget)

    roots = zc.level(n_prime, budget)
    if not roots:
        raise PreconditionMeasure("the ambient code is dead at the requested prefix")
    bound = c_w + eps_w
    m = n_prime
    sweep = _Sweep(zc, n_prime, s, n, window, budget)
    while True:
        found = _probe(zc, n_prime, m, sweep, c_w, bound)
        if found is not None:
            return found
        # the top cap: the least m whose cylinders are thin enough
        cyl = cylinder_weight(s, m)
        if cyl < eps_w and cyl * len(roots) < bound:
            raise NoStableIndex(window)
        m += 1
        sweep.deepen(m, budget)


def _interpolate_above_zero(
    zc: PiecewiseCode,
    n_prime: int,
    s: Fraction,
    n: int,
    eps_w: AlgebraicWeight,
    window: int,
    budget: int,
) -> InterpolationResult:
    # c = 0: either certify the values vanish, or lift the target to a
    # positive floor that the tree is known to clear and recurse.
    half = eps_w * _HALF
    spread = max(len(zc.level(n_prime, budget)), 1)
    probe_block = n_prime
    while not (cylinder_weight(s, probe_block) * spread < half):
        probe_block += 1
    deep = probe_block + window
    value = zc.value(deep, s, n, budget)
    if value.is_zero():
        values = tuple((k, zc.value(k, s, n, budget)) for k in range(deep, deep + window + 1))
        zero = AlgebraicWeight.zero()
        bracket = MeasureBracket(zero, zero, deep + window, deep)
        return InterpolationResult(zc, bracket, deep, 0, values)
    floor = value if value < half else half
    return interpolate_subset(
        zc, n_prime, s, n, floor, eps_w - floor, window=window, budget=budget
    )


class _Sweep:
    """What the probes of one interpolation share.

    quotient is the code below its level-n_prime roots, one class per
    (state, length), through the deepest block of the top being tried; it
    grows a level per top.  One shape table weighs every probe's shapes.
    Per block it keeps each class's shape at every length, all of the
    class's descendants kept.  Its ring serves blocks to twice the deepest
    block of the probe that made it, so that later tops reuse the table and
    its class shapes; a deeper probe starts a new table.
    """

    def __init__(self, zc: PiecewiseCode, n_prime: int, s: Fraction, n: int, window: int, budget):
        self.source, self.s, self.n, self.window = zc.source, s, n, window
        self.quotient = quotient_of_source(
            zc.source, n_prime + window, budget, zc.marking(n_prime).levels
        )
        # each root with its class and its bit-reversed value
        self.roots = [
            (rho, k, int(rho[::-1], 2) if rho else 0) for rho, k in self.quotient.classes.items()
        ]
        self.depth = -1  # the deepest block the table's ring serves

    def deepen(self, m: int, budget) -> None:
        self.quotient = deepen_quotient(self.source, self.quotient, m + self.window, budget)

    def table(self, deep: int) -> ShapeTable:
        """The shape table for a probe whose deepest block is deep."""
        if self.depth < deep:
            self.depth = 2 * deep
            self._table = ShapeTable(self.s, self.n, self.depth)
            self._shapes: dict[int, list[list[int]]] = {}
        return self._table

    def shapes(self, block: int) -> list[list[int]]:
        """Each class's shape id at block, per length from the roots' down."""
        got = self._shapes.get(block)
        if got is None:
            got = self._shapes[block] = self._table.class_shapes(self.quotient, block)
        return got


def _probe(
    zc: PiecewiseCode,
    n_prime: int,
    m: int,
    sweep: _Sweep,
    c_w: AlgebraicWeight,
    bound: AlgebraicWeight,
) -> Optional[InterpolationResult]:
    """Run the restore sweep with its top at level m; None if no index lands.

    The sweep restores the removed level-m strings t in the order of
    rev(t) = int(t[::-1], 2), so the top at a sweep index is the skeleton
    plus {t : rev(t) < r} for a threshold r.  A node sigma of length k
    keeps the suffixes u with rev(u) < x = ceil((r - rev(sigma)) / 2^k),
    clipped to [0, 2^(m-k)], and its children keep ceil(x/2) and
    floor(x/2).  So below the level-n_prime roots a node's shape at a
    block depends only on its length, its class, x and whether it is on
    the skeleton, the leftmost descent that takes child "0" iff its class
    reaches m; each such key is weighed once per block.  A level-m node is
    kept iff it is on the skeleton or x >= 1, a node with x = 2^(m-k) keeps
    its class's shape, and below m the shapes are the classes' own.  An
    evaluation climbs only the roots to the root, and the least r at target
    restores exactly the least sweep index's strings.  Values only grow
    with r, so a block at c + eps ends the probe at once.  The landing
    probe alone spells out its top strings.
    """
    deep = m + sweep.window
    top = m - n_prime
    kids = sweep.quotient.kids
    if not sweep.quotient.multiplicity[top]:
        raise PreconditionMeasure(f"the ambient tree dies before level {m}")
    table = sweep.table(deep)
    ring = table.ring
    plain = {block: sweep.shapes(block) for block in range(m, deep + 1)}
    reaches = plain[m]  # -1 iff the class has no descendant at level m
    span = 1 << top
    # the threshold that restores every removed string; at m = n_prime each
    # root is its own skeleton and nothing is removed
    everything = span << n_prime if top else 0

    def children(key):
        """The keys (length - n_prime, class, x, on skeleton) of a node's two children.

        None stands for a child that is not a member.
        """
        i, k, x, skel = key
        zero, one = kids[i][k]
        skel_zero = skel and zero >= 0 and reaches[i + 1][zero] >= 0
        return (
            (i + 1, zero, (x + 1) >> 1, skel_zero) if zero >= 0 else None,
            (i + 1, one, x >> 1, skel and not skel_zero) if one >= 0 else None,
        )

    memos: dict[int, dict[tuple, int]] = {block: {} for block in plain}

    def known(block: int, key) -> Optional[int]:
        """Shape id of key at block; None while it is still to be weighed."""
        i, k, x, skel = key
        got = plain[block][i][k]
        if got < 0 or x == span >> i:
            return got  # nothing at the block, or every level-m descendant kept
        if not x and not skel:
            return -1
        if i == top:
            return got  # the skeleton string itself
        return memos[block].get(key)

    def settle(block: int, keys) -> None:
        """Weigh keys and the nodes below them at block, each key once."""
        layers = []
        todo = {key for key in keys if known(block, key) is None}
        while todo:
            layers.append(todo)
            todo = {
                c for key in todo for c in children(key)
                if c is not None and known(block, c) is None
            }
        memo = memos[block]
        for layer in reversed(layers):
            for key in layer:
                left, right = (-1 if c is None else known(block, c) for c in children(key))
                memo[key] = (
                    -1 if left < 0 and right < 0 else table.shape(n_prime + key[0], left, right)
                )

    def keys_at(r: int) -> dict[str, tuple]:
        return {
            rho: (0, k, min(max(-((rv - r) >> n_prime), 0), span), True)
            for rho, k, rv in sweep.roots
        }

    climbed: dict[tuple[int, int], int] = {}

    def root_at(r: int, block: int) -> int:
        """Shape id of the sweep marking at threshold r and block, -1 if it is empty there."""
        got = climbed.get((r, block))
        if got is None:
            keys = keys_at(r)
            settle(block, set(keys.values()))
            ids = {rho: known(block, key) for rho, key in keys.items()}
            ids = {rho: k for rho, k in ids.items() if k >= 0}
            got = climbed[(r, block)] = table.climb(ids, n_prime)
        return got

    def below(r: int, block: int, target: AlgebraicWeight) -> bool:
        return ring.sign_against(table.vector(root_at(r, block)), target) < 0

    for block in range(m, deep + 1):
        # the full sweep is the ambient tree itself; below target means the
        # caller's lower-bound promise is false at this depth
        if below(everything, block, c_w):
            raise PreconditionMeasure(f"ambient block value below the target at block {block}")
    r = 0
    for block in range(m, deep + 1):
        if below(r, block, c_w):
            lo, hi = r + 1, everything
            while lo < hi:
                mid = (lo + hi) // 2
                if below(mid, block, c_w):
                    lo = mid + 1
                else:
                    hi = mid
            r = lo
        # values only grow with r: a block at the bound now stays there
        if not below(r, block, bound):
            return None
    if not all(below(r, block, bound) for block in range(m, deep + 1)):
        return None
    window_values = tuple((block, table.weight(root_at(r, block))) for block in range(m, deep + 1))
    # the top at r, spelled out from the roots: a node is kept iff its shape
    # at block m is, that is iff it has a kept level-m descendant
    levels = list(zc.marking(n_prime).levels)
    layer = [(rho, key) for rho, key in keys_at(r).items() if known(m, key) >= 0]
    for _ in range(top):
        layer = [
            (sigma + bit, c)
            for sigma, key in layer
            for bit, c in zip("01", children(key))
            if c is not None and known(m, c) >= 0
        ]
        levels.append(frozenset(sigma for sigma, _ in layer))
    # one skeleton string below each root that reaches m; the rest are restored
    restored = len(levels[m]) - sum(1 for _, k, _ in sweep.roots if reaches[0][k] >= 0)
    # levels of zc through n_prime, then the top's prefixes: a subtree of zc
    code = PiecewiseCode(zc.source, m, tuple(levels))
    upper_block, upper = max(window_values, key=lambda kv: (kv[1], kv[0]))
    bracket = MeasureBracket(c_w, upper, deep, upper_block)
    return InterpolationResult(code, bracket, m, restored, window_values)


def approx_subset(
    src, s, n: int, c, eps, window: int = 2, budget: int = DEFAULT_SEARCH_BUDGET
) -> InterpolationResult:
    """Extract a subtree of src with block values pinned in [c, c+eps).

    Over src.pruned() every mark of the output lies on an infinite branch,
    so the result also has a marked child below every mark under its block.
    """
    return interpolate_subset(_as_code(src), n, s, n, c, eps, window=window, budget=budget)


# -- thinning -----------------------------------------------------------------------


@dataclass(frozen=True)
class BranchReport:
    """Verdict for one length-n branch: kept as-is or re-interpolated."""

    branch: str
    kept: bool
    value: AlgebraicWeight
    block: int


@dataclass(frozen=True)
class ThinningCertificate:
    granularity: int
    baseline: AlgebraicWeight
    theta: AlgebraicWeight
    branches: tuple[BranchReport, ...]
    floor_granularity: int
    floor_target: AlgebraicWeight
    floor_value: AlgebraicWeight
    floor_block: int

    def replaced(self) -> tuple[str, ...]:
        return tuple(r.branch for r in self.branches if not r.kept)


def thinify(
    z: Union[TreeSource, PiecewiseCode],
    s,
    n: int,
    nu: int,
    c,
    theta,
    window: int = 2,
    n0: int = 0,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> tuple[PiecewiseCode, ThinningCertificate]:
    """Force every length-n branch to baseline weight without losing the floor.

    Branches already within theta of 2^(-ns) at granularity n+1 are kept;
    fat branches are re-interpolated on their restriction targeting
    [2^(-ns), 2^(-ns)+theta).  The floor `c` at granularity n0 is re-verified
    exactly on the merged result.  Levels at or below the block named by nu
    are never touched.
    """
    zc = _as_code(z)
    s_frac = Fraction(s)
    if s_frac <= 0:
        raise PreconditionMeasure("thinning needs s > 0")
    if nu < 0:
        raise CgmtError(f"prefix block must be nonnegative, got {nu}")
    theta_w = as_weight(theta)
    c_w = as_weight(c)
    baseline = cylinder_weight(s_frac, n)
    threshold = baseline + theta_w

    current = zc
    reports = []
    for tau in sorted(zc.level(n, budget)):
        start = max(nu, current.live_depth, n + 1)
        check_block = start + window
        restricted = current.restricted(tau)
        value = restricted.value(check_block, s_frac, n + 1, budget)
        if value <= threshold:
            reports.append(BranchReport(tau, True, value, check_block))
            continue
        if theta_w.is_zero():
            # the target bracket [baseline, baseline) admits no value
            raise NoStableIndex(window)
        refined = interpolate_subset(
            restricted, start, s_frac, n + 1, baseline, theta_w, window=window, budget=budget
        )
        new_depth = refined.code.live_depth
        merged = tuple(
            frozenset(t for t in current.level(length, budget) if not compatible(t, tau))
            | refined.code.level(length, budget)
            for length in range(new_depth + 1)
        )
        # the union of two trees grown from current.source (the refined one
        # over its restriction to tau) is a tree of its members
        current = PiecewiseCode(current.source, new_depth, merged)
        reports.append(
            BranchReport(tau, False, refined.bracket.upper, refined.bracket.upper_block)
        )

    deep = current.live_depth + window
    floor_value = current.value(deep, s_frac, n0, budget)
    if floor_value < c_w:
        raise PreconditionMeasure(f"thinning lost the certified floor at block {deep}")
    certificate = ThinningCertificate(
        granularity=n,
        baseline=baseline,
        theta=theta_w,
        branches=tuple(reports),
        floor_granularity=n0,
        floor_target=c_w,
        floor_value=floor_value,
        floor_block=deep,
    )
    return current, certificate


# -- staged extraction --------------------------------------------------------------


@dataclass(frozen=True)
class RefinementCertificate:
    """Snapshot of one pipeline stage, re-checkable by htilde alone.

    marks holds the marked strings per length out to the deepest checked
    block, so both verdicts can be recomputed from the certificate itself.
    """

    stage: int
    dimension: Fraction
    marks: BlockMarking
    lower_granularity: int
    lower_target: AlgebraicWeight
    lower_checks: tuple[tuple[int, AlgebraicWeight], ...]
    upper_granularity: int
    upper_target: AlgebraicWeight
    upper_witness: tuple[int, AlgebraicWeight]
    theta: AlgebraicWeight

    def verify(self) -> bool:
        """Recompute both verdicts from the recorded levels."""
        for block, value in self.lower_checks:
            got = htilde(
                self.marks.cut(block), self.dimension, self.lower_granularity, want_witness=False
            ).value
            if got != value or got < self.lower_target:
                return False
        block, value = self.upper_witness
        got = htilde(
            self.marks.cut(block), self.dimension, self.upper_granularity, want_witness=False
        ).value
        return got == value and got < self.upper_target


def besicovitch_extract(
    src: TreeSource,
    s,
    c,
    n0: int,
    stages: int,
    window: int = 2,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> tuple[PiecewiseCode, tuple[RefinementCertificate, ...]]:
    """Staged subset extraction with per-stage upper bounds closing on c.

    One base interpolation pins the granularity-n0 value just above c; each
    stage n then thins at granularity n with a slack budgeted so the stage
    n+1 value stays below c + 2^(-(n+1)).  Certificates are recorded for
    stages n0+1..stages, and blocks at or below a recorded witness are
    frozen for the rest of the run, so the final code reproduces every
    recorded upper verdict bit-exactly.
    """
    ambient = src.pruned()
    if stages <= n0:
        raise CgmtError("need at least one stage beyond the base granularity")
    if n0 < 0:
        raise CgmtError(f"base granularity must be nonnegative, got {n0}")
    if stages > MAX_STAGES:
        raise CgmtError(f"stages must be at most {MAX_STAGES}, got {stages}")
    s_frac = Fraction(s)
    c_w = as_weight(c)
    margin = AlgebraicWeight.two_power(-stages)  # the final-stage gap to c

    code = PiecewiseCode.root_of(ambient)
    try:
        base = interpolate_subset(
            code, n0, s_frac, n0, c_w, margin * _HALF, window=window, budget=budget
        )
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"stage {n0}: {exc}") from exc
    current = base.code
    committed = base.top_level

    certificates = []
    for n in range(n0, stages):
        branch_count = max(len(current.level(n, budget)), 1)
        theta = margin * Fraction(1, (1 << (n - n0 + 3)) * branch_count)
        try:
            current, thin_cert = thinify(
                current, s_frac, n, committed, c_w, theta, window=window, n0=n0, budget=budget
            )
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"stage {n}: {exc}") from exc
        witness_block = current.live_depth
        deep = thin_cert.floor_block
        upper = current.value(witness_block, s_frac, n + 1, budget)
        target = c_w + AlgebraicWeight.two_power(-(n + 1))
        if not upper < target:
            raise CgmtError(f"stage {n + 1} upper verdict failed to close")
        certificates.append(
            RefinementCertificate(
                stage=n + 1,
                dimension=s_frac,
                marks=current.marking(deep, budget),
                lower_granularity=n0,
                lower_target=c_w,
                lower_checks=((deep, thin_cert.floor_value),),
                upper_granularity=n + 1,
                upper_target=target,
                upper_witness=(witness_block, upper),
                theta=theta,
            )
        )
        committed = max(committed, witness_block)
    return current, tuple(certificates)


# -- category and path extraction ---------------------------------------------------


def _extensions(stem: str, extendible: Callable[[str], bool], depth: int):
    """Extendible proper extensions of stem through length depth, in length-lex order."""
    frontier = [stem]
    while frontier and len(frontier[0]) < depth:
        grown = []
        for parent in frontier:
            for child in (parent + "0", parent + "1"):
                if extendible(child):
                    yield child
                    grown.append(child)
        frontier = grown


def baire_intersect(
    src: TreeSource,
    opens: Sequence[Callable[[str], bool]],
    start: str,
    depth: int,
    cap: int = DEFAULT_SEARCH_BUDGET,
) -> str:
    """A single extendible string meeting every open set, stage by stage.

    Each open is an upward-closed membership callback.  Stages that already
    hold at the current stem cost nothing; otherwise proper extensions are
    searched in length-lex order through length depth, since a longer stem
    cannot start the depth-long path, testing at most cap candidates.
    """
    check_bits(start)
    if len(start) > depth:
        raise CgmtError(f"start {start!r} is longer than the requested depth {depth}")
    extendible = src.require_extendible()
    if not extendible(start):
        raise NotExtendible(f"start {start!r} is not on an infinite branch")
    stem = start
    for stage, accepts in enumerate(opens):
        if accepts(stem):
            continue
        tested = 0
        for tested, candidate in enumerate(islice(_extensions(stem, extendible, depth), cap), 1):
            if accepts(candidate):
                stem = candidate
                break
        else:
            raise DensityViolated(stage, cap, depth, tested)
    return leftmost_extension_path(src, stem, depth)


def lebesgue_path(src: TreeSource, c, depth: int, cap: Optional[int] = None) -> str:
    """A path through a tree promised to have unit-dimension mass exactly c.

    Each bit is fixed by finding a level m at which one child cylinder plus
    everything outside the current cylinder weighs less than c; the path
    takes the other child.  Levels m through cap (default depth + 8) are
    tried for each bit, so depth and cap bound the work.  Level weights are
    the source's closed-form extension counts over 2^m, so the test is the
    exact integer comparison (child + outside) * den(c) < num(c) * 2^m; a
    source without extension_count is refused before any count is asked.
    With outside = total - cylinder and the cylinder the two children's
    sum, that is child * den(c) > excess(m) for the child taken, where
    excess(m) = count("", m) * den(c) - num(c) * 2^m does not depend on the
    path.  So each level's excess is asked once and kept while m can still
    be tried; child "1" is tested first and child "0" asked only when "1"
    does not qualify.
    """
    c = Fraction(c)
    if not 0 < c <= 1:
        raise CgmtError(f"the mass promise must lie in (0, 1], got {c}")
    counts = src.extension_count
    if counts is None:
        raise CgmtError(f"{src.name}: no closed-form extension counts to weigh levels with")
    if cap is None:
        cap = depth + 8
    if not src.member(""):
        raise PromiseViolated(cap)
    path = ""
    excess: dict[int, int] = {}  # levels m > len(path) asked so far
    for k in range(depth):
        excess.pop(k, None)
        step = None
        for m in range(k + 1, cap + 1):
            if m not in excess:
                excess[m] = counts("", m) * c.denominator - (c.numerator << m)
            # (total - mass) * den < num * 2^m: all but this child weighs less than c
            for bit in "10":
                mass = counts(path + bit, m)
                if mass * c.denominator > excess[m]:
                    step = (bit, mass)
                    break
            if step is not None:
                break
        if step is None:
            raise PromiseViolated(cap)
        bit, mass = step
        path += bit
        if mass == 0:
            # the qualifying side carries no mass, so the promise was false
            raise PromiseViolated(cap)
    return path
