"""Per-layer spans and counts, recorded from outside the cgmt package.

`Tracer.install()` replaces the public functions of each layer with timing
wrappers at every binding that holds them: the defining module and every
cgmt module that imported the name (`cgmt.cli` imports `htilde`,
`parse_spec`, `besicovitch_extract` and others by name).  Methods of
`AlgebraicWeight` and `RefinementCertificate` are wrapped on the class.  The
tree source that `parse_spec` returns gets wrapped oracle callbacks.

A span's self time is its duration minus the time covered by the wrapped
calls made inside it.  Spans and counts stay in memory; `metrics()` reduces
them per round when the run ends.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter, defaultdict

# (module, name, span): module-level functions, wrapped at every binding
FUNCTIONS = (
    ("cgmt.trees", "levels_of_source", "trees.levels_of_source"),
    ("cgmt.measure", "htilde", "measure.htilde"),
    ("cgmt.measure", "measure_sequence", "measure.measure_sequence"),
    ("cgmt.construct", "interpolate_subset", "construct.interpolate_subset"),
    ("cgmt.construct", "thinify", "construct.thinify"),
    ("cgmt.construct", "besicovitch_extract", "construct.besicovitch_extract"),
    ("cgmt.construct", "lebesgue_path", "construct.lebesgue_path"),
    ("cgmt.construct", "baire_intersect", "construct.baire_intersect"),
    ("cgmt.gadgets", "build_gadget", "gadgets.build_gadget"),
    ("cgmt.gadgets", "check_gadget", "gadgets.check_gadget"),
    ("cgmt.report", "render_json", "report.render_json"),
    ("cgmt.report", "certificate_from_obj", "report.certificate_from_obj"),
)

# (module, class, attribute, span): methods, wrapped on the class
METHODS = (
    ("cgmt.weights", "AlgebraicWeight", "__add__", "weights.add"),
    ("cgmt.weights", "AlgebraicWeight", "__mul__", "weights.mul"),
    ("cgmt.weights", "AlgebraicWeight", "__rmul__", "weights.mul"),
    ("cgmt.weights", "AlgebraicWeight", "sign", "weights.sign"),
    ("cgmt.weights", "AlgebraicWeight", "decimal", "weights.decimal"),
    ("cgmt.construct", "RefinementCertificate", "verify", "construct.certificate_verify"),
)

ORACLE_CALLBACKS = ("member", "extendible", "extension_count")

# every per-layer metric, with its unit; cli.report_bytes and cli.<kind>.s are
# counted by the workload runner, cli.wall_s, host.ref_s and trace.overhead by run.py
COMMAND_KINDS = (
    "measure", "besicovitch", "cover_verify", "extract", "extract_pruned", "thin", "lebesgue_path", "baire", "gadget",
)
PER_LAYER = (
    [
        ("weights.add.calls", "count"),
        ("weights.mul.calls", "count"),
        ("weights.sign.calls", "count"),
        ("weights.sign.mixed", "count"),
        ("weights.sign.self_s", "s"),
        ("weights.decimal.calls", "count"),
        ("weights.decimal.self_s", "s"),
        ("oracle.member.calls", "count"),
        ("oracle.member.self_s", "s"),
        ("oracle.extendible.calls", "count"),
        ("oracle.extension_count.calls", "count"),
        ("trees.levels_of_source.calls", "count"),
        ("trees.levels_of_source.strings", "count"),
        ("trees.levels_of_source.self_s", "s"),
        ("measure.htilde.calls", "count"),
        ("measure.htilde.self_s", "s"),
        ("measure.htilde.live_nodes", "count"),
        ("measure.measure_sequence.self_s", "s"),
        ("construct.interpolate_subset.calls", "count"),
        ("construct.interpolate_subset.self_s", "s"),
        ("construct.sweep_evals", "count"),
        ("construct.thinify.calls", "count"),
        ("construct.thinify.self_s", "s"),
        ("construct.besicovitch_extract.self_s", "s"),
        ("construct.certificate_verify.calls", "count"),
        ("construct.certificate_verify.self_s", "s"),
        ("construct.lebesgue_path.self_s", "s"),
        ("construct.baire_intersect.self_s", "s"),
        ("gadgets.build_gadget.self_s", "s"),
        ("gadgets.check_gadget.self_s", "s"),
        ("treespec.parse_spec.self_s", "s"),
        ("report.render_json.self_s", "s"),
        ("report.certificate_from_obj.calls", "count"),
        ("cli.report_bytes", "bytes"),
    ]
    + [(f"cli.{kind}.s", "s") for kind in COMMAND_KINDS]
    + [("cli.wall_s", "s"), ("host.ref_s", "s"), ("trace.overhead", "ratio")]
)


def live_nodes(marking) -> int:
    """Size of the prefix closure of a marking's top level."""
    if not hasattr(marking, "marked_at"):
        marking = marking.marking()
    level = set(marking.marked_at(marking.block))
    total = 0
    while level:
        total += len(level)
        level = {sigma[:-1] for sigma in level if sigma}
    return total


def is_mixed(weight) -> bool:
    """A sign that needs interval refinement: q > 1 and coefficients of both signs."""
    return weight.q > 1 and any(r > 0 for r in weight.coeffs) and any(r < 0 for r in weight.coeffs)


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []  # per open span: time covered by its children
        self._sweeps = 0  # open interpolate_subset spans

    def wrap(self, span: str, fn, before=None):
        """fn timed as one span; before(*args) runs untimed, outside every span."""
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                t = clock()
                before(*args)
                if stack:
                    stack[-1][0] += clock() - t
            calls[span] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_s[span] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    # -- hooks that count from the arguments ------------------------------------------

    def _on_htilde(self, nu, *rest) -> None:
        self.counts["measure.htilde.live_nodes"] += live_nodes(nu)
        if self._sweeps:
            self.counts["construct.sweep_evals"] += 1

    def _on_sign(self, weight) -> None:
        if is_mixed(weight):
            self.counts["weights.sign.mixed"] += 1

    def _sweep(self, fn):
        inner = self.wrap("construct.interpolate_subset", fn)

        def traced(*args, **kwargs):
            self._sweeps += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._sweeps -= 1

        return traced

    def _levels(self, fn):
        inner = self.wrap("trees.levels_of_source", fn)

        def traced(*args, **kwargs):
            levels = inner(*args, **kwargs)
            self.counts["trees.levels_of_source.strings"] += sum(map(len, levels))
            return levels

        return traced

    def _parse_spec(self, fn):
        inner = self.wrap("treespec.parse_spec", fn)

        def traced(*args, **kwargs):
            src = inner(*args, **kwargs)
            wrapped = {
                name: self.wrap(f"oracle.{name}", getattr(src, name))
                for name in ORACLE_CALLBACKS
                if getattr(src, name) is not None
            }
            return dataclasses.replace(src, **wrapped)

        return traced

    # -- installation -----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions at every binding in loaded cgmt modules."""
        special = {
            "measure.htilde": lambda fn: self.wrap("measure.htilde", fn, before=self._on_htilde),
            "construct.interpolate_subset": self._sweep,
            "trees.levels_of_source": self._levels,
        }
        for module, name, span in FUNCTIONS:
            original = getattr(sys.modules[module], name)
            make = special.get(span, lambda fn, span=span: self.wrap(span, fn))
            _rebind(name, original, make(original))
        original = sys.modules["cgmt.treespec"].parse_spec
        _rebind("parse_spec", original, self._parse_spec(original))
        for module, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            before = self._on_sign if span == "weights.sign" else None
            setattr(cls, attr, self.wrap(span, cls.__dict__[attr], before=before))

    def metrics(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric but those run.py computes, per round."""
        out = {}
        for name, _unit in PER_LAYER:
            if name in ("cli.wall_s", "host.ref_s", "trace.overhead"):
                continue
            span, _, kind = name.rpartition(".")
            if kind == "calls":
                total = self.calls[span]
            elif kind == "self_s":
                total = self.self_s[span]
            else:
                total = self.counts[name]
            out[name] = total / rounds
        return out


def _rebind(name: str, original, replacement) -> None:
    bound = [
        module
        for key, module in list(sys.modules.items())
        if key.split(".")[0] == "cgmt" and getattr(module, name, None) is original
    ]
    for module in bound:
        setattr(module, name, replacement)
