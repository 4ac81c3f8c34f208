"""Deterministic report documents for the command-line front end.

A report is the plain dict report_document builds, with a fixed schema:
every exact weight is its AlgebraicWeight.to_json_obj, the ring
serialization (root order, coefficient list, every digit) plus a 30-digit
decimal annotation; decimals are never read back.  Rendering sorts keys
and carries no timestamps, so identical inputs and seed give
byte-identical output.  CSV rendering flattens measure sequences only;
everything else stays JSON.  certificate_from_obj reads a certificate
back and checks each of its fields as outside input.
"""

from __future__ import annotations

import io
import csv
import json
from json.encoder import encode_basestring_ascii
from fractions import Fraction
from typing import Optional

from . import __version__
from .core import CgmtError, ParseError, shown
from .weights import AlgebraicWeight, cap_violation
from .trees import BlockMarking
from .measure import MeasureBracket, MeasureValue
from .construct import (
    MAX_STAGES,
    InterpolationResult,
    PiecewiseCode,
    RefinementCertificate,
    ThinningCertificate,
)

SCHEMA_VERSION = 1


def report_document(command: str, inputs: dict, results: dict, seed: Optional[int] = None) -> dict:
    """The report of one command run, as the dict render_json writes."""
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "seed": seed,
        "versions": {"cgmt": __version__, "schema": SCHEMA_VERSION},
    }


def measure_value_obj(mv: MeasureValue) -> dict:
    out = {"block": mv.at_block, "value": mv.value.to_json_obj()}
    if mv.witness is not None:
        out["witness"] = sorted(mv.witness.strings)
    return out


def bracket_obj(b: MeasureBracket) -> dict:
    return {
        "lower": b.lower.to_json_obj(),
        "lower_block": b.lower_block,
        "upper": b.upper.to_json_obj(),
        "upper_block": b.upper_block,
    }


def code_obj(code: PiecewiseCode) -> dict:
    levels = [sorted(code.level(L)) for L in range(code.live_depth + 1)]
    # "restriction" (whether a level is empty) is kept for the report's bytes
    return {"live_depth": code.live_depth, "restriction": not all(levels), "levels": levels}


def interpolation_obj(res: InterpolationResult) -> dict:
    return {
        "code": code_obj(res.code),
        "bracket": bracket_obj(res.bracket),
        "top_level": res.top_level,
        "restored": res.restored,
        "values": [{"block": b, "value": v.to_json_obj()} for b, v in res.values],
    }


def thinning_obj(cert: ThinningCertificate) -> dict:
    return {
        "granularity": cert.granularity,
        "baseline": cert.baseline.to_json_obj(),
        "theta": cert.theta.to_json_obj(),
        "branches": [
            {
                "branch": r.branch,
                "kept": r.kept,
                "value": r.value.to_json_obj(),
                "block": r.block,
            }
            for r in cert.branches
        ],
        "floor": {
            "granularity": cert.floor_granularity,
            "target": cert.floor_target.to_json_obj(),
            "value": cert.floor_value.to_json_obj(),
            "block": cert.floor_block,
        },
    }


def certificate_obj(cert: RefinementCertificate) -> dict:
    return {
        "stage": cert.stage,
        "dimension": str(cert.dimension),
        "levels": [sorted(level) for level in cert.marks.levels],
        "lower": {
            "granularity": cert.lower_granularity,
            "target": cert.lower_target.to_json_obj(),
            "checks": [{"block": b, "value": v.to_json_obj()} for b, v in cert.lower_checks],
        },
        "upper": {
            "granularity": cert.upper_granularity,
            "target": cert.upper_target.to_json_obj(),
            "witness": {
                "block": cert.upper_witness[0],
                "value": cert.upper_witness[1].to_json_obj(),
            },
        },
        "theta": cert.theta.to_json_obj(),
    }


def _field(obj, key: str, kind: type):
    """obj[key], which must be present and of the given JSON type."""
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"malformed certificate object: missing {key!r}")
    value = obj[key]
    # bool is an int subtype, but true and false are not JSON integers
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"malformed certificate object: {key!r} must be a {kind.__name__}")
    return value


def certificate_from_obj(obj: dict) -> RefinementCertificate:
    """Decode a certificate_obj document.

    Missing fields, fields of the wrong JSON type, malformed weights, a
    stage outside 1..MAX_STAGES, granularities other than the construction
    records (upper equal to the stage, lower in 0..stage-1), and a
    dimension or weights past the ring's caps (weights.cap_violation)
    raise ParseError; levels that do not form a finite tree raise the
    BlockMarking shape check's CodeViolation.
    """
    levels = _field(obj, "levels", list)
    if not all(isinstance(level, list) and all(isinstance(t, str) for t in level)
               for level in levels):
        raise ParseError("malformed certificate object: levels must be lists of strings")
    try:
        dimension = Fraction(_field(obj, "dimension", str))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed certificate object: dimension {shown(obj['dimension'])}") from exc
    lower = _field(obj, "lower", dict)
    upper = _field(obj, "upper", dict)
    witness = _field(upper, "witness", dict)
    cert = RefinementCertificate(
        stage=_field(obj, "stage", int),
        dimension=dimension,
        marks=BlockMarking(len(levels) - 1, levels),
        lower_granularity=_field(lower, "granularity", int),
        lower_target=AlgebraicWeight.from_json_obj(_field(lower, "target", dict)),
        lower_checks=tuple(
            (_field(row, "block", int), AlgebraicWeight.from_json_obj(_field(row, "value", dict)))
            for row in _field(lower, "checks", list)
        ),
        upper_granularity=_field(upper, "granularity", int),
        upper_target=AlgebraicWeight.from_json_obj(_field(upper, "target", dict)),
        upper_witness=(
            _field(witness, "block", int),
            AlgebraicWeight.from_json_obj(_field(witness, "value", dict)),
        ),
        theta=AlgebraicWeight.from_json_obj(_field(obj, "theta", dict)),
    )
    # besicovitch_extract records stage n+1 with upper granularity n+1 and
    # lower granularity n0 <= n; a granularity may pass the recorded block
    # (htilde's case 2), so the stage cap is what keeps 2^((1-s)n) small
    if not 1 <= cert.stage <= MAX_STAGES:
        raise ParseError(f"malformed certificate object: stage {cert.stage} past 1..{MAX_STAGES}")
    if cert.upper_granularity != cert.stage or not 0 <= cert.lower_granularity < cert.stage:
        raise ParseError(
            f"malformed certificate object: granularities {cert.lower_granularity} and "
            f"{cert.upper_granularity} do not fit stage {cert.stage}"
        )
    weights = (cert.lower_target, cert.upper_target, cert.upper_witness[1], cert.theta)
    problem = cap_violation(dimension, weights + tuple(v for _, v in cert.lower_checks))
    if problem is not None:
        raise ParseError(f"malformed certificate object: {problem}")
    return cert


_quote = encode_basestring_ascii
_scalar = json.JSONEncoder(sort_keys=True).encode


def render_json(doc: dict) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) plus a newline, built by one recursive join.

    json itself is not called for the whole document: on Python 3.10 and
    3.11 it uses its C encoder only without indent, and with indent it
    walks the document in a pure-Python generator.  Here strings go
    through the C function json quotes them with, and a list of strings
    is joined in one call.
    """
    return _render(doc, "\n") + "\n"


def _render(value, newline: str) -> str:
    """value as json writes it with indent=2, its lines opened by newline."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = sorted(value.items())
        return "{" + inner + ("," + inner).join(
            [f"{_key(k)}: {_render(v, inner)}" for k, v in items]
        ) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        body = None
        if isinstance(value[0], str):
            try:
                body = ("," + inner).join(map(_quote, value))
            except TypeError:  # not every item is a string
                pass
        if body is None:
            body = ("," + inner).join([_render(v, inner) for v in value])
        return "[" + inner + body + newline + "]"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if type(value) is int:
        return int.__repr__(value)
    return _scalar(value)


def _key(key) -> str:
    """A dict key as json writes it: strings quoted, numbers and literals quoted as text."""
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return _quote(_render(key, ""))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def render_csv(doc: dict) -> str:
    """Flatten a measure sequence to block,value,decimal rows."""
    sequence = doc["results"].get("sequence")
    if sequence is None:
        raise CgmtError("csv output is defined for measure sequences only")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["block", "value", "decimal"])
    for row in sequence:
        value = row["value"]
        writer.writerow([row["block"], _exact_str(value), value["decimal"]])
    return buf.getvalue()


def _exact_str(weight_doc: dict) -> str:
    coeffs = ";".join(weight_doc["coeffs"])
    return f"q={weight_doc['q']}|{coeffs}"
