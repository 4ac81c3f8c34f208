"""Deterministic report documents for the command-line front end.

Reports are plain dict trees with a fixed schema: every exact weight is
emitted as its ring serialization (root order, coefficient list) plus a
30-digit decimal annotation; decimals are never read back.  Rendering
sorts keys and carries no timestamps, so identical inputs and seed give
byte-identical output.  CSV rendering flattens measure sequences only;
everything else stays JSON.
"""

from __future__ import annotations

import io
import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import __version__
from .core import CgmtError, ParseError
from .weights import AlgebraicWeight
from .trees import BlockMarking
from .measure import MeasureBracket, MeasureValue
from .construct import (
    InterpolationResult,
    PiecewiseCode,
    RefinementCertificate,
    ThinningCertificate,
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ReportDocument:
    command: str
    inputs: dict
    results: dict
    seed: Optional[int] = None
    versions: dict = field(
        default_factory=lambda: {"cgmt": __version__, "schema": SCHEMA_VERSION}
    )


def weight_obj(w: AlgebraicWeight) -> dict:
    return w.to_json_obj()


def weight_from_obj(obj: dict) -> AlgebraicWeight:
    return AlgebraicWeight.from_json_obj(obj)


def fraction_str(x) -> str:
    return str(Fraction(x))


def measure_value_obj(mv: MeasureValue) -> dict:
    out = {"block": mv.at_block, "value": weight_obj(mv.value)}
    if mv.witness is not None:
        out["witness"] = sorted(mv.witness.strings)
    return out


def bracket_obj(b: MeasureBracket) -> dict:
    return {
        "lower": weight_obj(b.lower),
        "lower_block": b.lower_block,
        "upper": weight_obj(b.upper),
        "upper_block": b.upper_block,
    }


def code_obj(code: PiecewiseCode) -> dict:
    return {
        "live_depth": code.live_depth,
        "restriction": code.restriction,
        "levels": [sorted(code.level(L)) for L in range(code.live_depth + 1)],
    }


def interpolation_obj(res: InterpolationResult) -> dict:
    return {
        "code": code_obj(res.code),
        "bracket": bracket_obj(res.bracket),
        "top_level": res.top_level,
        "restored": res.restored,
        "values": [{"block": b, "value": weight_obj(v)} for b, v in res.values],
    }


def thinning_obj(cert: ThinningCertificate) -> dict:
    return {
        "granularity": cert.granularity,
        "baseline": weight_obj(cert.baseline),
        "theta": weight_obj(cert.theta),
        "branches": [
            {
                "branch": r.branch,
                "kept": r.kept,
                "value": weight_obj(r.value),
                "block": r.block,
            }
            for r in cert.branches
        ],
        "floor": {
            "granularity": cert.floor_granularity,
            "target": weight_obj(cert.floor_target),
            "value": weight_obj(cert.floor_value),
            "block": cert.floor_block,
        },
    }


def certificate_obj(cert: RefinementCertificate) -> dict:
    return {
        "stage": cert.stage,
        "dimension": fraction_str(cert.dimension),
        "levels": [sorted(level) for level in cert.marks.levels],
        "lower": {
            "granularity": cert.lower_granularity,
            "target": weight_obj(cert.lower_target),
            "checks": [{"block": b, "value": weight_obj(v)} for b, v in cert.lower_checks],
        },
        "upper": {
            "granularity": cert.upper_granularity,
            "target": weight_obj(cert.upper_target),
            "witness": {
                "block": cert.upper_witness[0],
                "value": weight_obj(cert.upper_witness[1]),
            },
        },
        "theta": weight_obj(cert.theta),
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

    Missing fields, fields of the wrong JSON type and malformed weights raise
    ParseError; levels that do not form a finite tree raise the BlockMarking
    shape check's CodeViolation.
    """
    levels = _field(obj, "levels", list)
    if not all(isinstance(level, list) and all(isinstance(t, str) for t in level)
               for level in levels):
        raise ParseError("malformed certificate object: levels must be lists of strings")
    try:
        dimension = Fraction(_field(obj, "dimension", str))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed certificate object: dimension {obj['dimension']!r}") from exc
    if dimension < 0:
        raise ParseError(f"malformed certificate object: negative dimension {obj['dimension']!r}")
    lower = _field(obj, "lower", dict)
    upper = _field(obj, "upper", dict)
    witness = _field(upper, "witness", dict)
    return RefinementCertificate(
        stage=_field(obj, "stage", int),
        dimension=dimension,
        marks=BlockMarking(len(levels) - 1, levels),
        lower_granularity=_field(lower, "granularity", int),
        lower_target=weight_from_obj(_field(lower, "target", dict)),
        lower_checks=tuple(
            (_field(row, "block", int), weight_from_obj(_field(row, "value", dict)))
            for row in _field(lower, "checks", list)
        ),
        upper_granularity=_field(upper, "granularity", int),
        upper_target=weight_from_obj(_field(upper, "target", dict)),
        upper_witness=(
            _field(witness, "block", int),
            weight_from_obj(_field(witness, "value", dict)),
        ),
        theta=weight_from_obj(_field(obj, "theta", dict)),
    )


def document_obj(doc: ReportDocument) -> dict:
    return {
        "command": doc.command,
        "inputs": doc.inputs,
        "results": doc.results,
        "seed": doc.seed,
        "versions": doc.versions,
    }


def render_json(doc: ReportDocument) -> str:
    return json.dumps(document_obj(doc), sort_keys=True, indent=2) + "\n"


def render_csv(doc: ReportDocument) -> str:
    """Flatten a measure sequence to block,value,decimal rows."""
    sequence = doc.results.get("sequence")
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
