"""JSON codecs for groups, ring elements, kernels, verdicts, and brackets.

Canonical output is deterministic: keys sorted, two-space indent, shortest
round-trip floats (Python's default float serialization), trailing newline.
Malformed input raises ValueError so callers can map it to a usage error.
"""

from __future__ import annotations

import json
import math
import numbers
import re

import numpy as np

from .groups import CyclicGroup, FreeAbelianGroup, FreeGroup, Group, integer_or_none, is_number
from .kernels import CnVerdict, KernelMatrix, PsdVerdict
from .operators import GroupRingElement, NormBracket, l1_norm, l2_norm


def canonical_json(payload) -> str:
    # NaN and infinities are not JSON; refuse them rather than print them
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _list_field(obj: dict, field: str, owner: str) -> list:
    value = obj[field]
    if not isinstance(value, list):
        raise ValueError(f"{owner} field {field!r} must be a list, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# groups


# Group.kind -> (class, name of its one integer parameter)
_GROUP_KINDS = {
    cls.kind: (cls, field)
    for cls, field in ((FreeGroup, "rank"), (FreeAbelianGroup, "rank"), (CyclicGroup, "order"))
}


def _is_real(value) -> bool:
    """A real number by :func:`is_number`; float() would drop the imaginary
    part of a numpy complex with a warning only.  The type test first spares
    JSON's ints and floats the slower abstract-class checks."""
    return type(value) in (int, float) or (is_number(value) and isinstance(value, numbers.Real))


def _group_kind(kind) -> tuple:
    if not isinstance(kind, str) or kind not in _GROUP_KINDS:
        raise ValueError(f"unknown group kind {kind!r}")
    return _GROUP_KINDS[kind]


def group_to_json(g: Group) -> dict:
    cls, field = _GROUP_KINDS.get(getattr(g, "kind", None), (None, None))
    if cls is None or not isinstance(g, cls):
        raise ValueError(f"cannot serialize group {g!r}")
    return {"kind": g.kind, field: getattr(g, field)}


def group_from_json(obj) -> Group:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("group descriptor must be an object with a 'kind'")
    cls, field = _group_kind(obj["kind"])
    if field not in obj:
        raise ValueError(f"group descriptor missing field {field!r}")
    value = integer_or_none(obj[field])
    if value is None:
        raise ValueError(f"group field {field!r} must be an integer, got {obj[field]!r}")
    return cls(value)


def parse_group_text(text: str) -> Group:
    """Compact descriptor ``kind:parameter``, e.g. free:2 or cyclic:5."""
    kind, sep, param = text.partition(":")
    if not sep or not param:
        raise ValueError(f"group descriptor {text!r} must look like kind:parameter")
    # int() would also read "1_0", " 2" and non-ASCII digits
    if re.fullmatch(r"[+-]?[0-9]+", param) is None:
        raise ValueError(f"group parameter {param!r} is not an integer")
    cls, _ = _group_kind(kind)
    return cls(int(param))


# ---------------------------------------------------------------------------
# ring elements


def ring_to_json(f: GroupRingElement) -> dict:
    terms = [
        {"elem": f.group.encode(x), "re": c.real, "im": c.imag}
        for x, c in f.terms.items()
    ]
    return {"group": group_to_json(f.group), "terms": terms}


def ring_from_json(obj) -> GroupRingElement:
    """Parse an element, and reject one whose l1 or squared l2 norm overflows."""
    if not isinstance(obj, dict) or "group" not in obj or "terms" not in obj:
        raise ValueError("ring element needs 'group' and 'terms' fields")
    g = group_from_json(obj["group"])
    terms: dict = {}
    for item in _list_field(obj, "terms", "ring element"):
        try:
            elem = g.parse(item["elem"])
            parts = (item.get("re", 0.0), item.get("im", 0.0))
            if not all(map(_is_real, parts)):
                raise TypeError(f"coefficients {parts!r} are not JSON numbers")
            coeff = complex(float(parts[0]), float(parts[1]))
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed term {item!r}") from exc
        terms[elem] = terms.get(elem, 0j) + coeff
    f = GroupRingElement(g, terms)
    try:
        # both the l1 mass and the squared l2 mass must be finite floats
        finite = math.isfinite(l1_norm(f)) and math.isfinite(l2_norm(f) ** 2)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("element norm overflows; rescale the coefficients")
    return f


# ---------------------------------------------------------------------------
# kernels and verdicts


def kernel_from_json(obj) -> KernelMatrix:
    """Parse ``{"entries": ...}``, ignoring other keys.

    Entries must be JSON numbers in a square list of rows; the type rejects
    a matrix that is not symmetric and finite.
    """
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("kernel JSON needs an 'entries' field")
    rows = _list_field(obj, "entries", "kernel")
    bad = [x for row in rows for x in (row if isinstance(row, list) else [row]) if not _is_real(x)]
    if bad:
        raise ValueError(f"kernel entries must be JSON numbers, got {', '.join(map(repr, bad[:3]))}")
    # np.asarray would refuse ragged rows with a message that names no kernel
    if not all(isinstance(row, list) and len(row) == len(rows) for row in rows):
        raise ValueError("kernel entries must form a square matrix")
    return KernelMatrix(np.asarray(rows, dtype=float))


def cn_verdict_to_json(verdict: CnVerdict) -> dict:
    return {
        "passed": verdict.passed,
        "max_mean_zero_eigenvalue": verdict.max_mean_zero_eigenvalue,
        "witness": None if verdict.witness is None else [float(c) for c in verdict.witness],
    }


def psd_verdict_to_json(verdict: PsdVerdict) -> dict:
    return {"passed": verdict.passed, "min_eigenvalue": verdict.min_eigenvalue}


def bracket_to_json(bracket: NormBracket) -> dict:
    return {
        "lower": bracket.lower,
        "upper": bracket.upper,
        "lower_ball_radius": bracket.lower_ball_radius,
        "iterations": bracket.iterations,
        "achieved_tol": bracket.achieved_tol,
    }
