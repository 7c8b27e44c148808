"""JSON codecs for groups, ring elements, kernels, verdicts, and brackets.

Canonical output is deterministic: keys sorted, two-space indent, shortest
round-trip floats (Python's default float serialization), trailing newline.
Malformed input raises ValueError so callers can map it to a usage error.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from .groups import CyclicGroup, FreeAbelianGroup, FreeGroup, Group
from .kernels import CnVerdict, KernelMatrix, PsdVerdict
from .operators import GroupRingElement, NormBracket, l1_norm, l2_norm


def canonical_json(payload) -> str:
    # NaN and infinities are not JSON; refuse them rather than print them
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# groups


def group_to_json(g: Group) -> dict:
    if isinstance(g, FreeGroup):
        return {"kind": "free", "rank": g.rank}
    if isinstance(g, FreeAbelianGroup):
        return {"kind": "free-abelian", "rank": g.rank}
    if isinstance(g, CyclicGroup):
        return {"kind": "cyclic", "order": g.order}
    raise ValueError(f"cannot serialize group {g!r}")


def group_from_json(obj) -> Group:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("group descriptor must be an object with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "free":
            return FreeGroup(int(obj["rank"]))
        if kind == "free-abelian":
            return FreeAbelianGroup(int(obj["rank"]))
        if kind == "cyclic":
            return CyclicGroup(int(obj["order"]))
    except KeyError as exc:
        raise ValueError(f"group descriptor missing field {exc}") from exc
    raise ValueError(f"unknown group kind {kind!r}")


def parse_group_text(text: str) -> Group:
    """Compact descriptor ``kind:parameter``, e.g. free:2 or cyclic:5."""
    kind, sep, param = text.partition(":")
    if not sep or not param:
        raise ValueError(f"group descriptor {text!r} must look like kind:parameter")
    try:
        value = int(param)
    except ValueError as exc:
        raise ValueError(f"group parameter {param!r} is not an integer") from exc
    if kind == "free":
        return FreeGroup(value)
    if kind == "free-abelian":
        return FreeAbelianGroup(value)
    if kind == "cyclic":
        return CyclicGroup(value)
    raise ValueError(f"unknown group kind {kind!r}")


# ---------------------------------------------------------------------------
# ring elements


def ring_to_json(f: GroupRingElement) -> dict:
    terms = [
        {"elem": f.group.encode(x), "re": c.real, "im": c.imag}
        for x, c in f.terms.items()
    ]
    return {"group": group_to_json(f.group), "terms": terms}


def ring_from_json(obj) -> GroupRingElement:
    """Parse an element; non-finite coefficients and norms are rejected."""
    if not isinstance(obj, dict) or "group" not in obj or "terms" not in obj:
        raise ValueError("ring element needs 'group' and 'terms' fields")
    g = group_from_json(obj["group"])
    terms: dict = {}
    for item in obj["terms"]:
        try:
            elem = g.parse(item["elem"])
            coeff = complex(float(item.get("re", 0.0)), float(item.get("im", 0.0)))
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed term {item!r}") from exc
        if not cmath.isfinite(coeff):
            raise ValueError(f"non-finite coefficient in term {item!r}")
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
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("kernel JSON needs an 'entries' field")
    entries = np.asarray(obj["entries"], dtype=float)
    points = None
    if "points" in obj and "group" in obj:
        g = group_from_json(obj["group"])
        points = [g.parse(p) for p in obj["points"]]
    return KernelMatrix(entries, points=points)


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
