"""Round trips and canonical formatting for the JSON codecs."""

import json
import math

import numpy as np
import pytest

from rdmap.groups import CyclicGroup, FreeAbelianGroup, FreeGroup, GroupMismatchError
from rdmap.kernels import cn_check_matrix, length_kernel, psd_check
from rdmap.multipliers import HeatMultiplier, table_multiplier
from rdmap.operators import GroupRingElement, builtin_rd_params, delta, opnorm_bracket
from rdmap.serialize import (
    bracket_to_json,
    canonical_json,
    cn_verdict_to_json,
    group_from_json,
    group_to_json,
    kernel_from_json,
    parse_group_text,
    psd_verdict_to_json,
    ring_from_json,
    ring_to_json,
)

F2 = FreeGroup(2)


@pytest.mark.parametrize(
    "group", [F2, FreeGroup(1), FreeAbelianGroup(3), CyclicGroup(5)], ids=repr
)
def test_group_round_trip(group):
    assert group_from_json(group_to_json(group)) == group


@pytest.mark.parametrize(
    "group,plain",
    [
        (CyclicGroup(np.int64(5)), CyclicGroup(5)),
        (FreeGroup(2.0), F2),
        (FreeAbelianGroup(np.int32(3)), FreeAbelianGroup(3)),
    ],
    ids=repr,
)
def test_group_with_an_integral_parameter_serializes_as_int(group, plain):
    # np.int64(5) used to reach json.dumps, which raised TypeError
    assert canonical_json(group_to_json(group)) == canonical_json(group_to_json(plain))
    assert group_from_json(group_to_json(group)) == plain


def test_group_json_errors():
    with pytest.raises(ValueError):
        group_from_json({"rank": 2})
    with pytest.raises(ValueError):
        group_from_json({"kind": "braid", "rank": 2})
    with pytest.raises(ValueError):
        group_from_json([1, 2])


@pytest.mark.parametrize(
    "text,expected",
    [
        ("free:2", F2),
        ("free-abelian:3", FreeAbelianGroup(3)),
        ("cyclic:7", CyclicGroup(7)),
    ],
)
def test_parse_group_text(text, expected):
    assert parse_group_text(text) == expected


@pytest.mark.parametrize(
    # int() alone would read the last three as free(10), free(2) and Z/12
    "bad", ["free", "free:x", "ring:3", "free:", "free:1_0", "free: 2", "cyclic:\uff11\uff12"]
)
def test_parse_group_text_errors(bad):
    with pytest.raises(ValueError):
        parse_group_text(bad)


def test_ring_round_trip():
    f = GroupRingElement(F2, {"a": 1.5 + 0.5j, "Ba": -2.0})
    obj = ring_to_json(f)
    assert obj["group"] == {"kind": "free", "rank": 2}
    assert {t["elem"] for t in obj["terms"]} == {"a", "Ba"}
    back = ring_from_json(json.loads(canonical_json(obj)))
    assert back == f

    z = FreeAbelianGroup(2)
    h = GroupRingElement(z, {(1, -2): 3.0})
    assert ring_from_json(ring_to_json(h)) == h
    assert ring_to_json(h)["terms"][0]["elem"] == [1, -2]


def _ring_from_outside(group, elem, coeff=1.5):
    # the element as it arrives in JSON: tuples become lists
    term = {"elem": json.loads(json.dumps(elem)), "re": coeff}
    return ring_from_json({"group": group_to_json(group), "terms": [term]})


@pytest.mark.parametrize(
    "group,outside,element",
    [(F2, "aAb", "b"), (FreeAbelianGroup(2), (2.0, 1), (2, 1)), (CyclicGroup(5), 7, 2)],
    ids=["free", "free-abelian", "cyclic"],
)
def test_every_entry_point_applies_the_same_element_rule(group, outside, element):
    want = {element: 1.5 + 0j}
    assert GroupRingElement(group, {outside: 1.5}).terms == want
    assert delta(group, outside).terms == {element: 1 + 0j}
    assert _ring_from_outside(group, outside).terms == want
    assert delta(group, element).coeff(outside) == 1.0
    assert table_multiplier(group, {outside: 2.0}).table == {element: 2 + 0j}
    assert table_multiplier(group, {element: 2.0}).eval(outside) == 2.0
    assert HeatMultiplier(group, 1.0).eval(outside) == math.exp(-group.length(element))


@pytest.mark.parametrize(
    "group,bad",
    [(F2, "c"), (FreeAbelianGroup(2), (1.5, 0)), (FreeAbelianGroup(2), (True, 0)), (CyclicGroup(5), "1")],
    ids=["free-letter", "abelian-fraction", "abelian-bool", "cyclic-string"],
)
def test_every_entry_point_rejects_the_same_values(group, bad):
    with pytest.raises(GroupMismatchError):
        GroupRingElement(group, {bad: 1.0})
    with pytest.raises(GroupMismatchError):
        delta(group, bad)
    with pytest.raises(GroupMismatchError):
        _ring_from_outside(group, bad)


def test_ring_json_errors():
    with pytest.raises(ValueError):
        ring_from_json({"terms": []})
    with pytest.raises(ValueError):
        ring_from_json({"group": {"kind": "free", "rank": 2}, "terms": [{"re": 1.0}]})


@pytest.mark.parametrize(
    "term",
    [
        {"elem": "a", "re": math.nan},
        {"elem": "a", "im": -math.inf},
        {"elem": "a", "re": "inf"},
        {"elem": "a", "re": 10**400},
        {"elem": "a", "re": "1.5"},
        {"elem": "a", "re": True},
        {"elem": "a", "im": False},
    ],
    ids=["nan", "-inf", "inf-string", "huge-int", "numeric-string", "bool-re", "bool-im"],
)
def test_ring_json_rejects_non_finite_terms(term):
    with pytest.raises(ValueError, match="term"):
        ring_from_json({"group": {"kind": "free", "rank": 2}, "terms": [term]})


def test_ring_json_rejects_overflowing_norms():
    group = {"kind": "free", "rank": 2}
    # every term is finite, but the l1 mass overflows
    with pytest.raises(ValueError, match="overflows"):
        ring_from_json({"group": group, "terms": [{"elem": w, "re": 1e308} for w in "aA"]})
    # the l1 mass is finite, but |c|^2 overflows inside the l2 norm
    with pytest.raises(ValueError, match="overflows"):
        ring_from_json({"group": group, "terms": [{"elem": "a", "re": 1e200}]})


def test_kernel_round_trip_with_points():
    kernel = length_kernel(F2, F2.ball(1))
    obj = json.loads(
        '{"entries": [[0, 1, 1, 1, 1], [1, 0, 2, 2, 2], [1, 2, 0, 2, 2],'
        ' [1, 2, 2, 0, 2], [1, 2, 2, 2, 0]],'
        ' "points": ["", "a", "A", "b", "B"], "group": {"kind": "free", "rank": 2}}'
    )
    back = kernel_from_json(obj)
    assert np.array_equal(back.entries, kernel.entries)
    # keys other than "entries" are ignored
    del obj["group"]
    assert np.array_equal(kernel_from_json(obj).entries, kernel.entries)


def test_kernel_import_without_group():
    raw = {"entries": [[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]]}
    kernel = kernel_from_json(raw)
    assert np.array_equal(kernel.entries, raw["entries"])
    verdict = cn_check_matrix(kernel.entries)
    assert not verdict.passed
    with pytest.raises(ValueError):
        kernel_from_json({"rows": []})


@pytest.mark.parametrize(
    "entries, named",
    [
        ([["0", "1e1"], ["10", False]], "'0', '1e1', '10'"),
        ([[0, True], [True, 0]], "True, True"),
        ([[0, None], [None, 0]], "None, None"),
        (["01", "10"], "'01', '10'"),
        ([[[0]]], "[0]"),
    ],
    ids=["numeric-strings", "booleans", "nulls", "string-rows", "nested"],
)
def test_kernel_json_refuses_entries_that_are_not_numbers(entries, named):
    # as ring_from_json does for coefficients; float() would read the strings and bools
    with pytest.raises(ValueError, match="kernel entries must be JSON numbers") as info:
        kernel_from_json({"entries": entries})
    assert named in str(info.value)


def test_kernel_json_reads_ints_and_floats():
    kernel = kernel_from_json({"entries": [[0, 2.5], [2.5, 0.0]]})
    assert kernel.entries.tolist() == [[0.0, 2.5], [2.5, 0.0]]


def test_verdict_payloads():
    raw = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    cn = cn_verdict_to_json(cn_check_matrix(raw))
    assert cn["passed"] is False
    assert cn["witness"] == [1.0, 1.0, -2.0]
    ok = cn_verdict_to_json(cn_check_matrix(np.zeros((2, 2))))
    assert ok["passed"] is True and ok["witness"] is None

    psd = psd_verdict_to_json(psd_check(np.eye(3)))
    assert psd == {"passed": True, "min_eigenvalue": pytest.approx(1.0)}


def test_bracket_payload():
    rd = builtin_rd_params(F2)
    f = GroupRingElement(F2, {"a": 1.0})
    payload = bracket_to_json(opnorm_bracket(F2, f, rd, 2))
    assert set(payload) == {
        "lower", "upper", "lower_ball_radius", "iterations", "achieved_tol",
    }
    assert payload["lower"] == pytest.approx(1.0, abs=1e-10)
    assert payload["lower_ball_radius"] == 2


def test_canonical_json_is_stable():
    payload = {"b": 1.0, "a": [1, 2], "c": {"y": 0.1, "x": math.pi}}
    first = canonical_json(payload)
    second = canonical_json({"c": {"x": math.pi, "y": 0.1}, "a": [1, 2], "b": 1.0})
    assert first == second
    assert first.endswith("\n")
    assert json.loads(first)["c"]["x"] == math.pi


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
def test_canonical_json_refuses_non_finite(value):
    with pytest.raises(ValueError):
        canonical_json({"lower": value})


@pytest.mark.parametrize("value", [1j, np.complex128(1 + 1j)], ids=repr)
def test_json_parts_must_be_real(value):
    # a coefficient part or kernel entry is real; float() would keep only the
    # real part of a numpy complex, with a ComplexWarning
    with pytest.raises(ValueError, match="term"):
        ring_from_json({"group": group_to_json(F2), "terms": [{"elem": "a", "re": value}]})
    with pytest.raises(ValueError, match="kernel entries must be JSON numbers"):
        kernel_from_json({"entries": [[0, value], [value, 0]]})
