"""Integer group layer: ball arenas, translations and pairwise lengths.

The per-pair builders that the integer paths replaced are kept here as
reference implementations; the integer paths must reproduce them exactly
(compression triplets and kernel entries bit for bit), not within a tolerance.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdmap.cli import EXIT_USAGE, main
from rdmap.groups import (
    DEFAULT_BALL_CAP,
    BallCapError,
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    GroupMismatchError,
)
from rdmap.kernels import length_kernel, schoenberg_kernel
from rdmap.operators import GroupRingElement, _scaled_tables, _triplets, opnorm_lower
from rdmap.serialize import ring_from_json

F2 = FreeGroup(2)
Z2 = FreeAbelianGroup(2)

SETTINGS = settings(max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# reference implementations: one group product per pair


def reference_pairwise(group, points, fn):
    """Symmetric matrix fn(x_i^-1 x_j); computed once per pair and mirrored."""
    pts = [group.parse(p) for p in points]
    m = len(pts)
    inv = [group.inverse(p) for p in pts]
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            v = fn(group.multiply(inv[i], pts[j]))
            out[i, j] = v
            out[j, i] = v
    return out


def sorted_triplets(rows, cols, values):
    """The (row, col, value) triplets ordered by column, then row."""
    order = np.lexsort((rows, cols))
    return rows[order], cols[order], values[order]


def reference_compression(g, f, radius):
    """Ball size, sorted triplets and scale: row x, column y holds f(x y^-1) * 2^-e.

    e puts the largest modulus in [0.5, 1), clamped at -1023 as the solvers'
    tables are; the values are compared in that scaled domain, since a part
    that the scaling rounds away cannot be restored by scaling back.
    """
    basis = g.ball(radius)
    index = {x: i for i, x in enumerate(basis)}
    rows, cols, data = [], [], []
    for y, j in index.items():
        for s_elem, c in f.terms.items():
            i = index.get(g.multiply(s_elem, y))
            if i is not None:
                rows.append(i)
                cols.append(j)
                data.append(c)
    data = np.asarray(data, dtype=complex)
    e = max(math.frexp(max(map(abs, data), default=0.0))[1], -1023)
    triplets = (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
                data * math.ldexp(1.0, -e))
    return len(basis), sorted_triplets(*triplets), e


def table_compression(g, f, radius):
    """Ball size, sorted triplets and scale e of the table that every solver reads."""
    m, targets, coeffs, e, _ = _scaled_tables(g, f, radius, DEFAULT_BALL_CAP)
    return m, sorted_triplets(*_triplets(targets, coeffs)), e


def assert_same_compression(got, want):
    assert got[0] == want[0] and got[2] == want[2]
    for name, a, b in zip(("rows", "cols", "values"), got[1], want[1]):
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# strategies: any group family, elements in any (also non-reduced) encoding


@st.composite
def groups(draw):
    family = draw(st.sampled_from(["free", "abelian", "cyclic"]))
    if family == "free":
        return FreeGroup(draw(st.integers(1, 3)))
    if family == "abelian":
        return FreeAbelianGroup(draw(st.integers(1, 3)))
    # orders at or below 2R + 1 make the ball the whole group
    return CyclicGroup(draw(st.integers(2, 12)))


def elements(group, max_len):
    """Raw encodings: unreduced words, integer vectors, any integer residue."""
    if isinstance(group, FreeGroup):
        return st.text(alphabet=group.letters, max_size=max_len)
    if isinstance(group, FreeAbelianGroup):
        coord = st.integers(-max_len, max_len)
        return st.tuples(*[coord] * group.rank)
    return st.integers(-3 * group.order, 3 * group.order)


@st.composite
def kernel_cases(draw):
    group = draw(groups())
    # an empty point set is rejected (test_kernel_matrix_validation)
    points = draw(st.lists(elements(group, 5), min_size=1, max_size=25))
    return group, points


@st.composite
def compression_cases(draw):
    group = draw(groups())
    radius = draw(st.integers(0, 3))
    # support words may be longer than the radius
    terms = draw(
        st.dictionaries(
            elements(group, radius + 3).map(group.parse),
            st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
            max_size=6,
        )
    )
    return group, radius, GroupRingElement(group, terms)


# ---------------------------------------------------------------------------
# bit identity with the reference implementations


@SETTINGS
@given(kernel_cases())
def test_length_kernel_matches_pairwise_reference(case):
    group, points = case
    want = reference_pairwise(group, points, lambda g: float(group.length(g)))
    assert_same_bits(length_kernel(group, points).entries, want)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_long_words_length_matrix_matches_pairwise_reference(data):
    # shared prefixes of 300+ letters carry the prefix count past one byte
    stem = data.draw(st.text("ab", min_size=300, max_size=600))
    cuts = data.draw(st.lists(st.integers(0, len(stem)), min_size=2, max_size=8))
    tails = data.draw(st.lists(st.sampled_from(["", "A", "B", "ba", "bA"]), min_size=len(cuts), max_size=len(cuts)))
    words = [stem, stem + "a", stem[:-1]] + [stem[:k] + t for k, t in zip(cuts, tails)]
    points = list(dict.fromkeys(F2.parse(w) for w in words))
    want = reference_pairwise(F2, points, lambda g: float(F2.length(g)))
    assert F2.length_matrix(points).dtype == np.int64
    assert_same_bits(length_kernel(F2, points).entries, want)


@SETTINGS
@given(kernel_cases(), st.sampled_from([1e-9, 0.05, 0.5, 2.0, 30.0]))
def test_schoenberg_kernel_matches_pairwise_reference(case, r):
    group, points = case
    want = reference_pairwise(group, points, lambda g: math.exp(-r * group.length(g)))
    assert_same_bits(schoenberg_kernel(group, points, r).entries, want)


@SETTINGS
@given(compression_cases())
# the scaling by 2^-1 rounds the subnormal real part away: scaled back, the
# table read 1j where the coefficient is 5e-324+1j
@example((FreeGroup(1), 0, GroupRingElement(FreeGroup(1), {"": 5e-324 + 1j})))
def test_compression_matches_per_pair_reference(case):
    group, radius, f = case
    comp = table_compression(group, f, radius)
    assert comp[0] == len(group.ball(radius))
    assert_same_compression(comp, reference_compression(group, f, radius))


def test_kernel_points_shuffled_and_unreduced():
    points = ["abB", "aA", "ba", "B", "a", "bAab", "Ab"]
    for r in (0.5, 2.0):
        want = reference_pairwise(F2, points, lambda g: math.exp(-r * F2.length(g)))
        assert_same_bits(schoenberg_kernel(F2, points, r).entries, want)
    kernel = length_kernel(F2, points)
    assert kernel.entries[0, 4] == 0.0  # "abB" reduces to "a"
    assert kernel.entries[1, 4] == 1.0  # "aA" reduces to the identity


@pytest.mark.parametrize("group", [F2, Z2, CyclicGroup(9), CyclicGroup(5)], ids=repr)
def test_compression_identical_at_larger_radius(group):
    rng = np.random.default_rng(3)
    pool = group.ball(4)
    picks = rng.choice(len(pool), size=min(6, len(pool)), replace=False)
    f = GroupRingElement(group, {pool[i]: complex(rng.normal(), rng.normal()) for i in picks})
    assert_same_compression(table_compression(group, f, 5), reference_compression(group, f, 5))


# ---------------------------------------------------------------------------
# edge cases


def test_z40_radius_one_does_not_overflow():
    # 3^40 > 2^63: a mixed-radix key of whole coordinate rows would wrap
    Z40 = FreeAbelianGroup(40)
    ball = Z40.ball(1)
    assert len(ball) == 81
    gens = [tuple(sign * (k == j) for k in range(40)) for j in range(40) for sign in (1, -1)]
    f = GroupRingElement(Z40, {g: 1.0 for g in gens})
    comp = table_compression(Z40, f, 1)
    assert_same_compression(comp, reference_compression(Z40, f, 1))
    assert len(comp[1][0]) == 160  # 80 in the identity column, 80 in the identity row
    corner = [tuple([1] * 20 + [-1] * 20), tuple([-1] * 20 + [1] * 20)]
    assert length_kernel(Z40, corner).entries[0, 1] == 80.0


def test_free_product_cancels_then_lands_in_ball():
    f = GroupRingElement(F2, {"ab": 1.0})
    comp = table_compression(F2, f, 2)
    assert_same_compression(comp, reference_compression(F2, f, 2))
    index = {x: i for i, x in enumerate(F2.ball(2))}
    rows, cols, values = comp[1]
    entries = dict(zip(zip(rows.tolist(), cols.tolist()), values.tolist()))
    # "ab" * "BA" cancels fully, "ab" * "Ba" cancels one letter and regrows;
    # the table holds the coefficient 1.0 scaled by 2^-1
    assert comp[2] == 1
    assert entries[index[""], index["BA"]] == 0.5
    assert entries[index["aa"], index["Ba"]] == 0.5
    # "ab" * "aa" passes through "baa", outside the ball, and stays outside
    assert index["aa"] not in cols


def test_cap_checked_on_cached_arena():
    assert len(F2.ball(3)) == 53
    with pytest.raises(BallCapError):
        F2.ball(3, cap=52)
    with pytest.raises(BallCapError):
        opnorm_lower(F2, GroupRingElement(F2, {"a": 1.0}), 3, cap=52)


def test_mutating_a_returned_ball_changes_nothing():
    f = GroupRingElement(F2, {"a": 1.0, "B": 2.0})
    before = table_compression(F2, f, 2)
    ball = F2.ball(2)
    expected = list(ball)
    ball.reverse()
    ball.append("zzz")
    assert F2.ball(2) == expected
    after = table_compression(F2, f, 2)
    assert_same_compression(after, before)
    assert_same_compression(after, reference_compression(F2, f, 2))


@pytest.mark.parametrize("group", [F2, Z2, CyclicGroup(7)], ids=repr)
def test_arena_arrays_are_read_only(group):
    arena = group.arena(2)
    arrays = [a for a in (arena.moves, arena.coords) if a is not None]
    assert len(arrays) == 1
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 5


# ---------------------------------------------------------------------------
# free-abelian parse validation


@pytest.mark.parametrize(
    "bad", [[1.7, 0], [True, 0], [0, False], [math.nan, 0], [math.inf, 0], [-math.inf, 0], ["1", 0]]
)
def test_abelian_parse_rejects_non_integers(bad):
    with pytest.raises(GroupMismatchError):
        Z2.parse(bad)


def test_abelian_parse_accepts_integral_floats():
    assert Z2.parse([2.0, -1.0]) == (2, -1)
    assert all(type(v) is int for v in Z2.parse([2.0, -1]))


def test_ring_from_json_rejects_fractional_coordinates():
    payload = {"group": {"kind": "free-abelian", "rank": 2}, "terms": [{"elem": [1.5, -0.9], "re": 1.0}]}
    with pytest.raises(GroupMismatchError):
        ring_from_json(payload)


def test_norm_element_json_fractional_coordinates_exit_usage(capsys):
    payload = json.dumps(
        {"group": {"kind": "free-abelian", "rank": 2}, "terms": [{"elem": [1.5, -0.9], "re": 1.0, "im": 0.0}]}
    )
    code = main(["norm", "--element-json", payload, "--radius", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "coordinate" in captured.err
