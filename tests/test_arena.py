"""Integer group layer: ball arenas, translations and pairwise lengths.

The per-pair builders that the integer paths replaced are kept here as
reference implementations; the integer paths must reproduce them exactly
(compression triplets and kernel entries bit for bit), not within a tolerance.
"""

import gc
import json
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rdmap.groups
from rdmap.cli import EXIT_USAGE, main
from rdmap.groups import (
    DEFAULT_BALL_CAP,
    LENGTH_CACHE_MAX_POINTS,
    LENGTH_CACHE_SIZE,
    ROW_CACHE_BYTES,
    BallCapError,
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    GroupMismatchError,
)
from rdmap.kernels import KernelMatrix, cn_check, length_kernel, schoenberg_kernel
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


def reference_row(group, radius, s):
    """Position of s * y for each y of the ball, m outside it: one product per y."""
    basis = group.ball(radius)
    index = {x: i for i, x in enumerate(basis)}
    return np.array([index.get(group.multiply(s, y), len(basis)) for y in basis], dtype=np.int64)


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


@pytest.mark.parametrize(
    "group, radius",
    [(F2, 0), (F2, 4), (FreeGroup(1), 5), (FreeGroup(3), 3), (Z2, 6), (FreeAbelianGroup(3), 3),
     (FreeAbelianGroup(1), 0), (FreeAbelianGroup(1), 60), (CyclicGroup(7), 2), (CyclicGroup(7), 3),
     (CyclicGroup(8), 4), (CyclicGroup(5), 3), (CyclicGroup(6), 10**9), (CyclicGroup(4001), 2000),
     (CyclicGroup(4000), 2000), (CyclicGroup(10**12), 50)],
    ids=repr,
)
def test_arena_lengths_are_the_word_lengths_read_only(group, radius):
    # Z/5 at radius 3, Z/8 at 4, Z/6 at 10^9, Z/4001 and Z/4000 at 2000 cover
    # the group: their last spheres are empty (Z/4000 ends on the one residue 2000)
    arena = group.arena(radius)
    assert arena.lengths.dtype == np.int64 and not arena.lengths.flags.writeable
    assert arena.lengths.tolist() == [group.length(x) for x in arena.elements]
    with pytest.raises(ValueError):
        arena.lengths[0] = 5


# Z/7 at radius 3 covers the group; Z^40 at radius 1 has rows of 320 bytes
LOCATE_CASES = [(FreeAbelianGroup(1), 4), (Z2, 10), (FreeAbelianGroup(3), 6),
                (FreeAbelianGroup(40), 1), (CyclicGroup(7), 3), (CyclicGroup(10**12), 50)]


@pytest.mark.parametrize("group, radius", LOCATE_CASES, ids=repr)
def test_locate_matches_a_dict_of_the_ball(group, radius):
    arena = group.arena(radius)
    m, d = arena.coords.shape
    want = {row: i for i, row in enumerate(map(tuple, arena.coords.tolist()))}
    rng = np.random.default_rng(d * 1000 + radius)
    inside = arena.coords[rng.permutation(m)]
    # one coordinate of each ball row moved by 1 or 2: inside, or just outside
    near = inside.copy()
    near[np.arange(m), rng.integers(0, d, m)] += rng.choice([-2, -1, 1, 2], m)
    # one coordinate, or every one, drawn up to 2^62 in size
    far = inside.copy()
    far[np.arange(m), rng.integers(0, d, m)] = rng.integers(-(2**62), 2**62, m, endpoint=True)
    far = np.concatenate([far, rng.integers(-(2**62), 2**62, (m, d), endpoint=True)])
    rows = np.concatenate([inside, near, far])
    expected = [want.get(row, m) for row in map(tuple, rows.tolist())]
    assert arena.locate(rows).tolist() == expected
    assert expected[:m] == [want[row] for row in map(tuple, inside.tolist())]
    assert expected[m:].count(m) not in (0, len(expected) - m)


# ---------------------------------------------------------------------------
# translation rows kept on the arena

# Z/7 at radius 3 covers the group, Z/11 at radius 3 does not
ROW_CASES = [(FreeGroup(1), 3), (F2, 2), (FreeAbelianGroup(1), 4), (Z2, 3), (CyclicGroup(7), 3),
             (CyclicGroup(11), 3)]


def cold_arena(group, radius):
    arena = group.arena(radius)
    arena._rows.clear()
    return arena


@pytest.mark.parametrize("group, radius", ROW_CASES, ids=repr)
def test_cached_rows_are_the_per_element_translations_shared_read_only(group, radius):
    arena = cold_arena(group, radius)
    # every word that a compression to this ball retains, and some it does not
    words = group.ball(2 * radius + 1)
    rows = [group.left_translate(arena, s) for s in words]
    for s, row in zip(words, rows):
        assert row.dtype == np.int64 and not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0
        assert_same_bits(row, reference_row(group, radius, s))
        assert group.left_translate(arena, s) is row
    assert len(arena._rows) == len(words)


@pytest.mark.parametrize("group, radius", ROW_CASES, ids=repr)
def test_scaled_tables_are_the_same_on_a_cold_and_a_warm_arena(group, radius):
    rng = np.random.default_rng(5)
    pool = group.ball(2 * radius)
    picks = rng.choice(len(pool), size=min(6, len(pool)), replace=False)
    f = GroupRingElement(group, {pool[i]: complex(rng.normal(), rng.normal()) for i in picks})
    arena = cold_arena(group, radius)
    cold = _scaled_tables(group, f, radius, DEFAULT_BALL_CAP)
    assert len(arena._rows) == len(cold[4])
    warm = _scaled_tables(group, f, radius, DEFAULT_BALL_CAP)
    assert cold[0] == warm[0] and cold[3] == warm[3] and cold[4] == warm[4]
    for a, b in zip(cold[1:3], warm[1:3]):
        assert_same_bits(a, b)
    # the tables are fresh arrays: writing into one reaches no cached row
    for row in arena._rows.values():
        assert not np.shares_memory(warm[1], row)
    assert warm[1].flags.writeable
    warm[1][:] = -1
    assert_same_bits(_scaled_tables(group, f, radius, DEFAULT_BALL_CAP)[1], cold[1])


@pytest.mark.parametrize("group, radius", ROW_CASES, ids=repr)
def test_a_full_arena_drops_its_least_recently_used_row(group, radius, monkeypatch):
    arena = cold_arena(group, radius)
    m = len(arena)
    keep = 3
    monkeypatch.setattr(rdmap.groups, "ROW_CACHE_BYTES", 8 * m * keep + 8 * m - 1)
    words = group.ball(2 * radius)[: keep + 2]
    rows = {s: group.left_translate(arena, s) for s in words[:keep]}
    # the first word is used again, so the second is now the least recent
    assert group.left_translate(arena, words[0]) is rows[words[0]]
    for s in words[keep:]:
        rows[s] = group.left_translate(arena, s)
        assert len(arena._rows) <= rdmap.groups.ROW_CACHE_BYTES // (8 * m) == keep
    assert list(arena._rows) == [words[0], words[keep], words[keep + 1]]
    again = group.left_translate(arena, words[1])
    assert again is not rows[words[1]] and not again.flags.writeable
    assert_same_bits(again, rows[words[1]])
    assert_same_bits(again, reference_row(group, radius, words[1]))
    assert list(arena._rows) == [words[keep], words[keep + 1], words[1]]


def test_threads_sharing_an_arena_get_correct_rows_and_keep_the_bound(monkeypatch):
    # more threads than cores and a short switch interval, so the unlocked
    # pop, insert and evict of concurrent callers interleave
    arena = cold_arena(F2, 2)
    keep = 3
    monkeypatch.setattr(rdmap.groups, "ROW_CACHE_BYTES", 8 * len(arena) * keep)
    words = F2.ball(3)
    want = {s: reference_row(F2, 2, s) for s in words}
    errors = []

    def work(seed):
        order = np.random.default_rng(seed).permutation(len(words))
        try:
            for i in np.tile(order, 20):
                row = F2.left_translate(arena, words[i])
                if not np.array_equal(row, want[words[i]]) or row.flags.writeable:
                    errors.append(words[i])
        except Exception as exc:  # a thread's failure must reach the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(arena._rows) <= keep
    for s, row in arena._rows.items():
        assert_same_bits(row, want[s])


def test_a_ball_too_large_for_one_row_keeps_none(monkeypatch):
    arena = cold_arena(F2, 2)
    monkeypatch.setattr(rdmap.groups, "ROW_CACHE_BYTES", 8 * len(arena) - 1)
    row = F2.left_translate(arena, "ab")
    assert not row.flags.writeable and len(arena._rows) == 0
    assert_same_bits(row, reference_row(F2, 2, "ab"))


def test_a_large_ball_keeps_at_most_its_stated_rows():
    # m = 131,073 positions: the bound lets 4 MiB of rows stay, three rows
    group, radius = CyclicGroup(10**6), 2**16
    arena = cold_arena(group, radius)
    keep = ROW_CACHE_BYTES // (8 * len(arena))
    assert keep == 3
    for s in range(1, 2 * keep + 1):
        group.left_translate(arena, s)
        assert len(arena._rows) == min(s, keep)
        assert sum(row.nbytes for row in arena._rows.values()) <= ROW_CACHE_BYTES
    assert list(arena._rows) == [keep + 1, keep + 2, 2 * keep]
    arena._rows.clear()


# ---------------------------------------------------------------------------
# shared length matrices: group kernels skip the validation they always pass


@st.composite
def far_apart_cases(draw):
    # coordinates at the int64 guard of FreeAbelianGroup.length_matrix, so the
    # l1 lengths come within 2 * rank of 2^63 - 1
    rank = draw(st.integers(1, 3))
    guard = (2**63 - 1) // (2 * rank)
    coord = st.integers(guard - 3, guard) | st.integers(-guard, 3 - guard) | st.integers(-3, 3)
    points = draw(st.lists(st.tuples(*[coord] * rank), min_size=1, max_size=12))
    return FreeAbelianGroup(rank), points


@SETTINGS
@given(kernel_cases() | far_apart_cases(), st.sampled_from([1e-18, 0.5, 30.0]))
def test_group_kernels_pass_the_validation_they_skip(case, r):
    group, points = case
    lengths = group.length_matrix(points)
    assert lengths.dtype == np.int64 and not lengths.flags.writeable
    cases = [
        (length_kernel(group, points), lambda g: float(group.length(g))),
        (schoenberg_kernel(group, points, r), lambda g: math.exp(-r * group.length(g))),
    ]
    for kernel, fn in cases:
        want = reference_pairwise(group, points, fn)
        assert_same_bits(kernel.entries, want)
        # the full check, which the group kernels skip, accepts them
        assert_same_bits(KernelMatrix(kernel.entries).entries, want)
    assert_same_bits(lengths.astype(float), cases[0][0].entries)


@pytest.mark.parametrize("group", [F2, Z2, CyclicGroup(5)], ids=repr)
def test_empty_and_repeated_points_still_raise(group):
    for call in (
        lambda: length_kernel(group, []),
        lambda: schoenberg_kernel(group, [], 0.5),
        lambda: cn_check(group, []),
    ):
        with pytest.raises(ValueError, match="at least one point"):
            call()
    with pytest.raises(ValueError, match="points must be distinct"):
        cn_check(group, group.ball(1) + [group.ball(1)[-1]])


def test_equal_point_lists_share_one_read_only_matrix():
    shared = F2.length_matrix(["aAb", "a", "BBbA"])
    assert F2.length_matrix(["b", "a", "B" + "A"]) is shared
    assert Z2.length_matrix([(1.0, 0), [-2, 3]]) is Z2.length_matrix([[1, 0], (-2, 3.0)])
    assert CyclicGroup(5).length_matrix([-1, 7]) is CyclicGroup(5).length_matrix([4, 2])
    # the same words in another group, or in another order, are another matrix
    assert FreeGroup(3).length_matrix(["b", "a", "BA"]) is not shared
    assert F2.length_matrix(["a", "b", "BA"]) is not shared
    with pytest.raises(ValueError):
        shared[0, 1] = 0
    want = reference_pairwise(F2, ["b", "a", "BA"], lambda g: float(F2.length(g)))
    assert_same_bits(shared.astype(float), want)


def test_length_cache_holds_at_most_its_stated_bytes():
    group = CyclicGroup(10 * LENGTH_CACHE_MAX_POINTS)
    # one list more than the cache keeps, each of the most points it keeps
    kept = []
    for start in range(LENGTH_CACHE_SIZE + 1):
        matrix = group.length_matrix(range(start, start + LENGTH_CACHE_MAX_POINTS))
        kept.append(weakref.ref(matrix))
    del matrix
    gc.collect()
    alive = [ref() for ref in kept if ref() is not None]
    assert len(alive) == LENGTH_CACHE_SIZE
    assert sum(a.nbytes for a in alive) <= LENGTH_CACHE_SIZE * LENGTH_CACHE_MAX_POINTS**2 * 8
    del alive
    # a list over the bound is computed on each call and not retained
    points = range(LENGTH_CACHE_MAX_POINTS + 1)
    first = group.length_matrix(points)
    assert not first.flags.writeable
    assert group.length_matrix(points) is not first
    ref = weakref.ref(first)
    del first
    gc.collect()
    assert ref() is None


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
