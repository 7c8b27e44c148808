"""Ring arithmetic and norm brackets against dense-eigensolver oracles."""

import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rdmap.operators
from rdmap.groups import CyclicGroup, FreeAbelianGroup, FreeGroup, GroupMismatchError
from rdmap.operators import (
    BRACKET_ROUNDING_SLACK,
    DEFAULT_MAX_ITERS,
    DEFAULT_POWER_TOL,
    RITZ_BLOCK,
    CompressionMatrix,
    GroupRingElement,
    NormBracket,
    RdParams,
    UnsoundBoundError,
    builtin_rd_params,
    compression_matrix,
    convolve,
    delta,
    l1_norm,
    l2_norm,
    opnorm_bracket,
    opnorm_lower,
    opnorm_upper,
    random_element,
    sobolev_norm,
    zero_element,
    _clamp_crossing,
    _free_abelian_constant,
    _power_iteration,
    _ritz_vector,
)

F2 = FreeGroup(2)
Z1 = FreeAbelianGroup(1)

KESTEN = GroupRingElement(F2, {"a": 1.0, "A": 1.0, "b": 1.0, "B": 1.0})
SHIFT_PAIR = GroupRingElement(Z1, {(1,): 1.0, (-1,): 1.0})


# ---------------------------------------------------------------------------
# oracles


def naive_convolve(g, f, h):
    """Literal double loop over the defining sum, indexed by the output point."""
    targets = {g.multiply(y, z) for y in f.terms for z in h.terms}
    out = {}
    for x in targets:
        total = 0j
        for y, fc in f.terms.items():
            total += fc * h.terms.get(g.multiply(g.inverse(y), x), 0j)
        out[x] = total
    return GroupRingElement(g, out)


def dense_compression(g, f, points):
    m = len(points)
    A = np.zeros((m, m), dtype=complex)
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            A[i, j] = f.coeff(g.multiply(x, g.inverse(y)))
    return A


def top_singular_value(A):
    return float(np.linalg.svd(A, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# ring arithmetic


def test_convolve_examples():
    assert convolve(F2, delta(F2, "a"), delta(F2, "A")).terms == {"": 1 + 0j}
    f = GroupRingElement(F2, {"ab": 2.0, "B": -1.5})
    assert convolve(F2, delta(F2, ""), f).terms == f.terms

    lhs = GroupRingElement(F2, {"a": 1.0, "b": 1.0})
    rhs = GroupRingElement(F2, {"A": 1.0, "B": 1.0})
    product = convolve(F2, lhs, rhs)
    assert product.terms == {"": 2 + 0j, "aB": 1 + 0j, "bA": 1 + 0j}


def test_convolve_group_mismatch():
    with pytest.raises(GroupMismatchError):
        convolve(F2, delta(F2, "a"), delta(FreeGroup(3), "a"))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("group", [F2, Z1, CyclicGroup(7)], ids=repr)
def test_convolve_against_naive_oracle(group, seed):
    rng = np.random.default_rng(seed)
    f = random_element(group, 3, rng)
    h = random_element(group, 3, rng)
    got = convolve(group, f, h)
    expect = naive_convolve(group, f, h)
    assert set(got.terms) == set(expect.terms)
    for k, v in expect.terms.items():
        assert got.terms[k] == pytest.approx(v, abs=1e-12)


@pytest.mark.parametrize("seed", [5, 6])
def test_convolve_associative(seed):
    rng = np.random.default_rng(seed)
    f, h, k = (random_element(F2, 2, rng) for _ in range(3))
    left = convolve(F2, convolve(F2, f, h), k)
    right = convolve(F2, f, convolve(F2, h, k))
    assert set(left.terms) == set(right.terms)
    for key in left.terms:
        assert left.terms[key] == pytest.approx(right.terms[key], abs=1e-12)


def test_element_normalization():
    f = GroupRingElement(F2, {"aAa": 1.0, "a": 2.0, "bB": 5.0})
    assert f.terms == {"": 5 + 0j, "a": 3 + 0j}
    assert GroupRingElement(F2, {"a": 1.0, "aAa": -1.0}).is_zero()
    assert f.coeff("a") == 3 + 0j
    assert f.coeff("baB") == 0j


def test_element_arithmetic():
    f = delta(F2, "a", 2.0)
    g = delta(F2, "b") + delta(F2, "a", -2.0)
    total = f + g
    assert total.terms == {"b": 1 + 0j}
    assert (f - f).is_zero()
    assert (-f).terms == {"a": -2 + 0j}
    assert f.scale(1j).terms == {"a": 2j}


# ---------------------------------------------------------------------------
# norms


def test_norm_examples():
    e = delta(F2, "")
    assert l2_norm(e) == 1.0 and l1_norm(e) == 1.0
    assert sobolev_norm(F2, e, 3.7) == 1.0

    assert l2_norm(delta(F2, "a", 3.0)) == 3.0
    assert l1_norm(delta(F2, "a", 3.0)) == 3.0
    assert sobolev_norm(F2, delta(F2, "a"), 2.0) == pytest.approx(4.0)

    two = GroupRingElement(F2, {"a": 1.0, "b": 1.0})
    assert sobolev_norm(F2, two, 1.0) == pytest.approx(math.sqrt(8.0))

    assert l2_norm(KESTEN) == pytest.approx(2.0)
    assert l1_norm(KESTEN) == pytest.approx(4.0)


def test_sobolev_requires_positive_s():
    with pytest.raises(ValueError):
        sobolev_norm(F2, delta(F2, "a"), 0.0)


# ---------------------------------------------------------------------------
# built-in decay parameters


def test_free_params():
    rd = builtin_rd_params(F2)
    assert rd.s == 2.0
    assert rd.C == pytest.approx(math.pi / math.sqrt(6.0), abs=1e-15)
    # the constant is sqrt of sum over n of (1+n)^{-2}
    assert rd.C == pytest.approx(math.sqrt(float(np.pi**2 / 6.0)), abs=1e-12)
    assert builtin_rd_params(FreeGroup(3)) == rd


def test_free_abelian_constant_summation_brackets():
    # rank 1: C^2 = 1 + sum_{n>=1} 2 (1+n)^{-2}, tail in (2/(N+2), 2/(N+1))
    N = 200_000
    partial = 1.0 + math.fsum(2.0 / (1 + n) ** 2 for n in range(1, N + 1))
    C2 = _free_abelian_constant(1) ** 2
    assert partial + 2.0 / (N + 2) <= C2 <= partial + 2.0 / (N + 1)
    assert math.sqrt(C2) == pytest.approx(math.sqrt(math.pi**2 / 3.0 - 1.0), abs=1e-14)
    assert math.sqrt(C2) == pytest.approx(1.5132310245618323, abs=1e-15)

    # rank 2: sphere size 4n, tail below integral bound 2/(N+1)^2
    N = 4000
    partial = 1.0 + math.fsum(4.0 * n / (1 + n) ** 4 for n in range(1, N + 1))
    C2 = _free_abelian_constant(2) ** 2
    assert partial < C2 <= partial + 2.0 / (N + 1) ** 2 + 1e-12

    # rank 3: sphere size 4n^2+2 <= 6(1+n)^2, tail below 2/(N+1)^3
    N = 2000
    partial = 1.0 + math.fsum((4.0 * n * n + 2) / (1 + n) ** 6 for n in range(1, N + 1))
    C2 = _free_abelian_constant(3) ** 2
    assert partial < C2 <= partial + 2.0 / (N + 1) ** 3 + 1e-12


def test_builtin_params_table():
    rd1 = builtin_rd_params(Z1)
    assert rd1.s == 1.0
    assert rd1.C == pytest.approx(1.5132310245618323, abs=1e-15)
    rd5 = builtin_rd_params(CyclicGroup(5))
    assert rd5.C == pytest.approx(math.sqrt(5.0))
    assert rd5.s > 0


def test_rd_params_validation():
    with pytest.raises(ValueError):
        RdParams(C=0.0, s=1.0)
    with pytest.raises(ValueError):
        RdParams(C=1.0, s=-2.0)


# ---------------------------------------------------------------------------
# compressions


def test_compression_identity():
    comp = compression_matrix(F2, delta(F2, ""), 2)
    assert comp.size == 17
    assert np.array_equal(comp.entries.toarray(), np.eye(17, dtype=complex))


def test_compression_shift_pair_is_path_adjacency():
    comp = compression_matrix(Z1, SHIFT_PAIR, 10)
    assert comp.size == 21
    order = np.argsort([p[0] for p in comp.basis])
    A = comp.entries.toarray()[np.ix_(order, order)]
    expected = np.zeros((21, 21), dtype=complex)
    expected[np.arange(20), np.arange(1, 21)] = 1.0
    expected[np.arange(1, 21), np.arange(20)] = 1.0
    assert np.array_equal(A, expected)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("group", [F2, Z1, CyclicGroup(9)], ids=repr)
def test_compression_entries_match_definition(group, seed):
    rng = np.random.default_rng(seed)
    f = random_element(group, 2, rng)
    comp = compression_matrix(group, f, 3)
    assert comp.entries.nnz <= len(f.terms) * comp.size
    assert np.array_equal(
        comp.entries.toarray(), dense_compression(group, f, comp.basis)
    )


# ---------------------------------------------------------------------------
# norm bounds


def test_opnorm_lower_point_mass():
    for radius in (0, 1, 3):
        assert opnorm_lower(F2, delta(F2, "ab"), radius) == pytest.approx(1.0, abs=1e-12)


def test_opnorm_lower_path_formula():
    value = opnorm_lower(Z1, SHIFT_PAIR, 10)
    assert value == pytest.approx(2.0 * math.cos(math.pi / 22.0), abs=1e-8)
    assert value <= 2.0


def test_opnorm_lower_matches_dense_svd():
    rng = np.random.default_rng(11)
    for group in (F2, Z1, CyclicGroup(8)):
        f = random_element(group, 2, rng)
        comp = compression_matrix(group, f, 3)
        oracle = top_singular_value(comp.entries.toarray())
        got = opnorm_lower(group, f, 3)
        assert got == pytest.approx(max(oracle, l2_norm(f)), abs=1e-7)
        assert got <= max(oracle, l2_norm(f)) + 1e-9


def test_opnorm_lower_monotone_in_radius():
    values = [opnorm_lower(F2, KESTEN, radius) for radius in range(2, 7)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9
    assert values[-1] > 3.2


def test_opnorm_lower_dominates_l2():
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = random_element(F2, 3, rng)
        assert opnorm_lower(F2, f, 2) >= l2_norm(f) - 1e-9


def test_opnorm_lower_zero_and_determinism():
    assert opnorm_lower(F2, zero_element(F2), 3) == 0.0
    a = opnorm_lower(F2, KESTEN, 4, seed=7)
    b = opnorm_lower(F2, KESTEN, 4, seed=7)
    assert a == b


def test_opnorm_upper_examples():
    rd = builtin_rd_params(F2)
    assert opnorm_upper(F2, delta(F2, ""), rd) == 1.0
    assert sobolev_norm(F2, KESTEN, 2.0) == pytest.approx(8.0)
    assert opnorm_upper(F2, KESTEN, rd) == pytest.approx(4.0)

    rd1 = builtin_rd_params(Z1)
    assert opnorm_upper(Z1, SHIFT_PAIR, rd1) == pytest.approx(2.0)
    assert rd1.C * sobolev_norm(Z1, SHIFT_PAIR, rd1.s) > 2.0


def test_bracket_point_and_zero():
    rd = builtin_rd_params(F2)
    b = opnorm_bracket(F2, delta(F2, "a"), rd, 2)
    assert b.lower == pytest.approx(1.0, abs=1e-10)
    assert b.upper == pytest.approx(1.0)
    assert b.lower <= b.upper
    assert b.lower_ball_radius == 2

    z = opnorm_bracket(F2, zero_element(F2), rd, 2)
    assert (z.lower, z.upper) == (0.0, 0.0)
    assert z.width == 0.0


def test_bracket_contains_kesten_norm():
    rd = builtin_rd_params(F2)
    bracket = opnorm_bracket(F2, KESTEN, rd, 6)
    true_norm = 2.0 * math.sqrt(3.0)
    assert bracket.lower <= true_norm <= bracket.upper
    assert bracket.lower > 3.2
    assert bracket.upper == pytest.approx(4.0)


def test_bracket_contains_shift_pair_norm():
    rd = builtin_rd_params(Z1)
    bracket = opnorm_bracket(Z1, SHIFT_PAIR, rd, 10)
    assert bracket.lower <= 2.0 <= bracket.upper
    assert bracket.upper == pytest.approx(2.0)


def test_bracket_with_unsound_constant_raises():
    # C = 0.01 makes C * Sobolev = 0.08, far below the true norm 2 sqrt(3)
    with pytest.raises(UnsoundBoundError) as info:
        opnorm_bracket(F2, KESTEN, RdParams(C=0.01, s=2.0), 6)
    assert info.value.upper == pytest.approx(0.08)
    assert info.value.lower > 3.2


def test_clamp_crossing_slack():
    assert _clamp_crossing(0.5, 1.0, 1.0) == 0.5
    one_ulp = math.nextafter(1.0, 2.0)
    assert _clamp_crossing(one_ulp, 1.0, 1.0) == 1.0
    beyond = 1.0 + 2 * BRACKET_ROUNDING_SLACK
    with pytest.raises(UnsoundBoundError) as info:
        _clamp_crossing(beyond, 1.0, 1.0)
    assert (info.value.lower, info.value.upper) == (beyond, 1.0)


def test_norm_bracket_validation():
    with pytest.raises(ValueError):
        NormBracket(lower=2.0, upper=1.0, lower_ball_radius=3, iterations=5)
    with pytest.raises(ValueError):
        NormBracket(lower=-0.5, upper=1.0, lower_ball_radius=3, iterations=5)


@pytest.mark.parametrize("seed", [0, 4])
def test_operational_norm_meaning(seed):
    # ||f * h||_2 <= upper(f) * ||h||_2 for the certified upper bound
    rng = np.random.default_rng(seed)
    rd = builtin_rd_params(F2)
    for _ in range(8):
        f = random_element(F2, 2, rng)
        h = random_element(F2, 2, rng)
        assert l2_norm(convolve(F2, f, h)) <= opnorm_upper(F2, f, rd) * l2_norm(h) + 1e-9


@pytest.mark.parametrize(
    "group", [F2, Z1, FreeAbelianGroup(2), CyclicGroup(6)], ids=repr
)
def test_rd_soundness_sample(group):
    rd = builtin_rd_params(group)
    rng = np.random.default_rng(99)
    for _ in range(30):
        f = random_element(group, 3, rng)
        assert opnorm_lower(group, f, 4) <= rd.C * sobolev_norm(group, f, rd.s) + 1e-9


def test_random_element_reproducible():
    a = random_element(F2, 3, np.random.default_rng(42))
    b = random_element(F2, 3, np.random.default_rng(42))
    assert a.terms == b.terms
    assert not a.is_zero()
    assert all(F2.length(x) <= 3 for x in a.support)


# ---------------------------------------------------------------------------
# the Ritz-restarted solver against exact oracles

EPS = sys.float_info.epsilon
SOLVER_SETTINGS = settings(max_examples=60, deadline=None)


def fourier_moduli(f):
    """Moduli of the Fourier transform of f on Z/m; the largest is its norm."""
    vec = np.zeros(f.group.order, dtype=complex)
    for x, c in f.terms.items():
        vec[x] = c
    return np.abs(np.fft.fft(vec))


def cyclic_oracle(f):
    return float(fourier_moduli(f).max())


def solve(M, max_iters=DEFAULT_MAX_ITERS, tol=DEFAULT_POWER_TOL):
    return _power_iteration(sp.csr_matrix(np.asarray(M, dtype=complex)), max_iters, tol)


@st.composite
def small_compressions(draw):
    family = draw(st.sampled_from(["free", "abelian", "cyclic"]))
    if family == "free":
        group = FreeGroup(draw(st.integers(1, 2)))
        word = st.text(alphabet=group.letters, max_size=3)
    elif family == "abelian":
        group = FreeAbelianGroup(draw(st.integers(1, 2)))
        word = st.tuples(*[st.integers(-3, 3)] * group.rank)
    else:
        group = CyclicGroup(draw(st.integers(2, 12)))
        word = st.integers(0, group.order - 1)
    terms = draw(
        st.dictionaries(
            word.map(group.parse),
            st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=6,
        )
    )
    return group, draw(st.integers(0, 3)), GroupRingElement(group, terms)


@SOLVER_SETTINGS
@given(small_compressions())
def test_solver_never_exceeds_dense_svd(case):
    group, radius, f = case
    comp = compression_matrix(group, f, radius)
    exact = top_singular_value(comp.entries.toarray()) if comp.entries.nnz else 0.0
    value, iters, _ = _power_iteration(comp.entries, DEFAULT_MAX_ITERS, DEFAULT_POWER_TOL)
    assert value <= exact * (1 + 8 * EPS)
    assert 0 <= iters <= DEFAULT_MAX_ITERS
    assert opnorm_lower(group, f, radius) <= max(exact, l2_norm(f)) * (1 + 8 * EPS)


@st.composite
def covered_cyclic_elements(draw):
    group = CyclicGroup(draw(st.integers(2, 64)))
    terms = draw(
        st.dictionaries(
            st.integers(0, group.order - 1),
            st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
            min_size=1,
            max_size=6,
        )
    )
    return GroupRingElement(group, terms)


@SOLVER_SETTINGS
@given(covered_cyclic_elements())
def test_covering_ball_reaches_the_fourier_norm(f):
    # a ball of radius order // 2 is the whole group, so its compression is
    # the full circulant and its top singular value the exact norm
    moduli = fourier_moduli(f)
    exact = float(moduli.max())
    lower = opnorm_lower(f.group, f, f.group.order // 2, tol=1e-13)
    assert lower <= exact * (1 + 8 * EPS)
    # the rate of convergence follows the relative gap below the top
    # singular value (equal moduli form one eigenspace), and the tolerance
    # bounds the change between steps, not the distance to the norm; with
    # a gap of 1e-3 and a change below 1e-13 the run must be within 1e-9
    below = moduli[moduli < exact * (1 - 1e-12)]
    assume(below.size == 0 or (exact - below.max()) / exact >= 1e-3)
    assert lower == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize(
    "m", sorted({1, 2, 3, RITZ_BLOCK - 1, RITZ_BLOCK, RITZ_BLOCK + 1, 2 * RITZ_BLOCK + 1})
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solver_sizes_around_the_block(m, seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    exact = top_singular_value(M)
    value, iters, rel = solve(M)
    assert value <= exact * (1 + 8 * EPS)
    assert value == pytest.approx(exact, rel=1e-9)
    assert rel <= DEFAULT_POWER_TOL and iters < DEFAULT_MAX_ITERS


@pytest.mark.parametrize("order", [2, 3, RITZ_BLOCK - 1, RITZ_BLOCK])
def test_small_cyclic_groups_match_fourier(order):
    # at most RITZ_BLOCK distinct eigenvalues: the first restart lands on
    # the top eigenvector up to rounding
    group = CyclicGroup(order)
    f = GroupRingElement(group, {1: 1.0, 0: 0.5j})
    lower = opnorm_lower(group, f, order // 2)
    assert lower <= cyclic_oracle(f) * (1 + 8 * EPS)
    assert lower == pytest.approx(cyclic_oracle(f), rel=1e-12)


def test_every_start_is_an_eigenvector():
    # B = A^H A is the identity for a unitary A, so every iterate is an
    # eigenvector and each Ritz block has a rank-1 Gram matrix; a negative
    # tolerance never stops, so the run passes through two restarts
    perm = np.roll(np.eye(6), 1, axis=0) * 1j
    value, iters, rel = solve(perm, max_iters=2 * RITZ_BLOCK + 1, tol=-1.0)
    assert value == pytest.approx(1.0, abs=4 * EPS)
    assert iters == 2 * RITZ_BLOCK + 1
    assert rel <= 4 * EPS


def test_ritz_vector_of_a_rank_one_block():
    v = np.array([1.0, 1j, -1.0]) / math.sqrt(3.0)
    iterates = np.tile(v, (RITZ_BLOCK + 1, 1))
    y = _ritz_vector(iterates, np.full(RITZ_BLOCK, 4.0))
    assert np.linalg.norm(y) == pytest.approx(1.0, abs=4 * EPS)
    assert abs(np.vdot(v, y)) == pytest.approx(1.0, abs=4 * EPS)


def test_ritz_vector_maximizes_the_rayleigh_quotient():
    rng = np.random.default_rng(5)
    B = np.diag([9.0, 4.0, 1.0, 0.5, 0.25, 0.1])
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    iterates = np.empty((RITZ_BLOCK + 1, 6), dtype=complex)
    gains = np.empty(RITZ_BLOCK)
    iterates[0] = v / np.linalg.norm(v)
    for j in range(RITZ_BLOCK):
        u = B @ iterates[j]
        gains[j] = np.linalg.norm(u)
        iterates[j + 1] = u / gains[j]
    y = _ritz_vector(iterates, gains)
    # the Ritz value of the span beats every iterate in it and sits at the
    # top eigenvalue up to rounding
    ritz = float(np.vdot(y, B @ y).real)
    assert ritz > max(float(np.vdot(x, B @ x).real) for x in iterates[:RITZ_BLOCK])
    assert ritz == pytest.approx(9.0, rel=1e-9) and ritz <= 9.0 * (1 + 8 * EPS)


def test_capped_run_returns_best_value_seen(monkeypatch):
    M = np.diag([2.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    reached, iters, _ = solve(M, max_iters=RITZ_BLOCK, tol=0.0)
    assert iters == RITZ_BLOCK and 1.0 < reached < 2.0
    # a restart onto the bottom of the spectrum makes the last value the
    # smallest; the capped run still reports the best one before it
    bottom = np.eye(6, dtype=complex)[5]
    monkeypatch.setattr(rdmap.operators, "_ritz_vector", lambda it, g: bottom)
    value, iters, rel = solve(M, max_iters=RITZ_BLOCK + 1, tol=0.0)
    assert (value, iters) == (reached, RITZ_BLOCK + 1)
    assert rel == pytest.approx(reached - 1.0)


def test_capped_values_grow_with_the_cap():
    rng = np.random.default_rng(9)
    M = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    values = [solve(M, max_iters=n, tol=0.0)[0] for n in range(1, 3 * RITZ_BLOCK + 2)]
    assert values == sorted(values)
    assert values[-1] <= top_singular_value(M) * (1 + 8 * EPS)


# ---------------------------------------------------------------------------
# exact power-of-two rescaling


@pytest.mark.parametrize("k", [-560, -470, 510])
def test_bracket_scales_by_powers_of_two_exactly(k):
    rd = builtin_rd_params(F2)
    base = opnorm_bracket(F2, KESTEN, rd, 4)
    scaled = opnorm_bracket(F2, KESTEN.scale(math.ldexp(1.0, k)), rd, 4)
    assert scaled.lower == math.ldexp(base.lower, k)
    assert scaled.upper == math.ldexp(base.upper, k)
    assert (scaled.iterations, scaled.achieved_tol) == (base.iterations, base.achieved_tol)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.text(alphabet="aAbB", max_size=3),
        st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
        min_size=1,
        max_size=5,
    ),
    st.integers(-600, 600),
)
def test_norms_scale_by_powers_of_two_exactly(raw, k):
    f = GroupRingElement(F2, {w: complex(a, b) / 4 for w, (a, b) in raw.items()})
    assume(not f.is_zero())
    g = f.scale(math.ldexp(1.0, k))
    assert l2_norm(g) == math.ldexp(l2_norm(f), k)
    assert l1_norm(g) == math.ldexp(l1_norm(f), k)
    assert sobolev_norm(F2, g, 2.0) == math.ldexp(sobolev_norm(F2, f, 2.0), k)
    assert opnorm_lower(F2, g, 3) == math.ldexp(opnorm_lower(F2, f, 3), k)


@pytest.mark.parametrize("c", [1e-170, 1e-140, 1e153])
def test_extreme_magnitudes_keep_a_sound_bracket(c):
    # squares of these coefficients underflow or overflow without rescaling
    rd = builtin_rd_params(F2)
    base = opnorm_bracket(F2, KESTEN, rd, 4)
    bracket = opnorm_bracket(F2, KESTEN.scale(c), rd, 4)
    assert bracket.lower <= 2.0 * math.sqrt(3.0) * c <= bracket.upper
    assert bracket.lower == pytest.approx(base.lower * c, rel=1e-12)
    assert bracket.upper == pytest.approx(4.0 * c, rel=4 * EPS)
