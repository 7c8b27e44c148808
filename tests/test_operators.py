"""Ring arithmetic and norm brackets against dense-eigensolver oracles."""

import math

import numpy as np
import pytest

from rdmap.groups import CyclicGroup, FreeAbelianGroup, FreeGroup, GroupMismatchError
from rdmap.operators import (
    BRACKET_ROUNDING_SLACK,
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
