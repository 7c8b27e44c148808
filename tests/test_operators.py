"""Ring arithmetic and norm brackets against dense-eigensolver oracles."""

import itertools
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rdmap.operators
from rdmap.groups import (
    DEFAULT_BALL_CAP,
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    GroupMismatchError,
)
from rdmap.multipliers import table_multiplier
from rdmap.operators import (
    BRACKET_ROUNDING_SLACK,
    DEFAULT_MAX_ITERS,
    DEFAULT_POWER_TOL,
    DIRECT_SOLVE_MAX,
    NORM_CHUNK,
    RITZ_BLOCK,
    TABLE_PRODUCT_MAX,
    GroupRingElement,
    NormBracket,
    RdParams,
    UnsoundBoundError,
    builtin_rd_params,
    convolve,
    delta,
    l1_norm,
    l2_norm,
    opnorm_bracket,
    opnorm_lower,
    opnorm_upper,
    random_element,
    sobolev_norm,
    _character_norm,
    _clamp_crossing,
    _csr_products,
    _dense_top_singular,
    _free_abelian_constant,
    _power_iteration,
    _norm,
    _ritz_vector,
    _scale_into,
    _scaled_tables,
    _table_products,
    _triplets,
    _zeta_minus_one,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rdmap.operators.__file__)))

F2 = FreeGroup(2)
Z1 = FreeAbelianGroup(1)

KESTEN = GroupRingElement(F2, {"a": 1.0, "A": 1.0, "b": 1.0, "B": 1.0})
SHIFT_PAIR = GroupRingElement(Z1, {(1,): 1.0, (-1,): 1.0})


def times(f, c):
    """The element c * f."""
    return GroupRingElement(f.group, {k: c * v for k, v in f.terms.items()})


def bracket_lower(group, f, radius, **solver):
    """The lower end of a bracket under the given solver settings."""
    return opnorm_bracket(group, f, builtin_rd_params(group), radius, **solver).lower


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


def translate_compression(g, f, points):
    """The same matrix read column by column: column y holds f(s) at row s y."""
    index = {x: i for i, x in enumerate(points)}
    A = np.zeros((len(points), len(points)), dtype=complex)
    for j, y in enumerate(points):
        for s, c in f.terms.items():
            i = index.get(g.multiply(s, y))
            if i is not None:
                A[i, j] += c
    return A


def top_singular_value(A):
    return float(np.linalg.svd(A, compute_uv=False)[0])


def assert_table_holds(g, f, radius, A):
    """The translation table the solvers read holds exactly the nonzero entries of A."""
    m, targets, coeffs, e, _ = _scaled_tables(g, f, radius, DEFAULT_BALL_CAP)
    rows, cols, values = _triplets(targets, coeffs * math.ldexp(1.0, e))
    assert A.shape == (m, m)
    assert len(values) <= len(f.terms) * m
    assert np.count_nonzero(A) == len(values)
    assert np.array_equal(A[rows, cols], values)


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


# ---------------------------------------------------------------------------
# norms


def test_norm_examples():
    e = delta(F2, "")
    assert l2_norm(e) == 1.0 and l1_norm(e) == 1.0
    assert sobolev_norm(F2, e, 3.7) == 1.0

    assert l2_norm(GroupRingElement(F2, {"a": 3.0})) == 3.0
    assert l1_norm(GroupRingElement(F2, {"a": 3.0})) == 3.0
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


def lattice_sphere_size(d, n):
    """Points of Z^d at l1 distance n >= 1: sum over j of 2^j C(d, j) C(n-1, j-1)."""
    return sum(2**j * math.comb(d, j) * math.comb(n - 1, j - 1) for j in range(1, d + 1))


def test_free_abelian_constant_is_never_below_the_lattice_sum():
    # C^2 = 1 + sum_{n >= 1} S_d(n) (1 + n)^(-2d), summed by mpmath at 40
    # digits straight from the sphere sizes, with no zeta values; a float
    # combination of scipy zeta values falls below it at d = 8, 10, 11, 32, 40
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for d in range(1, 41):
            tail = mp.nsum(lambda n: lattice_sphere_size(d, int(n)) / (n + 1) ** (2 * d), [1, mp.inf])
            exact = mp.sqrt(1 + tail)
            C = _free_abelian_constant(d)
            assert exact <= C <= exact * (1 + mp.mpf("1e-14")), d


def reference_free_abelian_constant(d):
    """The constant as first written: the sphere polynomial in rationals.

    O(d^3) Fraction products (about 1 s at d = 80); the library builds the
    same rationals as integers over (d-1)!, so C must match to the bit.
    """

    def poly_mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    poly = [Fraction(0)] * d
    for j in range(1, d + 1):
        term = [Fraction(1)]
        for t in range(1, j):
            term = poly_mul(term, [Fraction(-t), Fraction(1)])
        scale = Fraction(2**j * math.comb(d, j), math.factorial(j - 1))
        for i, c in enumerate(term):
            poly[i] += scale * c
    shifted = [Fraction(0)] * len(poly)
    for i, c in enumerate(poly):
        for k in range(i + 1):
            shifted[k] += c * math.comb(i, k) * (-1) ** (i - k)
    tails = [Fraction(_zeta_minus_one(2 * d - i)) for i in range(len(shifted))]
    total = 1 + sum(a * z for a, z in zip(shifted, tails))
    total += 2 * Fraction(sys.float_info.epsilon) * sum(abs(a) * z for a, z in zip(shifted, tails))
    square = math.nextafter(float(total), math.inf)
    return math.nextafter(math.sqrt(square), math.inf)


def test_free_abelian_constant_matches_the_rational_reference():
    for d in range(1, 61):
        assert _free_abelian_constant(d) == reference_free_abelian_constant(d), d


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
    with pytest.raises(ValueError, match="constant C must be positive and finite, got inf"):
        RdParams(C=math.inf, s=1.0)


@pytest.mark.parametrize(
    "terms",
    [{"a": math.nan}, {"a": complex(1.0, -math.inf)}, {"a": 1e308, "aaA": 1e308}],
    ids=["nan", "-inf", "merged-overflow"],
)
def test_ring_element_rejects_non_finite_coefficients(terms):
    # "aaA" reduces to "a": the two finite coefficients merge to inf
    with pytest.raises(ValueError, match="non-finite coefficient"):
        GroupRingElement(F2, terms)


@pytest.mark.parametrize("coeff", ["1.5", " 3 ", True, False, None, b"1", [1.0]], ids=repr)
def test_ring_element_coefficients_must_be_numbers(coeff):
    # complex() reads the first four (False as a zero term); ring_from_json
    # refuses them, and so does every other entry point now
    with pytest.raises(ValueError, match=r"coefficient .* of term 'ab' is not a number"):
        GroupRingElement(F2, {"ab": coeff})
    with pytest.raises(ValueError, match="term 'ab'"):
        table_multiplier(F2, {"ab": coeff})


@pytest.mark.parametrize(
    "coeff,value",
    [
        (3, 3),
        (np.float64(1.5), 1.5),
        (np.int64(-2), -2),
        (np.complex128(1 - 2j), 1 - 2j),
        (Fraction(1, 4), 0.25),
        (Decimal("0.5"), 0.5),
    ],
    ids=repr,
)
def test_ring_element_takes_every_number(coeff, value):
    assert GroupRingElement(F2, {"a": coeff}).terms == {"a": complex(value)}


# ---------------------------------------------------------------------------
# compressions


def test_compression_identity():
    A = dense_compression(F2, delta(F2, ""), F2.ball(2))
    assert np.array_equal(A, np.eye(17, dtype=complex))
    assert_table_holds(F2, delta(F2, ""), 2, A)


def test_compression_shift_pair_is_path_adjacency():
    A = dense_compression(Z1, SHIFT_PAIR, Z1.ball(10))
    assert_table_holds(Z1, SHIFT_PAIR, 10, A)
    order = np.argsort([p[0] for p in Z1.ball(10)])
    expected = np.zeros((21, 21), dtype=complex)
    expected[np.arange(20), np.arange(1, 21)] = 1.0
    expected[np.arange(1, 21), np.arange(20)] = 1.0
    assert np.array_equal(A[np.ix_(order, order)], expected)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("group", [F2, Z1, CyclicGroup(9)], ids=repr)
def test_compression_entries_match_definition(group, seed):
    rng = np.random.default_rng(seed)
    f = random_element(group, 2, rng)
    A = dense_compression(group, f, group.ball(3))
    assert_table_holds(group, f, 3, A)
    assert np.array_equal(translate_compression(group, f, group.ball(3)), A)


# ---------------------------------------------------------------------------
# norm bounds


def test_opnorm_lower_point_mass():
    for radius in (0, 1, 3):
        assert opnorm_lower(F2, delta(F2, "ab"), radius) == pytest.approx(1.0, abs=1e-12)


def test_opnorm_lower_path_formula():
    value = opnorm_lower(Z1, SHIFT_PAIR, 10)
    assert value == pytest.approx(2.0 * math.cos(math.pi / 22.0), abs=1e-8)
    assert value <= 2.0


def test_huge_cyclic_group_brackets_on_its_small_ball():
    # the ball of radius 3 holds 7 of the 10^12 residues and is enumerated
    # without scanning the others; its compression is the path on 7 vertices
    group = CyclicGroup(10**12)
    f = GroupRingElement(group, {1: 1.0, -1: 1.0})
    bracket = opnorm_bracket(group, f, builtin_rd_params(group), 3)
    assert bracket.lower == pytest.approx(2.0 * math.cos(math.pi / 8.0), abs=1e-12)
    assert bracket.upper == 2.0


def test_cyclic_translation_stays_in_int64_near_its_limit():
    # residue plus shift passes 2^63 for the order 2^63 - 1; the compression
    # is still the path on the 9 residues of length <= 4
    group = CyclicGroup(2**63 - 1)
    f = GroupRingElement(group, {1: 1.0, -1: 1.0})
    bracket = opnorm_bracket(group, f, builtin_rd_params(group), 4)
    assert bracket.lower == pytest.approx(2.0 * math.cos(math.pi / 10.0), abs=1e-12)


def test_opnorm_lower_matches_dense_svd():
    rng = np.random.default_rng(11)
    for group in (F2, Z1, CyclicGroup(8)):
        f = random_element(group, 2, rng)
        oracle = top_singular_value(dense_compression(group, f, group.ball(3)))
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
    assert opnorm_lower(F2, GroupRingElement(F2, {}), 3) == 0.0
    a = bracket_lower(F2, KESTEN, 4, seed=7)
    b = bracket_lower(F2, KESTEN, 4, seed=7)
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

    z = opnorm_bracket(F2, GroupRingElement(F2, {}), rd, 2)
    assert (z.lower, z.upper) == (0.0, 0.0)


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
    assert all(F2.length(x) <= 3 for x in a.terms)


# ---------------------------------------------------------------------------
# the Ritz-restarted solver against exact oracles

EPS = sys.float_info.epsilon
SOLVER_SETTINGS = settings(max_examples=60, deadline=None)


def cyclic_oracle(f):
    """The norm of f on Z/m: the largest modulus of its Fourier transform.

    The coefficients are scaled by a power of two first (exactly, one part
    at a time), so subnormal ones keep their digits through the transform.
    """
    _, e = math.frexp(max(abs(c) for c in f.terms.values()))
    vec = np.zeros(f.group.order, dtype=complex)
    for x, c in f.terms.items():
        vec[x] = complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e))
    return math.ldexp(float(np.abs(np.fft.fft(vec)).max()), e)


def abelianization(group, s):
    """The exponent sum of each generator in a free word, the coordinates of
    a point of Z^d."""
    if isinstance(group, FreeGroup):
        generators = "abcdefghijklmnopqrstuvwxyz"[: group.rank]
        return [sum((c == x) - (c == x.upper()) for c in s) for x in generators]
    return list(s)


def phases_absorbable(group, f, radius):
    """Whether a phase and a character of the group turn every coefficient of
    f that enters its compression to the ball of `radius` (support elements
    of length at most 2 radius) positive: on a free group or Z^d, exactly
    when the vectors (1, ab(s)) have full row rank; never on Z/m."""
    if isinstance(group, CyclicGroup):
        return False
    rows = [[1, *abelianization(group, s)] for s in f.terms if group.length(s) <= 2 * radius]
    return np.linalg.matrix_rank(np.array(rows, dtype=float)) == len(rows)


def iterated_coeffs(group, f, radius, coeffs):
    """The coefficients the power iteration runs on, as _opnorm_lower_info
    takes them on a ball that does not cover a cyclic group: real where
    every imaginary part is zero, and negated where those real parts are
    all nonpositive, else their moduli where a character absorbs their
    phases."""
    if not coeffs.imag.any():
        return -coeffs.real if (coeffs.real <= 0).all() else coeffs.real
    return np.abs(coeffs) if phases_absorbable(group, f, radius) else coeffs


def iterated_element(group, f, radius, coeffs):
    """The element whose compression the power iteration runs on, for the
    coefficients `coeffs` of f's compressed support: -f or |f| where
    iterated_coeffs negates or takes moduli, else f itself."""
    if not coeffs.imag.any() and (coeffs.real <= 0).all():
        return times(f, -1.0)
    if coeffs.imag.any() and phases_absorbable(group, f, radius):
        return GroupRingElement(group, {x: abs(c) for x, c in f.terms.items()})
    return f


def starts_positive(coeffs):
    """Whether the power iteration on these iterated coefficients starts
    from the positive unit vector: exactly where they are real and
    nonnegative, which makes every entry of the compression nonnegative."""
    return coeffs.dtype == float and bool((coeffs >= 0).all())


def start_seed(coeffs, seed):
    """The seed _opnorm_lower_info hands the power iteration on these iterated
    coefficients: None, the positive start, where starts_positive, else seed."""
    return None if starts_positive(coeffs) else seed


def normal_range(f):
    """(f * 2^-top, top) where every coefficient part of f is subnormal, else
    (f, 0): the element whose lower bound opnorm_lower computes."""
    parts = (max(abs(c.real), abs(c.imag)) for c in f.terms.values())
    top = math.frexp(max(parts, default=1.0))[1]
    if top >= sys.float_info.min_exp:
        return f, 0
    scaled = {x: complex(math.ldexp(c.real, -top), math.ldexp(c.imag, -top)) for x, c in f.terms.items()}
    return GroupRingElement(f.group, scaled), top


def scaled_back(lower, top):
    """lower * 2^top, one step down where that rounded up, as opnorm_lower reports it."""
    value = math.ldexp(lower, top)
    return math.nextafter(value, 0.0) if math.ldexp(value, -top) > lower else value


def coefficients(draw):
    """Complex coefficients up to 10 in modulus, or, on half the draws, real ones."""
    if draw(st.booleans()):
        return st.floats(-10.0, 10.0).map(complex)
    return st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


def solve(M, max_iters=DEFAULT_MAX_ITERS, tol=DEFAULT_POWER_TOL):
    A = np.asarray(M, dtype=complex)
    return _power_iteration(len(A), (A.__matmul__, A.conj().T.__matmul__), max_iters, tol)


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
    terms = draw(st.dictionaries(word.map(group.parse), coefficients(draw), min_size=1, max_size=6))
    return group, draw(st.integers(0, 3)), GroupRingElement(group, terms)


def decided_top_singular_value(A, claimed):
    """Top singular value of A, to decide whether `claimed` exceeds it by 8 ulps.

    numpy's SVD is itself off by several ulps near a double singular value
    (14 below the exact value in the @example of the test below).  Where
    `claimed` lies above numpy's value by more than 8 ulps, the value comes
    from mpmath's SVD at 40 digits instead.  That takes milliseconds at
    5 x 5 but seconds at 53 x 53, so it runs only as this fallback.
    """
    exact = top_singular_value(A)
    if claimed <= exact * (1 + 8 * EPS):
        return exact
    with mpmath.workdps(40):
        return float(max(mpmath.svd_c(mpmath.matrix(A.tolist()), compute_uv=False)))


@SOLVER_SETTINGS
@given(small_compressions())
# the direct solve reads 4.00000000000007 (the exact value to 0.16 ulp),
# numpy's SVD 14 ulps less
@example((FreeGroup(1), 2, GroupRingElement(FreeGroup(1), {"": 4.0, "A": 8.085682836131311e-14})))
def test_solver_never_exceeds_dense_svd(case):
    group, radius, f = case
    A = dense_compression(group, f, group.ball(radius))
    m, targets, coeffs, e, _ = _scaled_tables(group, f, radius, DEFAULT_BALL_CAP)
    coeffs = iterated_coeffs(group, f, radius, coeffs)
    products = _csr_products(m, targets, coeffs)
    value, iters, _ = _power_iteration(
        m, products, DEFAULT_MAX_ITERS, DEFAULT_POWER_TOL, start_seed(coeffs, 0), coeffs.dtype
    )
    value = math.ldexp(value, e)
    lower = opnorm_lower(group, f, radius)
    # a lower bound above the l2 floor is a solver value too
    exact = decided_top_singular_value(A, max(value, lower) if lower > l2_norm(f) else value)
    assert value <= exact * (1 + 8 * EPS)
    assert 0 <= iters <= DEFAULT_MAX_ITERS
    assert lower <= max(exact, l2_norm(f)) * (1 + 8 * EPS)


@st.composite
def covered_cyclic_elements(draw):
    group = CyclicGroup(draw(st.integers(2, 300)))
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
# on Z/43 the power iteration stopped 2.5e-7 (relative) below this norm
@example(GroupRingElement(CyclicGroup(43), {1: 1j, 2: 0.015625 - 5j}))
# the power iteration stopped 2.3e-6 below this norm after 3,984 steps
@example(GroupRingElement(CyclicGroup(4001), {1: 1.0, 4000: 1.0, 7: 0.5j}))
# 3 x 2749 table entries, the CSR regime; the norm is the l1 bound
@example(GroupRingElement(CyclicGroup(2749), {1: 1.0, 2748: 1.0, 7: 0.5}))
# the power iteration from the top character ended 8.2 ulps above the l1
# bound, beyond the rounding slack of the bracket
@example(GroupRingElement(CyclicGroup(295), {0: 4.3901804568241}))
@example(GroupRingElement(CyclicGroup(97), {3: 1e-300, 40: 2e-300j, 41: -1e-300}))
@example(GroupRingElement(CyclicGroup(97), {3: 1e-320, 40: 2e-320j, 41: -1e-320}))
@example(GroupRingElement(CyclicGroup(97), {3: 1e300, 40: 2e300j, 41: -1e300}))
def test_covering_ball_reaches_the_fourier_norm(f):
    # a ball of radius order // 2 is the whole group, so its compression is
    # the full circulant and its top singular value the exact norm; orders
    # up to DIRECT_SOLVE_MAX are solved by eigh, larger ones on their top
    # character, both without iterating and to within a few ulps
    exact = cyclic_oracle(f)
    bracket = opnorm_bracket(f.group, f, builtin_rd_params(f.group), f.group.order // 2)
    assert bracket.iterations == 0
    # a subnormal norm is bracketed in normal range and rounded outward onto
    # the subnormal grid, which can put the lower end one step of it below
    assert min(exact * (1 - 8 * EPS), exact - math.ulp(0.0)) <= bracket.lower
    assert bracket.lower <= exact * (1 + 8 * EPS)


@st.composite
def directly_solved_compressions(draw):
    """free(2) up to radius 3 (53 elements) and Z^2 up to radius 5 (61)."""
    if draw(st.booleans()):
        group, radius = F2, draw(st.integers(0, 3))
        word = st.text(alphabet=F2.letters, max_size=4)
    else:
        group, radius = FreeAbelianGroup(2), draw(st.integers(0, 5))
        word = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    terms = draw(
        st.dictionaries(
            word.map(group.parse),
            st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=6,
        )
    )
    return group, radius, GroupRingElement(group, terms)


@SOLVER_SETTINGS
@given(directly_solved_compressions())
# the direct solve reads 1 + 1e-14/sqrt(2) to the last digit, numpy's SVD
# 32 ulps less
@example((F2, 1, GroupRingElement(F2, {"": 1.0, "A": 1e-14})))
def test_direct_solve_matches_dense_svd(case):
    group, radius, f = case
    assert group.ball_size(radius) <= DIRECT_SOLVE_MAX
    m, targets, coeffs, e, _ = _scaled_tables(group, f, radius, DIRECT_SOLVE_MAX)
    value = math.ldexp(_dense_top_singular(m, targets, coeffs), e)
    exact = decided_top_singular_value(dense_compression(group, f, group.ball(radius)), value)
    assert value <= exact * (1 + 8 * EPS)
    assert value == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("order", [DIRECT_SOLVE_MAX, DIRECT_SOLVE_MAX + 1])
def test_solvers_agree_at_the_cutoff(order):
    # the covering ball holds `order` elements: the last size solved by eigh
    # and the first solved on its top character
    group = CyclicGroup(order)
    f = GroupRingElement(group, {0: 0.5j, 1: 1.0, 5: -0.25})
    bracket = opnorm_bracket(group, f, builtin_rd_params(group), order // 2)
    assert bracket.iterations == 0
    exact = cyclic_oracle(f)
    assert exact * (1 - 8 * EPS) <= bracket.lower <= exact * (1 + 8 * EPS)


@st.composite
def table_compressions(draw):
    """Compressions solved through the translation table.

    free(2) at radius 4 (161 elements), Z^2 at radius 6 to 9 (85 to 181) and
    Z/m for m in 65..181 on a covering or a smaller ball.  Support words
    reach past the radius, and on free(2) and Z^2 past twice the radius,
    where they drop out of the compression.  Half the draws have real
    coefficients, which the solver iterates in float64.
    """
    family = draw(st.sampled_from(["free", "abelian", "cyclic"]))
    if family == "free":
        group, radius = F2, 4
        word = st.text(alphabet=F2.letters, max_size=10)
    elif family == "abelian":
        group, radius = FreeAbelianGroup(2), draw(st.integers(6, 9))
        word = st.tuples(st.integers(-10, 10), st.integers(-10, 10))
    else:
        group = CyclicGroup(draw(st.integers(DIRECT_SOLVE_MAX + 1, 181)))
        radius = draw(st.integers(DIRECT_SOLVE_MAX // 2, group.order // 2))
        word = st.integers(0, group.order - 1)
    terms = draw(st.dictionaries(word.map(group.parse), coefficients(draw), min_size=1, max_size=6))
    return group, radius, GroupRingElement(group, terms)


@settings(max_examples=40, deadline=None)
@given(table_compressions())
# all parts subnormal: opnorm_lower solves 2^1032 f and rounds the value back
# down, one step below the solver's value on f itself
@example(
    (
        CyclicGroup(66),
        32,
        GroupRingElement(CyclicGroup(66), {0: 2.225073858507e-311, 2: 2.225073858507e-311}),
    )
)
# a complex table of 6 x 685 = 4,110 entries, multiplied in two column blocks
@example(
    (
        FreeAbelianGroup(2),
        18,
        GroupRingElement(
            FreeAbelianGroup(2),
            {(1, 0): 1.0, (0, 1): 0.5j, (-1, 0): -0.25 + 1j, (0, -1): 0.75, (2, 1): 0.3j, (1, -2): -0.4},
        ),
    )
)
def test_table_products_match_the_dense_compression(case):
    group, radius, element = case
    # the checks run on the element whose lower bound opnorm_lower computes:
    # an element whose parts are all subnormal is solved scaled by 2^-top
    f, top = normal_range(element)
    m, targets, coeffs, e, _ = _scaled_tables(group, f, radius, DEFAULT_BALL_CAP)
    assert m > DIRECT_SOLVE_MAX and targets.size <= TABLE_PRODUCT_MAX
    scale = 2.0**e
    # the solver values are checked against the singular values of f's own
    # compression, also where the products are those of |f|
    sigma = np.linalg.svd(translate_compression(group, f, group.ball(radius)), compute_uv=False)
    # the stop rule bounds the change between steps, not the distance to the
    # norm, which is about tol over the relative gap of A^H A below its top:
    # hence the tight tol, and no closeness claim for a gap below 1e-3 (at
    # tol 1e-13, Z/114 on radius 32 with a gap of 2e-5 stops 1.3e-9 short)
    below = sigma[sigma < sigma[0] * (1 - 1e-9)]
    gap = 1 - (below[0] / sigma[0]) ** 2 if below.size else 1.0
    # a ball that covers Z/m is solved on its top character, through complex
    # products; any other by the power iteration, in float64 where every
    # coefficient is real or a character absorbs their phases, on the
    # compression of -f where the real ones are all nonpositive and of |f|
    # in the second case; from the positive start where those iterated
    # coefficients are all nonnegative, else from the seeded one
    covering = isinstance(group, CyclicGroup) and m == group.order
    iterated = f
    if not covering:
        iterated = iterated_element(group, f, radius, coeffs)
        coeffs = iterated_coeffs(group, f, radius, coeffs)
    seed = start_seed(coeffs, 0)
    A = translate_compression(group, iterated, group.ball(radius))
    rng = np.random.default_rng(0)
    v = rng.normal(size=m)
    if coeffs.dtype == complex:
        v = v + 1j * rng.normal(size=m)
    # the CSR products take the same tables and must pass the same checks
    for build in (_table_products, _csr_products):
        products = apply, apply_adjoint = build(m, targets, coeffs)
        # relative to |A| |v|, the size of the rounding of each entry's sum
        for got, want, size in (
            (apply(v), A @ v, np.abs(A) @ np.abs(v)),
            (apply_adjoint(v), A.conj().T @ v, np.abs(A).T @ np.abs(v)),
        ):
            assert np.linalg.norm(got * scale - want) <= 1e-13 * np.linalg.norm(size)
        if build is _table_products:
            if covering:
                residues = group.arena(radius).coords[:, 0]
                solved = _character_norm(residues, targets[:, 0], coeffs, apply)
            else:
                solved = _power_iteration(
                    m, products, DEFAULT_MAX_ITERS, DEFAULT_POWER_TOL, seed, coeffs.dtype
                )[0]
            lower = opnorm_lower(group, element, radius)
            assert lower == scaled_back(max(solved * scale, l2_norm(f)), top)
        value, iters, _ = _power_iteration(
            m, products, DEFAULT_MAX_ITERS, 1e-13, seed, coeffs.dtype
        )
        value *= scale
        assert value <= sigma[0] * (1 + 8 * EPS)
        if iters < DEFAULT_MAX_ITERS and gap >= 1e-3:
            assert value == pytest.approx(sigma[0], rel=1e-9, abs=0.0)


Z2 = FreeAbelianGroup(2)
Z2_GENSUM = GroupRingElement(Z2, {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0})
BIG_CYCLIC = CyclicGroup(10**12)


@pytest.mark.parametrize(
    "group, radius, f",
    [
        (F2, 4, KESTEN),
        (Z2, 40, Z2_GENSUM),
        (BIG_CYCLIC, 2000, GroupRingElement(BIG_CYCLIC, {1: 1.0, 10**12 - 1: 1.0, 7: 0.5j})),
        (CyclicGroup(4001), 1000, GroupRingElement(CyclicGroup(4001), {1: 1.0, 7: 0.5j})),
        # mixed signs: a real compression with entries of both signs
        (F2, 4, GroupRingElement(F2, {"a": 1.0, "A": -1.0, "b": 0.5, "B": 0.5})),
        (Z2, 40, GroupRingElement(Z2, {(1, 0): 1.0, (-1, 0): -0.5, (0, 1): 1.0})),
    ],
    ids=["free2-table", "z2-csr", "cyclic-1e12", "cyclic-4001-r1000", "free2-mixed-table", "z2-mixed-csr"],
)
@pytest.mark.parametrize("seed", [0, 3])
def test_balls_that_do_not_cover_keep_the_seeded_start(group, radius, f, seed):
    # a ball that does not cover Z/m is iterated from a start: the positive
    # unit vector where the iterated compression is entrywise nonnegative
    # (Kesten's element, the Z^2 generator sum), else the seeded one
    m, targets, coeffs, e, _ = _scaled_tables(group, f, radius, DEFAULT_BALL_CAP)
    assert m > DIRECT_SOLVE_MAX and m < getattr(group, "order", math.inf)
    coeffs = iterated_coeffs(group, f, radius, coeffs)
    positive = starts_positive(coeffs)
    assert positive == (f in (KESTEN, Z2_GENSUM))
    build = _table_products if targets.size <= TABLE_PRODUCT_MAX else _csr_products
    run = _power_iteration(
        m, build(m, targets, coeffs), 40, DEFAULT_POWER_TOL, start_seed(coeffs, seed), coeffs.dtype
    )
    lower = bracket_lower(group, f, radius, max_iters=40, seed=seed)
    assert lower == max(math.ldexp(run[0], e), l2_norm(f))


@pytest.mark.parametrize("order", [DIRECT_SOLVE_MAX + 1, 2000, TABLE_PRODUCT_MAX // 2 + 3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_real_elements_on_covering_balls_keep_complex_characters(order, sign):
    # delta_1 + sign delta_-1 has real coefficients, but its top character is
    # complex where sign = -1; the covering ball multiplies it by complex
    # products, in the table regime and (2 x 4099 entries) in CSR
    group = CyclicGroup(order)
    f = GroupRingElement(group, {1: 1.0, order - 1: sign})
    bracket = opnorm_bracket(group, f, builtin_rd_params(group), order // 2)
    assert bracket.iterations == 0
    exact = cyclic_oracle(f)
    assert exact * (1 - 8 * EPS) <= bracket.lower <= exact * (1 + 8 * EPS)
    if sign > 0:
        assert bracket.lower == 2.0


def test_the_seed_does_not_reach_a_covering_ball():
    group = CyclicGroup(301)
    f = GroupRingElement(group, {1: 1.0, 300: 1.0, 7: 0.5j})
    lowers = {bracket_lower(group, f, 150, seed=seed) for seed in (0, 1, 2)}
    assert lowers == {bracket_lower(group, f, 200, seed=5)}


@pytest.mark.parametrize(
    "order, k", [(TABLE_PRODUCT_MAX, 1), (TABLE_PRODUCT_MAX + 1, 1), (128, 64), (2731, 3)]
)
def test_the_gate_sits_on_the_table_size(order, k, monkeypatch):
    # the covering ball of Z/order holds `order` elements, so the table of a
    # k-term element holds k * order entries: 8192 twice, 8193 twice
    calls = []
    for name in ("_table_products", "_csr_products"):
        real = getattr(rdmap.operators, name)
        spy = lambda *args, name=name, real=real: calls.append(name) or real(*args)
        monkeypatch.setattr(rdmap.operators, name, spy)
    group = CyclicGroup(order)
    f = GroupRingElement(group, {x: complex(x + 1, -x) for x in range(1, k + 1)})
    lower = opnorm_lower(group, f, order // 2)
    expected = "_table_products" if k * order <= TABLE_PRODUCT_MAX else "_csr_products"
    assert calls == [expected]
    assert l2_norm(f) <= lower <= cyclic_oracle(f) * (1 + 8 * EPS)


# ---------------------------------------------------------------------------
# the character twist: complex elements iterated as |f| in float64

F3 = FreeGroup(3)
FREE2_COMPLEX = GroupRingElement(F2, {"a": 1 + 0.5j, "bA": -0.25 + 1j, "B": -0.75j})


def rational_rank(rows):
    """Rank of integer rows by Gauss-Jordan elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank:
                ratio = rows[i][col] / rows[rank][col]
                rows[i] = [a - ratio * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(-3, 3) | st.integers(-(10**30), 10**30), min_size=width, max_size=width),
            min_size=1,
            max_size=7,
        )
    )
)
# a zero column before the pivots, and entries whose products pass 2^63
@example([[0, 1, 2], [0, 2, 4]])
@example([[10**20, 3, 1], [7, 10**20, 1]])
def test_independence_is_decided_exactly(rows):
    assert rdmap.operators._independent(rows) == (rational_rank(rows) == len(rows))


def iterated_run(group, f, radius, monkeypatch):
    """(dtype, positive): the dtype that opnorm_lower's power iteration runs
    in and whether it starts from the positive unit vector, (None, None) if
    it does not iterate (a dense or covering-cyclic solve)."""
    seen = []
    real = rdmap.operators._power_iteration

    def spy(m, products, max_iters, tol, seed, dtype):
        seen.append((np.dtype(dtype), seed is None))
        return real(m, products, max_iters, tol, seed, dtype)

    monkeypatch.setattr(rdmap.operators, "_power_iteration", spy)
    opnorm_lower(group, f, radius)
    return seen[0] if seen else (None, None)


@pytest.mark.parametrize(
    "group, radius, terms, dtype",
    [
        # equal abelianizations: ab and ba both map to (1, 1)
        (F2, 4, {"ab": 1j, "ba": 1.0, "": 0.5 - 1j}, complex),
        # collinear exponent sums (1, 0), (2, 0), (3, 0)
        (F2, 4, {"a": 1j, "aa": 1.0, "aaa": 0.5 - 1j}, complex),
        # collinear points of Z^2
        (Z2, 6, {(1, 0): 1j, (2, 1): 1.0, (3, 2): 0.5 - 1j}, complex),
        # more than rank + 1 terms
        (F2, 4, {"": 1j, "a": 1.0, "b": 0.5, "aB": -2.0}, complex),
        (Z2, 6, {(0, 0): 1j, (1, 0): 1.0, (0, 1): 0.5, (-1, -1): 2.0}, complex),
        (Z1, 40, {(0,): 1j, (1,): 1.0, (3,): 0.5}, complex),
        # Z/m: its characters take m-th roots of unity only
        (CyclicGroup(501), 100, {0: 1j, 1: 1.0}, complex),
        (CyclicGroup(10**12), 100, {0: 1j, 1: 1.0}, complex),
        # independent supports
        (F2, 4, {"": 1j, "a": 1.0, "b": 0.5 - 1j}, float),
        (F2, 4, FREE2_COMPLEX.terms, float),
        (F3, 3, {"abC": 1j, "Ba": -1.0, "": 0.5 - 1j, "ccc": 2j}, float),
        (Z2, 6, {(1, 0): 1j, (2, 1): 1.0, (3, 3): 0.5 - 1j}, float),
        (Z1, 40, {(0,): 1j, (1,): 1.0}, float),
        # a term longer than twice the radius does not enter the compression:
        # {"", "a", "b"} passes at radius 4, and all four terms fail at 5
        (F2, 4, {"": 1j, "a": 1.0, "b": 0.5, "abababaab": -2.0}, float),
        (F2, 5, {"": 1j, "a": 1.0, "b": 0.5, "abababaab": -2.0}, complex),
        # real coefficients run in float64 as they are, whatever the support
        (F2, 4, {"ab": -1.0, "ba": 1.0, "": 0.5}, float),
        # a covering ball of Z/m and a dense solve do not iterate
        (CyclicGroup(501), 250, {0: 1j, 1: 1.0}, None),
        (F2, 3, {"": 1j, "a": 1.0}, None),
        # real coefficients of one sign: positive ones as they are, negative
        # ones as -f
        (F2, 4, {"ab": 1.0, "ba": 2.0, "": 0.5}, float),
        (F2, 4, {"ab": -1.0, "ba": -2.0, "": -0.5}, float),
    ],
)
def test_the_twist_dispatch(group, radius, terms, dtype, monkeypatch):
    f = GroupRingElement(group, terms)
    # every twisted element (complex, run in float64), and a real one whose
    # coefficients share one sign, iterates an entrywise nonnegative
    # compression from the positive start; any other from the seeded one
    twisted = dtype is float and any(c.imag for c in f.terms.values())
    one_sign = len({c.real > 0 for c in f.terms.values()}) == 1
    expected = (None, None) if dtype is None else (np.dtype(dtype), dtype is float and (twisted or one_sign))
    assert iterated_run(group, f, radius, monkeypatch) == expected
    support = [s for s in f.terms if group.length(s) <= 2 * radius]
    if dtype is not None and any(c.imag for c in f.terms.values()):
        assert rdmap.operators._phases_absorbable(group, support) == (dtype is float)
        assert phases_absorbable(group, f, radius) == (dtype is float)


@st.composite
def twistable_elements(draw):
    """Complex elements whose phases a character absorbs, on balls of 65 to
    187 elements: iterated as |f|, and small enough for a dense SVD."""
    group, radius = draw(
        st.sampled_from([(F2, 4), (F3, 3), (Z1, 32), (Z1, 40), (Z2, 6), (Z2, 7)])
    )
    if isinstance(group, FreeGroup):
        word = st.text(alphabet=group.letters, max_size=2 * radius + 1)
    else:
        word = st.tuples(*[st.integers(-2 * radius, 2 * radius)] * group.rank)
    coeff = st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    terms = draw(st.dictionaries(word.map(group.parse), coeff, min_size=1, max_size=group.rank + 1))
    f = GroupRingElement(group, terms)
    assume(any(c.imag for c in f.terms.values()) and phases_absorbable(group, f, radius))
    return group, radius, f


@settings(max_examples=40, deadline=None)
@given(twistable_elements())
def test_the_twist_keeps_every_singular_value(case):
    group, radius, f = case
    ball = group.ball(radius)
    assert len(ball) > DIRECT_SOLVE_MAX
    modulus = GroupRingElement(group, {x: abs(c) for x, c in f.terms.items()})
    A = translate_compression(group, f, ball)
    sigma = np.linalg.svd(A, compute_uv=False)
    twisted = np.linalg.svd(translate_compression(group, modulus, ball), compute_uv=False)
    # numpy's SVD of each matrix is itself off by up to 26 ulps of |f|_1
    # (800 draws of these families)
    assert np.abs(sigma - twisted).max() <= 64 * EPS * l1_norm(f)
    lower = opnorm_lower(group, f, radius)
    # lower <= max(top, l2) (1 + 8 EPS), with the l2 floor decided first: a
    # floor above the top singular value would send mpmath's SVD to work
    assert lower <= l2_norm(f) * (1 + 8 * EPS) or lower <= decided_top_singular_value(A, lower) * (1 + 8 * EPS)


def test_a_failing_support_changes_the_norm_under_moduli():
    # the collinear support a, aa, aaa: no character absorbs these phases,
    # and |f| has a larger norm than f (2.9721 against 2.9545 at radius 4)
    f = GroupRingElement(F2, {"a": 1j, "aa": 1.0, "aaa": 0.5 - 1j})
    modulus = GroupRingElement(F2, {x: abs(c) for x, c in f.terms.items()})
    ball = F2.ball(4)
    top = top_singular_value(translate_compression(F2, f, ball))
    assert top_singular_value(translate_compression(F2, modulus, ball)) > top * (1 + 1e-3)
    assert opnorm_lower(F2, f, 4) <= top * (1 + 8 * EPS)


def test_a_solve_never_writes_into_the_seeded_start():
    # one cached start per ball size, seed and dtype, seed None the positive
    # one, shared by every solve: each is read-only, and each solve
    # copies it into its own iterate buffer.  Kesten's element and the
    # twisted FREE2_COMPLEX start from the positive one
    m = F2.ball_size(4)

    def cached(kind):
        """The cached start that a solve of this kind copies."""
        if kind == "positive":
            return rdmap.operators._start(m, None, np.dtype(float))
        return rdmap.operators._start(m, 3, np.dtype(kind))

    cases = [
        (KESTEN, "positive"),
        (FREE2_COMPLEX, "positive"),
        (GroupRingElement(F2, {"ab": 1.0, "ba": -1.0}), float),
        (GroupRingElement(F2, {"ab": 1.0, "ba": 1j}), complex),
    ]
    for f, kind in cases:
        start = cached(kind)
        kept = start.copy()
        assert not start.flags.writeable
        opnorm_bracket(F2, f, None, 4, seed=3)
        assert cached(kind) is start
        assert np.array_equal(start, kept)
        assert np.linalg.norm(start) == pytest.approx(1.0, abs=4 * EPS)
        with pytest.raises(ValueError):
            start[0] = 0.0
    assert np.all(cached("positive") == cached("positive")[0])


# ---------------------------------------------------------------------------
# nonnegative compressions: the positive start and the shared Hermitian matrix

# Z^2 at radius 8, draw 128 of random_element(Z2, 3, default_rng(1)): relative
# top gap 3.9e-5, twisted into float64; from the seeded start the stagnation
# stop ended it on sigma_2, 1.9e-5 below the norm
CLUSTERED_Z2 = GroupRingElement(
    Z2,
    {
        (-2, 0): -0.5801808727892961 + 1.0320430480908585j,
        (1, -1): 1.430481507294281 + 1.2440888408102686j,
        (1, 1): 0.7554071817584939 - 1.402601976480008j,
    },
)


@st.composite
def nonnegative_compressions(draw):
    """Elements whose iterated compression is entrywise nonnegative, on
    balls of 65 to 161 elements: real coefficients of one sign, or complex
    ones whose phases a character absorbs."""
    group, radius = draw(st.sampled_from([(F2, 4), (Z1, 32), (Z1, 40), (Z2, 6), (Z2, 7)]))
    if isinstance(group, FreeGroup):
        word = st.text(alphabet=group.letters, max_size=2 * radius + 1)
    else:
        word = st.tuples(*[st.integers(-2 * radius, 2 * radius)] * group.rank)
    word = word.map(group.parse)
    if draw(st.booleans()):
        sign = draw(st.sampled_from([1.0, -1.0]))
        terms = draw(st.dictionaries(word, st.floats(1e-3, 10.0).map(lambda c: sign * c), min_size=1, max_size=6))
        return group, radius, GroupRingElement(group, terms)
    coeff = st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    f = GroupRingElement(group, draw(st.dictionaries(word, coeff, min_size=1, max_size=group.rank + 1)))
    assume(any(c.imag for c in f.terms.values()) and phases_absorbable(group, f, radius))
    return group, radius, f


@settings(max_examples=40, deadline=None)
@given(nonnegative_compressions())
@example((Z2, 8, CLUSTERED_Z2))
def test_nonnegative_compressions_start_from_the_positive_vector(case):
    group, radius, f = case
    m, targets, coeffs, _, _ = _scaled_tables(group, f, radius, DEFAULT_BALL_CAP)
    assert m > DIRECT_SOLVE_MAX
    assert starts_positive(iterated_coeffs(group, f, radius, coeffs))
    bracket = opnorm_bracket(group, f, None, radius)
    A = translate_compression(group, f, group.ball(radius))
    # a lower end at the l2 floor needs no decision: the floor is sound
    floor = l2_norm(f)
    exact = decided_top_singular_value(A, bracket.lower if bracket.lower > floor else 0.0)
    assert bracket.lower <= max(exact, floor) * (1 + 8 * EPS)
    # the seed does not reach the solve
    assert repr(opnorm_bracket(group, f, None, radius, seed=3)) == repr(bracket)


def test_the_positive_start_reaches_the_top_of_a_clustered_spectrum():
    A = translate_compression(Z2, CLUSTERED_Z2, Z2.ball(8))
    exact = top_singular_value(A)
    lower = opnorm_lower(Z2, CLUSTERED_Z2, 8)
    assert exact * (1 - 1e-8) <= lower <= exact * (1 + 8 * EPS)


def csr_products_of(group, f, radius, monkeypatch):
    """The products opnorm_lower builds by _csr_products for f, and the
    self_adjoint flag it passes."""
    seen = []
    real = rdmap.operators._csr_products

    def spy(m, targets, coeffs, self_adjoint):
        seen.append((real(m, targets, coeffs, self_adjoint), self_adjoint))
        return seen[-1][0]

    monkeypatch.setattr(rdmap.operators, "_csr_products", spy)
    opnorm_lower(group, f, radius)
    return seen[0]


@pytest.mark.parametrize("group, radius, f", [(F2, 8, KESTEN), (Z2, 40, Z2_GENSUM)], ids=["kesten-r8", "z2-r40"])
def test_a_hermitian_element_shares_one_csr_matrix(group, radius, f, monkeypatch):
    (apply, apply_adjoint), self_adjoint = csr_products_of(group, f, radius, monkeypatch)
    assert self_adjoint and apply_adjoint.__self__ is apply.__self__
    # the transposed copy the products would otherwise build holds the same
    # arrays, and gives the same products bit for bit
    m, targets, coeffs, _, _ = _scaled_tables(group, f, radius, DEFAULT_BALL_CAP)
    A, AH = (p.__self__ for p in _csr_products(m, targets, coeffs.real))
    assert AH is not A
    for name in ("indptr", "indices", "data"):
        assert getattr(AH, name).tobytes() == getattr(A, name).tobytes()
    rng = np.random.default_rng(5)
    for v in (rng.normal(size=m), np.abs(rng.normal(size=m))):
        assert apply_adjoint(v).tobytes() == (AH @ v).tobytes()


@pytest.mark.parametrize(
    "terms, shared",
    [
        # a + 2A: its compression is not symmetric, so A^H is built
        ({"a": 1.0, "A": 2.0}, False),
        # i a + A is not Hermitian, but its twist |f| = a + A is
        ({"a": 1j, "A": 1.0}, True),
        # exponent sums (1, 1), (-1, -1), (0, 0): these stay complex
        ({"ab": 1j, "BA": -1j, "": 1.0}, True),
        ({"ab": 1j, "BA": 1j, "": 1.0}, False),
    ],
)
def test_only_a_hermitian_iterated_element_shares_its_matrix(terms, shared, monkeypatch):
    # free(2) at radius 8: 2 or 3 x 13,121 table entries, the CSR regime
    f = GroupRingElement(F2, terms)
    (apply, apply_adjoint), self_adjoint = csr_products_of(F2, f, 8, monkeypatch)
    assert self_adjoint == shared
    assert (apply_adjoint.__self__ is apply.__self__) == shared
    A = apply.__self__
    rng = np.random.default_rng(6)
    v = rng.normal(size=A.shape[0]) + 1j * rng.normal(size=A.shape[0])
    v = v if A.dtype == complex else v.real.copy()
    want = A.conj().T @ v
    assert np.linalg.norm(apply_adjoint(v) - want) <= 1e-14 * np.linalg.norm(want)


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
    m, targets, coeffs, e, _ = _scaled_tables(group, f, order // 2, DEFAULT_BALL_CAP)
    products = _csr_products(m, targets, coeffs)
    lower, _, _ = _power_iteration(m, products, DEFAULT_MAX_ITERS, DEFAULT_POWER_TOL)
    lower = math.ldexp(lower, e)
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
    # B v = 4 v, so |A v| = 2
    y, n, _ = _ritz_vector(iterates, np.full(RITZ_BLOCK - 1, 4.0), np.full(RITZ_BLOCK, 2.0), None)
    y = y / n
    assert np.linalg.norm(y) == pytest.approx(1.0, abs=4 * EPS)
    assert abs(np.vdot(v, y)) == pytest.approx(1.0, abs=4 * EPS)


def first_restart(block, gains, sigmas):
    """The solver's first unit Ritz vector of a block whose rows 0..K-1 are
    v_0..v_{K-1}: _ritz_vector reads the block from rows 1..K of its buffer
    (row 0 holds the previous block's start, which a first restart has not)
    and takes the first K - 1 gains."""
    buffer = np.zeros((RITZ_BLOCK + 1, block.shape[1]), dtype=block.dtype)
    buffer[1:] = block[:RITZ_BLOCK]
    y, n, _ = _ritz_vector(buffer, list(gains[: RITZ_BLOCK - 1]), list(sigmas), None)
    return y / n


def solver_restarts(A, dtype, count):
    """(buffer, gains, sigmas, carried, result) of each of the first `count`
    restarts of the solver's own run on A from seed 0, the buffer copied as
    _ritz_vector saw it: row 0 the previous block's start x, rows 1.. the
    block v_0..v_{K-1}."""
    seen = []
    solver_ritz_vector = rdmap.operators._ritz_vector

    def spy(iterates, gains, sigmas, carried):
        out = solver_ritz_vector(iterates, gains, sigmas, carried)
        seen.append((iterates.copy(), list(gains), list(sigmas), carried, out))
        return out

    A = A.astype(dtype)
    rdmap.operators._ritz_vector = spy
    try:
        products = (A.__matmul__, A.conj().T.__matmul__)
        _power_iteration(len(A), products, count * RITZ_BLOCK, -1.0, 0, dtype)
    finally:
        rdmap.operators._ritz_vector = solver_ritz_vector
    return seen


def krylov_block(B, v):
    """Iterate buffer, gains and sigmas of one block of the power iteration on
    B from v; sigmas[j] = sqrt(<v_j, B v_j>) is |A v_j| for any A with B = A^H A."""
    iterates = np.empty((RITZ_BLOCK + 1, len(v)), dtype=complex)
    gains = np.empty(RITZ_BLOCK)
    sigmas = np.empty(RITZ_BLOCK)
    iterates[0] = v / np.linalg.norm(v)
    for j in range(RITZ_BLOCK):
        u = B @ iterates[j]
        sigmas[j] = math.sqrt(max(np.vdot(iterates[j], u).real, 0.0))
        gains[j] = np.linalg.norm(u)
        iterates[j + 1] = u / gains[j]
    return iterates, gains, sigmas


def rayleigh_quotient(B, y):
    return float(np.vdot(y, B @ y).real / np.vdot(y, y).real)


def test_ritz_vector_maximizes_the_rayleigh_quotient():
    rng = np.random.default_rng(5)
    B = np.diag([9.0, 4.0, 1.0, 0.5, 0.25, 0.1])
    iterates, gains, sigmas = krylov_block(B, rng.normal(size=6) + 1j * rng.normal(size=6))
    y = first_restart(iterates, gains, sigmas)
    # the Ritz value of the span beats every iterate in it and sits at the
    # top eigenvalue up to rounding
    ritz = float(np.vdot(y, B @ y).real)
    assert ritz > max(float(np.vdot(x, B @ x).real) for x in iterates[:RITZ_BLOCK])
    assert ritz == pytest.approx(9.0, rel=1e-9) and ritz <= 9.0 * (1 + 8 * EPS)
    # a later restart, on a spectrum clustered just below its top: the Ritz
    # value of span(x, v_0..v_7), x the previous block's start, beats x and
    # every iterate, and the block's own Ritz value, whose span it holds
    B = np.diag([1.0, 0.999, 0.998, 0.997, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05])
    buffer, gains, sigmas, carried, (y, n, _) = solver_restarts(np.sqrt(B), complex, 3)[-1]
    assert carried is not None
    ritz = rayleigh_quotient(B, y / n)
    assert ritz > max(rayleigh_quotient(B, r) for r in buffer)
    assert ritz >= rayleigh_quotient(B, first_restart(buffer[1:], gains, sigmas)) * (1 - 4 * EPS)
    assert ritz <= 1.0 * (1 + 8 * EPS)


def complex_gram_ritz_vector(iterates, gains):
    """_ritz_vector on the complex Gram matrix, ending in y / np.linalg.norm(y).

    The solver's first arithmetic: its Ritz value is the oracle for the real
    Gram of the solver, which drops the imaginary rounding noise of this one.
    """
    k = len(gains)
    gram = iterates.conj() @ iterates.T
    d, q = np.linalg.eigh(gram[:k, :k])
    keep = d > rdmap.operators.RITZ_GRAM_CUTOFF * d[-1]
    basis = q[:, keep] / np.sqrt(d[keep])
    projected = gram[:k, 1:] * gains
    projected = (projected + projected.conj().T) / 2
    _, z = np.linalg.eigh(basis.conj().T @ projected @ basis)
    y = (basis @ z[:, -1]) @ iterates[:k]
    return y / np.linalg.norm(y)


# A Gram direction whose eigenvalue lies in (RITZ_GRAM_CUTOFF / 2,
# NEAR_CUTOFF * RITZ_GRAM_CUTOFF) times the largest is ill-determined in
# both arithmetics, and the solver's moment Gram may keep one that the
# complex Gram drops just below the cutoff.  Over 1.2 million random blocks
# of the test below (m, rank, scale and seed drawn uniformly from its
# ranges), the two Ritz values left the sqrt(condition) band on 120 blocks,
# every one with an eigenvalue in that interval: 110 kept ones, at most 1,255
# times the cutoff, and 10 dropped at 0.995-1.0 of it that the moment Gram
# kept.  Outside the interval (60% of the last 800,000 blocks) they differed
# by at most 0.072 of the band.
NEAR_CUTOFF = 1e4


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.sampled_from([0, 60, -60]),
    st.integers(0, 2**32 - 1),
)
# a kept Gram eigenvalue at 4.4 times the cutoff: the two Ritz values,
# 133.72307026576345 and 133.72311341588835, differ by 3.2e-7 relative
# against a band of 4.25e-9, and both lie in [131.33, 133.727]
@example(m=9, rank=40, scale=0, seed=998)
def test_real_gram_ritz_value_matches_the_complex_gram(m, rank, scale, seed):
    # B = C C^H is Hermitian PSD of rank at most `rank`, scaled by 2^scale
    rng = np.random.default_rng(seed)
    C = rng.normal(size=(m, rank)) + 1j * rng.normal(size=(m, rank))
    B = C @ C.conj().T * 2.0**scale
    B = (B + B.conj().T) / 2
    iterates, gains, sigmas = krylov_block(B, rng.normal(size=m) + 1j * rng.normal(size=m))
    y = first_restart(iterates, gains, sigmas)
    wanted = complex_gram_ritz_vector(iterates, gains)
    got, want = rayleigh_quotient(B, y), rayleigh_quotient(B, wanted)
    d = np.linalg.eigvalsh((iterates[:RITZ_BLOCK].conj() @ iterates[:RITZ_BLOCK].T).real)
    cutoff = rdmap.operators.RITZ_GRAM_CUTOFF * d[-1]
    near = ((d > cutoff / 2) & (d < NEAR_CUTOFF * cutoff)).any()
    if near:
        # either value is sound: at least the Rayleigh quotient of every
        # iterate of the span, and at most the top eigenvalue (checked below)
        floor = max(rayleigh_quotient(B, x) for x in iterates[:RITZ_BLOCK])
        assert min(got, want) >= floor * (1 - 8 * EPS)
    else:
        # both Ritz values carry the rounding of the Gram matrix, amplified
        # by the condition of its kept directions (the sweep above NEAR_CUTOFF)
        condition = d[-1] / d[d > cutoff][0]
        tol = max(1e-12, 4 * EPS * math.sqrt(condition))
        assert abs(got - want) <= tol * want
    # x^H B x, exact for the float x and B: x is a unit vector to rounding,
    # so this is the Ritz value, never above the top eigenvalue beyond
    # rounding; y's is the value the solver reports
    for x in (y, wanted) if near else (y,):
        with mpmath.workdps(50):
            xs = [mpmath.mpc(complex(c)) for c in x]
            form = mpmath.fsum(
                mpmath.conj(xs[i]) * mpmath.mpc(complex(B[i, j])) * xs[j]
                for i in range(m) for j in range(m)
            )
            value = float(mpmath.re(form))
        assert value <= decided_top_singular_value(B, value) * (1 + 8 * EPS)


def product_gram_ritz_vector(iterates, gains):
    """The Ritz vector from the Gram product of the iterate buffer, the
    solver's arithmetic before its Gram came from moments: the real part of
    the Hermitian Gram as the float view times its own transpose."""
    k = len(gains)
    flat = iterates.view(float)
    gram = flat @ flat.T
    d, q = np.linalg.eigh(gram[:k, :k])
    keep = d > rdmap.operators.RITZ_GRAM_CUTOFF * d[-1]
    basis = q[:, keep] / np.sqrt(d[keep])
    projected = gram[:k, 1:] * gains
    projected = (projected + projected.T) / 2
    _, z = np.linalg.eigh(basis.T @ projected @ basis)
    y = ((basis @ z[:, -1]) @ flat[:k]).view(iterates.dtype)
    return y / np.linalg.norm(y)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.sampled_from([0, 60, -60]),
    st.sampled_from([complex, float]),
    st.integers(0, 2**32 - 1),
)
def test_moment_gram_ritz_value_matches_the_product_gram(m, rank, scale, dtype, seed):
    # A = 2^scale X Y has rank at most `rank`; one block of the solver's own
    # steps, in its dtype, with |A v_j| and |A^H A v_j| by _norm
    rng = np.random.default_rng(seed)
    X, Y, v = rng.normal(size=(m, rank)), rng.normal(size=(rank, m)), rng.normal(size=m)
    if dtype is complex:
        X, Y = X + 1j * rng.normal(size=(m, rank)), Y + 1j * rng.normal(size=(rank, m))
        v = v + 1j * rng.normal(size=m)
    A = X @ Y * 2.0**scale
    iterates = np.empty((RITZ_BLOCK + 1, m), dtype=dtype)
    gains, sigmas = np.empty(RITZ_BLOCK), np.empty(RITZ_BLOCK)
    iterates[0] = v / _norm(v)
    for j in range(RITZ_BLOCK):
        w = A @ iterates[j]
        sigmas[j] = _norm(w)
        u = A.conj().T @ w
        gains[j] = _norm(u)
        iterates[j + 1] = u / gains[j]

    def quotient(y):
        return (_norm(A @ y) / _norm(y)) ** 2

    got = quotient(first_restart(iterates, gains, sigmas))
    want = quotient(product_gram_ritz_vector(iterates, gains))
    # the band of the real against the complex Gram product above: both
    # Gram matrices carry rounding, amplified by the condition of the kept
    # directions
    flat = iterates[:RITZ_BLOCK].view(float)
    d = np.linalg.eigvalsh(flat @ flat.T)
    condition = d[-1] / d[d > rdmap.operators.RITZ_GRAM_CUTOFF * d[-1]][0]
    tol = max(1e-12, 4 * EPS * math.sqrt(condition))
    assert abs(got - want) <= tol * want


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.sampled_from([0, 60, -60]),
    st.sampled_from([complex, float]),
    st.integers(0, 2**32 - 1),
)
def test_carried_scalars_match_the_explicit_dots(m, rank, scale, dtype, seed):
    # B = A^H A for A = 2^(scale / 2) X Y, of rank at most `rank`: through
    # four restarts of the solver's own run, the carried b_j / P_j are the
    # dots <x, v_j> of the float views of the rows they stand for
    rng = np.random.default_rng(seed)
    X, Y = rng.normal(size=(m, rank)), rng.normal(size=(rank, m))
    if dtype is complex:
        X, Y = X + 1j * rng.normal(size=(m, rank)), Y + 1j * rng.normal(size=(rank, m))
    A = X @ Y * 2.0 ** (scale // 2)
    restarts = solver_restarts(A, dtype, 5)
    for before, (buffer, gains, sigmas, carried, _) in zip(restarts, restarts[1:]):
        rho, sigma_x, b = carried
        assert sigma_x == pytest.approx(_norm(A @ buffer[0]), rel=4 * EPS)
        P = [1.0]
        for gain in gains:
            P.append(P[-1] * (gain / rho))
        flat = buffer.view(float)
        # the carried scalars are sums over the Ritz combination that made
        # v_0, whose coefficients grow with the condition of the span it was
        # taken from: in 5,500 random runs they differed from the dots by at
        # most 10 eps sqrt(condition)
        span = before[0].view(float)[0 if before[3] is not None else 1 :]
        d = np.linalg.eigvalsh(span @ span.T)
        condition = d[-1] / d[d > rdmap.operators.RITZ_GRAM_CUTOFF * d[-1]][0]
        for j in range(RITZ_BLOCK):
            assert abs(b[j] / P[j] - flat[0] @ flat[j + 1]) <= 64 * EPS * math.sqrt(condition)


# the 19th draw of random_element(FreeGroup(2), 3, default_rng(2176752833)),
# a sample of the bench sweep's rd_free2_4 block: relative top gap 1.6e-4
CLUSTERED_FREE2 = GroupRingElement(
    F2,
    {
        "b": complex(-0.09261296645224551, -0.6463123911330829),
        "AbA": complex(0.7249905775217321, -1.0634056228676427),
        "baB": complex(0.252139319397802, -0.32423617692052786),
        "bAA": complex(-0.9680930672169847, 0.38031829199437744),
        "Bab": complex(-0.945836047621734, -1.9874055779379716),
    },
)
# the canonical Z/101 element (residues written outside [0, 101)): top gap 9.1e-5
CLUSTERED_Z101 = GroupRingElement(
    CyclicGroup(101), {CyclicGroup(101).parse(x): c for x, c in [(-1, 1.0), (102, 1.0), (208, 0.5j), (-300, -0.25)]}
)
# a double top singular value
CLUSTERED_Z4001 = GroupRingElement(CyclicGroup(4001), {1: 1.0, 4000: 1.0, 7: 0.5j})


@pytest.mark.parametrize(
    "f, radius, steps",
    [(CLUSTERED_FREE2, 4, 100), (CLUSTERED_Z101, 40, 200), (CLUSTERED_Z4001, 1000, 1000)],
    ids=["free2-r4", "z101-r40", "z4001-r1000"],
)
def test_clustered_spectra_converge_within_the_step_budget(f, radius, steps):
    # with one Ritz vector per restart these took 1,424, 1,720 and 2,504
    # steps and stopped 1.0e-7, 1.8e-7 and 5.8e-7 below the compression's
    # norm; keeping the previous block's start, 42, 75 and 463
    group = f.group
    bracket = opnorm_bracket(group, f, builtin_rd_params(group), radius)
    m, targets, coeffs, e, _ = _scaled_tables(group, f, radius, DEFAULT_BALL_CAP)
    assert m > DIRECT_SOLVE_MAX and not (isinstance(group, CyclicGroup) and m == group.order)
    rows, cols, values = _triplets(targets, coeffs * math.ldexp(1.0, e))
    A = np.zeros((m, m), dtype=complex)
    A[rows, cols] = values
    exact = decided_top_singular_value(A, bracket.lower)
    assert 0 < bracket.iterations <= steps
    assert exact * (1 - 1e-8) <= bracket.lower <= exact * (1 + 8 * EPS)


@pytest.mark.parametrize("m", [1, 2, 17, 161, 4001, 13121])
@pytest.mark.parametrize("scale", [0, 500, -500])
def test_norm_is_within_two_ulps(m, scale):
    rng = np.random.default_rng([m, scale + 500])
    for spread in (0, 8):
        # spread 8 makes the moduli uneven, down to about 1e-30 of the largest
        x = (rng.normal(size=m) + 1j * rng.normal(size=m)) * rng.random(m) ** spread
        x *= 2.0**scale
        with mpmath.workdps(50):
            exact = mpmath.sqrt(mpmath.fsum(mpmath.mpf(float(a)) ** 2 for a in x.view(float)))
            error = abs(mpmath.mpf(_norm(x)) - exact)
            assert error <= 2 * math.ulp(float(exact))


def test_capped_run_returns_best_value_seen(monkeypatch):
    M = np.diag([2.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    reached, iters, _ = solve(M, max_iters=RITZ_BLOCK, tol=0.0)
    assert iters == RITZ_BLOCK and 1.0 < reached < 2.0
    # a restart onto the bottom of the spectrum makes the last value the
    # smallest; the capped run still reports the best one before it
    bottom = np.eye(6, dtype=complex)[5]
    monkeypatch.setattr(rdmap.operators, "_ritz_vector", lambda it, g, s, carried: (bottom, 1.0, carried))
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
# the in-place solver loop against the loop it replaced


def reference_norm(x):
    """Norm of a vector as the sum of squares of its float view: one dot per
    chunk of NORM_CHUNK floats, the chunk sums added by math.fsum, which
    returns a single sum unchanged."""
    r = x.view(float)
    sums = [np.dot(r[i : i + NORM_CHUNK], r[i : i + NORM_CHUNK]) for i in range(0, len(r), NORM_CHUNK)]
    return math.sqrt(math.fsum(sums))


def reference_scale(x, gain):
    """x / gain as numpy divides a complex vector by a real gain, which is a
    multiplication by 1 / gain; a float64 vector is scaled the same way."""
    return x / gain if x.dtype == complex else x * (1.0 / gain)


def reference_ritz_vector(iterates, gains, sigmas, carried):
    """_ritz_vector written out: the Gram of x, v_0..v_K entry by entry from
    the moments and the carried scalars, the projection entry by entry from
    it, both Ritz problems real symmetric, the combination of the float
    view as a running sum, y / |y|, and the next restart's b_j = P_j <y, v_j>."""
    if carried is None:
        rho, sigma_x, b, lo = gains[-1], 0.0, [0.0] * (RITZ_BLOCK + 1), 1
    else:
        (rho, sigma_x, b), lo = carried, 0
    # P_a and mu_n divided by rho^a and rho^n, with rho in place of the last gain
    gains = list(gains) + [rho]
    P = [1.0]
    for gain in gains:
        P.append(P[-1] * (gain / rho))
    mu = []
    for a in range(RITZ_BLOCK):
        mu += [P[a] * P[a], P[a] * P[a] * (sigmas[a] * sigmas[a] / rho)]

    def entry(i, j):
        """<r_i, r_j> for r = (x, v_0, .., v_K)."""
        if i == 0 and j == 0:
            return 1.0
        if i == 0 or j == 0:
            return b[i + j - 1] / P[i + j - 1]
        return mu[i + j - 2] / (P[i - 1] * P[j - 1])

    gram = np.array([[entry(i, j) for j in range(RITZ_BLOCK + 2)] for i in range(RITZ_BLOCK + 1)])

    def projected(i, j):
        """<r_i, B r_j>: B x in column 0, B v_(j-1) = gains[j-1] v_j beyond."""
        if j > 0:
            return gram[i, j + 1] * gains[j - 1]
        return sigma_x * sigma_x if i == 0 else gram[0, i + 1] * gains[i - 1]

    span = range(lo, RITZ_BLOCK + 1)
    d, q = np.linalg.eigh(gram[lo:, lo : RITZ_BLOCK + 1])
    # the kept directions are the last columns of q, as a slice (a column
    # mask would hand basis @ z to BLAS in the other layout)
    first = list(d > rdmap.operators.RITZ_GRAM_CUTOFF * d[-1]).index(True)
    basis = q[:, first:] / np.sqrt(d[first:])
    projection = np.array([[projected(i, j) for j in span] for i in span])
    # eigh reads the lower triangle
    _, z = np.linalg.eigh(basis.T @ projection @ basis)
    c = basis @ z[:, -1]
    flat = iterates.view(float)[lo:]
    y = c[0] * flat[0]
    for i in range(1, len(c)):
        y = y + c[i] * flat[i]
    y = y.view(iterates.dtype)
    n = reference_norm(y)
    dots = c @ gram[lo:, 1:]
    return reference_scale(y, n), (rho, sigmas[0], [dots[j] * (P[j] / n) for j in range(RITZ_BLOCK + 1)])


def reference_power_iteration(m, products, max_iters, tol, seed=0, dtype=complex, positive=False):
    """_power_iteration written out: a division and a copy of v into the
    iterate buffer on every step, and no A^H product on a block's last
    step.  A float64 run starts from the real part of the complex start, a
    positive one from the all-ones vector divided by its norm.

    The in-place loop must give the same values bit for bit.  A change that
    alters the solver's arithmetic on purpose replaces this reference.
    """
    apply, apply_adjoint = products
    if positive:
        v = np.ones(m)
    else:
        rng = np.random.default_rng(seed)
        v = rng.normal(size=m)
        if dtype == complex:
            v = v + 1j * rng.normal(size=m)
    v = reference_scale(v, reference_norm(v))
    # row 0 the previous block's start, rows 1.. the block
    iterates = np.zeros((RITZ_BLOCK + 1, m), dtype=dtype)
    gains = np.empty(RITZ_BLOCK - 1)
    sigmas = np.empty(RITZ_BLOCK)
    carried = None
    best = sigma = rel = 0.0
    k = 0
    for k in range(1, max_iters + 1):
        w = apply(v)
        sigma_new = reference_norm(w)
        rel = abs(sigma_new - sigma) / sigma_new if sigma_new else 0.0
        best = max(best, sigma_new)
        if sigma_new == 0.0 or (k > 1 and rel <= tol):
            break
        sigma = sigma_new
        j = (k - 1) % RITZ_BLOCK
        iterates[j + 1] = v
        sigmas[j] = sigma
        if j == RITZ_BLOCK - 1:
            v, carried = reference_ritz_vector(iterates, gains, sigmas, carried)
            iterates[0] = iterates[1]
        else:
            u = apply_adjoint(w)
            gains[j] = reference_norm(u)
            v = reference_scale(u, gains[j])
    return best, k, rel


def matrix_family(family, m, rng):
    if family == "complex":
        return rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    if family == "real":
        return rng.normal(size=(m, m)).astype(complex)
    if family == "float64":
        return rng.normal(size=(m, m))
    if family == "float64-sparse":
        return rng.normal(size=(m, m)) * (rng.random((m, m)) < 0.2)
    if family == "nonnegative":
        return np.abs(rng.normal(size=(m, m)))
    if family == "sparse":
        # about 80% zeros, so some columns of A and entries of A^H A v are zero
        mask = rng.random((m, m)) < 0.2
        return (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) * mask
    # a diagonal whose entries are scaled by 2^60 or 2^-60
    return np.diag(rng.normal(size=m) * 2.0 ** rng.choice([-60, 60], size=m)).astype(complex)


# uncapped, capped at 37 steps (four restarts and a partial block), never stopping
RUN_SETTINGS = [(DEFAULT_MAX_ITERS, DEFAULT_POWER_TOL), (37, 0.0), (25, -1.0)]


@pytest.mark.parametrize(
    "family", ["complex", "real", "sparse", "diagonal", "float64", "float64-sparse", "nonnegative"]
)
@pytest.mark.parametrize("m", [1, 2, RITZ_BLOCK, RITZ_BLOCK + 1, 33, 65, 119])
def test_power_iteration_matches_the_reference_loop(family, m):
    # "real" is a real matrix in complex arithmetic, "float64" in float64;
    # "nonnegative" runs in float64 from the positive start
    rng = np.random.default_rng(1000 * m + len(family))
    A = matrix_family(family, m, rng)
    products = (A.__matmul__, A.conj().T.__matmul__)
    positive = family == "nonnegative"
    for seed, (max_iters, tol) in enumerate(RUN_SETTINGS):
        got = _power_iteration(m, products, max_iters, tol, None if positive else seed, A.dtype)
        assert got == reference_power_iteration(m, products, max_iters, tol, seed, A.dtype, positive)


@pytest.mark.parametrize(
    "group, radius, f",
    [
        (F2, 4, KESTEN),
        (F2, 5, GroupRingElement(F2, {"a": 1 + 0.5j, "bA": -0.25 + 1j, "B": -0.75j})),
        (FreeAbelianGroup(2), 12, GroupRingElement(FreeAbelianGroup(2), {(1, 0): 1.0, (0, -2): 0.5j})),
        (CyclicGroup(501), 100, GroupRingElement(CyclicGroup(501), {1: 1.0, 7: 0.5j})),
        # 4,373 complex entries: a float view above NORM_CHUNK, normed in chunks
        (F2, 7, GroupRingElement(F2, {"a": 1 + 0.5j, "bA": -0.25 + 1j, "B": -0.75j})),
    ],
    ids=["kesten-r4", "free2-complex-r5", "z2-r12", "cyclic-501-r100", "free2-complex-r7"],
)
@pytest.mark.parametrize("build", [_table_products, _csr_products], ids=["table", "csr"])
def test_compression_runs_match_the_reference_loop(group, radius, f, build):
    # each element runs as the solver iterates it (Kesten's in float64, the
    # free(2) and Z^2 ones as |f| in float64, these three from the positive
    # start, the cyclic one complex) and in complex arithmetic on its own
    # coefficients from the seeded start
    m, targets, raw, _, _ = _scaled_tables(group, f, radius, DEFAULT_BALL_CAP)
    for coeffs in (iterated_coeffs(group, f, radius, raw), raw):
        products = build(m, targets, coeffs)
        positive = starts_positive(coeffs)
        for seed, (max_iters, tol) in enumerate(RUN_SETTINGS):
            got = _power_iteration(m, products, max_iters, tol, start_seed(coeffs, seed), coeffs.dtype)
            want = reference_power_iteration(m, products, max_iters, tol, seed, coeffs.dtype, positive)
            assert got == want


THREAD_PROBE = """
from rdmap.groups import FreeAbelianGroup, FreeGroup
from rdmap.operators import GroupRingElement, builtin_rd_params, opnorm_bracket
F2, Z2 = FreeGroup(2), FreeAbelianGroup(2)
cases = [
    (F2, {"a": 1.0, "A": 1.0, "b": 1.0, "B": 1.0}, 10),
    (F2, {"a": 1 + 0.5j, "bA": -0.25 + 1j, "B": -0.75j}, 8),
    (F2, {"ab": 1 + 0.5j, "ba": -0.25 + 1j, "B": -0.75j}, 8),
    (Z2, {(1, 0): 1.0, (0, -2): 0.5j, (1, 1): 0.25, (-1, 0): 1j}, 30),
]
for g, terms, radius in cases:
    print(repr(opnorm_bracket(g, GroupRingElement(g, terms), builtin_rd_params(g), radius)))
"""


def brackets_at_blas_threads(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", THREAD_PROBE], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_brackets_repeat_at_one_and_two_blas_threads():
    # Kesten at radius 10 (m = 118,097: CSR products, norms of 118,097
    # floats, a Ritz combination of 8 x 118,097), two complex free(2)
    # elements at radius 8, one iterated as |f| in float64 (norms of 13,121
    # floats), one whose ab and ba keep it complex (norms of 26,242 floats),
    # and a complex table of 4 x 1,861 = 7,444 entries.  While norms were
    # single BLAS dots, the Gram a BLAS product and a complex table product
    # one gemv, each read other last digits at two threads
    assert brackets_at_blas_threads("1") == brackets_at_blas_threads("2")


@pytest.mark.parametrize("gain", [1.0, 3.0, 0.7071067811865476, 2.0**-300, 2.0**300, 12345.678])
def test_scale_into_is_the_complex_division(gain):
    rng = np.random.default_rng(11)
    x = (rng.normal(size=200) + 1j * rng.normal(size=200)) * 2.0 ** rng.integers(-300, 300, 200)
    x[:3] = [5e-324 + 1j, -1.0 - 5e-324j, 2.0**-1000 - 3.0j]
    out = np.empty_like(x)
    _scale_into(out, x, gain)
    # no entry is zero: the same bits
    assert out.tobytes() == (x / gain).tobytes()
    # zero parts may come out as zeros of the other sign, equal under ==
    x[3:9] = [0.0, -0.0, 0.0 + 1j, -0.0 - 1j, 1.0 + 0.0j, complex(-1.0, -0.0)]
    _scale_into(out, x, gain)
    assert np.array_equal(out, x / gain)
    # in place, as _ritz_vector uses it
    y = x.copy()
    _scale_into(y, y, gain)
    assert np.array_equal(y, x / gain)


# ---------------------------------------------------------------------------
# exact power-of-two rescaling


@pytest.mark.parametrize("k", [-560, -470, 510])
def test_bracket_scales_by_powers_of_two_exactly(k):
    rd = builtin_rd_params(F2)
    base = opnorm_bracket(F2, KESTEN, rd, 4)
    scaled = opnorm_bracket(F2, times(KESTEN, math.ldexp(1.0, k)), rd, 4)
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
    g = times(f, math.ldexp(1.0, k))
    assert l2_norm(g) == math.ldexp(l2_norm(f), k)
    assert l1_norm(g) == math.ldexp(l1_norm(f), k)
    assert sobolev_norm(F2, g, 2.0) == math.ldexp(sobolev_norm(F2, f, 2.0), k)
    assert opnorm_lower(F2, g, 3) == math.ldexp(opnorm_lower(F2, f, 3), k)


@pytest.mark.parametrize("c", [1e-170, 1e-140, 1e153])
def test_extreme_magnitudes_keep_a_sound_bracket(c):
    # squares of these coefficients underflow or overflow without rescaling
    rd = builtin_rd_params(F2)
    base = opnorm_bracket(F2, KESTEN, rd, 4)
    bracket = opnorm_bracket(F2, times(KESTEN, c), rd, 4)
    assert bracket.lower <= 2.0 * math.sqrt(3.0) * c <= bracket.upper
    assert bracket.lower == pytest.approx(base.lower * c, rel=1e-12)
    assert bracket.upper == pytest.approx(4.0 * c, rel=4 * EPS)


@st.composite
def subnormal_elements(draw):
    """1 to 4 terms with coefficients 5e-324 (a + b i), a and b in -9..9."""
    group = draw(st.sampled_from([F2, Z1, FreeAbelianGroup(2), CyclicGroup(7)]))
    word = {
        F2: st.text(alphabet=F2.letters, max_size=3),
        Z1: st.tuples(st.integers(-3, 3)),
        CyclicGroup(7): st.integers(0, 6),
    }.get(group, st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    part = st.integers(-9, 9)
    coeff = st.tuples(part, part).filter(any).map(lambda p: complex(p[0] * 5e-324, p[1] * 5e-324))
    terms = draw(st.dictionaries(word.map(group.parse), coeff, min_size=1, max_size=4))
    return group, draw(st.integers(0, 3)), GroupRingElement(group, terms)


@settings(max_examples=100, deadline=None)
@given(subnormal_elements())
# both ends used to round to 4e-323, below the norm 4.19e-323
@example((F2, 2, GroupRingElement(F2, {"A": 3e-323 * (1 + 1j)})))
@example((F2, 2, GroupRingElement(F2, {"ba": -3.5e-323 + 2e-323j})))
# opnorm_lower returned 8.4e-323, above the norm 8.3846e-323
@example((F2, 2, GroupRingElement(F2, {"ba": 6e-323 + 6e-323j})))
def test_subnormal_elements_keep_a_sound_bracket(case):
    group, radius, f = case
    rd = builtin_rd_params(group)
    bracket = opnorm_bracket(group, f, rd, radius)
    assert opnorm_lower(group, f, radius) == bracket.lower
    with mpmath.workdps(50):
        moduli = [abs(mpmath.mpc(c)) for c in f.terms.values()]
        l1 = mpmath.fsum(moduli)
        l2 = mpmath.sqrt(mpmath.fsum(a**2 for a in moduli))
        weights = [(1 + group.length(x)) ** (2 * rd.s) for x in f.terms]
        sobolev = mpmath.sqrt(mpmath.fsum(a**2 * w for a, w in zip(moduli, weights)))
        # the norm lies in [l2, min(l1, C Sob)]
        assert bracket.lower <= min(l1, mpmath.mpf(rd.C) * sobolev)
        assert bracket.upper >= l2
        if len(moduli) == 1:
            assert bracket.lower <= moduli[0] <= bracket.upper


def test_subnormal_point_masses_read_the_grid_steps_around_their_norm():
    # c delta_ba with c = (a + b i) 2^-1074 has norm sqrt(a^2 + b^2) steps of
    # the subnormal grid: both ends are the nearest steps around it.  192 of
    # these lower ends used to lie above the norm in opnorm_lower, and
    # 3e-323 (1 + i) read 3.5e-323 where its floor 4e-323 is sound
    rd = builtin_rd_params(F2)
    step = math.ulp(0.0)
    for a, b in itertools.product(range(-12, 13), repeat=2):
        if a == b == 0:
            continue
        f = GroupRingElement(F2, {"ba": complex(a * step, b * step)})
        floor = math.isqrt(a * a + b * b)
        ceiling = floor + (floor * floor != a * a + b * b)
        bracket = opnorm_bracket(F2, f, rd, 2)
        assert (bracket.lower, bracket.upper) == (floor * step, ceiling * step)
        assert opnorm_lower(F2, f, 2) == bracket.lower


# ---------------------------------------------------------------------------
# settings of opnorm_bracket, checked as the CLI checks its flags


@pytest.mark.parametrize(
    "setting,value",
    [
        ("max_iters", 0),
        ("max_iters", -3),
        ("max_iters", 2.5),
        ("max_iters", True),
        ("tol", math.nan),
        ("tol", 0.0),
        ("tol", -1e-10),
        ("tol", math.inf),
        ("seed", -1),
        ("seed", 1.5),
        ("seed", True),
        ("radius", True),
        ("radius", 2.5),
        ("radius", -1),
    ],
    ids=repr,
)
def test_bracket_settings_are_checked(setting, value):
    # max_iters=0 used to return the l2 floor 2.0 with iterations=0, tol=nan
    # ran all 10,000 steps, and radius=True was reported as the ball radius
    kwargs = {"radius": 6, setting: value}
    with pytest.raises(ValueError, match=setting):
        opnorm_bracket(F2, KESTEN, builtin_rd_params(F2), **kwargs)


def test_bracket_settings_take_integral_values_as_int():
    rd = builtin_rd_params(F2)
    want = opnorm_bracket(F2, KESTEN, rd, 6, max_iters=30, seed=3)
    got = opnorm_bracket(F2, KESTEN, rd, np.int64(6), max_iters=30.0, seed=np.uint16(3))
    assert got == want
    assert type(got.lower_ball_radius) is int
