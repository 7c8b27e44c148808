"""Multiplier calculus: heat family, truncation tails, certified rescaling."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdmap.groups import CyclicGroup, FreeAbelianGroup, FreeGroup, GroupMismatchError
from rdmap.harness import DEFAULT_R_VALUES, default_schedule
from rdmap.kernels import decay_certificate
from rdmap.multipliers import (
    HeatMultiplier,
    MultiplierNormBound,
    apply,
    lemma_norm_bound,
    map_defect,
    scaled_multiplier,
    table_multiplier,
)
from rdmap.operators import (
    GroupRingElement,
    RdParams,
    UnsoundBoundError,
    builtin_rd_params,
    delta,
    l1_norm,
    opnorm_bracket,
    opnorm_lower,
    opnorm_upper,
    random_element,
)

F2 = FreeGroup(2)
RD = builtin_rd_params(F2)
KESTEN = GroupRingElement(F2, {"a": 1.0, "A": 1.0, "b": 1.0, "B": 1.0})


def grid_sup(r, s, lo, hi, n=1_000_001):
    xs = np.linspace(lo, hi, n)
    return float(np.max(np.exp(-r * xs) * (1.0 + xs) ** s))


# ---------------------------------------------------------------------------
# evaluation


def test_eval_examples():
    heat = HeatMultiplier(F2, 1.0)
    assert heat.coeff("") == 1.0
    assert heat.coeff("aA") == 1.0
    assert HeatMultiplier(F2, 0.5).coeff("ab") == pytest.approx(math.exp(-1.0))

    trunc = HeatMultiplier(F2, 1.0, 2)
    assert trunc.coeff("aba") == 0.0
    assert trunc.coeff("ab") == pytest.approx(math.exp(-2.0))


def test_table_eval_and_normalization():
    phi = table_multiplier(F2, {"aAb": 2.0, "a": 0.0})
    assert phi.terms == {"b": 2 + 0j}
    assert phi.coeff("b") == 2 + 0j
    assert phi.coeff("a") == 0j


def test_multiplier_validation():
    for r in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            HeatMultiplier(F2, r)
    with pytest.raises(ValueError, match="rate r must be positive and finite, got inf"):
        HeatMultiplier(F2, math.inf)
    for n in (-1, 2.5, True):
        with pytest.raises(ValueError, match="nonnegative integer"):
            HeatMultiplier(F2, 1.0, n)
    with pytest.raises(ValueError, match="constant C must be positive and finite, got inf"):
        scaled_multiplier(F2, 1.0, 2.0, 3, math.inf)
    with pytest.raises(ValueError):
        HeatMultiplier(F2, 1.0, 2, 0.5)
    with pytest.raises(ValueError):
        HeatMultiplier(F2, 1.0, U=math.nan)


@pytest.mark.parametrize(
    "U, message",
    [
        (True, "scale U must be a real number, got True"),
        ("2", "scale U must be a real number, got '2'"),
        (math.inf, "scale U must be positive and finite, got inf"),
        (math.nan, "scale U must be positive and finite, got nan"),
        (0.5, "scale U must satisfy U >= 1"),
    ],
)
def test_heat_scale_follows_the_positive_real_rule(U, message):
    # before, True divided by 1, inf gave the zero multiplier with a lemma
    # bound of 0, and "2" raised a bare TypeError
    with pytest.raises(ValueError, match=message):
        HeatMultiplier(F2, 1.0, 3, U=U)
    assert HeatMultiplier(F2, 1.0, 3, U=2).coeff("") == 0.5


# ---------------------------------------------------------------------------
# action on ring elements


def test_apply_examples():
    f = GroupRingElement(F2, {"a": 1.0, "ab": 1.0})
    ones = table_multiplier(F2, {"a": 1.0, "ab": 1.0})
    assert apply(ones, f).terms == f.terms

    collapse = table_multiplier(F2, {"": 1.0})
    g = GroupRingElement(F2, {"": 2.5, "a": 1.0})
    assert apply(collapse, g).terms == {"": 2.5 + 0j}

    heated = apply(HeatMultiplier(F2, 1.0), f)
    assert heated.coeff("a") == pytest.approx(math.exp(-1.0))
    assert heated.coeff("ab") == pytest.approx(math.exp(-2.0))


def test_apply_group_mismatch():
    with pytest.raises(GroupMismatchError):
        apply(HeatMultiplier(F2, 1.0), delta(FreeGroup(3), "a"))


@pytest.mark.parametrize("r1,r2", [(0.3, 0.7), (1.0, 1.0), (2.5, 0.01)])
def test_heat_semigroup_law(r1, r2):
    rng = np.random.default_rng(8)
    f = random_element(F2, 3, rng)
    twice = apply(HeatMultiplier(F2, r1), apply(HeatMultiplier(F2, r2), f))
    once = apply(HeatMultiplier(F2, r1 + r2), f)
    assert set(twice.terms) == set(once.terms)
    for key in once.terms:
        assert twice.terms[key] == pytest.approx(once.terms[key], abs=1e-12)


def test_truncation_consistency():
    rng = np.random.default_rng(9)
    f = random_element(F2, 3, rng)
    full = apply(HeatMultiplier(F2, 0.4), f)
    cut = apply(HeatMultiplier(F2, 0.4, 3), f)
    assert cut.terms == full.terms
    shallow = apply(HeatMultiplier(F2, 0.4, 1), f)
    assert all(F2.length(x) <= 1 for x in shallow.terms)


def bits(z):
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("group", [F2, FreeAbelianGroup(2), CyclicGroup(9)], ids=repr)
@pytest.mark.parametrize("seed", range(4))
def test_a_ring_element_acts_as_the_heat_multiplier_with_its_values(group, seed):
    # both kinds give their values through coeff: a ring element that holds a
    # heat multiplier's values on supp f acts on f bit for bit as it does
    rd = builtin_rd_params(group)
    rho = scaled_multiplier(group, 0.5, rd.s, 3, rd.C)
    f = random_element(group, 3, np.random.default_rng(seed))
    values = {x: rho.coeff(x) for x in f.terms}
    phi = table_multiplier(group, values)
    assert type(phi) is GroupRingElement and phi == GroupRingElement(group, values)
    heat, ring = apply(rho, f).terms, apply(phi, f).terms
    assert list(ring) == list(heat)
    assert [bits(c) for c in ring.values()] == [bits(c) for c in heat.values()]
    by_heat, by_ring = (map_defect(group, f, m, rd, 2, seed=seed) for m in (rho, phi))
    assert by_ring.lower.hex() == by_heat.lower.hex() and by_ring.upper.hex() == by_heat.upper.hex()
    assert by_ring == by_heat


# ---------------------------------------------------------------------------
# norm bounds


@pytest.mark.parametrize("n", [2.0, np.int64(2), np.uint8(2)], ids=repr)
def test_truncation_radius_follows_the_integer_rule(n):
    # the same rule as ball radii: integral values are kept as a plain int
    phi = HeatMultiplier(F2, 1.0, n)
    assert type(phi.n) is int and phi == HeatMultiplier(F2, 1.0, 2)
    assert lemma_norm_bound(phi, RD).rank_bound == F2.ball_size(2)


def test_lemma_bound_heat():
    bound = lemma_norm_bound(HeatMultiplier(F2, 1.0), RD)
    assert bound.upper == pytest.approx(RD.C * 4.0 / math.e, abs=1e-12)
    assert bound.upper == pytest.approx(1.8874, abs=5e-4)
    assert bound.rank_bound is None


def test_lemma_bound_table():
    phi = table_multiplier(F2, {"": 1.0})
    bound = lemma_norm_bound(phi, RD)
    assert bound.upper == pytest.approx(RD.C)
    assert bound.rank_bound == 1

    wide = table_multiplier(F2, {"ab": 2.0, "a": 1.0})
    # sup is 2 * (1+2)^2 = 18 at the length-2 point
    assert lemma_norm_bound(wide, RD).upper == pytest.approx(RD.C * 18.0)
    assert lemma_norm_bound(wide, RD).rank_bound == 2


def test_lemma_bound_truncated():
    full = lemma_norm_bound(HeatMultiplier(F2, 1.0), RD)
    cut = lemma_norm_bound(HeatMultiplier(F2, 1.0, 5), RD)
    assert cut.upper == full.upper
    assert cut.rank_bound == F2.ball_size(5) == 485
    # below the peak the sup sits at the cut itself
    shallow = lemma_norm_bound(HeatMultiplier(F2, 4.0, 0), RD)
    assert shallow.upper == pytest.approx(RD.C)


def test_lemma_bound_truncated_below_the_peak():
    # e^{-0.1 x} (1 + x)^2 peaks at x = 2 / 0.1 - 1 = 19 and rises on [0, 19],
    # so its sup over the ball of radius 5 sits at x = 5: e^{-0.5} * 36
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        rise = mp.diff(lambda x: mp.exp(-mp.mpf(0.1) * x) * (1 + x) ** 2, 5)
        want = RD.C * mp.exp(-mp.mpf(0.1) * 5) * 36
    assert rise > 0
    got = lemma_norm_bound(HeatMultiplier(F2, 0.1, 5), RD).upper
    assert abs(got - want) <= 4 * math.ulp(got)
    assert got < lemma_norm_bound(HeatMultiplier(F2, 0.1), RD).upper


def test_lemma_bound_scaled_is_contraction():
    rho = scaled_multiplier(F2, 1.0, RD.s, 5, RD.C)
    bound = lemma_norm_bound(rho, RD)
    assert bound.upper <= 1.0
    assert bound.rank_bound == 485


def test_lemma_bound_when_certified_scale_is_exactly_one():
    # on the default grid's r = 0.02 row the tail C*K_n (about 4e-28) is
    # below half an ulp of 1, so U == 1.0; the rescale still certifies a
    # contraction, while the bare truncation is only bounded by C*K
    rho = scaled_multiplier(F2, 0.02, 2.0, 4000, RD.C)
    assert rho.U == 1.0
    assert lemma_norm_bound(rho, RD).upper == 1.0
    unscaled = lemma_norm_bound(HeatMultiplier(F2, 0.02, 4000), RD)
    assert unscaled.upper == pytest.approx(1770.8, abs=0.05)
    assert rho.coeff("ab") == HeatMultiplier(F2, 0.02, 4000).coeff("ab")


def test_norm_bound_validation():
    with pytest.raises(ValueError):
        MultiplierNormBound(upper=-0.1)


# ---------------------------------------------------------------------------
# tails and certified scale


def test_tail_bound_examples():
    # C * K_n, the certified norm bound for the discarded heat tail
    cert = decay_certificate(1.0, 2.0)
    value = RD.C * cert.tail(5)
    assert value == pytest.approx(RD.C * 36.0 * math.exp(-5.0), abs=1e-12)
    assert value == pytest.approx(0.3111, abs=5e-5)
    # oracle: dense grid over the tail region
    assert value == pytest.approx(RD.C * grid_sup(1.0, 2.0, 5.0, 60.0), abs=1e-9)

    assert RD.C * cert.tail(0) == pytest.approx(RD.C * 4.0 / math.e)
    assert RD.C * cert.tail(200) < 1e-70


def test_certified_scale():
    U = scaled_multiplier(F2, 1.0, 2.0, 5, RD.C).U
    assert U == pytest.approx(1.3111031000554014, abs=1e-15)
    assert U >= 1.0
    assert scaled_multiplier(F2, 0.02, 2.0, 4000, RD.C).U - 1.0 < 1e-10
    values = [scaled_multiplier(F2, 0.5, 2.0, n, RD.C).U for n in range(3, 40)]
    for a, b in zip(values, values[1:]):
        assert b <= a
    assert values[-1] < values[0]


def test_scaled_multiplier_values():
    rho = scaled_multiplier(F2, 1.0, 2.0, 5, RD.C)
    U = 1.0 + RD.C * decay_certificate(1.0, 2.0).tail(5)
    assert rho.U == U
    assert rho.coeff("") == pytest.approx(1.0 / U)
    assert rho.coeff("") <= 1.0
    assert rho.coeff("ababab") == 0.0
    assert rho.coeff("a") == pytest.approx(math.exp(-1.0) / U, abs=1e-15)
    assert rho.coeff("a") == pytest.approx(0.2805877288795194, abs=1e-15)


# ---------------------------------------------------------------------------
# defect brackets


def test_map_defect_point_mass_closed_form():
    rho = scaled_multiplier(F2, 1.0, 2.0, 5, RD.C)
    U = rho.U
    bracket = map_defect(F2, delta(F2, ""), rho, RD, 3)
    expected = (U - 1.0) / U
    assert bracket.upper == pytest.approx(expected, abs=1e-10)
    assert bracket.lower == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(0.23728347529820926, abs=1e-15)


DEFECT_GROUPS = [F2, FreeAbelianGroup(1), FreeAbelianGroup(2), CyclicGroup(7)]


def default_grid_multiplier(group, r):
    rd = builtin_rd_params(group)
    return scaled_multiplier(group, r, rd.s, default_schedule(rd).n_rule(r), rd.C)


@pytest.mark.parametrize("group", DEFECT_GROUPS, ids=repr)
@pytest.mark.parametrize("coeff", [1.0, 3.7 + 1.0j, 0.1, 1 / 3])
def test_map_defect_point_mass_rows_stay_sound(group, coeff):
    # lower and upper agree up to rounding here: both are |phi(e) - 1| |c|
    rd = builtin_rd_params(group)
    for r in default_schedule(rd).r_values:
        rho = default_grid_multiplier(group, r)
        point = GroupRingElement(group, {group.identity(): coeff})
        bracket = map_defect(group, point, rho, rd, 3)
        with mpmath.workdps(40):
            exact = float(abs(mpmath.mpf(rho.coeff(group.identity())) - 1) * abs(mpmath.mpc(coeff)))
        assert bracket.lower <= bracket.upper
        assert abs(bracket.upper - exact) <= 4 * math.ulp(exact), r
        assert abs(bracket.lower - exact) <= 4 * math.ulp(exact), r


@st.composite
def defect_cases(draw):
    """A group, a default-grid rate and an element on its ball of radius 2."""
    group = draw(st.sampled_from(DEFECT_GROUPS))
    r = draw(st.sampled_from(DEFAULT_R_VALUES))
    elems = draw(st.lists(st.sampled_from(group.ball(2)), min_size=1, max_size=4, unique=True))
    scale = 10.0 ** draw(st.integers(-6, 6))
    part = st.floats(-1.0, 1.0)
    return group, r, {x: scale * complex(draw(part), draw(part)) for x in elems}


# 0.1 delta_0 on Z at r = 0.5 (n = 80) and r = 0.1 (n = 400): phi(0) c - c
# formed in floats lost 6.25% and 1.04% of the defect to cancellation
@example((FreeAbelianGroup(1), 0.5, {(0,): 0.1}))
@example((FreeAbelianGroup(1), 0.1, {(0,): 0.1}))
# subnormal defects: (phi(a) - 1) c formed in floats rounded to 0 (bracket
# [0, 0] against an exact 1.97e-324) and to 2e-323 (lower end above 1.94e-323)
@example((F2, 0.5, {"a": 5e-324j}))
@example((F2, 0.5, {"a": 5e-323j}))
# U == 1 at r = 0.02, so the 2^600 term has no defect; scaled by one exponent
# taken from the largest coefficient, the 2^-500 term would underflow to 0
@example((F2, 0.02, {"": 2.0**600, "a": 2.0**-500}))
@settings(max_examples=60, deadline=None)
@given(defect_cases())
def test_map_defect_brackets_the_exact_defect(case):
    group, r, terms = case
    rd = builtin_rd_params(group)
    rho = default_grid_multiplier(group, r)
    bracket = map_defect(group, GroupRingElement(group, terms), rho, rd, 3)
    eps = 2.0**-52
    with mpmath.workdps(40):
        d = {x: (mpmath.mpf(rho.coeff(x)) - 1) * mpmath.mpc(c) for x, c in terms.items()}
        l1 = mpmath.fsum(abs(c) for c in d.values())
        l2 = mpmath.sqrt(mpmath.fsum(abs(c) ** 2 for c in d.values()))
        sob = mpmath.sqrt(
            mpmath.fsum(abs(c) ** 2 * (1 + group.length(x)) ** (2 * mpmath.mpf(rd.s)) for x, c in d.items())
        )
        assert bracket.upper >= l2 * (1 - 8 * eps)
        assert bracket.lower <= min(l1, rd.C * sob) * (1 + 8 * eps)


SUBNORMAL_DEFECTS = [
    {"a": 5e-324j},
    {"a": 5e-323j},
    {"a": 5e-323j, "bA": 5e-324},
    {"": 1e-310, "ab": -3e-320 + 7e-322j},
]


@pytest.mark.parametrize("terms", SUBNORMAL_DEFECTS, ids=repr)
@pytest.mark.parametrize("r", DEFAULT_R_VALUES)
def test_map_defect_contains_subnormal_defects_exactly(terms, r):
    # no relative slack: each end must hold the exact defect norm, which
    # lies between its l2 norm and min(l1, C * Sobolev) (mpmath, 60 digits)
    rho = default_grid_multiplier(F2, r)
    bracket = map_defect(F2, GroupRingElement(F2, terms), rho, RD, 3)
    with mpmath.workdps(60):
        d = {x: (mpmath.mpf(rho.coeff(x)) - 1) * mpmath.mpc(c) for x, c in terms.items()}
        l1 = mpmath.fsum(abs(c) for c in d.values())
        l2 = mpmath.sqrt(mpmath.fsum(abs(c) ** 2 for c in d.values()))
        weights = {x: (1 + F2.length(x)) ** (2 * mpmath.mpf(RD.s)) for x in d}
        sob = mpmath.sqrt(mpmath.fsum(abs(c) ** 2 * weights[x] for x, c in d.items()))
        assert 0 < l2
        assert bracket.upper >= l2
        assert bracket.lower <= min(l1, mpmath.mpf(RD.C) * sob)
        # within a few subnormal steps of the exact value, not merely sound
        assert bracket.upper - bracket.lower <= l1 - l2 + 4 * mpmath.mpf(2) ** -1074


@pytest.mark.parametrize("k", [-560, -470, 510])
@pytest.mark.parametrize(
    "f",
    [KESTEN, GroupRingElement(F2, {"a": 1 + 0.5j, "bA": -0.25 + 1j, "B": -0.75j})],
    ids=["kesten", "complex"],
)
def test_map_defect_scales_by_powers_of_two_exactly(f, k):
    rho = scaled_multiplier(F2, 0.5, 2.0, 6, RD.C)
    base = map_defect(F2, f, rho, RD, 4)
    # in normal range the bracket is opnorm_bracket's of (phi - 1) f, bit for bit
    direct = {x: (rho.coeff(x) - 1.0) * c for x, c in f.terms.items()}
    assert base == opnorm_bracket(F2, GroupRingElement(F2, direct), RD, 4)
    scaled = GroupRingElement(F2, {x: math.ldexp(1.0, k) * c for x, c in f.terms.items()})
    got = map_defect(F2, scaled, rho, RD, 4)
    assert got.lower == math.ldexp(base.lower, k)
    assert got.upper == math.ldexp(base.upper, k)
    assert (got.iterations, got.achieved_tol) == (base.iterations, base.achieved_tol)


def test_map_defect_unsound_constant_raises():
    rho = scaled_multiplier(F2, 0.5, 2.0, 4, RD.C)
    with pytest.raises(UnsoundBoundError):
        map_defect(F2, KESTEN, rho, RdParams(C=0.001, s=2.0), 4)


def test_map_defect_zero_element():
    rho = scaled_multiplier(F2, 1.0, 2.0, 5, RD.C)
    bracket = map_defect(F2, GroupRingElement(F2, {}), rho, RD, 2)
    assert (bracket.lower, bracket.upper) == (0.0, 0.0)


def test_map_defect_cheap_bound_controls_upper():
    rho = scaled_multiplier(F2, 0.1, 2.0, 40, RD.C)
    bracket = map_defect(F2, KESTEN, rho, RD, 4)
    pointwise = max(abs(rho.coeff(x) - 1.0) for x in KESTEN.terms) * l1_norm(KESTEN)
    assert bracket.upper <= pointwise + 1e-12
    assert bracket.lower <= bracket.upper


def test_map_defect_rejects_a_multiplier_on_another_group():
    rho = scaled_multiplier(FreeGroup(3), 0.5, 2.0, 4, RD.C)
    with pytest.raises(GroupMismatchError):
        map_defect(F2, KESTEN, rho, RD, 4)


def test_map_defect_monotone_in_truncation():
    uppers = []
    for n in range(1, 9):
        rho = scaled_multiplier(F2, 0.5, 2.0, n, RD.C)
        uppers.append(map_defect(F2, KESTEN, rho, RD, 4).upper)
    for a, b in zip(uppers, uppers[1:]):
        assert b <= a + 1e-12


def test_map_defect_shrinks_along_heat_schedule():
    previous = None
    for r, n in [(0.5, 160), (0.1, 800), (0.02, 4000)]:
        rho = scaled_multiplier(F2, r, 2.0, n, RD.C)
        upper = map_defect(F2, KESTEN, rho, RD, 4).upper
        if previous is not None:
            assert upper < previous
        previous = upper
    assert previous <= 0.05 * l1_norm(KESTEN)


@pytest.mark.parametrize("seed", [0, 1])
def test_contraction_shadow(seed):
    rho = scaled_multiplier(F2, 1.0, 2.0, 3, RD.C)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        f = random_element(F2, 3, rng)
        assert opnorm_lower(F2, apply(rho, f), 4) <= opnorm_upper(F2, f, RD) + 1e-9


@pytest.mark.parametrize("seed", [2, 3])
def test_lemma_shadow(seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        phi = table_multiplier(
            F2,
            {x: complex(rng.normal(), rng.normal()) for x in F2.ball(2)},
        )
        f = random_element(F2, 2, rng)
        bound = lemma_norm_bound(phi, RD)
        lhs = opnorm_lower(F2, apply(phi, f), 4)
        assert lhs <= bound.upper * opnorm_upper(F2, f, RD) + 1e-9


@pytest.mark.parametrize(
    "group", [FreeAbelianGroup(1), CyclicGroup(7)], ids=repr
)
def test_scaled_multiplier_other_groups(group):
    rd = builtin_rd_params(group)
    rho = scaled_multiplier(group, 0.5, rd.s, 6, rd.C)
    assert rho.coeff(group.identity()) <= 1.0
    rng = np.random.default_rng(5)
    f = random_element(group, 2, rng)
    bracket = map_defect(group, f, rho, rd, 4)
    assert bracket.lower <= bracket.upper
