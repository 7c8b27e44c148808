"""Kernel checks against exact-arithmetic and grid-search oracles."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdmap.groups import CyclicGroup, FreeAbelianGroup, FreeGroup
from rdmap.kernels import (
    KernelMatrix,
    _nice_witness,
    cn_check,
    cn_check_matrix,
    decay_certificate,
    length_kernel,
    psd_check,
    schoenberg_kernel,
)

F2 = FreeGroup(2)

COUNTEREXAMPLE = np.array(
    [[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
)


# ---------------------------------------------------------------------------
# oracles


def exact_cn_oracle(entries):
    """Exact-rational conditional negativity via pivoted elimination.

    Forms M = P K P with P the exact mean-zero projector and decides whether
    -M is positive semidefinite using fraction arithmetic only: a symmetric
    matrix is PSD iff pivoted Gaussian elimination never meets a negative
    pivot or a zero pivot with a nonzero row.
    """
    m = len(entries)
    K = [[Fraction(entries[i][j]).limit_denominator(10**12) for j in range(m)] for i in range(m)]
    # M = P K P with P = I - J/m
    row_mean = [sum(K[i]) / m for i in range(m)]
    total_mean = sum(row_mean) / m
    M = [
        [-(K[i][j] - row_mean[i] - row_mean[j] + total_mean) for j in range(m)]
        for i in range(m)
    ]
    active = list(range(m))
    while active:
        pivot = next((i for i in active if M[i][i] > 0), None)
        if pivot is None:
            for i in active:
                if M[i][i] < 0:
                    return False
                if any(M[i][j] != 0 for j in active):
                    return False
            return True
        p = M[pivot][pivot]
        active.remove(pivot)
        for i in active:
            for j in active:
                M[i][j] -= M[i][pivot] * M[pivot][j] / p
    return True


def reference_cn_check(entries, tol):
    """The dense O(m^3) mean-zero compression that the rank-2 update replaced.

    Returns the top mean-zero eigenvalue, the gap below it, and the witness
    the check would report on failure (through the same snapping rule).
    """
    m = len(entries)
    e1 = np.zeros(m)
    e1[0] = 1.0
    w = np.full(m, 1.0 / math.sqrt(m)) - e1
    w /= np.linalg.norm(w)
    basis = (np.eye(m) - 2.0 * np.outer(w, w))[:, 1:]
    compressed = basis.T @ entries @ basis
    evals, evecs = np.linalg.eigh(0.5 * (compressed + compressed.T))
    gap = float(evals[-1] - evals[-2]) if m > 2 else math.inf
    witness = _nice_witness(basis @ evecs[:, -1], entries, tol) if evals[-1] > tol else None
    return float(evals[-1]), gap, witness


def mpmath_top_mean_zero_eigenvalue(entries, dps=40):
    """Top eigenvalue of the kernel on mean-zero vectors, in mpmath arithmetic.

    With P = I - J/m, the matrix P K P - c J/m keeps every mean-zero
    eigenvalue of K and moves the constant direction to -c, below them all.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        m = len(entries)
        rows = [mp.fsum(mp.mpf(v) for v in row) / m for row in entries]
        total = mp.fsum(rows) / m
        shift = mp.mpf(10 * m * max(abs(v) for row in entries for v in row) + 1) / m
        M = mp.matrix(m, m)
        for i in range(m):
            for j in range(m):
                M[i, j] = entries[i][j] - rows[i] - rows[j] + total - shift
        return max(mp.eigsy(M, eigvals_only=True))


def eig_tol(entries):
    """Agreement expected of two double-precision mean-zero eigenvalues."""
    return 1e-12 * len(entries) * float(np.max(np.abs(entries)))


def grid_search_sup(r, s, xmax, n=2_000_001):
    xs = np.linspace(0.0, xmax, n)
    return float(np.max(np.exp(-r * xs) * (1.0 + xs) ** s))


# ---------------------------------------------------------------------------
# conditional negativity


def test_tree_length_is_cn_exact_and_numeric():
    ball = F2.ball(2)
    kernel = length_kernel(F2, ball)
    assert exact_cn_oracle(kernel.entries.tolist())
    verdict = cn_check(F2, ball, tol=1e-8)
    assert verdict.passed
    assert verdict.witness is None
    assert verdict.max_mean_zero_eigenvalue <= 1e-8


def test_counterexample_fails_with_integer_witness():
    # direct evaluation: c = (1, 1, -2) gives 2*(10 - 2 - 2) = 12
    c = np.array([1.0, 1.0, -2.0])
    assert c @ COUNTEREXAMPLE @ c == pytest.approx(12.0)
    assert not exact_cn_oracle(COUNTEREXAMPLE.tolist())

    verdict = cn_check_matrix(COUNTEREXAMPLE, tol=1e-8)
    assert not verdict.passed
    assert verdict.max_mean_zero_eigenvalue == pytest.approx(2.0, abs=1e-9)
    w = verdict.witness
    assert w is not None
    assert np.array_equal(w, c)
    assert abs(w @ COUNTEREXAMPLE @ w - 12.0) <= 1e-9


def reference_cn_check_matrix(entries, tol):
    """cn_check_matrix with the rank-2 update formed as outer + outer.T."""
    m = len(entries)
    w = np.full(m, 1.0 / math.sqrt(m))
    w[0] -= 1.0
    w /= np.linalg.norm(w)
    p = entries @ w
    q = p - (w @ p) * w
    outer = np.outer(w[1:], q[1:])
    compressed = outer + outer.T
    compressed *= -2.0
    compressed += entries[1:, 1:]
    top = float(np.linalg.eigvalsh(compressed)[-1])
    if top <= tol:
        return top, None
    z = np.linalg.eigh(compressed)[1][:, -1]
    c = np.concatenate(([0.0], z)) - 2.0 * (w[1:] @ z) * w
    return top, _nice_witness(c, entries, tol)


@st.composite
def symmetric_kernels(draw):
    m = draw(st.integers(2, 12))
    value = st.floats(-1e3, 1e3, allow_nan=False) | st.integers(0, 12).map(float)
    upper = draw(st.lists(value, min_size=m * (m + 1) // 2, max_size=m * (m + 1) // 2))
    entries = np.zeros((m, m))
    entries[np.triu_indices(m)] = upper
    entries.T[np.triu_indices(m)] = upper
    return entries


@settings(max_examples=150, deadline=None)
@given(
    symmetric_kernels()
    | st.just(COUNTEREXAMPLE)
    | st.integers(1, 3).map(lambda n: length_kernel(F2, F2.ball(n)).entries)
)
def test_cn_check_matrix_matches_outer_reference_bit_for_bit(entries):
    top, witness = reference_cn_check_matrix(entries, 1e-8)
    verdict = cn_check_matrix(entries, tol=1e-8)
    assert verdict.max_mean_zero_eigenvalue.hex() == top.hex()
    assert verdict.passed == (witness is None)
    if witness is not None:
        assert verdict.witness.dtype == witness.dtype
        assert verdict.witness.tobytes() == witness.tobytes()


def test_single_point_passes():
    verdict = cn_check(F2, [""], tol=1e-8)
    assert verdict.passed and verdict.witness is None


def test_distinct_points_required():
    # points equal only after reduction (or modulo the order) are repeated too
    for group, points in [(F2, ["a", "a"]), (F2, ["b", "aA", ""]), (CyclicGroup(5), [1, 6])]:
        with pytest.raises(ValueError, match="points must be distinct"):
            cn_check(group, points)


def test_cn_verdict_scale_covariant():
    ball = F2.ball(2)
    base = length_kernel(F2, ball).entries
    for t in (0.5, 2.0, 10.0):
        assert cn_check_matrix(t * base).passed
        assert not cn_check_matrix(t * COUNTEREXAMPLE).passed


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_witness_soundness_on_random_failures(seed):
    rng = np.random.default_rng(seed)
    found = 0
    for _ in range(20):
        m = int(rng.integers(3, 9))
        A = rng.normal(size=(m, m))
        K = A + A.T
        np.fill_diagonal(K, 0.0)
        verdict = cn_check_matrix(K, tol=1e-8)
        if verdict.passed:
            continue
        found += 1
        w = verdict.witness
        assert abs(math.fsum(w.tolist())) <= 1e-12
        assert w @ K @ w > 0
    assert found > 0


@pytest.mark.parametrize("order", [2, 3, 4, 7, 12, 31, 64])
def test_cyclic_full_group_matches_circulant_spectrum(order):
    # on all of Z/m the length kernel is circulant: its eigenvalues are the
    # cosine sums of its first row, the k = 0 one on the constant vector
    g = CyclicGroup(order)
    points = list(range(order))
    rng = np.random.default_rng(order)
    rng.shuffle(points)
    want = max(
        math.fsum(min(x, order - x) * math.cos(2 * math.pi * k * x / order) for x in range(order))
        for k in range(1, order)
    )
    verdict = cn_check(g, points, tol=1e-8)
    entries = length_kernel(g, points).entries
    assert abs(verdict.max_mean_zero_eigenvalue - want) <= eig_tol(entries)
    assert verdict.passed and want <= 1e-8


@pytest.mark.parametrize(
    "group,radius,pinned",
    [
        (F2, 2, -0.31732051320800063),
        (F2, 3, -0.29527323308864294),
        (FreeAbelianGroup(2), 3, None),
    ],
    ids=["free2-r2", "free2-r3", "z2-r3"],
)
def test_top_eigenvalue_matches_mpmath(group, radius, pinned):
    entries = length_kernel(group, group.ball(radius)).entries
    want = mpmath_top_mean_zero_eigenvalue(entries.tolist())
    if pinned is not None:
        assert float(want) == pinned
    verdict = cn_check(group, group.ball(radius), tol=1e-8)
    assert verdict.passed
    assert abs(verdict.max_mean_zero_eigenvalue - float(want)) <= eig_tol(entries)


def test_free_ball_matches_dense_reference_shuffled():
    points = F2.ball(4)
    np.random.default_rng(4).shuffle(points)
    entries = length_kernel(F2, points).entries
    top, _, _ = reference_cn_check(entries, 1e-8)
    verdict = cn_check(F2, points, tol=1e-8)
    assert verdict.passed and verdict.witness is None
    assert abs(verdict.max_mean_zero_eigenvalue - top) <= eig_tol(entries)


@st.composite
def symmetric_kernels(draw):
    """Symmetric kernels that fail (arbitrary entries) or pass (l1 distances)."""
    m = draw(st.integers(2, 12))
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(-20, 20), min_size=m * m, max_size=m * m))
        a = np.array(values, dtype=float).reshape(m, m)
        entries = np.triu(a, 1) + np.triu(a, 1).T + np.diag(np.diag(a))
    else:
        coords = draw(st.lists(st.integers(-9, 9), min_size=3 * m, max_size=3 * m))
        pts = np.array(coords, dtype=float).reshape(m, 3)
        entries = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    offset = draw(st.sampled_from([0.0, 0.5, 3.0]))
    return entries + offset


@given(symmetric_kernels())
@settings(max_examples=200, deadline=None)
def test_rank2_update_matches_dense_reference(entries):
    tol = 1e-8
    top, gap, witness = reference_cn_check(entries, tol)
    margin = eig_tol(entries)
    # a top eigenvalue within rounding of tol may go either way in both
    assume(abs(top - tol) > margin)
    verdict = cn_check_matrix(entries, tol)
    assert abs(verdict.max_mean_zero_eigenvalue - top) <= margin
    assert verdict.passed == (top <= tol)
    if verdict.passed:
        assert verdict.witness is None
        return
    got = verdict.witness
    assert abs(math.fsum(got.tolist())) <= 1e-9 * float(np.max(np.abs(got)))
    assert got @ entries @ got > tol
    # a simple top eigenvalue fixes the direction, and so the snapped witness
    if gap > 1e-6 * max(1.0, float(np.max(np.abs(entries)))):
        cosine = abs(got @ witness) / (np.linalg.norm(got) * np.linalg.norm(witness))
        assert cosine >= 1.0 - 1e-9
        if np.array_equal(witness, np.round(witness)):
            assert np.array_equal(got, witness)


# ---------------------------------------------------------------------------
# Schoenberg kernels and positive definiteness


def test_schoenberg_small_r_is_nearly_all_ones():
    k = schoenberg_kernel(F2, F2.ball(1), r=1e-9)
    assert np.max(np.abs(k.entries - 1.0)) < 1e-8


def test_schoenberg_line_kernel():
    g = FreeAbelianGroup(1)
    pts = [(-1,), (0,), (1,)]
    k = schoenberg_kernel(g, pts, r=1.0)
    expected = np.array(
        [[math.exp(-abs(i - j)) for j in (-1, 0, 1)] for i in (-1, 0, 1)]
    )
    assert np.allclose(k.entries, expected, atol=1e-15)
    assert psd_check(k).passed
    assert np.all(np.diag(k.entries) == 1.0)


def test_schoenberg_requires_positive_r():
    for r in (0.0, math.inf):
        with pytest.raises(ValueError, match=f"r must be positive and finite, got {r}"):
            schoenberg_kernel(F2, F2.ball(1), r=r)


def test_psd_check_examples():
    ones = psd_check(np.ones((3, 3)))
    assert ones.passed
    assert ones.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    heat = psd_check(schoenberg_kernel(F2, F2.ball(2), r=0.5))
    assert heat.passed

    indef = psd_check(np.diag([1.0, -1.0]))
    assert not indef.passed
    assert indef.min_eigenvalue == pytest.approx(-1.0)


@pytest.mark.parametrize("r", [0.05, 0.5, 2.0])
@pytest.mark.parametrize(
    "group,radius",
    [(FreeGroup(2), 2), (FreeGroup(1), 3), (FreeAbelianGroup(2), 2), (CyclicGroup(5), 2)],
    ids=repr,
)
def test_schoenberg_direction(group, radius, r):
    points = group.ball(radius)
    if cn_check(group, points, tol=1e-8).passed:
        assert psd_check(schoenberg_kernel(group, points, r), tol=1e-8).passed


def test_kernel_matrix_validation():
    with pytest.raises(ValueError):
        KernelMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        KernelMatrix(np.zeros((2, 3)))
    # an empty point set is rejected, not divided by
    for call in (
        lambda: cn_check(F2, []),
        lambda: cn_check_matrix(np.zeros((0, 0))),
        lambda: psd_check(np.zeros((0, 0))),
    ):
        with pytest.raises(ValueError, match="at least one point"):
            call()


@pytest.mark.parametrize("tol", [math.inf, math.nan])
@pytest.mark.parametrize(
    "check",
    [
        lambda tol: cn_check(F2, F2.ball(2), tol),
        lambda tol: cn_check_matrix(COUNTEREXAMPLE, tol),
        lambda tol: psd_check(np.array([[-5.0, 0.0], [0.0, 1.0]]), tol),
    ],
    ids=["cn_check", "cn_check_matrix", "psd_check"],
)
def test_tolerance_must_be_finite(check, tol):
    # an infinite tolerance passed the counterexample, a NaN one failed every kernel
    with pytest.raises(ValueError, match=f"tolerance must be positive and finite, got {tol}"):
        check(tol)


@pytest.mark.parametrize(
    "check,entries",
    [
        (psd_check, [[math.inf]]),
        (cn_check_matrix, [[0.0, math.inf], [math.inf, 0.0]]),
        # finite entries whose eigenvalues overflow: eigvalsh reads -5.8e292
        (psd_check, np.full((3, 3), 1e308)),
    ],
    ids=["psd-inf", "cn-inf", "psd-size-overflow"],
)
def test_checks_reject_non_finite_kernels(check, entries):
    with pytest.raises(ValueError, match="must be finite"):
        check(entries)


@pytest.mark.parametrize(
    "entries",
    [
        [[0.0, -math.inf], [-math.inf, 0.0]],
        [[1.0, math.nan], [math.nan, 1.0]],
        [[math.nan]],
        # the largest modulus on the negative side, and size * max|entry| overflows
        [[-1e308, 0.0], [0.0, 1.0]],
    ],
    ids=["minus-inf", "nan", "lone-nan", "negative-overflow"],
)
def test_kernel_matrix_finiteness_reads_both_ends(entries):
    message = "kernel entries must be finite and size * max|entry| must not overflow"
    with pytest.raises(ValueError, match=re.escape(message)):
        KernelMatrix(np.array(entries))
    # half of that modulus does not overflow
    KernelMatrix(np.array([[-0.5e308, 0.0], [0.0, 1.0]]))


def test_kernel_matrix_symmetry_tolerance():
    # exact symmetry short-cuts the check; the accepted set is unchanged
    KernelMatrix(np.array([[0.0, 1.0 + 5e-13], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        KernelMatrix(np.array([[0.0, math.inf], [math.inf, 0.0]]))
    with pytest.raises(ValueError):
        KernelMatrix(np.array([[0.0, 1.0 + 2e-12], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        KernelMatrix(np.array([[0.0, math.nan], [math.nan, 0.0]]))


# ---------------------------------------------------------------------------
# decay certificates


def test_decay_K_examples():
    cert = decay_certificate(1.0, 2.0)
    assert cert.K == pytest.approx(4.0 / math.e, abs=1e-12)
    assert cert.K == pytest.approx(grid_search_sup(1.0, 2.0, 50.0), abs=1e-10)
    assert cert.tail(5) == pytest.approx(36.0 * math.exp(-5.0), abs=1e-12)
    # tail oracle: grid over [5, 60] shifted
    xs = np.linspace(5.0, 60.0, 1_000_001)
    assert cert.tail(5) == pytest.approx(
        float(np.max(np.exp(-xs) * (1 + xs) ** 2)), abs=1e-10
    )


def test_decay_tail_vanishes():
    cert = decay_certificate(0.5, 2.0)
    assert cert.tail(400) < 1e-70
    cert2 = decay_certificate(0.02, 2.0)
    assert cert2.tail(4000) < 1e-10


@pytest.mark.parametrize("r,s", [(1.0, 2.0), (0.3, 1.0), (2.0, 0.5), (0.05, 3.0)])
def test_decay_invariants(r, s):
    cert = decay_certificate(r, s)
    assert cert.K == pytest.approx(grid_search_sup(r, s, 10 * max(1.0, s / r)), rel=1e-9)
    tails = [cert.tail(n) for n in range(0, 60)]
    assert all(t <= cert.K + 1e-15 for t in tails)
    assert tails[0] <= cert.K
    start = math.ceil(max(s / r - 1.0, 0.0))
    for n in range(start, 59):
        assert cert.tail(n + 1) <= cert.tail(n) + 1e-15
    assert all(t >= 0.0 for t in tails)


def mpmath_envelope(r, s, x):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        return mp.exp(-mp.mpf(r) * x) * (1 + mp.mpf(x)) ** s


@pytest.mark.parametrize("r,s,n", [(1.0, 100.0, 800), (0.5, 20.0, 1600)])
def test_decay_tail_does_not_underflow_below_the_truth(r, s, n):
    # exp(-r n) underflows to 0 on its own; the envelope itself is normal
    got = decay_certificate(r, s).tail(n)
    want = mpmath_envelope(r, s, n)
    assert got > 0.0
    assert abs(got - want) <= 1e-12 * want


def test_decay_peak_beyond_the_power_overflow_is_finite():
    # (1 + x)^200 overflows at the peak x = 200/3 - 1, the product does not
    cert = decay_certificate(3.0, 200.0)
    want = mpmath_envelope(3.0, 200.0, cert.peak)
    assert math.isfinite(cert.K)
    assert abs(cert.K - want) <= 1e-12 * want


def test_decay_tail_never_reads_zero():
    assert decay_certificate(1.0, 2.0).tail(1e6) == math.ulp(0.0)


def test_decay_true_overflow_is_reported():
    with pytest.raises(ValueError, match="overflows"):
        decay_certificate(1e-12, 26.0)
    # r x and s log(1 + x) both overflow: no NaN comes out
    with pytest.raises(ValueError, match="overflows"):
        decay_certificate(1e308, 1e308).tail(1e10)


def test_decay_validation():
    with pytest.raises(ValueError):
        decay_certificate(0.0, 1.0)
    with pytest.raises(ValueError):
        decay_certificate(1.0, -1.0)
    with pytest.raises(ValueError, match="rate r must be positive and finite, got inf"):
        decay_certificate(math.inf, 2.0)
    with pytest.raises(ValueError, match="exponent s must be positive and finite, got nan"):
        decay_certificate(1.0, math.nan)
    with pytest.raises(ValueError):
        decay_certificate(1.0, 1.0).tail(-1)
