"""Kernel certification: conditional negativity, positive definiteness, decay.

A length function ``l`` on a group induces the symmetric kernel
``K[i, j] = l(x_i^-1 x_j)`` on any finite point set.  Conditional negativity
of ``l`` means the quadratic form ``c K c`` is nonpositive on every mean-zero
vector ``c``; by Schoenberg's classical equivalence this holds exactly when
``exp(-r * l)`` is a positive-definite kernel for every ``r > 0``.  This
module checks both sides numerically, reports an explicit failure witness for
the negativity side, and computes the closed-form decay envelopes

    K   = sup_{x >= 0} exp(-r x) (1 + x)^s
    K_n = sup_{x > n}  exp(-r x) (1 + x)^s

that later modules use to bound multiplier norms and truncation tails.

All verdicts are tolerance-relative: they certify eigenvalue bounds up to the
stated tolerance in double precision, not exact-arithmetic statements.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import Group, check_positive_finite

__all__ = [
    "KernelMatrix",
    "CnVerdict",
    "PsdVerdict",
    "DecayCertificate",
    "length_kernel",
    "schoenberg_kernel",
    "cn_check",
    "cn_check_matrix",
    "psd_check",
    "decay_certificate",
]

DEFAULT_TOL = 1e-8


@dataclass
class KernelMatrix:
    """Symmetric kernel matrix, finite and nonempty.

    ``entries[i, j]`` holds ``k(x_i^-1 x_j)`` on the ordered points ``x_i`` of
    a group kernel; the points themselves are not kept.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = self.entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("kernel entries must form a square matrix")
        if entries.size == 0:
            raise ValueError("kernel matrix must hold at least one point")
        # size * max|entry| bounds the sums the checks form (NaN if an entry is)
        if not math.isfinite(float(max(entries.max(), -entries.min())) * entries.shape[0]):
            raise ValueError(
                "kernel entries must be finite and size * max|entry| must not overflow"
            )
        symmetric = np.array_equal(entries, entries.T)  # exact symmetry skips allclose
        if not (symmetric or np.allclose(entries, entries.T, rtol=0.0, atol=1e-12)):
            raise ValueError("kernel matrix must be symmetric")

    @classmethod
    def _of_group(cls, entries: np.ndarray) -> KernelMatrix:
        """A group's kernel, square, symmetric and finite by construction; checks only emptiness."""
        if entries.size == 0:
            raise ValueError("kernel matrix must hold at least one point")
        kernel = object.__new__(cls)
        kernel.entries = entries
        return kernel

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass
class CnVerdict:
    """Outcome of a conditional-negativity check.

    ``witness`` is present exactly when the check fails; it is a mean-zero
    vector with ``witness @ K @ witness > tol``, re-checkable by the caller.
    """

    passed: bool
    max_mean_zero_eigenvalue: float
    witness: Optional[np.ndarray] = None


@dataclass
class PsdVerdict:
    passed: bool
    min_eigenvalue: float


def length_kernel(group: Group, points: list) -> KernelMatrix:
    """Kernel ``l(x_i^-1 x_j)`` of the group's word length on ``points``."""
    return KernelMatrix._of_group(group.length_matrix(points).astype(float))


def schoenberg_kernel(group: Group, points: list, r: float) -> KernelMatrix:
    """Heat kernel ``exp(-r * l(x_i^-1 x_j))`` on ``points``; requires 0 < r < inf."""
    check_positive_finite(r, "heat parameter r")
    lengths = group.length_matrix(points)
    # one math.exp per length value, so each entry is bit for bit the scalar
    # exp(-r * l) (np.exp may round differently), over 0..max or the distinct lengths
    values = range(int(lengths.max(initial=0)) + 1)
    if len(values) > lengths.size:
        values, inverse = np.unique(lengths, return_inverse=True)
        values, lengths = values.tolist(), inverse.reshape(lengths.shape)
    table = np.array([math.exp(-r * k) for k in values])
    return KernelMatrix._of_group(table[lengths])


def _nice_witness(c: np.ndarray, entries: np.ndarray, tol: float) -> np.ndarray:
    """Canonicalize a failing eigenvector into a readable witness.

    The unit eigenvector is sign-fixed, rescaled so its smallest significant
    entry is 1, and snapped to integers when that is exact; each step keeps
    (and the last step re-verifies) mean zero and positivity of the form.
    """
    mags = np.abs(c)
    lead = int(np.argmax(mags > 1e-3 * mags.max()))
    if c[lead] < 0:
        c = -c
    significant = mags[mags > 1e-3 * mags.max()]
    scaled = c / significant.min()
    snapped = np.round(scaled)
    if (
        np.max(np.abs(scaled - snapped)) < 1e-6 * max(1.0, np.max(np.abs(snapped)))
        and math.fsum(snapped) == 0.0
        and snapped @ entries @ snapped > tol
    ):
        return snapped
    return c


def cn_check_matrix(kernel, tol: float = DEFAULT_TOL) -> CnVerdict:
    """Check a symmetric kernel for conditional negativity.

    Passes iff the largest eigenvalue of the kernel compressed to the
    mean-zero subspace is at most ``tol``.  On failure the offending
    direction is returned as an explicit witness.  A single point passes
    trivially (the mean-zero subspace is zero).
    """
    check_positive_finite(tol, "tolerance")
    if not isinstance(kernel, KernelMatrix):
        kernel = KernelMatrix(kernel)
    m = kernel.size
    if m == 1:
        return CnVerdict(passed=True, max_mean_zero_eigenvalue=0.0)
    # The reflector H = I - 2 w w^T maps e_1 to the unit constant vector, so
    # columns 1..m-1 of H are an orthonormal basis of the mean-zero subspace.
    # H is never formed: H K H = K - 2 w q^T - 2 q w^T with p = K w and
    # q = p - (w.p) w, a symmetric rank-2 update in O(m^2), of which the
    # mean-zero block [1:, 1:] is kept.  w[1:] is one constant, so the block's
    # update is the outer sum of w[1] q[1:] with itself, bit for bit.
    entries = kernel.entries
    w = np.full(m, 1.0 / math.sqrt(m))
    w[0] -= 1.0
    w /= np.linalg.norm(w)
    p = entries @ w
    q = p - (w @ p) * w
    cq = w[1] * q[1:]
    compressed = np.add.outer(cq, cq)
    compressed *= -2.0
    compressed += entries[1:, 1:]
    top = float(np.linalg.eigvalsh(compressed)[-1])
    if top <= tol:
        return CnVerdict(passed=True, max_mean_zero_eigenvalue=top)
    # only a failing check needs a vector: H [0; z] = [0; z] - 2 (w[1:] . z) w
    z = np.linalg.eigh(compressed)[1][:, -1]
    c = np.concatenate(([0.0], z)) - 2.0 * (w[1:] @ z) * w
    witness = _nice_witness(c, entries, tol)
    return CnVerdict(passed=False, max_mean_zero_eigenvalue=top, witness=witness)


def cn_check(group: Group, points: list, tol: float = DEFAULT_TOL) -> CnVerdict:
    """Conditional-negativity check of the word length over ``points``."""
    kernel = length_kernel(group, points)
    # l(x^-1 y) = 0 exactly when x = y, so a zero off the diagonal is a
    # repeated point (after parsing)
    if np.count_nonzero(kernel.entries) != kernel.size * (kernel.size - 1):
        raise ValueError("points must be distinct")
    return cn_check_matrix(kernel, tol)


def psd_check(kernel, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """Positive-semidefiniteness check: passes iff min eigenvalue >= -tol."""
    check_positive_finite(tol, "tolerance")
    if not isinstance(kernel, KernelMatrix):
        kernel = KernelMatrix(kernel)
    smallest = float(np.linalg.eigvalsh(kernel.entries)[0])
    return PsdVerdict(passed=smallest >= -tol, min_eigenvalue=smallest)


@dataclass(frozen=True)
class DecayCertificate:
    """Closed-form envelope for ``exp(-r x)(1 + x)^s`` over real ``x >= 0``.

    ``K`` is the global supremum; :meth:`tail` gives the supremum over
    ``x > n``, which is nonincreasing once ``n`` passes the peak at
    ``x = s/r - 1`` and tends to zero.  The real-variable supremum is used
    even for integer-valued lengths: slightly conservative, always valid.
    """

    r: float
    s: float
    K: float

    @property
    def peak(self) -> float:
        """Location of the maximum of the envelope (clamped to 0)."""
        return max(self.s / self.r - 1.0, 0.0)

    def envelope(self, x: float) -> float:
        return _envelope(self.r, self.s, x)

    def tail(self, n: float) -> float:
        """Supremum of the envelope over ``x > n`` (the truncation tail)."""
        if n < 0:
            raise ValueError(f"tail index must be nonnegative, got {n}")
        if n >= self.peak:
            return self.envelope(n)
        return self.K


def decay_certificate(r: float, s: float) -> DecayCertificate:
    """Decay certificate for the weight ``exp(-r x)(1 + x)^s``, 0 < r, s < inf."""
    check_positive_finite(r, "rate r")
    check_positive_finite(s, "exponent s")
    xstar = s / r - 1.0
    peak_value = _envelope(r, s, xstar) if xstar > 0 else 1.0
    return DecayCertificate(r=r, s=s, K=peak_value)


def _envelope(r: float, s: float, x: float) -> float:
    # The direct product wherever exp(-r x) is a normal float and the power is
    # finite; otherwise the exponent is summed first, so that neither factor
    # underflows or overflows alone.  A positive envelope never reads 0.0.
    decay = math.exp(-r * x)
    try:
        power = (1.0 + x) ** s
    except OverflowError:
        power = math.inf
    if decay >= sys.float_info.min and math.isfinite(power):
        return decay * power
    try:
        value = math.exp(-r * x + s * math.log1p(x))
    except OverflowError:
        value = math.nan
    # NaN here is an overflow, or inf - inf when both terms overflow
    if math.isnan(value):
        raise ValueError(f"decay envelope overflows at r={r!r}, s={s!r}, x={x!r}")
    return max(value, math.ulp(0.0))
