"""Group-ring elements and certified brackets for the convolution operator norm.

A finitely supported function f on a group acts on square-summable sequences
by convolution.  Its operator norm is bracketed from below by the largest
singular value of a finite compression (the matrix of the action restricted
to a ball) and from above by the l1 norm and, when decay parameters are
available, by C times a weighted Sobolev norm.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .groups import (
    DEFAULT_BALL_CAP,
    BallArena,
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    Group,
    GroupMismatchError,
    check_integer,
    check_positive_finite,
    is_number,
)

DEFAULT_MAX_ITERS = 10_000
DEFAULT_POWER_TOL = 1e-10

# A compression is solved in one of three regimes, chosen by its size alone.
# On a ball of at most DIRECT_SOLVE_MAX elements it is solved densely with
# eigh.  Measured on the sum of the generators (2-vCPU host, one BLAS
# thread), dense against the sparse power iteration: free(2) radius 3 (53
# elements) 0.8 / 1.2 ms, Z radius 31 (63) 1.3 / 7.1 ms, Z^3 radius 3 (63)
# 1.5 / 1.6 ms, but free(2) radius 4 (161) 10.5 / 1.2 ms.  A larger ball
# that covers a cyclic group is solved on its top Fourier character with
# one product, any other by the power iteration.
DIRECT_SOLVE_MAX = 64

# Above that, the power iteration gathers its products through the
# translation table while the table holds at most TABLE_PRODUCT_MAX entries
# (k m for k retained support elements on a ball of m), and multiplies by a
# scipy CSR matrix beyond: a table product costs k m entries, a CSR one nnz.
# Per A / A^H pair in a warm loop (same host), table against CSR: 12 / 19 us
# for five words on the free(2) ball of radius 4 (805 entries), 42 / 39 us
# for Kesten at radius 6 (5,828), 49 / 24 us for five words at radius 6
# (7,285).  Only the CSR regime imports scipy.sparse, which costs a fresh
# process 200-290 ms.  The bound also keeps a large support from building a
# gather of millions of entries.
TABLE_PRODUCT_MAX = 8192

# OpenBLAS runs a gemv on one thread up to 4,096 complex or 9,216 float64
# entries and splits a larger one between threads, which changes the bits of
# its sums.  So a complex table product of more entries runs as one gemv per
# block of columns of at most ZGEMV_SERIAL_MAX entries.
ZGEMV_SERIAL_MAX = 4096

# The lower-bound solver restarts its power iteration every RITZ_BLOCK steps
# from the Rayleigh-Ritz vector of the block's iterates and the previous
# block's start.  Directions of that span whose Gram eigenvalue falls below
# RITZ_GRAM_CUTOFF times the largest one (about 45 ulps, just above the
# rounding that each Gram entry carries: the moments and carried scalars it
# is formed from, and the products and scalings that make the stored
# iterates a Krylov sequence only up to rounding) count as numerically
# dependent and are dropped.
RITZ_BLOCK = 8
RITZ_GRAM_CUTOFF = 1e-14
# _GRAM_INDEX[i, j] is the position of <r_i, r_j>, for r = (x, v_0, .., v_K),
# K = RITZ_BLOCK, in the scalars (1, b_0..b_K, mu_0..mu_2K-1) of _ritz_vector:
# 0 for <x, x>, j for <x, v_{j-1}> and K + i + j for <v_{i-1}, v_{j-1}>, which
# makes the Gram of the Krylov block a Hankel matrix of its moments
_GRAM_INDEX = np.add.outer(np.arange(RITZ_BLOCK + 1), np.arange(RITZ_BLOCK + 2))
_GRAM_INDEX[1:, 1:] += RITZ_BLOCK

# Unit starts of the power iteration kept at once, one per (ball size, seed,
# dtype): a pipeline solves on a few ball sizes with one seed
START_CACHE = 8

# A dot product of at most NORM_CHUNK floats runs on one BLAS thread (OpenBLAS
# threads ddot only above 10,000 entries), so _norm sums longer vectors as
# chunks of this size, which keeps its bits independent of the thread count.
NORM_CHUNK = 8192

# Both ends of a bracket are certified in exact arithmetic but come out of
# different float computations, so a sound pair may cross by rounding.  A
# crossing of at most this many ulps of the l1 mass the bounds were computed
# from is clamped; a larger one means a wrong input and raises
# UnsoundBoundError.
BRACKET_ROUNDING_SLACK = 8 * sys.float_info.epsilon


class UnsoundBoundError(ArithmeticError):
    """A lower bound exceeds an upper bound by more than rounding explains.

    Each end is only as sound as its inputs, so such a crossing means a
    wrong input, typically decay constants (C, s) that do not hold for the
    group.  Both endpoints are kept on the exception.
    """

    def __init__(self, lower: float, upper: float):
        super().__init__(
            f"lower bound {lower!r} exceeds upper bound {upper!r} beyond "
            "rounding; check the decay constants (C, s)"
        )
        self.lower = lower
        self.upper = upper


def _clamp_crossing(lower: float, upper: float, scale: float) -> float:
    """`lower`, moved down to `upper` if the two cross by rounding only.

    `scale` is the magnitude both bounds were computed from; crossings
    beyond BRACKET_ROUNDING_SLACK * scale raise UnsoundBoundError.
    """
    if lower <= upper:
        return lower
    if lower - upper <= BRACKET_ROUNDING_SLACK * scale:
        return upper
    raise UnsoundBoundError(lower, upper)


def _require_same_group(g: Group, f: "GroupRingElement") -> None:
    if f.group != g:
        raise GroupMismatchError(f"element belongs to {f.group!r}, not {g!r}")


@dataclass(frozen=True)
class GroupRingElement:
    """Finitely supported complex function on a group.

    Coefficients are stored in a plain dict keyed by normal-form elements.
    Keys go through :meth:`Group.parse` on construction, so equal elements
    merge; coefficients must be numbers (:func:`rdmap.groups.is_number`),
    zero ones are then dropped, and a NaN or infinite one is rejected.
    """

    group: Group
    terms: dict

    def __post_init__(self):
        clean: dict = {}
        for elem, coeff in self.terms.items():
            key = self.group.parse(elem)
            if not is_number(coeff):
                raise ValueError(f"coefficient {coeff!r} of term {elem!r} is not a number")
            clean[key] = clean.get(key, 0j) + complex(coeff)
        clean = {k: v for k, v in clean.items() if v != 0}
        for key, value in clean.items():
            if not cmath.isfinite(value):
                raise ValueError(f"non-finite coefficient {value!r} in term {key!r}")
        ordered = {k: clean[k] for k in sorted(clean, key=self.group.sort_key)}
        object.__setattr__(self, "terms", ordered)

    def coeff(self, elem) -> complex:
        return self.terms.get(self.group.parse(elem), 0j)

    def is_zero(self) -> bool:
        return not self.terms


def delta(g: Group, elem) -> GroupRingElement:
    """The unit point mass at `elem`."""
    return GroupRingElement(g, {g.parse(elem): 1.0})


def convolve(g: Group, f: GroupRingElement, h: GroupRingElement) -> GroupRingElement:
    """Convolution product (f*h)(x) = sum over y of f(y) h(y^-1 x)."""
    _require_same_group(g, f)
    _require_same_group(g, h)
    out: dict = {}
    for y, fc in f.terms.items():
        for z, hc in h.terms.items():
            key = g.multiply(y, z)
            out[key] = out.get(key, 0j) + fc * hc
    return GroupRingElement(g, out)


def _weighted_l2(moduli: list, weights) -> float:
    """sqrt(sum w |c|^2), computed on the moduli scaled by a power of two.

    The scaling is exact and brings the largest modulus into [0.5, 1), so
    no square underflows or overflows where the result itself is in range.
    """
    _, e = math.frexp(max(moduli, default=0.0))
    total = math.fsum(math.ldexp(a, -e) ** 2 * w for a, w in zip(moduli, weights))
    return math.ldexp(math.sqrt(total), e)


def l2_norm(f: GroupRingElement) -> float:
    moduli = [abs(c) for c in f.terms.values()]
    return _weighted_l2(moduli, [1.0] * len(moduli))


def l1_norm(f: GroupRingElement) -> float:
    return math.fsum(abs(c) for c in f.terms.values())


def sobolev_norm(g: Group, f: GroupRingElement, s: float) -> float:
    """Weighted l2 norm with weight (1 + length)^s on each coefficient."""
    if not s > 0:
        raise ValueError("Sobolev exponent s must be positive")
    _require_same_group(g, f)
    weights = _sobolev_weights(map(g.length, f.terms), s)
    return _weighted_l2([abs(c) for c in f.terms.values()], weights)


def _sobolev_weights(lengths, s: float) -> list:
    """(1 + n)^(2s) for each length n, or a ValueError where one overflows."""
    try:
        return [(1.0 + n) ** (2.0 * s) for n in lengths]
    except OverflowError:
        raise ValueError(f"Sobolev weight (1 + length)^(2s) overflows at s={s!r}") from None


# ---------------------------------------------------------------------------
# decay parameters (C, s) for the built-in groups


@dataclass(frozen=True)
class RdParams:
    """Constants (C, s) with  opnorm(f) <= C * sobolev_norm(f, s)  for all f."""

    C: float
    s: float

    def __post_init__(self):
        check_positive_finite(self.C, "constant C")
        check_positive_finite(self.s, "exponent s")


def _sphere_polynomial(d: int) -> tuple[list, int]:
    """Sphere size of Z^d as integer coefficients (ascending, in n) over (d-1)!.

    The number of lattice points at l1 distance n >= 1 is
    sum over j of 2^j C(d, j) C(n-1, j-1), and (d-1)! C(n-1, j-1) is
    (d-1)!/(j-1)! times the falling factorial (n-1)(n-2)...(n-j+1).
    """
    poly = [0] * d
    falling = [1]
    for j in range(1, d + 1):
        scale = 2**j * math.comb(d, j) * math.perm(d - 1, d - j)
        for i, c in enumerate(falling):
            poly[i] += scale * c
        falling = [a - j * b for a, b in zip([0] + falling, falling + [0])]
    return poly, math.factorial(d - 1)


# Euler-Maclaurin tail of sum_{k >= N} k^-n: Bernoulli numbers B_2..B_8
ZETA_DIRECT_TERMS = 50
_BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30))


def _zeta_minus_one(n: int) -> float:
    """zeta(n) - 1 for an integer n >= 2, within eps relative of the exact value.

    The terms k^-n for 2 <= k < N = ZETA_DIRECT_TERMS are summed directly,
    each correctly rounded (an integer division), and the tail from N on is
    the Euler-Maclaurin sum through B_8, evaluated exactly in rationals and
    rounded once.  Every even derivative of x^-n is positive, so the omitted
    B_10 term bounds the truncation error: below 1e-19 relative for all n.
    With the rounding of math.fsum, the result is within eps * (zeta(n) - 1)
    of the exact value, plus at most N * 2^-1074 once terms underflow.
    """
    N = ZETA_DIRECT_TERMS
    tail = Fraction(1, (n - 1) * N ** (n - 1)) + Fraction(1, 2 * N**n)
    rising = n  # n (n + 1) ... (n + 2j - 2), the factor of the (2j-1)-th derivative
    for j, bernoulli in enumerate(_BERNOULLI, start=1):
        tail += bernoulli * rising / (math.factorial(2 * j) * N ** (n + 2 * j - 1))
        rising *= (n + 2 * j - 1) * (n + 2 * j)
    return math.fsum([1 / k**n for k in range(2, N)] + [float(tail)])


@functools.lru_cache(maxsize=None)
def _free_abelian_constant(d: int) -> float:
    """sqrt of the lattice sum of (1 + l1 length)^(-2d), rounded up.

    Writing the sphere polynomial in u = n + 1 turns the sum into a finite
    combination a_i (zeta(2d - i) - 1) of zeta tails.  The combination is
    formed exactly in rationals from the float zeta values; twice their
    error bound, times sum |a_i| (zeta(2d - i) - 1), is added, and the
    square and the root are each rounded up.  So C is never below its exact
    value, and above it by a few ulps.
    """
    poly, denominator = _sphere_polynomial(d)
    shifted = [0] * len(poly)
    for i, c in enumerate(poly):
        for k in range(i + 1):
            shifted[k] += c * math.comb(i, k) * (-1) ** (i - k)
    shifted = [Fraction(a, denominator) for a in shifted]
    tails = [Fraction(_zeta_minus_one(2 * d - i)) for i in range(len(shifted))]
    total = 1 + sum(a * z for a, z in zip(shifted, tails))
    # the underflow part of the zeta error bound is far below the half ulp
    # of total >= 1 that the upward rounding adds
    total += 2 * Fraction(sys.float_info.epsilon) * sum(abs(a) * z for a, z in zip(shifted, tails))
    square = math.nextafter(float(total), math.inf)
    return math.nextafter(math.sqrt(square), math.inf)


def builtin_rd_params(g: Group) -> RdParams:
    """Certified decay constants for each built-in group family.

    Free groups: s = 2, C = pi/sqrt(6), by Cauchy-Schwarz across spheres in
    the sphere-wise l2 bound.  Free-abelian rank d: s = d and C the lattice
    sum above.  Cyclic order m: the l1 bound gives C = sqrt(m); the Sobolev
    weight plays no role there, so the s slot just holds 1.
    """
    if isinstance(g, FreeGroup):
        return RdParams(C=math.pi / math.sqrt(6.0), s=2.0)
    if isinstance(g, FreeAbelianGroup):
        return RdParams(C=_free_abelian_constant(g.rank), s=float(g.rank))
    if isinstance(g, CyclicGroup):
        return RdParams(C=math.sqrt(g.order), s=1.0)
    raise ValueError(f"no built-in decay parameters for {g!r}")


# ---------------------------------------------------------------------------
# compressions and norm brackets


def _compressed_support(g: Group, f: GroupRingElement, radius: int) -> list:
    """The support elements of f that enter its compression to the ball of `radius`.

    |s y| >= |s| - |y|, so a support element longer than twice the radius
    sends no ball element back into the ball.
    """
    return [s for s in f.terms if g.length(s) <= 2 * radius]


def _independent(rows: list) -> bool:
    """Whether the integer rows are linearly independent, decided exactly.

    Bareiss's fraction-free elimination: each division by the previous pivot
    is exact, so every entry stays an integer (a minor of the rows) and no
    entry grows beyond the size of such a minor.
    """
    rows = [list(row) for row in rows]
    rank, previous = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[col]
        for i in range(rank + 1, len(rows)):
            q = rows[i][col]
            rows[i] = [(p * a - q * b) // previous for a, b in zip(rows[i], top)]
        rank, previous = rank + 1, p
    return rank == len(rows)


def _phases_absorbable(g: Group, support: list) -> bool:
    """Whether a unimodular w and a character chi of g make w chi(s) c_s > 0 on the support.

    A character of a free group or of Z^d is chi(s) = exp(i <t, ab(s)>) for
    any real vector t, where ab(s) is the abelianization: the exponent sum
    of each generator in a free word, the coordinates in Z^d.  Writing
    w = exp(i phi), the phases to absorb ask (phi, t) . (1, ab(s)) = -arg c_s
    (mod 2 pi) on every support element s, which has a real solution for
    all phases exactly when the vectors (1, ab(s)) are linearly independent.
    That needs at most rank + 1 of them.  Characters of Z/m take m-th roots
    of unity only, so a cyclic group never passes.
    """
    if not isinstance(g, (FreeGroup, FreeAbelianGroup)) or len(support) > g.rank + 1:
        return False
    vectors = support
    if isinstance(g, FreeGroup):
        # g.letters alternates a generator and its inverse: a, A, b, B, ...
        vectors = [[s.count(c) - s.count(c.upper()) for c in g.letters[::2]] for s in support]
    return _independent([[1, *v] for v in vectors])


def _scaled_tables(g: Group, f: GroupRingElement, radius: int, cap: int):
    """(m, targets, coeffs, e, support): ball size, translation table, coefficients * 2^-e.

    ``targets[i, y]`` is the position of ``s_i y`` in the ball, m outside it,
    for the i-th element ``s_i`` of the retained ``support``: a fresh copy of
    the arena's shared row, so no caller writes into the cache.  A row holds
    no position below m twice: ``y -> s_i y`` is injective.  The exact
    power-of-two scale puts the largest |coeffs[i]| in [0.5, 1), so no
    square of an entry overflows or underflows; e is clamped so that 2^-e
    stays finite for subnormal coefficients.
    """
    arena = g.arena(radius, cap=cap)
    m = len(arena)
    support = _compressed_support(g, f, radius)
    targets = np.array(
        [g.left_translate(arena, s) for s in support], dtype=np.int64
    ).reshape(len(support), m)
    coeffs = np.array([f.terms[s] for s in support], dtype=complex)
    e = max(math.frexp(float(np.abs(coeffs).max(initial=0.0)))[1], -1023)
    return m, targets, coeffs * math.ldexp(1.0, -e), e, support


def _triplets(targets: np.ndarray, coeffs: np.ndarray):
    """(rows, cols, values) of the compression; no (row, col) pair repeats."""
    hit = targets < targets.shape[1]
    values = np.broadcast_to(coeffs[:, None], targets.shape)[hit]
    return targets[hit], np.nonzero(hit)[1], values


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a contiguous 1-D complex or float64 vector.

    One BLAS dot of the float view, which interleaves the real and imaginary
    parts of a complex x and is x itself for a float64 one.  A view longer
    than NORM_CHUNK floats is summed as dots of NORM_CHUNK floats added by
    math.fsum, so the bits do not depend on the BLAS thread count.  The
    timings are in CHANGES.md and BENCH_*.json.
    """
    r = x.view(float)
    if r.size <= NORM_CHUNK:
        return math.sqrt(r.dot(r))
    chunks = (r[i : i + NORM_CHUNK] for i in range(0, r.size, NORM_CHUNK))
    return math.sqrt(math.fsum(c.dot(c) for c in chunks))


def _scale_into(out: np.ndarray, x: np.ndarray, gain) -> None:
    """Write x / gain into out, for contiguous x and out of one dtype and a real gain.

    numpy divides a complex entry by a real scalar as (re + im * 0) * (1 / gain)
    (Smith's formula at ratio 0), so multiplying the float view by 1 / gain
    gives the bits of the division, except perhaps the sign of a part that
    is exactly zero.  The numpy scalar makes a zero gain give inf and NaN
    entries, as the division does, not ZeroDivisionError.
    """
    np.multiply(x.view(float), np.float64(1.0) / gain, out=out.view(float))


def _dense_top_singular(m: int, targets: np.ndarray, coeffs: np.ndarray) -> float:
    """Norm of the compression on its top right singular vector, solved densely.

    The vector is the top eigenvector x of A^H A from eigh; the result is
    |A x| / |x|, the norm of A on an explicit unit vector, so like each
    value of the power iteration it is below the largest singular value up
    to the rounding of that one product.  (eigh's x has unit length only to
    a few ulps; |A x| alone came out up to 8.4 ulps above the exact norm on
    covering balls of Z/m, the quotient within 2.)
    """
    rows, cols, values = _triplets(targets, coeffs)
    A = np.zeros((m, m), dtype=complex)
    A[rows, cols] = values
    x = np.linalg.eigh(A.conj().T @ A)[1][:, -1]
    # x is a strided eigh column, which has no float view: two dots each
    y = A @ x
    return math.sqrt(y.real.dot(y.real) + y.imag.dot(y.imag)) / math.sqrt(
        x.real.dot(x.real) + x.imag.dot(x.imag)
    )


def _sum_of_squares_norm(x: np.ndarray) -> float:
    # np.sum adds pairwise.  np.linalg.norm sums through BLAS, whose error on
    # vectors of equal moduli, such as characters, put |A v| / |v| up to 39
    # ulps off the norm on covering balls of Z/m (m <= 3000); with pairwise
    # sums the quotient stayed within 2.6 ulps.
    return math.sqrt(float(np.sum(x.real**2 + x.imag**2)))


def _character_norm(residues: np.ndarray, support: np.ndarray, coeffs: np.ndarray, apply):
    """Norm of the compression on its top character, for a ball that covers Z/m.

    ``residues`` lists the ball, all of Z/m, in canonical order, and
    ``support[i]`` is the position of the support element with coefficient
    ``coeffs[i]``; ``apply`` is v -> A v.  Convolution by f multiplies the
    character x -> exp(2 pi i j x / m) by f^(j) = sum_s f(s) exp(-2 pi i j s / m),
    numpy's fft convention.  So the character at the largest |f^(j)| (the
    first on ties) is a top singular vector of A, and |A v| / |v| on it is
    the norm of A on an explicit unit vector that no iteration can improve.
    (The power iteration started from it stops after two steps, but its
    values came out up to 52 ulps above the norm: each step divides by a
    BLAS norm, see _sum_of_squares_norm.)
    """
    m = len(residues)
    spread = np.zeros(m, dtype=complex)
    spread[residues[support]] = coeffs
    # numpy.fft loads on this first use, not on import rdmap
    j = int(np.argmax(np.abs(np.fft.fft(spread))))
    # j x < m^2 stays in int64 for any m whose ball fits in memory
    character = np.exp(2j * np.pi * ((j * residues) % m) / m)
    return _sum_of_squares_norm(apply(character)) / _sum_of_squares_norm(character)


def _self_adjoint(g: Group, support: list, coeffs: np.ndarray) -> bool:
    """Whether c_{s^-1} == conj(c_s) for every support element s, exactly.

    Then f* = f on the support, and the compression A of those coefficients
    equals A^H entry for entry: A[x, y] = c_{x y^-1} = conj(c_{y x^-1}).
    """
    position = {s: i for i, s in enumerate(support)}
    partners = [position.get(g.inverse(s)) for s in support]
    return None not in partners and bool((coeffs[partners] == coeffs.conj()).all())


def _csr_products(m: int, targets: np.ndarray, coeffs: np.ndarray, self_adjoint: bool = False):
    """Products v -> A v and u -> A^H u by scipy CSR matrices, nnz entries each.

    A ``self_adjoint`` A (see _self_adjoint) is its own A^H and takes both
    products from its one matrix: A's transpose would hold the same indptr,
    indices and data, both are summed in the order of the sorted indices,
    and so the products agree up to the sign of an exactly zero entry.
    """
    # scipy.sparse is imported here, not at module scope, so commands whose
    # compressions all stay within TABLE_PRODUCT_MAX entries never load it
    import scipy.sparse as sp

    rows, cols, values = _triplets(targets, coeffs)
    A = sp.csr_matrix((values, (rows, cols)), shape=(m, m))
    if self_adjoint:
        return A.__matmul__, A.__matmul__
    # A^H as A's transpose: triplets of its own would sit next to the table
    # and A (1 MB more at free(2) radius 8)
    AH = A.transpose().tocsr()
    np.conjugate(AH.data, out=AH.data)
    return A.__matmul__, AH.__matmul__


def _table_products(m: int, targets: np.ndarray, coeffs: np.ndarray):
    """Products gathered through the translation table, k m entries each.

    With ``targets[s, y]`` the position of ``s y`` and ``inverse[s, x]`` that
    of ``s^-1 x`` (index m where it leaves the ball, which reads a trailing
    zero): ``A v = c @ v[inverse]`` and ``A^H u = conj(c) @ u[targets]``.
    The products take and return vectors of the dtype of ``coeffs``.  A
    complex table of more than ZGEMV_SERIAL_MAX entries is multiplied block
    by block, so that no gemv is split between BLAS threads.
    """
    coeffs_conj = coeffs.conj()
    rows, cols = np.nonzero(targets < m)
    # built contiguous: gathering through a strided table took 1.6x as long
    inverse = np.full_like(targets, m)
    inverse[rows, targets[rows, cols]] = cols
    buffer = np.zeros(m + 1, dtype=coeffs.dtype)
    blocks = inverse_parts = targets_parts = None
    if coeffs.dtype == complex and targets.size > ZGEMV_SERIAL_MAX:
        width = ZGEMV_SERIAL_MAX // len(coeffs)
        blocks = [slice(a, a + width) for a in range(0, m, width)]
        # contiguous blocks of each table, for the same reason
        inverse_parts = [inverse[:, block].copy() for block in blocks]
        targets_parts = [targets[:, block].copy() for block in blocks]

    def blockwise(c, parts):
        out = np.empty(m, dtype=complex)
        for block, part in zip(blocks, parts):
            np.matmul(c, buffer[part], out=out[block])
        return out

    def apply(v):
        buffer[:m] = v
        return coeffs @ buffer[inverse] if blocks is None else blockwise(coeffs, inverse_parts)

    def apply_adjoint(u):
        buffer[:m] = u
        return coeffs_conj @ buffer[targets] if blocks is None else blockwise(coeffs_conj, targets_parts)

    return apply, apply_adjoint


@functools.lru_cache(maxsize=START_CACHE)
def _start(m: int, seed: int | None, dtype: np.dtype) -> np.ndarray:
    """The solver's unit start for a size, seed and dtype, shared read-only.

    With seed None, the all-ones vector of m floats.  Else a normal draw of
    m floats from default_rng(seed), plus i times a second draw for a
    complex dtype: the float64 start is the real part of the complex one,
    up to the scale.  Either is scaled to unit length.  A draw costs several
    times the solver's copy of the cached start (CHANGES.md, BENCH_*.json).
    """
    if seed is None:
        v = np.ones(m)
    else:
        rng = np.random.default_rng(seed)
        v = rng.normal(size=m)
        if dtype == complex:
            v = v + 1j * rng.normal(size=m)
    start = np.empty(m, dtype=dtype)
    _scale_into(start, v, _norm(v))
    start.setflags(write=False)
    return start


def _power_iteration(m: int, products, max_iters: int, tol: float, seed: int | None = 0, dtype=complex):
    """Largest singular value of an m x m matrix A from below.

    ``products`` is the pair of callables v -> A v and u -> A^H u.  Power
    iteration on B = A^H A from a unit start, restarted every RITZ_BLOCK
    steps from the Rayleigh-Ritz vector of the block's iterates and the
    previous block's start.  The start is copied from the cache of _start:
    the positive unit vector where the caller passes seed None for an
    entrywise nonnegative A, else the seeded random one.  Each step is one
    A product and yields the norm of A applied to an explicit
    unit vector, which never exceeds the true largest singular value; each
    step but a block's last also takes the A^H product that makes the next
    iterate.  The largest such value is returned together with the step
    count and the relative change between the last two values.

    The iterates are written in place into one buffer of the given dtype,
    and the norms |A v| and |A^H A v| of the steps are kept for the
    restart, which forms its Ritz problem from them (see _ritz_vector).

    A nonnegative A has a nonnegative B, whose top eigenvector can be taken
    nonnegative (Perron-Frobenius), so the positive start always overlaps
    it, where a random start can overlap it very little.  The step counts
    it saves and the clustered spectrum it mends are in CHANGES.md and
    BENCH_*.json.

    A real A runs in float64, from the positive start or the real part of
    the seeded complex one.  That is as sound as the complex run, since
    every value is still |A x| for an explicit unit x, and loses nothing:
    for real A, |A(x + iy)|^2 = |A x|^2 + |A y|^2, so a real unit vector
    attains the largest singular value.  The caller hands it -A in place
    of an entrywise nonpositive A (the phase w = -1): each product is the
    exact negation of A's, so each value is |A x|.  It also hands it, in
    float64, the compression A' of |f| = sum |c_s| s in place of a complex
    one whose phases a phase w and a character chi absorb
    (_phases_absorbable): A' = w M_chi A M_chi^* for the diagonal unitary
    M_chi of chi on the ball, so each value |A' x'| is |A (M_chi^* x')|
    for the explicit unit vector M_chi^* x'.  The only new rounding is that
    of each |c_s|, at most one ulp.
    """
    apply, apply_adjoint = products
    # row 0 holds the previous block's start x, rows 1.. the unit iterates
    # v_j of the current block, with B v_j = gains[j] * v_{j+1} and
    # |A v_j| = sigmas[j]; the Ritz problem needs no B v_j of the last one
    iterates = np.empty((RITZ_BLOCK + 1, m), dtype=dtype)
    gains = [0.0] * (RITZ_BLOCK - 1)
    sigmas = [0.0] * RITZ_BLOCK
    carried = None
    iterates[1] = _start(m, seed, iterates.dtype)
    v = iterates[1]
    best = sigma = rel = 0.0
    k = 0
    for k in range(1, max_iters + 1):
        w = apply(v)
        sigma_new = _norm(w)
        rel = abs(sigma_new - sigma) / sigma_new if sigma_new else 0.0
        best = max(best, sigma_new)
        if sigma_new == 0.0 or (k > 1 and rel <= tol):
            break
        sigma = sigma_new
        j = (k - 1) % RITZ_BLOCK
        sigmas[j] = sigma
        if j == RITZ_BLOCK - 1:
            y, n, carried = _ritz_vector(iterates, gains, sigmas, carried)
            iterates[0] = iterates[1]
            _scale_into(iterates[1], y, n)
            v = iterates[1]
        else:
            u = apply_adjoint(w)
            gains[j] = _norm(u)
            _scale_into(iterates[j + 2], u, gains[j])
            v = iterates[j + 2]
    return best, k, rel


def _ritz_vector(iterates: np.ndarray, gains, sigmas, carried):
    """Vector of largest Rayleigh quotient for B in span(x, v_0..v_{K-1}), and its norm.

    Rows 1..K of the iterates are the unit Krylov block v_j = B^j v_0 / P_j
    of B = A^H A, with B v_j = gains[j] * v_{j+1} and |A v_j| = sigmas[j],
    so P_{j+1} = P_j gains[j] from P_0 = 1.  Its Gram matrix is Hankel in
    the moments mu_n = <v_0, B^n v_0>, <v_i, v_j> = mu_{i+j} / (P_i P_j),
    and the steps already hold every moment it needs: mu_{2a} = P_a^2 and
    mu_{2a+1} = sigmas[a]^2 P_a^2 (Golub and Meurant, Matrices, Moments and
    Quadrature, 2010).  The block's last gain is never computed: rho stands
    in for it, which defines v_K = B v_{K-1} / rho, and every entry of the
    Ritz problem is the same for any choice (<v_i, B v_{K-1}> =
    mu_{i+K} / (P_i P_{K-1})).

    Row 0 is the previous block's start x, which makes this a thick restart
    that keeps two vectors (Wu and Simon, SIAM J. Matrix Anal. Appl. 22,
    2000), in the locally optimal form of Knyazev (SIAM J. Sci. Comput. 23,
    2001).  ``carried`` holds rho, sigma_x = |A x| and b_j = <x, B^j v_0>
    for j <= K, so <x, x> = 1, <x, B x> = sigma_x^2 and <x, v_j> =
    b_j / P_j.  The first restart has no x (``carried`` is None) and solves
    the Ritz problem of the block alone.  So the Gram of x, v_0..v_K comes
    from these scalars in one scalar loop and one gather, with no product of
    the iterate buffer and no BLAS sum whose order depends on the thread
    count.  P_a, mu_n and b_j are formed divided by rho^a, rho^n and rho^j,
    rho the largest gain of the first block, kept for the run, so nothing
    overflows and the powers of rho cancel.  The projection of B is that
    Gram shifted by one column times the gains, <r, B v_j> =
    gains[j] <r, v_{j+1}>, and its column B x is its row x: taken from the
    same rounded entries, the two matrices stay those of one set of
    vectors, which keeps the Ritz problem stable where the block is nearly
    dependent (CHANGES.md has the case where it was not).

    The span is orthonormalized through the eigenvalues of the Gram matrix,
    dropping directions below RITZ_GRAM_CUTOFF of the largest, and the Ritz
    problem is solved as a real symmetric one whose lower triangle eigh
    reads.  The result y is a real combination of the rows, summed by
    einsum in a fixed order that no BLAS thread count changes, of their
    dtype, returned with its norm n for
    the loop to scale it to unit length as it writes it into the buffer.
    Returned with them are the scalars of the next restart, whose x is v_0
    and whose block starts at y / n: b_j = <v_0, B^j y> / n =
    P_j <y, v_j> / n, read from the same Gram rows.  The Gram need only
    choose y well: the solver reports |A y| / n for the explicit unit
    vector y / n.
    """
    if carried is None:
        rho, sigma_x, b, lo = gains[-1], 0.0, [0.0] * (RITZ_BLOCK + 1), 1
    else:
        (rho, sigma_x, b), lo = carried, 0
    p = 1.0
    norms = [1.0]
    moments = []
    for gain, sigma in zip((*gains, rho), sigmas):
        norms.append(p)
        square = p * p
        moments += (square, square * (sigma * sigma / rho))
        p *= gain / rho
    norms.append(p)
    # one array for the lists: 1, b_0..b_K, mu_0..mu_2K-1, then 1, P_0..P_K,
    # then 0, gains[0..K-1]
    scalars = np.array([1.0, *b, *moments, *norms, 0.0, *gains, rho])
    norms = scalars[-2 * RITZ_BLOCK - 3 : -RITZ_BLOCK - 1]
    # rows x, v_0..v_{K-1}, columns x, v_0..v_K
    gram = scalars[_GRAM_INDEX] / np.multiply.outer(norms[:-1], norms)
    d, q = np.linalg.eigh(gram[lo:, lo:-1])
    # d ascends, so the kept directions are the last ones
    dropped = d.searchsorted(RITZ_GRAM_CUTOFF * d[-1], "right")
    basis = q[:, dropped:] / np.sqrt(d[dropped:])
    # columns B x, B v_0..B v_{K-1}: the first is row 0 of the rest
    projected = gram[:, 1:] * scalars[-RITZ_BLOCK - 1 :]
    projected[1:, 0] = projected[0, 1:]
    projected[0, 0] = sigma_x * sigma_x
    projected = projected[lo:, lo:]
    _, z = np.linalg.eigh(basis.T @ projected @ basis)
    c = basis @ z[:, -1]
    flat = iterates.view(float)
    y = np.einsum("i,ij->j", c, flat[lo:]).view(iterates.dtype)
    n = _norm(y)
    b = (c @ gram[lo:, 1:]) * (norms[1:] / n)
    return y, n, (rho, sigmas[0], b.tolist())


def opnorm_lower(g: Group, f: GroupRingElement, radius: int, cap: int = DEFAULT_BALL_CAP) -> float:
    """Certified lower bound for the convolution operator norm of f (default solver).

    The lower end of opnorm_bracket without decay constants.
    """
    return opnorm_bracket(g, f, None, radius, cap=cap).lower


def _opnorm_lower_info(g, f, radius, max_iters, tol, cap, seed):
    _require_same_group(g, f)
    if f.is_zero():
        return 0.0, 0, 0.0
    m, targets, coeffs, e, support = _scaled_tables(g, f, radius, cap)
    # the product regime depends on the ball size m and the table size k m alone
    if targets.size == 0:
        # no support element maps a ball element back into the ball: A = 0
        sigma, iters, rel = 0.0, 0, 0.0
    elif m <= DIRECT_SOLVE_MAX:
        sigma, iters, rel = _dense_top_singular(m, targets, coeffs), 0, 0.0
    else:
        covering = isinstance(g, CyclicGroup) and m == g.order
        # a real A is iterated in float64; the characters of a covering ball
        # are complex, so its products stay complex
        if not covering and not coeffs.imag.any():
            coeffs = coeffs.real
            # an entrywise nonpositive A is iterated as -A, the phase -1
            if (coeffs <= 0).all():
                coeffs = -coeffs
        # a complex A whose phases a character absorbs (never on Z/m) is
        # iterated as its twist, the real A of |f|, which has its singular values
        elif _phases_absorbable(g, support):
            coeffs = np.abs(coeffs)
        if targets.size <= TABLE_PRODUCT_MAX:
            products = _table_products(m, targets, coeffs)
        else:
            products = _csr_products(m, targets, coeffs, _self_adjoint(g, support, coeffs))
        if covering:
            # the ball covers Z/m; it starts at the identity, so column 0 of
            # the table holds the position of each support element
            residues = g.arena(radius, cap=cap).coords[:, 0]
            sigma = _character_norm(residues, targets[:, 0], coeffs, products[0])
            iters, rel = 0, 0.0
        else:
            # the products keep what they need; free the table before iterating
            del targets
            # an entrywise nonnegative A starts from the positive unit vector
            if coeffs.dtype == float and (coeffs >= 0).all():
                seed = None
            sigma, iters, rel = _power_iteration(m, products, max_iters, tol, seed, coeffs.dtype)
    return max(math.ldexp(sigma, e), l2_norm(f)), iters, rel


def opnorm_upper(g: Group, f: GroupRingElement, rd: RdParams) -> float:
    """Upper bound: the smaller of the l1 norm and C times the Sobolev norm."""
    _require_same_group(g, f)
    if f.is_zero():
        return 0.0
    return min(l1_norm(f), rd.C * sobolev_norm(g, f, rd.s))


@dataclass(frozen=True)
class NormBracket:
    """Two-sided enclosure of an operator norm.

    `lower` comes from a ball compression of the given radius (plus the l2
    floor), `upper` from the l1/Sobolev bounds.  `lower` is the norm of the
    compression A on an explicit unit vector, in bits that do not depend on
    the BLAS thread count.  A ball of at most DIRECT_SOLVE_MAX elements is
    solved directly (_dense_top_singular), a larger one that covers Z/m on
    its top Fourier character (_character_norm); `iterations` and
    `achieved_tol` then read 0.  Any other ball is solved by the
    Ritz-restarted power iteration (_power_iteration): `iterations` counts
    its steps, and `achieved_tol` is the relative change between its last
    two values, not a distance to the norm.  A real A runs in float64, as
    does the twist |f| of a complex f whose phases a character absorbs
    (_phases_absorbable), and an entrywise nonnegative A starts from the
    positive unit vector, which the seed does not reach.  The products are
    gathered through the translation table up to TABLE_PRODUCT_MAX entries
    (_table_products) and taken from scipy CSR matrices beyond
    (_csr_products).  An element whose coefficient parts are all subnormal
    is bracketed scaled into normal range by a power of two, and both ends
    are scaled back, each one ulp outward where the scaling rounded inward.
    """

    lower: float
    upper: float
    lower_ball_radius: int
    iterations: int
    achieved_tol: float = 0.0

    def __post_init__(self):
        if self.lower < 0 or self.upper < 0:
            raise ValueError("bracket endpoints must be nonnegative")
        if self.lower > self.upper:
            raise ValueError(f"empty bracket [{self.lower}, {self.upper}]")


def opnorm_bracket(
    g: Group,
    f: GroupRingElement,
    rd: RdParams | None,
    radius: int,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_POWER_TOL,
    cap: int = DEFAULT_BALL_CAP,
    seed: int = 0,
) -> NormBracket:
    """Bracket of the operator norm of f; without rd the upper end is inf."""
    radius = check_integer(radius, "radius")
    max_iters = check_integer(max_iters, "max_iters", 1)
    check_positive_finite(tol, "tol")
    seed = check_integer(seed, "seed")
    normal, top = _normal_range(f)
    if top:
        return _scale_bracket(opnorm_bracket(g, normal, rd, radius, max_iters, tol, cap, seed), top)
    lower, iters, rel = _opnorm_lower_info(g, f, radius, max_iters, tol, cap, seed)
    upper = math.inf if rd is None else opnorm_upper(g, f, rd)
    return NormBracket(
        lower=_clamp_crossing(lower, upper, l1_norm(f)),
        upper=upper,
        lower_ball_radius=radius,
        iterations=iters,
        achieved_tol=rel,
    )


def _ldexp(z: complex, e: int) -> complex:
    """z * 2^e, part by part: exact unless a part becomes subnormal."""
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def _normal_range(f: GroupRingElement) -> tuple[GroupRingElement, int]:
    """(f * 2^-top, top) if every coefficient part of f is subnormal, else (f, 0).

    The scaling is exact and brings the largest part into [0.5, 1), so an
    element whose parts are all subnormal is bracketed in normal range and
    its ends are scaled back by 2^top, rounded outward.
    """
    top = math.frexp(max((max(abs(c.real), abs(c.imag)) for c in f.terms.values()), default=1.0))[1]
    if top >= sys.float_info.min_exp:
        return f, 0
    return GroupRingElement(f.group, {x: _ldexp(c, -top) for x, c in f.terms.items()}), top


def _scale_bracket(bracket: NormBracket, e: int) -> NormBracket:
    """The bracket times 2^e, each end one ulp outward where it rounded inward.

    Scaling a result back by 2^-e is exact, so it shows which way ldexp
    rounded.  A bracket of f * 2^-e taken in normal range so encloses the
    norm of f even where that norm is subnormal, and loses no step of the
    subnormal grid that it need not; where no end rounds it is exact.
    """
    lower, upper = math.ldexp(bracket.lower, e), math.ldexp(bracket.upper, e)
    if math.ldexp(lower, -e) > bracket.lower:
        lower = math.nextafter(lower, 0.0)
    if math.ldexp(upper, -e) < bracket.upper:
        upper = math.nextafter(upper, math.inf)
    return replace(bracket, lower=lower, upper=upper)


def random_element(g: Group, radius: int, rng: np.random.Generator) -> GroupRingElement:
    """Seeded random nonzero element of 1 to 6 terms supported in the given ball."""
    arena = g.arena(radius)
    return _element_at(g, arena, *_draw_terms(arena, rng))


def _draw_terms(arena: BallArena, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """random_element's draw: k distinct sorted positions, then 2k normals as k coefficients."""
    k = min(int(rng.integers(1, 7)), len(arena))
    positions = rng.choice(len(arena), size=k, replace=False)
    positions.sort()
    return positions, rng.normal(size=2 * k).view(np.complex128)


def _element_at(g: Group, arena: BallArena, positions, coeffs) -> GroupRingElement:
    elements = map(arena.elements.__getitem__, positions.tolist())
    return GroupRingElement(g, dict(zip(elements, coeffs.tolist())))
