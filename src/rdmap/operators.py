"""Group-ring elements and certified brackets for the convolution operator norm.

A finitely supported function f on a group acts on square-summable sequences
by convolution.  Its operator norm is bracketed from below by the largest
singular value of a finite compression (the matrix of the action restricted
to a ball) and from above by the l1 norm and, when decay parameters are
available, by C times a weighted Sobolev norm.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .groups import (
    DEFAULT_BALL_CAP,
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    Group,
    GroupMismatchError,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_MAX_ITERS = 10_000
DEFAULT_POWER_TOL = 1e-10

# The lower-bound solver restarts its power iteration every RITZ_BLOCK steps
# from the Rayleigh-Ritz vector of the stored iterates.  Directions of the
# iterate span whose Gram eigenvalue falls below RITZ_GRAM_CUTOFF times the
# largest one (about 45 ulps, just above the rounding of the Gram product)
# count as numerically dependent and are dropped.
RITZ_BLOCK = 8
RITZ_GRAM_CUTOFF = 1e-14

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

    Coefficients are stored in a plain dict keyed by normal-form elements;
    zero coefficients are dropped and keys are normalized on construction.
    """

    group: Group
    terms: dict

    def __post_init__(self):
        clean: dict = {}
        for elem, coeff in self.terms.items():
            key = self.group.parse(self.group.encode(elem))
            value = clean.get(key, 0j) + complex(coeff)
            clean[key] = value
        clean = {k: v for k, v in clean.items() if v != 0}
        ordered = {k: clean[k] for k in sorted(clean, key=self.group.sort_key)}
        object.__setattr__(self, "terms", ordered)

    @property
    def support(self) -> list:
        return list(self.terms)

    def coeff(self, elem) -> complex:
        key = self.group.parse(self.group.encode(elem))
        return self.terms.get(key, 0j)

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, c: complex) -> "GroupRingElement":
        return GroupRingElement(self.group, {k: c * v for k, v in self.terms.items()})

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        _require_same_group(self.group, other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0j) + v
        return GroupRingElement(self.group, out)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + other.scale(-1.0)

    def __neg__(self) -> "GroupRingElement":
        return self.scale(-1.0)


def delta(g: Group, elem, coeff: complex = 1.0) -> GroupRingElement:
    """The coefficient-`coeff` point mass at `elem`."""
    return GroupRingElement(g, {g.parse(g.encode(elem)): coeff})


def zero_element(g: Group) -> GroupRingElement:
    return GroupRingElement(g, {})


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
    return _weighted_l2(
        [abs(c) for c in f.terms.values()],
        [(1.0 + g.length(x)) ** (2.0 * s) for x in f.terms],
    )


# ---------------------------------------------------------------------------
# decay parameters (C, s) for the built-in groups


@dataclass(frozen=True)
class RdParams:
    """Constants (C, s) with  opnorm(f) <= C * sobolev_norm(f, s)  for all f."""

    C: float
    s: float

    def __post_init__(self):
        if not (self.C > 0 and math.isfinite(self.C)):
            raise ValueError("constant C must be positive and finite")
        if not (self.s > 0 and math.isfinite(self.s)):
            raise ValueError("exponent s must be positive and finite")


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _sphere_polynomial(d: int) -> list:
    """Exact coefficients (ascending, in n) of the sphere size of Z^d.

    The number of lattice points at l1 distance n >= 1 is
    sum over j of 2^j C(d, j) C(n-1, j-1).
    """
    poly = [Fraction(0)] * d
    for j in range(1, d + 1):
        term = [Fraction(1)]
        for t in range(1, j):
            term = _poly_mul(term, [Fraction(-t), Fraction(1)])
        scale = Fraction(2**j * math.comb(d, j), math.factorial(j - 1))
        for i, c in enumerate(term):
            poly[i] += scale * c
    return poly


@functools.lru_cache(maxsize=None)
def _free_abelian_constant(d: int) -> float:
    """sqrt of the lattice sum of (1 + l1 length)^(-2d), via zeta values.

    Writing the sphere polynomial in u = n + 1 turns the sum into a finite
    combination of tails of the Riemann zeta function, so no truncation
    error enters beyond float rounding.
    """
    # scipy.special is imported here, not at module scope: only the Z^d
    # decay constant needs it
    from scipy.special import zeta

    poly = _sphere_polynomial(d)
    shifted = [Fraction(0)] * len(poly)
    for i, c in enumerate(poly):
        for k in range(i + 1):
            shifted[k] += c * math.comb(i, k) * (-1) ** (i - k)
    total = 1.0
    for i, a in enumerate(shifted):
        total += float(a) * (float(zeta(2 * d - i)) - 1.0)
    return math.sqrt(total)


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


@dataclass(frozen=True)
class CompressionMatrix:
    """Matrix of convolution by f on the span of a ball, in canonical order.

    Row x, column y holds f(x y^-1), so the matrix acts on coordinate
    vectors exactly as convolution acts on functions supported in the ball.
    """

    radius: int
    basis: list
    entries: sp.csr_matrix

    @property
    def size(self) -> int:
        return len(self.basis)


def compression_matrix(
    g: Group, f: GroupRingElement, radius: int, cap: int = DEFAULT_BALL_CAP
) -> CompressionMatrix:
    # scipy.sparse is imported here, not at module scope, so commands that
    # build no compression never load it
    import scipy.sparse as sp

    _require_same_group(g, f)
    arena = g.arena(radius, cap=cap)
    m = len(arena)
    # |s y| >= |s| - |y|, so a support element longer than twice the radius
    # sends no ball element back into the ball
    support = [s for s in f.terms if g.length(s) <= 2 * radius]
    targets = np.array(
        [g.left_translate(arena, s) for s in support], dtype=np.int64
    ).reshape(len(support), m)
    coeffs = np.array([f.terms[s] for s in support], dtype=complex)
    hit = targets >= 0
    entries = sp.csr_matrix(
        (
            np.broadcast_to(coeffs[:, None], targets.shape)[hit],
            (targets[hit], np.nonzero(hit)[1]),
        ),
        shape=(m, m),
    )
    return CompressionMatrix(radius=radius, basis=list(arena.elements), entries=entries)


def _power_iteration(A: sp.csr_matrix, max_iters: int, tol: float, seed: int = 0):
    """Largest singular value from below.

    Power iteration on B = A^H A from a seeded random start, restarted every
    RITZ_BLOCK steps from the Rayleigh-Ritz vector of the stored iterates.
    Each step is one A and one A^H product and yields the norm of A applied
    to an explicit unit vector, which never exceeds the true largest
    singular value.  The largest such value is returned together with the
    step count and the relative change between the last two values.
    """
    m = A.shape[0]
    if m == 0 or A.nnz == 0:
        return 0.0, 0, 0.0
    # scaling by a power of two is exact; with the largest entry brought to
    # [0.5, 1) no square formed below overflows or underflows (the exponent
    # is clamped so that the factor stays finite for subnormal entries)
    _, e = math.frexp(float(np.abs(A.data).max()))
    e = max(e, -1023)
    A = A * math.ldexp(1.0, -e)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    v /= np.linalg.norm(v)
    AH = A.conjugate().transpose().tocsr()
    # rows 0..RITZ_BLOCK-1 hold the unit iterates of the current block and
    # the last row the next one, so that B v_j = gains[j] * v_{j+1}
    iterates = np.empty((RITZ_BLOCK + 1, m), dtype=complex)
    gains = np.empty(RITZ_BLOCK)
    best = sigma = rel = 0.0
    k = 0
    for k in range(1, max_iters + 1):
        w = A @ v
        sigma_new = float(np.linalg.norm(w))
        rel = abs(sigma_new - sigma) / sigma_new if sigma_new else 0.0
        best = max(best, sigma_new)
        if sigma_new == 0.0 or (k > 1 and rel <= tol):
            break
        sigma = sigma_new
        j = (k - 1) % RITZ_BLOCK
        iterates[j] = v
        u = AH @ w
        gains[j] = np.linalg.norm(u)
        v = u / gains[j]
        if j == RITZ_BLOCK - 1:
            iterates[RITZ_BLOCK] = v
            v = _ritz_vector(iterates, gains)
    return math.ldexp(best, e), k, rel


def _ritz_vector(iterates: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Unit vector of largest Rayleigh quotient for B in the span of v_0..v_{K-1}.

    With B v_j = gains[j] * v_{j+1}, both the Gram matrix of the span and
    the projection of B come from one Gram product of the iterate buffer,
    so no matrix-vector product is spent.  The span is orthonormalized
    through the eigendecomposition of its Gram matrix, dropping directions
    below RITZ_GRAM_CUTOFF of the largest.
    """
    k = len(gains)
    gram = iterates.conj() @ iterates.T
    d, q = np.linalg.eigh(gram[:k, :k])
    keep = d > RITZ_GRAM_CUTOFF * d[-1]
    basis = q[:, keep] / np.sqrt(d[keep])
    projected = gram[:k, 1:] * gains
    projected = (projected + projected.conj().T) / 2
    _, z = np.linalg.eigh(basis.conj().T @ projected @ basis)
    y = (basis @ z[:, -1]) @ iterates[:k]
    return y / np.linalg.norm(y)


def opnorm_lower(
    g: Group,
    f: GroupRingElement,
    radius: int,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_POWER_TOL,
    cap: int = DEFAULT_BALL_CAP,
    seed: int = 0,
) -> float:
    """Certified lower bound for the convolution operator norm of f."""
    value, _, _ = _opnorm_lower_info(g, f, radius, max_iters, tol, cap, seed)
    return value


def _opnorm_lower_info(g, f, radius, max_iters, tol, cap, seed):
    _require_same_group(g, f)
    if f.is_zero():
        return 0.0, 0, 0.0
    comp = compression_matrix(g, f, radius, cap=cap)
    sigma, iters, rel = _power_iteration(comp.entries, max_iters, tol, seed=seed)
    return max(sigma, l2_norm(f)), iters, rel


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
    floor), `upper` from the l1/Sobolev bounds.  `iterations` counts the
    A/A^H product pairs of the Ritz-restarted power iteration, and
    `achieved_tol` is the relative change between its last two values, not
    a distance to the norm.
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

    @property
    def width(self) -> float:
        return self.upper - self.lower


def opnorm_bracket(
    g: Group,
    f: GroupRingElement,
    rd: RdParams,
    radius: int,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_POWER_TOL,
    cap: int = DEFAULT_BALL_CAP,
    seed: int = 0,
) -> NormBracket:
    lower, iters, rel = _opnorm_lower_info(g, f, radius, max_iters, tol, cap, seed)
    upper = opnorm_upper(g, f, rd)
    return NormBracket(
        lower=_clamp_crossing(lower, upper, l1_norm(f)),
        upper=upper,
        lower_ball_radius=radius,
        iterations=iters,
        achieved_tol=rel,
    )


def random_element(
    g: Group,
    radius: int,
    rng: np.random.Generator,
    max_terms: int = 6,
    cap: int = DEFAULT_BALL_CAP,
) -> GroupRingElement:
    """Seeded random nonzero element supported in the given ball."""
    ball = g.arena(radius, cap=cap).elements
    k = int(rng.integers(1, max_terms + 1))
    k = min(k, len(ball))
    picks = rng.choice(len(ball), size=k, replace=False)
    terms = {
        ball[int(i)]: complex(rng.normal(), rng.normal()) for i in sorted(picks)
    }
    return GroupRingElement(g, terms)
