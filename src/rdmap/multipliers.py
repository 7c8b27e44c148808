"""Pointwise multipliers of the convolution algebra.

A function phi on the group acts on finitely supported elements by
coordinatewise multiplication, f -> phi * f.  When the word length is
conditionally negative, the heat family exp(-r * length) acts as a
contraction; truncating it to a ball of radius n leaves a finite-rank
operator whose norm exceeds 1 by at most C * K_n, the certified tail.
Dividing by U = 1 + C * K_n therefore yields a finite-rank contraction,
and U -> 1 as n grows, so nothing is lost in the limit.  That certified
rescaling, in place of division by the exact (uncomputable) operator
norm, is the central design choice of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .groups import DEFAULT_BALL_CAP, Group, GroupMismatchError
from .kernels import DecayCertificate, decay_certificate
from .operators import (
    GroupRingElement,
    NormBracket,
    RdParams,
    _clamp_crossing,
    l1_norm,
    opnorm_bracket,
)

MULTIPLIER_KINDS = ("table", "heat", "truncated-heat", "scaled")


@dataclass(frozen=True)
class Multiplier:
    """Tagged union of the four multiplier kinds.

    table: finite support map, explicit values, zero elsewhere.
    heat: exp(-r * length), r > 0.
    truncated-heat: the heat value where length <= n, zero beyond.
    scaled: an inner multiplier divided by a scale U >= 1.
    """

    group: Group
    kind: str
    r: Optional[float] = None
    n: Optional[int] = None
    table: Optional[dict] = None
    inner: Optional["Multiplier"] = None
    U: Optional[float] = None
    decay: Optional[DecayCertificate] = None

    def __post_init__(self):
        if self.kind not in MULTIPLIER_KINDS:
            raise ValueError(f"unknown multiplier kind {self.kind!r}")
        if self.kind in ("heat", "truncated-heat"):
            if self.r is None or not self.r > 0:
                raise ValueError("heat multipliers require a rate r > 0")
        if self.kind == "truncated-heat":
            if self.n is None or self.n < 0:
                raise ValueError("truncation radius n must be a nonnegative integer")
        if self.kind == "table":
            if self.table is None:
                raise ValueError("table multipliers require a support map")
            clean = {}
            for elem, value in self.table.items():
                key = self.group.parse(self.group.encode(elem))
                v = complex(value)
                if v != 0:
                    clean[key] = v
            ordered = {k: clean[k] for k in sorted(clean, key=self.group.sort_key)}
            object.__setattr__(self, "table", ordered)
        if self.kind == "scaled":
            if self.inner is None:
                raise ValueError("scaled multipliers wrap an inner multiplier")
            if self.inner.group != self.group:
                raise GroupMismatchError("inner multiplier lives on a different group")
            if self.U is None or not self.U >= 1.0:
                raise ValueError("scale U must satisfy U >= 1")

    def eval(self, elem):
        """Pointwise value at a group element."""
        x = self.group.parse(self.group.encode(elem))
        if self.kind == "heat":
            return math.exp(-self.r * self.group.length(x))
        if self.kind == "truncated-heat":
            length = self.group.length(x)
            if length > self.n:
                return 0.0
            return math.exp(-self.r * length)
        if self.kind == "table":
            return self.table.get(x, 0j)
        return self.inner.eval(x) / self.U

    @property
    def has_finite_support(self) -> bool:
        if self.kind == "table":
            return True
        if self.kind == "truncated-heat":
            return True
        if self.kind == "scaled":
            return self.inner.has_finite_support
        return False

    def support_size_bound(self) -> Optional[int]:
        """Number of points where the multiplier can be nonzero, if finite."""
        if self.kind == "table":
            return len(self.table)
        if self.kind == "truncated-heat":
            return self.group.ball_size(self.n)
        if self.kind == "scaled":
            return self.inner.support_size_bound()
        return None


def heat_multiplier(g: Group, r: float) -> Multiplier:
    return Multiplier(group=g, kind="heat", r=r)


def truncated_heat_multiplier(g: Group, r: float, n: int) -> Multiplier:
    return Multiplier(group=g, kind="truncated-heat", r=r, n=n)


def table_multiplier(g: Group, table: dict) -> Multiplier:
    return Multiplier(group=g, kind="table", table=table)


def apply(phi: Multiplier, f: GroupRingElement) -> GroupRingElement:
    """The multiplier action: coordinatewise product phi * f."""
    if f.group != phi.group:
        raise GroupMismatchError(
            f"multiplier on {phi.group!r} applied to element of {f.group!r}"
        )
    return GroupRingElement(
        f.group, {x: phi.eval(x) * c for x, c in f.terms.items()}
    )


@dataclass(frozen=True)
class MultiplierNormBound:
    """Certified upper bound for a multiplier's operator norm.

    `rank_bound` is the support size when the multiplier has finite
    support (such an operator has finite rank) and None otherwise.
    """

    upper: float
    rank_bound: Optional[int] = None

    def __post_init__(self):
        if self.upper < 0:
            raise ValueError("norm bound must be nonnegative")


def _decay_sup(cert: DecayCertificate, n: Optional[int]) -> float:
    """Supremum of the decay envelope over [0, n], or everywhere if n is None."""
    if n is None or n >= cert.peak:
        return cert.K
    return cert.envelope(float(n))


def lemma_norm_bound(phi: Multiplier, rd: RdParams) -> MultiplierNormBound:
    """Upper bound C * K with K = sup |phi| * (1 + length)^s.

    For heat kinds K comes from the closed-form decay certificate; for
    tables it is a finite maximum over the support.  A scaled multiplier
    inherits the inner bound divided by U, capped at 1 since the scale is
    itself a certified norm bound for the inner operator.
    """
    if phi.kind == "heat":
        K = decay_certificate(phi.r, rd.s).K
        return MultiplierNormBound(upper=rd.C * K, rank_bound=None)
    if phi.kind == "truncated-heat":
        cert = decay_certificate(phi.r, rd.s)
        K = _decay_sup(cert, phi.n)
        return MultiplierNormBound(upper=rd.C * K, rank_bound=phi.group.ball_size(phi.n))
    if phi.kind == "table":
        K = max(
            (
                abs(v) * (1.0 + phi.group.length(x)) ** rd.s
                for x, v in phi.table.items()
            ),
            default=0.0,
        )
        return MultiplierNormBound(upper=rd.C * K, rank_bound=len(phi.table))
    inner = lemma_norm_bound(phi.inner, rd)
    return MultiplierNormBound(
        upper=min(1.0, inner.upper / phi.U), rank_bound=inner.rank_bound
    )


def tail_bound(r: float, s: float, n: int, C: float) -> float:
    """C * K_n, a certified norm bound for the discarded heat tail."""
    if C <= 0:
        raise ValueError("constant C must be positive")
    return C * decay_certificate(r, s).tail(n)


def certified_scale(r: float, s: float, n: int, C: float) -> float:
    """U = 1 + C * K_n, a certified norm bound for the truncated heat operator.

    The full heat operator is a contraction when the length is
    conditionally negative, and the truncation differs from it by an
    operator of norm at most C * K_n, so the triangle inequality gives
    norm(truncated) <= U.  U >= 1 always, and U -> 1 as n grows.
    """
    return 1.0 + tail_bound(r, s, n, C)


def scaled_multiplier(g: Group, r: float, s: float, n: int, C: float) -> Multiplier:
    """The truncated heat multiplier divided by its certified scale.

    A finite-rank contraction by construction: support is the ball of
    radius n, and every operator-norm bound is divided by U >= norm.
    """
    U = certified_scale(r, s, n, C)
    inner = truncated_heat_multiplier(g, r, n)
    return Multiplier(
        group=g,
        kind="scaled",
        r=r,
        n=n,
        inner=inner,
        U=U,
        decay=decay_certificate(r, s),
    )


def pointwise_defect_bound(phi: Multiplier, f: GroupRingElement) -> float:
    """Cheap defect bound sup over supp f of |phi - 1| times the l1 norm."""
    if f.is_zero():
        return 0.0
    worst = max(abs(phi.eval(x) - 1.0) for x in f.terms)
    return worst * l1_norm(f)


def map_defect(
    g: Group,
    f: GroupRingElement,
    phi: Multiplier,
    rd: RdParams,
    radius: int,
    max_iters: int = 10_000,
    tol: float = 1e-10,
    cap: int = DEFAULT_BALL_CAP,
    seed: int = 0,
) -> NormBracket:
    """Certified bracket for the operator norm of phi*f - f.

    The lower end comes from a ball compression of the difference, the
    upper end from the smaller of the l1/Sobolev bounds and the pointwise
    bound sup |phi - 1| * l1(f) over the support of f.  The difference is
    formed in floats, so a crossing of the two ends is judged against the
    l1 masses of phi*f and f it was rounded from.
    """
    product = apply(phi, f)
    bracket = opnorm_bracket(
        g, product - f, rd, radius, max_iters=max_iters, tol=tol, cap=cap, seed=seed
    )
    cheap = pointwise_defect_bound(phi, f)
    upper = min(bracket.upper, cheap)
    return NormBracket(
        lower=_clamp_crossing(bracket.lower, upper, l1_norm(product) + l1_norm(f)),
        upper=upper,
        lower_ball_radius=bracket.lower_ball_radius,
        iterations=bracket.iterations,
        achieved_tol=bracket.achieved_tol,
    )
