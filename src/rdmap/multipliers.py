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

A multiplier is a HeatMultiplier or, when phi has finite support, the
GroupRingElement of its values (table_multiplier); either gives its value
at x as phi.coeff(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .groups import DEFAULT_BALL_CAP, Group, check_integer, check_positive_finite
from .kernels import DecayCertificate, decay_certificate
from .operators import (GroupRingElement, NormBracket, RdParams, _ldexp, _require_same_group,
                        _scale_bracket, opnorm_bracket)

@dataclass(frozen=True)
class HeatMultiplier:
    """The heat multiplier exp(-r * length), 0 < r < inf.

    With n set it is cut to the ball of radius n (zero beyond), a
    finite-rank operator.  With U set it is divided by U >= 1; U must be a
    certified bound for the norm of the undivided operator (see
    scaled_multiplier), and only then is the result a certified contraction.
    """

    group: Group
    r: float
    n: Optional[int] = None
    U: Optional[float] = None

    def __post_init__(self):
        check_positive_finite(self.r, "rate r")
        if self.n is not None:
            object.__setattr__(self, "n", check_integer(self.n, "truncation radius n"))
        if self.U is not None:
            check_positive_finite(self.U, "scale U")
            if not self.U >= 1.0:
                raise ValueError("scale U must satisfy U >= 1")

    def coeff(self, elem):
        """Pointwise value at a group element."""
        length = self.group.length(elem)
        if self.n is not None and length > self.n:
            return 0.0
        value = math.exp(-self.r * length)
        return value if self.U is None else value / self.U


def table_multiplier(g: Group, table: dict) -> GroupRingElement:
    """The finitely supported multiplier with the given values, zero elsewhere."""
    return GroupRingElement(g, table)


def apply(
    phi: HeatMultiplier | GroupRingElement, f: GroupRingElement
) -> GroupRingElement:
    """The multiplier action: coordinatewise product phi * f."""
    _require_same_group(phi.group, f)
    return GroupRingElement(
        f.group, {x: phi.coeff(x) * c for x, c in f.terms.items()}
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


def lemma_norm_bound(
    phi: HeatMultiplier | GroupRingElement, rd: RdParams
) -> MultiplierNormBound:
    """Upper bound C * K with K = sup |phi| * (1 + length)^s.

    For heat multipliers K comes from the closed-form decay certificate,
    over the ball of radius n when truncated; for a group-ring element it
    is a finite maximum over the support.  A rescaled heat multiplier gets
    that bound divided by U, capped at 1 since U is itself a certified norm
    bound.
    """
    if isinstance(phi, GroupRingElement):
        K = max(
            (
                abs(v) * (1.0 + phi.group.length(x)) ** rd.s
                for x, v in phi.terms.items()
            ),
            default=0.0,
        )
        return MultiplierNormBound(upper=rd.C * K, rank_bound=len(phi.terms))
    upper = rd.C * _decay_sup(decay_certificate(phi.r, rd.s), phi.n)
    if phi.U is not None:
        upper = min(1.0, upper / phi.U)
    rank = None if phi.n is None else phi.group.ball_size(phi.n)
    return MultiplierNormBound(upper=upper, rank_bound=rank)


def scaled_multiplier(g: Group, r: float, s: float, n: int, C: float) -> HeatMultiplier:
    """The truncated heat multiplier divided by U = 1 + C * K_n.

    U is a certified norm bound for the truncated heat operator: the full
    heat operator is a contraction when the length is conditionally
    negative, and the truncation differs from it by an operator of norm at
    most C * K_n, so the triangle inequality gives norm(truncated) <= U.
    U >= 1 always, and U -> 1 as n grows.  The result is a finite-rank
    contraction by construction: support is the ball of radius n, and every
    operator-norm bound is divided by U >= norm.
    """
    return _scaled_multiplier(g, r, s, n, C)[0]


def _scaled_multiplier(g: Group, r: float, s: float, n: int, C: float) -> tuple[HeatMultiplier, float]:
    """scaled_multiplier(g, r, s, n, C) and the tail K_n of its U = 1 + C * K_n."""
    check_positive_finite(C, "constant C")
    K_n = decay_certificate(r, s).tail(n)
    return HeatMultiplier(g, r, n, 1.0 + C * K_n), K_n


def _split(z: complex) -> tuple[complex, int]:
    """(z * 2^-e, e) with the larger part of z * 2^-e in [0.5, 1)."""
    e = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    return _ldexp(z, -e), e


def map_defect(
    g: Group,
    f: GroupRingElement,
    phi: HeatMultiplier | GroupRingElement,
    rd: RdParams,
    radius: int,
    cap: int = DEFAULT_BALL_CAP,
    seed: int = 0,
) -> NormBracket:
    """Certified bracket for the operator norm of phi*f - f.

    The defect is formed as (phi - 1)*f: phi - 1 is exact for phi in [1/2, 2]
    (Sterbenz), so nothing cancels where phi is close to 1, and
    l1((phi - 1)*f) <= sup |phi - 1| * l1(f) needs no pointwise bound on top.
    Each product is formed from factors scaled into [0.5, 1) by powers of two,
    then scaled by 2^-top, top the largest product exponent, so none
    underflows beside the largest.  The bracket is scaled back by 2^top, each
    end one ulp outward where it rounded inward; in normal range all is exact.
    """
    _require_same_group(phi.group, f)
    scaled = {}
    for x, c in f.terms.items():
        a = complex(phi.coeff(x) - 1.0)
        if a:
            (a, ea), (c, ec) = _split(a), _split(c)
            scaled[x] = (a * c, ea + ec)
    top = max((e for _, e in scaled.values()), default=0)
    defect = GroupRingElement(f.group, {x: _ldexp(p, e - top) for x, (p, e) in scaled.items()})
    return _scale_bracket(opnorm_bracket(g, defect, rd, radius, cap=cap, seed=seed), top)
