"""Convergence harness: sweep heat parameters and record defect brackets.

Each grid point fixes a rate r and a truncation radius n, builds the
rescaled truncated heat multiplier, and brackets the operator-norm defect
of the identity-approximation step on a chosen test element.  Rows are plain
values, deterministic given the seed; the exports keep a `runtime_ms` column
fixed at 0.0 for the CSV/JSON format, not a timing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import DEFAULT_BALL_CAP, Group, check_integer, check_positive_finite
from .kernels import decay_certificate
from .multipliers import map_defect, scaled_multiplier
from .operators import (
    GroupRingElement,
    RdParams,
    l1_norm,
    opnorm_lower,
    random_element,
    sobolev_norm,
)
from .serialize import canonical_json

DEFAULT_R_VALUES = (0.5, 0.1, 0.02)

CSV_HEADER = "r,n,U,K_n,defect_lower,defect_upper,runtime_ms"

# rd_sample_report holds at most this many samples at once, for any count
SAMPLE_CHUNK = 256
# the relative margin of the l1 bound that decides unsolved samples
L1_MARGIN = 2.0**-30


@dataclass(frozen=True)
class GridSchedule:
    """Decreasing rates r with decay parameters and a truncation rule."""

    r_values: tuple
    rd: RdParams

    def __post_init__(self):
        values = tuple(float(r) for r in self.r_values)
        object.__setattr__(self, "r_values", values)
        if not values:
            raise ValueError("schedule needs at least one rate")
        for r in values:
            check_positive_finite(r, "rate r")
        if any(b >= a for a, b in zip(values, values[1:])):
            raise ValueError("rates must be strictly decreasing")

    def n_rule(self, r: float) -> int:
        """Truncation radius n(r) = ceil(40 s / r).

        Past the tail peak s/r - 1, and deep enough that the tail correction
        C*K_n stays far below the defect sizes of interest for every r on the
        default grid, so the rate limit dominates the convergence picture.
        """
        depth = 40.0 * self.rd.s / r
        if not math.isfinite(depth):
            raise ValueError(
                f"truncation radius n = ceil(40 s / r) overflows at r={r!r}, s={self.rd.s!r}"
            )
        return math.ceil(depth)


def default_schedule(rd: RdParams) -> GridSchedule:
    return GridSchedule(r_values=DEFAULT_R_VALUES, rd=rd)


@dataclass(frozen=True)
class ConvergenceRow:
    r: float
    n: int
    U: float
    K_n: float
    defect_lower: float
    defect_upper: float

    def __post_init__(self):
        if self.defect_lower > self.defect_upper:
            raise ValueError("defect bracket out of order")
        if self.U < 1.0:
            raise ValueError("scale U must be at least 1")


def _default_radius(g: Group, f: GroupRingElement) -> int:
    longest = max((g.length(x) for x in f.terms), default=0)
    return 2 * longest + 1


def run_grid(
    g: Group,
    f: GroupRingElement,
    schedule: GridSchedule,
    radius: Optional[int] = None,
    cap: int = DEFAULT_BALL_CAP,
    seed: int = 0,
) -> list:
    """One ConvergenceRow per rate, in schedule order."""
    rd = schedule.rd
    if radius is None:
        radius = _default_radius(g, f)
    rows = []
    for r in schedule.r_values:
        n = schedule.n_rule(r)
        K_n = decay_certificate(r, rd.s).tail(n)
        rho = scaled_multiplier(g, r, rd.s, n, rd.C)
        bracket = map_defect(g, f, rho, rd, radius, cap=cap, seed=seed)
        rows.append(
            ConvergenceRow(
                r=r,
                n=n,
                U=rho.U,
                K_n=K_n,
                defect_lower=bracket.lower,
                defect_upper=bracket.upper,
            )
        )
    return rows


def select_epsilon(rows: list, epsilon: float) -> Optional[ConvergenceRow]:
    """Earliest row whose certified defect upper bound beats epsilon."""
    if not rows:
        raise ValueError("no grid rows to select from")
    for row in rows:
        if row.defect_upper < epsilon:
            return row
    return None


def row_fields(row: ConvergenceRow) -> dict:
    """The exported fields of a row, with the format's fixed `runtime_ms` column (0.0)."""
    return {
        "r": row.r,
        "n": row.n,
        "U": row.U,
        "K_n": row.K_n,
        "defect_lower": row.defect_lower,
        "defect_upper": row.defect_upper,
        "runtime_ms": 0.0,
    }


def rows_to_csv(rows: list) -> str:
    """Canonical CSV with shortest round-trip float formatting."""
    # row_fields lists the fields in CSV_HEADER order
    lines = [CSV_HEADER] + [",".join(map(str, row_fields(row).values())) for row in rows]
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list) -> str:
    return canonical_json([row_fields(row) for row in rows])


@dataclass(frozen=True)
class RdSampleReport:
    """Outcome of a random soundness sweep of the decay inequality.

    `worst_element` is the sample attaining `worst_ratio`, kept so a
    failing sweep can print its offender.
    """

    count: int
    worst_ratio: float
    passed: bool
    worst_element: Optional[GroupRingElement] = None


def _l1_bound(f: GroupRingElement) -> float:
    """l1_norm(f) * (1 + L1_MARGIN), or inf where a coefficient part is subnormal."""
    if any(0.0 < abs(p) < sys.float_info.min for c in f.terms.values() for p in (c.real, c.imag)):
        return math.inf
    return l1_norm(f) * (1.0 + L1_MARGIN)


def rd_sample_report(
    g: Group,
    rd: RdParams,
    count: int,
    seed: int,
    radius: int = 4,
    cap: int = DEFAULT_BALL_CAP,
    tolerance: float = 1e-9,
) -> RdSampleReport:
    """Check lower <= C * Sobolev on seeded random elements.

    Each sample is a random_element on the ball of radius 3, bracketed from
    below by opnorm_lower on the ball of the given radius.  The ratio is
    lower / ceiling, ceiling = C * Sobolev; `worst_element` is the first
    sample drawn at the largest ratio, and the sweep passes unless some
    sample has lower > ceiling + tolerance.

    Only the samples that can change this report are solved.  With
    bound = l1_norm(f) * (1 + L1_MARGIN), each chunk of SAMPLE_CHUNK draws
    is visited by decreasing bound / ceiling, earlier draws first on ties,
    and a sample is solved only if that quotient exceeds the running worst
    ratio, or equals it at an earlier draw, or, while the sweep passes,
    its bound exceeds ceiling + tolerance.  The rest are decided by
    |lambda(f)| <= |f|_1: lower <= bound, and rounded division is monotone,
    so the report is the one that solving every sample gives.  The margin:
    each solver value is |fl(A x)| for a computed unit x, off by at most
    about (k + NORM_CHUNK) * eps relative for k terms, under 1e-11 here;
    |A| <= |f|_1 and the l2 floor is at most |f|_1, while L1_MARGIN is
    9.3e-10.  A sample with a subnormal coefficient part, which the
    argument does not cover, has an infinite bound and is solved.  Sample
    0's compression ball is checked before any Sobolev weight is formed,
    so errors come in the order of a loop that solves every sample.
    """
    count = check_integer(count, "sample count", 1)
    seed = check_integer(seed, "seed")
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_index = -1
    worst_element = None
    passed = True
    for start in range(0, count, SAMPLE_CHUNK):
        samples = [random_element(g, 3, rng, cap=cap) for _ in range(min(SAMPLE_CHUNK, count - start))]
        if start == 0:
            g.arena(check_integer(radius, "radius"), cap=cap)
        ceilings = [rd.C * sobolev_norm(g, f, rd.s) for f in samples]
        bounds = [_l1_bound(f) for f in samples]
        keys = [b / c if b < math.inf else math.inf for b, c in zip(bounds, ceilings)]
        for i in sorted(range(len(samples)), key=lambda i: (-keys[i], i)):
            index = start + i
            ceiling = ceilings[i]
            leads = keys[i] > worst or (keys[i] == worst and index < worst_index)
            fails = passed and bounds[i] > ceiling + tolerance
            if not (leads or fails or bounds[i] == math.inf):
                continue
            lower = opnorm_lower(g, samples[i], radius, cap=cap)
            ratio = lower / ceiling
            if ratio > worst or (ratio == worst and index < worst_index):
                worst, worst_index, worst_element = ratio, index, samples[i]
            if lower > ceiling + tolerance:
                passed = False
    return RdSampleReport(
        count=count,
        worst_ratio=worst,
        passed=passed,
        worst_element=worst_element,
    )
