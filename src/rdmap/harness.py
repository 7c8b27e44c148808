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

from .groups import DEFAULT_BALL_CAP, BallArena, Group, check_integer, check_positive_finite
from .multipliers import _scaled_multiplier, map_defect
from .operators import (
    GroupRingElement,
    RdParams,
    _draw_terms,
    _element_at,
    _sobolev_weights,
    _weighted_l2,
    opnorm_lower,
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
        rho, K_n = _scaled_multiplier(g, r, rd.s, n, rd.C)
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
    return next((row for row in rows if row.defect_upper < epsilon), None)


def row_fields(row: ConvergenceRow) -> dict:
    """A row's fields, which __init__ sets in declaration order, and the fixed `runtime_ms` (0.0)."""
    return {**vars(row), "runtime_ms": 0.0}


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


def _ceilings_and_bounds(arena: BallArena, draws: list, rd: RdParams) -> tuple[list, list]:
    """rd.C * sobolev_norm and the l1 bound of rd_sample_report for each draw, bit for bit.

    np.hypot is abs(complex)'s hypot.
    """
    lengths = arena.lengths[np.concatenate([p for p, _ in draws])].tolist()
    parts = np.concatenate([c for _, c in draws]).view(np.float64).reshape(-1, 2)
    present = set(lengths)
    weights = dict(zip(present, _sobolev_weights(present, rd.s)))
    moduli = np.hypot(parts[:, 0], parts[:, 1]).tolist()
    subnormal = ((parts != 0.0) & (abs(parts) < sys.float_info.min)).any(axis=1).tolist()
    ends = np.cumsum([len(p) for p, _ in draws]).tolist()
    spans = [slice(a, b) for a, b in zip([0] + ends, ends)]
    ceilings = [rd.C * _weighted_l2(moduli[t], map(weights.get, lengths[t])) for t in spans]
    bounds = [math.inf if any(subnormal[t]) else math.fsum(moduli[t]) * (1.0 + L1_MARGIN) for t in spans]
    return ceilings, bounds


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

    Each sample is a random_element on the ball of radius 3, drawn and scored
    as ball positions and built only if solved, and bracketed from below by
    opnorm_lower on the ball of the given radius.  With ceiling = C * Sobolev,
    `worst_element` is the first sample drawn at the largest ratio lower /
    ceiling, and the sweep passes unless some sample has lower > ceiling + tolerance.

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
        ball = g.arena(3, cap=cap)
        draws = [_draw_terms(ball, rng) for _ in range(min(SAMPLE_CHUNK, count - start))]
        if start == 0:
            g.arena(check_integer(radius, "radius"), cap=cap)
        ceilings, bounds = _ceilings_and_bounds(ball, draws, rd)
        keys = [b / c if b < math.inf else math.inf for b, c in zip(bounds, ceilings)]
        for i in sorted(range(len(draws)), key=lambda i: (-keys[i], i)):
            index = start + i
            ceiling = ceilings[i]
            leads = keys[i] > worst or (keys[i] == worst and index < worst_index)
            fails = passed and bounds[i] > ceiling + tolerance
            if not (leads or fails or bounds[i] == math.inf):
                continue
            f = _element_at(g, ball, *draws[i])
            lower = opnorm_lower(g, f, radius, cap=cap)
            ratio = lower / ceiling
            if ratio > worst or (ratio == worst and index < worst_index):
                worst, worst_index, worst_element = ratio, index, f
            if lower > ceiling + tolerance:
                passed = False
    return RdSampleReport(
        count=count,
        worst_ratio=worst,
        passed=passed,
        worst_element=worst_element,
    )
