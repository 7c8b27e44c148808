"""Grid harness: schedules, rows, selection, canonical exports."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdmap.harness
from rdmap.groups import CyclicGroup, FreeAbelianGroup, FreeGroup
from rdmap.harness import (
    CSV_HEADER,
    SAMPLE_CHUNK,
    ConvergenceRow,
    GridSchedule,
    RdSampleReport,
    _l1_bound,
    default_schedule,
    rd_sample_report,
    rows_to_csv,
    rows_to_json,
    run_grid,
    select_epsilon,
)
from rdmap.multipliers import scaled_multiplier
from rdmap.operators import (
    GroupRingElement,
    RdParams,
    builtin_rd_params,
    delta,
    l1_norm,
    opnorm_lower,
    random_element,
    sobolev_norm,
)

F2 = FreeGroup(2)
RD = builtin_rd_params(F2)
KESTEN = GroupRingElement(F2, {"a": 1.0, "A": 1.0, "b": 1.0, "B": 1.0})


def test_default_n_rule():
    schedule = default_schedule(RD)
    assert RD.s == 2.0
    assert schedule.n_rule(0.5) == 160
    assert schedule.n_rule(0.1) == 800
    assert schedule.n_rule(0.02) == 4000
    with pytest.raises(ValueError, match="r=1e-320"):
        schedule.n_rule(1e-320)


def test_schedule_validation():
    with pytest.raises(ValueError):
        GridSchedule(r_values=(), rd=RD)
    with pytest.raises(ValueError):
        GridSchedule(r_values=(0.1, 0.5), rd=RD)
    with pytest.raises(ValueError):
        GridSchedule(r_values=(0.5, -0.1), rd=RD)
    for r in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"rate r must be positive and finite, got {r}"):
            GridSchedule(r_values=(r,), rd=RD)


def test_convergence_row_validation():
    with pytest.raises(ValueError):
        ConvergenceRow(0.5, 160, 1.0, 0.0, 0.5, 0.4)
    with pytest.raises(ValueError):
        ConvergenceRow(0.5, 160, 0.9, 0.0, 0.1, 0.4)


def test_run_grid_kesten_column():
    rows = run_grid(F2, KESTEN, default_schedule(RD))
    assert [row.r for row in rows] == [0.5, 0.1, 0.02]
    assert [row.n for row in rows] == [160, 800, 4000]
    uppers = [row.defect_upper for row in rows]
    assert uppers[0] > uppers[1] > uppers[2]
    # U is 1 to machine precision on this schedule, so the cheap bound rules
    for row, upper in zip(rows, uppers):
        assert upper == pytest.approx(4.0 * (1.0 - math.exp(-row.r)), abs=1e-12)
    assert uppers[-1] <= 0.05 * l1_norm(KESTEN)
    for row in rows:
        assert row.defect_lower <= row.defect_upper
        assert row.U >= 1.0


def test_run_grid_point_mass_closed_form():
    # at s = 0.05 the tail C * K_n at n = ceil(40 s / r) is far from rounding
    rd = RdParams(C=RD.C, s=0.05)
    rows = run_grid(F2, delta(F2, ""), GridSchedule(r_values=(1.0, 0.5), rd=rd))
    assert [row.n for row in rows] == [2, 4]
    for row in rows:
        expected = (row.U - 1.0) / row.U
        assert row.U == pytest.approx(scaled_multiplier(F2, row.r, rd.s, row.n, rd.C).U)
        # n is past the peak s/r - 1 < 0, so K_n is the envelope at n
        assert row.U == pytest.approx(1.0 + rd.C * math.exp(-row.r * row.n) * (1.0 + row.n) ** rd.s)
        assert row.U > 1.1
        assert row.defect_upper == pytest.approx(expected, abs=1e-10)
        assert row.defect_lower == pytest.approx(expected, abs=1e-10)


def test_run_grid_zero_element():
    rows = run_grid(F2, GroupRingElement(F2, {}), default_schedule(RD))
    assert all(row.defect_lower == row.defect_upper == 0.0 for row in rows)


def test_select_epsilon():
    rows = run_grid(F2, KESTEN, default_schedule(RD))
    hit = select_epsilon(rows, 0.3)
    assert hit is rows[-1]
    assert select_epsilon(rows, 10.0) is rows[0]
    assert select_epsilon(rows, 0.0) is None
    with pytest.raises(ValueError):
        select_epsilon([], 0.5)


def test_csv_round_trip_and_determinism():
    rows = run_grid(F2, KESTEN, default_schedule(RD))
    again = run_grid(F2, KESTEN, default_schedule(RD))
    text = rows_to_csv(rows)
    assert text == rows_to_csv(again)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER == "r,n,U,K_n,defect_lower,defect_upper,runtime_ms"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == rows[0].r
    assert int(first[1]) == rows[0].n
    assert float(first[4]) == rows[0].defect_lower
    assert float(first[6]) == 0.0


def test_csv_runtime_column_zeroed():
    rows = run_grid(F2, KESTEN, default_schedule(RD))
    values = [float(line.split(",")[6]) for line in rows_to_csv(rows).strip().split("\n")[1:]]
    assert values == [0.0] * len(rows)


def test_run_grid_rows_are_plain_values():
    # a row holds no timing, so two runs of one grid give equal rows
    assert run_grid(F2, KESTEN, default_schedule(RD)) == run_grid(F2, KESTEN, default_schedule(RD))


def test_json_mirror():
    rows = run_grid(F2, KESTEN, default_schedule(RD))
    payload = json.loads(rows_to_json(rows))
    assert len(payload) == 3
    assert set(payload[0]) == {
        "r", "n", "U", "K_n", "defect_lower", "defect_upper", "runtime_ms",
    }
    assert payload[2]["defect_upper"] == rows[2].defect_upper
    assert payload[0]["runtime_ms"] == 0.0
    assert rows_to_json(rows) == rows_to_json(run_grid(F2, KESTEN, default_schedule(RD)))


def test_rd_sample_report_passes():
    report = rd_sample_report(F2, RD, count=25, seed=42)
    assert isinstance(report, RdSampleReport)
    assert report.passed
    assert 0.0 < report.worst_ratio <= 1.0 + 1e-9
    assert report.count == 25


def test_rd_sample_report_rejects_bogus_constant():
    tiny = RdParams(C=1e-6, s=2.0)
    report = rd_sample_report(F2, tiny, count=5, seed=0)
    assert not report.passed
    assert report.worst_ratio > 1.0


def test_rd_sample_report_validation():
    with pytest.raises(ValueError):
        rd_sample_report(F2, RD, count=0, seed=1)
    # an infinite tolerance let a constant 100x too small pass; zero stays valid
    bogus = RdParams(C=0.01, s=2.0)
    assert not rd_sample_report(F2, bogus, count=5, seed=0, tolerance=0.0).passed
    for tolerance in (math.inf, math.nan, -1e-9):
        with pytest.raises(ValueError, match=f"tolerance must be finite and nonnegative, got {tolerance}"):
            rd_sample_report(F2, bogus, count=5, seed=0, tolerance=tolerance)


@pytest.mark.parametrize(
    "count, seed, name",
    [(True, 1, "sample count"), (2.5, 1, "sample count"), (0, 1, "sample count"),
     (5, -1, "seed"), (5, 1.5, "seed")],
)
def test_rd_sample_report_counts_and_seeds_are_integers(count, seed, name):
    with pytest.raises(ValueError, match=f"{name} must be"):
        rd_sample_report(F2, RD, count=count, seed=seed)


def test_rd_sample_report_stores_count_as_int():
    report = rd_sample_report(F2, RD, count=np.int64(2), seed=1.0)
    assert type(report.count) is int and report.count == 2


def test_rd_sample_other_group():
    g = FreeAbelianGroup(1)
    report = rd_sample_report(g, builtin_rd_params(g), count=25, seed=7)
    assert report.passed


def solve_every_sample(g, rd, count, seed, radius=4, tolerance=1e-9):
    """(worst_ratio, passed, worst_element) with every sample solved, in draw order."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_element = None
    passed = True
    for _ in range(count):
        f = random_element(g, 3, rng)
        lower = opnorm_lower(g, f, radius)
        ceiling = rd.C * sobolev_norm(g, f, rd.s)
        ratio = lower / ceiling
        if ratio > worst:
            worst = ratio
            worst_element = f
        if lower > ceiling + tolerance:
            passed = False
    return worst, passed, worst_element


def assert_report_solves_every_sample(g, rd, count, seed, radius, tolerance):
    report = rd_sample_report(g, rd, count, seed, radius=radius, tolerance=tolerance)
    worst, passed, worst_element = solve_every_sample(g, rd, count, seed, radius, tolerance)
    assert report.count == count
    assert report.worst_ratio == worst
    assert report.passed is passed
    assert report.worst_element.terms == worst_element.terms


SAMPLED_GROUPS = [
    FreeGroup(2), FreeGroup(3), FreeAbelianGroup(1), FreeAbelianGroup(2), CyclicGroup(7), CyclicGroup(40),
]


@settings(max_examples=60, deadline=None)
@given(
    g=st.sampled_from(SAMPLED_GROUPS),
    radius=st.integers(1, 4),
    C=st.sampled_from([None, 0.2, 0.05]),
    tolerance=st.sampled_from([0.0, 1e-9]),
    count=st.integers(1, 40),
    # a smaller chunk crosses chunk boundaries at these counts
    chunk=st.sampled_from([3, 16, SAMPLE_CHUNK]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_report_is_the_one_that_solving_every_sample_gives(g, radius, C, tolerance, count, chunk, seed):
    # C = 0.2 and 0.05 are below the true constants, so some reports fail
    builtin = builtin_rd_params(g)
    rd = builtin if C is None else RdParams(C=C, s=builtin.s)
    with mock.patch.object(rdmap.harness, "SAMPLE_CHUNK", chunk):
        assert_report_solves_every_sample(g, rd, count, seed, radius, tolerance)


@pytest.mark.parametrize(
    "g, radius", [(FreeAbelianGroup(1), 4), (FreeGroup(2), 2), (CyclicGroup(40), 3)], ids=["Z-r4", "F2-r2", "Z40-r3"]
)
@pytest.mark.parametrize("count, C", [(600, None), (700, 0.2)])
def test_counts_across_sample_chunks_give_the_same_report(g, radius, count, C):
    builtin = builtin_rd_params(g)
    rd = builtin if C is None else RdParams(C=C, s=builtin.s)
    assert count > 2 * SAMPLE_CHUNK
    assert_report_solves_every_sample(g, rd, count, 5, radius, 1e-9)


def test_a_subnormal_part_leaves_the_sample_to_the_solver():
    assert _l1_bound(GroupRingElement(F2, {"a": 1.0, "b": complex(0.5, 5e-324)})) == math.inf
    assert _l1_bound(KESTEN) == 4.0 * (1.0 + 2.0**-30)
