"""
Approximating the identity by finite-rank contractions
======================================================

The full pipeline: sweep rates r downward, truncate each heat multiplier
deep enough that the certified scale U is indistinguishable from 1, and
bracket the operator-norm defect  || rho * f - f ||  on a test element.
The defect upper bound falls with r because every coefficient multiplier
exp(-r * length) / U tends to 1 pointwise while the operator stays a
finite-rank contraction.
"""

import numpy as np

from rdmap import (
    FreeAbelianGroup,
    FreeGroup,
    GroupRingElement,
    GridSchedule,
    builtin_rd_params,
    default_schedule,
    l1_norm,
    random_element,
    rd_sample_report,
    rows_to_csv,
    run_grid,
    select_epsilon,
)

F2 = FreeGroup(2)
rd = builtin_rd_params(F2)
kesten = GroupRingElement(F2, {"a": 1.0, "A": 1.0, "b": 1.0, "B": 1.0})

# Default schedule: r in {0.5, 0.1, 0.02}, truncation n(r) = ceil(40 s / r).
rows = run_grid(F2, kesten, default_schedule(rd))
print(rows_to_csv(rows))

target = 0.05 * l1_norm(kesten)
chosen = select_epsilon(rows, target)
print(f"first row with defect below {target}: r = {chosen.r}, n = {chosen.n}")

# A finer schedule shows the defect tracking 4 * (1 - exp(-r)) closely:
# the truncation cost is already negligible, only the rate matters.
fine = GridSchedule(r_values=(0.4, 0.2, 0.1, 0.05, 0.025), rd=rd)
print("\nr        defect_upper   4(1-exp(-r))")
for row in run_grid(F2, kesten, fine):
    print(f"{row.r:<7}  {row.defect_upper:.6f}      {4 * (1 - np.exp(-row.r)):.6f}")

# Every rate brackets a defect (phi - 1) f on the support of f.  On the ball
# of radius 7 (4,373 elements) that compression is a sparse matrix, whose
# sparsity pattern the ball keeps: the rates after the first only refill it.
warm = run_grid(F2, kesten, default_schedule(rd), radius=7)
print("\nradius-7 defect lower ends:", [row.defect_lower for row in warm])

# The same machinery runs on the lattice with its own constants.
Z1 = FreeAbelianGroup(1)
rd1 = builtin_rd_params(Z1)
g = random_element(Z1, 3, np.random.default_rng(1))
rows1 = run_grid(Z1, g, default_schedule(rd1))
print("\nlattice element defects:", [round(r.defect_upper, 5) for r in rows1])

# Random soundness sweep: certified lower bounds never cross C * Sobolev.
report = rd_sample_report(F2, rd, count=50, seed=3)
print(
    f"\nsoundness sweep: {report.count} samples, passed={report.passed}, "
    f"worst ratio {report.worst_ratio:.4f}"
)
