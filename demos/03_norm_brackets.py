"""
Certified brackets for convolution operator norms
=================================================

A finitely supported element acts on square-summable functions by
convolution.  The operator norm of that action is bracketed:

  lower  --  largest singular value of a ball compression (power
             iteration never overshoots), floored by the l2 norm;
  upper  --  the l1 norm, and C * Sobolev when decay constants apply.

The generator sum on the free group is the classic benchmark: its true
norm is 2*sqrt(3) = 3.4641..., strictly below the l1 value 4.
"""

import math

from rdmap import (
    FreeAbelianGroup,
    FreeGroup,
    GroupRingElement,
    builtin_rd_params,
    convolve,
    delta,
    l1_norm,
    l2_norm,
    opnorm_bracket,
    opnorm_lower,
    sobolev_norm,
)

F2 = FreeGroup(2)
rd = builtin_rd_params(F2)
print(f"free(2) decay constants: C = {rd.C:.6f}, s = {rd.s}")

kesten = GroupRingElement(F2, {"a": 1.0, "A": 1.0, "b": 1.0, "B": 1.0})
print("l1 =", l1_norm(kesten), " l2 =", l2_norm(kesten),
      " sobolev(s=2) =", sobolev_norm(F2, kesten, 2.0))

# Convolving the element with itself stays in the group ring.
square = convolve(F2, kesten, kesten)
print("kesten^2 coefficient at identity:", square.coeff(""))

# The compression lower bound improves monotonically with the window.
print("\nradius   ball    lower bound")
for radius in range(2, 9):
    value = opnorm_lower(F2, kesten, radius)
    print(f"  {radius}   {F2.ball_size(radius):6d}   {value:.6f}")
print("true norm 2*sqrt(3) =", 2.0 * math.sqrt(3.0))

bracket = opnorm_bracket(F2, kesten, rd, radius=8)
print(f"bracket at radius 8: [{bracket.lower:.6f}, {bracket.upper:.6f}]"
      f"  ({bracket.iterations} iterations)")

# On the integers the two-sided shift has norm 2, and the compression is a
# path graph whose top eigenvalue 2cos(pi/(m+1)) we can match digit for digit.
Z1 = FreeAbelianGroup(1)
shift = GroupRingElement(Z1, {(1,): 1.0, (-1,): 1.0})
print(f"\nshift compression on the ball of radius 10: {Z1.ball_size(10)} elements")
value = opnorm_lower(Z1, shift, 10)
print("lower =", value, " vs 2cos(pi/22) =", 2.0 * math.cos(math.pi / 22.0))

# Point masses are exactly norm 1 and the bracket collapses.
b = opnorm_bracket(F2, delta(F2, "ab"), rd, radius=3)
print("\npoint mass bracket:", (round(b.lower, 12), round(b.upper, 12)))
