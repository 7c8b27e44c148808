"""
Heat multipliers, truncation tails, and the certified rescale
=============================================================

The heat family phi_r(x) = exp(-r * length(x)) multiplies coefficients
pointwise and, over a conditionally negative length, acts as a norm-1
operator.  Truncating to a ball of radius n makes the operator finite
rank at the price of a tail of size at most C * K_n.  Dividing by
U = 1 + C * K_n restores a guaranteed contraction, and U -> 1 as the
ball grows, so the rescaling costs nothing in the limit.
"""

import math

from rdmap import (
    FreeGroup,
    GroupRingElement,
    HeatMultiplier,
    apply,
    builtin_rd_params,
    decay_certificate,
    delta,
    lemma_norm_bound,
    map_defect,
    scaled_multiplier,
    table_multiplier,
)

F2 = FreeGroup(2)
rd = builtin_rd_params(F2)

# Pointwise action: each coefficient shrinks by exp(-r * length).
f = GroupRingElement(F2, {"a": 1.0, "ab": 1.0})
heated = apply(HeatMultiplier(F2, 1.0), f)
print("heat(1) on a + ab:", {k: round(v.real, 6) for k, v in heated.terms.items()})

# The multiplier norm bound C * K from the decay certificate.
bound = lemma_norm_bound(HeatMultiplier(F2, 1.0), rd)
print("lemma bound for heat(1):", bound.upper, " rank bound:", bound.rank_bound)

trunc = lemma_norm_bound(HeatMultiplier(F2, 1.0, n=5), rd)
print("truncated at n=5: same K, finite rank:", trunc.rank_bound)

# A finitely supported multiplier is a group-ring element: its values on
# the support, zero elsewhere, and rank at most the support size.
phi = table_multiplier(F2, {"": 1.0, "a": 0.5, "ab": -0.25j})
table = lemma_norm_bound(phi, rd)
print("table bound:", table.upper, " rank bound:", table.rank_bound)
print("table on a + ab:", apply(phi, f).terms)

# Tail bounds decay fast once n passes the envelope peak s/r - 1.
print("\nn      C*K_n          U = 1 + C*K_n")
for n in (0, 1, 2, 5, 10, 20, 40):
    t = rd.C * decay_certificate(1.0, rd.s).tail(n)
    print(f"{n:3d}   {t:.6e}   {scaled_multiplier(F2, 1.0, rd.s, n, rd.C).U:.12f}")

# The rescaled truncation is a guaranteed contraction: its value at the
# identity is 1/U < 1, and a point mass measures the defect exactly.
rho = scaled_multiplier(F2, 1.0, rd.s, 5, rd.C)
print("\nU =", rho.U)
print("rho(e) =", rho.coeff(""), " rho(a) =", rho.coeff("a"))
print("rho vanishes past the ball:", rho.coeff("ababab"))

bracket = map_defect(F2, delta(F2, ""), rho, rd, radius=3)
print("defect on the point mass:", (bracket.lower, bracket.upper))
print("closed form (U-1)/U =", (rho.U - 1.0) / rho.U)

# Deeper truncation drives the defect of the identity element to zero.
print("\nn     defect upper on point mass")
for n in (2, 5, 10, 20, 40):
    rho_n = scaled_multiplier(F2, 1.0, rd.s, n, rd.C)
    b = map_defect(F2, delta(F2, ""), rho_n, rd, radius=2)
    print(f"{n:3d}   {b.upper:.3e}")
print("(the remaining defect is the rate r at work: exp(-r*0) = 1 exactly,")
print(" so the point mass at the identity feels only the rescale U)")
