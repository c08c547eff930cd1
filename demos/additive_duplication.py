"""
Additive analogues of the duplication formula
=============================================

The duplication formula rewrites a product of two gamma values as a
single one.  There is also a family of *sums*: for each m >= 0,

    (2^(z-1)/sqrt(pi)) Gamma((z+m+1)/2) Gamma((z-m)/2)
        = sum over n <= m of  Gamma(z-n) (m-n+1)_{2n} / (2^n n!)

with exact rational coefficients on the right.  This script walks the finite
identity, its m = 0 degeneration into the classical duplication
formula, the two-parameter series extension, and the exact binomial
identity that falls out along the way.
"""

import random

from gammalab import GammalabError, gamma, residual_duplication
from gammalab.schlomilch import (
    SchlomilchCoefficients,
    binomial_identity_check,
    generalized_lhs,
    generalized_series,
    schlomilch_finite_lhs,
    schlomilch_finite_rhs,
)

rng = random.Random(777)

print("Coefficient triangle")
print("--------------------")
for m in range(6):
    coeffs = SchlomilchCoefficients.build(m)
    print(f"m={m}: ", [int(c) for c in coeffs.coefficients])
print()

print("Finite identity, left vs right")
print("------------------------------")
for m in range(5):
    worst = 0.0
    for _ in range(20):
        z = complex(rng.uniform(m + 0.3, m + 8.0), rng.uniform(-2.0, 2.0))
        lhs = schlomilch_finite_lhs(m, z)
        rhs = schlomilch_finite_rhs(m, z)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    print(f"m={m}: worst relative residual over 20 points = {worst:.3e}")
print()

# At m = 0 the sum collapses to a single term and the statement *is*
# the duplication formula.
print("m = 0 degenerates to duplication")
print("--------------------------------")
z = 1.7
print("finite lhs(0, z)   =", schlomilch_finite_lhs(0, z))
print("finite rhs(0, z)   =", schlomilch_finite_rhs(0, z))
print("gamma(z)           =", gamma(complex(z)))
print("duplication residual at z:", residual_duplication(z))
print()

print("Two-parameter series extension")
print("------------------------------")
# generalized_lhs(w, z) is a closed form built from four gamma values;
# generalized_series sums the factorial series term by term, as Gamma(s)
# times the Gauss series 2F1(1 - u, u; 1 - s; 1/2) with s = w + z - 1/2 and
# u = w - z + 1/2.  They agree wherever both sides are defined.
shown = 0
while shown < 6:
    w = rng.uniform(0.1, 3.0)
    zz = rng.uniform(0.1, 3.0)
    try:
        closed = generalized_lhs(w, zz)
    except GammalabError:
        continue  # landed in an excluded strip (pole of either side)
    series = generalized_series(w, zz, 1e-14, 500)
    rel = abs(series.value - closed) / max(abs(closed), 1e-300)
    print(
        f"w={w:.4f} z={zz:.4f}  terms={series.terms_used:3d}  "
        f"converged={series.converged}  rel err={rel:.3e}"
    )
    shown += 1
print()

print("Exact binomial corollary")
print("------------------------")
# Matching coefficients on both sides of the finite identity forces a
# binomial identity that holds exactly in integer arithmetic.
print("spot check (m=4, l=2):")
lhs, rhs, equal = binomial_identity_check(4, 2)
print("  lhs =", lhs, " rhs =", rhs, " equal =", equal)
bad = 0
for m in range(11):
    for l in range(11):
        _, _, ok = binomial_identity_check(m, l)
        if not ok:
            bad += 1
print(f"checked 121 (m, l) pairs exactly, failures: {bad}")
