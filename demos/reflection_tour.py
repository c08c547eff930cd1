"""
A tour of the classical gamma identities
========================================

Evaluates gamma at a few landmarks, then measures how well the
recurrence, reflection and duplication relations hold at random
complex points, cross-checks against the integral definition, and
finishes with the nonvanishing scan.
"""

import math
import random

from gammalab import (
    QuadratureSpec,
    SampleSpec,
    gamma,
    gamma_integral,
    nonvanishing_scan,
    residual_duplication,
    residual_functional,
    residual_reflection,
    verify_grid,
)

rng = random.Random(42)

print("Some landmark values")
print("--------------------")
print("gamma(5)      =", gamma(5.0), "          (4! = 24)")
print("gamma(1/2)    =", gamma(0.5), "   (sqrt(pi) =", math.sqrt(math.pi), ")")
print("gamma(1/4)    =", gamma(0.25))
print("gamma(-5/2)   =", gamma(-2.5), " (-8 sqrt(pi)/15 =", -8 * math.sqrt(math.pi) / 15, ")")
print("gamma(3+4i)   =", gamma(3 + 4j))
print()

# Pointwise residuals at random complex arguments.  Each residual is
# |lhs - rhs| / max(|lhs|, |rhs|) for the identity in question, so
# anything near machine epsilon means the two sides agree to the last
# few bits.
print("Pointwise residuals at 5 random points")
print("--------------------------------------")
for _ in range(5):
    z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    if abs(z.real - round(z.real)) < 0.2 and abs(z.imag) < 0.2:
        continue  # stay away from the poles on the real axis
    print(f"z = {z:.4f}")
    print(f"  recurrence  : {residual_functional(z):.3e}")
    print(f"  reflection  : {residual_reflection(z):.3e}")
    print(f"  duplication : {residual_duplication(z):.3e}")
print()

# The same thing at scale: 200 seeded samples per identity, worst
# residual reported.
print("Seeded grid verification (200 samples each)")
print("-------------------------------------------")
spec = SampleSpec(count=200)
for tag in ["functional", "reflection", "duplication", "mult:3", "sine:4"]:
    report = verify_grid(tag, spec, 1e-10)
    print(
        f"{tag:12s} pass={report.passed}  "
        f"worst residual {report.max_relative_residual:.3e} at z = {report.worst_point:.4f}"
    )
print()

# Independent oracle: the integral definition, evaluated by tanh-sinh
# quadrature, never touches the Lanczos code path.
print("Cross-check against the integral definition")
print("-------------------------------------------")
qspec = QuadratureSpec(relative_tolerance=1e-11)
worst = 0.0
for _ in range(8):
    z = complex(rng.uniform(0.5, 5.0), rng.uniform(-2.0, 2.0))
    via_series = gamma(z)
    via_integral = gamma_integral(z, qspec)
    rel = abs(via_series - via_integral) / abs(via_series)
    worst = max(worst, rel)
    print(f"z = {z:.4f}   |gamma - integral|/|gamma| = {rel:.3e}")
print("worst disagreement:", f"{worst:.3e}")
print()

# gamma has no zeros.  Scan a rectangle of the plane (excluding small
# disks around the poles) and report where |gamma| bottoms out; on the
# positive real axis the minimum sits near x = 1.4616.
print("Nonvanishing scan")
print("-----------------")
lo, argmin = nonvanishing_scan((-5.5, 5.5), (-3.0, 3.0), 0.1)
print(f"min |gamma| over [-5.5,5.5] x [-3,3]: {lo:.3e} at z = {argmin:.2f}")
lo_re, argmin_re = nonvanishing_scan((1.0, 2.0), (0.0, 0.0), 0.001)
print(f"real-axis dip: |gamma({argmin_re.real:.4f})| = {lo_re:.10f}")
print("(the minimum of gamma on (0, inf) is about 0.885603 at x ~ 1.46163)")
