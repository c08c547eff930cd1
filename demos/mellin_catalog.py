# Master-theorem checks on a small catalog of alternating series.
#
# Each catalog entry packages a coefficient sequence phi together with
# psi(x) = sum_k phi(k) (-x)^k, stated once as log psi(e^u): the form
# the transform integrates, and that psi_eval uses past the series'
# disc.  The master theorem says the Mellin transform
# integral x^(s-1) psi(x) dx  equals (pi / sin(pi s)) * phi(-s) on the
# strip 0 < s < 1, with phi interpolated off the integers in the
# natural way.

import math

from gammalab.mellin import (
    catalog_entry,
    mellin_transform,
    psi_eval,
    rmt_closed_form,
    rmt_residual,
)

TAGS = ["one", "geom:2", "exp", "log1p"]

print("psi near the origin (series) vs closed form")
for tag in TAGS:
    spec = catalog_entry(tag)
    x = 0.25
    print(f"  {tag:6s} psi({x}) = {psi_eval(spec, x):.15g}")
print()

# The main table: numerical Mellin transform against the closed form,
# across the whole open strip.
print("residuals |transform - closed| / |closed| on s = 0.1 .. 0.9")
print("-----------------------------------------------------------")
print("s    " + "".join(f"{tag:>12s}" for tag in TAGS))
for k in range(1, 10):
    s = k / 10.0
    row = f"{s:.1f}  "
    for tag in TAGS:
        row += f"{rmt_residual(catalog_entry(tag), s):12.2e}"
    print(row)
print()

# phi identically 1 means psi(x) = 1/(1+x); its transform is a beta
# integral and the closed form is exactly pi / sin(pi s).
print("the phi = 1 row in closed form is pi/sin(pi s):")
spec = catalog_entry("one")
for s in [0.25, 0.5, 0.75]:
    closed = rmt_closed_form(spec, s)
    print(f"  s={s}: closed={closed:.12f}  pi/sin(pi s)={math.pi / math.sin(math.pi * s):.12f}")
print()

# phi(k) = 1/k! means psi(x) = e^(-x), and phi(-s) = 1/Gamma(1-s)
# turns the closed form into plain Gamma(s); this entry stays valid
# for every s > 0, not just the unit strip.
print("the exp entry reproduces Gamma(s), including near the strip edge")
spec = catalog_entry("exp")
for s in [0.5, 0.99, 2.5]:
    t = mellin_transform(spec, s)
    c = rmt_closed_form(spec, s)
    print(f"  s={s}: transform={t:.12g}  closed={c:.12g}  rel={abs(t - c) / abs(c):.2e}")
print()

print("rescaled geometric entries: phi(k) = a^k is a substitution x -> ax")
for tag in ["geom:2", "geom:3", "geom:0.5"]:
    print(f"  {tag:9s} residual at s=0.5 -> {rmt_residual(catalog_entry(tag), 0.5):.2e}")
