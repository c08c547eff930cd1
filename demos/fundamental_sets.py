"""Small fundamental sets for gamma, and replayable derivation traces.

A fundamental set of measure < delta is a subset S of (0, 1] such that
gamma at *any* point of (0, 1] can be recovered from gamma on S using
only the recurrence and reflection-type identities.  The construction
below keeps every interval endpoint as an exact Fraction, so measures
are exact rationals, and every evaluation produces a derivation tree
that an independent checker can replay.
"""

import random
from fractions import Fraction

from gammalab import (
    complex_reduce_trace,
    gamma,
    iteration_count,
    landau_construct,
    quarter_set_trace,
    trace_evaluate,
    validate_trace,
)
from gammalab.landau import quarter_set_membership

rng = random.Random(2024)


def show_tree(trace, i=-1, indent=0):
    """Print the subtree at node i of trace's post-order lists (the root is
    last); a real argument, held as its pair (n, d), prints as n/d."""
    a = trace.args[i]
    arg = Fraction(*a) if isinstance(a, tuple) else a
    print(f"{'  ' * indent}{trace.rules[i]:11s} arg={arg}  value={trace.values[i]:.6g}")
    for k in trace.kids[i]:
        show_tree(trace, k, indent + 1)


print("How many refinement rounds does each delta need?")
for d in ["1", "1/2", "1/10", "1/50"]:
    print(f"  delta = {d:5s} -> t = {iteration_count(Fraction(d))}")
print()

print("Explicit construction at delta = 1/2")
print("------------------------------------")
fs = landau_construct(Fraction(1, 2))
print("rounds t          =", fs.t)
print("measure (exact)   =", fs.measure, f"  ~ {float(fs.measure):.6f}  < 1/2")
print("residual mass     =", fs.residual_mass, f"  = (1/2)(3/4)^10")
print("leaf intervals    =", len(fs.leaf_union))
print("tree nodes        =", fs.node_count)
print("forest roots      =", len(fs.root_forest))
print("final pieces      =", fs.final_piece_count)
print()

# Evaluate gamma at a point outside the set by walking the recurrence
# back into it, then replay every node of the trace independently.
print("A derivation trace for gamma(3/7)")
print("---------------------------------")
value, trace = trace_evaluate(Fraction(3, 7), fs)
print("value     =", value)
print("gamma(3/7)=", gamma(3 / 7))
print("nodes     =", trace.node_count, " direct leaves =", trace.direct_count)
show_tree(trace)
checked = validate_trace(trace, lambda a: a in fs.leaf_union)
print("independent replay validated", checked, "nodes")
print()

print("Random points of (0, 1], worst replay error")
worst = 0.0
for _ in range(200):
    k = rng.randrange(1, 4096)
    x = Fraction(k, 4096)
    v, tr = trace_evaluate(x, fs)
    validate_trace(tr, lambda a: a in fs.leaf_union)
    worst = max(worst, abs(v - gamma(float(x))) / abs(gamma(float(x))))
print(f"  over 200 points: {worst:.3e}")
print()

# A hand-built reduction to (0, 1/4] union {1/3, 1}: reflection and an
# inverted duplication pull everything above 1/3 down, a quarter-step
# relation handles (1/4, 1/3).
print("Reduction to the quarter set (0, 1/4] + {1/3, 1}")
print("------------------------------------------------")
for x in [0.2, 0.3, 1 / 3, 0.45, 0.48]:
    v, tr = quarter_set_trace(x)
    checked = validate_trace(tr, quarter_set_membership)
    rel = abs(v - gamma(x)) / abs(gamma(x))
    print(
        f"x = {x:.6f}: {tr.node_count:2d} nodes ({checked} replayed), "
        f"{tr.direct_count} direct, rel err {rel:.2e}"
    )
print()
print("trace for x = 0.45 (reflect above 1/3, then undo a duplication):")
_, tr = quarter_set_trace(0.45)
show_tree(tr)
print()

# The same machinery extends off the real axis: the recurrence moves
# Re z into (0, 1], reflection handles the rest.
print("Complex arguments, reduced onto the real fundamental set")
print("--------------------------------------------------------")
worst = 0.0
for _ in range(40):
    z = complex(rng.uniform(0.05, 1.0), rng.uniform(-8.0, 8.0))
    v, tr = complex_reduce_trace(z, fs)
    worst = max(worst, abs(v - gamma(z)) / abs(gamma(z)))
print(f"worst relative error over 40 points: {worst:.3e}")
z = 3.7 + 1.2j
v, tr = complex_reduce_trace(z, fs)
print(f"z = {z}: {tr.node_count} nodes, value {v:.6g}, gamma {gamma(z):.6g}")
print()

print("Summary construction at delta = 1/10 (forest too big to store)")
print("--------------------------------------------------------------")
fs10 = landau_construct(Fraction(1, 10))
print("rounds t        =", fs10.t)
print("measure         ~", float(fs10.measure), " < 1/10")
print("final pieces    =", fs10.final_piece_count, " (counted, not stored)")
