"""Seeded operation lists for the four workloads.

Every input comes from ``random.Random(f"perfbench/{workload}/{seed}")``, so
the same seed gives the same list.  An op is ``Op(kind, args, fault)``:
``kind`` names a worker routine, ``args`` are its JSON arguments, and
``fault`` is None or the name of a known program fault that makes the op fail
on every run (its inputs do not depend on the seed).

A run executes one list ``rounds`` times in order.  ``rounds`` comes from
``--seconds`` and a fixed nominal cost per round, never from a clock, so a
run's operation mix and its share of failed ops never depend on where a run
stops.  Rounds are short (0.6 to 2 s, 5 s for cli-session) so that every op is
timed several times in a run; run.py keeps each op's median time.

Cost that depends on the draw is kept out of the seed, so that ten seeds give
ten comparable runs:

* A derivation trace's shape (its node count) depends only on the point's
  position relative to the delta = 1/2 set, whose endpoints have
  denominators up to 2**21.  Trace points therefore sit at the centres of
  fixed strata of (0, 1] on a 2**-21 cell grid, and the seed draws the low 9
  of 30 bits, plus the imaginary part within a fixed octave for complex
  points (the octave fixes the number of duplication halvings).
* The summary construction's cost grows faster than quadratically in
  t ~ (4/delta) log(2/delta), so the delta ladder is fixed; the seed draws
  the closure instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("trace-replay", "exact-construct", "residual-sweep", "cli-session")

# Nominal seconds one round takes on a 2-CPU x86 machine with CPython 3.11;
# only used to turn --seconds into a whole number of rounds.
NOMINAL_ROUND_S = {
    "trace-replay": 1.5,
    "exact-construct": 2.0,
    "residual-sweep": 0.6,
    "cli-session": 5.0,
}


@dataclass(frozen=True)
class Op:
    kind: str
    args: dict
    fault: str | None = None


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds that fill about `seconds`; at least three, so that every
    op has a median of several times and every run can check that a repeated
    input gives a repeated output."""
    return max(3, round(seconds / NOMINAL_ROUND_S[workload]))


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def build(workload: str, seed: int, scale: float = 1.0) -> list:
    """The seeded op list of one round.  `scale` < 1 shrinks every count
    (the self-tests use it); the benchmark always runs at scale 1."""
    return _BUILDERS[workload](rng_for(workload, seed), scale)


def _n(count: int, scale: float) -> int:
    return max(1, round(count * scale))


# ---------------------------------------------------------------------------
# trace-replay

CELL_BITS = 21
POINT_BITS = 30


def cell_point(rng: random.Random, cell: int) -> Fraction:
    """A dyadic point strictly inside the 2**-21 cell (cell, cell + 1)."""
    low = POINT_BITS - CELL_BITS
    u = rng.randrange(1, 1 << low)
    return Fraction((cell << low) + u, 1 << POINT_BITS)


def stratum_cell(j: int, n: int) -> int:
    """The cell at the centre of stratum j of n equal strata of (0, 1]."""
    return ((2 * j + 1) << CELL_BITS) // (2 * n)


def imag_in_octave(rng: random.Random, octave: int) -> float:
    """|Im| < 1 for octave -1, else |Im| in [2**octave, 2**(octave+1))."""
    if octave < 0:
        mag = rng.uniform(0.0, 1.0)
    else:
        mag = rng.uniform(2.0**octave, 2.0 ** (octave + 1))
    return mag if rng.random() < 0.5 else -mag


def quarter_point(rng: random.Random) -> float:
    while True:
        x = rng.uniform(1e-4, 0.5 - 1e-4)
        if abs(x - 1.0 / 3.0) > 1e-6:
            return x


def _trace_replay(rng, scale):
    n_real = _n(16, scale)
    n_complex = _n(4, scale)
    ops = []
    for j in range(n_real):
        x = cell_point(rng, stratum_cell(j, n_real))
        ops.append(Op("trace_real", {"x": str(x)}))
    for j in range(n_complex):
        re = float(cell_point(rng, stratum_cell(j, n_complex)))
        octave = j % 4 - 1
        ops.append(Op("trace_complex", {"z": [re, imag_in_octave(rng, octave)]}))
    for _ in range(_n(2, scale)):
        ops.append(Op("trace_quarter", {"xs": [quarter_point(rng) for _ in range(_n(100, scale))]}))
    return ops


# ---------------------------------------------------------------------------
# exact-construct

# Summary-mode ladder: empty threshold sets (1/64, 1/32), ten thresholds
# (1/25, 7/200), and a few small ones in between.  1/50 (about 1.8 s) is left
# out so that a round stays near 2 s.  Entries with node_budget = 1 force
# summary mode where the explicit forest would fit; those three are cheap
# enough to enumerate piece by piece in the check.
SUMMARY_LADDER = (
    ("1/64", None), ("1/32", None), ("1/25", None), ("7/200", None),
    ("1/30", None), ("1/20", None), ("1/10", None), ("3/7", None),
    ("1/2", 1), ("2/3", 1), ("5/8", 1),
)
ENUMERATED = {"1/2", "2/3", "5/8"}
EXPLICIT_DELTA = "1/2"
STERN_BLOCKS = tuple(tuple(range(lo, min(lo + 8, 41))) for lo in range(3, 41, 8))
# (points per instance, depth, max_n) of the seeded closure instances.  Their
# cost depends on the drawn points, so every shape is kept cheaper than the
# ops at the middle of the round (iteration_count, delta = 1/10): a seed
# then cannot move op_p50_ms.  (2, 3, 3) took 4 to 33 ms over 40 seeds.
CLOSURE_SHAPES = ((2, 2, 3), (2, 3, 2), (1, 2, 4), (1, 3, 2))


def _exact_construct(rng, scale):
    ladder = SUMMARY_LADDER if scale >= 1 else SUMMARY_LADDER[-4:]
    ops = [
        Op("construct", {"delta": d, "node_budget": b, "explicit": False})
        for d, b in ladder
    ]
    ops.append(Op("construct", {"delta": EXPLICIT_DELTA, "node_budget": None,
                                "explicit": True}))
    ops.append(Op("iteration_count", {"deltas": [d for d, _ in ladder] + [EXPLICIT_DELTA]}))
    blocks = STERN_BLOCKS if scale >= 1 else STERN_BLOCKS[:1]
    ops.extend(Op("stern", {"ms": list(b)}) for b in blocks)
    for npts, depth, max_n in CLOSURE_SHAPES:
        points = sorted({str(Fraction(rng.randrange(1, 12), rng.randrange(1, 12)))
                         for _ in range(npts)})
        ops.append(Op("closure", {"points": points, "depth": depth, "max_n": max_n}))
    return ops


# ---------------------------------------------------------------------------
# residual-sweep

# the identity tags of acceptance criterion 1
IDENTITY_TAGS = (
    ["functional", "reflection", "duplication", "comb"]
    + [f"mult:{n}" for n in range(2, 7)]
    + [f"cosine:{m}" for m in range(0, 9)]
    + [f"sine:{k}" for k in range(1, 7)]
)
# Fixed negative-real kernel points: 4000 midpoints of (-170, 0), minus those
# within 1e-3 of a pole.  Some miss the 1e-12 target today (known fault).
NEGATIVE_GRID = 4000


def negative_grid() -> list:
    xs = [-170.0 * (j + 0.5) / NEGATIVE_GRID for j in range(NEGATIVE_GRID)]
    return [x for x in xs if abs(x - round(x)) >= 1e-3]


def _complex_box_point(rng, half):
    while True:
        z = complex(rng.uniform(-half, half), rng.uniform(-half, half))
        k = min(round(z.real), 0)
        if abs(z - k) >= 0.05:
            return z


def _general_pair(rng):
    # the admissible region of acceptance criterion 5
    while True:
        w = rng.uniform(0.1, 3.0)
        z = rng.uniform(0.1, 3.0)
        s = w + z - 0.5
        if abs(s - round(s)) > 1e-2:
            return w, z


def _residual_sweep(rng, scale):
    ops = []
    for tag in IDENTITY_TAGS:
        re_range = [0.0, 0.25] if tag == "comb" else [-4.0, 4.0]
        ops.append(Op("verify", {
            "tag": tag, "count": _n(1000, scale), "re_range": re_range,
            "im_range": [-4.0, 4.0], "seed": rng.randrange(2**31), "tol": 1e-10,
        }))
    batch = _n(1000, scale)
    for _ in range(2):
        ops.append(Op("gamma", {"points": [rng.uniform(0.01, 170.0) for _ in range(batch)]}))
        ops.append(Op("gamma", {"points": [
            [z.real, z.imag] for z in (_complex_box_point(rng, 8.0) for _ in range(batch))]}))
        half = batch // 2
        ops.append(Op("log_gamma", {"points": [rng.uniform(0.01, 170.0) for _ in range(half)]
                                    + [[rng.uniform(0.01, 170.0), rng.uniform(-50.0, 50.0)]
                                       for _ in range(batch - half)]}))
    ops.append(Op("gamma", {"points": negative_grid()}, fault="negative-real kernel accuracy"))
    for k in range(_n(12, scale)):
        if k % 3 == 2:
            z = rng.uniform(0.5, 5.0)
        else:
            z = [rng.uniform(0.5, 5.0), rng.uniform(-2.0, 2.0)]
        ops.append(Op("gamma_integral", {"z": z, "rtol": 1e-11}))
    for _ in range(_n(8, scale)):
        ops.append(Op("beta_integral", {
            "z": [rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0)],
            "w": [rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0)], "rtol": 1e-10}))
        ops.append(Op("tanh_sinh_beta", {
            "a": rng.uniform(1.0, 3.0), "b": rng.uniform(1.0, 3.0), "rtol": 1e-10}))
        ops.append(Op("real_line_gamma", {"s": rng.uniform(0.5, 4.0), "rtol": 1e-10}))
    for _ in range(4):
        pairs = []
        for _ in range(_n(50, scale)):
            m = rng.randrange(0, 7)
            pairs.append([m, rng.uniform(m + 0.2, m + 10.0)])
        ops.append(Op("finite_series", {"pairs": pairs}))
        ops.append(Op("general_series", {
            "pairs": [list(_general_pair(rng)) for _ in range(_n(20, scale))],
            "tol": 1e-12, "max_terms": 500}))
    for phi in ("one", "geom:2", "exp", "log1p"):
        for _ in range(_n(4, scale)):
            ops.append(Op("mellin", {"phi": phi, "s": rng.uniform(0.1, 0.9)}))
    return ops


# ---------------------------------------------------------------------------
# cli-session

# Cells whose traces are among the largest at delta = 1/2: a 4093-node real
# trace and, with |Im z| in [4, 8), a 12283-node complex trace.
CLI_REAL_CELL = 1193707
CLI_COMPLEX_CELL = 66184


def _cli_session(rng, scale):
    z = _complex_box_point(rng, 4.0)
    tag = rng.choice(IDENTITY_TAGS)
    verify = ["verify", "--identity", tag, "--samples", "200",
              "--seed", str(rng.randrange(10**6))]
    m = rng.randrange(0, 7)
    w, zz = _general_pair(rng)
    x = cell_point(rng, CLI_REAL_CELL)
    zc = complex(float(cell_point(rng, CLI_COMPLEX_CELL)), imag_in_octave(rng, 2))
    points = sorted({str(Fraction(rng.randrange(1, 12), rng.randrange(1, 12))) for _ in range(2)})
    phi = rng.choice(("one", "geom:2", "exp", "log1p"))
    mellin = ["mellin", "--phi", phi, "--s", repr(rng.uniform(0.1, 0.9))]
    construct = ["landau", "construct", "--delta", "1/2"]
    script = [
        ["eval", f"--z={z.real!r},{z.imag!r}"],
        verify,
        verify + ["--format", "csv"],
        ["schlomilch", "finite", "--m", str(m), "--z", repr(rng.uniform(m + 0.2, m + 10.0))],
        ["schlomilch", "general", "--w", repr(w), "--z", repr(zz)],
        ["schlomilch", "binom", "--m", str(rng.randrange(0, 21)), "--l", str(rng.randrange(0, 21))],
        construct,
        construct + ["--format", "text"],
        ["landau", "trace", "--delta", "1/2", "--x", str(x), "--emit-trace"],
        ["landau", "quarter", "--x", repr(quarter_point(rng)), "--emit-trace"],
        ["stern", "--m", str(rng.randrange(20, 31))],
        ["closure", "--points", ",".join(points), "--depth", "2", "--max-n", "3"],
        mellin,
        mellin + ["--format", "text"],
        ["complex-trace", "--delta", "1/2", f"--z={zc.real!r},{zc.imag!r}", "--emit-trace"],
    ]
    ops = [Op("cli", {"argv": argv}) for argv in script]
    ops.append(Op("cli", {"argv": ["eval", "--z", "172"]}, fault="eval --z 172 overflow"))
    if scale < 1:
        keep = {"eval", "stern", "mellin"}
        ops = [op for op in ops if op.args["argv"][0] in keep]
    return ops


_BUILDERS = {
    "trace-replay": _trace_replay,
    "exact-construct": _exact_construct,
    "residual-sweep": _residual_sweep,
    "cli-session": _cli_session,
}
