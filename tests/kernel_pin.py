"""Seeded grids over every branch of the scalar kernel, and the sha256 of
what gamma, log_gamma, sinpi and cospi give on them.

The grids: the Lanczos half-plane, the Im z < 0 mirror, the reflection
strip, the log-space reflection (|Im z| > 50), a wide box that reaches the
overflow, the real line, the negative real axis as complex, and points
1e-9 from a pole.  Each value enters the digest as its repr, and an error
as its type's name, so a digest moves with any bit of any value.  It needs
only the standard library and gammalab; tests/test_core.py pins the digests.
"""

import hashlib
import random

from gammalab.core import cospi, gamma, log_gamma, sinpi

FUNCTIONS = {"gamma": gamma, "log_gamma": log_gamma, "sinpi": sinpi, "cospi": cospi}


def _near_pole(rng):
    x = -rng.randrange(171) + rng.choice((1e-9, -1e-9))
    return rng.choice((x, complex(x, 0.0), complex(round(x), rng.choice((1e-9, -1e-9)))))


GRIDS = {
    "right": lambda rng: complex(rng.uniform(0.5, 40.0), rng.uniform(0.0, 40.0)),
    "mirror": lambda rng: complex(rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 0.0)),
    "strip": lambda rng: complex(rng.uniform(-170.0, 0.5), rng.uniform(-50.0, 50.0)),
    "log-space": lambda rng: complex(rng.uniform(-150.0, 0.5), rng.choice((1, -1)) * rng.uniform(50.0, 170.0)),
    "wide": lambda rng: complex(rng.uniform(0.5, 180.0), rng.uniform(-180.0, 180.0)),
    "real": lambda rng: rng.uniform(-170.0, 172.0),
    "negative-real": lambda rng: complex(rng.uniform(-170.0, 0.0), rng.choice((0.0, -0.0))),
    "near-pole": _near_pole,
}


def points(per_grid):
    """The first per_grid points of each grid, grid after grid."""
    out = []
    for seed, draw in enumerate(GRIDS.values()):
        rng = random.Random(seed)
        out += [draw(rng) for _ in range(per_grid)]
    return out


def _outcome(f, z):
    try:
        return repr(f(z))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


def digest(names, per_grid):
    """sha256 of the outcomes of the named functions, each over the points."""
    h = hashlib.sha256()
    for name in names:
        f = FUNCTIONS[name]
        for z in points(per_grid):
            h.update(f"{_outcome(f, z)}\n".encode())
    return h.hexdigest()
