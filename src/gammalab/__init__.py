"""gammalab: a verification laboratory for gamma-function identities.

The package pairs a self-contained complex gamma/log-gamma implementation
with exact-arithmetic constructions and residual checkers:

* :mod:`gammalab.core` — Lanczos gamma, log-gamma, beta, Pochhammer;
* :mod:`gammalab.quadrature` — tanh-sinh integration, the integral
  definitions of gamma and beta as independent oracles;
* :mod:`gammalab.identities` — residuals and seeded grid verification for
  the recurrence, reflection, duplication, multiplication, sine/cosine
  factorization, and quarter-step relations;
* :mod:`gammalab.schlomilch` — factorial-series identities, their
  two-parameter generalization, and the hypergeometric machinery behind
  them, plus an exact binomial corollary;
* :mod:`gammalab.landau` — small-measure fundamental sets with exact
  rational bookkeeping and replayable derivation traces;
* :mod:`gammalab.stern` — exact rank counting of the linear relations
  among log-gamma values at rationals k/m;
* :mod:`gammalab.closure` — finite affine closures showing the
  measure-zero sharpness of the fundamental-set construction;
* :mod:`gammalab.mellin` — Mellin-transform checks of the master theorem
  for alternating power series;
* :mod:`gammalab.cli` — the ``gammalab`` command-line front end.

Imports are lazy (PEP 562): ``import gammalab`` loads no submodule, and a
public name such as ``gammalab.gamma`` loads its home module on first use.
So each ``gammalab`` subcommand loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, by its home module
_HOMES = {
    "core": ("gamma", "log_gamma", "beta", "pochhammer", "pole_distance"),
    "errors": (
        "GammalabError",
        "DomainError",
        "PoleError",
        "ConvergenceError",
        "EmptyGridError",
        "ResourceError",
    ),
    "quadrature": ("QuadratureSpec", "tanh_sinh", "gamma_integral", "beta_integral"),
    "identities": (
        "SampleSpec",
        "IdentityReport",
        "verify_grid",
        "nonvanishing_scan",
        "residual_functional",
        "residual_reflection",
        "residual_duplication",
        "residual_multiplication",
        "residual_sine_factorization",
        "residual_comb",
        "residual_cosine_identity",
    ),
    "intervals": ("IntervalSet", "as_fraction"),
    "landau": (
        "FundamentalSet",
        "DerivationTrace",
        "iteration_count",
        "landau_lemma_decompose",
        "landau_construct",
        "trace_evaluate",
        "quarter_set_trace",
        "complex_reduce_trace",
        "validate_trace",
    ),
}
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset({*_HOMES, "cli", "closure", "mellin", "schlomilch", "stern"})

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    """Load a public name's home module, or a submodule, on first access."""
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
