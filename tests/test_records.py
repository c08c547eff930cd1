"""The contract of gammalab's records, each of which was a frozen dataclass:
frozen fields, equality and hash by field, a dataclass-shaped repr, one
record from keyword or positional construction, and copies and pickles
equal to the record."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from gammalab.identities import IdentityReport, SampleSpec
from gammalab.intervals import IntervalSet
from gammalab.landau import DecompositionNode, FundamentalSet, _Form
from gammalab.mellin import PhiSpec
from gammalab.quadrature import QuadratureSpec
from gammalab.schlomilch import Hyp2F1Params, SchlomilchCoefficients, SeriesResult

# each record with its fields in order: those passed by keyword, then those
# left to their defaults
_RECORDS = [
    (DecompositionNode, dict(interval=(Fraction(1, 4), Fraction(1, 2)), kind="I", children=()), {}),
    (
        FundamentalSet,
        dict(
            delta=Fraction(1, 2), t=3, leaf_union=IntervalSet([(0, Fraction(1, 4))]),
            measure=Fraction(1, 4), residual_mass=Fraction(1, 8), explicit=True,
            final_piece_count=2, node_count=5,
        ),
        {},
    ),
    (_Form, dict(generic=abs, ratios=divmod, combine=pow), {}),
    (
        SampleSpec,
        dict(count=10),
        dict(re_range=(-4.0, 4.0), im_range=(-4.0, 4.0), seed=20260825),
    ),
    (
        IdentityReport,
        dict(
            identity_id="functional", seed=1, sample_count=10, skipped_count=2,
            max_relative_residual=3e-16, mean_relative_residual=1e-16,
            worst_point=1.5 - 2j, tolerance=1e-10, passed=True,
        ),
        {},
    ),
    (SchlomilchCoefficients, dict(m=2, coefficients=(1.0, 3.0, 1.0)), {}),
    (
        SeriesResult,
        dict(value=1 + 2j, terms_used=7, last_term_magnitude=1e-18, converged=True, mass=3.5),
        {},
    ),
    (Hyp2F1Params, dict(a=0.5 + 1j, b=1.0, c=1.5), {}),
    (QuadratureSpec, {}, dict(relative_tolerance=1e-10)),
    (PhiSpec, dict(id="log1p", phi=abs, eta=1.0, log_psi_of_exp=float), dict(q=0.0)),
]


@pytest.mark.parametrize(
    "cls, given, defaults", _RECORDS, ids=[cls.__qualname__ for cls, _, _ in _RECORDS]
)
def test_record_contract(cls, given, defaults):
    fields = {**given, **defaults}
    record = cls(**given)

    for name in [*fields, "other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert all(getattr(record, name) == value for name, value in fields.items())

    twin = cls(**given)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert record.__eq__(tuple(fields.values())) is NotImplemented

    assert repr(record) == (
        f"{cls.__qualname__}({', '.join(f'{name}={value!r}' for name, value in fields.items())})"
    )

    assert cls(*given.values()) == record == cls(*fields.values()) == cls(**fields)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record
