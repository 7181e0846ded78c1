"""The package's eight record classes are plain classes (no `dataclasses`)
that behave as the dataclasses they replaced: built by position or by
keyword with the same defaults and checks, equal within their class only,
hashable only where frozen, and printed in the dataclass text.  The repr
strings below are those the dataclass versions printed."""

import copy
import pickle
from fractions import Fraction

import pytest

from polyconv import (basis, cli, closed_forms as cf, convmat, engine,
                      generic_conv)
from polyconv.basis import Family, FamilySpec, GenericBasisData
from polyconv.errors import IndexContractError, MissingDataError
from polyconv.oracle import MonomialPoly
from polyconv.scalars import RATIONAL, FloatBackend

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
ALPHA, BETA = RATIONAL.make(Fraction(5, 2)), RATIONAL.make(Fraction(3, 2))
JACOBI = FamilySpec(Family.JACOBI, ALPHA, BETA)
LEGENDRE = FamilySpec(Family.LEGENDRE)
B = {(0, 0): 1, (1, 0): 1, (1, 1): 1}
D = {(0, 0): 1, (1, 0): -1, (1, 1): 1}
COLUMNS = [([1, 3, 2], 3), ([-5, -12, -5, 2], 15)]

# name -> (class, positional args, the same args by keyword, repr)
RECORDS = {
    "FamilySpec": (
        FamilySpec, (Family.JACOBI, ALPHA, BETA),
        dict(family=Family.JACOBI, alpha=ALPHA, beta=BETA),
        "FamilySpec(family=<Family.JACOBI: 'jacobi'>, alpha=Scalar(rational, "
        "5/2), beta=Scalar(rational, 3/2), lam=None, "
        "backend=RationalBackend())"),
    "GenericBasisData": (
        GenericBasisData, (RATIONAL.make(1), 1, B, D, FloatBackend(128)),
        dict(domain_offset_a=RATIONAL.make(1), max_degree=1, b_coeffs=B,
             endpoint_derivs=D, backend=FloatBackend(128)),
        "GenericBasisData(domain_offset_a=Scalar(rational, 1), max_degree=1, "
        "b_coeffs={(0, 0): 1, (1, 0): 1, (1, 1): 1}, endpoint_derivs={(0, 0): "
        "1, (1, 0): -1, (1, 1): 1}, backend=FloatBackend(128))"),
    "SeriesCoeffs": (
        convmat.SeriesCoeffs, (LEGENDRE, [THIRD, 0, 2]),
        dict(family=LEGENDRE, coeffs=[THIRD, 0, 2]),
        "SeriesCoeffs(family=FamilySpec(family=<Family.LEGENDRE: 'legendre'>, "
        "alpha=None, beta=None, lam=None, backend=RationalBackend()), "
        "coeffs=[Scalar(rational, 1/3), Scalar(rational, 0), "
        "Scalar(rational, 2)])"),
    "ConvMatrix": (
        convmat.ConvMatrix, (LEGENDRE, 4, COLUMNS),
        dict(family=LEGENDRE, n_rows=4, columns=COLUMNS),
        "ConvMatrix(family=FamilySpec(family=<Family.LEGENDRE: 'legendre'>, "
        "alpha=None, beta=None, lam=None, backend=RationalBackend()), "
        "n_rows=4, columns=[([1, 3, 2], 3), ([-5, -12, -5, 2], 15)])"),
    "RhoRequest": (
        generic_conv.RhoRequest, (1, 2, 3), dict(m=1, n=2, j=3),
        "RhoRequest(m=1, n=2, j=3)"),
    "BatemanTensor": (
        cf.BatemanTensor, (1, HALF, 0, {(0, 0): Fraction(-1)}),
        dict(m=1, alpha=HALF, beta=0, coeffs={(0, 0): Fraction(-1)}),
        "BatemanTensor(m=1, alpha=Fraction(1, 2), beta=0, "
        "coeffs={(0, 0): Fraction(-1, 1)})"),
    "VerificationReport": (
        cli.VerificationReport, (["a"], 3, 0, None),
        dict(lines=["a"], checks=3, failures=0, first_mismatch=None),
        "VerificationReport(lines=['a'], checks=3, failures=0, "
        "first_mismatch=None)"),
    "MonomialPoly": (
        MonomialPoly, ([1, Fraction(2, 3), 0], HALF),
        dict(coeffs=[1, Fraction(2, 3), 0], shift=HALF),
        "MonomialPoly(coeffs=[Fraction(1, 1), Fraction(2, 3)], "
        "shift=Fraction(1, 2))"),
}
FROZEN = {"FamilySpec", "RhoRequest"}
# one field of each record and a value that makes an unequal record
CHANGED = {
    "FamilySpec": ("backend", FloatBackend(128)),
    "GenericBasisData": ("max_degree", 0),
    "SeriesCoeffs": ("coeffs", [THIRD, 0, 3]),
    "ConvMatrix": ("n_rows", 3),
    "RhoRequest": ("j", 2),
    "BatemanTensor": ("beta", 1),
    "VerificationReport": ("failures", 1),
    "MonomialPoly": ("shift", THIRD),
}


def _built(name, **changes):
    cls, _, kwargs, _ = RECORDS[name]
    return cls(**{**kwargs, **changes})


@pytest.mark.parametrize("name", RECORDS)
def test_position_and_keyword_build_equal_records(name):
    cls, args, kwargs, _ = RECORDS[name]
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert by_position is not by_keyword


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_dataclass_text(name):
    cls, args, _, text = RECORDS[name]
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("name", RECORDS)
def test_equal_within_the_class_only(name):
    record = _built(name)
    field, value = CHANGED[name]
    assert record != _built(name, **{field: value})
    assert not record == _built(name, **{field: value})
    # another class, even one holding the same values, is never equal
    assert record != object()
    assert record.__eq__(object()) is NotImplemented
    other = RECORDS["RhoRequest" if name != "RhoRequest" else "FamilySpec"]
    assert record != other[0](*other[1])


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_hash_by_their_fields(name):
    a, b = _built(name), _built(name)
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    field, value = CHANGED[name]
    with pytest.raises(AttributeError):
        setattr(a, field, value)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


@pytest.mark.parametrize("name", sorted(set(RECORDS) - FROZEN))
def test_mutable_records_are_unhashable(name):
    record = _built(name)
    with pytest.raises(TypeError):
        hash(record)
    field, _ = CHANGED[name]
    setattr(record, field, getattr(record, field))


def test_defaults():
    spec = FamilySpec(Family.LEGENDRE)
    assert (spec.alpha, spec.beta, spec.lam) == (None, None, None)
    assert spec.backend is RATIONAL
    assert spec == basis.legendre()
    data = GenericBasisData(RATIONAL.make(1), 1, B, D)
    assert data.backend is RATIONAL
    poly = MonomialPoly([1, 2])
    assert poly.shift == 0 and type(poly.shift) is Fraction
    assert poly == MonomialPoly([1, 2, 0], 0)


def test_constructors_check_and_normalize():
    with pytest.raises(ValueError, match="Jacobi needs alpha and beta"):
        FamilySpec(Family.JACOBI, ALPHA)
    with pytest.raises(ValueError, match="Gegenbauer lambda must be nonzero"):
        FamilySpec(Family.GEGENBAUER, lam=RATIONAL.make(0))
    with pytest.raises(MissingDataError, match="n = 1"):
        GenericBasisData(RATIONAL.make(1), 1, {(0, 0): 1}, D)
    with pytest.raises(ValueError, match="at least one coefficient"):
        convmat.SeriesCoeffs(LEGENDRE, [])
    with pytest.raises(IndexContractError, match="nonnegative"):
        generic_conv.RhoRequest(-1, 2, 0)
    with pytest.raises(IndexContractError, match="j must lie in"):
        generic_conv.RhoRequest(1, 2, 5)
    series = convmat.SeriesCoeffs(JACOBI.to_backend(FloatBackend(64)),
                                  [THIRD])
    assert series.coeffs[0].backend == FloatBackend(64)
    assert MonomialPoly([0, 0]).coeffs == []


def test_to_backend_builds_a_checked_copy():
    spec = JACOBI.to_backend(FloatBackend(128))
    assert spec == FamilySpec(Family.JACOBI, ALPHA, BETA, None,
                              FloatBackend(128))
    assert JACOBI.backend is RATIONAL
    matrix = convmat.ConvMatrix(LEGENDRE, 4, COLUMNS)
    rounded = matrix.to_backend(FloatBackend(128))
    assert rounded.family == LEGENDRE.to_backend(FloatBackend(128))
    assert (rounded.n_rows, rounded.columns) == (4, COLUMNS)
    assert matrix.family is LEGENDRE
    # the copy is made by the constructor, which checks it again
    broken = FamilySpec(Family.JACOBI, ALPHA, BETA)
    object.__setattr__(broken, "beta", None)
    with pytest.raises(ValueError, match="Jacobi needs alpha and beta"):
        broken.to_backend(FloatBackend(128))
    with pytest.raises(ValueError, match="Jacobi needs alpha and beta"):
        convmat.ConvMatrix(broken, 4, COLUMNS).to_backend(RATIONAL)


# copy.copy, copy.deepcopy and a pickle round trip: a Scalar restores its
# slots through the constructor, not the `__setattr__` that raises
_JACOBI_64 = basis.jacobi(Fraction(5, 2), Fraction(3, 2), FloatBackend(64))
_SERIES = convmat.SeriesCoeffs(_JACOBI_64, [HALF, 0, THIRD])
COPIED = {
    "rational Scalar": RATIONAL.make(Fraction(-7, 3)),
    "float Scalar": FloatBackend(64).make(THIRD),
    "Jacobi spec": basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
    "SeriesCoeffs": _SERIES,
    "ConvMatrix": convmat.build_matrix(_SERIES, 3),
}
COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


def _backend(x):
    if isinstance(x, (convmat.SeriesCoeffs, convmat.ConvMatrix)):
        return x.family.backend
    return x.backend


@pytest.mark.parametrize("copier", COPIERS, ids=str)
@pytest.mark.parametrize("name", COPIED, ids=str)
def test_copies_equal_the_original(name, copier):
    original = COPIED[name]
    twin = COPIERS[copier](original)
    assert type(twin) is type(original)
    assert twin == original
    assert repr(twin) == repr(original)
    assert _backend(twin) == _backend(original)


def test_deep_copied_spec_gives_the_same_columns():
    spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
    twin = copy.deepcopy(spec)
    assert twin.alpha is not spec.alpha
    assert list(engine.iter_columns(twin, {3: 1}, 6)) == \
        list(engine.iter_columns(spec, {3: 1}, 6))
