"""The contract of the six public records.

CoefficientVector, EvalResult, GammaPartial, KernelBasis, IntegralCheck
and ConvergenceRow are immutable; == and hash go by class and fields;
pickle and deepcopy give back an equal record; and their
``__match_args__``, repr bytes and constructor errors are fixed.  The
repr literals below are what these records printed when they were
still dataclasses.
"""

import copy
import pickle
import re
from fractions import Fraction

import mpmath
import pytest

from logser import (
    CoefficientVector,
    EvalResult,
    GammaPartial,
    IntegralCheck,
    KernelBasis,
    LengthMismatch,
    UnbalancedCoefficients,
    ln_vector,
    make_vector,
    verify_zero,
)
from logser.cli import ConvergenceRow

# (factory, repr, __match_args__); a factory builds a fresh, equal record
RECORDS = {
    "vector": (
        lambda: make_vector(3, ["1/2", "-1/3", "-1/6"]),
        "CoefficientVector(modulus=3, coeffs=(Fraction(1, 2), Fraction(-1, 3), Fraction(-1, 6)))",
        ("modulus", "weights", "scale"),
    ),
    "ln_vector": (
        lambda: ln_vector(4),
        "CoefficientVector(modulus=4, coeffs=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), "
        "Fraction(-3, 1)))",
        ("modulus", "weights", "scale"),
    ),
    "eval_mpf": (
        lambda: EvalResult(value=mpmath.mpf("0.5"), error_bound=1e-12, blocks_used=3,
                           method="raw", bound_is_heuristic=False),
        "EvalResult(value=mpf('0.5'), error_bound=1e-12, blocks_used=3, method='raw', "
        "bound_is_heuristic=False)",
        ("value", "error_bound", "blocks_used", "method", "bound_is_heuristic"),
    ),
    "eval_float": (
        lambda: EvalResult(0.25, 0.0, 0, "accelerated", True),
        "EvalResult(value=0.25, error_bound=0.0, blocks_used=0, method='accelerated', "
        "bound_is_heuristic=True)",
        ("value", "error_bound", "blocks_used", "method", "bound_is_heuristic"),
    ),
    # verify_zero's result builds its value on first read
    "eval_lazy": (
        lambda: verify_zero(ln_vector(2), 1e-6)[1],
        "EvalResult(value=mpf('0.69314718055994531'), error_bound=3.564350615217656e-23, "
        "blocks_used=0, method='accelerated', bound_is_heuristic=False)",
        ("value", "error_bound", "blocks_used", "method", "bound_is_heuristic"),
    ),
    "gamma": (
        lambda: GammaPartial(n=10, value=mpmath.mpf(1) / 3),
        "GammaPartial(n=10, value=mpf('0.33333333333333331'))",
        ("n", "value"),
    ),
    "kernel": (
        lambda: KernelBasis(vectors=((1, -2, 1), (0, 1, Fraction(-1))), family_size=3),
        "KernelBasis(vectors=((1, -2, 1), (0, 1, Fraction(-1, 1))), family_size=3)",
        ("vectors", "family_size"),
    ),
    "integral": (
        lambda: IntegralCheck(T=3, j=1, integral_value=0.6, series_value=0.5, tolerance=1e-8),
        "IntegralCheck(T=3, j=1, integral_value=0.6, series_value=0.5, tolerance=1e-08, "
        "discrepancy=0.09999999999999998)",
        ("T", "j", "integral_value", "series_value", "tolerance"),
    ),
    "row": (
        lambda: ConvergenceRow(method="raw", work=10, value=0.1, error_bound=1e-3,
                               abs_error_vs_reference=2e-4, wall_time_micros=7),
        "ConvergenceRow(method='raw', work=10, value=0.1, error_bound=0.001, "
        "abs_error_vs_reference=0.0002, wall_time_micros=7)",
        ("method", "work", "value", "error_bound", "abs_error_vs_reference",
         "wall_time_micros"),
    ),
}

KINDS = sorted(RECORDS)


def _fields(record) -> tuple:
    """Every field of the record, in order, the derived discrepancy included."""
    names = type(record).__match_args__
    if isinstance(record, IntegralCheck):
        names += ("discrepancy",)
    return names


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in _fields(record))


@pytest.mark.parametrize("kind", KINDS)
def test_repr_bytes_and_match_args_are_fixed(kind):
    factory, text, match_args = RECORDS[kind]
    assert repr(factory()) == text
    assert type(factory()).__match_args__ == match_args


@pytest.mark.parametrize("kind", KINDS)
def test_no_attribute_can_be_assigned_or_deleted(kind):
    record = RECORDS[kind][0]()
    before = _values(record)
    for name in (*_fields(record), "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _values(record) == before
    assert not hasattr(record, "extra")


@pytest.mark.parametrize("kind", KINDS)
def test_equality_and_hash_go_by_class_and_fields(kind):
    factory = RECORDS[kind][0]
    record, twin = factory(), factory()
    assert record is not twin
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(_values(record))
    # a tuple of the same values, or a record of another class with the same
    # fields and values, is never equal
    assert record != _values(record)
    assert _values(record) != record

    class Other(type(record)):
        pass

    other = object.__new__(Other)
    vars(other).update(vars(record))
    assert _values(other) == _values(record)
    assert record != other and other != record


@pytest.mark.parametrize("kind", KINDS)
def test_a_changed_field_is_unequal(kind):
    record = RECORDS[kind][0]()
    changed = copy.copy(record)
    name = _fields(record)[-1]
    vars(changed)[name] = "changed"
    assert record != changed


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip_is_equal(kind, protocol):
    record = RECORDS[kind][0]()
    back = pickle.loads(pickle.dumps(record, protocol))
    assert type(back) is type(record)
    assert back == record and hash(back) == hash(record)
    assert repr(back) == RECORDS[kind][1]


@pytest.mark.parametrize("kind", KINDS)
def test_deepcopy_is_equal(kind):
    record = RECORDS[kind][0]()
    back = copy.deepcopy(record)
    assert type(back) is type(record)
    assert back == record and hash(back) == hash(record)
    assert repr(back) == RECORDS[kind][1]


def test_a_lazy_value_gives_the_same_before_and_after_its_first_read():
    factory = RECORDS["eval_lazy"][0]
    read = factory()
    assert read.value  # the first read builds the value
    assert "value" in vars(read)
    operations = [
        lambda record: record == read and read == record,
        hash,
        repr,
        copy.deepcopy,
        *(lambda record, p=p: pickle.loads(pickle.dumps(record, p))
          for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    ]
    for operation in operations:
        unread = factory()
        assert "value" not in vars(unread)
        assert operation(unread) == operation(read)
    assert repr(read) == RECORDS["eval_lazy"][1]


@pytest.mark.parametrize("build,error,message", [
    (lambda: KernelBasis(vectors=((1, 2),), family_size=3), ValueError,
     "relation length does not match the family size"),
    (lambda: KernelBasis(vectors=((0, 0),), family_size=2), ValueError,
     "relations must not be identically zero"),
    (lambda: CoefficientVector(3, [1, 2]), LengthMismatch, "expected 3 coefficients, got 2"),
    (lambda: CoefficientVector(2, [1, 2]), UnbalancedCoefficients,
     "coefficients must sum to zero for the series to converge; got sum 3"),
    (lambda: CoefficientVector(0, []), ValueError,
     "modulus must be >= 1 and an integer, got 0"),
    (lambda: CoefficientVector(2.0, [1, -1]), ValueError,
     "modulus must be >= 1 and an integer, got 2.0"),
])
def test_constructor_errors_are_unchanged(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        build()
    assert type(info.value) is error
