"""Core datum, derived invariants, strip selection, admissibility, main term."""

import cmath
import json
import math
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

import probe
from zerobound import (
    DomainError,
    GammaFactor,
    InvalidStripError,
    LFunctionData,
    StripParams,
    ValidationError,
    load_document,
    main_term,
    min_admissible_height,
    require_admissible,
    select_strip,
    tail_sum,
)
from zerobound.selberg import _TAIL_TERMS, _constraints, _pole_window, _thresholds, document_dict

from test_bounds import _flip_zero, _or_zero

# frozen by scripts/derive_oracle_values.py (mpmath, 40 digits)
TAIL_2 = 0.6449340668482264
TAIL_3 = 0.2020569031595943
TAIL_4 = 0.08232323371113819


# --- construction and validation -------------------------------------------

def test_gamma_factor_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        GammaFactor(0.0, 0j)
    with pytest.raises(ValidationError):
        GammaFactor(-1.0, 0j)
    with pytest.raises(ValidationError):
        GammaFactor(1.0, complex(-0.5, 1.0))
    for lam, mu in ((math.nan, 0j), (math.inf, 0j), (1.0, complex(math.nan, 0.0)),
                    (1.0, complex(0.5, math.inf))):
        with pytest.raises(ValidationError):
            GammaFactor(lam, mu)


def test_datum_validation():
    good = dict(factors=(GammaFactor(1.0, 0j),), Q=1.0, omega=1 + 0j, k=0, a1=1.0)
    LFunctionData(**good)
    with pytest.raises(ValidationError):
        LFunctionData(**{**good, "factors": ()})
    with pytest.raises(ValidationError):
        LFunctionData(**{**good, "Q": 0.0})
    with pytest.raises(ValidationError):
        LFunctionData(**{**good, "omega": 1.1 + 0j})
    with pytest.raises(ValidationError):
        LFunctionData(**{**good, "k": -1})
    with pytest.raises(ValidationError):
        LFunctionData(**{**good, "a1": 0.5})
    # degree 2 * 0.25 = 0.5 < 1 is degenerate
    with pytest.raises(ValidationError):
        LFunctionData(**{**good, "factors": (GammaFactor(0.25, 0j),)})
    for field, value in (("Q", math.nan), ("Q", math.inf), ("a1", math.nan), ("a1", math.inf),
                         ("omega", complex(math.nan, 0.0)), ("omega", complex(math.inf, 0.0)),
                         ("k", True), ("k", 1.0), ("k", 10 ** 16), ("Q", 1e-300), ("Q", 1e300),
                         ("factors", (GammaFactor(200.0, 0j),)),  # lam^(2 lam) overflows
                         ("factors", ((1.0, 0j),))):  # not a GammaFactor
        with pytest.raises(ValidationError):
            LFunctionData(**{**good, field: value})
    # |lam + conj(mu)|^2 overflows: bound_report raised a bare OverflowError;
    # at 1e154 the block's sum rounds to inf, and the window total was inf
    for mu in (1e200, complex(1e308, 1e308), 1e154):
        with pytest.raises(ValidationError, match="series block overflows a float"):
            LFunctionData(**{**good, "factors": (GammaFactor(1.0, mu),)})
    # past Python's 4300-digit int-to-str limit the message gave a bare ValueError
    with pytest.raises(ValidationError, match="got an integer of 16610 bits$"):
        LFunctionData(**{**good, "k": 10 ** 5000})


def test_a1_whose_zeta2_product_overflows_is_rejected():
    # a1 pi^2 overflows: log_a1_zeta2 was inf, and so was every R_total
    factor = (GammaFactor(0.5, 0j),)
    with pytest.raises(ValidationError) as err:
        LFunctionData(factor, Q=1.0, omega=1, k=0, a1=1.83e307)
    assert str(err.value) == "a1 pi^2 / 6 overflows a float, got a1 = 1.83e+307"
    data = LFunctionData(factor, Q=1.0, omega=1, k=0, a1=1.8e307)
    assert data.log_a1_zeta2 == math.log(1.8e307 * math.pi ** 2 / 6.0) < math.inf


def test_datum_with_an_infinite_threshold_height_is_rejected():
    # 2 |lam + conj(mu)| / lam overflowed by division: threshold_height was inf,
    # and no T0 was admissible ("needs T0 >= inf")
    with pytest.raises(ValidationError) as err:
        LFunctionData((GammaFactor(1e-300, 1e10), GammaFactor(1.0, 0)), 1.0, 1, 0, 1.0)
    assert str(err.value) == (
        "the gamma-factor threshold height overflows a float (|mu| / lam is too large)"
    )
    data = LFunctionData((GammaFactor(1e-297, 1e10), GammaFactor(1.0, 0)), 1.0, 1, 0, 1.0)
    assert data.threshold_height == 2.0 * abs(1e-297 + 1e10) / 1e-297 < math.inf


def test_datum_with_several_faults_reports_the_first_check_it_fails():
    # one message per input with two or more faults, in whatever factor order;
    # each was recorded from the datum that checked its factors one property
    # at a time
    one, block, big_lam = GammaFactor(1.0, 0j), GammaFactor(1.0, 1e200), GammaFactor(200.0, 0j)
    good = dict(factors=(one,), Q=1.0, omega=1, k=0, a1=1.0)
    lam_message = "lambda Q^2 overflows a float"
    block_message = "a gamma factor's series block overflows a float (|mu| is too large)"
    cases = (
        ({"factors": (one, (1.0, 0j)), "Q": -1.0}, "factors must be GammaFactor instances"),
        ({"k": -1, "a1": 0.5}, "pole order k must be an integer in [0, 10^15], got -1"),
        ({"omega": 2, "k": -1}, "|omega| must be 1, got |(2+0j)| = 2.0"),
        ({"factors": (GammaFactor(0.1, 1e200),), "a1": 1e308},
         "degree 0.2 < 1; degenerate data is rejected"),
        ({"factors": (block, big_lam)}, lam_message),
        ({"factors": (big_lam, block)}, lam_message),
        ({"factors": (GammaFactor(200.0, 1e200),), "a1": 1e308}, lam_message),
        ({"factors": (block,), "Q": 1e200, "a1": 1e308},
         "lambda Q^2 = inf is not a positive finite float"),
        ({"factors": (block,), "Q": 1e-200, "a1": 1e308},
         "lambda Q^2 = 0.0 is not a positive finite float"),
        ({"factors": (one, block), "a1": 1e308}, block_message),
        ({"factors": (GammaFactor(1.0, 1e154), one), "a1": 1e308}, block_message),
    )
    for faults, message in cases:
        with pytest.raises(ValidationError) as err:
            LFunctionData(**{**good, **faults})
        assert str(err.value) == message, faults


@pytest.mark.parametrize("lambda_cap, Q, value", [
    (1.0, 1e-200, "0.0"), (1.0, 1e200, "inf"), (math.nan, 1.0, "nan"),
])
def test_lambda_q2_check_is_the_datum_check(lambda_cap, Q, value):
    # LFunctionData and the newform table check lambda Q^2 through one helper;
    # a datum's lambda_cap is finite and positive, so only the helper meets nan
    from zerobound.selberg import _lambda_q2

    message = f"lambda Q^2 = {value} is not a positive finite float"
    with pytest.raises(ValidationError) as err:
        _lambda_q2(lambda_cap, Q)
    assert str(err.value) == message
    if value != "nan":
        with pytest.raises(ValidationError) as err:
            LFunctionData((GammaFactor(1.0, 0j),), Q=Q, omega=1, k=0, a1=1.0)
        assert str(err.value) == message


def test_oversized_integers_are_validation_errors():
    # float() or complex() of an int past the float range raised a bare OverflowError
    big = 10 ** 400
    factor = (GammaFactor(1.0, 0j),)
    cases = (
        (lambda: GammaFactor(big, 0), "gamma factor lam"),
        (lambda: GammaFactor(1.0, big), "gamma factor mu"),
        (lambda: LFunctionData(factor, Q=big, omega=1, k=0, a1=1.0), "Q"),
        (lambda: LFunctionData(factor, Q=1.0, omega=big, k=0, a1=1.0), "omega"),
        (lambda: LFunctionData(factor, Q=1.0, omega=1, k=0, a1=big), "a1"),
    )
    for build, name in cases:
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == f"{name} is too large to convert to a float, got 1{'0' * 400}"
    # past the 4300-digit int-to-str limit the message gives the bit length
    with pytest.raises(ValidationError) as err:
        LFunctionData(factor, Q=1.0, omega=1, k=0, a1=10 ** 5000)
    assert str(err.value) == "a1 is too large to convert to a float, got an integer of 16610 bits"


def _past_the_float_range_cases():
    """One param per entry point taking a height or abscissa: a call of an int, its error class."""
    from zerobound import (
        AdmissibilityError, Coefficients, ZeroList, bound_report, check_bound, disc_count_bound,
        presets, shifted_constant, window_coefficients,
    )

    data, strip = presets.zeta()
    zeros = ZeroList((14.134725, 21.02204))
    cases = {
        "require_admissible": (lambda v: require_admissible(data, strip, v), AdmissibilityError),
        "bound_report": (lambda v: bound_report(data, strip, 16.0, v), DomainError),
        "window_coefficients": (lambda v: window_coefficients(data, strip, v), AdmissibilityError),
        "check_bound": (lambda v: check_bound(data, strip, zeros, 16.0, v), DomainError),
        "main_term": (lambda v: main_term(data, v), DomainError),
        "evaluate": (lambda v: Coefficients(1.0, 2.0, 3.0).evaluate(v), DomainError),
        "disc_count_bound": (lambda v: disc_count_bound(data, strip, v), AdmissibilityError),
        "tail_sum": (lambda v: tail_sum(v, 1.0), DomainError),
        "select_strip_a": (lambda v: select_strip(1.0, a=v), InvalidStripError),
        "select_strip_b": (lambda v: select_strip(1.0, b=-v), InvalidStripError),
        "StripParams": (lambda v: StripParams(v, -5.0, 1.0), InvalidStripError),
        "shifted_constant": (lambda v: shifted_constant(1.0, v, 0), ValidationError),
    }
    return [pytest.param(call, error, id=name) for name, (call, error) in cases.items()]


@pytest.mark.parametrize("big", [10 ** 400, 10 ** 5000], ids=["10^400", "10^5000"])
@pytest.mark.parametrize("call, error", _past_the_float_range_cases())
def test_ints_past_the_float_range_raise_the_package_errors(call, error, big):
    # each call raised a bare OverflowError; the message writes the int (or its
    # negative) through _value_text, so 10^5000 is given by its bit length
    from zerobound.errors import _value_text

    with pytest.raises(error) as err:
        call(big)
    assert type(err.value) is error
    assert _value_text(big) in str(err.value) or _value_text(-big) in str(err.value)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: select_strip("x"), ValidationError,
                 "a1 must be a real number, got 'x'", id="select_strip"),
    pytest.param(lambda: select_strip(1.0, a=[3]), InvalidStripError,
                 "override a must be a real number, got [3]", id="select_strip_a"),
    pytest.param(lambda: GammaFactor("x", 0), ValidationError,
                 "gamma factor lam must be a real number, got 'x'", id="GammaFactor"),
    pytest.param(lambda: GammaFactor(1.0, "x"), ValidationError,
                 "gamma factor mu must be a number, got 'x'", id="GammaFactor_mu"),
    pytest.param(lambda: LFunctionData((GammaFactor(0.5, 0j),), Q="x", omega=1, k=0, a1=1.0),
                 ValidationError, "Q must be a real number, got 'x'", id="LFunctionData"),
    pytest.param(lambda: StripParams("x", -4.0, 7.0), InvalidStripError,
                 "strip a must be a real number, got 'x'", id="StripParams"),
    pytest.param(lambda: tail_sum(None, 1.0), DomainError,
                 "tail sum exponent x must be a real number, got None", id="tail_sum_x"),
    pytest.param(lambda: tail_sum(3.0, "x"), DomainError,
                 "tail sum coefficient a1 must be a real number, got 'x'", id="tail_sum_a1"),
    pytest.param(lambda: GammaFactor("1", "0j"), ValidationError,
                 "gamma factor lam must be a real number, got '1'", id="GammaFactor_numeric_str"),
    pytest.param(lambda: GammaFactor(1.0, "0j"), ValidationError,
                 "gamma factor mu must be a number, got '0j'", id="GammaFactor_mu_numeric_str"),
    pytest.param(lambda: select_strip("1"), ValidationError,
                 "a1 must be a real number, got '1'", id="select_strip_numeric_str"),
    pytest.param(lambda: StripParams(b"3", -4.0, 7.0), InvalidStripError,
                 "strip a must be a real number, got b'3'", id="StripParams_bytes"),
    pytest.param(lambda: LFunctionData((GammaFactor(0.5, 0j),), Q=bytearray(b"1"), omega=1,
                                       k=0, a1=1.0),
                 ValidationError, "Q must be a real number, got bytearray(b'1')",
                 id="LFunctionData_bytearray"),
])
def test_values_that_are_no_number_raise_the_package_errors(call, error, message):
    # each raised a bare ValueError or TypeError from float(), complex() or a comparison,
    # but a numeric str, bytes or bytearray, which float() and complex() parsed as a number
    with pytest.raises(error) as err:
        call()
    assert (type(err.value), str(err.value)) == (error, message)


def test_datum_hash_is_stored_at_construction(nf12_pair, monkeypatch):
    # the hash the dataclass generated, computed once: hashing the datum again
    # (two window-memo lookups per checked height) does not hash its factors
    data, _ = nf12_pair
    assert hash(data) == hash((data.factors, data.Q, data.omega, data.k, data.a1))
    monkeypatch.setattr(GammaFactor, "__hash__", lambda self: pytest.fail("hashed a factor"))
    hash(data)


def test_gamma_factor_hash_is_stored_at_construction():
    # the memo keys hash factor tuples; each factor returns the hash its
    # constructor stored, the hash of (lam, mu), so equal factors share it
    factor = GammaFactor(1.0, complex(5.5, -0.0))
    assert vars(factor)["_hash"] == hash(factor) == hash((1.0, complex(5.5, 0.0)))
    assert hash(factor) == hash(GammaFactor(1, 5.5))


def test_strip_hash_is_stored_at_construction(monkeypatch):
    # each window-memo lookup hashes the strip; it reads the stored hash of (a, b, R)
    strip = select_strip(1.0)
    assert hash(strip) == hash((strip.a, strip.b, strip.R)) == hash(StripParams(3.0, -4.0, 7.0))
    assert hash(select_strip(1.0, a=5.5, b=-6.5)) == hash(StripParams(5.5, -6.5, 12.0))
    monkeypatch.setattr(StripParams, "_values", lambda *_: pytest.fail("hashed the fields again"))
    hash(strip)


def test_omega_modulus_tolerance():
    # unimodular up to 1e-12 passes, beyond fails
    LFunctionData(
        factors=(GammaFactor(1.0, 0j),), Q=1.0, omega=complex(1.0 + 5e-13, 0.0), k=0, a1=1.0
    )


@pytest.mark.parametrize("field, value", [
    ("Q", "abc"), ("Q", "0.56"), ("k", 1.7), ("k", True), ("a1", None), ("a1", True),
    ("omega_re", True), ("omega_im", "0"), ("a", "abc"), ("b", math.inf), ("b", False),
    pytest.param("a1", 10 ** 400, id="a1-int-beyond-float"),
    pytest.param("a", 10 ** 400, id="a-int-beyond-float"),
    pytest.param("omega_re", 10 ** 400, id="omega_re-int-beyond-float"),
    pytest.param("factors[0].mu_re", 10 ** 400, id="mu_re-int-beyond-float"),
    ("factors[0].lambda", "0.5"), ("factors[0].lambda", True), ("factors[0].mu_re", True),
    ("factors[0].mu_im", "0"), ("factors[0].mu_im", None),
])
def test_document_rejects_mistyped_fields(nf12_pair, field, value):
    doc = document_dict(*nf12_pair)
    if field.startswith("factors[0]."):
        doc["factors"][0][field.removeprefix("factors[0].")] = value
    else:
        doc[field] = value
    with pytest.raises(ValidationError) as err:
        load_document(doc)
    assert field in str(err.value)


# --- derived quantities ------------------------------------------------------

def test_newform_datum_invariants(nf12_pair):
    data, _ = nf12_pair
    assert data.degree == 2.0
    assert data.lambda_cap == 1.0
    assert data.mu_cap == complex(4 - 2 * 12, 0)  # 4 - 2*kappa


def test_zeta_datum_invariants(zeta_pair):
    data, _ = zeta_pair
    assert data.degree == 1.0
    assert data.lambda_cap == pytest.approx(0.5, rel=1e-15)
    assert data.mu_cap == 2 + 0j
    assert data.lambda_q2 == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.floats(0.5, 3.0), st.sampled_from((-0.0, 0.0, 0.5, 2.0, 7.25)),
              st.floats(-6.0, 6.0)),
    min_size=1, max_size=8,
))
def test_one_pass_invariants_equal_their_definitions(params):
    # the constructor derives them in one pass; each equals, bit for bit,
    # its own pass over the factors
    factors = tuple(GammaFactor(lam, complex(re, im)) for lam, re, im in params)
    data = LFunctionData(factors, Q=0.7, omega=1, k=0, a1=1.0)
    lams, mus = [f.lam for f in factors], [f.mu for f in factors]
    assert data.degree == 2.0 * math.fsum(lams)
    assert data.lambda_cap == math.prod(lam ** (2.0 * lam) for lam in lams)
    assert data.mu_cap == sum((4.0 * (0.5 - mu) for mu in mus), 0j)
    assert data.shift_max == max(2.0 * abs(f.lam + f.mu.conjugate()) / f.lam for f in factors)
    assert data.arg_max == max(2.0 * abs(f.mu) / f.lam for f in factors)
    assert data.lams == tuple(lams)
    assert data.f == len(factors)
    # a zero extreme of Re(mu) is stored as +0.0, whatever the sign of the zeros
    re_mus = [mu.real for mu in mus]
    extremes = (max(lams), min(lams), max(re_mus) + 0.0, min(re_mus) + 0.0)
    stored = (data.lam_max, data.lam_min, data.re_mu_max, data.re_mu_min)
    assert list(map(float.hex, stored)) == list(map(float.hex, extremes))


def test_rebuilt_datum_has_equal_invariants(nf12_pair):
    data, _ = nf12_pair
    fresh = LFunctionData(data.factors, data.Q, data.omega, data.k, data.a1)
    for name in ("degree", "lambda_cap", "lambda_q2", "mu_cap"):
        assert getattr(data, name) == getattr(fresh, name), name


def _lazy_invariants(data):
    """The invariants by the expressions of the former lazy properties, one each."""
    fs = data.factors
    lambda_cap = math.prod(f.lam ** (2.0 * f.lam) for f in fs)
    shift_max = max(2.0 * abs(f.lam + f.mu.conjugate()) / f.lam for f in fs)
    arg_max = max(2.0 * abs(f.mu) / f.lam for f in fs)
    return {
        "degree": 2.0 * math.fsum(f.lam for f in fs),
        "lambda_cap": lambda_cap,
        "lambda_q2": lambda_cap * data.Q * data.Q,
        "log_lambda_q2": math.log(lambda_cap * data.Q * data.Q),
        "log_a1_zeta2": math.log(data.a1 * math.pi ** 2 / 6.0),
        "mu_cap": sum((4.0 * (0.5 - f.mu) for f in fs), 0j),
        "shift_max": shift_max,
        "arg_max": arg_max,
        "threshold_height": max(shift_max, arg_max),
        "series_blocks": tuple(
            abs(lm) ** 2 + 2.0 * abs(lm * (lm - 0.5)) + abs(mu) ** 2 + 2.0 * abs(mu * (mu - 0.5))
            for lm, mu in ((f.lam + f.mu.conjugate(), f.mu) for f in fs)
        ),
    }


def _hex(value):
    """float.hex of a float, of both parts of a complex, or of each float in a tuple."""
    if isinstance(value, tuple):
        return tuple(map(_hex, value))
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return value.hex()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.builds(
            GammaFactor,
            st.floats(0.05, 60.0),
            st.builds(complex, st.floats(0.0, 1e6), st.floats(-1e6, 1e6)),
        ),
        min_size=1, max_size=4,
    ),
    st.floats(-20.0, 20.0),
    st.floats(-math.pi, math.pi),
    st.integers(0, 10 ** 15),
    st.floats(1.0, 1e300),
)
def test_invariants_match_the_lazy_formulas(factors, log_q, theta, k, a1):
    # computed at construction, each invariant is bit-equal to the expression
    # the lazy property used; repr, == and hash still see the five fields only
    try:
        data = LFunctionData(tuple(factors), math.exp(log_q), cmath.exp(1j * theta), k, a1)
    except ValidationError:
        assume(False)
    expected = _lazy_invariants(data)
    assert {name: _hex(vars(data)[name]) for name in expected} == {
        name: _hex(value) for name, value in expected.items()
    }
    twin = LFunctionData(data.factors, data.Q, data.omega, data.k, data.a1)
    assert twin == data and hash(twin) == hash(data) and repr(twin) == repr(data)
    assert hash(data) == hash((data.factors, data.Q, data.omega, data.k, data.a1))
    assert repr(data) == (
        f"LFunctionData(factors={data.factors!r}, Q={data.Q!r}, omega={data.omega!r}, "
        f"k={data.k!r}, a1={data.a1!r})"
    )


# --- sign twins ------------------------------------------------------------------

def _invariant_bits(data):
    """_hex of every invariant a datum stores beyond its five fields and its hash; int f as is."""
    skip = {*LFunctionData._fields, "_hash"}
    return {
        name: value if type(value) is int else _hex(value)
        for name, value in vars(data).items() if name not in skip
    }


def _piece_bits(pieces):
    """_hex of every number the factor pieces hold, K included, which this reads first."""
    pieces.K
    return {name: _hex(value) for name, value in vars(pieces).items()
            if name not in ("data", "strip")}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.05, 60.0), _or_zero(st.floats(0.0, 1e6)),
                  _or_zero(st.floats(-1e6, 1e6))),
        min_size=1, max_size=4,
    ),
    st.floats(-20.0, 20.0), st.floats(-math.pi, math.pi), st.integers(0, 7), st.floats(1.0, 1e6),
)
def test_datum_on_a_memoized_twin_tuple_has_the_bits_of_a_cold_one(params, log_q, theta, k, a1):
    # the twin tuple flips the sign of every zero part of mu, so the two data
    # compare equal and the datum finds its twin's pieces entry; every
    # invariant of the datum, the extremes of Re(mu) included, has its twin's
    # bits, and the pieces it finds, K included, have the bits of its own
    # pieces built on an empty cache
    factors = tuple(GammaFactor(lam, complex(re, im)) for lam, re, im in params)
    twin = tuple(
        GammaFactor(f.lam, complex(_flip_zero(f.mu.real), _flip_zero(f.mu.imag))) for f in factors
    )
    args = math.exp(log_q), cmath.exp(1j * theta), k, a1
    try:
        data, twin_data = LFunctionData(factors, *args), LFunctionData(twin, *args)
    except ValidationError:
        assume(False)
    strip = select_strip(a1)
    probe.empty_caches("factor pieces")
    shared, counts = probe.costs(lambda: [probe.pieces(d, strip) for d in (twin_data, data)])
    assert (counts["factor pieces"], counts["factor pieces hits"]) == (1, 1)  # the twin's entry
    assert _invariant_bits(data) == _invariant_bits(twin_data)
    probe.empty_caches("factor pieces")
    assert _piece_bits(shared[1]) == _piece_bits(probe.pieces(data, strip))


# --- tail sums ----------------------------------------------------------------

def test_tail_sum_frozen_values():
    assert tail_sum(2.0, 1.0) == pytest.approx(TAIL_2, abs=1e-12)
    assert tail_sum(3.0, 1.0) == pytest.approx(TAIL_3, abs=1e-12)
    assert tail_sum(4.0, 1.0) == pytest.approx(TAIL_4, abs=1e-12)


def test_tail_sum_zero_coefficient():
    assert tail_sum(3.0, 0.0) == 0.0


def test_tail_sum_divergent():
    with pytest.raises(DomainError):
        tail_sum(1.0, 1.0)
    with pytest.raises(DomainError):
        tail_sum(0.5, 1.0)
    for x in (math.inf, math.nan):
        with pytest.raises(DomainError):
            tail_sum(x, 1.0)
    # a non-finite coefficient would make the sum nan or inf
    for a1 in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match=f"^needs a finite real tail sum coefficient a1, "
                                              f"got tail sum coefficient a1 = {a1}$"):
            tail_sum(3.0, a1)
    with pytest.raises(DomainError, match="^tail sum coefficient a1 is too large to convert"):
        tail_sum(3.0, 10 ** 400)


def test_tail_sum_is_upper_bound():
    # result must over-approximate the true sum (checked against mpmath)
    for x in (1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 6.0):
        true = float(mp.zeta(x) - 1)
        got = tail_sum(x, 1.0)
        assert got >= true
        assert got - true < 1e-12


def test_tail_sum_is_upper_bound_over_the_strip_range():
    # up to x = 988, the exponent select_strip reaches at a1 = 1e297; the head
    # sum's rounding, not the Euler-Maclaurin surplus, decides the sign for x >~ 18
    with mp.workdps(40):
        for i in range(465):
            x = 1.01 + i * (988.0 - 1.01) / 464
            true = mp.zeta(x, 2)
            got = mp.mpf(tail_sum(x, 1.0))
            assert got >= true, x
            if x >= 2.0:
                assert got - true < 1e-12, x


@given(st.floats(min_value=1.01, max_value=12.0), st.floats(min_value=0.25, max_value=3.0))
def test_tail_sum_decreasing_in_exponent(x, step):
    assert tail_sum(x + step, 1.0) < tail_sum(x, 1.0)


@given(st.floats(min_value=1.0, max_value=5000.0, exclude_min=True),
       st.sampled_from([0.0, 1.0, 7.3, 1e100, 1e297]))
def test_tail_sum_matches_the_generator_form(x, a1):
    # the head as one generator of k ** -x, as tail_sum first computed it:
    # each term is the same float power, so the sums are bit-identical
    n = _TAIL_TERMS
    head = math.fsum(k ** -x for k in range(2, n))
    rest = n ** (1.0 - x) / (x - 1.0) + n ** -x / 2.0 + x * n ** (-x - 1.0) / 12.0
    assert tail_sum(x, a1) == a1 * (head + rest) * (1.0 + 1e-14)


def test_tail_sum_decreasing_at_low_exponent():
    assert tail_sum(2.0, 1.0) > tail_sum(2.25, 1.0) > tail_sum(3.0, 1.0)


def test_tail_sum_memo_gives_equal_bits_and_a_float_in_either_call_order():
    # the memo is keyed by the float (x, a1), whichever call filled the entry
    cold = tail_sum(3.0, 1.0)
    for first, second in (((3, 1), (3.0, 1.0)), ((3.0, 1.0), (3, 1))):
        probe.empty_caches("tail sum")
        values, counts = probe.costs(lambda: [tail_sum(*first), tail_sum(*second)])
        assert [type(v) for v in values] == [float, float]
        assert values[0].hex() == values[1].hex() == cold.hex()
        assert counts == {"tail sum": 1, "tail sum hits": 1}


@pytest.mark.parametrize("a1", [100.0, sys.float_info.max])
def test_select_strip_evaluates_each_tail_sum_once(a1):
    # the a search tries x = 3 .. a, and the b search's x = 3 .. -b - 1 are among them,
    # also for the largest a1, whose a search fills the memo exactly
    strip, counts = probe.costs(lambda: select_strip(a1))
    assert -strip.b - 1.0 <= strip.a
    assert (counts["tail sum"], counts["tail sum hits"]) == (strip.a - 2.0, -strip.b - 3.0)
    assert probe.size("tail sum") <= probe.maxsize("tail sum")


# --- strip selection ------------------------------------------------------------

def test_select_strip_default():
    strip = select_strip(1.0)
    assert (strip.a, strip.b, strip.R) == (3.0, -4.0, 7.0)


def test_select_strip_larger_coefficients():
    # 3*(zeta(3)-1) ~ 0.606 >= 1/2 pushes a to 4; 5*(zeta(3)-1) ~ 1.01 >= 1 pushes b to -5
    assert select_strip(3.0).a == 4.0
    assert select_strip(5.0).b == -5.0


def test_select_strip_output_satisfies_conditions():
    for a1 in (1.0, 2.0, 3.0, 5.0, 10.0):
        strip = select_strip(a1)
        assert tail_sum(strip.a, a1) < 0.5
        assert tail_sum(-strip.b - 1.0, a1) < 1.0
        assert strip.R > 5.0


def test_select_strip_overrides():
    strip = select_strip(1.0, a=2.5, b=-3.5)
    assert (strip.a, strip.b) == (2.5, -3.5)
    with pytest.raises(InvalidStripError, match="tail_sum"):
        select_strip(3.0, a=2.2)  # 3*(sum n^-2.2 - ...) is far above 1/2
    with pytest.raises(InvalidStripError, match="a > 2"):
        select_strip(1.0, a=2.0)
    with pytest.raises(InvalidStripError, match="b < -3"):
        select_strip(1.0, b=-3.0)
    with pytest.raises(InvalidStripError, match="tail_sum"):
        select_strip(8.0, b=-3.5)  # 8 * sum n^-2.5 ~ 2.7 >= 1
    # both overrides pass their tail sums, but R = a - b is inf
    with pytest.raises(InvalidStripError, match=r"finite a \+ 2R, got a = 1e\+308, b = -1e\+308$"):
        select_strip(1.0, a=1e308, b=-1e308)


def test_select_strip_checks_override_ranges_before_tail_sums():
    # the strip is built first, so a b out of range is named before a's failed tail sum
    with pytest.raises(InvalidStripError, match="^strip needs finite b < -3, got b = -3.0$"):
        select_strip(3.0, a=2.2, b=-3.0)
    with pytest.raises(InvalidStripError, match=r"^override a = 2.2 fails tail_sum\(a, a1\)"):
        select_strip(3.0, a=2.2, b=-30.0)


def test_select_strip_huge_coefficient():
    strip = select_strip(1e100)
    assert strip == StripParams(334.0, -334.0, 668.0)
    assert tail_sum(strip.a, 1e100) < 0.5
    assert tail_sum(-strip.b - 1.0, 1e100) < 1.0


def test_select_strip_rejects_small_a1():
    # with nan every tail-sum comparison is false, so neither inequality is really
    # checked; with inf every tail sum is infinite
    for a1 in (0.9, math.nan, math.inf, -math.inf):
        message = f"^needs a finite real a1 >= 1.0, got a1 = {a1}$"
        with pytest.raises(ValidationError, match=message):
            select_strip(a1)
    # an int past the float range
    with pytest.raises(ValidationError, match="^a1 is too large to convert to a float"):
        select_strip(10 ** 400)


def test_strip_params_checks_its_shape():
    assert StripParams(3.0, -4.0, 7.0).R == 7.0
    for a, b, R, message in (
        (2.0, -4.0, 6.0, "^needs a finite real strip a > 2.0, got strip a = 2.0$"),
        (math.nan, -4.0, math.nan, "^needs a finite real strip a > 2.0, got strip a = nan$"),
        (math.inf, -4.0, math.inf, "^needs a finite real strip a > 2.0, got strip a = inf$"),
        (3.0, -3.0, 6.0, "finite b < -3, got b = -3.0"),
        (3.0, math.nan, math.nan, "finite b < -3, got b = nan"),
        (3.0, -math.inf, math.inf, "finite b < -3, got b = -inf"),
        (3.0, -4.0, 7.5, "R must equal a - b, got R = 7.5"),
        # R is finite, 2R is not
        (5e307, -5e307, 1e308, r"finite a \+ 2R, got a = 5e\+307, b = -5e\+307$"),
    ):
        with pytest.raises(InvalidStripError, match=message):
            StripParams(a, b, R)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=2.0, exclude_min=True, allow_infinity=False),
    st.floats(max_value=-3.0, exclude_max=True, allow_infinity=False),
)
def test_strip_invariants_match_their_expressions(a, b):
    # computed at construction, each strip invariant is bit-equal to its
    # expression; repr, == and hash still see a, b and R only
    if not a + 2.0 * (a - b) < math.inf:
        with pytest.raises(InvalidStripError, match=r"finite a \+ 2R"):
            StripParams(a, b, a - b)
        return
    strip = StripParams(a, b, a - b)
    R = strip.R
    assert {name: vars(strip)[name].hex() for name in ("two_r", "right_edge", "disc_slope")} == {
        "two_r": (2.0 * R).hex(),
        "right_edge": (a + 2.0 * R).hex(),
        "disc_slope": (0.5 - a + 2.0 * R).hex(),
    }
    twin = StripParams(strip.a, strip.b, strip.R)
    assert twin == strip and hash(twin) == hash(strip) == hash((a, b, R))
    assert repr(strip) == f"StripParams(a={a!r}, b={b!r}, R={R!r})"


# --- admissible heights -----------------------------------------------------------

def test_min_height_newform():
    from zerobound import presets

    for kappa in (2, 12, 40):
        data, strip = presets.newform(1, kappa)
        h = min_admissible_height(data, strip)
        assert h.value == 15.0 + kappa
        assert not h.strict_adjusted
        assert float(h) == h.value


def test_min_height_zeta(zeta_pair):
    data, strip = zeta_pair
    h = min_admissible_height(data, strip)
    assert h.value == 16.0
    assert h.binding == "gamma-shift"


def test_min_height_pole_constraint():
    strip = select_strip(1.0)
    base = dict(factors=(GammaFactor(0.5, 0j),), Q=1.0, omega=1 + 0j, a1=1.0)
    without_pole = LFunctionData(**base, k=0)
    with_pole = LFunctionData(**base, k=5)
    assert min_admissible_height(without_pole, strip).value == 16.0
    # 14 + 1/(2^(1/5) - 1) ~ 20.7 dominates once k = 5
    expected = 14.0 + 1.0 / (2.0 ** 0.2 - 1.0)
    assert min_admissible_height(with_pole, strip).value == pytest.approx(expected, rel=1e-15)
    assert min_admissible_height(with_pole, strip).binding == "pole-window"


@pytest.mark.parametrize("im_mu", [1e8, 1e12])
def test_strict_min_height_is_admissible_above_the_nudge_resolution(im_mu):
    # the strict constraint binds only where shift_max and arg_max round to
    # the same float; at these thresholds the 1e-9 nudge is below half an ulp
    data = LFunctionData(
        factors=(GammaFactor(1.0, complex(0.0, im_mu)),), Q=1.0, omega=1 + 0j, k=0, a1=1.0
    )
    strip = select_strip(1.0)
    h = min_admissible_height(data, strip)
    assert (h.binding, h.strict_adjusted) == ("gamma-argument", True)
    cons = _constraints(_thresholds(data, strip), strip.two_r, data.k)
    threshold = {name: value for name, value, _ in cons}["gamma-argument"]
    assert h.value == math.nextafter(threshold, math.inf)
    require_admissible(data, strip, h.value)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.5, 3.0), st.floats(0.0, 6.0), st.floats(0.0, 12.0), st.booleans()),
        min_size=1, max_size=4,
    ),
    st.integers(0, 7),
)
def test_strict_min_height_equals_the_nudged_threshold(factors, k):
    # |Im mu| / lam from 1 to 1e12: wherever the strict constraint binds, the
    # next float above its threshold is what a 1e-9 nudge (or one ulp where
    # the nudge rounds away) gives
    data = LFunctionData(
        factors=tuple(
            GammaFactor(lam, complex(re, (-1.0 if neg else 1.0) * lam * 10.0 ** e))
            for lam, re, e, neg in factors
        ),
        Q=1.0, omega=1 + 0j, k=k, a1=1.0,
    )
    strip = select_strip(1.0)
    h = min_admissible_height(data, strip)
    cons = _constraints(_thresholds(data, strip), strip.two_r, data.k)
    thresholds = {name: value for name, value, _ in cons}
    if h.strict_adjusted:
        sval = thresholds["gamma-argument"]
        assert h.value == max(sval + 1e-9, math.nextafter(sval, math.inf))
    else:
        assert h.value == max(v for name, v in thresholds.items() if name != "gamma-argument")
    require_admissible(data, strip, h.value)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10 ** 3, 10 ** 6, 10 ** 12, 10 ** 15])
def test_pole_window_threshold_is_a_tight_upper_bound(k):
    got = _pole_window(k)
    with mp.workdps(50):
        true = 1 / mp.expm1(mp.log(2) / k)
        assert got >= true
        assert got - true <= 16 * math.ulp(float(true))


def _mpf_fraction(x) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("two_r", [14, 200, 1000])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 10])
def test_admissibility_thresholds_are_rounded_upward(two_r, k):
    # 2R + threshold in floats may round below the exact sum; a height equal
    # to such a value would be admitted although it is below the threshold
    strip = select_strip(1.0, a=3.0, b=3.0 - two_r / 2)
    assert 2.0 * strip.R == two_r
    data = LFunctionData(
        factors=(GammaFactor(0.7, complex(0.3, 2.9)), GammaFactor(1.3, complex(1.1, -0.6))),
        Q=1.0, omega=1 + 0j, k=k, a1=1.0,
    )
    with mp.workdps(50):
        pole = _mpf_fraction(1 / (mp.mpf(2) ** (mp.mpf(1) / k) - 1))
    terms = {  # name: (float term, exact threshold)
        "base-window": (1.0, Fraction(1)),
        "gamma-shift": (data.shift_max, Fraction(data.shift_max)),
        "pole-window": (_pole_window(k), pole),
        "gamma-argument": (data.arg_max, Fraction(data.arg_max)),
    }
    cons = _constraints(_thresholds(data, strip), strip.two_r, data.k)
    assert [name for name, _, _ in cons] == list(terms)
    for name, value, _ in cons:
        term, threshold = terms[name]
        assert Fraction(value) >= two_r + threshold, name
        # and no higher than the float sum rounded upward
        assert Fraction(math.nextafter(value, -math.inf)) < two_r + Fraction(term), name


def test_min_height_lower_bound_invariant():
    from zerobound import presets

    for data, strip in (presets.zeta(), presets.newform(5, 4), presets.newform(7, 20)):
        assert min_admissible_height(data, strip).value >= 2.0 * strip.R + 1.0


def test_require_admissible_names_constraint(zeta_pair):
    data, strip = zeta_pair
    require_admissible(data, strip, 16.0)
    with pytest.raises(DomainError, match="gamma-shift"):
        require_admissible(data, strip, 15.5)
    with pytest.raises(DomainError, match="base-window"):
        require_admissible(data, strip, 3.0)


# --- main term ----------------------------------------------------------------------

def test_main_term_zeta_closed_form(zeta_pair):
    # with lambda Q^2 = 1/(2 pi) the main term collapses to (T/2pi) log(T/(2 pi e))
    data, _ = zeta_pair
    for T in (16.0, 50.0, 100.0, 1234.5):
        expected = T / (2 * math.pi) * math.log(T / (2 * math.pi * math.e))
        assert main_term(data, T) == pytest.approx(expected, rel=1e-14)


def test_main_term_vanishes_at_unit_conductor():
    data = LFunctionData(factors=(GammaFactor(1.0, 0j),), Q=1.0, omega=1 + 0j, k=0, a1=1.0)
    assert data.lambda_q2 == pytest.approx(1.0)
    assert main_term(data, math.e) == pytest.approx(0.0, abs=1e-15)


def test_main_term_monotone_for_large_heights(zeta_pair, nf12_pair):
    for data, _ in (zeta_pair, nf12_pair):
        lq2 = data.lambda_q2
        start = math.e * max(1.0, 1.0 / lq2)
        grid = [start * (1.1 ** i) for i in range(60)]
        values = [main_term(data, t) for t in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_main_term_domain():
    data = LFunctionData(factors=(GammaFactor(1.0, 0j),), Q=1.0, omega=1 + 0j, k=0, a1=1.0)
    with pytest.raises(DomainError):
        main_term(data, 0.0)


# --- JSON interchange ------------------------------------------------------------------

def test_document_round_trip(nf12_pair):
    data, strip = nf12_pair
    doc = document_dict(data, strip)
    text = json.dumps(doc)
    data2, strip2 = load_document(json.loads(text))
    assert data2 == data
    assert strip2 == strip


def test_load_document_rejects_garbage():
    with pytest.raises(ValidationError):
        load_document({"factors": [{"lambda": 1.0}], "Q": 1.0})
