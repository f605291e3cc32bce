"""Core datum, derived invariants, strip selection, admissibility, main term."""

import json
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

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
from zerobound.selberg import _TAIL_TERMS, _constraints, _pole_window, document_dict

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
                         ("factors", (GammaFactor(200.0, 0j),))):  # lam^(2 lam) overflows
        with pytest.raises(ValidationError):
            LFunctionData(**{**good, field: value})


def test_omega_modulus_tolerance():
    # unimodular up to 1e-12 passes, beyond fails
    LFunctionData(
        factors=(GammaFactor(1.0, 0j),), Q=1.0, omega=complex(1.0 + 5e-13, 0.0), k=0, a1=1.0
    )


@pytest.mark.parametrize("field, value", [
    ("Q", "abc"), ("k", 1.7), ("k", True), ("a1", None), ("a", "abc"), ("b", math.inf),
    pytest.param("a1", 10 ** 400, id="a1-int-beyond-float"),
])
def test_document_rejects_mistyped_fields(nf12_pair, field, value):
    doc = document_dict(*nf12_pair)
    with pytest.raises(ValidationError):
        load_document({**doc, field: value})


# --- derived quantities ------------------------------------------------------

def test_derive_quantities_newform(nf12_pair):
    data, _ = nf12_pair
    assert data.degree == 2.0
    assert data.lambda_cap == 1.0
    assert data.mu_cap == complex(4 - 2 * 12, 0)  # 4 - 2*kappa


def test_derive_quantities_zeta(zeta_pair):
    data, _ = zeta_pair
    assert data.degree == 1.0
    assert data.lambda_cap == pytest.approx(0.5, rel=1e-15)
    assert data.mu_cap == 2 + 0j
    assert data.lambda_q2 == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)


def test_derive_quantities_is_pure(nf12_pair):
    data, _ = nf12_pair
    fresh = LFunctionData(data.factors, data.Q, data.omega, data.k, data.a1)
    for name in ("degree", "lambda_cap", "lambda_q2", "mu_cap"):
        assert getattr(data, name) == getattr(fresh, name), name


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


def test_select_strip_huge_coefficient():
    strip = select_strip(1e100)
    assert strip == StripParams(334.0, -334.0, 668.0)
    assert tail_sum(strip.a, 1e100) < 0.5
    assert tail_sum(-strip.b - 1.0, 1e100) < 1.0


def test_select_strip_rejects_small_a1():
    with pytest.raises(ValidationError):
        select_strip(0.9)


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
    threshold = {name: value for name, value, _ in _constraints(data, strip)}["gamma-argument"]
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
    thresholds = {name: value for name, value, _ in _constraints(data, strip)}
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
    cons = _constraints(data, strip)
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
