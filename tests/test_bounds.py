"""Explicit constant assembly: integrals, disc bound, branch logic, coefficients."""

import math
import re
import sys
from operator import attrgetter

import pytest
from hypothesis import assume, given, settings, strategies as st

from zerobound import (
    AdmissibilityError,
    BoundaryWarning,
    BoundReport,
    DomainError,
    ValidationError,
    argument_integral_bound,
    bound_report,
    branch_constants,
    ceil_guarded,
    disc_count_bound,
    doubling_coefficients,
    integrated_ratio_error,
    log_integral_bound,
    shifted_constant,
    total_count_error,
    trivial_zero_window,
    vertical_integral_bound,
    window_coefficients,
)
from zerobound import (
    GammaFactor,
    LFunctionData,
    NewformSpec,
    StripParams,
    ZeroboundError,
    ZeroList,
    check_bound,
    count_window,
    magnitude_envelope,
    main_term,
    min_admissible_height,
    presets,
    ratio_error_bound,
    ratio_error_sup,
    ratio_error_total,
    reflection_log_main,
    remainder_pair_bound,
    require_admissible,
    select_strip,
    stirling_remainder_bound,
    table_row,
)

# frozen by scripts/derive_oracle_values.py
S_NF12_27_100 = 538.919230378462
R1_NF12_27_100 = 631.9298961240083
R1_NF12_27_1 = -1581.3065801855312
R2_NF12_27 = 240.64297056351492
I3_NF12_27 = 5335.9976163728004
RTOT_NF12_27_100 = 3316.2380251056044
R2_ZETA_16 = 250.93203138400902
RTOT_ZETA_16_100 = 2469.7210673912024
C1_ZETA = 113.6545196669552
C2_ZETA_16 = 1939.1965262454296
C3_ZETA_16 = 18379.891853555370


# --- integrated ratio error -----------------------------------------------

def test_integrated_error_vanishes_at_equal_heights(nf12_pair):
    data, strip = nf12_pair
    assert integrated_ratio_error(data, strip, 27.0, 27.0) == 0.0


def test_integrated_error_log_scaling(nf12_pair):
    data, strip = nf12_pair
    base = integrated_ratio_error(data, strip, 1.0, math.e)
    assert integrated_ratio_error(data, strip, 27.0, 27.0 * math.e) == pytest.approx(
        base, rel=1e-14
    )


def test_integrated_error_frozen(nf12_pair):
    data, strip = nf12_pair
    assert integrated_ratio_error(data, strip, 27.0, 100.0) == pytest.approx(
        S_NF12_27_100, rel=1e-12
    )


def test_integrated_error_domain(nf12_pair):
    data, strip = nf12_pair
    with pytest.raises(DomainError):
        integrated_ratio_error(data, strip, 27.0, 26.0)
    with pytest.raises(DomainError):
        integrated_ratio_error(data, strip, 0.0, 10.0)


# --- horizontal log-integral bound ---------------------------------------------

def test_log_integral_bound_at_equal_heights(nf12_pair):
    # only the 3 d (b^2 + b)/T0 term survives: 3*2*12/27 = 8/3
    data, strip = nf12_pair
    assert log_integral_bound(data, strip, 27.0, 27.0) == pytest.approx(8.0 / 3.0, rel=1e-14)


def test_log_integral_bound_frozen(nf12_pair):
    data, strip = nf12_pair
    assert log_integral_bound(data, strip, 27.0, 100.0) == pytest.approx(
        R1_NF12_27_100, rel=1e-12
    )
    # formal evaluation below T0 feeds the coefficient assembly
    assert log_integral_bound(data, strip, 27.0, 1.0) == pytest.approx(
        R1_NF12_27_1, rel=1e-12
    )


def test_log_integral_bound_increasing_above_t0(nf12_pair):
    data, strip = nf12_pair
    grid = [27.0 * 1.2 ** i for i in range(30)]
    vals = [log_integral_bound(data, strip, 27.0, t) for t in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_log_integral_bound_domain(nf12_pair):
    data, strip = nf12_pair
    with pytest.raises(DomainError):
        log_integral_bound(data, strip, 0.0, 10.0)


# --- vertical integral bound ------------------------------------------------------

def test_vertical_integral_bound_value():
    v = vertical_integral_bound()
    assert v == math.pi ** 2 / (3.0 * math.log(2.0))
    assert v == pytest.approx(4.746276441662502, rel=1e-13)
    # the pair of vertical integrals contributes exactly twice this
    assert 2.0 * v == pytest.approx(2.0 * math.pi ** 2 / (3.0 * math.log(2.0)))


# --- disc count bound ----------------------------------------------------------------

def test_disc_count_bound_frozen(nf12_pair, zeta_pair):
    data, strip = nf12_pair
    assert disc_count_bound(data, strip, 27.0) == pytest.approx(R2_NF12_27, rel=1e-12)
    data, strip = zeta_pair
    assert disc_count_bound(data, strip, 16.0) == pytest.approx(R2_ZETA_16, rel=1e-12)


def test_disc_count_bound_log_growth(nf12_pair):
    # drift away from the log(2T) asymptote stays bounded
    data, strip = nf12_pair
    d, c = 2.0, 0.5 - strip.a + 2.0 * strip.R
    slope = d * c / math.log(2.0)
    residuals = [
        disc_count_bound(data, strip, T) - slope * math.log(2.0 * T)
        for T in (27.0, 100.0, 1000.0, 1e6)
    ]
    assert max(residuals) - min(residuals) < 60.0


def test_disc_count_bound_admissibility(nf12_pair):
    data, strip = nf12_pair
    with pytest.raises(AdmissibilityError, match="gamma-shift"):
        disc_count_bound(data, strip, 20.0)


def test_argument_integral_bound_chain(nf12_pair):
    data, strip = nf12_pair
    r2 = disc_count_bound(data, strip, 27.0)
    got = argument_integral_bound(data, strip, 27.0)
    assert got == pytest.approx(math.pi * 7.0 * (r2 + 2.0), rel=1e-15)
    assert got == pytest.approx(I3_NF12_27, rel=1e-12)
    assert got > 0.0


def test_argument_integral_bound_increasing(nf12_pair):
    # the 1/(T - 2R) transients push the bound down just above T0; once they
    # fade (T - 2R of order the strip constants) the log(2T) growth takes over
    data, strip = nf12_pair
    grid = [60.0 * 1.5 ** i for i in range(12)]
    vals = [argument_integral_bound(data, strip, t) for t in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# --- trivial zero window ------------------------------------------------------------------

def test_trivial_zero_window_newform():
    for kappa in (2, 12, 36):
        data, strip = presets.newform(1, kappa)
        assert trivial_zero_window(data, strip) == pytest.approx(
            abs((kappa - 7.0) / 2.0) + 1.0, rel=1e-15
        )


def test_trivial_zero_window_unit_factor():
    data = LFunctionData(factors=(GammaFactor(1.0, 0j),), Q=1.0, omega=1 + 0j, k=0, a1=1.0)
    strip = select_strip(1.0)
    assert trivial_zero_window(data, strip) == 4.0


def test_trivial_zero_window_scales_with_factor_count():
    strip = select_strip(1.0)
    single = LFunctionData(
        factors=(GammaFactor(1.0, 1j),), Q=1.0, omega=1 + 0j, k=0, a1=1.0
    )
    double = LFunctionData(
        factors=(GammaFactor(1.0, 1j), GammaFactor(1.0, 1j)), Q=1.0, omega=1 + 0j, k=0, a1=1.0
    )
    assert trivial_zero_window(double, strip) == pytest.approx(
        2.0 * trivial_zero_window(single, strip), rel=1e-15
    )


# --- branch constants ------------------------------------------------------------------------

def test_branch_newform_takes_reflection_branch(nf12_pair):
    data, strip = nf12_pair
    bc = branch_constants(data, strip, 27.0)
    assert bc.alpha == 0
    assert bc.h2 == pytest.approx(391.0, rel=1e-15)  # 2 * (23/2) * 17


def test_branch_high_order_pole_flips_alpha():
    # a large pole order inflates the interpolation branch via k log 3
    strip = select_strip(1.0)
    data = LFunctionData(
        factors=(GammaFactor(1.0, 0j),), Q=1.0, omega=1 + 0j, k=50, a1=1.0
    )
    t0 = 2.0 * strip.R + 1.0 / (2.0 ** (1.0 / 50.0) - 1.0) + 1.0
    bc = branch_constants(data, strip, t0)
    assert bc.alpha == 1
    assert bc.h2 == 0.0


def test_branch_stable_under_height_perturbation(nf12_pair):
    data, strip = nf12_pair
    assert branch_constants(data, strip, 27.0).alpha == branch_constants(data, strip, 40.0).alpha


def test_branch_domain(nf12_pair):
    data, strip = nf12_pair
    with pytest.raises(DomainError):
        branch_constants(data, strip, 14.0)


def test_bounds_that_need_no_left_edge_kernel_sum_hold_on_a_wide_strip(zeta_pair):
    # at a = 1e12 the disc's left edge a + 2R is so far out that the secant
    # guard refuses the kernel sum there, so no window and no disc bound
    # exist; the log-integral bound and the branch constants read no kernel
    # sum at that edge and keep their values (printed at the parent commit)
    data, _ = zeta_pair
    strip = select_strip(1.0, a=1e12)
    for call in (lambda: disc_count_bound(data, strip, 1e14),
                 lambda: window_coefficients(data, strip, 1e14)):
        with pytest.raises(DomainError, match="secant"):
            call()
    assert log_integral_bound(data, strip, 1e14, 1e15) == 84.1009231863498
    bc = branch_constants(data, strip, 1e14)
    assert (bc.alpha, bc.h1, bc.h2) == (0, 4000000000009.9053, 3.0000000000335e+24)


def test_a_refused_left_edge_kernel_sum_leaves_its_pieces_cached(zeta_pair):
    # the pieces of the a = 1e12 strip are built once and kept; K is refused
    # on every read, by the pieces, ratio_error_sup or a window, and never stored
    from zerobound import bounds

    data, _ = zeta_pair
    strip = select_strip(1.0, a=1e12)
    log_integral_bound(data, strip, 1e14, 1e15)
    pieces = bounds._factor_pieces(data.factors, strip)
    for read in (lambda: pieces.K, lambda: pieces.sup(1e14), lambda: pieces.K,
                 lambda: ratio_error_sup(data, strip, 1e14),
                 lambda: bound_report(data, strip, 1e14, 1e15)):
        with pytest.raises(DomainError, match="secant"):
            read()
        assert "K" not in vars(pieces)
    assert bounds._factor_pieces(data.factors, strip) is pieces
    assert bounds._factor_pieces.cache_info()[:2] == (4, 1)  # (hits, misses)


# --- total count error --------------------------------------------------------------------------

def test_total_count_error_frozen(nf12_pair, zeta_pair):
    data, strip = nf12_pair
    assert total_count_error(data, strip, 27.0, 100.0) == pytest.approx(
        RTOT_NF12_27_100, rel=1e-12
    )
    data, strip = zeta_pair
    assert total_count_error(data, strip, 16.0, 100.0) == pytest.approx(
        RTOT_ZETA_16_100, rel=1e-12
    )


def test_total_count_error_positive(nf12_pair):
    data, strip = nf12_pair
    for t in (28.0, 50.0, 300.0):
        assert total_count_error(data, strip, 27.0, t) > 0.0


def test_total_count_error_domain(nf12_pair):
    data, strip = nf12_pair
    with pytest.raises(DomainError):
        total_count_error(data, strip, 27.0, 27.0)
    with pytest.raises(AdmissibilityError):
        total_count_error(data, strip, 20.0, 100.0)


@pytest.mark.parametrize("call", [
    lambda d, s, h: window_coefficients(d, s, h),
    lambda d, s, h: doubling_coefficients(d, s, h),
    lambda d, s, h: disc_count_bound(d, s, h),
    lambda d, s, h: argument_integral_bound(d, s, h),
    lambda d, s, h: total_count_error(d, s, h, math.inf),
    lambda d, s, h: total_count_error(d, s, 27.0, h),
    lambda d, s, h: bound_report(d, s, h, math.inf),
    lambda d, s, h: bound_report(d, s, 27.0, h),
    lambda d, s, h: check_bound(d, s, ZeroList((14.1, 30.0)), 27.0, h),
    lambda d, s, h: main_term(d, h),
    lambda d, s, h: window_coefficients(d, s, 27.0).evaluate(h),
    lambda d, s, h: integrated_ratio_error(d, s, 27.0, h),
    lambda d, s, h: log_integral_bound(d, s, 27.0, h),
    lambda d, s, h: log_integral_bound(d, s, h, 100.0),
    lambda d, s, h: ratio_error_sup(d, s, h),
    lambda d, s, h: ratio_error_bound(d, 0, -2.0, h),
    lambda d, s, h: remainder_pair_bound(d, 0, -4.0, h),
    lambda d, s, h: reflection_log_main(d, -2.0, h),
    lambda d, s, h: branch_constants(d, s, h),
    lambda d, s, h: require_admissible(d, s, h),
    lambda d, s, h: ratio_error_total(d, -2.0, h),
    lambda d, s, h: magnitude_envelope(d, s, 0.0, 30.0, h),
    lambda d, s, h: magnitude_envelope(d, s, 0.0, h, 30.0),
    # an infinite T counts every zero above T0, so the height goes in as T0; check_bound
    # above reaches count_window's T first
    lambda d, s, h: count_window(ZeroList((14.1, 30.0)), h, 100.0),
])
@pytest.mark.parametrize("height", [
    math.inf, math.nan,
    pytest.param(None, id="None"), pytest.param("30", id="str"),
    pytest.param(30 + 0j, id="complex"), pytest.param([30.0], id="list"),
])
def test_non_finite_height_is_rejected(nf12_pair, call, height):
    # a height that is no number made the comparison raise a bare TypeError,
    # and a T0 that cannot be hashed the window memo's key
    with pytest.raises(ZeroboundError):
        call(*nf12_pair, height)


@pytest.mark.parametrize("call", [
    lambda d, s, sigma: remainder_pair_bound(d, 0, sigma, 30.0),
    lambda d, s, sigma: ratio_error_bound(d, 0, sigma, 30.0),
    lambda d, s, sigma: ratio_error_total(d, sigma, 30.0),
    lambda d, s, sigma: reflection_log_main(d, sigma, 30.0),
    lambda d, s, sigma: magnitude_envelope(d, s, sigma, 30.0, 30.0),
    # complex() of an int past the float range would overflow here, before the call
    lambda d, s, sigma: stirling_remainder_bound(
        complex(sigma, 1.0) if isinstance(sigma, float) else sigma
    ),
])
@pytest.mark.parametrize("sigma", [
    math.inf, -math.inf, math.nan,
    pytest.param(10 ** 400, id="10^400"), pytest.param(-10 ** 400, id="-10^400"),
])
def test_non_finite_real_part_is_rejected(nf12_pair, call, sigma):
    # no bound holds at a non-finite real part, so none may come back as nan (or 0);
    # an int past the float range gets a DomainError too, not a bare OverflowError
    with pytest.raises(DomainError):
        call(*nf12_pair, sigma)


# --- coefficient forms --------------------------------------------------------------------------

def test_window_coefficients_zeta_frozen(zeta_pair):
    data, strip = zeta_pair
    co = window_coefficients(data, strip, 16.0)
    assert co.c1 == pytest.approx(C1_ZETA, rel=1e-12)
    assert co.c2 == pytest.approx(C2_ZETA_16, rel=1e-12)
    assert co.c3 == pytest.approx(C3_ZETA_16, rel=1e-12)


def test_leading_coefficient_independent_of_t0(nf12_pair):
    data, strip = nf12_pair
    a = window_coefficients(data, strip, 27.0)
    b = window_coefficients(data, strip, 61.5)
    assert a.c1 == b.c1


def test_coefficients_evaluate():
    from zerobound import Coefficients

    co = Coefficients(c1=2.0, c2=1.0, c3=10.0)
    assert co.evaluate(math.e) == pytest.approx(2.0 + 1.0 + 10.0 / math.e)
    with pytest.raises(DomainError):
        co.evaluate(0.0)


def test_doubling_leading_coefficient(nf12_pair):
    data, strip = nf12_pair
    dbl = doubling_coefficients(data, strip, 27.0)
    assert dbl.c1 == pytest.approx(299.0 / math.log(2.0), rel=1e-14)


def test_coefficient_dominance_spot(nf12_pair, zeta_pair):
    # full log-grid sweep lives in the acceptance suite
    for (data, strip), t0 in ((nf12_pair, 27.0), (zeta_pair, 16.0)):
        co = window_coefficients(data, strip, t0)
        for t in (t0 + 1.0, 3.0 * t0, 40.0 * t0):
            r = total_count_error(data, strip, t0, t)
            assert co.evaluate(t) >= r * (1.0 - 1e-9)


def test_coefficient_dominance_where_the_interpolation_branch_overtakes():
    # the reflection branch wins at T0 = 40, but its h2 payload decays and
    # h1_interp > h1_reflect, so the interpolation branch binds for large T
    data = LFunctionData(
        factors=(GammaFactor(0.5142136767984119, complex(3.114226736890641, -4.730961797881934)),),
        Q=0.27142595341503667, omega=1 + 0j, k=1, a1=1.0,
    )
    strip = select_strip(1.0)
    assert min_admissible_height(data, strip).value < 40.0
    assert branch_constants(data, strip, 40.0).alpha == 0
    co = window_coefficients(data, strip, 40.0)
    for t in (1e3, 1e4, 1e6):
        assert co.evaluate(t) >= total_count_error(data, strip, 40.0, t) * (1.0 - 1e-9)


# --- corollary shift, ceiling guard, report -------------------------------------------------------

def test_shifted_constant():
    assert shifted_constant(5.0, 0, 0) == 5.0
    assert shifted_constant(5.0, 10, 12) == 17.0
    # a count must be an int >= 0 but not a bool, and c2_main finite
    for c2, counts in (
        (5.0, (-1, 0)), (1.0, (math.nan, 0)), (1.0, ("3", 0)), (1.0, (1.5, 0)),
        (1.0, (0, True)), (math.nan, (1, 0)), (math.inf, (1, 0)), (-math.inf, (0, 0)),
        (1.7e308, (10 ** 308, 0)),  # a finite c2 and count whose sum overflows
    ):
        with pytest.raises(ValidationError):
            shifted_constant(c2, *counts)
    # a c2_main that is no number raised a bare TypeError
    for c2 in ("x", "5", None):
        with pytest.raises(ValidationError, match=f"^c2_main must be a real number, got {c2!r}$"):
            shifted_constant(c2, 1, 0)


def test_ceil_guarded_plain():
    assert ceil_guarded(2.5) == 3
    assert ceil_guarded(-91.4) == -91
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=f"pre-ceiling value {x!r} for c2 is not a finite"):
            ceil_guarded(x, label="c2")
    # a value that is no real number raised a bare TypeError from abs() or round()
    for x in ("x", None, 1j):
        with pytest.raises(DomainError, match=f"^pre-ceiling value {x!r} for c2 is not a finite"):
            ceil_guarded(x, label="c2")
    # a label that is no str raised a bare TypeError from the concatenation
    for label, text in ((1, "1"), (2 ** 20000, "an integer of 20001 bits"), ([0], "[0]")):
        with pytest.raises(DomainError, match=fr"^pre-ceiling value nan for {re.escape(text)} is"):
            ceil_guarded(math.nan, label=label)
        with pytest.warns(BoundaryWarning, match=fr"^pre-ceiling value 2.0 for {re.escape(text)} is"):
            assert ceil_guarded(2.0, label=label) == 2


def test_ceil_guarded_warns_near_integer():
    with pytest.warns(BoundaryWarning):
        assert ceil_guarded(3.0000000001) == 4


def test_bound_report_fields(nf12_pair):
    data, strip = nf12_pair
    rep = bound_report(data, strip, 27.0, 100.0)
    assert rep.alpha in (0, 1)
    assert rep.S >= 0.0 and rep.V_star_T0 >= 0.0 and rep.V_star_T >= 0.0
    assert rep.R2_T0 > 0.0 and rep.R2_T > 0.0 and rep.R_total > 0.0
    assert rep.R_total == pytest.approx(RTOT_NF12_27_100, rel=1e-12)
    doc = rep.to_json_dict()
    assert set(doc) == {
        "t0", "t", "s", "r1", "v_star_t0", "v_star_t", "r2_t0", "r2_t",
        "alpha", "h1", "h2", "r_total", "c1_main", "c2_main", "c3_main",
        "c1_dbl", "c2_dbl", "c3_dbl",
    }
    fields = dict(zip(rep._fields, rep._values(rep)))
    assert BoundReport(**fields) == rep
    for name, value, message in (
        ("S", -1.0, "negative error envelope"),
        ("V_star_T0", -1e-300, "negative error envelope"),
        ("V_star_T", -1.0, "negative error envelope"),
        ("R2_T0", 0.0, "non-positive count bound"),
        ("R2_T", -1.0, "non-positive count bound"),
        ("R_total", 0.0, "non-positive count bound"),
        ("alpha", 2, "alpha must be 0 or 1, got 2"),
    ):
        with pytest.raises(ValidationError, match=message):
            BoundReport(**{**fields, name: value})


INVARIANTS = (
    "degree", "lambda_cap", "lambda_q2", "log_lambda_q2", "log_a1_zeta2", "mu_cap",
    "shift_max", "arg_max", "threshold_height", "series_blocks",
)


def test_bound_report_derives_each_invariant_once():
    # construction computes every data-only invariant; the window takes its
    # factor-level pieces from the cache and computes its six constants as
    # floats; the bounds read them and never replace them.  bound_report
    # builds no Coefficients, and check_bound builds the pair once per window
    from zerobound import bounds

    data = LFunctionData(
        factors=(GammaFactor(0.5, 0j),), Q=1.0 / math.sqrt(math.pi), omega=1 + 0j, k=1, a1=1.0
    )
    built = {name: vars(data)[name] for name in INVARIANTS if name in vars(data)}
    assert set(built) == set(INVARIANTS)
    strip = select_strip(1.0)
    window = bounds._window(data, strip, 16.0)
    pieces, constants = window.pieces, window.constants
    assert pieces is bounds._factor_pieces(data.factors, strip)
    first = bound_report(data, strip, 16.0, 100.0)
    assert bound_report(data, strip, 16.0, 100.0) == first
    assert first.R_total == pytest.approx(RTOT_ZETA_16_100, rel=1e-12)
    assert "coefficients" not in vars(window)
    zeros = ZeroList((14.134725, 21.02204))
    check_bound(data, strip, zeros, 16.0, 100.0)
    coefficients = vars(window)["coefficients"]
    check_bound(data, strip, zeros, 16.0, 200.0)
    check_bound(data, strip, zeros, 20.0, 100.0)
    assert all(vars(data)[name] is value for name, value in built.items())
    assert window.pieces is pieces and window.constants is constants
    assert vars(window)["coefficients"] is coefficients
    assert window_coefficients(data, strip, 16.0) is coefficients[0]
    assert (first.c1_main, first.c1_dbl) == (pieces.c1_main, pieces.c1_dbl)
    assert _report_fields(first)[-6:] == constants
    assert tuple(map(_coefficient_fields, coefficients)) == (constants[:3], constants[3:])


def _count_calls(monkeypatch, *functions):
    """Wrap each function wherever a zerobound module binds it; return the live call counts."""
    calls = {fn.__name__: 0 for fn in functions}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "zerobound"]
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_each_window_computes_its_t0_pieces_once(monkeypatch):
    # every public bound takes its window from one memo: a cold bound_report
    # builds the factor-level pieces once (one _factor_pieces miss: its
    # constructor sums the kernels at -b and -b - 1 in one call, and its K,
    # which the window reads, at -(a + 2R) in another), makes one _height
    # call and with it one admissibility check of T0, evaluates the branch
    # heads once, chooses the branch once and builds no value object but its
    # report; check_bound on the same (data, strip, T0) then builds the
    # Coefficients pair, and check_bound at 200 heights on another T0 builds
    # one window and one pair, on the cached factor-level pieces, or from
    # scratch once both caches are emptied; table_row builds no window and no
    # value object of the bounds, but runs the window's float core on its
    # weight's cached entry, so it counts as a cold bound_report's window; a
    # second row of that weight checks no T0 and sums no kernel: it reads the
    # entry's pieces and _height terms
    from zerobound import bounds, gammabounds, selberg

    data, strip = presets.zeta()
    zeros = ZeroList((14.134725, 21.02204, 25.010858, 30.424876))
    calls = _count_calls(
        monkeypatch, gammabounds._kernel_sums, bounds._height, gammabounds._log_interp_peak,
        bounds._heads, bounds._branch, bounds.branch_constants, selberg._admissible,
        bounds.BranchConstants, bounds.Coefficients,
    )

    def counts_of(call):
        calls.update(dict.fromkeys(calls, 0))
        misses = bounds._factor_pieces.cache_info().misses
        call()
        return (calls["_kernel_sums"], bounds._factor_pieces.cache_info().misses - misses,
                *list(calls.values())[1:])

    # (_kernel_sums, _factor_pieces misses, _height, _log_interp_peak, _heads, _branch,
    #  branch_constants, _admissible, BranchConstants, Coefficients)
    once = (2, 1, 1, 1, 1, 1, 0, 1, 0, 0)
    # a check_bound window, cold or on gamma factors and a strip seen before
    once_with_pair = (2, 1, 1, 1, 1, 1, 0, 1, 0, 2)
    known_factors_with_pair = (0, 0, 1, 1, 1, 1, 0, 1, 0, 2)
    assert counts_of(lambda: bound_report(data, strip, 16.0, 100.0)) == once, calls
    assert counts_of(lambda: check_bound(data, strip, zeros, 16.0, 100.0)) == (0,) * 9 + (2,), calls
    assert counts_of(lambda: check_bound(data, strip, zeros, 16.0, 30.0)) == (0,) * 10, calls
    heights = [21.0 + 0.5 * i for i in range(200)]

    def scan():
        return [check_bound(data, strip, zeros, 20.0, t) for t in heights]

    assert counts_of(scan) == known_factors_with_pair, calls
    bounds._window.cache_clear()
    bounds._factor_pieces.cache_clear()
    assert counts_of(scan) == once_with_pair, calls
    assert counts_of(lambda: table_row(NewformSpec(1, 12))) == once, calls
    assert counts_of(lambda: table_row(NewformSpec(11, 12))) == (0, 0, 0, 1, 1, 1, 0, 0, 0, 0), calls


def test_bundled_table_computes_the_kernel_sums_once_per_weight(monkeypatch):
    # the 25 rows have 10 distinct weights, so 10 distinct gamma factors, and
    # each evaluates the factor kernels at its three real parts once
    from importlib.resources import files

    from zerobound import gammabounds
    from zerobound.newform import read_pairs_csv, table_generate

    specs = read_pairs_csv(files("zerobound").joinpath("data/table_pairs.csv").read_text())
    calls = _count_calls(monkeypatch, gammabounds._factor_kernels)
    table_generate(specs)
    assert len(specs) == 25 and len({spec.weight for spec in specs}) == 10
    assert calls["_factor_kernels"] == 30


def test_a_warm_bundled_table_reads_each_row_from_its_weight_entry(monkeypatch):
    # once each weight's entry is cached, a row looks up no pieces, computes
    # no T0-level terms and touches no window
    from importlib.resources import files

    from zerobound import bounds
    from zerobound.newform import read_pairs_csv, table_generate

    specs = read_pairs_csv(files("zerobound").joinpath("data/table_pairs.csv").read_text())
    first = table_generate(specs)
    calls = _count_calls(monkeypatch, bounds._height)
    infos = bounds._factor_pieces.cache_info(), bounds._window.cache_info()
    assert table_generate(specs) == first
    assert calls["_height"] == 0
    assert (bounds._factor_pieces.cache_info(), bounds._window.cache_info()) == infos


def test_per_piece_bounds_and_a_report_share_one_pieces_entry(monkeypatch, zeta_pair):
    # on cold caches, the five per-piece bounds and a bound_report build the
    # factor-level pieces once: two kernel sums in the constructor, and K on
    # the first read
    from zerobound import bounds, gammabounds

    data, strip = zeta_pair
    calls = _count_calls(monkeypatch, gammabounds._factor_kernels)
    log_integral_bound(data, strip, 16.0, 100.0)
    integrated_ratio_error(data, strip, 16.0, 100.0)
    branch_constants(data, strip, 16.0)
    assert calls["_factor_kernels"] == 2
    ratio_error_sup(data, strip, 30.0)
    disc_count_bound(data, strip, 30.0)
    bound_report(data, strip, 16.0, 100.0)
    assert calls["_factor_kernels"] == 3
    assert bounds._factor_pieces.cache_info()[:2] == (5, 1)  # (hits, misses)


def test_bundled_table_computes_the_trivial_zero_window_once_per_weight(monkeypatch):
    # the window pieces cached per gamma factors and strip carry the allowance
    from importlib.resources import files

    from zerobound import bounds
    from zerobound.newform import read_pairs_csv, table_generate

    specs = read_pairs_csv(files("zerobound").joinpath("data/table_pairs.csv").read_text())
    calls = _count_calls(monkeypatch, bounds.trivial_zero_window)
    table_generate(specs)
    assert len({spec.weight for spec in specs}) == 10
    assert calls["trivial_zero_window"] == 10


def _or_zero(floats):
    """floats, or a zero of either sign."""
    return st.one_of(st.sampled_from((0.0, -0.0)), floats)


@st.composite
def admissible_windows(draw):
    """A random 1-4-factor datum, its strip, and a window (T0, T] with T0 admissible."""
    factors = draw(st.lists(
        st.builds(
            GammaFactor,
            st.floats(0.3, 3.0),
            st.builds(complex, _or_zero(st.floats(0.0, 6.0)), _or_zero(st.floats(-6.0, 6.0))),
        ),
        min_size=1, max_size=4,
    ))
    try:
        data = LFunctionData(
            factors=tuple(factors), Q=math.exp(draw(st.floats(-3.0, 5.0))), omega=1 + 0j,
            k=draw(st.integers(0, 7)), a1=math.exp(draw(st.floats(0.0, 6.0))),
        )
    except ValidationError:
        assume(False)
    strip = select_strip(data.a1)
    t0 = min_admissible_height(data, strip).value * (1.0 + draw(st.floats(0.0, 2.0)))
    return data, strip, t0, t0 * (1.0 + draw(st.floats(1e-3, 20.0)))


@settings(max_examples=150, deadline=None)
@given(admissible_windows())
def test_bound_report_equals_the_standalone_bounds(window):
    # each report field is the same shared formula, so equality is exact
    data, strip, t0, t = window
    rep = bound_report(data, strip, t0, t)
    assert rep.S == integrated_ratio_error(data, strip, t0, t)
    assert rep.R_total == total_count_error(data, strip, t0, t)
    assert rep.R1 == log_integral_bound(data, strip, t0, t)
    assert rep.R2_T0 == disc_count_bound(data, strip, t0)
    assert rep.R2_T == disc_count_bound(data, strip, t)
    bc = branch_constants(data, strip, t0)
    assert (rep.alpha, rep.h1, rep.h2) == (bc.alpha, bc.h1, bc.h2)
    main = window_coefficients(data, strip, t0)
    assert (rep.c1_main, rep.c2_main, rep.c3_main) == (main.c1, main.c2, main.c3)
    dbl = doubling_coefficients(data, strip, t0)
    assert (rep.c1_dbl, rep.c2_dbl, rep.c3_dbl) == (dbl.c1, dbl.c2, dbl.c3)


# --- the window memo ---------------------------------------------------------------------

def _bits(numbers):
    """float.hex of each number."""
    return tuple(float.hex(float(x)) for x in numbers)


#: every field of a BoundReport and of a Coefficients triple, in order
_report_fields = attrgetter(
    "T0", "T", "S", "R1", "V_star_T0", "V_star_T", "R2_T0", "R2_T", "alpha", "h1", "h2",
    "R_total", "c1_main", "c2_main", "c3_main", "c1_dbl", "c2_dbl", "c3_dbl",
)
_coefficient_fields = attrgetter("c1", "c2", "c3")


def _window_bits(window, t):
    """float.hex of every number a window holds, its factor-level pieces' too (K once read),
    by name, and of its (R1, R2(T), total) and its BoundReport fields at t."""
    held = {**vars(window), **{f"pieces.{k}": v for k, v in vars(window.pieces).items()}}
    for name in ("data", "strip", "pieces", "coefficients", "pieces.profile", "pieces.strip"):
        held.pop(name, None)
    bits = {name: _bits(v if isinstance(v, tuple) else (v,)) for name, v in held.items()}
    return bits, _bits(window.at(t)), _bits(_report_fields(window.report(t)))


@settings(max_examples=60, deadline=None)
@given(admissible_windows(), st.floats(0.0, 1.0), st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=6))
def test_memoized_check_bound_equals_a_fresh_window(window, shift, gaps):
    # two T0s, taken in turn with equal but distinct key objects, so the memo
    # both misses and hits; check_bound and the four public bounds, called in
    # an order that rotates which of them meets a key first, all match a
    # window built afresh
    from zerobound import bounds
    from zerobound.bounds import _Window

    data, strip, t0, _ = window
    zeros = ZeroList((t0 * 1.5, t0 * 3.0))
    for i, gap in enumerate(gaps * 2):
        T0 = t0 if i % 2 else t0 * (1.0 + shift)
        key_data = data if i % 3 else LFunctionData(data.factors, data.Q, data.omega, data.k, data.a1)
        key_strip = strip if i % 3 else StripParams(strip.a, strip.b, strip.R)
        T = T0 * (1.0 + gap)
        memoized = [
            lambda: attrgetter("r_total", "coeff_bound")(
                check_bound(key_data, key_strip, zeros, T0, T)
            ),
            lambda: _report_fields(bound_report(key_data, key_strip, T0, T)),
            lambda: (total_count_error(key_data, key_strip, T0, T),),
            lambda: _coefficient_fields(window_coefficients(key_data, key_strip, T0)),
            lambda: _coefficient_fields(doubling_coefficients(key_data, key_strip, T0)),
        ]
        order = [(i + j) % len(memoized) for j in range(len(memoized))]
        got = {j: _bits(memoized[j]()) for j in order}
        bounds._factor_pieces.cache_clear()  # the fresh window computes its factor-level pieces too
        fresh = _Window(data, strip, T0)
        main, dbl = fresh.coefficients
        expected = [
            (fresh.at(T)[2], main.evaluate(T)),
            _report_fields(fresh.report(T)),
            (fresh.at(T)[2],),
            _coefficient_fields(main),
            _coefficient_fields(dbl),
        ]
        assert [got[j] for j in range(len(expected))] == [_bits(e) for e in expected]


def test_check_bound_raises_alike_for_an_inadmissible_t0():
    # exceptions are not cached: the second call checks T0 again, in
    # _height; a T0 that cannot be hashed is checked by _window_of
    from zerobound import bounds

    data, strip = presets.zeta()
    zeros = ZeroList((20.0,))
    messages = []
    for _ in range(2):
        with pytest.raises(AdmissibilityError, match="gamma-shift") as err:
            check_bound(data, strip, zeros, 15.0, 100.0)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert bounds._window.cache_info().currsize == 0
    with pytest.raises(AdmissibilityError) as expected:
        require_admissible(data, strip, [30.0], label="T0")
    with pytest.raises(AdmissibilityError) as err:
        bounds._window_of(data, strip, [30.0])
    assert str(err.value) == str(expected.value)


def test_window_memo_keeps_int_and_float_t0_apart():
    from zerobound import bounds

    data, strip = presets.zeta()
    assert bounds._window(data, strip, 30.0) is bounds._window(data, strip, 30.0)
    assert bounds._window(data, strip, 30) is not bounds._window(data, strip, 30.0)


@settings(max_examples=60, deadline=None)
@given(admissible_windows())
def test_data_differing_in_the_sign_of_a_zero_share_bit_identical_windows(window):
    # such data compare and hash equal, so they share a memoized window;
    # both windows here are built cold
    from zerobound import bounds
    from zerobound.bounds import _Window

    data, strip, t0, t = window

    def zero_imaginary_parts(sign):
        zero = math.copysign(0.0, sign)
        factors = tuple(GammaFactor(f.lam, complex(f.mu.real, zero)) for f in data.factors)
        return LFunctionData(factors, data.Q, complex(1.0, zero), data.k, data.a1)

    plus, minus = zero_imaginary_parts(1.0), zero_imaginary_parts(-1.0)
    assert plus == minus and hash(plus) == hash(minus)
    plus_bits = _window_bits(_Window(plus, strip, t0), t)
    bounds._factor_pieces.cache_clear()
    assert plus_bits == _window_bits(_Window(minus, strip, t0), t)


def test_sign_twins_store_plus_zero_extremes_of_re_mu_in_either_order():
    # every Re(mu) is a zero, so both extremes are; the datum built second
    # finds its twin's factor-pass entry, and either way each stores +0.0
    from zerobound import selberg

    strip = select_strip(1.0)

    def datum(sign):
        zero = math.copysign(0.0, sign)
        factors = (GammaFactor(0.5, complex(zero, zero)), GammaFactor(1.0, complex(zero, 2.0)))
        return LFunctionData(factors, Q=0.4, omega=1, k=0, a1=1.0)

    bits = []
    for order in ((-1.0, 1.0), (1.0, -1.0)):
        selberg._factor_pass.cache_clear()
        built = [datum(sign) for sign in order]
        assert selberg._factor_pass.cache_info()[:2] == (1, 1)  # (hits, misses)
        for data in built:
            assert (data.re_mu_min.hex(), data.re_mu_max.hex()) == ("0x0.0p+0", "0x0.0p+0")
            bits.append(trivial_zero_window(data, strip).hex())
    assert len(bits) == 4 and len(set(bits)) == 1


def _flip_zero(x):
    """-x if x is a zero of either sign, else x."""
    return -x if x == 0.0 else x


@settings(max_examples=100, deadline=None)
@given(
    admissible_windows(), st.floats(-3.0, 3.0), st.floats(0.0, 2.0 * math.pi),
    st.integers(0, 7), st.floats(0.0, 6.0), st.floats(0.0, 1.0),
)
def test_warm_and_cold_window_pieces_are_bit_identical(window, log_q, angle, k, log_a1, lift):
    # a twin datum shares the gamma factors, up to the sign of each zero part
    # of mu, and draws its own Q, omega, k and a1; both windows on the same
    # strip share one entry of factor-level pieces, and each equals its
    # window built cold
    data, strip, t0, t = window
    factors = tuple(
        GammaFactor(f.lam, complex(_flip_zero(f.mu.real), _flip_zero(f.mu.imag)))
        for f in data.factors
    )
    try:
        twin = LFunctionData(
            factors, data.Q * math.exp(log_q), complex(math.cos(angle), math.sin(angle)), k,
            math.exp(log_a1),
        )
    except ValidationError:
        assume(False)
    T0 = min_admissible_height(twin, strip).value * (1.0 + lift)
    _assert_shared_pieces_are_datum_free((data, t0, t), (twin, T0, T0 * t / t0), strip)


def _assert_shared_pieces_are_datum_free(first, second, strip):
    """Two (datum, T0, T) on the same gamma factors and strip share one _factor_pieces entry,
    and each window, its fields and its BoundReport fields, equals one built cold."""
    from zerobound import bounds
    from zerobound.bounds import _Window

    bounds._factor_pieces.cache_clear()
    warm = [_Window(data, strip, T0) for data, T0, _ in (first, second)]
    assert bounds._factor_pieces.cache_info()[:2] == (1, 1)  # the second found the first's pieces
    assert warm[0].pieces is warm[1].pieces
    for window, (data, T0, T) in zip(warm, (first, second)):
        bounds._factor_pieces.cache_clear()
        cold = _Window(data, strip, T0)
        assert cold.pieces is not window.pieces
        assert _window_bits(window, T) == _window_bits(cold, T)


def test_factor_pieces_hold_no_datum_level_value():
    # one gamma factor, two conductors: Q = 1 takes the interpolation branch
    # at T0 = 55 and Q = 10 the reflection branch, so a datum-level value
    # cached with the pieces would show in one of the two windows; the branch
    # constants read the pieces without their left-edge kernel sum K
    from zerobound import bounds

    strip = select_strip(1.0)
    data = [LFunctionData((GammaFactor(0.5, 10j),), Q, 1, 0, 1.0) for Q in (1.0, 10.0)]
    assert [branch_constants(d, strip, 55.0).alpha for d in data] == [1, 0]
    assert "K" not in vars(bounds._factor_pieces(data[0].factors, strip))
    _assert_shared_pieces_are_datum_free((data[0], 55.0, 1000.0), (data[1], 55.0, 1000.0), strip)
    _assert_shared_pieces_are_datum_free((data[1], 55.0, 80.0), (data[0], 60.0, 1e6), strip)


# --- the caches --------------------------------------------------------------------------

def test_every_cache_is_bounded_and_emptied_per_test(zeta_pair):
    # the functools caches found in the zerobound module dicts are the ones the
    # autouse fixture empties; each holds a bounded number of entries, but the
    # parser cache, whose function takes no arguments
    import inspect

    from conftest import CACHES, empty_caches

    from zerobound import cli
    from zerobound.newform import pipeline_constants

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "zerobound"]
    found = {
        id(value): value
        for module in modules for value in vars(module).values()
        if callable(getattr(value, "cache_info", None))
    }
    assert sorted(found) == sorted(map(id, CACHES)), [c.__qualname__ for c in found.values()]
    data, strip = zeta_pair
    bound_report(data, strip, 20.0, 100.0)
    pipeline_constants(NewformSpec(1, 12))
    select_strip(2.0)  # the calls above reuse strips selected before the caches were emptied
    cli._build_parser()
    assert all(cache.cache_info().currsize for cache in CACHES)
    empty_caches()
    assert [cache.cache_info().currsize for cache in CACHES] == [0] * len(CACHES)
    for cache in CACHES:
        if cache is cli._build_parser:
            assert cache.cache_info().maxsize is None
            assert not inspect.signature(cache.__wrapped__).parameters
        else:
            assert cache.cache_info().maxsize is not None, cache.__qualname__


def test_factor_pieces_memo_never_exceeds_its_bound():
    # more distinct gamma factors than the cache holds: the least recently used go first
    from zerobound import bounds
    from zerobound.newform import pipeline_constants

    size = bounds._factor_pieces.cache_info().maxsize
    specs = [NewformSpec(1, 2 * i) for i in range(1, size + 41)]
    for spec in specs:
        pipeline_constants(spec)
        assert bounds._factor_pieces.cache_info().currsize <= size
    assert bounds._factor_pieces.cache_info().currsize == size
    misses = bounds._factor_pieces.cache_info().misses
    pipeline_constants(specs[-1])
    assert bounds._factor_pieces.cache_info().misses == misses
    pipeline_constants(specs[0])
    assert bounds._factor_pieces.cache_info().misses == misses + 1
    assert bounds._factor_pieces.cache_info().currsize == size


def test_factor_pieces_memo_keeps_its_bound_and_results_under_threads():
    # four threads add and evict entries at once, with a short switch interval
    import threading

    from zerobound import bounds
    from zerobound.newform import pipeline_constants

    size = bounds._factor_pieces.cache_info().maxsize
    specs = [NewformSpec(1, 2 * i) for i in range(1, size + 41)]
    expected = [pipeline_constants(spec) for spec in specs]
    bounds._window.cache_clear()
    bounds._factor_pieces.cache_clear()
    results, sizes = {}, []

    def work(offset):
        order = specs[offset:] + specs[:offset]
        got = []
        for spec in order:
            got.append(pipeline_constants(spec))
            sizes.append(bounds._factor_pieces.cache_info().currsize)
        results[offset] = got[-offset:] + got[:-offset] if offset else got

    threads = [threading.Thread(target=work, args=(70 * i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 70, 140, 210]
    assert all(got == expected for got in results.values())
    assert max(sizes) <= size
