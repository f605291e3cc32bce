"""Explicit constant assembly: integrals, disc bound, branch logic, coefficients."""

import math
import sys
from operator import attrgetter

import pytest
from hypothesis import assume, given, settings, strategies as st

from zerobound import (
    AdmissibilityError,
    BoundaryWarning,
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
    main_term,
    min_admissible_height,
    presets,
    ratio_error_bound,
    ratio_error_sup,
    reflection_log_main,
    remainder_pair_bound,
    select_strip,
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
])
@pytest.mark.parametrize("height", [math.inf, math.nan])
def test_non_finite_height_is_rejected(nf12_pair, call, height):
    with pytest.raises(ZeroboundError):
        call(*nf12_pair, height)


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
    with pytest.raises(ValidationError):
        shifted_constant(5.0, -1, 0)


def test_ceil_guarded_plain():
    assert ceil_guarded(2.5) == 3
    assert ceil_guarded(-91.4) == -91


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


INVARIANTS = (
    "degree", "lambda_cap", "lambda_q2", "mu_cap",
    "shift_max", "arg_max", "threshold_height", "series_blocks",
)


def test_bound_report_derives_each_invariant_once():
    # construction computes every data-only invariant, and the window both
    # coefficient triples; the bounds read them and never replace them
    from zerobound import bounds

    data = LFunctionData(
        factors=(GammaFactor(0.5, 0j),), Q=1.0 / math.sqrt(math.pi), omega=1 + 0j, k=1, a1=1.0
    )
    built = {name: vars(data)[name] for name in INVARIANTS if name in vars(data)}
    assert set(built) == set(INVARIANTS)
    strip = select_strip(1.0)
    window = bounds._window(data, strip, 16.0)
    coefficients = vars(window)["coefficients"]
    first = bound_report(data, strip, 16.0, 100.0)
    assert bound_report(data, strip, 16.0, 100.0) == first
    assert first.R_total == pytest.approx(RTOT_ZETA_16_100, rel=1e-12)
    check_bound(data, strip, ZeroList((14.134725, 21.02204)), 16.0, 100.0)
    check_bound(data, strip, ZeroList((14.134725, 21.02204)), 20.0, 100.0)
    assert all(vars(data)[name] is value for name, value in built.items())
    assert vars(window)["coefficients"] is coefficients
    assert (first.c1_main, first.c1_dbl) == (coefficients[0].c1, coefficients[1].c1)


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
    # makes one admissibility check of T0, one branch choice, and kernel sums
    # only for the left edge and the ratio-error slope; check_bound on the
    # same (data, strip, T0) then builds nothing, and check_bound at 200
    # heights on another T0 builds one window
    from zerobound import bounds, gammabounds, selberg

    data, strip = presets.zeta()
    zeros = ZeroList((14.134725, 21.02204, 25.010858, 30.424876))
    calls = _count_calls(
        monkeypatch, gammabounds._kernel_sum, bounds.branch_constants, selberg.require_admissible
    )

    def counts_of(call):
        calls.update(dict.fromkeys(calls, 0))
        call()
        return calls["_kernel_sum"], calls["branch_constants"], calls["require_admissible"]

    kernel_sums, branches, checks = counts_of(lambda: bound_report(data, strip, 16.0, 100.0))
    assert kernel_sums <= 3 and (branches, checks) == (1, 1), calls
    assert counts_of(lambda: check_bound(data, strip, zeros, 16.0, 100.0)) == (0, 0, 0), calls
    heights = [21.0 + 0.5 * i for i in range(200)]
    kernel_sums, branches, checks = counts_of(
        lambda: [check_bound(data, strip, zeros, 20.0, t) for t in heights]
    )
    assert kernel_sums <= 3 and (branches, checks) == (1, 1), calls
    assert counts_of(lambda: table_row(NewformSpec(1, 12)))[2] == 1


@st.composite
def admissible_windows(draw):
    """A random 1-4-factor datum, its strip, and a window (T0, T] with T0 admissible."""
    factors = draw(st.lists(
        st.builds(
            GammaFactor,
            st.floats(0.3, 3.0),
            st.builds(complex, st.floats(0.0, 6.0), st.floats(-6.0, 6.0)),
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
    """float.hex of every number a window holds and of its (R1, R2(T), total) at t."""
    bc, (main, dbl) = window.bc, window.coefficients
    return _bits((
        window.T0, window.K, window.ratio_slope, window.slope, bc.alpha, bc.h1, bc.h2,
        window.r2_t0, window.head, window.trivial,
        main.c1, main.c2, main.c3, dbl.c1, dbl.c2, dbl.c3, *window.at(t),
    ))


@settings(max_examples=60, deadline=None)
@given(admissible_windows(), st.floats(0.0, 1.0), st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=6))
def test_memoized_check_bound_equals_a_fresh_window(window, shift, gaps):
    # two T0s, taken in turn with equal but distinct key objects, so the memo
    # both misses and hits; check_bound and the four public bounds, called in
    # an order that rotates which of them meets a key first, all match a
    # window built afresh
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
    # exceptions are not cached: the second call checks T0 again
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


def test_window_memo_keeps_int_and_float_t0_apart():
    from zerobound import bounds

    data, strip = presets.zeta()
    assert bounds._window(data, strip, 30.0) is bounds._window(data, strip, 30.0)
    assert bounds._window(data, strip, 30) is not bounds._window(data, strip, 30.0)


@settings(max_examples=60, deadline=None)
@given(admissible_windows())
def test_data_differing_in_the_sign_of_a_zero_share_bit_identical_windows(window):
    # such data compare and hash equal, so they share a memoized window
    from zerobound.bounds import _Window

    data, strip, t0, t = window

    def zero_imaginary_parts(sign):
        zero = math.copysign(0.0, sign)
        factors = tuple(GammaFactor(f.lam, complex(f.mu.real, zero)) for f in data.factors)
        return LFunctionData(factors, data.Q, complex(1.0, zero), data.k, data.a1)

    plus, minus = zero_imaginary_parts(1.0), zero_imaginary_parts(-1.0)
    assert plus == minus and hash(plus) == hash(minus)
    assert _window_bits(_Window(plus, strip, t0), t) == _window_bits(_Window(minus, strip, t0), t)
