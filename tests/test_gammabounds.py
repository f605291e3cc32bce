"""Stirling remainders, gamma-ratio error bounds, envelope, inequality checks."""

import cmath
import math
import random

import mpmath as mp
import pytest

from zerobound import (
    AdmissibilityError,
    DomainError,
    magnitude_envelope,
    ratio_error_bound,
    ratio_error_sup,
    ratio_error_total,
    reflection_log_main,
    remainder_pair_bound,
    stirling_remainder_bound,
)

from lemma_oracles import edge_real_check, log1p_check, log_diff_check, log_linear_check, rotation_check

# frozen by scripts/derive_oracle_values.py
W1_AT_M17_13I = 0.037870744141057886
PAIR_NF12_S4_T27 = 0.014917301557270136
RATIO_NF12_S2_T27 = 7.624563733394548
SUP_NF12_T27 = 15.882856614133178
SUP_NF12_T15 = 206.47713598373132
REFLECT_ZETA_HALF_100 = 4.166604167782716e-06
REFLECT_NF12_M2_30 = 7.821777895483142
ENVELOPE_NF12_LEFT = 2096212234.1335747   # sigma=-4, t=T=30
ENVELOPE_NF12_MID = 8057153017167.376     # sigma=0,  t=T=30


def true_remainder(z):
    """One-term Stirling remainder via mpmath loggamma (test-only oracle)."""
    z = mp.mpc(z)
    return mp.loggamma(z) - (z * mp.log(z) - z + mp.mpf(1) / 2 * mp.log(2 * mp.pi / z))


def true_factor_error(lam, mu, s):
    """Exact per-factor gamma-ratio error term (remainders at the shifted
    gamma arguments; the truncated-series pieces match the bound's shape)."""
    lam, mu, s = mp.mpf(lam), mp.mpc(mu), mp.mpc(s)
    lm = lam + mp.conj(mu)
    return (
        (-lam * s + lam + mp.conj(mu) - mp.mpf(1) / 2) * mp.log(1 + lm / (-lam * s))
        - lm
        - (lam * s + mu - mp.mpf(1) / 2) * mp.log(1 + mu / (lam * s))
        + mu
        + true_remainder(lam * (1 - s) + mp.conj(mu))
        - true_remainder(lam * s + mu)
    )


# --- stirling remainder majorant ---------------------------------------------

def test_remainder_bound_on_real_axis():
    assert stirling_remainder_bound(10.0) == pytest.approx(1.0 / 120.0, rel=1e-15)


def test_remainder_bound_on_imaginary_axis():
    assert stirling_remainder_bound(10j) == pytest.approx(1.0 / 60.0, rel=1e-14)


def test_remainder_bound_frozen():
    assert stirling_remainder_bound(complex(-17, 13)) == pytest.approx(
        W1_AT_M17_13I, rel=1e-12
    )


def test_remainder_bound_domain():
    with pytest.raises(DomainError):
        stirling_remainder_bound(0)
    with pytest.raises(DomainError):
        stirling_remainder_bound(-3.0)
    # arg(z) is within 1e-13 of pi, so cos(arg(z) / 2) is below the secant guard
    too_close = "^secant argument .+ too close to an odd multiple of pi/2$"
    with pytest.raises(DomainError, match=too_close):
        stirling_remainder_bound(complex(-1e13, 1.0))
    with pytest.raises(DomainError, match="^z is too large to convert to a float, got 1000"):
        stirling_remainder_bound(10 ** 400)


def test_remainder_bound_actually_majorizes():
    for z in (5 + 0j, 3 + 4j, -2 + 9j, 40 - 7j, 0.5 + 2j):
        assert abs(true_remainder(z)) <= stirling_remainder_bound(z)


# --- paired remainder bound ------------------------------------------------------

def test_pair_bound_symmetric_point():
    # lam=1, mu=0: threshold 2, both half-arguments hit pi/4, bound (1/24)(2+2)
    from zerobound import GammaFactor, LFunctionData

    data = LFunctionData(factors=(GammaFactor(1.0, 0j),), Q=1.0, omega=1 + 0j, k=0, a1=1.0)
    assert data.threshold_height == 2.0
    assert remainder_pair_bound(data, 0, 0.0, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_pair_bound_frozen(nf12_pair):
    data, _ = nf12_pair
    assert remainder_pair_bound(data, 0, -4.0, 27.0) == pytest.approx(
        PAIR_NF12_S4_T27, rel=1e-12
    )


def test_pair_bound_scales_like_inverse_height(nf12_pair):
    data, _ = nf12_pair
    one = remainder_pair_bound(data, 0, -4.0, 27.0)
    two = remainder_pair_bound(data, 0, -4.0, 54.0)
    assert two == pytest.approx(one / 2.0, rel=1e-15)


def test_pair_bound_below_threshold(nf12_pair):
    data, _ = nf12_pair
    with pytest.raises(AdmissibilityError):
        remainder_pair_bound(data, 0, -4.0, 12.0)  # threshold is 13


@pytest.mark.parametrize("j", [1, True, "0", 0.0, -1])
def test_factor_index_must_name_a_factor(nf12_pair, j):
    # one factor: 1 and True raised a bare IndexError, "0" and 0.0 a bare
    # TypeError, and -1 read the last factor
    data, _ = nf12_pair
    message = f"^j must be an int, 0 <= j < f = 1, got {j!r}$"
    for bound in (ratio_error_bound, remainder_pair_bound):
        with pytest.raises(DomainError, match=message):
            bound(data, j, -2.0, 30.0)


def test_pair_bound_majorizes_true_remainders(nf12_pair, zeta_pair):
    for data, _ in (nf12_pair, zeta_pair):
        h = data.threshold_height
        for sigma in (-6.0, -1.0, 0.0, 2.5, 8.0):
            for t in (h, 2 * h, 10 * h + 0.7):
                for j, f in enumerate(data.factors):
                    s = complex(sigma, t)
                    true = abs(true_remainder(-f.lam * s)) + abs(true_remainder(f.lam * s))
                    assert true < remainder_pair_bound(data, j, sigma, t)


# --- per-factor ratio error ---------------------------------------------------------

def test_ratio_bound_symmetric_point():
    from zerobound import GammaFactor, LFunctionData

    data = LFunctionData(factors=(GammaFactor(1.0, 0j),), Q=1.0, omega=1 + 0j, k=0, a1=1.0)
    # four series terms give 1/2 + 1/2, remainder pair gives 1/6
    assert ratio_error_bound(data, 0, 0.0, 2.0) == pytest.approx(7.0 / 6.0, rel=1e-14)


def test_ratio_bound_frozen(nf12_pair):
    data, _ = nf12_pair
    assert ratio_error_bound(data, 0, -2.0, 27.0) == pytest.approx(
        RATIO_NF12_S2_T27, rel=1e-12
    )


def test_ratio_bound_exact_inverse_height_scaling(nf12_pair):
    data, _ = nf12_pair
    assert ratio_error_bound(data, 0, -2.0, 54.0) == pytest.approx(
        ratio_error_bound(data, 0, -2.0, 27.0) / 2.0, rel=1e-15
    )


def test_ratio_bound_majorizes_true_factor_error(zeta_pair, nf12_pair):
    mp.mp.dps = 30
    rng = random.Random(7)
    for data, _ in (zeta_pair, nf12_pair):
        h = data.threshold_height
        for _ in range(120):
            sigma = rng.uniform(-25.0, 25.0)
            t = math.exp(rng.uniform(math.log(h), math.log(3e3)))
            s = complex(sigma, t)
            for j, f in enumerate(data.factors):
                true = abs(true_factor_error(f.lam, f.mu, s))
                assert true < ratio_error_bound(data, j, sigma, t)


def test_reflection_decomposition_identity(zeta_pair, nf12_pair):
    # exact log|Delta| equals the main part plus Re(sum of true factor errors)
    mp.mp.dps = 40
    for data, _ in (zeta_pair, nf12_pair):
        for sigma, t in ((-4.0, 9.0), (0.5, 40.0), (7.25, 123.0), (-15.0, 14.0)):
            s = mp.mpc(sigma, t)
            exact = (1 - 2 * mp.mpf(sigma)) * mp.log(mp.mpf(data.Q))
            v_sum = mp.mpc(0)
            for f in data.factors:
                mu = mp.mpc(f.mu)
                exact += mp.re(
                    mp.loggamma(f.lam * (1 - s) + mp.conj(mu))
                    - mp.loggamma(f.lam * s + mu)
                )
                v_sum += true_factor_error(f.lam, f.mu, s)
            main = reflection_log_main(data, sigma, t)
            assert abs(float(exact) - main - float(mp.re(v_sum))) < 1e-10


# --- rectangle supremum -----------------------------------------------------------------

def test_ratio_sup_frozen(nf12_pair):
    data, strip = nf12_pair
    assert ratio_error_sup(data, strip, 27.0) == pytest.approx(SUP_NF12_T27, rel=1e-12)
    assert ratio_error_sup(data, strip, 15.0) == pytest.approx(SUP_NF12_T15, rel=1e-12)


def test_ratio_sup_prefactor_only_depends_on_height(nf12_pair):
    data, strip = nf12_pair
    two_r = 2 * strip.R
    products = {
        T: ratio_error_sup(data, strip, T) * (T - two_r) for T in (15.0, 27.0, 90.0, 500.0)
    }
    values = list(products.values())
    assert all(v == pytest.approx(values[0], rel=1e-14) for v in values)


def test_ratio_sup_nonnegative_and_domain(nf12_pair):
    data, strip = nf12_pair
    assert ratio_error_sup(data, strip, 14.5) > 0.0
    with pytest.raises(DomainError):
        ratio_error_sup(data, strip, 14.0)


def test_ratio_sup_dominates_interior_samples(nf12_pair):
    # sup envelope must exceed the pointwise total on the covered rectangle
    data, strip = nf12_pair
    T = 40.0
    sup = ratio_error_sup(data, strip, T)
    for sigma in (-17.0, -2.0, 0.0, 3.0, 17.0):
        for t in (T - 2 * strip.R, T, T + 2 * strip.R):
            assert ratio_error_total(data, sigma, t) <= sup + 1e-12


# --- reflection-factor log modulus --------------------------------------------------------

def test_reflection_log_frozen(zeta_pair, nf12_pair):
    data, _ = zeta_pair
    assert reflection_log_main(data, 0.5, 100.0) == pytest.approx(
        REFLECT_ZETA_HALF_100, rel=1e-9
    )
    data, _ = nf12_pair
    assert reflection_log_main(data, -2.0, 30.0) == pytest.approx(
        REFLECT_NF12_M2_30, rel=1e-12
    )


def test_reflection_log_central_line_limit(zeta_pair):
    # |Delta| = 1 on the central line, so the main part must tend to 0 there
    # (the d sigma term cancels against the log-swing product as t grows)
    data, _ = zeta_pair
    assert reflection_log_main(data, 0.5, 1e8) == pytest.approx(0.0, abs=1e-7)
    assert abs(reflection_log_main(data, 0.5, 100.0)) < ratio_error_total(data, 0.5, 100.0)


def test_reflection_log_matches_loggamma_oracle(zeta_pair, nf12_pair):
    # |log|Delta|(exact) - main| <= total ratio-error bound, spot-checked here;
    # the acceptance suite randomizes this over 10^3 points per preset
    mp.mp.dps = 30
    for data, _ in (zeta_pair, nf12_pair):
        h = data.threshold_height
        for sigma in (-4.0, 0.5, 2.0):
            for t in (h + 1.0, 3 * h + 0.3, 150.0):
                s = mp.mpc(sigma, t)
                exact = (1 - 2 * mp.mpf(sigma)) * mp.log(mp.mpf(data.Q))
                for f in data.factors:
                    exact += mp.re(
                        mp.loggamma(f.lam * (1 - s) + mp.conj(mp.mpc(f.mu)))
                        - mp.loggamma(f.lam * s + mp.mpc(f.mu))
                    )
                main = reflection_log_main(data, sigma, t)
                assert abs(float(exact) - main) <= ratio_error_total(data, sigma, t)


def test_reflection_log_domain(zeta_pair):
    data, _ = zeta_pair
    with pytest.raises(DomainError):
        reflection_log_main(data, 0.5, 0.0)
    # lam t past the float range makes the gamma arguments non-finite: no bound is given there
    from zerobound import GammaFactor, LFunctionData

    data = LFunctionData(factors=(GammaFactor(3.0, 1 + 0j),), Q=1.0, omega=1 + 0j, k=0, a1=1.0)
    with pytest.raises(AdmissibilityError, match=r"unusable at s = .*: argument of .* is not finite"):
        reflection_log_main(data, -2.0, 1e308)


def test_reflection_log_branch_cut_is_admissibility_error():
    # mu = 1 - 5i puts lam*s + mu on the negative real axis at (sigma, t) = (-3, 5)
    from zerobound import GammaFactor, LFunctionData

    data = LFunctionData(
        factors=(GammaFactor(1.0, complex(1.0, -5.0)),), Q=1.0, omega=1 + 0j, k=0, a1=1.0
    )
    with pytest.raises(AdmissibilityError):
        reflection_log_main(data, -3.0, 5.0)


# --- magnitude envelope --------------------------------------------------------------------

def test_envelope_constant_right_of_three(nf12_pair):
    data, strip = nf12_pair
    const = data.a1 * math.pi ** 2 / 6.0
    for sigma in (3.0, 4.0, 11.0):
        for t in (27.0, 30.0, 40.0):
            assert magnitude_envelope(data, strip, sigma, t, 30.0) == const


def test_envelope_frozen_values(nf12_pair):
    data, strip = nf12_pair
    assert magnitude_envelope(data, strip, -4.0, 30.0, 30.0) == pytest.approx(
        ENVELOPE_NF12_LEFT, rel=1e-12
    )
    assert magnitude_envelope(data, strip, 0.0, 30.0, 30.0) == pytest.approx(
        ENVELOPE_NF12_MID, rel=1e-12
    )


def test_envelope_band_consistency_at_three(nf12_pair):
    # the interpolation band stays above the series constant as sigma -> 3
    data, strip = nf12_pair
    mid = magnitude_envelope(data, strip, 3.0 - 1e-12, 30.0, 30.0)
    assert mid >= data.a1 * math.pi ** 2 / 6.0


def test_envelope_past_the_float_range_is_domain_error():
    # |Im mu_cap| = 4000 enters the exponent of both the middle and the left band
    from zerobound import GammaFactor, LFunctionData, min_admissible_height, select_strip

    data = LFunctionData((GammaFactor(1.0, 0.5 + 1000j),), Q=1, omega=1, k=0, a1=1)
    strip = select_strip(data.a1)
    T = min_admissible_height(data, strip).value
    for sigma in (0.0, -3.0):
        with pytest.raises(DomainError, match=f"sigma = {sigma}, t = {T} exceeds the float range"):
            magnitude_envelope(data, strip, sigma, T, T)
    for sigma in (3.0, 4.0):
        assert magnitude_envelope(data, strip, sigma, T, T) == data.a1 * math.pi ** 2 / 6.0


def test_envelope_window_domain(nf12_pair):
    data, strip = nf12_pair
    with pytest.raises(DomainError):
        magnitude_envelope(data, strip, 0.0, 45.0, 30.0)  # t above T + 2R = 44
    with pytest.raises(DomainError, match=r"^t = an integer of 16610 bits outside the window"):
        magnitude_envelope(data, strip, 0.0, 10 ** 5000, 30.0)  # too long for str()
    with pytest.raises(AdmissibilityError):
        magnitude_envelope(data, strip, 0.0, 20.0, 20.0)  # T below 27


# --- inequality checks ------------------------------------------------------------------------

def test_log1p_check_example():
    chk = log1p_check(0.25)
    assert chk.lhs == pytest.approx(abs(cmath.log(1.25)), rel=1e-15)
    assert chk.rhs == 0.5
    assert chk.holds


def test_log1p_check_domain():
    with pytest.raises(DomainError):
        log1p_check(0.5)


def test_log_linear_check_example():
    chk = log_linear_check(1.0)
    # |log(1 - i)| = |(log 2)/2 - i pi/4|
    assert chk.lhs == pytest.approx(abs(complex(math.log(2.0) / 2.0, -math.pi / 4.0)), rel=1e-15)
    assert chk.rhs == 7.0
    assert chk.holds


def test_log_linear_check_domain():
    with pytest.raises(DomainError):
        log_linear_check(0.0)


def test_log_diff_check_example(zeta_pair):
    data, _ = zeta_pair
    assert log_diff_check(data, -5.0, 10.0).holds
    with pytest.raises(DomainError):
        log_diff_check(data, -3.0, 10.0)


def test_rotation_check_example(zeta_pair):
    data, _ = zeta_pair
    assert rotation_check(data, -4.0, 50.0).holds
    with pytest.raises(DomainError):
        rotation_check(data, 0.5, 50.0)


def test_edge_real_check_example(nf12_pair):
    data, _ = nf12_pair
    assert edge_real_check(data, 1.0).holds
    assert edge_real_check(data, 123.4).holds
    with pytest.raises(DomainError):
        edge_real_check(data, 0.5)
