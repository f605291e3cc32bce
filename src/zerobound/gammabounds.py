"""Stirling-remainder envelopes and the gamma-ratio error machinery.

The reflection factor of the functional equation,

    Delta(s) = omega * Q^(1-2s) * prod_j Gamma(lam_j(1-s) + conj(mu_j))
                                        / Gamma(lam_j s + mu_j),

controls |L(s)| left of the critical strip.  A one-term Stirling expansion
of each log-Gamma turns log|Delta| into an explicit main part
(reflection_log_main) plus a per-factor remainder whose modulus is bounded
here (ratio_error_bound and ratio_error_total); bounds sums the same factor
kernels into ratio_error_sup and the integrated ratio error, once per gamma
factors and strip.  The same machinery produces the piecewise upper
envelope for |L(s)| on a window around height T (magnitude_envelope).
"""

from __future__ import annotations

import cmath
import math

from .errors import AdmissibilityError, DomainError, _value_text
from .selberg import (
    LFunctionData, StripParams, _convert, _real, _require_height, require_admissible,
)

#: second Bernoulli number, the one-term Stirling remainder coefficient
B2 = 1.0 / 6.0
LOG2, LOG3, SQRT5 = math.log(2.0), math.log(3.0), math.sqrt(5.0)

_SEC_GUARD = 1e-12


def _sec_sq(x: float) -> float:
    """1 / cos(x)^2 with a guard against arguments at +-pi/2."""
    c = math.cos(x)
    if abs(c) < _SEC_GUARD:
        raise DomainError(f"secant argument {x} too close to an odd multiple of pi/2")
    return 1.0 / (c * c)


def _phase(z: complex) -> float:
    """Principal argument, rejecting a non-finite z, the branch cut and the origin."""
    if not cmath.isfinite(z):
        raise DomainError(f"argument of {z} is not finite")
    if z == 0:
        raise DomainError("argument of zero is undefined")
    ph = cmath.phase(z)
    if abs(ph) >= math.pi:
        raise DomainError(f"argument of {z} lies on the branch cut")
    return ph


def stirling_remainder_bound(z: complex) -> float:
    """Majorant B2 / (2|z|) * sec^2(arg(z)/2) for the one-term Stirling remainder.

    Valid on |arg z| < pi, z != 0, z finite.
    """
    z = _convert(complex, z, "z", DomainError)
    ph = _phase(z)
    return B2 / (2.0 * abs(z)) * _sec_sq(ph / 2.0)


def _pair_secant(data: LFunctionData, x: float) -> float:
    """2 + sec^2(arg(x + i * threshold)/2), the paired remainder kernel.

    The positive factor scaling lam_j drops out of the argument.
    """
    return 2.0 + _sec_sq(_phase(complex(x, data.threshold_height)) / 2.0)


def _factor_kernels(data: LFunctionData, x: float) -> list[float]:
    """Per factor (series block + B2/2 * (2 + sec^2(arg(x + i * threshold)/2))) / lam.

    Divided by t, this is the factor's gamma-ratio error bound with the
    secant taken at real part x: the series block covers the truncated
    logarithm series, the secant term the paired Stirling remainders.
    """
    half = B2 / 2.0 * _pair_secant(data, x)
    return [(block + half) / lam for block, lam in zip(data.series_blocks, data.lams)]


def _kernel_sums(data: LFunctionData, *xs: float) -> list[float]:
    """For each x in xs, the sum over factors of _factor_kernels(data, x)."""
    return [math.fsum(_factor_kernels(data, x)) for x in xs]


def _factor_index(data: LFunctionData, j: int) -> int:
    """j, if it indexes a gamma factor of data: an int (not a bool) with 0 <= j < data.f."""
    if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j < data.f:
        raise DomainError(f"j must be an int, 0 <= j < f = {data.f}, got {_value_text(j, repr)}")
    return j


def remainder_pair_bound(data: LFunctionData, j: int, sigma: float, t: float) -> float:
    """Bound for |W(-lam_j s)| + |W(lam_j s)| at s = sigma + i t.

    Needs a finite real sigma and t at or above data.threshold_height; the
    two remainders then sit away from the branch cut and the flat secant
    factor 2 covers the side whose half-argument stays below pi/4.
    """
    _require_height(t, "t", data.threshold_height, AdmissibilityError, "threshold", True)
    sigma = _real(sigma, "sigma", error=DomainError)
    lam = data.factors[_factor_index(data, j)].lam
    return B2 / (2.0 * lam * t) * _pair_secant(data, -abs(sigma))


def ratio_error_bound(data: LFunctionData, j: int, sigma: float, t: float) -> float:
    """Bound for the j-th factor's gamma-ratio error term at s = sigma + i t.

    Four modulus terms from the truncated logarithm series (all divided by
    lam_j t, which under-estimates |lam_j s| and so over-estimates the
    error) plus the paired Stirling-remainder bound.  Scales exactly as 1/t.
    Needs a finite real sigma and t at or above data.threshold_height.
    """
    _require_height(t, "t", data.threshold_height, AdmissibilityError, "threshold", True)
    sigma = _real(sigma, "sigma", error=DomainError)
    return _factor_kernels(data, -abs(sigma))[_factor_index(data, j)] / t


def ratio_error_total(data: LFunctionData, sigma: float, t: float) -> float:
    """Sum of ratio_error_bound over all factors, for a finite real sigma."""
    _require_height(t, "t", data.threshold_height, AdmissibilityError, "threshold", True)
    sigma = _real(sigma, "sigma", error=DomainError)
    return math.fsum(k / t for k in _factor_kernels(data, -abs(sigma)))


def reflection_log_main(data: LFunctionData, sigma: float, t: float) -> float:
    """Main part of log|Delta(sigma + i t)|, remainder excluded.

    Equals (1/2 - sigma)(d log t + log(lambda Q^2)) + d sigma
    + Re(log(1 - sigma i / t) (d (1/2 - s) + Im(mu_cap) i / 2));
    callers pair it with ratio_error_total as the remainder envelope.
    Requires a finite real sigma, finite t > 0 and both gamma arguments off
    the branch cut.
    """
    sigma = _real(sigma, "sigma", error=DomainError)
    _require_height(t, "t", 0.0)
    s = complex(sigma, t)
    for f in data.factors:
        try:
            _phase(f.lam * (1.0 - s) + f.mu.conjugate())
            _phase(f.lam * s + f.mu)
        except DomainError as exc:
            raise AdmissibilityError(f"gamma argument unusable at s = {s}: {exc}") from None
    d = data.degree
    swing = cmath.log(1.0 - complex(0.0, sigma) / t)
    weight = d * (0.5 - s) + complex(0.0, data.mu_cap.imag / 2.0)
    return (
        (0.5 - sigma) * (d * math.log(t) + data.log_lambda_q2)
        + d * sigma
        + (swing * weight).real
    )


def _interp_terms(data: LFunctionData) -> tuple[float, float, float]:
    """(2.5 d + 1) log 2, 2.5 sqrt(5) d and |Im mu_cap| of a datum."""
    d = data.degree
    return (2.5 * d + 1.0) * LOG2, 2.5 * SQRT5 * d, abs(data.mu_cap.imag)


def _log_interp_peak(terms: tuple, k: int, log_lq2: float, err: float) -> float:
    """Log of the convexity-interpolation peak, (2.5 d + 1) log 2 + k log 3 + max(0, e).

    e = 2.5 log_lq2 + 2.5 sqrt(5) d + |Im mu_cap| + err, for a datum's _interp_terms, pole
    order k and log_lq2 = log(lambda Q^2).  At err = 0 it is h1, the disc bound's interpolation
    branch.  With err the gamma-ratio error envelope along sigma = -2, a1 pi^2 / 6 times its
    exp is the middle band's peak in magnitude_envelope: 2^(2.5 d + 1) times the larger of
    the right-edge constant 3^k a1 pi^2 / 6 and the left-edge one, exp(e) times it.
    """
    lift, spread, im = terms
    return lift + k * LOG3 + max(0.0, 2.5 * log_lq2 + spread + im + err)


def magnitude_envelope(
    data: LFunctionData, strip: StripParams, sigma: float, t: float, T: float
) -> float:
    """Piecewise upper envelope for |L(sigma + i t)| near height T.

    T must be admissible and t must lie in [T - 2R, T + 2R].  Right of
    sigma = 3 the Dirichlet series gives the constant a1 pi^2 / 6; left of
    sigma = -2 the reflection factor gives a power of t times an explicit
    exponential; in between a convexity interpolation applies.  sigma must
    be a finite real.  Raises DomainError where the envelope exceeds the
    float range, as it can for a large |Im mu_cap|.
    """
    sigma = _real(sigma, "sigma", error=DomainError)
    require_admissible(data, strip, T)
    low, high = T - strip.two_r, T + strip.two_r
    try:
        inside = low <= t <= high
    except (TypeError, ArithmeticError):  # t is no number, or a Decimal NaN
        inside = False
    if not inside:
        raise DomainError(f"t = {_value_text(t, repr)} outside the window [{low}, {high}]")
    const = data.a1 * math.pi ** 2 / 6.0
    if sigma >= 3.0:
        return const
    if sigma <= -2.0:
        expo = reflection_log_main(data, sigma, t) + ratio_error_total(data, sigma, t)
        power = 0.0
    else:
        err = _kernel_sums(data, -2.0)[0] / low
        expo = _log_interp_peak(_interp_terms(data), data.k, data.log_lambda_q2, err)
        power = 0.5 * data.degree * (3.0 - sigma)
    try:
        value = const * math.exp(expo) * t ** power
    except OverflowError:  # math.exp or the power of t past the float range
        value = math.inf
    if not value < math.inf:
        raise DomainError(f"the envelope at sigma = {sigma}, t = {t} exceeds the float range")
    return value

