"""The lemma layer: the paper's gamma-ratio and envelope lemmas, stated pointwise.

The reflection factor of the functional equation,

    Delta(s) = omega * Q^(1-2s) * prod_j Gamma(lam_j(1-s) + conj(mu_j))
                                        / Gamma(lam_j s + mu_j),

controls |L(s)| left of the critical strip.  A one-term Stirling expansion
of each log-Gamma turns log|Delta| into an explicit main part
(reflection_log_main) plus a per-factor remainder bounded here
(ratio_error_bound, ratio_error_total), as is the envelope of |L(s)| near
height T (magnitude_envelope); ratio_error_sup, integrated_ratio_error and
argument_integral_bound state window pieces alone.  All read the kernel in
bounds.  No command loads this module: zerobound imports it on first use.
"""

from __future__ import annotations

import cmath
import math

from .bounds import (
    B2, _factor_kernels, _factor_pieces, _finite, _interp_terms, _kernel_sums,
    _log_interp_peak, _pair_secant, _phase, _ratio_integral, _sec_sq, disc_count_bound,
)
from .errors import AdmissibilityError, DomainError, _value_text
from .selberg import (
    LFunctionData, StripParams, _convert, _real, _require_height, require_admissible,
)


def stirling_remainder_bound(z: complex) -> float:
    """Majorant B2 / (2|z|) * sec^2(arg(z)/2) for the one-term Stirling remainder.

    Valid on |arg z| < pi, z != 0, z finite.
    """
    z = _convert(complex, z, "z", DomainError)
    ph = _phase(z)
    return B2 / (2.0 * abs(z)) * _sec_sq(ph / 2.0)


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


def ratio_error_sup(data: LFunctionData, strip: StripParams, T: float) -> float:
    """Supremum envelope of the total gamma-ratio error on the counting rectangle.

    Covers sigma in [a - 2R, a + 2R] and t in [T - 2R, T + 2R]; only the
    prefactor 1/(T - 2R) depends on T.  Requires finite T > 2R.
    """
    _require_height(T, "T", strip.two_r, DomainError, "2R")
    return _factor_pieces(data, strip).sup(T)


def integrated_ratio_error(data: LFunctionData, strip: StripParams, T0: float, T: float) -> float:
    """Integral of the paired gamma-ratio errors over ordinates [T0, T].

    Proportional to log(T/T0); requires finite T >= T0 > 0.
    """
    _require_height(T0, "T0", 0.0)
    _require_height(T, "T", T0, DomainError, "T0", True)
    return _finite(_ratio_integral(_factor_pieces(data, strip), T0, T), "integrated ratio error")


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
    return ((0.5 - sigma) * (d * math.log(t) + data.log_lambda_q2) + d * sigma
            + (swing * weight).real)


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


def argument_integral_bound(data: LFunctionData, strip: StripParams, T: float) -> float:
    """pi R (disc_count_bound(T) + 2), bounding the horizontal argument integral.

    Valid for the full strip (b, a) and, a fortiori, for (b + 1, a).
    """
    return math.pi * strip.R * (disc_count_bound(data, strip, T) + 2.0)


