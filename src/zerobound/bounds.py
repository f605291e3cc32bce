"""Assembly of the explicit zero-counting error constants.

The count of non-trivial zeros with ordinate in (T0, T] deviates from the
smooth main term by less than an explicit total, built from four pieces:

* log_integral_bound    - the horizontal log-integral difference across the
                          strip (a log(T/T0) slope plus an O(1/T0) tail),
* vertical_integral_bound - the fixed pi^2/(3 log 2) bound for the two
                          vertical log-integrals right of the series edge,
* disc_count_bound      - per-height bound for the zero count of the
                          auxiliary disc function, driving the argument
                          integral bound pi R (disc_count_bound + 2),
* trivial_zero_window   - allowance for trivial zeros straying into the
                          counted rectangle.

total_count_error stitches these into the (T0, T]-window bound, and
window_coefficients / doubling_coefficients flatten that bound into the
c1 log T + c2 + c3 / T coefficient form (for the (T0, T] and (T, 2T]
windows respectively).  All three and bound_report take their window of
(datum, strip, T0), which computes the T0-only pieces once, from one memo.
Everything is a pure function of the datum, the strip, and the heights.
"""

from __future__ import annotations

import functools
import math
import warnings

from .errors import BoundaryWarning, DomainError, ValidationError
from .gammabounds import _interp_exponent, _kernel_sum, ratio_error_sup
from .selberg import LFunctionData, StripParams, _Value, require_admissible

LOG2 = math.log(2.0)
TWO_PI = 2.0 * math.pi

#: pre-ceiling values closer than this to an integer trigger BoundaryWarning
CEIL_GUARD = 1e-6


def _ratio_error_slope(data: LFunctionData, strip: StripParams) -> float:
    """Coefficient of log(T/T0) in the integrated gamma-ratio error.

    The factor kernels summed at real parts -b and -b - 1.
    """
    return _kernel_sum(data, -strip.b) + _kernel_sum(data, -strip.b - 1.0)


def integrated_ratio_error(data: LFunctionData, strip: StripParams, T0: float, T: float) -> float:
    """Integral of the paired gamma-ratio errors over ordinates [T0, T].

    Proportional to log(T/T0); requires finite T >= T0 > 0.
    """
    if not 0.0 < T0 < math.inf:
        raise DomainError(f"needs finite T0 > 0, got {T0}")
    if not T0 <= T < math.inf:
        raise DomainError(f"needs finite T >= T0, got T = {T}, T0 = {T0}")
    return math.log(T / T0) * _ratio_error_slope(data, strip)


def _log_slope(data: LFunctionData, strip: StripParams, ratio_slope: float) -> float:
    """Coefficient of log(T/T0) in the log-integral bound.

    The log-term slope -(7/2) d (2b+1) + 2|-d b + Im(mu_cap) i / 2| + 2d
    plus the integrated ratio error's slope, ratio_slope.
    """
    d, im = data.degree, data.mu_cap.imag
    b = strip.b
    return (
        -3.5 * d * (2.0 * b + 1.0) + 2.0 * abs(complex(-d * b, im / 2.0)) + 2.0 * d
        + ratio_slope
    )


def log_integral_bound(data: LFunctionData, strip: StripParams, T0: float, T: float) -> float:
    """Horizontal log-integral bound for the window [T0, T].

    log(T/T0) * (log-term slope) + 3 d (b^2 + b) / T0 + integrated ratio
    error.  Deliberately evaluated as a pure expression: the coefficient
    assembly feeds it T = 1 < T0, where the log factor goes negative.
    """
    if not 0.0 < T0 < math.inf:
        raise DomainError(f"needs finite T0 > 0, got {T0}")
    if not 0.0 < T < math.inf:
        raise DomainError(f"needs finite T > 0, got {T}")
    slope = _log_slope(data, strip, _ratio_error_slope(data, strip))
    return _log_integral(data, strip, slope, T0, T)


def _log_integral(
    data: LFunctionData, strip: StripParams, slope: float, T0: float, T: float
) -> float:
    """log_integral_bound, given its log(T/T0) coefficient slope."""
    return math.log(T / T0) * slope + 3.0 * data.degree * (strip.b * strip.b + strip.b) / T0


def vertical_integral_bound() -> float:
    """pi^2 / (3 log 2), the uniform bound for each vertical log-integral."""
    return math.pi ** 2 / (3.0 * LOG2)


def _log_a1_zeta2(data: LFunctionData) -> float:
    """log(a1 pi^2/6), the coefficient-tail term of every disc bound."""
    return math.log(data.a1 * math.pi ** 2 / 6.0)


def _reflection_head(data: LFunctionData, c: float) -> float:
    """max(2.5 log(lambda Q^2), c log(lambda Q^2)), the head of the reflection branch."""
    log_lq2 = math.log(data.lambda_q2)
    return max(2.5 * log_lq2, c * log_lq2)


def _h1_interp(data: LFunctionData) -> float:
    """The interpolation branch's constant, which no height enters.

    (2.5 d + 1) log 2 + k log 3 + max(0, 2.5 log(lambda Q^2) + 2.5 sqrt(5) d + |Im mu_cap|).
    """
    return (2.5 * data.degree + 1.0) * LOG2 + data.k * math.log(3.0) + _interp_exponent(data, 0.0)


def disc_count_bound(data: LFunctionData, strip: StripParams, T: float) -> float:
    """Bound for the zero count of the auxiliary disc function at height T.

    (1/log 2) * (d (1/2 - a + 2R) log(2T) + log(a1 pi^2/6) + ratio-error sup
    + max of the reflection branch and the interpolation branch).  T must be
    admissible.
    """
    require_admissible(data, strip, T)
    return _disc_bound(data, strip, ratio_error_sup(data, strip, T), T)


def _disc_bound(data: LFunctionData, strip: StripParams, sup: float, T: float) -> float:
    """disc_count_bound at an admissible T, given the ratio-error sup there."""
    d, im = data.degree, data.mu_cap.imag
    a, r = strip.a, strip.R
    two_r = 2.0 * r
    c = 0.5 - a + two_r
    edge = abs(complex(1.0, -(a + two_r) / (T - two_r)))
    reflect = (
        _reflection_head(data, c)
        - 2.0 * d
        + edge * d * c
        + d * (a + two_r)
        + (a + two_r) / (T - two_r) * abs(im / 2.0)
    )
    return (
        d * c * math.log(2.0 * T)
        + _log_a1_zeta2(data)
        + sup
        + max(reflect, _h1_interp(data))
    ) / LOG2


def argument_integral_bound(data: LFunctionData, strip: StripParams, T: float) -> float:
    """pi R (disc_count_bound(T) + 2), bounding the horizontal argument integral.

    Valid for the full strip (b, a) and, a fortiori, for (b + 1, a).
    """
    return math.pi * strip.R * (disc_count_bound(data, strip, T) + 2.0)


def trivial_zero_window(data: LFunctionData, strip: StripParams) -> float:
    """Allowance for trivial zeros and strays with real part in (b, b+1].

    f * (|(b+1) max lam + min Re mu| - b max lam + (b+1) min lam
         - min Re mu + max Re mu).
    """
    b = strip.b
    lmax = max(f.lam for f in data.factors)
    lmin = min(f.lam for f in data.factors)
    rmin = min(f.mu.real for f in data.factors)
    rmax = max(f.mu.real for f in data.factors)
    return data.f * (
        abs((b + 1.0) * lmax + rmin) - b * lmax + (b + 1.0) * lmin - rmin + rmax
    )


class BranchConstants(_Value):
    """Branch selector and the two constants it gates.

    alpha = 0 keeps the reflection branch (h2 then carries the 1/(T - 2R)
    payload); alpha = 1 keeps the interpolation branch and forces h2 = 0.
    Either way h1 + h2/(T - 2R) dominates both branches for every T >= T0.
    """

    __match_args__ = _fields = ("alpha", "h1", "h2")

    def __init__(self, alpha: int, h1: float, h2: float) -> None:
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)


def branch_constants(data: LFunctionData, strip: StripParams, T0: float) -> BranchConstants:
    """Pick the branch whose bound h1 + h2/(T0 - 2R) is larger at T0.

    Ties resolve to the interpolation branch (alpha = 1).  The reflection
    branch's h1 is max(h1_reflect, h1_interp): its h2 payload decays with
    T, so the interpolation constant can overtake it above T0.
    """
    two_r = 2.0 * strip.R
    if not two_r < T0 < math.inf:
        raise DomainError(f"needs finite T0 > 2R = {two_r}, got {T0}")
    d = data.degree
    a, r = strip.a, strip.R
    c = 0.5 - a + two_r
    h1_reflect = _reflection_head(data, c) + d * (-1.5 + 4.0 * r)
    h2_reflect = d * c * (a + two_r) + (a + two_r) * abs(data.mu_cap.imag / 2.0)
    h1_interp = _h1_interp(data)
    if h1_reflect + h2_reflect / (T0 - two_r) > h1_interp:
        return BranchConstants(alpha=0, h1=max(h1_reflect, h1_interp), h2=h2_reflect)
    return BranchConstants(alpha=1, h1=h1_interp, h2=0.0)


class _Window(_Value):
    """The (T0, T]-window bound of one (data, strip, T0).

    Construction checks that T0 is admissible, so every finite T > T0 is too,
    and computes every T0-only piece once.  K is ratio_error_sup's numerator,
    ratio_slope the log(T/T0) coefficient of the integrated ratio error S,
    slope that of R1, head the two main-term pieces at T0, trivial the
    trivial-zero allowance and coefficients the window_coefficients and
    doubling_coefficients triples.  Build windows through _window only.
    """

    __match_args__ = ("data", "strip", "T0")
    _fields = (*__match_args__, "K", "ratio_slope", "slope", "bc", "r2_t0", "head", "trivial",
               "coefficients")

    def __init__(self, data: LFunctionData, strip: StripParams, T0: float) -> None:
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "strip", strip)
        object.__setattr__(self, "T0", T0)
        require_admissible(data, strip, T0, label="T0")
        object.__setattr__(self, "K", _kernel_sum(data, -(strip.a + 2.0 * strip.R)))
        object.__setattr__(self, "ratio_slope", _ratio_error_slope(data, strip))
        object.__setattr__(self, "slope", _log_slope(data, strip, self.ratio_slope))
        object.__setattr__(self, "bc", branch_constants(data, strip, T0))
        object.__setattr__(self, "r2_t0", _disc_bound(data, strip, self.sup(T0), T0))
        head = data.degree / TWO_PI * T0 * math.log(T0 / math.e) + T0 / TWO_PI * abs(
            math.log(data.lambda_q2)
        )
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "trivial", trivial_zero_window(data, strip))
        object.__setattr__(self, "coefficients", self._coefficients())

    def sup(self, T: float) -> float:
        """ratio_error_sup(T) for T > 2R."""
        return self.K / (T - 2.0 * self.strip.R)

    def at(self, T: float) -> tuple[float, float, float]:
        """(R1, R2(T), window total) at a finite T > T0."""
        if not self.T0 < T < math.inf:
            raise DomainError(f"needs finite T > T0, got T = {T}, T0 = {self.T0}")
        r1 = _log_integral(self.data, self.strip, self.slope, self.T0, T)
        r2_t = _disc_bound(self.data, self.strip, self.sup(T), T)
        return r1, r2_t, self._total(r1, r2_t)

    def _total(self, r1: float, r2_t: float) -> float:
        """The window total, given its log-integral bound r1 and its disc bound r2_t at T."""
        return (
            self.head
            + r1 / TWO_PI
            + vertical_integral_bound() / math.pi
            + (self.strip.R - 0.5) * (self.r2_t0 + r2_t + 4.0)
            + self.trivial
        )

    def _coefficients(self) -> tuple[Coefficients, Coefficients]:
        """The window_coefficients and doubling_coefficients triples."""
        d, T0, bc = self.data.degree, self.T0, self.bc
        a, b, r = self.strip.a, self.strip.b, self.strip.R
        two_r = 2.0 * r
        c = 0.5 - a + two_r
        r1 = _log_integral(self.data, self.strip, self.slope, T0, 1.0) + 3.0 * d * (b * b + b) / T0
        r2_t = d * c + (_log_a1_zeta2(self.data) + bc.h1) / LOG2
        main = Coefficients(
            c1=self.slope / TWO_PI + (r - 0.5) * d * c / LOG2,
            c2=self._total(r1, r2_t),
            c3=(r - 0.5) / LOG2 * T0 / (T0 - two_r) * (self.K + bc.h2),
        )
        dbl_c2 = (
            LOG2 * self.slope / TWO_PI
            + 2.0 * vertical_integral_bound() / math.pi
            + 4.0 * r - 2.0
            + 3.0 * d * (2.0 * r - 1.0) * c
            + (2.0 * r - 1.0) / LOG2 * (_log_a1_zeta2(self.data) + bc.h1)
        )
        dbl_c3 = (
            3.0 * d * (b * b + b) / (4.0 * math.pi)
            + (r - 0.5) / LOG2
            * T0 * (3.0 * T0 - 4.0 * r) / (2.0 * (T0 - two_r) * (T0 - r))
            * (self.sup(T0) + bc.h2)
        )
        return main, Coefficients(c1=d / LOG2 * (2.0 * r - 1.0) * c, c2=dbl_c2, c3=dbl_c3)

    def report(self, T: float) -> BoundReport:
        """The bound_report at height T."""
        r1, r2_t, total = self.at(T)
        (main, dbl), bc = self.coefficients, self.bc
        return BoundReport(
            T0=self.T0,
            T=T,
            S=math.log(T / self.T0) * self.ratio_slope,
            R1=r1,
            V_star_T0=self.sup(self.T0),
            V_star_T=self.sup(T),
            R2_T0=self.r2_t0,
            R2_T=r2_t,
            alpha=bc.alpha,
            h1=bc.h1,
            h2=bc.h2,
            R_total=total,
            c1_main=main.c1,
            c2_main=main.c2,
            c3_main=main.c3,
            c1_dbl=dbl.c1,
            c2_dbl=dbl.c2,
            c3_dbl=dbl.c3,
        )


#: The one way to a window: each public bound below takes its window from
#: this memo of the 16 latest (data, strip, T0) keys, so calls on one T0
#: share one.  The keys are frozen and a window reads only fields that ==
#: compares, so an equal key gives a bit-identical window.  typed keeps
#: T0 = 30 and 30.0 apart.  A raising constructor caches nothing.
_window = functools.lru_cache(maxsize=16, typed=True)(_Window)


def total_count_error(data: LFunctionData, strip: StripParams, T0: float, T: float) -> float:
    """Explicit bound for |count on (T0, T] - main term at T|.

    T0 must be admissible and T > T0 finite.
    """
    return _window(data, strip, T0).at(T)[2]


class Coefficients(_Value):
    """One (c1, c2, c3) triple of the flattened bound c1 log T + c2 + c3/T."""

    __match_args__ = _fields = ("c1", "c2", "c3")

    def __init__(self, c1: float, c2: float, c3: float) -> None:
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "c3", c3)

    def evaluate(self, T: float) -> float:
        if not 0.0 < T < math.inf:
            raise DomainError(f"needs finite T > 0, got {T}")
        return self.c1 * math.log(T) + self.c2 + self.c3 / T


def window_coefficients(data: LFunctionData, strip: StripParams, T0: float) -> Coefficients:
    """Coefficients dominating total_count_error(T0, T) for every T > T0.

    c1 carries both log slopes and the disc-bound growth; it does not
    depend on T0.  c2 is the window total with its log T and 1/T parts
    taken out: the log-integral bound at the formal height T = 1, and the
    disc bound at T reduced to d c + (log(a1 pi^2/6) + h1) / log 2.  As in
    the published table, c2 counts the 3 d (b^2 + b) / T0 tail twice.  c3
    carries the 1/(T - 2R) payloads through the monotone substitution
    1/(T - 2R) <= T0 / ((T0 - 2R) T).
    """
    return _window(data, strip, T0).coefficients[0]


def doubling_coefficients(data: LFunctionData, strip: StripParams, T0: float) -> Coefficients:
    """Coefficients for the doubled window (T, 2T], valid for every T >= T0.

    The window's own starting height replaces T0 in the horizontal piece,
    so no T0 log T0 term survives; both disc bounds grow with log T, which
    doubles the c1 slope relative to the single window.
    """
    return _window(data, strip, T0).coefficients[1]


def shifted_constant(c2_main: float, n_plus_T0: int, n_minus_T0: int) -> float:
    """c2 shifted by the known zero count up to T0: c2 + max(N+, N-)."""
    if n_plus_T0 < 0 or n_minus_T0 < 0:
        raise ValidationError("zero counts must be nonnegative")
    return c2_main + max(n_plus_T0, n_minus_T0)


def ceil_guarded(x: float, label: str = "") -> int:
    """math.ceil with a warning when x sits within CEIL_GUARD of an integer.

    The published table entries are ceilings of smooth values nowhere near
    integers, so proximity signals a transcription or rounding hazard
    rather than a legitimate value.
    """
    if abs(x - round(x)) < CEIL_GUARD:
        warnings.warn(
            f"pre-ceiling value {x!r}{' for ' + label if label else ''} is within "
            f"{CEIL_GUARD} of an integer; the ceiling may be unreliable",
            BoundaryWarning,
            stacklevel=2,
        )
    return math.ceil(x)


class BoundReport(_Value):
    """Every intermediate bound plus the headline constants for one (T0, T)."""

    __match_args__ = _fields = (
        "T0", "T", "S", "R1", "V_star_T0", "V_star_T", "R2_T0", "R2_T", "alpha", "h1", "h2",
        "R_total", "c1_main", "c2_main", "c3_main", "c1_dbl", "c2_dbl", "c3_dbl",
    )

    def __init__(
        self, T0: float, T: float, S: float, R1: float, V_star_T0: float, V_star_T: float,
        R2_T0: float, R2_T: float, alpha: int, h1: float, h2: float, R_total: float,
        c1_main: float, c2_main: float, c3_main: float,
        c1_dbl: float, c2_dbl: float, c3_dbl: float,
    ) -> None:
        if S < 0.0 or V_star_T0 < 0.0 or V_star_T < 0.0:
            raise ValidationError("negative error envelope in bound report")
        if R2_T0 <= 0.0 or R2_T <= 0.0 or R_total <= 0.0:
            raise ValidationError("non-positive count bound in bound report")
        if alpha not in (0, 1):
            raise ValidationError(f"alpha must be 0 or 1, got {alpha}")
        object.__setattr__(self, "T0", T0)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "R1", R1)
        object.__setattr__(self, "V_star_T0", V_star_T0)
        object.__setattr__(self, "V_star_T", V_star_T)
        object.__setattr__(self, "R2_T0", R2_T0)
        object.__setattr__(self, "R2_T", R2_T)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "R_total", R_total)
        object.__setattr__(self, "c1_main", c1_main)
        object.__setattr__(self, "c2_main", c2_main)
        object.__setattr__(self, "c3_main", c3_main)
        object.__setattr__(self, "c1_dbl", c1_dbl)
        object.__setattr__(self, "c2_dbl", c2_dbl)
        object.__setattr__(self, "c3_dbl", c3_dbl)

    def to_json_dict(self) -> dict:
        """The fields in order, each keyed by its name in lower case."""
        return dict(zip(map(str.lower, self._fields), self._values(self)))


def bound_report(data: LFunctionData, strip: StripParams, T0: float, T: float) -> BoundReport:
    """Evaluate every bound of the pipeline at one (T0, T) pair."""
    return _window(data, strip, T0).report(T)
