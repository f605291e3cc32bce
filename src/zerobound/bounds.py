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
(datum, strip, T0) from the memo _window; the newform table calls the
window's float core, _window_floats, directly.  Terms that read only the
gamma factors and the strip come from one _factor_pieces entry per (datum,
strip), and terms that also read T0 from _height, which checks T0, once per
window or newform weight; only what reads log(lambda Q^2) or a1 is computed
per row or window.  Value objects are built at the public edge, at most once
per window, and a per-piece bound that overflows a float raises DomainError.
Everything is a pure function of the datum, strip and heights.

The gamma-ratio kernel, _factor_kernels and its sum _kernel_sums, sits here
next to the window that sums it.  The lemma layer, gammabounds, states the
paper's lemmas on this kernel; nothing here imports gammabounds.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings

from .errors import BoundaryWarning, DomainError, ValidationError, _value_text
from .selberg import (
    _FLOAT_MAX, LFunctionData, StripParams, _admissible, _convert, _require_height, _thresholds,
    _Value, require_admissible,
)

TWO_PI = 2.0 * math.pi

#: pre-ceiling values closer than this to an integer trigger BoundaryWarning
CEIL_GUARD = 1e-6

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


def _pair_secant(data: LFunctionData, x: float) -> float:
    """2 + sec^2(arg(x + i * threshold)/2), the paired remainder kernel; lam_j > 0 scales out."""
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


def _interp_terms(data: LFunctionData) -> tuple[float, float, float]:
    """(2.5 d + 1) log 2, 2.5 sqrt(5) d and |Im mu_cap| of a datum."""
    d = data.degree
    return (2.5 * d + 1.0) * LOG2, 2.5 * SQRT5 * d, abs(data.mu_cap.imag)


def _log_interp_peak(terms: tuple, k: int, log_lq2: float, err: float) -> float:
    """Log of the convexity-interpolation peak, (2.5 d + 1) log 2 + k log 3 + max(0, e).

    e = 2.5 log_lq2 + 2.5 sqrt(5) d + |Im mu_cap| + err, for a datum's _interp_terms, pole
    order k and log_lq2 = log(lambda Q^2).  At err = 0 it is h1, the disc bound's interpolation
    branch.  With err the ratio-error envelope along sigma = -2, a1 pi^2 / 6 times its exp is
    the middle band's peak in gammabounds.magnitude_envelope: 2^(2.5 d + 1) times the larger
    of the right-edge constant 3^k a1 pi^2 / 6 and the left-edge one, exp(e) times it.
    """
    lift, spread, im = terms
    return lift + k * LOG3 + max(0.0, 2.5 * log_lq2 + spread + im + err)


def _ratio_integral(p: _FactorPieces, T0: float, T: float) -> float:
    """integrated_ratio_error, given the _factor_pieces p of its gamma factors and strip."""
    return math.log(T / T0) * p.ratio_slope


def log_integral_bound(data: LFunctionData, strip: StripParams, T0: float, T: float) -> float:
    """Horizontal log-integral bound for the window [T0, T].

    log(T/T0) * (log-term slope) + 3 d (b^2 + b) / T0 + integrated ratio
    error.  Deliberately evaluated as a pure expression: the coefficient
    assembly feeds it T = 1 < T0, where the log factor goes negative.
    """
    _require_height(T0, "T0", 0.0)
    _require_height(T, "T", 0.0)
    return _finite(_log_integral(_factor_pieces(data, strip), T0, T), "log-integral bound")


def _log_integral(p: _FactorPieces, T0: float, T: float) -> float:
    """log_integral_bound, given the _factor_pieces p of its gamma factors and strip."""
    return math.log(T / T0) * p.slope + p.tail / T0


def _finite(value: float, name: str) -> float:
    """value, unless the float arithmetic overflowed: then DomainError naming it."""
    if not abs(value) <= _FLOAT_MAX:
        raise DomainError(f"the {name} is not a finite float, got {value}")
    return value


def vertical_integral_bound() -> float:
    """pi^2 / (3 log 2), the uniform bound for each vertical log-integral."""
    return math.pi ** 2 / (3.0 * LOG2)


#: vertical_integral_bound() / pi, the window total's term for the two vertical integrals
_VERTICAL = vertical_integral_bound() / math.pi


def _heads(p: _FactorPieces, k: int, log_lq2: float) -> tuple[float, float]:
    """The disc bound's T-free branch heads: max(2.5 L, c L), L = log(lambda Q^2), and h1_interp."""
    peak = _log_interp_peak(p.interp, k, log_lq2, 0.0)
    return max(2.5 * log_lq2, p.strip.disc_slope * log_lq2), peak


def disc_count_bound(data: LFunctionData, strip: StripParams, T: float) -> float:
    """Bound for the zero count of the auxiliary disc function at height T.

    (1/log 2) * (d (1/2 - a + 2R) log(2T) + log(a1 pi^2/6) + ratio-error sup
    + max of the reflection branch and the interpolation branch).  T must be
    admissible.
    """
    require_admissible(data, strip, T)
    p = _factor_pieces(data, strip)
    heads = _heads(p, data.k, data.log_lambda_q2)
    return _disc_bound(p, data.log_a1_zeta2, heads, _disc_terms(p, T))


def _disc_terms(p: _FactorPieces, T: float) -> tuple[float, float, float, float]:
    """d c log(2T), |1 - i q| d c, q |Im(mu_cap) / 2| and K / (T - 2R), disc_count_bound's T-terms.

    q = (a + 2R) / (T - 2R); -q is -(a + 2R) / (T - 2R) to the bit.
    """
    q = p.strip.right_edge / (T - p.strip.two_r)
    bend = abs(complex(1.0, -q)) * p.d * p.strip.disc_slope
    return p.dc * math.log(2.0 * T), bend, q * p.half_im, p.sup(T)


def _disc_bound(p: _FactorPieces, log_a1_zeta2: float, heads: tuple, terms: tuple) -> float:
    """disc_count_bound at an admissible T, given the _factor_pieces, _heads and _disc_terms at T.

    The reflection branch is head - 2d + |1 - i q| d c + d (a + 2R) + q |Im(mu_cap) / 2|.
    """
    log_term, bend, lean, sup = terms
    reflect_head, interp_peak = heads
    reflect = reflect_head - 2.0 * p.d + bend + p.d * p.strip.right_edge + lean
    return (log_term + log_a1_zeta2 + sup + max(reflect, interp_peak)) / LOG2


def trivial_zero_window(data: LFunctionData, strip: StripParams) -> float:
    """Allowance for trivial zeros and strays with real part in (b, b+1].

    f * (|(b+1) max lam + min Re mu| - b max lam + (b+1) min lam
         - min Re mu + max Re mu).
    """
    b = strip.b
    lmax, lmin, rmin, rmax = data.lam_max, data.lam_min, data.re_mu_min, data.re_mu_max
    return data.f * (abs((b + 1.0) * lmax + rmin) - b * lmax + (b + 1.0) * lmin - rmin + rmax)


class BranchConstants(_Value):
    """Branch selector and the two constants it gates.

    alpha = 0 keeps the reflection branch (h2 then carries the 1/(T - 2R)
    payload); alpha = 1 keeps the interpolation branch and forces h2 = 0.
    Either way h1 + h2/(T - 2R) dominates both branches for every T >= T0.
    """

    def __init__(self, alpha: int, h1: float, h2: float) -> None:
        self._set(alpha=alpha, h1=h1, h2=h2)


def branch_constants(data: LFunctionData, strip: StripParams, T0: float) -> BranchConstants:
    """Pick the branch whose bound h1 + h2/(T0 - 2R) is larger at T0.

    Ties resolve to the interpolation branch (alpha = 1).  The reflection
    branch's h1 is max(h1_reflect, h1_interp): its h2 payload decays with
    T, so the interpolation constant can overtake it above T0.
    """
    _require_height(T0, "T0", strip.two_r, DomainError, "2R")
    p = _factor_pieces(data, strip)
    alpha, h1, h2 = _branch(p, _heads(p, data.k, data.log_lambda_q2), T0)
    return BranchConstants(alpha, _finite(h1, "branch h1"), _finite(h2, "branch h2"))


def _branch(p: _FactorPieces, heads: tuple, T0: float) -> tuple:
    """branch_constants' (alpha, h1, h2) at a T0 > 2R, given the _factor_pieces and _heads."""
    reflect_head, h1_interp = heads
    h1_reflect = reflect_head + p.h1_lift
    if h1_reflect + p.h2_reflect / (T0 - p.strip.two_r) > h1_interp:
        return 0, max(h1_reflect, h1_interp), p.h2_reflect
    return 1, h1_interp, 0.0


class _FactorPieces:
    """Every window term that reads only the gamma factors of one datum and one strip.

    Besides the datum and the strip: d; dc = d c, the disc bound's log(2T) coefficient;
    half_im = |Im(mu_cap) / 2|; tail = 3 d (b^2 + b), the log-integral bound's numerator
    over T0; h1_lift = d (4R - 3/2) and h2_reflect = d c (a + 2R) + (a + 2R) half_im, the
    reflection branch's h1 over its head and h2; ratio_slope and slope, the log(T/T0)
    coefficients of S and R1; trivial; both c1; thresholds and interp, the _thresholds
    and _interp_terms; and the factor-level, left-most parts of the other constants, so
    that a window adding its own terms to one rounds as if it had computed it whole (the
    head of the doubling c2 runs up to its 3 d (2R - 1) c term).  No piece reads Q, k or
    a1, so a newform weight's level-1 pieces serve every level.  K, ratio_error_sup's
    numerator, is computed when first read, so where the secant guard refuses it the
    other terms still serve.  Build through _factor_pieces only.
    """

    def __init__(self, data: LFunctionData, strip: StripParams) -> None:
        self.data, self.strip = data, strip
        d, b, r, two_r, c = data.degree, strip.b, strip.R, strip.two_r, strip.disc_slope
        right, im = strip.right_edge, data.mu_cap.imag
        self.d, self.dc, self.half_im = d, d * c, abs(im / 2.0)
        self.tail = 3.0 * d * (b * b + b)
        self.h1_lift, self.h2_reflect = d * (-1.5 + 4.0 * r), self.dc * right + right * self.half_im
        self.ratio_slope = sum(_kernel_sums(data, -b, -b - 1.0))
        # the log-term slope -(7/2) d (2b+1) + 2|-d b + Im(mu_cap) i / 2| + 2d, plus ratio_slope
        self.slope = (-3.5 * d * (2.0 * b + 1.0) + 2.0 * abs(complex(-d * b, im / 2.0)) + 2.0 * d
                      + self.ratio_slope)
        self.trivial = trivial_zero_window(data, strip)
        self.c1_main = self.slope / TWO_PI + (r - 0.5) * d * c / LOG2
        self.c1_dbl = d / LOG2 * (two_r - 1.0) * c
        self.c2_dbl_head = (LOG2 * self.slope / TWO_PI + 2.0 * _VERTICAL + 4.0 * r - 2.0
                            + 3.0 * d * (two_r - 1.0) * c)
        self.c3_dbl_head = self.tail / (4.0 * math.pi)
        self.c3_scale, self.c2_dbl_scale = (r - 0.5) / LOG2, (two_r - 1.0) / LOG2
        self.head_scale = d / TWO_PI
        self.thresholds, self.interp = _thresholds(data, strip), _interp_terms(data)

    @functools.cached_property
    def K(self) -> float:
        """The factor kernels summed at the disc's left edge, -(a + 2R)."""
        return _kernel_sums(self.data, -self.strip.right_edge)[0]

    def sup(self, T: float) -> float:
        """ratio_error_sup at a T > 2R: K / (T - 2R)."""
        return self.K / (T - self.strip.two_r)


#: The 256 latest (data, strip) keys; equal data, such as two that differ only in the sign
#: of a zero, share an entry.  An entry whose K is refused stays cached.
_factor_pieces = functools.lru_cache(maxsize=256)(_FactorPieces)


def _height(p: _FactorPieces, k: int, T0: float) -> tuple:
    """R2(T0)'s _disc_terms, (d / 2 pi) T0 log(T0 / e), T0 / 2 pi, c2's R1 / 2 pi and c3's scales.

    The window's terms that read only p and T0, once T0 is admissible, each left-most in its sum.
    """
    two_r, r = p.strip.two_r, p.strip.R
    _admissible(p.thresholds, two_r, k, T0, "T0")
    # c2 takes R1 at the formal height T = 1 and counts the tail twice
    return (_disc_terms(p, T0), p.head_scale * T0 * math.log(T0 / math.e), T0 / TWO_PI,
            (_log_integral(p, T0, 1.0) + p.tail / T0) / TWO_PI, p.c3_scale * T0 / (T0 - two_r),
            p.c3_scale * T0 * (3.0 * T0 - 4.0 * r) / (2.0 * (T0 - two_r) * (T0 - r)))


def _window_floats(p: _FactorPieces, k: int, log_lq2: float, log_a1_zeta2: float, T0: float,
                   height: tuple) -> tuple:
    """(heads, alpha, h1, h2, R2(T0), head, constants) of the (T0, T]-window of one datum.

    p is the _factor_pieces of its factors and strip; k, log_lq2 and log_a1_zeta2 are its pole
    order, log(lambda Q^2) and log(a1 pi^2 / 6); height is _height(p, k, T0), which checked
    T0.  The heads choose the branch and enter every R2; head is the main-term pieces at T0.
    """
    disc, main, t0_2pi, r1, c3_main, c3_dbl = height
    heads = _heads(p, k, log_lq2)
    alpha, h1, h2 = _branch(p, heads, T0)
    a1_h1 = log_a1_zeta2 + h1
    r2_t0 = _disc_bound(p, log_a1_zeta2, heads, disc)
    head = main + t0_2pi * abs(log_lq2)
    return heads, alpha, h1, h2, r2_t0, head, (
        p.c1_main,
        _total(p, head, r2_t0, r1, p.dc + a1_h1 / LOG2),
        c3_main * (p.K + h2),
        p.c1_dbl,
        p.c2_dbl_head + p.c2_dbl_scale * a1_h1,
        p.c3_dbl_head + c3_dbl * (disc[3] + h2),
    )


def _total(p: _FactorPieces, head: float, r2_t0: float, r1_2pi: float, r2_t: float) -> float:
    """The window total, given head, R2(T0), the log-integral bound over 2 pi and R2(T)."""
    return head + r1_2pi + _VERTICAL + (p.strip.R - 0.5) * (r2_t0 + r2_t + 4.0) + p.trivial


class _Window(_Value):
    """The (T0, T]-window bound of one (data, strip, T0): its pieces and _window_floats.

    Construction checks that T0 is admissible, so every finite T > T0 is too.
    The Coefficients pair is built once, when a public function first asks
    for it.  repr, == and hash see data, strip and T0 only, which fix every
    other field.  Build windows through _window only.
    """

    def __init__(self, data: LFunctionData, strip: StripParams, T0: float) -> None:
        p = _factor_pieces(data, strip)
        heads, alpha, h1, h2, r2_t0, head, constants = _window_floats(
            p, data.k, data.log_lambda_q2, data.log_a1_zeta2, T0, _height(p, data.k, T0))
        self._set(data=data, strip=strip, T0=T0, pieces=p, heads=heads, alpha=alpha, h1=h1,
                  h2=h2, r2_t0=r2_t0, head=head, constants=constants)

    def at(self, T: float) -> tuple[float, float, float]:
        """(R1, R2(T), window total) at a finite T > T0."""
        _require_height(T, "T", self.T0, DomainError, "T0")
        p = self.pieces
        r1 = _log_integral(p, self.T0, T)
        r2_t = _disc_bound(p, self.data.log_a1_zeta2, self.heads, _disc_terms(p, T))
        return r1, r2_t, _total(p, self.head, self.r2_t0, r1 / TWO_PI, r2_t)

    @functools.cached_property
    def coefficients(self) -> tuple[Coefficients, Coefficients]:
        """The window_coefficients and doubling_coefficients triples."""
        c = self.constants
        return Coefficients(*c[:3]), Coefficients(*c[3:])

    def report(self, T: float) -> BoundReport:
        """The bound_report at height T."""
        r1, r2_t, total = self.at(T)
        c1_main, c2_main, c3_main, c1_dbl, c2_dbl, c3_dbl = self.constants
        p = self.pieces
        return BoundReport(
            T0=self.T0, T=T, S=_ratio_integral(p, self.T0, T), R1=r1,
            V_star_T0=p.sup(self.T0), V_star_T=p.sup(T), R2_T0=self.r2_t0, R2_T=r2_t,
            alpha=self.alpha, h1=self.h1, h2=self.h2, R_total=total, c1_main=c1_main,
            c2_main=c2_main, c3_main=c3_main, c1_dbl=c1_dbl, c2_dbl=c2_dbl, c3_dbl=c3_dbl,
        )


#: The one way to a window: each public bound below takes its window from this
#: memo of the 16 latest (data, strip, T0) keys, through _window_of, so calls on
#: one T0 share one; the newform table adds none.  The keys are frozen and a window
#: reads only fields that == compares, so an equal key gives a bit-identical window.
#: typed keeps T0 = 30 and 30.0 apart.  A raising constructor caches nothing.
_window = functools.lru_cache(maxsize=16, typed=True)(_Window)


def _window_of(data: LFunctionData, strip: StripParams, T0: float) -> _Window:
    """_window(data, strip, T0); an unhashable T0 is checked, then taken as float(T0)."""
    try:
        return _window(data, strip, T0)
    except TypeError:  # hashing the key refused T0 (a list, say); only now is T0 checked again
        require_admissible(data, strip, T0, label="T0")
        return _window(data, strip, float(T0))


def total_count_error(data: LFunctionData, strip: StripParams, T0: float, T: float) -> float:
    """Explicit bound for |count on (T0, T] - main term at T|.

    T0 must be admissible and T > T0 finite.
    """
    return _window_of(data, strip, T0).at(T)[2]


class Coefficients(_Value):
    """One (c1, c2, c3) triple of the flattened bound c1 log T + c2 + c3/T."""

    def __init__(self, c1: float, c2: float, c3: float) -> None:
        self._set(c1=c1, c2=c2, c3=c3)

    def evaluate(self, T: float) -> float:
        _require_height(T, "T", 0.0)
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
    return _window_of(data, strip, T0).coefficients[0]


def doubling_coefficients(data: LFunctionData, strip: StripParams, T0: float) -> Coefficients:
    """Coefficients for the doubled window (T, 2T], valid for every T >= T0.

    The window's own starting height replaces T0 in the horizontal piece,
    so no T0 log T0 term survives; both disc bounds grow with log T, which
    doubles the c1 slope relative to the single window.
    """
    return _window_of(data, strip, T0).coefficients[1]


def shifted_constant(c2_main: float, n_plus_T0: int, n_minus_T0: int) -> float:
    """c2 shifted by the known zero count up to T0: c2 + max(N+, N-), for int counts >= 0."""
    if not all(type(n) is int and n >= 0 for n in (n_plus_T0, n_minus_T0)):
        raise ValidationError("zero counts must be nonnegative ints")
    n = max(n_plus_T0, n_minus_T0)
    if not n <= _FLOAT_MAX:
        raise ValidationError(f"zero count {_value_text(n)} is too large for a float")
    if not abs(shifted := _convert(lambda c2: float(c2) + n, c2_main, "c2_main")) <= _FLOAT_MAX:
        raise ValidationError(f"c2_main + {n} is not finite, got c2_main = {_value_text(c2_main)}")
    return shifted


def ceil_guarded(x: float, label: str = "") -> int:
    """math.ceil with a warning when x sits within CEIL_GUARD of an integer.

    The published table entries are ceilings of smooth values nowhere near
    integers, so proximity signals a transcription or rounding hazard
    rather than a legitimate value.  A nan, an x past the float range or an
    x that is no real number raises DomainError.

    x is near an integer unless it lies at least CEIL_GUARD from both its
    ceiling c and from c - 1.
    """
    try:
        finite = abs(x) <= _FLOAT_MAX  # not for a nan, an infinity, or any x past the float range
        if finite:
            c = math.ceil(x)
            if c - x >= CEIL_GUARD and x - (c - 1) >= CEIL_GUARD:
                return c
    except (TypeError, ArithmeticError):  # a str, None or a complex; a Decimal NaN
        finite = False
    named = f" for {_value_text(label)}" if label else ""
    value = f"pre-ceiling value {_value_text(x, repr)}{named}"
    if not finite:
        raise DomainError(f"{value} is not a finite float")
    warnings.warn(
        f"{value} is within {CEIL_GUARD} of an integer; the ceiling may be unreliable",
        BoundaryWarning,
        stacklevel=2,
    )
    return math.ceil(x)


class BoundReport(_Value):
    """Every intermediate bound plus the headline constants for one (T0, T)."""

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
        self._set(
            T0=T0, T=T, S=S, R1=R1, V_star_T0=V_star_T0, V_star_T=V_star_T, R2_T0=R2_T0,
            R2_T=R2_T, alpha=alpha, h1=h1, h2=h2, R_total=R_total, c1_main=c1_main,
            c2_main=c2_main, c3_main=c3_main, c1_dbl=c1_dbl, c2_dbl=c2_dbl, c3_dbl=c3_dbl,
        )

    def to_json_dict(self) -> dict:
        """The fields in order, each keyed by its name in lower case."""
        return dict(zip(map(str.lower, self._fields), self._values(self)))


def bound_report(data: LFunctionData, strip: StripParams, T0: float, T: float) -> BoundReport:
    """Evaluate every bound of the pipeline at one (T0, T) pair."""
    return _window_of(data, strip, T0).report(T)
