"""Functional-equation data and the invariants derived from it.

The objects here describe a Dirichlet series L(s) = sum a(n) n^-s whose
completion Q^s * prod_j Gamma(lam_j s + mu_j) * L(s) satisfies a reflection
equation s <-> 1 - s with a unimodular root number.  Everything downstream
(gamma-ratio envelopes, explicit zero-counting constants) is a function of
this datum alone; no coefficient a(n) beyond the Ramanujan constant a1 is
ever needed.

Conventions
-----------
* degree d = 2 * sum_j lam_j (required to be >= 1; degenerate series with
  d = 0 are rejected at construction),
* lambda_cap = prod_j lam_j^(2 lam_j), so log(lambda_cap) = 2 sum lam log lam,
* mu_cap = 4 * sum_j (1/2 - mu_j); only Im(mu_cap) enters any bound,
* the strip abscissae a > 2 and b < -3 are chosen so that the coefficient
  tails sum_{n>=2} a1 n^-a and sum_{n>=2} a1 n^(b+1) stay below 1/2 and 1.

Every value type is immutable (see _Value); every function is pure.  A
datum derives its invariants once, in its constructor, which is the only
way one is built.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from itertools import repeat
from operator import attrgetter

from .errors import (
    AdmissibilityError,
    DomainError,
    InvalidStripError,
    ValidationError,
    _value_text,
)

#: tolerance for the |omega| = 1 check
OMEGA_MODULUS_TOL = 1e-12

#: N of tail_sum: terms n < N are added one by one, Euler-Maclaurin covers n >= N
_TAIL_TERMS = 256

#: the head bases 2.0 .. _TAIL_TERMS - 1 of tail_sum, converted to float once
_TAIL_BASES = tuple(map(float, range(2, _TAIL_TERMS)))

#: the largest float: a check x <= _FLOAT_MAX, unlike x < math.inf, also fails for an
#: int past the float range, which would raise a bare OverflowError in the arithmetic
_FLOAT_MAX = sys.float_info.max

#: the text classes, whose values float() and complex() would parse
_TEXT = frozenset((str, bytes, bytearray))


def _convert(convert, value: object, name: str, error: type = ValidationError):
    """convert(value), or an error of class error naming name if value is no number or too large."""
    try:
        if value.__class__ in _TEXT:  # "1" is text, not a number
            raise TypeError
        return convert(value)
    except OverflowError:  # an int too large for a float
        raise error(
            f"{name} is too large to convert to a float, got {_value_text(value)}"
        ) from None
    except (TypeError, ValueError):  # None, a list, a str
        kind = "number" if convert is complex else "real number"
        raise error(f"{name} must be a {kind}, got {_value_text(value, repr)}") from None


def _require_height(value: object, name: str, low: float = -math.inf, error: type = DomainError,
                    low_name: str = "", closed: bool = False, high: float = _FLOAT_MAX) -> None:
    """Raise error unless value is a real number with low < value <= high (low <= value if closed).

    The package's one range rule, for heights and every other public real.
    A value that is no number makes the comparison raise TypeError, and a
    Decimal NaN makes it raise an ArithmeticError; both are refused, and so
    is a value that passes the comparison but is no numbers.Real (a finite
    Decimal, which floats do not mix with).  A float or an int skips that
    last check.  Only a refused value has a message built.  A low that may
    come from the caller is named by low_name, and the message compares only
    an unnamed one, to leave out the "> -inf" of an argument with no lower end.
    """
    try:
        if (low <= value if closed else low < value) and value <= high:
            if value.__class__ is float or value.__class__ is int:
                return
            from numbers import Real  # imported only for the rarer classes

            if isinstance(value, Real):
                return
    except (TypeError, ArithmeticError):  # None, a str, a complex; a Decimal NaN
        pass
    end = f"{low_name} = {_value_text(low, repr)}" if low_name else low
    end = f" {'>=' if closed else '>'} {end}" if low_name or low > -math.inf else ""
    finite = "finite " if high < math.inf else ""
    raise error(f"needs a {finite}real {name}{end}, got {name} = {_value_text(value, repr)}")


def _real(value: object, name: str, low: float = -math.inf, error: type = ValidationError,
          closed: bool = False) -> float:
    """float(value) if it passes _require_height's range rule, else an error of class error."""
    value = _convert(float, value, name, error)
    _require_height(value, name, low, error, closed=closed)
    return value


class _Value:
    """The behaviour the package's immutable value types share.

    A subclass declares its fields once, as the positional parameters of
    its own __init__, which checks its arguments and stores the fields with
    _set; __match_args__ and _fields are those parameter names, in order
    (two or more).  repr shows the fields as name=value; == between two
    instances of one class, and hash, use the tuple of the fields' values;
    every assignment or deletion of an attribute raises
    dataclasses.FrozenInstanceError.  Attributes an __init__ sets beyond
    its parameters are derived from them and stay out of repr, == and hash.
    _set is called only from constructors and zeros.load_zeros.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        code = cls.__dict__["__init__"].__code__
        cls.__match_args__ = cls._fields = code.co_varnames[1:code.co_argcount]
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(map("{}={!r}".format, self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _set(self, **fields: object) -> None:
        """Store fields as attributes, past the frozen __setattr__."""
        vars(self).update(fields)


class GammaFactor(_Value):
    """One factor Gamma(lam * s + mu) of the completed series.

    lam must be a finite positive real and mu finite with Re(mu) >= 0.
    """

    def __init__(self, lam: float, mu: complex) -> None:
        lam = _real(lam, "gamma factor lam", 0.0)
        mu = _convert(complex, mu, "gamma factor mu")
        if not (cmath.isfinite(mu) and mu.real >= 0.0):
            raise ValidationError(f"gamma factor needs finite mu with Re(mu) >= 0, got {mu}")
        self._set(lam=lam, mu=mu, _hash=hash((lam, mu)))

    def __hash__(self) -> int:
        return self._hash


def _lambda_q2(lambda_cap: float, Q: float) -> float:
    """lambda_cap * Q^2, checked to be a positive finite float."""
    lambda_q2 = lambda_cap * Q * Q
    if not 0.0 < lambda_q2 < math.inf:
        raise ValidationError(f"lambda Q^2 = {lambda_q2} is not a positive finite float")
    return lambda_q2


class LFunctionData(_Value):
    """The functional-equation datum of one L-function.

    Fields
    ------
    factors : ordered gamma factors (at least one)
    Q       : positive conductor factor multiplying s in the completion
    omega   : root number, |omega| = 1 (stored for completeness; it cancels
              in every modulus bound and is validated only for modulus)
    k       : order of the pole at s = 1 (0 for entire functions)
    a1      : Ramanujan constant, |a(n)| <= a1 * n with a1 >= 1

    Every number, and lambda Q^2, must be finite, and lambda Q^2 nonzero.
    Construction, the one way a datum is built, also derives the data-only
    invariants below, in one pass over the factors, and stores them and the
    hash of the five fields as plain attributes; repr, == and hash see the
    five fields only.  All but lambda_q2, log_lambda_q2 and log_a1_zeta2
    depend on the factors alone.  None of those reads mu but through abs, a
    sum from 0j or an extreme of Re(mu) plus 0.0 (a zero extreme is +0.0),
    so data that differ only in the sign of a zero part of mu, which compare
    equal, hold equal bits.  A datum whose invariants overflow a float is
    rejected.

    Invariants
    ----------
    degree           : d = 2 * sum_j lam_j
    lambda_cap       : prod_j lam_j^(2 lam_j)
    lambda_q2        : lambda_cap * Q^2, the combination entering every main term
    log_lambda_q2    : log(lambda Q^2)
    log_a1_zeta2     : log(a1 pi^2 / 6)
    mu_cap           : 4 * sum_j (1/2 - mu_j); only its imaginary part enters a bound
    shift_max        : max_j 2|lam_j + conj(mu_j)| / lam_j, the gamma-shift admissibility term
    arg_max          : max_j 2|mu_j| / lam_j, the gamma-argument admissibility term
    threshold_height : max(shift_max, arg_max); every gamma-ratio bound is
                       valid for ordinates at or above it, and it is the
                       imaginary part pinned inside all the secant arguments
    series_blocks    : per factor |l|^2 + 2|l(l - 1/2)| + |mu|^2 + 2|mu(mu - 1/2)|,
                       l = lam + conj(mu), the truncated-logarithm part of
                       that factor's gamma-ratio error
    lams             : per factor lam_j, the divisor of that factor's kernel
    lam_max, lam_min, re_mu_max, re_mu_min : the trivial-zero extremes of lam_j, Re(mu_j)
    f                : the number of gamma factors
    """

    def __init__(
        self, factors: tuple[GammaFactor, ...], Q: float, omega: complex, k: int, a1: float
    ) -> None:
        factors = tuple(factors)
        omega = _convert(complex, omega, "omega")
        if not factors:
            raise ValidationError("need at least one gamma factor")
        if not all(isinstance(f, GammaFactor) for f in factors):
            raise ValidationError("factors must be GammaFactor instances")
        Q = _real(Q, "Q", 0.0)
        if not abs(abs(omega) - 1.0) <= OMEGA_MODULUS_TOL:
            raise ValidationError(f"|omega| must be 1, got |{omega}| = {abs(omega)}")
        if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k <= 10 ** 15:
            raise ValidationError(
                f"pole order k must be an integer in [0, 10^15], got {_value_text(k, repr)}"
            )
        a1 = _real(a1, "a1", 1.0, closed=True)
        lams, re_mus, series_blocks = [], [], []
        lambda_cap, shift_max, arg_max = 1.0, -math.inf, -math.inf
        for f in factors:  # one pass; an overflowing block is kept as inf, for a check below
            lam, mu = f.lam, f.mu
            lm = lam + mu.conjugate()
            lams.append(lam)
            re_mus.append(mu.real)
            try:  # lam ** (2 lam) overflows only for lam > 143, where the degree is > 1
                lambda_cap *= lam ** (2.0 * lam)
            except OverflowError:
                raise ValidationError("lambda Q^2 overflows a float") from None
            try:
                shift_max = max(shift_max, 2.0 * abs(lm) / lam)
                arg_max = max(arg_max, 2.0 * abs(mu) / lam)
                block = abs(lm) ** 2 + 2.0 * abs(lm * (lm - 0.5)) + abs(mu) ** 2
                block += 2.0 * abs(mu * (mu - 0.5))
            except OverflowError:  # |lam + conj(mu)|, |mu| or a square of them for a large mu
                block = math.inf
            series_blocks.append(block)
        degree = 2.0 * math.fsum(lams)
        if degree < 1.0:
            raise ValidationError(f"degree {degree} < 1; degenerate data is rejected")
        lambda_q2 = _lambda_q2(lambda_cap, Q)
        if math.inf in series_blocks:  # also a sum of finite terms rounded to inf
            raise ValidationError(
                "a gamma factor's series block overflows a float (|mu| is too large)"
            )
        threshold_height = max(shift_max, arg_max)
        if not threshold_height < math.inf:  # 2 |lam + conj(mu)| / lam overflows
            raise ValidationError(
                "the gamma-factor threshold height overflows a float (|mu| / lam is too large)"
            )
        log_a1_zeta2 = math.log(a1 * math.pi ** 2 / 6.0)
        if not log_a1_zeta2 < math.inf:  # a1 pi^2 overflows, for a1 > ~1.82e307
            raise ValidationError(f"a1 pi^2 / 6 overflows a float, got a1 = {a1}")
        self._set(
            factors=factors, Q=Q, omega=omega, k=k, a1=a1, degree=degree, lambda_cap=lambda_cap,
            lambda_q2=lambda_q2, log_lambda_q2=math.log(lambda_q2), log_a1_zeta2=log_a1_zeta2,
            mu_cap=sum([4.0 * (0.5 - f.mu) for f in factors], 0j), shift_max=shift_max,
            arg_max=arg_max, threshold_height=threshold_height,
            series_blocks=tuple(series_blocks), lams=tuple(lams), lam_max=max(lams),
            lam_min=min(lams), re_mu_max=max(re_mus) + 0.0, re_mu_min=min(re_mus) + 0.0,
            f=len(factors), _hash=hash((factors, Q, omega, k, a1)),
        )

    __hash__ = GammaFactor.__hash__


def tail_sum(x: float, a1: float) -> float:
    """Upper bound for sum_{n>=2} a1 * n^-x, memoized by the float (x, a1).

    The Euler-Maclaurin sum with N = _TAIL_TERMS, cut after the B2 term:
    a1 * (sum_{2<=n<N} n^-x + N^(1-x)/(x-1) + N^-x/2 + x N^(-x-1)/12).
    As n^-x is completely monotone, the remainder has the sign of the
    omitted B4 term, -x(x+1)(x+2) N^(-x-3)/720 < 0, so the cut sum exceeds
    the series, by < 1e-13 for x >= 2.  The factor 1 + 1e-14 keeps it above
    after rounding the head, which outgrows that surplus for large x.  Terms
    below 2^-1074 underflow to 0.  A sum costs the same for every x and a1;
    _tail_sum keeps the 1024 last used, so a strip search evaluates each once.

    Raises DomainError, by the package's range rule, unless x is a finite
    real > 1 (at x <= 1 the series diverges) and a1 a finite real.
    """
    x = _real(x, "tail sum exponent x", 1.0, DomainError)
    return _tail_sum(x, _real(a1, "tail sum coefficient a1", error=DomainError))


@functools.lru_cache(maxsize=1024)  # a strip search tries x = 3 .. a, and a <= 1026
def _tail_sum(x: float, a1: float) -> float:
    """tail_sum's value for a float x > 1 and a finite float a1, which it has checked."""
    n = _TAIL_TERMS
    head = math.fsum(map(pow, _TAIL_BASES, repeat(-x)))
    rest = n ** (1.0 - x) / (x - 1.0) + n ** -x / 2.0 + x * n ** (-x - 1.0) / 12.0
    return a1 * (head + rest) * (1.0 + 1e-14)


class StripParams(_Value):
    """Abscissae of the counting rectangle: finite a > 2 and b < -3, R = a - b.

    Construct through select_strip, which verifies the two tail-sum
    conditions; the constructor checks only the shape invariants and computes
    the strip-only invariants below, once, leaving them out of repr, == and hash,
    and the hash of (a, b, R), as LFunctionData does.

    Invariants
    ----------
    two_r      : 2R, the half-height of the counting rectangle
    right_edge : a + 2R, the right edge of the rectangle's disc
    disc_slope : 1/2 - a + 2R, the disc bound's coefficient of d log(2T)
    """

    def __init__(self, a: float, b: float, R: float) -> None:
        a = _real(a, "strip a", 2.0, InvalidStripError)
        b = _convert(float, b, "strip b", InvalidStripError)
        R = _convert(float, R, "strip R", InvalidStripError)
        if not -math.inf < b < -3.0:
            raise InvalidStripError(f"strip needs finite b < -3, got b = {b}")
        if R != a - b:
            raise InvalidStripError(f"R must equal a - b, got R = {R}")
        two_r = 2.0 * R
        right_edge = a + two_r
        if not right_edge < math.inf:  # right_edge >= 2R >= 0, so this covers R and 2R too
            raise InvalidStripError(f"strip needs a finite a + 2R, got a = {a}, b = {b}")
        self._set(a=a, b=b, R=R, two_r=two_r, right_edge=right_edge, disc_slope=0.5 - a + two_r,
                  _hash=hash((a, b, R)))

    __hash__ = GammaFactor.__hash__


def select_strip(a1: float, a: float | None = None, b: float | None = None) -> StripParams:
    """Choose (or validate) the strip abscissae for a given finite a1 >= 1.

    Without overrides, a is the smallest integer > 2 with
    tail_sum(a, a1) < 1/2 and b the largest integer < -3 with
    tail_sum(-b - 1, a1) < 1, matching the worked choices a1 = 1 ->
    (a, b) = (3, -4).  Overrides are accepted if they satisfy the same
    two inequalities; the strip is built first, so StripParams checks
    their ranges, and a violation of either inequality then raises
    InvalidStripError naming the failed condition.
    """
    a1 = _real(a1, "a1", 1.0, closed=True)
    a_given, b_given = a is not None, b is not None
    if a is None:
        n = 3
        while tail_sum(float(n), a1) >= 0.5:
            n += 1
        a = float(n)
    else:
        a = _convert(float, a, "override a", InvalidStripError)
    if b is None:
        n = -4
        while tail_sum(float(-n - 1), a1) >= 1.0:
            n -= 1
        b = float(n)
    else:
        b = _convert(float, b, "override b", InvalidStripError)
    strip = StripParams(a=a, b=b, R=a - b)
    if a_given and not (tail := tail_sum(a, a1)) < 0.5:
        raise InvalidStripError(f"override a = {a} fails tail_sum(a, a1) < 1/2 (got {tail})")
    if b_given and not (tail := tail_sum(-b - 1.0, a1)) < 1.0:
        raise InvalidStripError(f"override b = {b} fails tail_sum(-b-1, a1) < 1 (got {tail})")
    return strip


class AdmissibleHeight(_Value):
    """Smallest height at which the counting machinery applies.

    strict_adjusted is True when the binding constraint is the strict one
    (the gamma-argument condition); in that case value is the next float
    above the threshold, so that the returned height itself is admissible.

    Per factor |lam + conj(mu)| >= |mu|, so the gamma-shift threshold is at
    least the gamma-argument one, and the strict constraint binds only when
    2R + shift_max and 2R + arg_max round to the same float.  Their gap is
    about 2 lam / |mu|, which falls below an ulp of 2 |mu| / lam only where
    |mu| / lam exceeds about 4.7e7.  There half an ulp of the threshold is
    above 7e-9, so no nudge smaller than that could move it by more than
    the one ulp taken here.
    """

    def __init__(self, value: float, binding: str, strict_adjusted: bool) -> None:
        self._set(value=value, binding=binding, strict_adjusted=strict_adjusted)

    def __float__(self) -> float:
        return self.value


def _pole_window(k: int) -> float:
    """An upper bound on 1/(2^(1/k) - 1) = 1/expm1(log(2)/k), under 2^-49 relative above it.

    expm1 avoids the cancellation in 2^(1/k) - 1.  With u = 2^-53, the
    float quotient errs by under 5.4 u relative: log(2) / k carries 1.72 u,
    which expm1 magnifies by at most 1.39 on (0, log 2]; expm1 itself adds
    under 2 u (one ulp) and the reciprocal 1 u.  The factor 1 + 8 u, less
    the 1 u its own rounding may lose, lifts the quotient above the true
    value.
    """
    return (1.0 + 2.0 ** -50) / math.expm1(math.log(2.0) / k)


def _sum_up(x: float, y: float) -> float:
    """x + y rounded upward: one ulp up when the TwoSum error x + y - s is positive."""
    s = x + y
    t = s - x
    return math.nextafter(s, math.inf) if (x - (s - t)) + (y - t) > 0.0 else s


def _thresholds(data: LFunctionData, strip: StripParams) -> tuple[float, float, float]:
    """The k-free thresholds of _constraints for a datum and a strip."""
    two_r = strip.two_r
    return _sum_up(two_r, 1.0), _sum_up(two_r, data.shift_max), _sum_up(two_r, data.arg_max)


def _pole_threshold(two_r: float, k: int) -> float:
    """The pole-window threshold of _constraints for a pole order k > 0: 2R + _pole_window(k)."""
    return _sum_up(two_r, _pole_window(k))


def _constraints(thresholds: tuple, two_r: float, k: int) -> list[tuple[str, float, bool]]:
    """(name, threshold, is_strict) triples for the admissibility of T, from _thresholds.

    The last triple is the gamma-argument constraint, the only strict one.
    """
    base, shift, arg = thresholds
    cons = [("base-window", base, False), ("gamma-shift", shift, False)]
    if k > 0:
        cons.append(("pole-window", _pole_threshold(two_r, k), False))
    cons.append(("gamma-argument", arg, True))
    return cons


def min_admissible_height(data: LFunctionData, strip: StripParams) -> AdmissibleHeight:
    """Smallest T satisfying every admissibility constraint.

    The gamma-argument constraint is strict; when it binds, the returned
    value is the next float above the threshold, and the report flags the
    adjustment.  It binds only at |mu| / lam above about 4.7e7, where half an
    ulp of the threshold exceeds 7e-9 (see AdmissibleHeight), so the next
    float is as close above the threshold as any fixed small nudge would put
    it.
    """
    *weak, (sname, sval, _) = _constraints(_thresholds(data, strip), strip.two_r, data.k)
    name, value, _ = max(weak, key=lambda c: c[1])
    if sval >= value:
        return AdmissibleHeight(
            value=math.nextafter(sval, math.inf), binding=sname, strict_adjusted=True
        )
    return AdmissibleHeight(value=value, binding=name, strict_adjusted=False)


def require_admissible(data: LFunctionData, strip: StripParams, T: float, label: str = "T") -> None:
    """Raise AdmissibilityError naming the first constraint T violates, or if T is no finite real."""
    _admissible(_thresholds(data, strip), strip.two_r, data.k, T, label)


def _admissible(thresholds: tuple, two_r: float, k: int, T: float, label: str) -> None:
    """require_admissible, given the _thresholds of the datum and strip, 2R and the pole order k.

    The comparisons of _constraints decide; its triples are built only to name a refusal.
    """
    _require_height(T, label, error=AdmissibilityError)
    # T >= shift covers the base-window: shift_max >= 2 > 1, as |lam + conj(mu)| >= lam
    _, shift, arg = thresholds
    if T >= shift and (k <= 0 or T >= _pole_threshold(two_r, k)) and T > arg:
        return
    for name, val, strict in _constraints(thresholds, two_r, k):
        if not (T > val if strict else T >= val):
            raise AdmissibilityError(
                f"{label} = {_value_text(T)} violates the '{name}' constraint "
                f"(needs {label} {'>' if strict else '>='} {val})"
            )


def main_term(data: LFunctionData, T: float) -> float:
    """Smooth zero-count term (d / 2 pi) T log(T/e) + (T / 2 pi) log(lambda Q^2)."""
    _require_height(T, "T", 0.0)
    d, log_lq2 = data.degree, data.log_lambda_q2
    return d / (2.0 * math.pi) * T * math.log(T / math.e) + T / (2.0 * math.pi) * log_lq2


def _number(obj: dict, key: str, factor: int | None = None, default: float | None = None) -> float:
    """obj[key], or default (if given) when key is absent, as a float.

    The value must be a JSON number, which loads as an int or a float, and
    an int must convert to a float.  A string, a bool, null or anything
    else raises a ValidationError naming the field: key, or
    factors[factor].key for a field of a gamma factor.
    """
    value = obj[key] if default is None else obj.get(key, default)
    name = key if factor is None else f"factors[{factor}].{key}"
    if type(value) not in (int, float):
        raise ValidationError(f"{name} must be a JSON number, got {value!r}")
    return _convert(float, value, name)


def load_document(obj: dict) -> tuple[LFunctionData, StripParams]:
    """Parse the CLI interchange document: datum plus optional a/b overrides.

    Every field but k must be a JSON number, k a JSON integer; a and b may
    be absent or null.
    """
    try:
        data = LFunctionData(
            factors=tuple(
                GammaFactor(
                    _number(f, "lambda", i),
                    complex(_number(f, "mu_re", i), _number(f, "mu_im", i, 0.0)),
                )
                for i, f in enumerate(obj["factors"])
            ),
            Q=_number(obj, "Q"),
            omega=complex(_number(obj, "omega_re"), _number(obj, "omega_im", default=0.0)),
            k=obj["k"],
            a1=_number(obj, "a1"),
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed L-function document: {exc}") from exc
    a, b = (None if obj.get(key) is None else _number(obj, key) for key in ("a", "b"))
    return data, select_strip(data.a1, a=a, b=b)


def document_dict(data: LFunctionData, strip: StripParams) -> dict:
    """Inverse of load_document (strip recorded explicitly)."""
    return {
        "factors": [
            {"lambda": f.lam, "mu_re": f.mu.real, "mu_im": f.mu.imag}
            for f in data.factors
        ],
        "Q": data.Q,
        "omega_re": data.omega.real,
        "omega_im": data.omega.imag,
        "k": data.k,
        "a1": data.a1,
        "a": strip.a,
        "b": strip.b,
    }
