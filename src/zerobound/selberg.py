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

Every value type is immutable (see _Value); every function is pure.
"""

from __future__ import annotations

import cmath
import math
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


def _convert(convert, value: object, name: str):
    """convert(value), or a ValidationError naming name if value is past the float range."""
    try:
        return convert(value)
    except OverflowError:  # an int too large for a float
        raise ValidationError(
            f"{name} is too large to convert to a float, got {_value_text(value)}"
        ) from None


class _Value:
    """The behaviour the package's immutable value types share.

    A subclass names its constructor's arguments in __match_args__ and its
    fields, in order, in _fields (two or more); its __init__ checks its
    arguments and sets each field with object.__setattr__.  repr shows the
    fields as name=value; == between two instances of one class, and hash,
    use the tuple of the fields' values; every assignment or deletion of an
    attribute raises dataclasses.FrozenInstanceError.  GammaFactor,
    LFunctionData and StripParams, whose hash and == every window-memo
    lookup meets, write both out: attribute reads in the method body run
    about twice as fast as the generic attrgetter.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
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


class GammaFactor(_Value):
    """One factor Gamma(lam * s + mu) of the completed series.

    lam must be a finite positive real and mu finite with Re(mu) >= 0.
    """

    __match_args__ = _fields = ("lam", "mu")

    def __init__(self, lam: float, mu: complex) -> None:
        lam = _convert(float, lam, "gamma factor lam")
        mu = _convert(complex, mu, "gamma factor mu")
        if not 0.0 < lam < math.inf:
            raise ValidationError(f"gamma factor needs finite lam > 0, got {lam}")
        if not (cmath.isfinite(mu) and mu.real >= 0.0):
            raise ValidationError(f"gamma factor needs finite mu with Re(mu) >= 0, got {mu}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lam, self.mu) == (other.lam, other.mu)

    def __hash__(self) -> int:
        return hash((self.lam, self.mu))


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
    Construction also computes the data-only invariants below, once, as
    plain attributes; they are left out of repr, == and hash, which see the
    five fields only.  The hash of those five is computed there too, so a
    memo lookup keyed by the datum does not hash its factors again.  A datum
    whose invariants overflow a float is rejected.

    Invariants
    ----------
    degree           : d = 2 * sum_j lam_j
    lambda_cap       : prod_j lam_j^(2 lam_j)
    lambda_q2        : lambda_cap * Q^2, the combination entering every main term
    mu_cap           : 4 * sum_j (1/2 - mu_j); only its imaginary part enters a bound
    shift_max        : max_j 2|lam_j + conj(mu_j)| / lam_j, the gamma-shift admissibility term
    arg_max          : max_j 2|mu_j| / lam_j, the gamma-argument admissibility term
    threshold_height : max(shift_max, arg_max); every gamma-ratio bound is
                       valid for ordinates at or above it, and it is the
                       imaginary part pinned inside all the secant arguments
    series_blocks    : per factor |l|^2 + 2|l(l - 1/2)| + |mu|^2 + 2|mu(mu - 1/2)|,
                       l = lam + conj(mu), the truncated-logarithm part of
                       that factor's gamma-ratio error
    """

    __match_args__ = _fields = ("factors", "Q", "omega", "k", "a1")

    def __init__(
        self, factors: tuple[GammaFactor, ...], Q: float, omega: complex, k: int, a1: float
    ) -> None:
        factors = tuple(factors)
        Q = _convert(float, Q, "Q")
        omega = _convert(complex, omega, "omega")
        a1 = _convert(float, a1, "a1")
        if not factors:
            raise ValidationError("need at least one gamma factor")
        if not all(isinstance(f, GammaFactor) for f in factors):
            raise ValidationError("factors must be GammaFactor instances")
        if not 0.0 < Q < math.inf:
            raise ValidationError(f"Q must be positive and finite, got {Q}")
        if not abs(abs(omega) - 1.0) <= OMEGA_MODULUS_TOL:
            raise ValidationError(f"|omega| must be 1, got |{omega}| = {abs(omega)}")
        if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k <= 10 ** 15:
            raise ValidationError(
                f"pole order k must be an integer in [0, 10^15], got {_value_text(k, repr)}"
            )
        if not 1.0 <= a1 < math.inf:
            raise ValidationError(f"a1 must be finite and >= 1, got {a1}")
        degree = 2.0 * math.fsum(f.lam for f in factors)
        if degree < 1.0:
            raise ValidationError(f"degree {degree} < 1; degenerate data is rejected")
        try:
            lambda_cap = math.prod(f.lam ** (2.0 * f.lam) for f in factors)
        except OverflowError:  # lam ** (2 lam) for a large lam
            raise ValidationError("lambda Q^2 overflows a float") from None
        lambda_q2 = lambda_cap * Q * Q
        if not 0.0 < lambda_q2 < math.inf:
            raise ValidationError(f"lambda Q^2 = {lambda_q2} is not a positive finite float")
        mu_cap = sum((4.0 * (0.5 - f.mu) for f in factors), 0j)
        try:
            shift_max = max(2.0 * abs(f.lam + f.mu.conjugate()) / f.lam for f in factors)
            arg_max = max(2.0 * abs(f.mu) / f.lam for f in factors)
            series_blocks = tuple(
                abs(lm) ** 2 + 2.0 * abs(lm * (lm - 0.5)) + abs(mu) ** 2 + 2.0 * abs(mu * (mu - 0.5))
                for lm, mu in ((f.lam + f.mu.conjugate(), f.mu) for f in factors)
            )
            if math.inf in series_blocks:  # a sum of finite terms rounded to inf
                raise OverflowError
        except OverflowError:  # |lam + conj(mu)|, |mu| or a square of them for a large mu
            raise ValidationError(
                "a gamma factor's series block overflows a float (|mu| is too large)"
            ) from None
        for name, value in (
            ("factors", factors),
            ("Q", Q),
            ("omega", omega),
            ("k", k),
            ("a1", a1),
            ("degree", degree),
            ("lambda_cap", lambda_cap),
            ("lambda_q2", lambda_q2),
            ("mu_cap", mu_cap),
            ("shift_max", shift_max),
            ("arg_max", arg_max),
            ("threshold_height", max(shift_max, arg_max)),
            ("series_blocks", series_blocks),
            ("_hash", hash((factors, Q, omega, k, a1))),
        ):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.factors, self.Q, self.omega, self.k, self.a1) == (
            other.factors, other.Q, other.omega, other.k, other.a1
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def f(self) -> int:
        """Number of gamma factors."""
        return len(self.factors)


def tail_sum(x: float, a1: float) -> float:
    """Upper bound for sum_{n>=2} a1 * n^-x, at one cost for every x and a1.

    The Euler-Maclaurin sum with N = _TAIL_TERMS, cut after the B2 term:
    a1 * (sum_{2<=n<N} n^-x + N^(1-x)/(x-1) + N^-x/2 + x N^(-x-1)/12).
    As n^-x is completely monotone, the remainder has the sign of the
    omitted B4 term, -x(x+1)(x+2) N^(-x-3)/720 < 0, so the cut sum exceeds
    the series, by < 1e-13 for x >= 2.  The factor 1 + 1e-14 keeps it above
    after rounding the head, which outgrows that surplus for large x.  Terms
    below 2^-1074 underflow to 0.

    Raises DomainError for x <= 1 (divergent series) or non-finite x.
    """
    if not 1.0 < x < math.inf:
        raise DomainError(f"tail sum needs a finite exponent x > 1, got {x}")
    n = _TAIL_TERMS
    head = math.fsum(map(pow, _TAIL_BASES, repeat(-x)))
    rest = n ** (1.0 - x) / (x - 1.0) + n ** -x / 2.0 + x * n ** (-x - 1.0) / 12.0
    return a1 * (head + rest) * (1.0 + 1e-14)


class StripParams(_Value):
    """Abscissae of the counting rectangle: a > 2, b < -3, R = a - b.

    Construct through select_strip so the two tail-sum conditions are
    actually verified; the constructor itself only checks the cheap shape
    invariants.
    """

    __match_args__ = _fields = ("a", "b", "R")

    def __init__(self, a: float, b: float, R: float) -> None:
        a, b, R = float(a), float(b), float(R)
        if not a > 2.0:
            raise InvalidStripError(f"strip needs a > 2, got a = {a}")
        if not b < -3.0:
            raise InvalidStripError(f"strip needs b < -3, got b = {b}")
        if R != a - b:
            raise InvalidStripError(f"R must equal a - b, got R = {R}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "R", R)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b, self.R) == (other.a, other.b, other.R)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.R))


def select_strip(a1: float, a: float | None = None, b: float | None = None) -> StripParams:
    """Choose (or validate) the strip abscissae for a given a1 >= 1.

    Without overrides, a is the smallest integer > 2 with
    tail_sum(a, a1) < 1/2 and b the largest integer < -3 with
    tail_sum(-b - 1, a1) < 1, matching the worked choices a1 = 1 ->
    (a, b) = (3, -4).  Overrides are accepted if they satisfy the same
    two inequalities; a violation raises InvalidStripError naming the
    failed condition.
    """
    if a1 < 1.0:
        raise ValidationError(f"a1 must be >= 1, got {a1}")

    if a is None:
        n = 3
        while tail_sum(float(n), a1) >= 0.5:
            n += 1
        a = float(n)
    else:
        a = float(a)
        if not 2.0 < a < math.inf:
            raise InvalidStripError(f"override a = {a} does not satisfy a > 2 or is not finite")
        if not (tail := tail_sum(a, a1)) < 0.5:
            raise InvalidStripError(f"override a = {a} fails tail_sum(a, a1) < 1/2 (got {tail})")

    if b is None:
        n = -4
        while tail_sum(float(-n - 1), a1) >= 1.0:
            n -= 1
        b = float(n)
    else:
        b = float(b)
        if not -math.inf < b < -3.0:
            raise InvalidStripError(f"override b = {b} does not satisfy b < -3 or is not finite")
        if not (tail := tail_sum(-b - 1.0, a1)) < 1.0:
            raise InvalidStripError(f"override b = {b} fails tail_sum(-b-1, a1) < 1 (got {tail})")

    return StripParams(a=a, b=b, R=a - b)


def threshold_height(data: LFunctionData) -> float:
    """max over factors of max(2|lam + conj(mu)|/lam, 2|mu|/lam), computed at construction."""
    return data.threshold_height


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

    __match_args__ = _fields = ("value", "binding", "strict_adjusted")

    def __init__(self, value: float, binding: str, strict_adjusted: bool) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "binding", binding)
        object.__setattr__(self, "strict_adjusted", strict_adjusted)

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


def _constraints(data: LFunctionData, strip: StripParams) -> list[tuple[str, float, bool]]:
    """(name, threshold, is_strict) triples for the admissibility of T, thresholds rounded up."""
    two_r = 2.0 * strip.R
    cons = [
        ("base-window", _sum_up(two_r, 1.0), False),
        ("gamma-shift", _sum_up(two_r, data.shift_max), False),
    ]
    if data.k > 0:
        cons.append(("pole-window", _sum_up(two_r, _pole_window(data.k)), False))
    cons.append(("gamma-argument", _sum_up(two_r, data.arg_max), True))
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
    cons = _constraints(data, strip)
    weak = [(name, val) for name, val, strict in cons if not strict]
    strict = [(name, val) for name, val, strict in cons if strict]
    name, value = max(weak, key=lambda c: c[1])
    for sname, sval in strict:
        if sval >= value:
            return AdmissibleHeight(
                value=math.nextafter(sval, math.inf), binding=sname, strict_adjusted=True
            )
    return AdmissibleHeight(value=value, binding=name, strict_adjusted=False)


def require_admissible(data: LFunctionData, strip: StripParams, T: float, label: str = "T") -> None:
    """Raise AdmissibilityError naming the first constraint T violates, or if T is not finite."""
    if not math.isfinite(T):
        raise AdmissibilityError(f"{label} = {T} is not a finite height")
    for name, val, strict in _constraints(data, strip):
        if strict:
            ok = T > val
            rel = ">"
        else:
            ok = T >= val
            rel = ">="
        if not ok:
            raise AdmissibilityError(
                f"{label} = {T} violates the '{name}' constraint (needs {label} {rel} {val})"
            )


def main_term(data: LFunctionData, T: float) -> float:
    """Smooth zero-count term (d / 2 pi) T log(T/e) + (T / 2 pi) log(lambda Q^2)."""
    if not 0.0 < T < math.inf:
        raise DomainError(f"main term needs finite T > 0, got {T}")
    d, lq2 = data.degree, data.lambda_q2
    return d / (2.0 * math.pi) * T * math.log(T / math.e) + T / (2.0 * math.pi) * math.log(lq2)


def load_document(obj: dict) -> tuple[LFunctionData, StripParams]:
    """Parse the CLI interchange document: datum plus optional a/b overrides.

    k must be a JSON integer.
    """
    try:
        data = LFunctionData(
            factors=tuple(
                GammaFactor(f["lambda"], complex(f["mu_re"], f.get("mu_im", 0.0)))
                for f in obj["factors"]
            ),
            Q=obj["Q"],
            omega=complex(obj["omega_re"], obj.get("omega_im", 0.0)),
            k=obj["k"],
            a1=obj["a1"],
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed L-function document: {exc}") from exc
    a, b = obj.get("a"), obj.get("b")
    if not all(v is None or type(v) in (int, float) for v in (a, b)):
        raise InvalidStripError(f"strip overrides must be JSON numbers, got a = {a!r}, b = {b!r}")
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
