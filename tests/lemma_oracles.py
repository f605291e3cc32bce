"""Inequality oracles for the small analytic lemmas the bound assembly relies on.

Each *_check evaluates both sides of one inequality; the test suite
batters them with random admissible inputs.  Nothing in the package calls
them, so they live with the tests.
"""

import cmath
import math
from dataclasses import dataclass

from zerobound import DomainError, LFunctionData


@dataclass(frozen=True)
class InequalityCheck:
    """Both sides of one analytic inequality; holds means lhs < rhs."""

    lhs: float
    rhs: float
    holds: bool


def _check(lhs: float, rhs: float) -> InequalityCheck:
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=lhs < rhs)


def log1p_check(z: complex) -> InequalityCheck:
    """|log(1 + z)| < 2|z| for |z| < 1/2."""
    z = complex(z)
    if not abs(z) < 0.5:
        raise DomainError(f"needs |z| < 1/2, got |z| = {abs(z)}")
    return _check(abs(cmath.log(1.0 + z)), 2.0 * abs(z))


def log_linear_check(x: float) -> InequalityCheck:
    """|log(1 - x i)| < 7|x| for real x != 0."""
    if x == 0.0:
        raise DomainError("the linear bound is strict; x = 0 is excluded")
    return _check(abs(cmath.log(complex(1.0, -x))), 7.0 * abs(x))


def log_diff_check(data: LFunctionData, sigma: float, t: float) -> InequalityCheck:
    """Paired log-term bound used on the far left edge (sigma < -3, t > 0)."""
    if not sigma < -3.0:
        raise DomainError(f"needs sigma < -3, got {sigma}")
    if not t > 0.0:
        raise DomainError(f"needs t > 0, got {t}")
    d, im = data.degree, data.mu_cap.imag
    l1 = cmath.log(1.0 - complex(0.0, sigma) / t)
    l2 = cmath.log(1.0 - complex(0.0, sigma + 1.0) / t)
    lhs = abs(
        (
            l1 * complex(d * (0.5 - sigma), im / 2.0)
            - l2 * complex(d * (-0.5 - sigma), im / 2.0)
        ).real
    )
    rhs = 2.0 / t * abs(complex(-d * sigma, im / 2.0)) - 7.0 * d / (2.0 * t) * (2.0 * sigma + 1.0)
    return _check(lhs, rhs)


def rotation_check(data: LFunctionData, sigma: float, t: float) -> InequalityCheck:
    """Rotation-term bound d(3(sigma^2+sigma)/t^2 + 2/t) for |sigma| >= 1, t > 0."""
    if not abs(sigma) >= 1.0:
        raise DomainError(f"needs |sigma| >= 1, got {sigma}")
    if not t > 0.0:
        raise DomainError(f"needs t > 0, got {t}")
    d = data.degree
    l1 = cmath.log(1.0 - complex(0.0, sigma) / t)
    l2 = cmath.log(1.0 - complex(0.0, sigma + 1.0) / t)
    lhs = abs((-d - d * l1 * 1j * t + d * l2 * 1j * t).real)
    rhs = d * (3.0 * (sigma * sigma + sigma) / (t * t) + 2.0 / t)
    return _check(lhs, rhs)


def edge_real_check(data: LFunctionData, t: float) -> InequalityCheck:
    """Left-edge real-part bound ((5 sqrt 5 + 4)/2) d + |Im mu_cap| for t >= 1."""
    if not t >= 1.0:
        raise DomainError(f"needs t >= 1, got {t}")
    d, im = data.degree, data.mu_cap.imag
    lhs = (
        cmath.log(1.0 + 2j / t) * complex(2.5 * d, -d * t + im / 2.0)
    ).real
    rhs = (5.0 * math.sqrt(5.0) + 4.0) / 2.0 * d + abs(im)
    return _check(lhs, rhs)
