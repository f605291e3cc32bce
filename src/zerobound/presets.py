"""Ready-made functional-equation data for the CLI and the test suite."""

from __future__ import annotations

import math

from .newform import NewformSpec, newform_params, newform_strip
from .selberg import GammaFactor, LFunctionData, StripParams


def zeta() -> tuple[LFunctionData, StripParams]:
    """The Riemann-zeta-shaped datum.

    One factor Gamma(s/2), conductor factor pi^(-1/2), simple pole (k = 1),
    a1 = 1, so the newform strip (3, -4) applies and lambda Q^2 = 1/(2 pi).
    """
    data = LFunctionData(
        factors=(GammaFactor(0.5, 0j),),
        Q=1.0 / math.sqrt(math.pi),
        omega=1.0 + 0j,
        k=1,
        a1=1.0,
    )
    return data, newform_strip()


def newform(level: int, weight: int) -> tuple[LFunctionData, StripParams]:
    """Newform datum of the given level and even weight."""
    spec = NewformSpec(level, weight)
    return newform_params(spec), newform_strip()
