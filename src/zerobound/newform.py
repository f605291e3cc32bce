"""Holomorphic-newform instantiation and the published constants table.

A newform of even weight kappa and level N has a degree-2 L-function with
one gamma factor Gamma(s + (kappa-1)/2), conductor factor sqrt(N)/(2 pi),
root number i^kappa and Deligne bound a1 = 1, which fixes the strip at
(a, b) = (3, -4) and the admissible height at 15 + kappa.  The pipeline
runs in floats, so NewformSpec also bounds the sizes: the level must
convert to a float (N < about 1.8e308) and the height 15 + kappa must be a
float exactly (kappa <= 2^53 - 16).

table_row runs these data through the generic pipeline.  An independent
route that re-states all six constants directly in (N, kappa) lives with
the tests (tests/closed_forms.py) and exists purely to cross-check the
generic assembly.
"""

from __future__ import annotations

import csv
import functools
import io
import math

from .bounds import ceil_guarded, doubling_coefficients, window_coefficients
from .errors import ValidationError, _value_text
from .selberg import GammaFactor, LFunctionData, StripParams, _Value, select_strip

#: CSV header shared by table_generate and the CLI
TABLE_HEADER = ("N", "kappa", "T0", "cL1", "cL2", "cL3", "c1", "c2", "c3")

_I_POWERS = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}

#: largest min_height allowed: every integer up to 2^53 is a float, larger ones can round down
_MAX_EXACT_HEIGHT = 2 ** 53


class NewformSpec(_Value):
    """Level and weight of a holomorphic newform.

    The level is a positive integer that converts to a float; the weight is
    even, with 2 <= weight <= 2^53 - 16.
    """

    __match_args__ = _fields = ("level", "weight")

    def __init__(self, level: int, weight: int) -> None:
        n, w = level, weight
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValidationError(f"level must be a positive integer, got {_value_text(n)}")
        if isinstance(w, bool) or not isinstance(w, int) or w < 2 or w % 2:
            raise ValidationError(f"weight must be an even integer >= 2, got {_value_text(w)}")
        try:
            float(n)
        except OverflowError:
            raise ValidationError(f"level is too large to convert to a float "
                                  f"({n.bit_length()} bits)") from None
        if 15 + w > _MAX_EXACT_HEIGHT:
            raise ValidationError(f"weight must be <= {_MAX_EXACT_HEIGHT - 16}, "
                                  f"so that the height 15 + weight is exact in a float")
        object.__setattr__(self, "level", n)
        object.__setattr__(self, "weight", w)

    @property
    def min_height(self) -> int:
        """Smallest admissible height, 15 + weight.

        The weight limit keeps it at most 2^53, so float(min_height) is
        exact; a larger height could round below its own gamma-shift
        threshold.
        """
        return 15 + self.weight


def newform_params(spec: NewformSpec) -> LFunctionData:
    """Functional-equation datum of the normalized newform L-function."""
    return LFunctionData(
        factors=(GammaFactor(1.0, complex((spec.weight - 1) / 2.0, 0.0)),),
        Q=math.sqrt(spec.level) / (2.0 * math.pi),
        omega=_I_POWERS[spec.weight % 4],
        k=0,
        a1=1.0,
    )


@functools.cache
def newform_strip() -> StripParams:
    """The (3, -4) strip; a1 = 1 admits it and the integer search finds it.

    Every newform has a1 = 1, so the strip is selected once per process:
    the first call runs select_strip(1.0) with both of its tail-sum checks,
    and later calls return that same frozen value.  Two threads that make
    the first call together may both select it; they get equal strips.
    """
    return select_strip(1.0)


def pipeline_constants(spec: NewformSpec) -> tuple[float, float, float, float, float, float]:
    """The six pre-ceiling constants via the generic pipeline."""
    data, strip, T0 = newform_params(spec), newform_strip(), float(spec.min_height)
    main, dbl = window_coefficients(data, strip, T0), doubling_coefficients(data, strip, T0)
    return (main.c1, main.c2, main.c3, dbl.c1, dbl.c2, dbl.c3)


def table_row(spec: NewformSpec) -> tuple[int, int, int, int, int, int]:
    """Ceilings of the six constants, in table column order."""
    label = f"(N={spec.level}, kappa={spec.weight})"
    return tuple(ceil_guarded(x, label=label) for x in pipeline_constants(spec))


def table_generate(specs: list[NewformSpec]) -> str:
    """CSV document with one row per spec, in input order."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TABLE_HEADER)
    for spec in specs:
        writer.writerow([spec.level, spec.weight, spec.min_height, *table_row(spec)])
    return out.getvalue()


def read_pairs_csv(text: str) -> list[NewformSpec]:
    """Parse an 'N,kappa' CSV (header required) into specs."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("empty pairs file") from None
    if [h.strip() for h in header[:2]] != ["N", "kappa"]:
        raise ValidationError(f"pairs file must start with header 'N,kappa', got {header!r}")
    specs = []
    for i, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            specs.append(NewformSpec(int(row[0]), int(row[1])))
        except (ValueError, IndexError) as exc:
            raise ValidationError(f"pairs file line {i}: {exc}") from exc
    return specs
