"""Holomorphic-newform instantiation and the published constants table.

A newform of even weight kappa and level N has a degree-2 L-function with
one gamma factor Gamma(s + (kappa-1)/2), conductor factor sqrt(N)/(2 pi),
root number i^kappa and Deligne bound a1 = 1, which fixes the strip at
(a, b) = (3, -4) and the admissible height at 15 + kappa.  The pipeline
runs in floats, so NewformSpec also bounds the sizes: the level must
convert to a float (N < about 1.8e308) and the height 15 + kappa must be a
float exactly (kappa <= 2^53 - 16).

pipeline_constants runs the generic window's float core on its weight's one
cached entry (level-1 datum, pieces, T0 and T0-level terms) and the level's
log(lambda Q^2): a row builds no datum, window or cache entry.  The tests
re-state all six constants in (N, kappa) (tests/closed_forms.py).
"""

from __future__ import annotations

import csv
import functools
import io
import math

from .bounds import _factor_pieces, _FactorPieces, _height, _window_floats, ceil_guarded
from .errors import ValidationError, _value_text
from .selberg import GammaFactor, LFunctionData, StripParams, _lambda_q2, _Value, select_strip

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

    def __init__(self, level: int, weight: int) -> None:
        n, w = level, weight
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValidationError(f"level must be a positive integer, got {_value_text(n, repr)}")
        if isinstance(w, bool) or not isinstance(w, int) or w < 2 or w % 2:
            raise ValidationError(f"weight must be an even integer >= 2, got {_value_text(w, repr)}")
        try:
            float(n)
        except OverflowError:
            raise ValidationError(f"level is too large to convert to a float "
                                  f"({n.bit_length()} bits)") from None
        if 15 + w > _MAX_EXACT_HEIGHT:
            raise ValidationError(f"weight must be <= {_MAX_EXACT_HEIGHT - 16}, "
                                  f"so that the height 15 + weight is exact in a float")
        self._set(level=n, weight=w)

    @property
    def min_height(self) -> int:
        """Smallest admissible height, 15 + weight.

        The weight limit keeps it at most 2^53, so float(min_height) is
        exact; a larger height could round below its own gamma-shift
        threshold.
        """
        return 15 + self.weight


def _conductor(level: int) -> float:
    """Q = sqrt(N) / (2 pi), the conductor factor of a newform of level N."""
    return math.sqrt(level) / (2.0 * math.pi)


#: the strip of every newform (a1 = 1)
_STRIP = select_strip(1.0)


@functools.lru_cache(maxsize=256)
def _weight_datum(weight: int) -> tuple[LFunctionData, _FactorPieces, float, tuple]:
    """(checked level-1 datum, its pieces, T0 = float(15 + weight), _height at T0); 256 kept."""
    factors = (GammaFactor(1.0, complex((weight - 1) / 2.0, 0.0)),)
    datum = LFunctionData(factors, _conductor(1), _I_POWERS[weight % 4], 0, 1.0)
    pieces, t0 = _factor_pieces(factors, _STRIP), float(15 + weight)
    return datum, pieces, t0, _height(pieces, datum.k, t0)


def newform_params(spec: NewformSpec) -> LFunctionData:
    """The newform's datum: its weight's level-1 datum with Q = sqrt(N) / (2 pi), by _set_q."""
    data = object.__new__(LFunctionData)
    data._set_q(vars(_weight_datum(spec.weight)[0]), _conductor(spec.level))
    return data


def newform_strip() -> StripParams:
    """The (3, -4) strip; a1 = 1 admits it and the integer search finds it.

    Every newform has a1 = 1, so the strip is selected once, when the module
    is imported, by select_strip(1.0) with both of its tail-sum checks; every
    call returns that same frozen value.
    """
    return _STRIP


def pipeline_constants(spec: NewformSpec) -> tuple[float, float, float, float, float, float]:
    """The six pre-ceiling constants: those of newform_params(spec)'s window at min_height."""
    datum, pieces, t0, height = _weight_datum(spec.weight)
    log_lq2 = math.log(_lambda_q2(datum.lambda_cap, _conductor(spec.level)))
    return _window_floats(pieces, datum.k, log_lq2, datum.log_a1_zeta2, t0, height)[-1]


def table_row(spec: NewformSpec) -> tuple[int, int, int, int, int, int]:
    """Ceilings of the six constants, in table column order."""
    label = f"(N={spec.level}, kappa={spec.weight})"
    return tuple(ceil_guarded(x, label=label) for x in pipeline_constants(spec))


def table_generate(specs: list[NewformSpec]) -> str:
    """CSV document with one row per spec, in input order; int fields need no quoting."""
    lines = [",".join(TABLE_HEADER)]
    for spec in specs:
        row = (spec.level, spec.weight, spec.min_height, *table_row(spec))
        lines.append(",".join(map(str, row)))
    return "\n".join(lines) + "\n"


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
