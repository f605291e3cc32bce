"""Holomorphic-newform instantiation and the published constants table.

A newform of even weight kappa and level N has a degree-2 L-function with
one gamma factor Gamma(s + (kappa-1)/2), conductor factor sqrt(N)/(2 pi),
root number i^kappa and Deligne bound a1 = 1, which fixes the strip at
(a, b) = (3, -4) and the admissible height at 15 + kappa.

table_row runs these data through the generic pipeline; the independent
closed_form_constants path re-states all six constants directly in
(N, kappa) and exists purely to cross-check the generic assembly (the
shipped numbers always come from the pipeline).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .bounds import ceil_guarded, doubling_coefficients, window_coefficients
from .errors import ValidationError
from .selberg import GammaFactor, LFunctionData, StripParams, select_strip

#: CSV header shared by table_generate and the CLI
TABLE_HEADER = ("N", "kappa", "T0", "cL1", "cL2", "cL3", "c1", "c2", "c3")

_I_POWERS = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}


@dataclass(frozen=True)
class NewformSpec:
    """Level and weight of a holomorphic newform (weight even, >= 2)."""

    level: int
    weight: int

    def __post_init__(self) -> None:
        if not isinstance(self.level, int) or self.level < 1:
            raise ValidationError(f"level must be a positive integer, got {self.level}")
        if not isinstance(self.weight, int) or self.weight < 2 or self.weight % 2:
            raise ValidationError(
                f"weight must be an even integer >= 2, got {self.weight}"
            )

    @property
    def min_height(self) -> int:
        """Smallest admissible height, 15 + weight."""
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


def newform_strip() -> StripParams:
    """The (3, -4) strip; a1 = 1 admits it and the integer search finds it.

    Strip selection costs a few fixed-size tail sums, so it is recomputed
    on each call rather than cached.
    """
    return select_strip(1.0)


def closed_form_constants(spec: NewformSpec) -> tuple[float, float, float, float, float, float]:
    """All six constants, written directly in (N, kappa).

    Second, independently coded route used only to cross-validate the
    generic pipeline; any disagreement indicates a transcription error in
    one of the two.  Returns (cL1, cL2, cL3, c1, c2, c3) pre-ceiling.
    """
    n = float(spec.level)
    kap = float(spec.weight)
    log2 = math.log(2.0)
    pi = math.pi
    t0 = 15.0 + kap

    def sec_sq_half_arg(re: float, im: float) -> float:
        return 1.0 / math.cos(math.atan2(im, re) / 2.0) ** 2

    sec_b = sec_sq_half_arg(4.0, kap + 1.0)      # at -b
    sec_b1 = sec_sq_half_arg(3.0, kap + 1.0)     # at -b - 1
    sec_left = sec_sq_half_arg(-17.0, kap + 1.0)  # at -a - 2R
    log_nq = math.log(n / (4.0 * pi * pi))
    max_log = max(2.5 * log_nq, 11.5 * log_nq)

    cl1 = 299.0 / (2.0 * log2) + 1.0 / (2.0 * pi) * (
        3.0 * kap * kap - 2.0 * kap + 217.0 / 3.0 + (sec_b + sec_b1) / 12.0
    )
    cl2 = (
        t0 / pi * math.log(t0 / math.e)
        + t0 / (2.0 * pi) * abs(log_nq)
        + pi / (3.0 * log2)
        + 353.0 / 2.0
        + 36.0 / (pi * t0)
        + abs((kap - 7.0) / 2.0)
        + 72.0 / (2.0 * pi * t0)
        - math.log(t0) / (2.0 * pi) * (
            (9.0 * kap * kap - 6.0 * kap + 217.0) / 3.0 + (sec_b + sec_b1) / 12.0
        )
        + 13.0 / (12.0 * (1.0 + kap) * log2) * (
            9.0 * kap * kap - 6.0 * kap + 10.0 + sec_left / 2.0
        )
        + 299.0 / (2.0 * log2) * (
            math.log(30.0 + 2.0 * kap) + abs(complex(1.0, -17.0 / (kap + 1.0)))
        )
        + 13.0 / (2.0 * log2) * (
            2.0 * math.log(pi * pi / 6.0) + 2.0 * max_log + 83.0
        )
    )
    cl3 = (
        13.0 / (12.0 * log2)
        * t0 / (1.0 + kap)
        * (9.0 * kap * kap - 6.0 * kap + 2356.0 + sec_left / 2.0)
    )
    c1 = 299.0 / log2
    c2 = (
        2.0 * pi / (3.0 * log2)
        + 923.0
        + log2 / (6.0 * pi) * (
            9.0 * kap * kap - 6.0 * kap + 217.0 + (sec_b + sec_b1) / 4.0
        )
        + 13.0 / log2 * (math.log(pi * pi / 6.0) + max_log + 53.0)
    )
    c3 = (
        18.0 / pi
        + 13.0 * t0 * (17.0 + 3.0 * kap) / (4.0 * (1.0 + kap) * (8.0 + kap) * log2)
        * (
            (9.0 * kap * kap - 6.0 * kap + 10.0 + sec_left / 2.0) / (6.0 * (1.0 + kap))
            + 391.0
        )
    )
    return (cl1, cl2, cl3, c1, c2, c3)


def pipeline_constants(spec: NewformSpec) -> tuple[float, float, float, float, float, float]:
    """The six pre-ceiling constants via the generic pipeline."""
    data = newform_params(spec)
    strip = newform_strip()
    t0 = float(spec.min_height)
    main = window_coefficients(data, strip, t0)
    dbl = doubling_coefficients(data, strip, t0)
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
