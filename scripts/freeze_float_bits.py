#!/usr/bin/env python3
"""Freeze the exact bits of the pipeline's floats, to show a rewrite changes none.

Writes one line per value set, each number as float.hex:

* ``report i``: the 18 BoundReport fields of bound_report for seeded datum i,
  for 64 data covering 1-8 gamma factors, a1 in {1, 2, 10, 100}, pole
  order k in {0, 1, 2} and both branches (alpha 0 and 1), with T0 in
  [h, 10 h] (h the datum's smallest admissible height) and T in (T0, 1000 T0];
* ``table N kappa``: the six pipeline_constants of the newform (N, kappa),
  for the 25 bundled rows and then 100 seeded pairs.

Standard library only.  Run from the repository root:

    PYTHONPATH=src python scripts/freeze_float_bits.py > tests/data/float_bits.txt

tests/test_float_bits.py recomputes every line and requires the committed
file byte for byte.
"""

from __future__ import annotations

import math
import random
import sys
from importlib import resources

from zerobound.bounds import bound_report
from zerobound.newform import NewformSpec, pipeline_constants, read_pairs_csv
from zerobound.selberg import GammaFactor, LFunctionData, min_admissible_height, select_strip

SEED = 20171
REPORT_FIELDS = (
    "T0", "T", "S", "R1", "V_star_T0", "V_star_T", "R2_T0", "R2_T", "alpha", "h1", "h2",
    "R_total", "c1_main", "c2_main", "c3_main", "c1_dbl", "c2_dbl", "c3_dbl",
)


def _hex(numbers) -> str:
    return " ".join(float.hex(float(x)) for x in numbers)


def _datum(rng: random.Random, factors: int, a1: float, k: int, im_max: float) -> LFunctionData:
    """A datum with lam in [1/2, 2], Re mu in [0, 12], |Im mu| <= im_max, Q log-uniform."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return LFunctionData(
        factors=tuple(
            GammaFactor(
                rng.uniform(0.5, 2.0), complex(rng.uniform(0.0, 12.0), rng.uniform(-im_max, im_max))
            )
            for _ in range(factors)
        ),
        Q=math.exp(rng.uniform(math.log(0.05), math.log(100.0))),
        omega=complex(math.cos(angle), math.sin(angle)),
        k=k,
        a1=a1,
    )


def lines() -> list[str]:
    """Every frozen line, in file order."""
    rng = random.Random(SEED)
    out = []
    for i in range(64):
        # |Im mu| up to 80 in the second half, where the interpolation branch
        # (alpha = 1) is taken for some data
        im_max = 5.0 if i < 32 else 80.0
        data = _datum(rng, 1 + i % 8, (1.0, 2.0, 10.0, 100.0)[i // 8 % 4], i % 3, im_max)
        strip = select_strip(data.a1)
        t0 = min_admissible_height(data, strip).value * (1.0 + 9.0 * rng.random())
        t = t0 * (1.0 + 999.0 * (1.0 - rng.random()))
        report = bound_report(data, strip, t0, t)
        out.append(f"report {i} " + _hex(getattr(report, f) for f in REPORT_FIELDS))
    bundled = resources.files("zerobound.data").joinpath("table_pairs.csv").read_text("utf-8")
    specs = read_pairs_csv(bundled)
    specs += [NewformSpec(rng.randint(1, 10_000), 2 * rng.randint(1, 32)) for _ in range(100)]
    for spec in specs:
        out.append(f"table {spec.level} {spec.weight} " + _hex(pipeline_constants(spec)))
    return out


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in lines()))
