"""Second, independently coded route to the six newform constants, for cross-checks.

Criterion 3 and test_newform compare it with zerobound.newform.pipeline_constants;
the shipped numbers always come from the pipeline.
"""

import math

from zerobound import NewformSpec


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
