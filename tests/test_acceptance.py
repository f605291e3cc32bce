"""Acceptance suite: the eight exit criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here, not calibrated elsewhere.
"""

import math
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest

from zerobound import (
    NewformSpec,
    check_bound,
    load_zeros,
    pipeline_constants,
    ratio_error_total,
    reflection_log_main,
    remainder_pair_bound,
    table_row,
    total_count_error,
    window_coefficients,
)
from zerobound import presets

from closed_forms import closed_form_constants
from lemma_oracles import edge_real_check, log1p_check, log_diff_check, log_linear_check, rotation_check
from table_golden import PUBLISHED_TABLE

SAMPLES_PER_LEMMA = 10_000
SAMPLES_REMAINDER = 1_000
SEED = 20240601


def _report(criterion, name):
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


# -- 1 ------------------------------------------------------------------------

def test_criterion_1_table_golden():
    start = time.perf_counter()
    rows = {pair: table_row(NewformSpec(*pair)) for pair in PUBLISHED_TABLE}
    elapsed = time.perf_counter() - start
    for pair, expected in PUBLISHED_TABLE.items():
        assert rows[pair] == expected, f"row {pair}: got {rows[pair]}, expected {expected}"
    # pre-ceiling values must sit safely away from integer boundaries
    for pair in PUBLISHED_TABLE:
        for value in pipeline_constants(NewformSpec(*pair)):
            assert abs(value - round(value)) >= 1e-6, f"boundary hazard at {pair}: {value!r}"
    assert elapsed < 1.0, f"table generation took {elapsed:.3f}s (budget 1s)"
    _report(1, f"table golden, 25 rows in {elapsed * 1000:.0f} ms")


# -- 2 ------------------------------------------------------------------------

def test_criterion_2_doubling_leading_column():
    expected = 299.0 / math.log(2.0)  # = 431.36582..., ceiling 432
    for pair in PUBLISHED_TABLE:
        pre = pipeline_constants(NewformSpec(*pair))[3]
        assert math.ceil(pre) == 432
        assert pre == pytest.approx(expected, rel=1e-12)
        assert 431.36 < pre < 431.37
    _report(2, f"doubling c1 column constant at ceil({expected:.4f}) = 432")


# -- 3 ------------------------------------------------------------------------

def test_criterion_3_dual_path_agreement():
    columns = ("cL1", "cL2", "cL3", "c1", "c2", "c3")
    worst = 0.0
    for pair in PUBLISHED_TABLE:
        spec = NewformSpec(*pair)
        for name, a, b in zip(columns, pipeline_constants(spec), closed_form_constants(spec)):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9), (
                f"{name} diverges at {pair}: pipeline {a!r} vs closed form {b!r}"
            )
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
    _report(3, f"dual-path agreement, worst relative gap {worst:.2e}")


# -- 4 ------------------------------------------------------------------------

def test_criterion_4_lemma_property_suite():
    rng = np.random.default_rng(SEED)
    datasets = [presets.zeta()[0], presets.newform(1, 12)[0]]
    n = SAMPLES_PER_LEMMA

    # small-argument log bound
    radius = 0.4999 * np.sqrt(rng.uniform(1e-12, 1.0, size=n))
    angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
    for r, th in zip(radius, angle):
        assert log1p_check(complex(r * math.cos(th), r * math.sin(th))).holds

    # linear bound for |log(1 - xi)|
    mags = np.exp(rng.uniform(math.log(1e-6), math.log(50.0), size=n))
    signs = rng.choice([-1.0, 1.0], size=n)
    for x in mags * signs:
        assert log_linear_check(float(x)).holds

    # far-left paired log bound and the rotation bound, per dataset
    half = n // 2
    for data in datasets:
        sig_left = -3.0 - 47.0 * rng.uniform(0.0, 1.0, size=half)
        t_left = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=half))
        for s, t in zip(sig_left, t_left):
            assert log_diff_check(data, float(s), float(t)).holds

        sig_rot = rng.choice([-1.0, 1.0], size=half) * (1.0 + 49.0 * rng.uniform(size=half))
        t_rot = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=half))
        for s, t in zip(sig_rot, t_rot):
            assert rotation_check(data, float(s), float(t)).holds

        t_edge = np.exp(rng.uniform(0.0, math.log(1e4), size=half))
        for t in t_edge:
            assert edge_real_check(data, float(t)).holds

    # paired Stirling remainder bound against true remainders (mpmath oracle)
    mp.mp.dps = 30

    def true_w(z):
        z = mp.mpc(z)
        return mp.loggamma(z) - (z * mp.log(z) - z + mp.mpf(1) / 2 * mp.log(2 * mp.pi / z))

    per_data = n // len(datasets)
    for data in datasets:
        h = data.threshold_height
        sig = rng.uniform(-30.0, 30.0, size=per_data)
        t_vals = np.exp(rng.uniform(math.log(h), math.log(2e3), size=per_data))
        for s, t in zip(sig, t_vals):
            s, t = float(s), float(t)
            z = complex(s, t)
            for j, f in enumerate(data.factors):
                lhs = abs(true_w(-f.lam * z)) + abs(true_w(f.lam * z))
                assert lhs < remainder_pair_bound(data, j, s, t)

    _report(4, f"lemma oracles, {n} samples each, zero failures")


# -- 5 ------------------------------------------------------------------------

def test_criterion_5_reflection_remainder_envelope():
    mp.mp.dps = 30
    rng = np.random.default_rng(SEED + 1)
    for data, _strip in (presets.zeta(), presets.newform(1, 12)):
        h = data.threshold_height
        sig = rng.uniform(-20.0, 20.0, size=SAMPLES_REMAINDER)
        t_vals = np.exp(rng.uniform(math.log(h), math.log(1e4), size=SAMPLES_REMAINDER))
        for s, t in zip(sig, t_vals):
            s, t = float(s), float(t)
            z = mp.mpc(s, t)
            exact = (1 - 2 * mp.mpf(s)) * mp.log(mp.mpf(data.Q))
            for f in data.factors:
                exact += mp.re(
                    mp.loggamma(f.lam * (1 - z) + mp.conj(mp.mpc(f.mu)))
                    - mp.loggamma(f.lam * z + mp.mpc(f.mu))
                )
            gap = abs(float(exact) - reflection_log_main(data, s, t))
            envelope = ratio_error_total(data, s, t)
            assert gap <= envelope, f"remainder {gap} exceeds envelope {envelope} at ({s}, {t})"
    _report(5, f"reflection remainder within envelope, {SAMPLES_REMAINDER} samples per preset")


# -- 6 ------------------------------------------------------------------------

def test_criterion_6_coefficient_dominance():
    cases = [
        ("zeta", *presets.zeta(), 16.0),
        ("newform(1,12)", *presets.newform(1, 12), 27.0),
        ("newform(64,40)", *presets.newform(64, 40), 55.0),
    ]
    findings = []
    for name, data, strip, t0 in cases:
        coeffs = window_coefficients(data, strip, t0)
        grid = np.exp(np.linspace(math.log(t0 + 1.0), math.log(100.0 * t0), 60))
        for t in grid:
            t = float(t)
            r = total_count_error(data, strip, t0, t)
            bound = coeffs.evaluate(t)
            if bound < r * (1.0 - 1e-9):
                findings.append(
                    f"{name}: coefficient form {bound} < window bound {r} at T = {t}"
                )
    assert not findings, "dominance violations (paper-gap findings):\n" + "\n".join(findings)
    _report(6, "coefficient form dominates the window bound on all grids")


# -- 7 ------------------------------------------------------------------------

def test_criterion_7_zero_data_integration(zeta_zero_path):
    data, strip = presets.zeta()
    zeros = load_zeros(zeta_zero_path)
    for t in (20.0, 50.0, 100.0, 200.0):
        report = check_bound(data, strip, zeros, 16.0, t)
        assert report.pass_lemma and report.pass_theorem, f"failed at T = {t}"
    at_100 = check_bound(data, strip, zeros, 16.0, 100.0)
    assert at_100.deviation < 1.0
    assert at_100.r_total > 100.0
    _report(
        7,
        f"zeta zero data: deviation {at_100.deviation:.3f} at T=100, "
        f"window bound {at_100.r_total:.1f}",
    )


# -- 8 ------------------------------------------------------------------------

def test_criterion_8_table_determinism():
    cmd = [sys.executable, "-m", "zerobound.cli", "table", "--preset", "newform"]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert first == second and len(first) > 0
    _report(8, "byte-identical table output across runs")
