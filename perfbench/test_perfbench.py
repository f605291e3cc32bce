"""Tests of the benchmark itself: seeded inputs, failure counting, the tracer.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent


# --- seeded inputs ---------------------------------------------------------------

def test_generators_repeat_byte_for_byte():
    def draw(seed):
        rng = random.Random(seed)
        return (
            inputs.newform_pairs(rng),
            repr(inputs.datum_pool(rng)),
            inputs.report_window(rng, 27.0),
            inputs.format_zero_table(inputs.zero_table(rng, inputs.ZETA_MAIN, count=500), "zeta"),
        )

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_newform_pairs_stay_in_range():
    pairs = inputs.newform_pairs(random.Random(3), count=2000)
    assert all(1 <= n <= 10_000 and 2 <= k <= 64 and k % 2 == 0 for n, k in pairs)
    assert not inputs.GUARDED_PAIRS & set(pairs)


def test_zero_table_inverts_the_main_term_and_is_sorted():
    for main in (inputs.ZETA_MAIN, inputs.DELTA_MAIN):
        zeros = inputs.zero_table(random.Random(1), main, count=2000)
        assert zeros == sorted(zeros)
        for n, t in enumerate(zeros, start=1):
            assert abs(inputs.main_term(*main, t) - (n - 0.5)) <= 0.4 + 1e-9


def test_report_window_stays_admissible():
    rng = random.Random(5)
    for _ in range(1000):
        t0, t = inputs.report_window(rng, 20.0)
        assert 20.0 <= t0 <= 200.0 and t0 < t <= 1000.0 * t0


# --- failures are counted ----------------------------------------------------------

def _table(tmp_path):
    workload = workloads.Table(seed=1, workdir=tmp_path)
    workload.setup()
    return workload


def test_default_table_is_the_published_table(tmp_path):
    loop = run.run_loop(_table(tmp_path), seconds=0.0, first=0, min_ops=2)
    assert (loop.attempted, loop.failed) == (2, 0)


def test_wrong_output_is_counted(tmp_path, monkeypatch):
    workload = _table(tmp_path)
    monkeypatch.setattr(workload.zb.newform, "table_generate", lambda specs: workload.reference)
    loop = run.run_loop(workload, seconds=0.0, first=0, min_ops=3)
    # operation 0 asks for the published table and gets it; 1 and 2 do not
    assert (loop.attempted, loop.failed) == (3, 2)


def test_exception_is_counted(tmp_path, monkeypatch):
    workload = workloads.Report(seed=1, workdir=tmp_path)
    workload.setup()

    def broken(*args):
        raise workload.zb.errors.DomainError("injected")

    monkeypatch.setattr(workload.zb.bounds, "bound_report", broken)
    loop = run.run_loop(workload, seconds=0.0, first=0, min_ops=4)
    # one pass over the pool is one timed batch
    assert (loop.attempted, loop.failed) == (workload.batch, workload.batch)
    assert loop.ops_per_s == 0.0


def test_boundary_warning_is_counted(tmp_path, monkeypatch):
    workload = _table(tmp_path)
    real = workload.zb.newform.ceil_guarded
    # an integer sits inside the ceiling guard, so ceil_guarded warns
    monkeypatch.setattr(workload.zb.newform, "ceil_guarded", lambda x, label="": real(float(round(x)), label))
    loop = run.run_loop(workload, seconds=0.0, first=0, min_ops=2)
    assert (loop.attempted, loop.failed) == (2, 2)


def test_wrong_verify_count_is_counted(tmp_path, monkeypatch):
    workload = workloads.Verify(seed=2, workdir=tmp_path)
    workload.setup()
    assert run.run_loop(workload, seconds=0.0, first=0, min_ops=2).failed == 0

    original = workload.zb.zeros.count_window
    monkeypatch.setattr(workload.zb.zeros, "count_window", lambda z, t0, t: original(z, t0, t) + 1)
    assert run.run_loop(workload, seconds=0.0, first=2, min_ops=2).failed == 2


@pytest.mark.xfail(reason="zerobound defect: window_coefficients keeps the branch chosen at T0 "
                   "for every T, so c1 log T + c2 + c3/T < R_total here once T >~ 1000")
def test_report_check_holds_where_the_branch_flips(tmp_path):
    """About one sampled datum in 10^4 fails the report check; seed 21's pool holds one.

    This datum (one factor Gamma(0.514 s + 3.114 - 4.731i), Q = 0.2714,
    k = 1, a1 = 1) takes the reflection branch at T0 = 40, but the
    interpolation branch has the larger constant h1 and wins as T grows.
    """
    workload = workloads.Report(seed=1, workdir=tmp_path)
    workload.setup()
    selberg = workload.zb.selberg
    data = selberg.LFunctionData(
        factors=(selberg.GammaFactor(0.5142136767984119, complex(3.114226736890641, -4.730961797881934)),),
        Q=0.27142595341503667,
        omega=1.0,
        k=1,
        a1=1.0,
    )
    args = (data, selberg.select_strip(1.0), 40.0, 10_000.0)
    assert workload.check(args, workload.call(args))


# --- the tracer ----------------------------------------------------------------------

def test_tracer_changes_no_result_and_restores_bindings(tmp_path):
    workload = workloads.Report(seed=4, workdir=tmp_path)
    workload.setup()
    ops = [workload.next_input(i) for i in range(20)]
    untraced = [workload.call(args) for args in ops]
    modules = Tracer._package_modules()
    before = [dict(vars(m)) for m in modules]

    tracer = Tracer()
    tracer.install()
    try:
        assert [dict(vars(m)) for m in modules] != before
        traced = []
        for i, args in enumerate(ops):
            tracer.op_id = i
            traced.append(workload.call(args))
    finally:
        tracer.restore()

    assert traced == untraced
    assert [dict(vars(m)) for m in modules] == before
    stats = tracer.summary()
    # bound_report reaches derive_quantities only through other modules' calls
    assert stats["selberg.derive_quantities"]["calls"] == 25 * len(ops)
    assert stats["bounds.bound_report"]["calls"] == len(ops)
    assert "selberg.tail_sum" not in stats


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.names = ["outer", "inner"]
    # outer 0..100 with children 10..30 and 40..90; inner 40..90 has a child 50..60
    for name, start, end, parent in ((0, 0, 100, -1), (1, 10, 30, 0), (1, 40, 90, 0), (1, 50, 60, 2)):
        tracer.name.append(name)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.op.append(0)
    stats = tracer.summary()
    assert stats["outer"]["self_ns"] == 100 - 20 - 50
    assert stats["inner"]["self_ns"] == 20 + 40 + 10
    assert stats["inner"]["calls"] == 3


# --- the command ------------------------------------------------------------------------

def test_traced_run_reports_every_per_layer_metric(capsys):
    assert run.main(["--workload", "report", "--seed", "1", "--seconds", "0.4", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert result["metrics"]["selberg.derive_quantities.calls"]["value"] == 25.0
    assert result["metrics"]["selberg.tail_sum.calls"]["value"] == 0.0
    assert json.loads(lines[-2])["claim"] is None


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "report", "--seed", "1", "--seconds", "0.5", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["batch"] == 32 and info["samples"] >= run.MIN_SAMPLES
    assert result["attempted"] == info["samples"] * info["batch"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_cli_run_sees_the_layers_under_the_cli(capsys):
    assert run.main(["--workload", "cli", "--seed", "3", "--seconds", "0.5", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert metrics["selberg.tail_sum.calls"] > 0
    assert metrics["selberg.tail_sum.calls_per_select_strip"] == 2.0
    assert metrics["cli.interpreter_ms"] > 0 and metrics["cli.import_ms"] > 0
