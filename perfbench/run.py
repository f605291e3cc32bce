"""zerobound benchmark: one closed-loop, single-client workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory.  With ``--trace 0`` the run is cut into rounds, each a
zerobound set-up followed by S/ROUNDS seconds of operations run back to back
(at least 100 timed batches in all).  ``setup_s`` is the median of the
rounds' set-ups and ``op_min_ms`` the lowest operation latency.  With
``--trace 1`` it sets up once, runs S/2 seconds untraced and S/2 seconds with
the layer tracer installed, and reports the per-layer metrics per operation;
afterwards it restores the original bindings, replays the first traced
operations untraced and requires identical outputs.

Every output is checked.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the machine, the seed and the sample count.  Spans of a
traced run are written to ``.perfbench/spans-<workload>.csv.gz``, replacing
those of the previous traced run of that workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

from tracer import Tracer
from workloads import ROOT, SRC, WORKLOADS, ZETA_FIXTURE

#: set-ups per untraced run, spread over it so that their median spans the
#: host's slow and fast spells
ROUNDS = 9
#: timed batches per untraced run, at the least
MIN_SAMPLES = 100
#: traced operations replayed untraced to show the tracer changes no result
REPLAYS = 5
OUT_DIR = ROOT / ".perfbench"

_FAILED = object()


class Loop:
    """Outcome of one closed loop of operations."""

    def __init__(self) -> None:
        self.latencies_ns: list[float] = []
        self.failed = 0
        self.elapsed_s = 0.0
        self.kept: list[tuple[object, object]] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.elapsed_s

    def extend(self, other: "Loop") -> None:
        self.latencies_ns += other.latencies_ns
        self.failed += other.failed
        self.elapsed_s += other.elapsed_s


def run_loop(workload, seconds: float, first: int, min_ops: int = 1, tracer=None, keep: int = 0) -> Loop:
    """Run operations first, first+1, ... until `seconds` have passed.

    Operations run in batches of ``workload.batch``, one at a time; each batch
    is timed as a whole and each of its operations is given the batch's mean
    latency, so that calls far shorter than a millisecond are timed together.
    """
    loop = Loop()
    clock = time.perf_counter_ns
    i = first
    begin = time.perf_counter()
    deadline = begin + seconds
    with warnings.catch_warnings():
        errors = sys.modules.get("zerobound.errors")
        if errors is not None:
            warnings.simplefilter("error", errors.BoundaryWarning)
        while True:
            batch = [workload.next_input(i + j) for j in range(workload.batch)]
            outs = []
            start = clock()
            for j, args in enumerate(batch):
                if tracer is not None:
                    tracer.op_id = i + j
                try:
                    outs.append(workload.call(args))
                except Exception:
                    if _FAILED not in outs and loop.failed == 0:
                        traceback.print_exc(file=sys.stderr)
                    outs.append(_FAILED)
            latency_ns = (clock() - start) / len(batch)
            if tracer is not None:
                tracer.op_id = -1
            for args, out in zip(batch, outs):
                loop.latencies_ns.append(latency_ns)
                if out is _FAILED or not _checked(workload, args, out):
                    loop.failed += 1
                elif len(loop.kept) < keep:
                    loop.kept.append((args, out))
            i += len(batch)
            if i - first >= min_ops and time.perf_counter() >= deadline:
                break
    loop.elapsed_s = time.perf_counter() - begin
    return loop


def _checked(workload, args, out) -> bool:
    try:
        return bool(workload.check(args, out))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def timed_rounds(workload, seconds: float) -> tuple[list[float], Loop]:
    """ROUNDS times: one timed set-up, then seconds/ROUNDS of operations."""
    setups, loop = [], Loop()
    per_round = -(-MIN_SAMPLES // ROUNDS) * workload.batch
    for _ in range(ROUNDS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        loop.extend(run_loop(workload, seconds / ROUNDS, first=loop.attempted, min_ops=per_round))
    return setups, loop


def peak_rss_mb() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is in bytes on macOS and in KiB elsewhere
    peak_bytes = usage.ru_maxrss if sys.platform == "darwin" else usage.ru_maxrss * 1024
    return peak_bytes / 2**20


def end_to_end(setups: list[float], loop: Loop) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "op_min_ms": min(loop.latencies_ns) / 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(workload, names: list[str], seconds: float) -> tuple[dict[str, float], list[Loop], bool]:
    """Untraced half, traced half, replay; per-layer values per traced operation."""
    plain = run_loop(workload, seconds / 2, first=0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(workload, seconds / 2, first=plain.attempted, tracer=tracer, keep=REPLAYS)
    finally:
        tracer.restore()
    same = all(workload.call(args) == out for args, out in traced.kept)
    if not same:
        print("traced and untraced outputs differ", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{workload.name}.csv.gz")

    stats = tracer.summary()
    ops = traced.attempted
    values = {"trace.overhead_ratio": traced.ops_per_s / plain.ops_per_s}
    cli_metrics = workload.layer_metrics() if hasattr(workload, "layer_metrics") else {}
    strips = stats.get("selberg.select_strip", {}).get("calls", 0)
    tail_in_strips = stats.get("selberg.tail_sum", {}).get("calls_from_select_strip", 0)
    for name in names:
        if name in values:
            continue
        if name.startswith("cli."):
            values[name] = cli_metrics.get(name, 0.0)
        elif name == "selberg.tail_sum.calls_per_select_strip":
            values[name] = tail_in_strips / strips if strips else 0.0
        else:
            span, field = name.rsplit(".", 1)
            entry = stats.get(span, {"calls": 0, "self_ns": 0})
            values[name] = entry["calls"] / ops if field == "calls" else entry["self_ns"] / ops / 1e6
    return values, [plain, traced], same


def run_info(args, batch: int, loops: list[Loop]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "batch": batch,
        "samples": sum(loop.attempted for loop in loops) // batch,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "claim": None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "zerobound" / "__init__.py", ZETA_FIXTURE) if not p.is_file()]
    if missing:
        print(f"perfbench: not a zerobound checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            workload.setup()
            values, loops, correct = per_layer(workload, [m["name"] for m in metrics], args.seconds)
        else:
            setups, loop = timed_rounds(workload, args.seconds)
            values, loops, correct = end_to_end(setups, loop), [loop], True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print(json.dumps(run_info(args, workload.batch, loops)))
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
