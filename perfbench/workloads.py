"""The four workloads: their set-up, one operation, and the check of its output.

Each workload has the same shape:

* ``__init__(seed, workdir)`` makes the benchmark's own inputs (not timed);
* ``setup()`` does everything zerobound must do before the first operation:
  the import, strip selection for the input pool, preset construction.
  It is timed as ``setup_s`` and may run several times;
* ``next_input(i)`` draws the inputs of operation i from the seeded stream;
* ``call(inputs)`` is the timed operation; ``batch`` operations in a row are
  timed together;
* ``check(inputs, output)`` says whether the output is right.

Calls into zerobound go through module attributes looked up at call time,
so the tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import random
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from pathlib import Path
from types import SimpleNamespace

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REF = Path(__file__).resolve().parent / "ref"
ZETA_FIXTURE = ROOT / "tests" / "data" / "zeta_zeros_200.txt"

MODULES = ("selberg", "gammabounds", "bounds", "newform", "zeros", "cli", "presets", "errors")


def import_zerobound() -> SimpleNamespace:
    """Import zerobound afresh from the checkout, so each set-up pays the import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "zerobound" or k.startswith("zerobound.")]:
        del sys.modules[key]
    zb = SimpleNamespace(**{name: importlib.import_module(f"zerobound.{name}") for name in MODULES})
    if Path(zb.selberg.__file__).resolve().parent != SRC / "zerobound":
        raise RuntimeError(f"imported zerobound from {zb.selberg.__file__}, not from {SRC}")
    return zb


class Table:
    """One table_generate over 25 (N, kappa) pairs; operation 0 is the published table."""

    name = "table"
    batch = 1
    HEADER = "N,kappa,T0,cL1,cL2,cL3,c1,c2,c3"
    #: doubling-window c1 = ceil(299 / log 2) for every pair
    DOUBLING_C1 = math.ceil(299.0 / math.log(2.0))

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.reference = (REF / "table.out").read_text(encoding="utf-8")
        rows = [[int(x) for x in line.split(",")] for line in self.reference.splitlines()[1:]]
        self.bundled = [(row[0], row[1]) for row in rows]
        #: cL1, cL3 and c3 depend on kappa alone; seeded from the published rows
        self.by_weight = {row[1]: (row[3], row[5], row[8]) for row in rows}

    def setup(self) -> None:
        self.zb = import_zerobound()

    def next_input(self, i: int) -> list[tuple[int, int]]:
        return self.bundled if i == 0 else inputs.newform_pairs(self.rng)

    def call(self, pairs):
        newform = self.zb.newform
        return newform.table_generate([newform.NewformSpec(n, k) for n, k in pairs])

    def check(self, pairs, out: str) -> bool:
        if pairs is self.bundled:
            return out == self.reference
        lines = out.splitlines()
        if lines[0] != self.HEADER or len(lines) != len(pairs) + 1:
            return False
        for (level, weight), line in zip(pairs, lines[1:]):
            row = [int(x) for x in line.split(",")]
            if row[:3] != [level, weight, 15 + weight] or row[6] != self.DOUBLING_C1:
                return False
            if self.by_weight.setdefault(weight, (row[3], row[5], row[8])) != (row[3], row[5], row[8]):
                return False
        return True


class Report:
    """One bound_report on a datum of a seeded pool of admissible data.

    Operations take the pool's data in turn, and one pass over the pool is
    timed as a batch: a single call takes well under a millisecond, and its
    cost grows with the datum's factor count.
    """

    name = "report"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.pool_params = inputs.datum_pool(self.rng)
        self.batch = len(self.pool_params)

    def setup(self) -> None:
        zb = import_zerobound()
        selberg = zb.selberg
        self.pool = []
        for p in self.pool_params:
            data = selberg.LFunctionData(
                factors=tuple(selberg.GammaFactor(lam, complex(re, im)) for lam, re, im in p["factors"]),
                Q=p["Q"],
                omega=complex(*p["omega"]),
                k=p["k"],
                a1=p["a1"],
            )
            strip = selberg.select_strip(data.a1)
            self.pool.append((data, strip, selberg.min_admissible_height(data, strip).value))
        self.zb = zb

    def next_input(self, i: int):
        data, strip, height = self.pool[i % len(self.pool)]
        return (data, strip, *inputs.report_window(self.rng, height))

    def call(self, args):
        return self.zb.bounds.bound_report(*args)

    def check(self, args, r) -> bool:
        t0, t = args[2], args[3]
        if (r.T0, r.T) != (t0, t):
            return False
        coeff_form = r.c1_main * math.log(t) + r.c2_main + r.c3_main / t
        return math.isfinite(coeff_form) and coeff_form >= r.R_total * (1.0 - 1e-9)


class Verify:
    """load_zeros of a 10^5-ordinate table, then check_bound at 200 seeded heights.

    The zeta and the weight-12 tables take turns; an operation on either
    costs the same to within 2%.
    """

    name = "verify"
    batch = 1
    T0 = 30.0
    HEIGHTS = 200

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.tables = []
        for label, main in (("zeta", inputs.ZETA_MAIN), ("delta", inputs.DELTA_MAIN)):
            text = inputs.format_zero_table(inputs.zero_table(self.rng, main), label)
            path = workdir / f"{label}_zeros.txt"
            path.write_text(text, encoding="utf-8")
            ordinates = [float(x) for x in text.splitlines()[1:]]
            self.tables.append((label, path, main, ordinates))

    def setup(self) -> None:
        zb = import_zerobound()
        self.data = {"zeta": zb.presets.zeta(), "delta": zb.presets.newform(1, 12)}
        self.zb = zb

    def next_input(self, i: int):
        table = i % len(self.tables)
        ordinates = self.tables[table][3]
        span = ordinates[-1] - self.T0
        return table, [self.T0 + span * (1.0 - self.rng.random()) for _ in range(self.HEIGHTS)]

    def call(self, args):
        table, heights = args
        label, path = self.tables[table][:2]
        data, strip = self.data[label]
        zeros = self.zb.zeros
        zero_list = zeros.load_zeros(path)
        return len(zero_list), [zeros.check_bound(data, strip, zero_list, self.T0, t) for t in heights]

    def check(self, args, out) -> bool:
        table, heights = args
        _, _, (degree, lq2), ordinates = self.tables[table]
        count, reports = out
        if count != len(ordinates) or len(reports) != len(heights):
            return False
        below_t0 = bisect_right(ordinates, self.T0)
        for t, r in zip(heights, reports):
            if r.count != bisect_right(ordinates, t) - below_t0:
                return False
            if not math.isclose(r.main_term, inputs.main_term(degree, lq2, t), rel_tol=1e-9):
                return False
            if not (r.pass_lemma and r.pass_theorem):
                return False
        return True


class Cli:
    """One zerobound CLI call in process; the subcommands take turns on the bundled zeta fixture.

    One pass over the five subcommands is timed as a batch, so the latency
    covers each of them and not only the quickest.  Interpreter start and the
    package import, which a CLI user also pays, are the set-up here and the
    ``cli.interpreter_ms`` and ``cli.import_ms`` layer metrics: timed as
    children, they follow the host's slow spells too closely to be bounded.
    """

    name = "cli"
    COMMANDS = ("params", "constants", "bound", "table", "verify")
    batch = len(COMMANDS)
    REPEATS = 7

    def __init__(self, seed: int, workdir: Path) -> None:
        self.offset = random.Random(seed).randrange(len(self.COMMANDS))
        self.doc = str(workdir / "zeta.json")
        #: the references are at the default output precision
        os.environ.pop("ZEROBOUND_PRECISION", None)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.argv = {
            "params": ["params", "--preset", "zeta"],
            "constants": ["constants", "--input", self.doc, "--t0", "16"],
            "bound": ["bound", "--input", self.doc, "--t0", "16", "--t", "100"],
            "verify": ["verify", "--input", self.doc, "--zeros", str(ZETA_FIXTURE), "--t0", "16", "--t", "100"],
            "table": ["table", "--preset", "newform"],
        }
        self.reference = {name: (REF / f"{name}.out").read_bytes() for name in self.COMMANDS}

    def setup(self) -> None:
        """Import zerobound; its CLI writes the input document that the timed calls read."""
        self.zb = import_zerobound()
        code, _ = self._main(["params", "--preset", "zeta", "--out", self.doc])
        if code != 0:
            raise RuntimeError(f"params --out exited {code}")

    def next_input(self, i: int) -> str:
        return self.COMMANDS[(self.offset + i) % len(self.COMMANDS)]

    def call(self, name: str):
        return self._main(self.argv[name])

    def _main(self, argv: list[str]) -> tuple[int, bytes]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.zb.cli.main(argv)
        return code, out.getvalue().encode("utf-8")

    def check(self, name: str, out) -> bool:
        return out == (0, self.reference[name])

    def layer_metrics(self) -> dict[str, float]:
        """Median wall times in ms of children: interpreter start, package import, each subcommand."""
        bare = self._median_ms([sys.executable, "-c", "pass"])
        imported = self._median_ms([sys.executable, "-c", "import zerobound"])
        metrics = {"cli.interpreter_ms": bare, "cli.import_ms": imported - bare}
        for name in self.COMMANDS:
            argv = [sys.executable, "-m", "zerobound.cli", *self.argv[name]]
            metrics[f"cli.{name}.p50_ms"] = self._median_ms(argv, self.reference[name])
        return metrics

    def _median_ms(self, argv: list[str], expected: bytes | None = None) -> float:
        times = []
        for _ in range(self.REPEATS):
            start = time.perf_counter_ns()
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, timeout=60)
            times.append(time.perf_counter_ns() - start)
            if proc.returncode != 0 or (expected is not None and proc.stdout != expected):
                raise RuntimeError(f"{argv[1:]} exited {proc.returncode} or printed unexpected output")
        return statistics.median(times) / 1e6


WORKLOADS = {w.name: w for w in (Table, Report, Verify, Cli)}
