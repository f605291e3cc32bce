"""Wall time of zerobound processes, without and with a bytecode cache.

Runs `python -S -m zerobound.cli <command>` children on this checkout's src/,
interleaved: each round runs every command once with no bytecode cache and once
with a warm one, and the script prints one JSON object with the min, quartiles
and median wall time of each (command, cache) pair, the parser's build times,
the machine and the Python version.  Every child must exit 0 and write the
expected stdout: the committed golden for params, constants, bound, verify and
table, and for `table --pairs` on a generated file of --pairs seeded pairs, the
same bytes in every run, one well-formed row per pair.  Each round also runs
every command once more per condition under -X importtime, as `python -S -c`
with zerobound.cli imported by name; the object then gives, per command and
condition, the quartiles of that import's cumulative time and the sorted
zerobound modules the child loaded.

Both conditions share a temporary PYTHONPYCACHEPREFIX that an untimed run of
every child fills first, so the standard library is always cached and the
checkout's own __pycache__ directories are never read.  "Warm" runs src/, whose
modules the prefix then holds; "no bytecode cache" runs a copy of the package
with PYTHONDONTWRITEBYTECODE=1, so each child compiles zerobound's modules, as
the first run of a fresh install does.

Standard library only; it imports nothing from zerobound, so it can time any
commit's checkout:

    python scripts/time_cli.py [--runs 10] [--pairs 100000] [--seed 1]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLI_DATA = ROOT / "tests" / "data" / "cli"
ZETA = str(CLI_DATA / "zeta.json")
ZEROS = str(ROOT / "tests" / "data" / "zeta_zeros_200.txt")

#: name -> (the child's arguments after the interpreter's -S, the file holding its stdout)
COMMANDS = {
    "params": (["params", "--preset", "zeta"], CLI_DATA / "zeta.json"),
    "constants": (["constants", "--input", ZETA, "--t0", "16"], CLI_DATA / "constants.json"),
    "bound": (["bound", "--input", ZETA, "--t0", "16", "--t", "100"], CLI_DATA / "bound.json"),
    "table": (["table", "--preset", "newform"], ROOT / "perfbench" / "ref" / "table.out"),
    "verify": (["verify", "--input", ZETA, "--zeros", ZEROS, "--t0", "16", "--t", "100"],
               CLI_DATA / "verify.json"),
}

#: runs the CLI on its arguments with zerobound.cli imported by name, so -X importtime logs it
IMPORT_CHILD = "import sys, zerobound.cli as cli; sys.exit(cli.main(sys.argv[1:]))"

#: prints the first and a second _build_parser() time in ms, and whether the first loaded shutil
PARSER_CHILD = """
import json, sys, time, zerobound.cli as cli
start = time.perf_counter(); cli._build_parser(); first = time.perf_counter() - start
loaded = "shutil" in sys.modules
cli._build_parser.cache_clear()
start = time.perf_counter(); cli._build_parser(); second = time.perf_counter() - start
print(json.dumps([1e3 * first, 1e3 * second, loaded]))
"""


def write_pairs(path: Path, n: int, seed: int) -> list[tuple[int, int]]:
    """An 'N,kappa' file of n seeded pairs: levels up to 10^6, even weights 2..200."""
    rng = random.Random(seed)
    pairs = [(rng.randint(1, 10 ** 6), 2 * rng.randint(1, 100)) for _ in range(n)]
    path.write_text("N,kappa\n" + "".join(f"{level},{weight}\n" for level, weight in pairs),
                    encoding="utf-8")
    return pairs


def check_pairs_table(out: bytes, pairs: list[tuple[int, int]]) -> None:
    """One row of nine ints per pair, in input order, after the table header."""
    lines = out.decode("utf-8").split("\n")
    if (lines[0], lines[-1], len(lines)) != ("N,kappa,T0,cL1,cL2,cL3,c1,c2,c3", "", len(pairs) + 2):
        raise SystemExit("table --pairs: wrong header or row count")
    for (level, weight), line in zip(pairs, lines[1:]):
        fields = line.split(",")
        if fields[:3] != [str(level), str(weight), str(15 + weight)] or len(fields) != 9 \
                or not all(f.lstrip("-").isdigit() for f in fields[3:]):
            raise SystemExit(f"table --pairs: bad row {line!r} for N={level}, kappa={weight}")


def run(argv: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    """One `python -S` child, which must exit 0, with its wall time in ms as .elapsed."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-S", *argv], env=env, cwd=ROOT,
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    done.elapsed = 1e3 * (time.perf_counter() - start)
    if done.returncode:
        raise SystemExit(f"{argv} exited {done.returncode}: {done.stderr.decode(errors='replace')}")
    return done


def import_profile(log: bytes) -> tuple[float, list[str]]:
    """The cumulative ms of zerobound.cli and the sorted zerobound modules in an importtime log."""
    cumulative, modules = None, []
    for line in log.decode("utf-8").splitlines():
        # "import time: <self us> | <cumulative us> | <indented module name>"
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[2].strip().split(".")[0] == "zerobound":
            modules.append(fields[2].strip())
            if modules[-1] == "zerobound.cli":
                cumulative = int(fields[1]) / 1e3
    if cumulative is None:
        raise SystemExit("the importtime log names no zerobound.cli")
    return cumulative, sorted(modules)


def summary(values: list[float]) -> dict[str, float]:
    """min, first quartile, median and third quartile (inclusive method) of the values."""
    # a single run is every quartile: quantiles wants two points before Python 3.13
    q1, median, q3 = statistics.quantiles(values * 2 if len(values) < 2 else values,
                                          n=4, method="inclusive")
    return {key: round(value, 3) for key, value in
            {"min": min(values), "q1": q1, "median": median, "q3": q3}.items()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="interleaved rounds (default 10)")
    ap.add_argument("--pairs", type=int, default=10 ** 5, help="pairs for table --pairs")
    ap.add_argument("--seed", type=int, default=1, help="seed of the generated pairs")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        pairs = write_pairs(tmp / "pairs.csv", args.pairs, args.seed)
        children = {"bare interpreter": (["-c", "pass"], b""),
                    "import zerobound.cli": (["-c", "import zerobound.cli"], b"")}
        children.update({name: (["-m", "zerobound.cli", *argv], golden.read_bytes())
                         for name, (argv, golden) in COMMANDS.items()})
        children["table --pairs"] = (["-m", "zerobound.cli", "table", "--preset", "newform",
                                      "--pairs", str(tmp / "pairs.csv")], None)
        shutil.copytree(ROOT / "src" / "zerobound", tmp / "copy" / "zerobound",
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = {key: value for key, value in os.environ.items()
                if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        base["PYTHONPYCACHEPREFIX"] = str(tmp / "pycache")
        envs = {"no bytecode cache": {**base, "PYTHONPATH": str(tmp / "copy"),
                                      "PYTHONDONTWRITEBYTECODE": "1"},
                "warm bytecode cache": {**base, "PYTHONPATH": str(ROOT / "src")}}
        for argv, _ in children.values():  # fill the cache: the stdlib's and src/'s modules
            run(argv, envs["warm bytecode cache"])

        wall = {cache: {name: [] for name in children} for cache in envs}
        parser = {cache: [] for cache in envs}
        imports = {cache: {name: ([], set()) for name in COMMANDS} for cache in envs}
        pairs_out = None
        for _ in range(args.runs):
            for cache, env in envs.items():
                for name, (argv, expected) in children.items():
                    done = run(argv, env)
                    if expected is None:
                        if pairs_out is None:
                            check_pairs_table(done.stdout, pairs)
                            pairs_out = done.stdout
                        expected = pairs_out
                    if done.stdout != expected:
                        raise SystemExit(f"{name}: stdout differs from the expected bytes")
                    wall[cache][name].append(done.elapsed)
                parser[cache].append(json.loads(run(["-c", PARSER_CHILD], env).stdout))
                for name, (argv, golden) in COMMANDS.items():
                    done = run(["-X", "importtime", "-c", IMPORT_CHILD, *argv], env)
                    if done.stdout != golden.read_bytes():
                        raise SystemExit(f"{name} under -X importtime: stdout differs")
                    cumulative, modules = import_profile(done.stderr)
                    imports[cache][name][0].append(cumulative)
                    imports[cache][name][1].add(tuple(modules))

    print(json.dumps({
        "python": sys.version,
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "processor": platform.processor(), "cpus": os.cpu_count()},
        "runs": args.runs, "pairs": args.pairs, "seed": args.seed,
        "wall_ms": {cache: {name: summary(times) for name, times in by_name.items()}
                    for cache, by_name in wall.items()},
        "parser_build_ms": {cache: {
            "first": summary([first for first, _, _ in runs]),
            "second": summary([second for _, second, _ in runs]),
            "first_imports_shutil": sorted({loaded for _, _, loaded in runs})}
            for cache, runs in parser.items()},
        "import_profile": {cache: {name: {
            "zerobound.cli_cumulative_ms": summary(times),
            "zerobound_modules": [list(modules) for modules in sorted(loaded)]}
            for name, (times, loaded) in by_name.items()} for cache, by_name in imports.items()},
    }, indent=1))


if __name__ == "__main__":
    main()
