"""What each public operation costs, and how each cache keeps its bound.

COSTS is the cost table: each row runs one public operation on a fixed input, on empty
caches after the row's set-up, and lists the count of each costly primitive that
tests/probe.py observes; a primitive a row leaves out must run zero times.  The cache
tests below it run once per bounded cache of probe.CACHES.
"""

import contextlib
import io
import math
import sys
import threading
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

import probe
import zerobound
from test_cli import GOLDEN_ARGV
from zerobound import (
    AdmissibilityError, LFunctionData, NewformSpec, ZeroboundError, ZeroList, bound_report,
    branch_constants, check_bound, disc_count_bound, integrated_ratio_error, log_integral_bound,
    min_admissible_height, newform_params, pipeline_constants, presets, ratio_error_sup,
    select_strip, table_generate, table_row, tail_sum,
)
from zerobound.cli import main
from zerobound.newform import read_pairs_csv

ZETA = presets.zeta()
ZEROS = ZeroList((14.134725, 21.02204, 25.010858, 30.424876))
#: the bundled 25 rows, on 10 distinct weights
BUNDLED = read_pairs_csv(Path(zerobound.__file__).with_name("data").joinpath("table_pairs.csv")
                         .read_text())
#: two rows on weights of the bundled table, at levels it does not have
NEW_LEVELS = [NewformSpec(10 ** 300 + 1, 12), NewformSpec(7, 2)]
COMMANDS = {name: GOLDEN_ARGV[key] for name, key in (
    ("params", "zeta"), ("constants", "constants"), ("bound", "bound"), ("verify", "verify"))}
COMMANDS["table"] = ["table", "--preset", "newform"]
#: a weight the bundled table does not have
COMMANDS["newform params"] = ["params", "--preset", "newform", "--level", "7", "--weight", "100"]


bundled_table = partial(table_generate, BUNDLED)
zeta_report = partial(bound_report, *ZETA, 16.0, 100.0)


def check(T0, T):
    return partial(check_bound, *ZETA, ZEROS, T0, T)


def scan_at_20():
    return [check_bound(*ZETA, ZEROS, 20.0, 21.0 + 0.5 * i) for i in range(200)]


def three_pieces():  # the three per-piece bounds that read no left-edge kernel sum
    return (log_integral_bound(*ZETA, 16.0, 100.0), integrated_ratio_error(*ZETA, 16.0, 100.0),
            branch_constants(*ZETA, 16.0))


def refused(operation):
    """operation, which must raise AdmissibilityError; returns the message."""
    def run():
        with pytest.raises(AdmissibilityError) as error:
            operation()
        return str(error.value)

    return run


def command(name):
    """zerobound.cli.main on COMMANDS[name], which must exit 0; returns its stdout."""
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(COMMANDS[name]) == 0
        return out.getvalue()

    return run


def times(n, costs):
    return Counter({key: n * count for key, count in costs.items()})


# the blocks the rows below add up; a hit is a cache lookup that found its entry

#: the pieces of one (datum, strip): a kernel sum at -b and -b - 1 (two kernel evaluations
#: in one call) and the trivial-zero allowance, all read from the datum's invariants
PIECES = Counter({"factor pieces": 1, "_kernel_sums": 1, "_factor_kernels": 2,
                  "trivial_zero_window": 1})
#: K, the pieces' kernel sum at the disc's left edge, computed at its first read
K = Counter({"_kernel_sums": 1, "_factor_kernels": 1})
#: the branch heads, and the branch chosen from them
HEADS = Counter({"_heads": 1, "_log_interp_peak": 1})
BRANCH = HEADS + Counter({"_branch": 1})
#: one window on cached pieces: one _height call, which checks T0 once, on floats alone
#: (no _constraints list), and no value object
WINDOW = Counter({"window": 1, "_height": 1, "_admissible": 1}) + BRANCH
#: a window whose T0 is refused: the check builds the _constraints list to name the
#: violated one, before K or any term at T0 is read
REFUSED_WINDOW = Counter({"window": 1, "_height": 1, "_admissible": 1, "_constraints": 1})
COLD_WINDOW = PIECES + K + WINDOW
#: the Coefficients pair that check_bound and bound ask a window for, built once per window
PAIR = Counter({"Coefficients": 2})
#: one datum, built by its constructor, which derives every invariant in one pass
DATUM = Counter({"datum": 1})
#: one newform weight's entry: its level-1 datum, its pieces, K, and the terms at T0,
#: which is checked once
WEIGHT = DATUM + Counter({"weight entry": 1, "_height": 1, "_admissible": 1}) + PIECES + K
#: one table row on its weight's entry: the branch, and one guarded ceiling per constant
ROW = BRANCH + Counter({"ceil_guarded": 6})
#: the 25 bundled rows on 10 weights; no row builds a window or selects a strip
TABLE = times(10, WEIGHT) + times(25, ROW) + Counter({"weight entry hits": 15})
WARM_TABLE = times(25, ROW) + Counter({"weight entry hits": 25})
PARSER, PARSED = Counter({"parser": 1}), Counter({"parser hits": 1})
#: the zeta document read into a datum and a strip, whose selection evaluates
#: tail_sum(3, 1) twice
READ = DATUM + Counter({"select_strip": 1, "tail sum": 1, "tail sum hits": 1})
READ_AGAIN = DATUM + Counter({"select_strip": 1, "tail sum hits": 2})
#: the zeta window of a command that has read the document
READ_WINDOW = PIECES + K + WINDOW

#: a set-up that runs the row's operation once, whose result the warm one must repeat
WARM = "the operation itself"

#: operation -> (set-up, operation, counts); the set-up runs on empty caches, uncounted
COSTS = {
    "bundled table, cold": ((), bundled_table, TABLE),
    "bundled table, warm": (WARM, bundled_table, WARM_TABLE),
    # a row of a level not seen before copies no datum either
    "bundled table plus two new levels, warm": (
        bundled_table, lambda: table_generate(BUNDLED + NEW_LEVELS),
        times(27, ROW) + Counter({"weight entry hits": 27})),
    # a newform's datum is built like any other: no weight entry, pieces or window
    "newform_params(1, 12), after the bundled table": (
        bundled_table, lambda: newform_params(NewformSpec(1, 12)), DATUM),
    "newform_params(7, 100), cold": ((), lambda: newform_params(NewformSpec(7, 100)), DATUM),
    "table_row(1, 12), cold": ((), partial(table_row, NewformSpec(1, 12)), WEIGHT + ROW),
    "table_row(11, 12), after table_row(1, 12)": (
        partial(table_row, NewformSpec(1, 12)), partial(table_row, NewformSpec(11, 12)),
        ROW + Counter({"weight entry hits": 1})),
    "bound_report, cold": ((), zeta_report, COLD_WINDOW),
    "bound_report at a refused T0, cold": (
        (), refused(partial(bound_report, *ZETA, 15.5, 100.0)), PIECES + REFUSED_WINDOW),
    # the minimum height reads every named threshold
    "min_admissible_height, cold": (
        (), partial(min_admissible_height, *ZETA), Counter({"_constraints": 1})),
    # check_bound looks its window up once
    "check_bound(16, 100), after bound_report": (
        zeta_report, check(16.0, 100.0), PAIR + Counter({"window hits": 1})),
    "check_bound(16, 30), after both": (
        lambda: (zeta_report(), check(16.0, 100.0)()), check(16.0, 30.0),
        Counter({"window hits": 1})),
    "check_bound at T0 = 20 and 200 heights, after those": (
        lambda: (zeta_report(), check(16.0, 100.0)(), check(16.0, 30.0)()), scan_at_20,
        WINDOW + PAIR + Counter({"factor pieces hits": 1, "window hits": 199})),
    "check_bound at T0 = 20 and 200 heights, cold": (
        (), scan_at_20, COLD_WINDOW + PAIR + Counter({"window hits": 199})),
    # the per-piece bounds build no window
    "log_integral_bound, cold": ((), lambda: log_integral_bound(*ZETA, 16.0, 100.0), PIECES),
    "integrated_ratio_error, cold": (
        (), lambda: integrated_ratio_error(*ZETA, 16.0, 100.0), PIECES),
    "branch_constants, cold": (
        (), lambda: branch_constants(*ZETA, 16.0),
        PIECES + BRANCH + Counter({"BranchConstants": 1})),
    "ratio_error_sup, cold": ((), lambda: ratio_error_sup(*ZETA, 30.0), PIECES + K),
    "disc_count_bound, cold": (
        (), lambda: disc_count_bound(*ZETA, 30.0),
        PIECES + K + HEADS + Counter({"_admissible": 1})),
    # the five per-piece bounds and a report share one pieces entry
    "the three bounds that read no K, cold": (
        (), three_pieces,
        PIECES + BRANCH + Counter({"BranchConstants": 1, "factor pieces hits": 2})),
    "ratio_error_sup, disc_count_bound and bound_report, after those": (
        three_pieces,
        lambda: (ratio_error_sup(*ZETA, 30.0), disc_count_bound(*ZETA, 30.0), zeta_report()),
        K + HEADS + WINDOW + Counter({"_admissible": 1, "factor pieces hits": 3})),
    # the a search evaluates x = 3 .. a, and the b search's x = 3 .. -b - 1 are among them,
    # also for the largest a1, whose a search fills the tail-sum cache exactly
    "select_strip(100), (a, b) = (8, -8)": (
        (), lambda: select_strip(100.0), Counter({"tail sum": 6, "tail sum hits": 5})),
    "select_strip(largest float), (a, b) = (1026, -1026)": (
        (), lambda: select_strip(sys.float_info.max),
        Counter({"tail sum": 1024, "tail sum hits": 1023})),
    # each command on the zeta fixture, and table on the bundled pairs
    "zerobound params, cold": ((), command("params"), PARSER + DATUM),
    "zerobound params, warm": (WARM, command("params"), PARSED + DATUM),
    "zerobound params --preset newform, cold": ((), command("newform params"), PARSER + DATUM),
    "zerobound constants, cold": ((), command("constants"), PARSER + READ + READ_WINDOW),
    "zerobound constants, warm": (
        WARM, command("constants"), PARSED + READ_AGAIN + Counter({"window hits": 1})),
    "zerobound bound, cold": (
        (), command("bound"), PARSER + READ + READ_WINDOW + PAIR + Counter({"window hits": 1})),
    "zerobound bound, warm": (
        WARM, command("bound"), PARSED + READ_AGAIN + Counter({"window hits": 2})),
    "zerobound verify, cold": ((), command("verify"), PARSER + READ + READ_WINDOW + PAIR),
    "zerobound verify, warm": (
        WARM, command("verify"), PARSED + READ_AGAIN + Counter({"window hits": 1})),
    "zerobound table, cold": ((), command("table"), PARSER + TABLE),
    "zerobound table, warm": (WARM, command("table"), PARSED + WARM_TABLE),
    # one parser serves every command of a process
    "zerobound table, after the other four commands": (
        lambda: [command(name)() for name in ("params", "constants", "bound", "verify")],
        command("table"), PARSED + TABLE),
}


@pytest.mark.parametrize("name", COSTS)
def test_each_operation_costs_what_the_table_says(name):
    setup, operation, expected = COSTS[name]
    if setup is WARM:
        first = operation()
    elif setup:
        setup()
    result, counts = probe.costs(operation)
    assert counts == dict(expected)
    if setup is WARM:
        assert result == first


# --- the caches -------------------------------------------------------------------------

#: for each bounded cache, a public call that reads one entry per int key i >= 0, and the
#: repr of its result, whose floats round-trip, so an equal repr means equal bits
FILL = {
    # each Q makes a datum, and so a pieces key, of its own
    "factor pieces": lambda i: repr(log_integral_bound(
        LFunctionData(ZETA[0].factors, 1.0 + i, 1, 1, 1.0), ZETA[1], 16.0, 100.0)),
    "window": lambda i: repr(bound_report(*ZETA, 16.0 + i, 1000.0)),
    "weight entry": lambda i: repr(pipeline_constants(NewformSpec(1, 2 * i + 2))),
    "tail sum": lambda i: repr(tail_sum(2.0 + i / 64.0, 1.0)),
}

#: for each cache a refused call can reach, such calls and the misses they make; no
#: NewformSpec refers to a weight whose entry fails, and the parser build cannot fail
RAISING = {
    "window": ((check(15.0, 100.0), check(15.0, 100.0)), 2),
    # the range rule refuses these before the cache
    "tail sum": ((lambda: tail_sum(1.0, 1.0), lambda: tail_sum(3.0, math.nan)), 0),
}


def fill_past_the_bound(name):
    """Fill the named cache with more distinct keys than it holds, then revisit some.

    It never exceeds its bound, the least recently used entries go first, and a
    revisit gives the first visit's bits.
    """
    size, fill = probe.maxsize(name), FILL[name]
    n = size + 40
    first = []
    for i in range(n):
        first.append(fill(i))
        assert probe.size(name) <= size
    assert probe.size(name) == size
    misses = []
    for i in (n - 1, 0, 1, n - 1):
        again, counts = probe.costs(lambda: fill(i))
        assert again == first[i]
        misses.append(counts.get(name, 0))
    assert misses == [0, 1, 1, 0]  # the last was kept, the first two were dropped
    assert probe.size(name) == size


def fill_from_four_threads(name):
    """Four threads add and evict entries of the named cache at once, with a short switch interval.

    Each visits more distinct keys than the cache holds, from its own offset; each gets
    the results of one thread's visits, and the cache never exceeds its bound.
    """
    size, fill = probe.maxsize(name), FILL[name]
    n = size + 40
    expected = [fill(i) for i in range(n)]
    probe.empty_caches()
    results, sizes = {}, []

    def work(offset):
        got = []
        for i in (*range(offset, n), *range(offset)):
            got.append(fill(i))
            sizes.append(probe.size(name))
        results[offset] = got[n - offset:] + got[:n - offset]

    threads = [threading.Thread(target=work, args=(n * j // 4,)) for j in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [n * j // 4 for j in range(4)]
    assert all(got == expected for got in results.values())
    assert max(sizes) <= size


@pytest.mark.parametrize("name", FILL)
def test_a_full_cache_drops_its_least_recently_used_entry_alone_and_under_threads(name):
    fill_past_the_bound(name)
    fill_from_four_threads(name)


@pytest.mark.parametrize("name", RAISING)
def test_a_refused_call_caches_nothing(name):
    calls, misses = RAISING[name]

    def refuse_each():
        for call in calls:
            with pytest.raises(ZeroboundError):
                call()

    assert probe.costs(refuse_each)[1].get(name, 0) == misses
    assert probe.size(name) == 0
