"""The tests' one view of the package's internals: its caches and its costly primitives.

The cached layers and the private functions whose calls cost time are named
here and nowhere else in the tests, which count work through costs() and
tabulate it per public operation in tests/test_costs.py.  A refactor that
moves a layer edits this module and, where a count changes on purpose, one
cell of that table.
"""

import sys

from zerobound import bounds, cli, newform, selberg

#: every functools cache of the package, by the name its misses have in a costs() count
CACHES = {
    "factor pieces": bounds._factor_pieces,
    "window": bounds._window,
    "weight entry": newform._weight_datum,
    "tail sum": selberg._tail_sum,
    "parser": cli._build_parser,
}

#: the functions and classes whose calls costs() counts, each under its __name__
CALLS = (
    bounds._kernel_sums, bounds._factor_kernels, bounds._height, bounds._heads,
    bounds._branch, bounds._log_interp_peak, selberg._admissible, selberg._constraints,
    bounds.trivial_zero_window, bounds.branch_constants, selberg.select_strip,
    bounds.BranchConstants, bounds.Coefficients, bounds.ceil_guarded,
)

# the layers other tests read
window, Window, window_of = bounds._window, bounds._Window, bounds._window_of
pieces, height, window_floats = bounds._factor_pieces, bounds._height, bounds._window_floats
weight_entry = newform._weight_datum

#: the CI workflow's import check: the CLI's import loads no module only some commands need
#: (or none: the value types read their fields from __init__'s code object, not through
#: inspect), not the lemma layer, which no command needs, and builds no argument parser,
#: which only main needs
IMPORT_CHECK = (
    "import zerobound.cli, sys; loaded = {'ast', 'dataclasses', 'dis', 'importlib.resources', "
    "'inspect', 'typing', 'zerobound.gammabounds'} & set(sys.modules); built = "
    "zerobound.cli._build_parser.cache_info().currsize; sys.exit(f'import zerobound.cli "
    "loaded {sorted(loaded)}, built {built} parsers' if loaded or built else 0)"
)


def _info(name):
    """CACHES[name].cache_info(), or None where a change has dropped that cache."""
    cache_info = getattr(CACHES[name], "cache_info", None)
    return cache_info() if cache_info else None


def empty_caches(*names):
    """Empty the caches of the given names, or every cache."""
    for name in names or CACHES:
        if _info(name):
            CACHES[name].cache_clear()


def size(name):
    """The number of entries the named cache holds."""
    return _info(name).currsize


def maxsize(name):
    """The named cache's bound, None for an unbounded one."""
    return _info(name).maxsize


def package_caches():
    """Every object with a cache_info method that a zerobound module binds, by id."""
    return {id(value): value for module in _modules() for value in vars(module).values()
            if callable(getattr(value, "cache_info", None))}


def _modules():
    """The zerobound modules imported so far."""
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "zerobound"]


def costs(operation):
    """Run operation() once; return its result and the count of each costly primitive it ran.

    Each cache's misses count under its CACHES name and its hits under that
    name plus " hits"; the calls of CALLS count under their names, wherever a
    zerobound module binds them, and the datums built, each by one run of
    LFunctionData.__init__, under "datum".  Counts of zero are left out.  A
    cache that a change has dropped counts each call a miss, so the table
    shows the lost reuse.  Not for use from several threads at once.
    """
    counts = dict.fromkeys([*CACHES, *(f"{name} hits" for name in CACHES)], 0)
    patched = []

    def count(owner, attr, key, fn):
        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        patched.append((owner, attr, fn))
        setattr(owner, attr, counted)

    uncached = {name: fn for name, fn in CACHES.items() if not _info(name)}
    modules = _modules()
    for key, fn in [*uncached.items(), *((fn.__name__, fn) for fn in CALLS)]:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    count(module, attr, key, fn)
    count(selberg.LFunctionData, "__init__", "datum", selberg.LFunctionData.__init__)
    before = {name: _info(name) for name in CACHES}
    try:
        result = operation()
    finally:
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)
    for name, first in before.items():
        if first:
            last = _info(name)
            counts[name], counts[f"{name} hits"] = last.misses - first.misses, last.hits - first.hits
    return result, {key: n for key, n in counts.items() if n}
