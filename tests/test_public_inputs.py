"""Every public function refuses a hostile argument with a ZeroboundError.

The cases come from inspect.signature over zerobound.__all__, so a new
public function or parameter joins the test without an edit here.
"""

import inspect
import math
import warnings
from decimal import Decimal
from pathlib import Path

import zerobound
from zerobound import GammaFactor, NewformSpec, ZeroboundError, ZeroList, presets


class _Unhashable(float):
    """A float that refuses hash(), as a key of a functools cache would need it."""

    __hash__ = None


#: the result types, which the package builds from values it has computed itself
_RESULTS = ("AdmissibleHeight", "BoundReport", "BranchConstants", "Coefficients",
            "VerificationReport")

#: parameters that take a value object, which get only their valid value here
_VALUE_OBJECTS = ("data", "strip", "spec", "zeros", "specs", "factors", "obj")

HOSTILE = (None, "1", b"1", 1 + 2j, math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400,
           True, [1.0], object(), Decimal("NaN"))


def _valid():
    """One valid value per parameter name: the zeta datum at T0 = 16, T = t = 100."""
    data, strip = presets.zeta()
    spec = NewformSpec(11, 2)
    return {
        "data": data, "strip": strip, "spec": spec, "specs": [spec],
        "zeros": ZeroList((14.134725141734695, 21.022039638771556)),
        "factors": data.factors,
        "obj": {"factors": [{"lambda": 0.5, "mu_re": 0.0}], "Q": 1.0, "omega_re": 1.0,
                "k": 0, "a1": 1.0},
        "T0": 16.0, "T": 100.0, "t": 100.0, "sigma": -3.0, "j": 0, "z": 1 + 1j,
        "x": 3.5, "label": "T", "a1": 1.0, "a": 3.0, "b": -4.0, "R": 7.0,
        "lam": 1.0, "mu": 0j, "Q": 1.0, "omega": 1, "k": 0,
        "level": 11, "weight": 2, "c2_main": 1.5, "n_plus_T0": 0, "n_minus_T0": 0,
        "path": str(Path(__file__).parent / "data" / "zeta_zeros_200.txt"),
        "ordinates": (14.134725141734695,), "source_label": "",
    }


def _public_callables():
    """(name, callable, parameter names) for every public function and input type."""
    for name in sorted(zerobound.__all__):
        obj = getattr(zerobound, name)
        if name in _RESULTS or not callable(obj) or (
                isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        yield name, obj, tuple(inspect.signature(obj).parameters)


def test_every_public_argument_refuses_hostile_values():
    # each hostile value, and a Decimal of the valid value where that is a
    # real, in each non-value-object parameter, the others valid:
    # the call returns or raises a ZeroboundError; only load_zeros on a path
    # that names no file raises OSError, which the CLI turns into exit 1
    valid = _valid()
    escaped = []
    calls = 0
    for name, func, params in _public_callables():
        base = {p: valid[p] for p in params}
        assert func(**base) is not None or name == "require_admissible", name
        for param in params:
            if param in _VALUE_OBJECTS:
                continue
            unhashable = _Unhashable(base[param] if type(base[param]) is float else 1.0)
            # a Decimal of the valid real compares with floats, but no float arithmetic takes it
            decimal = (Decimal(base[param]),) if type(base[param]) in (int, float) else ()
            for value in (*HOSTILE, unhashable, *decimal):
                calls += 1
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        func(**{**base, param: value})
                except ZeroboundError:
                    pass
                except OSError:
                    if name != "load_zeros":
                        escaped.append((name, param, value, "OSError"))
                except Exception as exc:  # noqa: BLE001 - any other class is the finding
                    escaped.append((name, param, value, type(exc).__name__))
    assert calls > 500
    assert not escaped, escaped


def test_unhashable_admissible_t0_gets_its_window():
    # an admissible T0 that refuses hash() is taken as its float, not refused
    data, strip = presets.zeta()
    t0 = _Unhashable(16.0)
    assert zerobound.total_count_error(data, strip, t0, 100.0) == zerobound.total_count_error(
        data, strip, 16.0, 100.0)
    assert zerobound.window_coefficients(data, strip, t0) == zerobound.window_coefficients(
        data, strip, 16.0)
    assert zerobound.bound_report(data, strip, t0, 100.0) == zerobound.bound_report(
        data, strip, 16.0, 100.0)
    GammaFactor(t0, 0j)  # the other reals take it as the float it is
