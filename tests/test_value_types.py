"""The value types' contract: immutable, dataclass-style repr, == and hash, copy, pickle, match."""

import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError

import pytest

import probe
from zerobound import (
    AdmissibleHeight,
    BoundReport,
    BranchConstants,
    Coefficients,
    GammaFactor,
    LFunctionData,
    NewformSpec,
    StripParams,
    VerificationReport,
    ZeroList,
    bound_report,
    branch_constants,
    check_bound,
    load_zeros,
    min_admissible_height,
    presets,
    window_coefficients,
)
from zerobound.selberg import _Value

ZETA_ORDINATES = (14.134725141734695, 21.022039638771556)


def _values():
    """One value of each public type, built from the zeta datum at T0 = 16, T = 100."""
    data, strip = presets.zeta()
    return {
        "GammaFactor": data.factors[0],
        "LFunctionData": data,
        "StripParams": strip,
        "AdmissibleHeight": min_admissible_height(data, strip),
        "BranchConstants": branch_constants(data, strip, 16.0),
        "Coefficients": window_coefficients(data, strip, 16.0),
        "BoundReport": bound_report(data, strip, 16.0, 100.0),
        "NewformSpec": NewformSpec(11, 2),
        "ZeroList": ZeroList(ZETA_ORDINATES, "zeta"),
        "VerificationReport": check_bound(
            data, strip, ZeroList((*ZETA_ORDINATES, 25.01085758014569)), 16.0, 100.0
        ),
    }


#: the reprs the dataclass versions of these types gave, kept byte for byte
GOLDEN_REPR = {
    "GammaFactor": "GammaFactor(lam=0.5, mu=0j)",
    "LFunctionData": "LFunctionData(factors=(GammaFactor(lam=0.5, mu=0j),), "
                     "Q=0.5641895835477563, omega=(1+0j), k=1, a1=1.0)",
    "StripParams": "StripParams(a=3.0, b=-4.0, R=7.0)",
    "AdmissibleHeight": "AdmissibleHeight(value=16.0, binding='gamma-shift', "
                        "strict_adjusted=False)",
    "BranchConstants": "BranchConstants(alpha=0, h1=21.905307333976637, h2=195.5)",
    "Coefficients": "Coefficients(c1=113.65451966695521, c2=1939.1965262454298, "
                    "c3=18379.891853555375)",
    "BoundReport": "BoundReport(T0=16.0, T=100.0, S=3.710183704887832, R1=69.18424420420453, "
                   "V_star_T0=24.749713627775115, V_star_T=0.5755747355296539, "
                   "R2_T0=250.93203138400906, R2_T=121.37647486122808, alpha=0, "
                   "h1=21.905307333976637, h2=195.5, R_total=2469.7210673912027, "
                   "c1_main=113.65451966695521, c2_main=1939.1965262454298, "
                   "c3_main=18379.891853555375, c1_dbl=215.6829086129, "
                   "c2_dbl=901.7200875282324, c3_dbl=18361.93681077153)",
    "NewformSpec": "NewformSpec(level=11, weight=2)",
    "ZeroList": "ZeroList(ordinates=(14.134725141734695, 21.022039638771556), "
                "source_label='zeta')",
    "VerificationReport": "VerificationReport(count=2, main_term=28.12734358732535, "
                          "deviation=26.12734358732535, r_total=2469.7210673912027, "
                          "coeff_bound=2646.3938502540427, pass_lemma=True, pass_theorem=True)",
}

#: each type's fields, in order; the constructor takes them in this order
FIELDS = {
    "GammaFactor": ("lam", "mu"),
    "LFunctionData": ("factors", "Q", "omega", "k", "a1"),
    "StripParams": ("a", "b", "R"),
    "AdmissibleHeight": ("value", "binding", "strict_adjusted"),
    "BranchConstants": ("alpha", "h1", "h2"),
    "Coefficients": ("c1", "c2", "c3"),
    "BoundReport": (
        "T0", "T", "S", "R1", "V_star_T0", "V_star_T", "R2_T0", "R2_T", "alpha", "h1", "h2",
        "R_total", "c1_main", "c2_main", "c3_main", "c1_dbl", "c2_dbl", "c3_dbl",
    ),
    "NewformSpec": ("level", "weight"),
    "ZeroList": ("ordinates", "source_label"),
    "VerificationReport": (
        "count", "main_term", "deviation", "r_total", "coeff_bound", "pass_lemma", "pass_theorem",
    ),
}

#: the attributes a constructor stores beyond the fields, derived from them
DERIVED = {
    "GammaFactor": ("_hash",),
    "LFunctionData": (
        "degree", "lambda_cap", "lambda_q2", "log_lambda_q2", "log_a1_zeta2", "mu_cap",
        "shift_max", "arg_max", "threshold_height", "series_blocks", "lams", "lam_max",
        "lam_min", "re_mu_max", "re_mu_min", "f", "_hash",
    ),
    "StripParams": ("two_r", "right_edge", "disc_slope", "_hash"),
    "_Window": ("pieces", "heads", "alpha", "h1", "h2", "r2_t0", "v_star_t0", "head",
                "constants"),
}

#: the factor-level pieces a window shares with every window on an equal datum and strip:
#: the datum and the strip, two triples of floats (the k-free admissibility thresholds
#: and the factor-level terms of the interpolation peak), then floats, of which K is stored
#: once it has been read
PIECES = (
    "data", "strip", "thresholds", "interp", "d", "dc", "half_im", "tail", "h1_lift", "h2_reflect", "K", "ratio_slope", "slope", "trivial",
    "c1_main", "c1_dbl", "c2_dbl_head", "c3_dbl_head", "c3_scale", "c2_dbl_scale", "head_scale",
)

NAMES = sorted(GOLDEN_REPR)


@pytest.fixture(scope="module")
def values():
    return _values()


def _twin(value, name):
    """An equal value that is a distinct object, built again through the constructor."""
    return type(value)(*(getattr(value, field) for field in FIELDS[name]))


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_repr(values, name):
    assert repr(values[name]) == GOLDEN_REPR[name]


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(values, name):
    value = values[name]
    before = repr(value)
    for field in (*FIELDS[name], "undeclared"):
        with pytest.raises(FrozenInstanceError) as err:
            setattr(value, field, 1)
        assert str(err.value) == f"cannot assign to field {field!r}"
        with pytest.raises(FrozenInstanceError) as err:
            delattr(value, field)
        assert str(err.value) == f"cannot delete field {field!r}"
    assert repr(value) == before


@pytest.mark.parametrize("name", NAMES)
def test_equality_is_by_value_within_one_class(values, name):
    value = values[name]
    twin = _twin(value, name)
    assert twin is not value and twin == value and not twin != value
    assert hash(twin) == hash(value)
    for other in (object(), 1.0, tuple(getattr(value, f) for f in FIELDS[name])):
        assert value.__eq__(other) is NotImplemented
        assert value != other
    different = values["StripParams" if name != "StripParams" else "NewformSpec"]
    assert value.__eq__(different) is NotImplemented


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle_give_equal_values(values, name):
    value = values[name]
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


def test_copied_datum_keeps_its_invariants(values):
    data = values["LFunctionData"]
    for twin in (copy.copy(data), pickle.loads(pickle.dumps(data))):
        assert vars(twin) == vars(data)


@pytest.mark.parametrize("name", NAMES)
def test_match_args_are_the_constructor_fields(values, name):
    assert type(values[name]).__match_args__ == FIELDS[name]


def test_fields_are_the_constructor_parameters():
    classes = {cls.__name__: cls for cls in _Value.__subclasses__()}
    assert set(classes) == {*NAMES, probe.Window.__name__}
    for cls in classes.values():
        params = tuple(
            p.name for p in inspect.signature(cls).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD
        )
        assert cls.__match_args__ == cls._fields == params, cls.__name__


def test_window_is_compared_by_its_three_inputs():
    data, strip = presets.zeta()
    window = probe.Window(data, strip, 16.0)
    twin = probe.Window(*presets.zeta(), 16.0)
    assert twin is not window and twin == window and hash(twin) == hash(window)
    assert repr(window) == f"{probe.Window.__name__}(data={data!r}, strip={strip!r}, T0=16.0)"
    assert window != probe.Window(data, strip, 17.0)


def test_positional_match_patterns(values):
    report = values["BoundReport"]
    matched = []
    match values["GammaFactor"]:
        case GammaFactor(lam, mu):
            matched.append((lam, mu) == (0.5, 0j))
    match values["LFunctionData"]:
        case LFunctionData((GammaFactor(0.5, _),), _, omega, 1, a1):
            matched.append((omega, a1) == (1 + 0j, 1.0))
    match values["StripParams"]:
        case StripParams(a, b, R):
            matched.append((a, b, R) == (3.0, -4.0, 7.0))
    match values["AdmissibleHeight"]:
        case AdmissibleHeight(16.0, binding, False):
            matched.append(binding == "gamma-shift")
    match values["BranchConstants"]:
        case BranchConstants(0, h1, h2):
            matched.append((h1, h2) == (report.h1, 195.5))
    match values["Coefficients"]:
        case Coefficients(c1, c2, c3):
            matched.append((c1, c2, c3) == (report.c1_main, report.c2_main, report.c3_main))
    match report:
        case BoundReport(16.0, 100.0, _, _, _, _, _, _, alpha):
            matched.append(alpha == 0)
    match values["NewformSpec"]:
        case NewformSpec(level, weight):
            matched.append((level, weight) == (11, 2))
    match values["ZeroList"]:
        case ZeroList(ordinates, label):
            matched.append((ordinates, label) == (ZETA_ORDINATES, "zeta"))
    match values["VerificationReport"]:
        case VerificationReport(2, _, _, _, _, True, True):
            matched.append(True)
    assert matched == [True] * len(NAMES)


def test_zero_list_label_defaults_to_empty():
    assert ZeroList(()).source_label == ""
    assert repr(ZeroList(())) == "ZeroList(ordinates=(), source_label='')"


def test_datum_invariants_stay_out_of_repr_eq_and_hash(values):
    data = values["LFunctionData"]
    assert set(vars(data)) - set(FIELDS["LFunctionData"]) == set(DERIVED["LFunctionData"])
    assert hash(data) == hash(tuple(getattr(data, f) for f in FIELDS["LFunctionData"]))


@pytest.mark.parametrize("name", NAMES)
def test_each_value_stores_its_fields_and_derived_names_only(values, name):
    # a stray or misspelt name given to _set would add an attribute
    assert set(vars(values[name])) == {*FIELDS[name], *DERIVED.get(name, ())}


def test_window_stores_its_fields_and_derived_names_only():
    # floats and a tuple of floats, but the shared pieces; the pieces store K
    # once the window has read it; the window reads its height-level terms
    # from _height, a tuple of floats and the disc terms' tuple of floats,
    # which it does not store but for V*(T0), the disc terms' last float; the
    # Coefficients pair is stored only once a public function has asked for it
    data, strip = presets.zeta()
    pieces = probe.pieces(data, strip)
    assert set(vars(pieces)) == set(PIECES) - {"K"}
    window = probe.Window(data, strip, 16.0)
    assert window.pieces is pieces
    assert set(vars(window)) == {*probe.Window._fields, *DERIVED["_Window"]}
    assert set(vars(pieces)) == set(PIECES)
    assert pieces.data is data and pieces.strip is strip
    assert all(type(v) is float for k, v in vars(pieces).items() if k not in PIECES[:4])
    assert all(type(x) is float for k in PIECES[2:4] for x in getattr(pieces, k))
    disc, *height = probe.height(pieces, data.k, 16.0)
    assert len(disc) == 4 and len(height) == 5
    assert all(type(x) is float for x in (*disc, *height))
    assert type(window.alpha) is int and all(type(x) is float for x in window.constants)
    assert window.v_star_t0 == disc[3]
    window.report(100.0)
    assert set(vars(window)) == {*probe.Window._fields, *DERIVED["_Window"]}
    assert [(c.c1, c.c2, c.c3) for c in window.coefficients] == [
        window.constants[:3], window.constants[3:]
    ]
    assert set(vars(window)) == {*probe.Window._fields, *DERIVED["_Window"], "coefficients"}


def test_loaded_zero_list_stores_its_fields_only(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("".join(f"{t!r}\n" for t in ZETA_ORDINATES))
    zeros = load_zeros(path)
    assert vars(zeros) == {"ordinates": ZETA_ORDINATES, "source_label": str(path)}
    assert zeros == ZeroList(ZETA_ORDINATES, str(path))


def test_json_dicts_keep_the_field_order(values):
    assert list(values["BoundReport"].to_json_dict()) == [
        f.lower() for f in FIELDS["BoundReport"]
    ]
    assert list(values["VerificationReport"].to_json_dict()) == list(FIELDS["VerificationReport"])
