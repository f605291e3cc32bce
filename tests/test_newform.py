"""Newform instantiation, table rows, and the dual-path cross-check."""

import csv
import io
import math
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from zerobound import (
    BoundaryWarning,
    GammaFactor,
    LFunctionData,
    NewformSpec,
    ValidationError,
    bounds,
    min_admissible_height,
    newform,
    newform_params,
    newform_strip,
    pipeline_constants,
    presets,
    selberg,
    select_strip,
    table_generate,
    table_row,
)
from zerobound.newform import TABLE_HEADER, read_pairs_csv

from closed_forms import closed_form_constants
from table_golden import PUBLISHED_TABLE


def test_spec_validation():
    NewformSpec(1, 12)
    with pytest.raises(ValidationError):
        NewformSpec(1, 11)  # odd weight
    with pytest.raises(ValidationError):
        NewformSpec(1, 0)
    with pytest.raises(ValidationError):
        NewformSpec(0, 12)
    with pytest.raises(ValidationError):
        NewformSpec(1, "12")
    # bool is an int subclass, but True is no level: it used to pass as 1,
    # and table_generate printed it as the level "True"
    with pytest.raises(ValidationError, match="^level must be a positive integer, got True$"):
        NewformSpec(True, 12)
    with pytest.raises(ValidationError, match="^weight must be an even integer >= 2, got False$"):
        NewformSpec(1, False)
    # past Python's 4300-digit int-to-str limit the message gave a bare
    # ValueError; it now gives the bit length
    with pytest.raises(ValidationError, match="got a negative integer of 16610 bits$"):
        NewformSpec(-10 ** 5000, 12)
    with pytest.raises(ValidationError, match="got an integer of 16610 bits$"):
        NewformSpec(1, 10 ** 5000 + 1)


def test_spec_messages_write_the_refused_value_with_repr():
    # a str spelling a valid number is named as the str it is; ints read as before
    with pytest.raises(ValidationError, match="^level must be a positive integer, got '1'$"):
        NewformSpec("1", 12)
    with pytest.raises(ValidationError, match="^weight must be an even integer >= 2, got '12'$"):
        presets.newform(1, "12")
    with pytest.raises(ValidationError, match="^weight must be an even integer >= 2, got 11$"):
        presets.newform(1, 11)
    with pytest.raises(ValidationError, match="^level must be a positive integer, got 0$"):
        NewformSpec(0, 12)


def test_spec_rejects_sizes_the_pipeline_cannot_run():
    # float(10**320) overflows: newform_params raised a bare OverflowError
    with pytest.raises(ValidationError, match="level is too large to convert to a float"):
        NewformSpec(10 ** 320, 12)
    # 15 + weight rounded to 2^53, below the gamma-shift threshold 2^53 + 2:
    # table_row raised AdmissibilityError on its own min_height
    with pytest.raises(ValidationError, match="^weight must be <= 9007199254740976,"):
        NewformSpec(1, 2 ** 53 - 14)


@pytest.mark.filterwarnings("ignore::zerobound.errors.BoundaryWarning")
@pytest.mark.parametrize("level, weight", [(1, 2 ** 53 - 16), (10 ** 308, 12)])
def test_largest_accepted_sizes_give_a_row(level, weight):
    # at these sizes several constants exceed 2^53, so ceil_guarded warns
    spec = NewformSpec(level, weight)
    assert float(spec.min_height) == spec.min_height
    assert len(table_row(spec)) == 6


def test_params_level_one_weight_twelve():
    data = newform_params(NewformSpec(1, 12))
    assert data.Q == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    assert data.factors[0].mu == 5.5 + 0j
    assert data.omega == 1 + 0j  # i^12
    assert data.k == 0 and data.a1 == 1.0
    assert (data.degree, data.lambda_cap, data.mu_cap) == (2.0, 1.0, -20 + 0j)


def test_params_level_four_weight_two():
    data = newform_params(NewformSpec(4, 2))
    assert data.Q == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert data.factors[0].mu == 0.5 + 0j
    assert data.omega == -1 + 0j  # i^2


def test_lambda_q2_is_level_over_four_pi_squared():
    for level in (1, 4, 64):
        data = newform_params(NewformSpec(level, 12))
        assert data.lambda_q2 == pytest.approx(
            level / (4.0 * math.pi ** 2), rel=1e-14
        )


def test_data_of_one_weight_share_one_factor_tuple():
    # the tuple is built once per weight, with the weight's level-1 datum, and
    # kept for the 256 latest weights; the entry's pieces are keyed by that tuple
    same = [newform_params(NewformSpec(level, 12)).factors for level in (1, 11, 389)]
    assert same[0] is same[1] is same[2] == (GammaFactor(1.0, complex(5.5, 0.0)),)
    datum, pieces, t0, _ = newform._weight_datum(12)
    assert same[0] is datum.factors and type(t0) is float and t0 == 27.0
    assert pieces is bounds._factor_pieces(same[0], newform_strip())
    assert newform_params(NewformSpec(1, 14)).factors is not same[0]
    for weight in range(2, 2 * 300, 2):
        newform_params(NewformSpec(1, weight))
    assert newform._weight_datum.cache_info().currsize == 256


@pytest.mark.parametrize("weight", [2, 4, 12, 2 ** 53 - 16])
@pytest.mark.parametrize("level", [1, 11, 389, 10 ** 300])
def test_datum_from_the_weight_template_equals_the_checked_datum(level, weight):
    # newform_params copies the weight's level-1 datum and computes only its
    # Q-dependent part; LFunctionData.__init__ computes every attribute
    data = newform_params(NewformSpec(level, weight))
    built = LFunctionData(
        factors=(GammaFactor(1.0, complex((weight - 1) / 2.0, 0.0)),),
        Q=math.sqrt(level) / (2.0 * math.pi), omega=1j ** (weight % 4), k=0, a1=1.0,
    )
    assert type(data) is LFunctionData and data == built and hash(data) == hash(built)
    assert vars(data) == vars(built)


def test_pipeline_constants_are_alike_on_cold_and_warm_caches():
    # the 25 published rows and 200 seeded pairs, each first with every cache
    # emptied, then all again with the per-weight caches filled
    from conftest import empty_caches

    rng = random.Random(27)
    specs = [NewformSpec(*pair) for pair in PUBLISHED_TABLE] + [
        NewformSpec(rng.randint(1, 10 ** 4), 2 * rng.randint(1, 32)) for _ in range(200)
    ]
    cold = []
    for spec in specs:
        empty_caches()
        cold.append(pipeline_constants(spec))
    warm = [pipeline_constants(spec) for spec in specs]
    assert list(map(_bits, warm)) == list(map(_bits, cold))


@settings(max_examples=150, deadline=None)
@given(level=st.integers(1, 10 ** 300), weight=st.integers(1, 2 ** 52 - 8).map(lambda h: 2 * h))
@example(level=1, weight=2)
@example(level=1, weight=2 ** 53 - 16)
@example(level=10 ** 300, weight=2)
@example(level=10 ** 300, weight=2 ** 53 - 16)
def test_pipeline_constants_are_the_window_constants(level, weight):
    # the table computes the window's floats without the datum or the window;
    # the public bounds take the same floats from the datum's window
    _assert_window_constants(NewformSpec(level, weight))


def test_published_and_seeded_rows_are_the_window_constants():
    # an ulp of lambda Q^2 reaches the constants' bits for few levels, the
    # published ones among them, so these run on every pass
    rng = random.Random(29)
    for pair in [*PUBLISHED_TABLE] + [(rng.randint(1, 10 ** 6), 2 * rng.randint(1, 64))
                                   for _ in range(500)]:
        _assert_window_constants(NewformSpec(*pair))


def _assert_window_constants(spec):
    window = bounds._window(newform_params(spec), newform_strip(), float(spec.min_height))
    assert [x.hex() for x in pipeline_constants(spec)] == [x.hex() for x in window.constants]


def test_a_warm_table_row_builds_no_datum_and_no_window(monkeypatch):
    # once its weight's datum and pieces are cached, a row, of a level seen
    # or not, copies no datum (_set_q) and builds no window
    specs = [NewformSpec(*pair) for pair in PUBLISHED_TABLE]
    table_generate(specs)
    calls = []
    for cls, name in ((bounds._Window, "__init__"), (selberg.LFunctionData, "_set_q")):
        def counted(*args, _fn=getattr(cls, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    table_generate(specs + [NewformSpec(10 ** 300 + 1, 12), NewformSpec(7, 2)])
    assert calls == []
    newform_params(specs[0])  # the counters see the public route
    assert calls == ["_set_q"]


def test_table_leaves_the_window_memo_as_it_was():
    # the 25 bundled rows used to fill 25 entries of the 16-slot window memo,
    # evicting the zeta window that constants, bound and verify share
    data, strip = presets.zeta()
    zeta_window = bounds._window(data, strip, 16.0)
    info = bounds._window.cache_info()
    table_generate([NewformSpec(*pair) for pair in PUBLISHED_TABLE])
    assert bounds._window.cache_info() == info
    assert bounds._window(data, strip, 16.0) is zeta_window


def _bits(floats):
    return [struct.pack("<d", x) for x in floats]


def test_newform_strip_is_select_strip_at_unit_coefficient():
    assert newform_strip() == select_strip(1.0)


def test_table_selects_the_strip_once_per_process(monkeypatch):
    calls = []

    def counting_select_strip(a1, a=None, b=None):
        calls.append(a1)
        return select_strip(a1, a, b)

    monkeypatch.setattr(newform, "select_strip", counting_select_strip)
    specs = [NewformSpec(*pair) for pair in PUBLISHED_TABLE]
    first = table_generate(specs)
    assert table_generate(specs) == first
    assert calls == []  # the module selected it when imported


def test_min_height_matches_spec_property():
    strip = newform_strip()
    for kappa in (2, 12, 34, 50):
        spec = NewformSpec(1, kappa)
        h = min_admissible_height(newform_params(spec), strip)
        assert h.value == spec.min_height == 15 + kappa


@pytest.mark.parametrize("pair", [(1, 12), (11, 2), (64, 40)])
def test_table_row_spec_examples(pair):
    assert table_row(NewformSpec(*pair)) == PUBLISHED_TABLE[pair]


@pytest.mark.parametrize("pair", [(1, 12), (11, 2), (64, 40), (2, 10), (63, 38)])
def test_dual_path_agreement_sample(pair):
    spec = NewformSpec(*pair)
    for name, a, b in zip(TABLE_HEADER[3:], pipeline_constants(spec), closed_form_constants(spec)):
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9), (
            f"{name} diverges for {pair}: pipeline {a!r} vs closed form {b!r}"
        )


def test_c1_doubling_column_constant():
    values = {table_row(NewformSpec(n, k))[3] for (n, k) in PUBLISHED_TABLE}
    assert values == {432}


def test_level_independence_for_fixed_weight():
    # only the conductor-log terms feel N: cL1 and cL3 (and dbl c1, c3) match
    rows = {n: pipeline_constants(NewformSpec(n, 36)) for n in (1, 11, 40, 63, 64)}
    base = rows[1]
    for n, row in rows.items():
        assert row[0] == pytest.approx(base[0], rel=1e-15)  # cL1
        assert row[2] == pytest.approx(base[2], rel=1e-15)  # cL3
        assert row[3] == pytest.approx(base[3], rel=1e-15)  # c1
        assert row[5] == pytest.approx(base[5], rel=1e-15)  # c3
    assert len({round(rows[n][1], 6) for n in rows}) == len(rows)  # cL2 spreads


@pytest.mark.parametrize("pair, pre_ceiling, row", [
    ((1273, 64), "4027.9999993998345", (2163, -4442, 73774, 432, 4028, 8022)),
    ((5092, 64), "4326.9999993998335", (2163, -4126, 73774, 432, 4327, 8022)),
])
def test_a_row_inside_the_ceiling_guard_warns_once(pair, pre_ceiling, row):
    # levels in the published range whose cL2 sits within CEIL_GUARD below an integer
    with pytest.warns(BoundaryWarning) as record:
        assert table_row(NewformSpec(*pair)) == row
    assert [str(w.message) for w in record] == [
        f"pre-ceiling value {pre_ceiling} for (N={pair[0]}, kappa={pair[1]}) is within 1e-06 "
        f"of an integer; the ceiling may be unreliable"
    ]


_SPECS = st.builds(NewformSpec, st.integers(1, 10 ** 300),
                   st.integers(1, 2 ** 52 - 8).map(lambda h: 2 * h))


@pytest.mark.filterwarnings("ignore::zerobound.errors.BoundaryWarning")
@settings(max_examples=60, deadline=None)
@given(st.lists(_SPECS, max_size=30))
@example([NewformSpec(1273, 64), NewformSpec(5092, 64), NewformSpec(10 ** 300, 2 ** 53 - 16)])
def test_table_generate_writes_what_csv_writer_writes(specs):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TABLE_HEADER)
    writer.writerows([spec.level, spec.weight, spec.min_height, *table_row(spec)] for spec in specs)
    assert table_generate(specs) == out.getvalue()


def test_table_generate_shapes():
    assert table_generate([]) == "N,kappa,T0,cL1,cL2,cL3,c1,c2,c3\n"
    doc = table_generate([NewformSpec(1, 12), NewformSpec(1, 12)])
    lines = doc.strip().split("\n")
    assert len(lines) == 3
    assert lines[1] == lines[2] == "1,12,27,293,1945,11637,432,1811,10506"


def test_read_pairs_csv():
    specs = read_pairs_csv("N,kappa\n1,12\n11,2\n")
    assert [(s.level, s.weight) for s in specs] == [(1, 12), (11, 2)]
    # empty and all-blank rows are skipped, and later line numbers still count them
    assert read_pairs_csv("N,kappa\n\n1,12\n , \n11,2\n") == specs
    with pytest.raises(ValidationError, match="^pairs file line 4: "):
        read_pairs_csv("N,kappa\n\n , \n1,oops\n")
    with pytest.raises(ValidationError):
        read_pairs_csv("kappa,N\n12,1\n")
    with pytest.raises(ValidationError, match="line 3"):
        read_pairs_csv("N,kappa\n1,12\n1,oops\n")
    with pytest.raises(ValidationError, match="^pairs file line 3: weight must be <="):
        read_pairs_csv(f"N,kappa\n1,12\n1,{2 ** 53 - 14}\n")
    with pytest.raises(ValidationError):
        read_pairs_csv("")
