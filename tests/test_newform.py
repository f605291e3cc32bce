"""Newform instantiation, table rows, and the dual-path cross-check."""

import math

import pytest

from zerobound import (
    NewformSpec,
    ValidationError,
    min_admissible_height,
    newform,
    newform_params,
    newform_strip,
    pipeline_constants,
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


def test_conductor_product_is_level_over_four_pi_squared():
    for level in (1, 4, 64):
        data = newform_params(NewformSpec(level, 12))
        assert data.lambda_q2 == pytest.approx(
            level / (4.0 * math.pi ** 2), rel=1e-14
        )


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
    assert calls == [1.0]
    assert table_generate(specs) == first
    assert calls == [1.0]


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


def test_table_generate_shapes():
    assert table_generate([]) == "N,kappa,T0,cL1,cL2,cL3,c1,c2,c3\n"
    doc = table_generate([NewformSpec(1, 12), NewformSpec(1, 12)])
    lines = doc.strip().split("\n")
    assert len(lines) == 3
    assert lines[1] == lines[2] == "1,12,27,293,1945,11637,432,1811,10506"


def test_read_pairs_csv():
    specs = read_pairs_csv("N,kappa\n1,12\n11,2\n")
    assert [(s.level, s.weight) for s in specs] == [(1, 12), (11, 2)]
    with pytest.raises(ValidationError):
        read_pairs_csv("kappa,N\n12,1\n")
    with pytest.raises(ValidationError, match="line 3"):
        read_pairs_csv("N,kappa\n1,12\n1,oops\n")
    with pytest.raises(ValidationError, match="^pairs file line 3: weight must be <="):
        read_pairs_csv(f"N,kappa\n1,12\n1,{2 ** 53 - 14}\n")
    with pytest.raises(ValidationError):
        read_pairs_csv("")
