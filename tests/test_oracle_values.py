"""The frozen expected values in the unit tests are the ones the oracle script prints."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
SCRIPT = TESTS.parent / "scripts" / "derive_oracle_values.py"

#: module-level frozen constant -> the label the script prints it under
LABELS = {
    "test_bounds.py": {
        "S_NF12_27_100": "S(27,100)",
        "R1_NF12_27_100": "R1(27,100)",
        "R1_NF12_27_1": "R1(27,1)  (formal)",
        "R2_NF12_27": "R2(27)",
        "I3_NF12_27": "I3(27)",
        "RTOT_NF12_27_100": "R_total(27,100)",
        "R2_ZETA_16": "R2(16)",
        "RTOT_ZETA_16_100": "R_total(16,100)",
        "C1_ZETA": "c1",
        "C2_ZETA_16": "c2(16)",
        "C3_ZETA_16": "c3(16)",
    },
    "test_gammabounds.py": {
        "W1_AT_M17_13I": "w1(-17+13i)",
        "PAIR_NF12_S4_T27": "pair_bound(sigma=-4, t=27)",
        "RATIO_NF12_S2_T27": "ratio_bound(sigma=-2, t=27)",
        "SUP_NF12_T27": "ratio_sup(T=27)",
        "SUP_NF12_T15": "ratio_sup(T=15)",
        "REFLECT_ZETA_HALF_100": "zeta sigma=1/2 t=100",
        "REFLECT_NF12_M2_30": "nf12 sigma=-2 t=30",
        "ENVELOPE_NF12_LEFT": "left  sigma=-4 t=30 T=30",
        "ENVELOPE_NF12_MID": "mid   sigma=0  t=30 T=30",
    },
    "test_selberg.py": {
        "TAIL_2": "tail_sum(2, 1)",
        "TAIL_3": "tail_sum(3, 1)",
        "TAIL_4": "tail_sum(4, 1)",
    },
}


def _frozen_constants(path: Path) -> dict[str, float]:
    """Every module-level NAME = <float literal> assignment of a test module.

    An UPPER_CASE assignment that ast.literal_eval refuses, such as a list
    comprehension, is skipped: it freezes no value.
    """
    constants = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id.isupper():
                try:
                    value = ast.literal_eval(node.value)
                except (ValueError, TypeError):  # no literal, or one that cannot be built
                    continue
                if isinstance(value, float):
                    constants[target.id] = value
    return constants


def test_frozen_constants_skip_what_is_no_literal(tmp_path):
    module = tmp_path / "test_module.py"
    module.write_text("GRID = [x / 2 for x in range(3)]\nFROZEN = 1.5\nCOUNT = 3\nlower = 2.5\n",
                      encoding="utf-8")
    assert _frozen_constants(module) == {"FROZEN": 1.5}


def test_frozen_values_match_the_oracle_script():
    out = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    printed = {}
    for line in out.splitlines():
        if line and not line.startswith("#"):
            label, _, value = line.rpartition(" = ")
            printed[label] = float(value)
    for module, labels in LABELS.items():
        frozen = _frozen_constants(TESTS / module)
        assert set(frozen) == set(labels), module
        for name, value in frozen.items():
            assert value == pytest.approx(printed[labels[name]], rel=1e-15, abs=0.0), name
