"""Every float of the pipeline, bit for bit, against the file frozen by scripts/freeze_float_bits.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _freeze_script():
    spec = importlib.util.spec_from_file_location(
        "freeze_float_bits", ROOT / "scripts" / "freeze_float_bits.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_frozen_float_is_unchanged():
    frozen = (Path(__file__).parent / "data" / "float_bits.txt").read_text("utf-8").splitlines()
    computed = _freeze_script().lines()
    assert len(frozen) == 64 + 25 + 100
    for want, got in zip(frozen, computed, strict=True):
        assert got == want
