"""CLI behaviour: subcommands, exit codes, formatting, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zerobound import presets
from zerobound.cli import main
from zerobound.selberg import document_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- params -------------------------------------------------------------------

def test_params_newform(capsys):
    code, out, _ = run_cli(capsys, "params", "--preset", "newform", "--level", "1", "--weight", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["Q"] == pytest.approx(0.159154943092, rel=1e-11)
    assert doc["factors"] == [{"lambda": 1.0, "mu_re": 5.5, "mu_im": 0.0}]
    assert (doc["a"], doc["b"]) == (3.0, -4.0)
    assert doc["k"] == 0 and doc["a1"] == 1.0


def test_params_newform_requires_level_and_weight(capsys):
    code, _, err = run_cli(capsys, "params", "--preset", "newform")
    assert code == 1
    assert "level" in err


def test_params_zeta(capsys):
    code, out, _ = run_cli(capsys, "params", "--preset", "zeta")
    assert code == 0
    doc = json.loads(out)
    assert doc["factors"][0]["lambda"] == 0.5
    assert doc["k"] == 1


def test_params_validation_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "params", "--preset", "newform", "--level", "1", "--weight", "11")
    assert code == 1
    assert "weight" in err


# --- constants / bound -----------------------------------------------------------

@pytest.fixture()
def newform_doc(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "params", "--preset", "newform", "--level", "1", "--weight", "12")
    assert code == 0
    path = tmp_path / "nf.json"
    path.write_text(out)
    return path


def test_constants_report(newform_doc, capsys):
    code, out, _ = run_cli(capsys, "constants", "--input", str(newform_doc), "--t0", "27")
    assert code == 0
    doc = json.loads(out)
    assert doc["t"] == 54.0  # default upper height 2 * t0
    assert doc["alpha"] == 0
    assert doc["h2"] == 391.0
    assert doc["c1_dbl"] == pytest.approx(299.0 / math.log(2.0), rel=1e-9)
    assert doc["input"]["Q"] == pytest.approx(0.159154943092, rel=1e-11)


def test_constants_inadmissible(newform_doc, capsys):
    code, _, err = run_cli(capsys, "constants", "--input", str(newform_doc), "--t0", "20")
    assert code == 1
    assert "gamma-shift" in err


def test_bound_success(newform_doc, capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--input", str(newform_doc), "--t0", "27", "--t", "100"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["r_total"] == pytest.approx(3316.23802511, rel=1e-11)
    assert doc["coeff_bound"] >= doc["r_total"]


def test_bound_rejects_bad_window(newform_doc, capsys):
    code, _, err = run_cli(capsys, "bound", "--input", str(newform_doc), "--t0", "27", "--t", "27")
    assert code == 1
    assert "T > T0" in err


@pytest.mark.parametrize("field, value", [
    ("a1", math.nan), ("Q", "abc"), ("Q", math.inf), ("k", 1.7), ("k", True),
    ("factors", [{"lambda": 1.0, "mu_re": math.nan, "mu_im": 0.0}]),
    # well formed, but lam^(2 lam) overflows
    ("factors", [{"lambda": 200.0, "mu_re": 0.0, "mu_im": 0.0}]),
    # well formed, but lambda Q^2 underflows, or k is past 10^15
    ("Q", 1e-300), ("k", 10 ** 20),
])
def test_bad_document_exits_one(newform_doc, tmp_path, capsys, field, value):
    doc = json.loads(newform_doc.read_text())
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # NaN and Infinity literals; json.load reads them back
    code, out, err = run_cli(capsys, "bound", "--input", str(bad), "--t0", "27", "--t", "100")
    assert (code, out) == (1, "")
    assert err.startswith("zerobound: error:") and "Traceback" not in err


def test_non_utf8_zero_file_exits_one(newform_doc, tmp_path, capsys):
    bad = tmp_path / "zeros.txt"
    bad.write_bytes(b"30.1\n\xff\n")
    code, out, err = run_cli(
        capsys, "verify", "--input", str(newform_doc), "--zeros", str(bad), "--t0", "27", "--t", "100"
    )
    assert (code, out) == (1, "")
    assert err.startswith("zerobound: error:") and str(bad) in err and "UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("t", ["inf", "1e999", "nan"])
def test_non_finite_height_exits_one(newform_doc, capsys, t):
    code, out, err = run_cli(capsys, "bound", "--input", str(newform_doc), "--t0", "27", "--t", t)
    assert (code, out) == (1, "")
    assert "finite" in err


def test_non_finite_result_exits_one(newform_doc, capsys):
    # finite heights whose T0 log T0 term overflows to infinity
    code, out, err = run_cli(capsys, "constants", "--input", str(newform_doc), "--t0", "1e307")
    assert (code, out) == (1, "")
    assert err.startswith("zerobound: error:")


@pytest.mark.parametrize("a1", [1e100, 1e297])
def test_huge_coefficient_exits_zero(tmp_path, capsys, a1):
    doc = {**document_dict(*presets.zeta()), "a1": a1, "a": None, "b": None}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "constants", "--input", str(path), "--t0", "8000")
    assert code == 0
    assert json.loads(out)["input"]["a1"] == a1


_FIELDS = ("factors", "Q", "omega_re", "omega_im", "k", "a1", "a", "b", "lambda", "mu_re", "mu_im")
_FACTOR_FIELDS = ("lambda", "mu_re", "mu_im")
_MISSING = "<missing>"
_EDGE = st.sampled_from([10 ** 400, 10 ** 20, -1, 0, 1e300, 1e-300, 0.5, 200.0, math.nan, math.inf])
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
_HEIGHT = st.sampled_from(["16", "100", "8000", "1e307", "-3"]) | st.text(max_size=6)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(
    edits=st.dictionaries(st.sampled_from(_FIELDS), st.just(_MISSING) | _EDGE | _JSON, max_size=3),
    command=st.sampled_from(["constants", "bound", "verify"]),
    t0=_HEIGHT,
    t=_HEIGHT,
)
def test_fuzzed_document_and_heights_never_crash(fuzz_dir, zeta_zero_path, edits, command, t0, t):
    doc = document_dict(*presets.zeta())
    factor = doc["factors"][0]
    for field, value in edits.items():
        target = factor if field in _FACTOR_FIELDS else doc
        if value is _MISSING:
            target.pop(field, None)
        else:
            target[field] = value
    path = fuzz_dir / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--input", str(path), "--t0", t0, "--t", t]
    if command == "verify":
        argv += ["--zeros", str(zeta_zero_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=lambda c: pytest.fail(f"non-standard JSON {c}"))


# --- table -------------------------------------------------------------------------

def test_table_default_pairs(capsys):
    code, out, _ = run_cli(capsys, "table", "--preset", "newform")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,kappa,T0,cL1,cL2,cL3,c1,c2,c3"
    assert len(lines) == 26
    assert lines[1] == "1,12,27,293,1945,11637,432,1811,10506"
    assert lines[-1] == "64,40,55,979,-125,34631,432,2563,8060"


def test_table_custom_pairs(tmp_path, capsys):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("N,kappa\n11,2\n")
    code, out, _ = run_cli(capsys, "table", "--preset", "newform", "--pairs", str(pairs))
    assert code == 0
    assert out.strip().split("\n")[1] == "11,2,17,229,2941,21661,432,1879,24239"


@pytest.mark.parametrize("pair", [f"{10 ** 320},12", f"1,{2 ** 53 - 14}"], ids=["level", "weight"])
def test_table_pairs_too_large_names_the_line(tmp_path, capsys, pair):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"N,kappa\n11,2\n{pair}\n")
    code, out, err = run_cli(capsys, "table", "--preset", "newform", "--pairs", str(pairs))
    assert code == 1 and out == ""
    assert "pairs file line 3:" in err and "Traceback" not in err


def test_table_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "table", "--preset", "newform", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("N,kappa,T0,")


def test_table_deterministic_across_processes():
    cmd = [sys.executable, "-m", "zerobound.cli", "table", "--preset", "newform"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.decode().count("\n") == 26


#: the import check CI's stdlib-only step runs: the CLI's import leaves out the
#: modules only some commands need (or none: the value types are not dataclasses)
IMPORT_CHECK = (
    "import zerobound.cli, sys; "
    "loaded = {'dataclasses', 'importlib.resources', 'inspect'} & set(sys.modules); "
    "sys.exit(f'import zerobound.cli loaded {sorted(loaded)}' if loaded else 0)"
)


def test_cli_import_loads_no_dataclasses_resources_or_inspect():
    # -S, because a site .pth file may import importlib.resources before any package
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-S", "-c", IMPORT_CHECK], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")


# --- verify ---------------------------------------------------------------------------

@pytest.fixture()
def zeta_doc(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "params", "--preset", "zeta")
    assert code == 0
    path = tmp_path / "zeta.json"
    path.write_text(out)
    return path


def test_verify_passes_on_real_data(zeta_doc, zeta_zero_path, capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--input", str(zeta_doc), "--zeros", str(zeta_zero_path),
        "--t0", "16", "--t", "100",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 28
    assert doc["pass_lemma"] is True and doc["pass_theorem"] is True


def test_verify_fails_with_exit_two(zeta_doc, tmp_path, capsys):
    fake = tmp_path / "fake.txt"
    fake.write_text("".join(f"{20.0 + i * 0.0001}\n" for i in range(50_000)))
    code, out, _ = run_cli(
        capsys, "verify", "--input", str(zeta_doc), "--zeros", str(fake),
        "--t0", "16", "--t", "30",
    )
    assert code == 2
    assert json.loads(out)["pass_lemma"] is False


def test_verify_bad_zero_file(zeta_doc, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("14.1\nnot-a-number\n")
    code, _, err = run_cli(
        capsys, "verify", "--input", str(zeta_doc), "--zeros", str(bad),
        "--t0", "16", "--t", "30",
    )
    assert code == 1
    assert "line 2" in err


# --- argument handling / formatting -------------------------------------------------------

def test_unknown_flag_exits_one(capsys):
    code, _, err = run_cli(capsys, "table", "--preset", "newform", "--bogus")
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_precision_env_override(newform_doc, capsys, monkeypatch):
    monkeypatch.setenv("ZEROBOUND_PRECISION", "4")
    code, out, _ = run_cli(capsys, "params", "--preset", "newform", "--level", "1", "--weight", "12")
    assert code == 0
    assert json.loads(out)["Q"] == 0.1592


def test_json_uses_twelve_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "params", "--preset", "zeta")
    assert code == 0
    assert json.loads(out)["Q"] == 0.564189583548  # 1/sqrt(pi) to 12 digits


# --- golden bytes ---------------------------------------------------------------------

#: outputs on the zeta preset document; a changed byte is a changed format or value
DATA_DIR = Path(__file__).parent / "data"
CLI_GOLDEN = DATA_DIR / "cli"


@pytest.mark.parametrize("name, argv", [
    ("zeta", ["params", "--preset", "zeta"]),
    ("constants", ["constants", "--input", str(CLI_GOLDEN / "zeta.json"), "--t0", "16"]),
    ("bound", ["bound", "--input", str(CLI_GOLDEN / "zeta.json"), "--t0", "16", "--t", "100"]),
    ("verify", ["verify", "--input", str(CLI_GOLDEN / "zeta.json"),
                "--zeros", str(DATA_DIR / "zeta_zeros_200.txt"), "--t0", "16", "--t", "100"]),
])
def test_cli_output_matches_golden_bytes(capsys, monkeypatch, name, argv):
    monkeypatch.delenv("ZEROBOUND_PRECISION", raising=False)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == (CLI_GOLDEN / f"{name}.json").read_bytes()
