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

import probe
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


@pytest.mark.parametrize("edits, message", [
    # a1 pi^2 overflows: this failed later, with "a result is not finite"
    ({"a1": 1.83e307}, "a1 pi^2 / 6 overflows a float, got a1 = 1.83e+307"),
    # R = a - b overflows, so no height was admissible
    ({"a": 1e308, "b": -1e308}, "strip needs a finite a + 2R, got a = 1e+308, b = -1e+308"),
    # 2 |lam + conj(mu)| / lam overflows: this failed with "needs T0 >= inf"
    ({"factors": [{"lambda": 1e-300, "mu_re": 1e10, "mu_im": 0.0},
                  {"lambda": 1.0, "mu_re": 0.0, "mu_im": 0.0}]},
     "the gamma-factor threshold height overflows a float (|mu| / lam is too large)"),
])
def test_overflowing_invariant_exits_one(newform_doc, tmp_path, capsys, edits, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads(newform_doc.read_text()), **edits}))
    code, out, err = run_cli(capsys, "bound", "--input", str(bad), "--t0", "27", "--t", "100")
    assert (code, out) == (1, "")
    assert err == f"zerobound: error: {message}\n"


def test_non_utf8_zero_file_exits_one(newform_doc, tmp_path, capsys):
    bad = tmp_path / "zeros.txt"
    bad.write_bytes(b"30.1\n\xff\n")
    code, out, err = run_cli(
        capsys, "verify", "--input", str(newform_doc), "--zeros", str(bad), "--t0", "27", "--t", "100"
    )
    assert (code, out) == (1, "")
    assert err.startswith("zerobound: error:") and str(bad) in err and "UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, content", [
    (["constants", "--t0", "16", "--input"], b"\xff\xfe{}"),
    (["bound", "--t0", "16", "--t", "100", "--input"], b"[" * 100_000),
    (["table", "--preset", "newform", "--pairs"], b"\xff\xfeN,kappa\n11,2\n"),
], ids=["input-not-utf8", "input-nested", "pairs-not-utf8"])
def test_unreadable_input_file_exits_one(tmp_path, capsys, argv, content):
    # a file that is not UTF-8, or a JSON document nested past the recursion
    # limit, raised UnicodeDecodeError or RecursionError out of main
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    code, out, err = run_cli(capsys, *argv, str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("zerobound: error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--zeros", "ZEROS", "--t0", "27", "--t", "100", "--input"],
    ["table", "--preset", "newform", "--pairs"],
], ids=["input", "pairs"])
def test_non_utf8_file_is_named(tmp_path, capsys, argv):
    # verify reads two files; the message says which one is not UTF-8
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("30.1\n")
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe{}")
    argv = [str(zeros) if a == "ZEROS" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, str(bad))
    assert (code, out) == (1, "")
    assert err == (f"zerobound: error: {bad}: not a UTF-8 text file ('utf-8' codec can't "
                   "decode byte 0xff in position 0: invalid start byte)\n")


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


ROOT = Path(__file__).resolve().parents[1]

#: the table check CI's stdlib-only step runs, its stdout compared with
#: perfbench/ref/table.out: the bundled pairs are read with a plain open, and
#: the table never reaches the lemma layer
TABLE_CHECK = (
    "import sys, zerobound.cli; "
    "code = zerobound.cli.main(['table', '--preset', 'newform']); "
    "loaded = {'importlib.resources', 'zerobound.gammabounds', 'zipfile'} & set(sys.modules); "
    "sys.exit(f'zerobound table loaded {sorted(loaded)}, exit {code}' if loaded or code else 0)"
)


def _run_stdlib_child(check: str, *argv: str) -> subprocess.CompletedProcess:
    # -S, because a site .pth file may import importlib.resources before any package
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-S", "-c", check, *argv], env=env,
                          capture_output=True, text=True)


def test_cli_import_loads_no_dataclasses_resources_or_inspect():
    done = _run_stdlib_child(probe.IMPORT_CHECK)
    assert (done.returncode, done.stderr) == (0, "")


def test_table_process_reads_the_bundled_pairs_without_importlib_resources():
    done = _run_stdlib_child(TABLE_CHECK)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (ROOT / "perfbench" / "ref" / "table.out").read_text(encoding="utf-8")


def test_ci_workflow_runs_both_checks_verbatim():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert probe.IMPORT_CHECK in workflow and TABLE_CHECK in workflow


#: a child's statement that prints the sorted zerobound modules it has loaded to out
LOADED = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'zerobound'), file=out)"
#: what import zerobound, and so any import from the package, loads: no lemma layer
PACKAGE_MODULES = ["zerobound", "zerobound.bounds", "zerobound.errors", "zerobound.newform",
                   "zerobound.selberg", "zerobound.zeros"]
#: what each command's process loads: today every command loads the same modules
COMMAND_MODULES = sorted([*PACKAGE_MODULES, "zerobound.cli", "zerobound.presets"])


@pytest.mark.parametrize("module", ["zerobound", "zerobound.bounds"])
def test_the_package_import_loads_no_lemma_layer(module):
    done = _run_stdlib_child(f"import sys, {module}; out = sys.stdout; {LOADED}")
    assert (done.returncode, done.stderr, done.stdout.split()) == (0, "", PACKAGE_MODULES)


#: the package's export list; a lazier zerobound/__init__.py must keep it
EXPORTS = [
    "AdmissibilityError", "AdmissibleHeight", "BoundReport", "BoundaryWarning",
    "BranchConstants", "Coefficients", "DomainError", "GammaFactor", "InvalidStripError",
    "LFunctionData", "NewformSpec", "StripParams", "ValidationError", "VerificationReport",
    "ZeroFileError", "ZeroList", "ZeroboundError", "argument_integral_bound", "bound_report",
    "bounds", "branch_constants", "ceil_guarded", "check_bound", "count_window",
    "disc_count_bound", "doubling_coefficients", "errors", "gammabounds",
    "integrated_ratio_error", "load_document", "load_zeros", "log_integral_bound",
    "magnitude_envelope", "main_term", "min_admissible_height", "newform", "newform_params",
    "newform_strip", "pipeline_constants", "ratio_error_bound", "ratio_error_sup",
    "ratio_error_total", "reflection_log_main", "remainder_pair_bound", "require_admissible",
    "selberg", "select_strip", "shifted_constant", "stirling_remainder_bound",
    "table_generate", "table_row", "tail_sum", "total_count_error", "trivial_zero_window",
    "vertical_integral_bound", "window_coefficients", "zeros",
]
SUBMODULES = {"bounds", "errors", "gammabounds", "newform", "selberg", "zeros"}
#: the exports that the lemma layer defines
LEMMAS = [
    "argument_integral_bound", "integrated_ratio_error", "magnitude_envelope", "ratio_error_bound",
    "ratio_error_sup", "ratio_error_total", "reflection_log_main", "remainder_pair_bound",
    "stirling_remainder_bound",
]
#: the gamma-ratio kernel, which bounds defines and the lemma layer imports
KERNEL = ["_factor_kernels", "_interp_terms", "_kernel_sums", "_log_interp_peak", "_pair_secant",
          "_phase", "_sec_sq"]


def test_export_list_is_pinned():
    import zerobound
    from zerobound import bounds, gammabounds

    assert sorted(zerobound.__all__) == EXPORTS
    assert set(EXPORTS) <= set(dir(zerobound))
    star = {}
    exec("from zerobound import *", star)
    for name in EXPORTS:
        # each name is the object its defining submodule binds, however it is imported
        got, imported = getattr(zerobound, name), {}
        exec(f"from zerobound import {name}", imported)
        defined = (sys.modules[f"zerobound.{name}"] if name in SUBMODULES
                   else vars(sys.modules[got.__module__])[name])
        assert got is defined is imported[name] is star[name], name
    assert [name for name in EXPORTS if name not in SUBMODULES
            and getattr(zerobound, name).__module__ == "zerobound.gammabounds"] == LEMMAS
    assert gammabounds._factor_index.__module__ == "zerobound.gammabounds"
    assert {getattr(bounds, name).__module__ for name in KERNEL} == {"zerobound.bounds"}
    with pytest.raises(AttributeError, match=r"^module 'zerobound' has no attribute 'nowhere'$"):
        zerobound.nowhere


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


@pytest.mark.parametrize("command, usage", [
    ("", "usage: zerobound [-h] {params,constants,bound,table,verify} ...\n"),
    ("params", "usage: zerobound params [-h] --preset {newform,zeta} [--level LEVEL]\n"
               "                        [--weight WEIGHT] [--out OUT]\n"),
    ("constants", "usage: zerobound constants [-h] --input INPUT --t0 T0 [--t T] [--out OUT]\n"),
    ("bound", "usage: zerobound bound [-h] --input INPUT --t0 T0 --t T [--out OUT]\n"),
    ("table", "usage: zerobound table [-h] --preset {newform} [--pairs PAIRS] [--out OUT]\n"),
    ("verify", "usage: zerobound verify [-h] --input INPUT --zeros ZEROS --t0 T0 --t T\n"
               "                        [--out OUT]\n"),
])
def test_usage_lines_are_pinned(capsys, monkeypatch, command, usage):
    prog = " ".join(["zerobound", *command.split()])
    # the parser is reused, but each call reads the terminal width afresh: a wide
    # terminal first, where no usage line wraps
    monkeypatch.setenv("COLUMNS", "200")
    code, _, err = run_cli(capsys, *command.split())
    assert code == 1
    assert err.startswith(f"{' '.join(usage.split())}\n{prog}: error: ")
    # argparse wraps usage at the terminal width, so fix it at the default 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    code, _, err = run_cli(capsys, *command.split())
    assert code == 1
    assert err.startswith(f"{usage}{prog}: error: the following arguments are required: ")


def test_precision_env_override(newform_doc, capsys, monkeypatch):
    monkeypatch.setenv("ZEROBOUND_PRECISION", "4")
    code, out, _ = run_cli(capsys, "params", "--preset", "newform", "--level", "1", "--weight", "12")
    assert code == 0
    assert json.loads(out)["Q"] == 0.1592
    # a value that is not an integer falls back to the default 12 digits
    for raw in ("x", "4.5"):
        monkeypatch.setenv("ZEROBOUND_PRECISION", raw)
        code, out, _ = run_cli(capsys, "params", "--preset", "newform", "--level", "1",
                               "--weight", "12")
        assert code == 0
        assert json.loads(out)["Q"] == 0.159154943092  # 1/(2 pi) to 12 digits


def test_json_uses_twelve_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "params", "--preset", "zeta")
    assert code == 0
    assert json.loads(out)["Q"] == 0.564189583548  # 1/sqrt(pi) to 12 digits


# --- golden bytes ---------------------------------------------------------------------

#: outputs on the zeta preset document and on a three-factor document with
#: k = 2 and a1 = 2, whose factors differ in every field a factor-order slip
#: could swap; a changed byte is a changed format or value
DATA_DIR = Path(__file__).parent / "data"
CLI_GOLDEN = DATA_DIR / "cli"


GOLDEN_ARGV = {
    "zeta": ["params", "--preset", "zeta"],
    "constants": ["constants", "--input", str(CLI_GOLDEN / "zeta.json"), "--t0", "16"],
    "bound": ["bound", "--input", str(CLI_GOLDEN / "zeta.json"), "--t0", "16", "--t", "100"],
    "verify": ["verify", "--input", str(CLI_GOLDEN / "zeta.json"),
               "--zeros", str(DATA_DIR / "zeta_zeros_200.txt"), "--t0", "16", "--t", "100"],
    "three_factor_constants": ["constants", "--input", str(CLI_GOLDEN / "three_factor.json"),
                               "--t0", "24"],
    "three_factor_bound": ["bound", "--input", str(CLI_GOLDEN / "three_factor.json"),
                           "--t0", "24", "--t", "150"],
    # a factor with mu = -0.0 - 0.0i: the echoed input keeps both signs
    "signed_zero_constants": ["constants", "--input", str(CLI_GOLDEN / "signed_zero.json"),
                              "--t0", "30"],
    # mu = 10i with Q = 1: the interpolation branch (alpha = 1), which no datum above takes
    "interp_constants": ["constants", "--input", str(CLI_GOLDEN / "interp.json"), "--t0", "55"],
    "interp_bound": ["bound", "--input", str(CLI_GOLDEN / "interp.json"),
                     "--t0", "55", "--t", "1000"],
    # newform data, each built by the LFunctionData constructor: root number i^2 = -1,
    # and the largest level and weight NewformSpec takes
    "newform_omega_minus": ["params", "--preset", "newform", "--level", "4", "--weight", "2"],
    "newform_extreme": ["params", "--preset", "newform", "--level", str(10 ** 300),
                        "--weight", "9007199254740976"],
}


@pytest.mark.parametrize("name, argv", GOLDEN_ARGV.items())
def test_cli_output_matches_golden_bytes(capsys, monkeypatch, name, argv):
    monkeypatch.delenv("ZEROBOUND_PRECISION", raising=False)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == (CLI_GOLDEN / f"{name}.json").read_bytes()


#: constants at a refused T0, whose message names the first constraint T0 violates:
#: three_factor.json (k = 2) fails base-window at 14 and gamma-shift at 20, and
#: pole_window.json, the zeta document with k = 3, clears both at 17 and fails pole-window
REFUSAL_ARGV = {
    "three_factor_base_window": ["constants", "--input", str(CLI_GOLDEN / "three_factor.json"),
                                 "--t0", "14"],
    "three_factor_gamma_shift": ["constants", "--input", str(CLI_GOLDEN / "three_factor.json"),
                                 "--t0", "20"],
    "pole_window": ["constants", "--input", str(CLI_GOLDEN / "pole_window.json"), "--t0", "17"],
}


@pytest.mark.parametrize("name, argv", REFUSAL_ARGV.items())
def test_cli_refusal_matches_golden_bytes(capsys, name, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.encode("utf-8") == (CLI_GOLDEN / f"{name}.err").read_bytes()


# --- the parser, built once per process -------------------------------------------------

#: every golden output: the eleven above and the published table
GOLDEN_RUNS = [
    *((CLI_GOLDEN / f"{name}.json", argv) for name, argv in GOLDEN_ARGV.items()),
    (ROOT / "perfbench" / "ref" / "table.out", ["table", "--preset", "newform"]),
]


#: one success path of each command: params, constants, bound, verify and table
COMMAND_RUNS = {name: (CLI_GOLDEN / f"{name}.json", GOLDEN_ARGV[name])
                for name in ("zeta", "constants", "bound", "verify")}
COMMAND_RUNS["table"] = GOLDEN_RUNS[-1]


@pytest.mark.parametrize("golden, argv", COMMAND_RUNS.values(), ids=list(COMMAND_RUNS))
def test_each_command_loads_the_pinned_modules(golden, argv):
    check = ("import sys, zerobound.cli; code = zerobound.cli.main(sys.argv[1:]); "
             f"out = sys.stderr; {LOADED}; sys.exit(code)")
    done = _run_stdlib_child(check, *argv)
    assert (done.returncode, done.stdout) == (0, golden.read_text(encoding="utf-8"))
    assert done.stderr.split() == COMMAND_MODULES


def test_a_bad_call_leaves_the_next_good_one_unchanged(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("ZEROBOUND_PRECISION", raising=False)
    for golden, argv in GOLDEN_RUNS:
        expected = golden.read_bytes()
        code, out, err = run_cli(capsys, *argv, "--bogus")
        assert (code, out) == (1, "") and "unrecognized arguments: --bogus" in err
        code, out, _ = run_cli(capsys, argv[0], "-h")
        assert code == 0 and out.startswith(f"usage: zerobound {argv[0]} [-h]")
        target = tmp_path / golden.name
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_bytes() == expected
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.encode("utf-8") == expected
