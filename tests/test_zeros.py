"""Zero-table ingestion, window counting, and the data-driven bound checks."""

import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from zerobound import (
    AdmissibilityError,
    DomainError,
    ZeroFileError,
    ZeroList,
    check_bound,
    count_window,
    load_zeros,
    main_term,
)
from zerobound.zeros import _BLOCK_BYTES


# --- loading -----------------------------------------------------------------

def test_load_basic(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("14.134725\n21.022040\n25.010858\n")
    zeros = load_zeros(path)
    assert len(zeros) == 3
    assert zeros.ordinates[0] == pytest.approx(14.134725)
    assert zeros.source_label == str(path)


def test_load_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("# header\n\n14.1\n# mid comment\n21.0\n")
    assert load_zeros(path).ordinates == (14.1, 21.0)


def test_load_crlf(tmp_path):
    path = tmp_path / "z.txt"
    path.write_bytes(b"14.1\r\n21.0\r\n")
    assert load_zeros(path).ordinates == (14.1, 21.0)


def test_load_sorts(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("21.0\n14.1\n")
    assert load_zeros(path).ordinates == (14.1, 21.0)


def test_load_parse_error_names_line(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("14.1\nabc\n")
    with pytest.raises(ZeroFileError, match="line 2"):
        load_zeros(path)


def test_load_rejects_nonpositive(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("14.1\n-2.0\n")
    with pytest.raises(ZeroFileError, match="line 2"):
        load_zeros(path)


def test_load_rejects_non_finite(tmp_path):
    path = tmp_path / "z.txt"
    for bad, message in (
        ("inf", "non-finite ordinate inf"),
        ("1e400", "non-finite ordinate inf"),
        ("nan", "non-finite ordinate nan"),
        ("-inf", "non-positive ordinate -inf"),
    ):
        path.write_text(f"14.1\n{bad}\n21.0\n")
        with pytest.raises(ZeroFileError) as err:
            load_zeros(path)
        assert str(err.value) == f"{path}: line 2: {message}"


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "z.txt"
    path.write_bytes(b"14.1\n\xff\n")
    with pytest.raises(ZeroFileError, match="UTF-8"):
        load_zeros(path)


def test_zerolist_invariants():
    ZeroList((2.0, 2.0, 3.0))  # ties allowed
    ZeroList(())
    with pytest.raises(ZeroFileError, match="sorted"):
        ZeroList((3.0, 2.0))
    with pytest.raises(ZeroFileError, match="positive"):
        ZeroList((0.0, 1.0))
    for bad in ((1.0, math.nan, 0.5), (math.nan,), (1.0, math.nan), (1.0, math.inf), (math.inf,)):
        with pytest.raises(ZeroFileError, match="finite"):
            ZeroList(bad)
    with pytest.raises(ZeroFileError, match="positive"):
        ZeroList((-math.inf, 1.0))
    for bad in (("abc",), (None,), ([1],), (10 ** 400,)):
        with pytest.raises(ZeroFileError, match="real numbers"):
            ZeroList(bad)


# --- the block loader against a line-by-line reference --------------------------

def reference_load(path):
    """One float per line, as load_zeros specifies it, read one line at a time."""
    ordinates = []
    # bytes.splitlines ends a line at LF, CRLF or a lone CR: universal newlines
    for lineno, raw_bytes in enumerate(path.read_bytes().splitlines(keepends=True), start=1):
        try:
            raw = raw_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ZeroFileError(f"{path}: line {lineno}: not a UTF-8 text file ({exc})") from None
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            raise ZeroFileError(f"{path}: line {lineno}: cannot parse {line!r}") from None
        if value <= 0.0:
            raise ZeroFileError(f"{path}: line {lineno}: non-positive ordinate {value}")
        if not value < math.inf:
            raise ZeroFileError(f"{path}: line {lineno}: non-finite ordinate {value}")
        ordinates.append(value)
    return tuple(sorted(ordinates))


ordinate_text = st.floats(min_value=1e-300, max_value=1e300).map(repr) | st.decimals(
    min_value="0.0001", max_value="100000", places=8
).map(str)
special_lines = st.one_of(
    ordinate_text,
    st.tuples(st.sampled_from([" ", "\t", "  "]), ordinate_text, st.sampled_from(["", " ", "\t "])).map("".join),
    st.sampled_from(["", " ", "\t", "   "]),
    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=20).map("#".__add__),
    st.sampled_from(["  # indented", "\t#tab-indented", " #"]),
)
bad_lines = st.sampled_from(["abc", "-2.0", "0", "0.0", "-0.0", "nan", "inf", "1e400", "-inf", "1.2.3", "14 1"])


def table_lines(rng, filler, specials):
    """filler plain ordinates (about 18 bytes a line) with the special lines at random places."""
    lines = [repr(rng.uniform(1.0, 1e4)) for _ in range(filler)]
    for line in specials:
        lines.insert(rng.randrange(len(lines) + 1), line)
    return lines


def write_lines(path, rng, lines, crlf):
    """Write lines ending in LF, or in LF and CRLF at random when crlf is set."""
    ends = ["\r\n" if crlf and rng.random() < 0.5 else "\n" for _ in lines]
    path.write_bytes("".join(a + b for a, b in zip(lines, ends)).encode("utf-8"))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32),
    filler=st.integers(4_000, 9_000),
    specials=st.lists(special_lines, max_size=40),
    crlf=st.booleans(),
)
def test_chunked_load_matches_reference(tmp_path_factory, seed, filler, specials, crlf):
    rng = random.Random(seed)
    path = tmp_path_factory.mktemp("zeros") / "z.txt"
    write_lines(path, rng, table_lines(rng, filler, specials), crlf)
    assert path.stat().st_size > 1 << 16
    zeros = load_zeros(path)
    assert zeros.ordinates == reference_load(path)
    assert all(type(x) is float for x in zeros.ordinates)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32),
    specials=st.lists(special_lines, max_size=10),
    bad=st.lists(bad_lines, min_size=1, max_size=3),
    crlf=st.booleans(),
)
def test_chunked_load_names_first_bad_line(tmp_path_factory, seed, specials, bad, crlf):
    # the first bad line falls past line 4,500, and so past the first 64 KiB chunk
    rng = random.Random(seed)
    path = tmp_path_factory.mktemp("zeros") / "z.txt"
    lines = table_lines(rng, 6_000, specials)
    for line in bad:
        lines.insert(rng.randrange(4_500, len(lines) + 1), line)
    write_lines(path, rng, lines, crlf)
    assert len("\n".join(lines[:4_500]).encode()) > 1 << 16
    with pytest.raises(ZeroFileError) as expected:
        reference_load(path)
    assert int(str(expected.value).split("line ")[1].split(":")[0]) > 4_500
    with pytest.raises(ZeroFileError) as got:
        load_zeros(path)
    assert str(got.value) == str(expected.value)


def test_chunked_load_reports_errors_in_file_order(tmp_path):
    # a non-positive entry in the first chunk comes before an unparsable one in a later chunk
    lines = [f"{10.0 + i / 7:.10f}" for i in range(20_000)]
    lines[1] = "-2.0"
    lines[15_000] = "abc"
    path = tmp_path / "z.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ZeroFileError, match=r"line 2: non-positive ordinate -2\.0"):
        load_zeros(path)
    lines[1] = "10.1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ZeroFileError, match="line 15001: cannot parse 'abc'"):
        load_zeros(path)


def outcome(load, path):
    """The ordinates load gives for path, or its ZeroFileError message."""
    try:
        return load(path)
    except ZeroFileError as exc:
        return str(exc)


def assert_loads_as_reference(path):
    got = outcome(lambda p: load_zeros(p).ordinates, path)
    assert got == outcome(reference_load, path)
    return got


def test_block_load_cr_line_ends(tmp_path):
    path = tmp_path / "z.txt"
    for data in (b"14.1\r21.0\r", b"14.1\r21.0", b"# head\r14.1\r\r21.0\r",
                 b"14.1\n21.0\r25.0\r\n30.0", b"\r14.1\r\n\r21.0\n", b"14.1\r-2.0\r"):
        path.write_bytes(data)
        assert_loads_as_reference(path)
    path.write_bytes(b"14.1\r21.0\r25.0")
    assert load_zeros(path).ordinates == (14.1, 21.0, 25.0)


def test_block_load_of_a_cr_only_file_holds_a_few_blocks(tmp_path):
    # without an LF the carried partial line must not grow to the whole file
    rng = random.Random(5)
    lines = [f"{rng.uniform(1.0, 1e4):.10f}" for _ in range(60_000)]
    path = tmp_path / "z.txt"
    path.write_bytes(("\r".join(lines) + "\r").encode())
    assert path.stat().st_size > 12 * _BLOCK_BYTES
    tracemalloc.start()
    try:
        zeros = load_zeros(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert zeros.ordinates == tuple(sorted(map(float, lines)))
    n = len(zeros)
    result = sys.getsizeof(zeros.ordinates) + n * sys.getsizeof(1.0)
    sort_list = n * 8 * 9 // 8  # the list sorted in place, over-allocated by at most 1/8
    assert peak - result - sort_list < 4 * _BLOCK_BYTES


def test_block_load_crlf_split_across_blocks(tmp_path):
    # the CR of one CRLF is the last byte of the first block, its LF the first of the next
    head = b"14.1\r\n"
    filler = b"15.25\r\n"
    body = head + filler * ((_BLOCK_BYTES - len(head) - 16) // len(filler))
    line = b"1" * (_BLOCK_BYTES - len(body) - 3) + b".5"
    data = body + line + b"\r\n" + b"16.5\r\n" * 10
    assert data[_BLOCK_BYTES - 1:_BLOCK_BYTES + 1] == b"\r\n"
    path = tmp_path / "z.txt"
    path.write_bytes(data)
    got = assert_loads_as_reference(path)
    assert float(line) in got and len(got) == data.count(b"\n")


def test_block_load_last_line_without_newline(tmp_path):
    path = tmp_path / "z.txt"
    path.write_bytes(b"14.1\n21.0")
    assert load_zeros(path).ordinates == (14.1, 21.0)
    lines = [f"{10.0 + i / 7:.10f}" for i in range(10_000)]
    path.write_text("\n".join(lines))
    assert path.stat().st_size > 2 * _BLOCK_BYTES
    assert assert_loads_as_reference(path)[-1] == float(lines[-1])
    path.write_text("\n".join(lines) + "\n# no newline after this comment")
    assert_loads_as_reference(path)


@pytest.mark.parametrize("line", ["\u0085 14.1", "14.1\u0085", "\u00a014.1\u00a0", "\u300014.1\u3000",
                                  "\x0b14.1\x0c", "\x1c14.1"])
def test_block_load_unicode_whitespace(tmp_path, line):
    # float strips Unicode whitespace from text, but only ASCII whitespace from bytes
    path = tmp_path / "z.txt"
    path.write_text(f"13.0\n{line}\n15.0\n", encoding="utf-8")
    assert assert_loads_as_reference(path) == (13.0, 14.1, 15.0)


def test_block_load_non_ascii_and_odd_entries(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("\uff11\uff14.\uff11\n1_000.5\n", encoding="utf-8")
    assert assert_loads_as_reference(path) == (14.1, 1000.5)
    path.write_bytes(b"\xef\xbb\xbf14.1\n21.0\n")
    assert assert_loads_as_reference(path) == f"{path}: line 1: cannot parse '\\ufeff14.1'"
    path.write_bytes(b"14.1\n21.0\x00\n")
    assert assert_loads_as_reference(path) == f"{path}: line 2: cannot parse '21.0\\x00'"


def test_block_load_reports_the_first_problem_in_file_order(tmp_path):
    # a file both undecodable and with a bad line reports whichever comes first;
    # a UTF-8 error gives its position within the line
    path = tmp_path / "z.txt"
    lines = [f"{10.0 + i / 7:.10f}".encode() for i in range(10_000)]
    undecodable = b"12.5\xff"
    for bad_at, utf8_at, expected in (
        (2, 9_000, f"{path}: line 3: non-positive ordinate -2.0"),
        (9_000, 2, f"{path}: line 3: not a UTF-8 text file ('utf-8' codec can't decode byte 0xff "
                   f"in position 4: invalid start byte)"),
        (100, 101, f"{path}: line 101: non-positive ordinate -2.0"),
    ):
        bad = list(lines)
        bad[bad_at] = b"-2.0"
        bad[utf8_at] = undecodable
        path.write_bytes(b"\n".join(bad) + b"\n")
        assert outcome(load_zeros, path) == expected


def test_undecodable_line_is_named_by_its_line_number(tmp_path):
    # the UTF-8 error names its line, counted across LF, CRLF and CR ends as for a bad entry
    path = tmp_path / "z.txt"
    path.write_bytes(b"14.1\n\xff\n")
    assert outcome(load_zeros, path) == (
        f"{path}: line 2: not a UTF-8 text file "
        f"('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)"
    )
    for data in (b"# head\r\n14.1\r21.0\n12.5\xe2\x82\r\n", b"14.1\r\r\xc3(\n-2.0\n",
                 b"14.1\n21.0\r\n25.0\r3\xff0.0"):
        path.write_bytes(data)
        assert assert_loads_as_reference(path).startswith(f"{path}: line ")


# --- counting ------------------------------------------------------------------

def test_count_window_examples():
    zeros = ZeroList((14.13, 21.02, 25.01))
    assert count_window(zeros, 14.0, 25.5) == 3
    assert count_window(ZeroList((16.0, 20.0)), 16.0, 20.0) == 1  # (16, 20]
    assert count_window(ZeroList(()), 1.0, 2.0) == 0


def test_count_window_domain():
    with pytest.raises(DomainError):
        count_window(ZeroList((5.0,)), 7.0, 7.0)


@given(
    st.lists(st.floats(min_value=0.001, max_value=500.0), max_size=60),
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_count_window_additive(ordinates, t0, gap1, gap2):
    zeros = ZeroList(tuple(sorted(ordinates)))
    t1, t2 = t0 + gap1, t0 + gap1 + gap2
    assert count_window(zeros, t0, t1) + count_window(zeros, t1, t2) == count_window(
        zeros, t0, t2
    )


# --- bound checks against real data -------------------------------------------------

def test_check_bound_zeta_window_to_100(zeta_pair, zeta_zero_path):
    data, strip = zeta_pair
    zeros = load_zeros(zeta_zero_path)
    report = check_bound(data, strip, zeros, 16.0, 100.0)
    assert report.count == 28  # 29 ordinates up to 100, one below 16
    assert report.main_term == pytest.approx(28.12734358732535, rel=1e-12)
    assert report.deviation < 1.0
    assert report.r_total > 100.0
    assert report.pass_lemma and report.pass_theorem


def test_check_bound_empty_window(zeta_pair, zeta_zero_path):
    data, strip = zeta_pair
    zeros = load_zeros(zeta_zero_path)
    report = check_bound(data, strip, zeros, 16.0, 17.0)
    assert report.count == 0
    assert report.deviation == pytest.approx(abs(main_term(data, 17.0)))
    assert report.pass_lemma and report.pass_theorem


def test_check_bound_adversarial_no_crash(zeta_pair):
    data, strip = zeta_pair
    fake = ZeroList(tuple(20.0 + i * 1e-6 for i in range(10 ** 6)))
    report = check_bound(data, strip, fake, 16.0, 21.0)
    assert report.count == 10 ** 6
    assert not report.pass_lemma
    assert not report.pass_theorem


def test_check_bound_inadmissible_names_constraint(zeta_pair, zeta_zero_path):
    data, strip = zeta_pair
    zeros = load_zeros(zeta_zero_path)
    with pytest.raises(AdmissibilityError, match="gamma-shift"):
        check_bound(data, strip, zeros, 15.0, 100.0)


def test_check_bound_zeta_integer_grid(zeta_pair, zeta_zero_path):
    data, strip = zeta_pair
    zeros = load_zeros(zeta_zero_path)
    for t in range(17, 201):
        report = check_bound(data, strip, zeros, 16.0, float(t))
        assert report.pass_lemma, f"lemma bound failed at T = {t}"
        assert report.pass_theorem, f"coefficient bound failed at T = {t}"


def test_check_bound_newform_integer_grid(nf12_pair, delta_zero_path):
    data, strip = nf12_pair
    zeros = load_zeros(delta_zero_path)
    for t in range(28, 201):
        report = check_bound(data, strip, zeros, 27.0, float(t))
        assert report.pass_lemma, f"lemma bound failed at T = {t}"
        assert report.pass_theorem, f"coefficient bound failed at T = {t}"


def test_newform_fixture_matches_published_leading_zeros(delta_zero_path):
    zeros = load_zeros(delta_zero_path)
    leading = zeros.ordinates[:3]
    for got, expect in zip(leading, (9.22237940, 13.90754986, 17.44277686)):
        assert got == pytest.approx(expect, abs=5e-5)


def test_shifted_constant_from_ingested_table(zeta_pair, zeta_zero_path):
    # one ordinate at or below 16, so the shifted constant moves by exactly 1
    from zerobound import shifted_constant, window_coefficients

    data, strip = zeta_pair
    zeros = load_zeros(zeta_zero_path)
    below = sum(1 for g in zeros.ordinates if g <= 16.0)
    assert below == 1
    c2 = window_coefficients(data, strip, 16.0).c2
    assert shifted_constant(c2, below, below) == c2 + 1.0


def test_report_json_keys(zeta_pair, zeta_zero_path):
    data, strip = zeta_pair
    zeros = load_zeros(zeta_zero_path)
    doc = check_bound(data, strip, zeros, 16.0, 50.0).to_json_dict()
    assert set(doc) == {
        "count", "main_term", "deviation", "r_total", "coeff_bound",
        "pass_lemma", "pass_theorem",
    }
