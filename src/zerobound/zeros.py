"""Zero-ordinate ingestion and verification against the explicit bounds.

Zero tables list the positive imaginary parts of (critical-line) zeros,
one decimal per line, multiplicity by repetition; nothing here computes or
certifies zeros.  Counting respects half-open windows (T0, T]: the lower
endpoint is excluded, the upper included.  A count for the reflected
window (-T, -T0) reuses the same machinery, since conjugation carries one
zero set to the other.
"""

from __future__ import annotations

import math
import operator
import os
from bisect import bisect_right

from .bounds import _window_of
from .errors import DomainError, ZeroFileError, _value_text
from .selberg import _TEXT, LFunctionData, StripParams, _require_height, _Value, main_term


#: bytes read at a time by load_zeros; each block is split and parsed whole
_BLOCK_BYTES = 1 << 16


class ZeroList(_Value):
    """Sorted, positive, finite zero ordinates with a provenance label."""

    def __init__(self, ordinates: tuple[float, ...], source_label: str = "") -> None:
        if isinstance(ordinates, (str, bytes, bytearray)):  # float would take each character
            raise ZeroFileError(
                f"ordinates must be a sequence of real numbers, got a {type(ordinates).__name__}"
            )
        try:
            items = tuple(ordinates)
            if not _TEXT.isdisjoint(map(type, items)):  # float would parse "1" or b"1"
                raise TypeError(f"got the text {next(x for x in items if type(x) in _TEXT)!r}")
            t = tuple(map(float, items))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ZeroFileError(f"ordinates must be real numbers: {exc}") from None
        # One C-level pass: NaN fails <=, and once the tuple is sorted its
        # ends decide positivity and finiteness.  The generators below only
        # word the error.
        if all(map(operator.le, t, t[1:])) and (not t or (t[0] > 0.0 and t[-1] < math.inf)):
            self._set(ordinates=t, source_label=source_label)
            return
        if any(x <= 0.0 for x in t):
            raise ZeroFileError("all ordinates must be positive")
        if not all(map(math.isfinite, t)):
            raise ZeroFileError("all ordinates must be finite")
        raise ZeroFileError("ordinates must be sorted ascending")

    def __len__(self) -> int:
        return len(self.ordinates)


def load_zeros(path: str | os.PathLike) -> ZeroList:
    """Read a UTF-8 zero-ordinate text file.

    One decimal ordinate per line; lines starting with '#' and blank lines
    are skipped; LF, CRLF or CR line ends are all fine.  Unparsable,
    non-positive or non-finite entries raise ZeroFileError with the
    offending line number, and so does a line that is not UTF-8.  When a
    file has several such problems, the first in the file is reported.
    The result is sorted ascending (ties kept).

    The file is read in binary blocks of _BLOCK_BYTES.  Each block, after
    the partial line carried over from the one before, is split on LF and
    parsed by one map of float over the bytes lines: a line that float
    accepts as bytes is ASCII, so it is UTF-8 and gives the same float as
    its decoded text.  A comment, a blank, lines separated by a lone CR,
    non-ASCII text or a bad entry makes that map raise, and only then is
    the block decoded and parsed as text: universal newlines, each line
    stripped, comments and blanks dropped.  A block without an LF cuts the
    carried line at its last CR, so CR-only files are read a block at a
    time too, and memory beyond the result stays at a few blocks.  An
    undecodable block or a bad entry sends the file through a per-line
    rescan that names the first problem in file order.  The sorted
    ordinates are checked once, by their two ends and one NaN-propagating
    sum, and not again by ZeroList.  A path that is no str, bytes or
    os.PathLike (open takes an int as a file descriptor) is refused unopened.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ZeroFileError(f"load_zeros needs a file path, got {_value_text(path, repr)}")
    ordinates: list[float] = []
    with open(path, "rb") as fh:
        rest = b""
        while block := fh.read(_BLOCK_BYTES):
            lines = block.split(b"\n")
            lines[0] = rest + lines[0]
            rest = lines.pop()
            if not lines and b"\r" in rest:  # no LF in a whole block: CR line ends
                head, _, rest = rest.rpartition(b"\r")
                lines.append(head)
            _parse_lines(path, lines, ordinates)
    if rest:
        _parse_lines(path, [rest], ordinates)
    ordinates.sort()
    t = tuple(ordinates)
    # Sorted, so the ends decide positivity and infinity; a NaN, wherever
    # sorting left it, makes the sum NaN, and an overflowing sum is inf.
    if t and not (t[0] > 0.0 and t[-1] < math.inf and not math.isnan(sum(t))):
        raise _first_bad_line(path)
    # Built past __init__, whose conversion and checks t has just passed.
    zeros = object.__new__(ZeroList)
    zeros._set(ordinates=t, source_label=str(path))
    return zeros


def _parse_lines(path: str | os.PathLike, lines: list[bytes], ordinates: list[float]) -> None:
    """Append the ordinates of lines, a block of path split on LF, to ordinates."""
    n = len(ordinates)
    try:
        ordinates.extend(map(float, lines))
    except ValueError:  # a comment, blank, lone CR, non-ASCII or bad entry
        del ordinates[n:]
        try:
            # Universal newlines; a CRLF gives an extra blank line, dropped with the others.
            text = b"\n".join(lines).decode("utf-8").replace("\r", "\n")
            ordinates.extend(
                map(float, [s for s in map(str.strip, text.split("\n")) if s and s[0] != "#"])
            )
        except ValueError:  # UnicodeDecodeError is a ValueError too
            raise _first_bad_line(path) from None


def _first_bad_line(path: str | os.PathLike) -> ZeroFileError:
    """The error naming the first undecodable, unparsable, non-positive or non-finite line of path.

    The file is read as text with universal newlines.  Bytes that are not
    UTF-8 are kept as escapes, so the scan goes on past them, and a line
    holding one is reported where it stands, with the UTF-8 decoder's error
    for that line.  Only called once load_zeros has met a problem, so a file
    in which this scan finds none changed while it was read.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    return ZeroFileError(f"{path}: line {lineno}: not a UTF-8 text file ({exc})")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                return ZeroFileError(f"{path}: line {lineno}: cannot parse {line!r}")
            if value <= 0.0:
                return ZeroFileError(f"{path}: line {lineno}: non-positive ordinate {value}")
            if not value < math.inf:
                return ZeroFileError(f"{path}: line {lineno}: non-finite ordinate {value}")
    return ZeroFileError(f"{path}: changed while it was read")


def count_window(zeros: ZeroList, T0: float, T: float) -> int:
    """Number of ordinates in the half-open window (T0, T]; an infinite T counts all above T0."""
    _require_height(T, "T", T0, DomainError, "T0", False, math.inf)
    return bisect_right(zeros.ordinates, T) - bisect_right(zeros.ordinates, T0)


class VerificationReport(_Value):
    """Outcome of checking one zero table against both inequalities."""

    def __init__(
        self, count: int, main_term: float, deviation: float, r_total: float,
        coeff_bound: float, pass_lemma: bool, pass_theorem: bool,
    ) -> None:
        self._set(
            count=count, main_term=main_term, deviation=deviation, r_total=r_total,
            coeff_bound=coeff_bound, pass_lemma=pass_lemma, pass_theorem=pass_theorem,
        )

    def to_json_dict(self) -> dict:
        """The fields in order, keyed by name."""
        return dict(zip(self._fields, self._values(self)))


def check_bound(
    data: LFunctionData,
    strip: StripParams,
    zeros: ZeroList,
    T0: float,
    T: float,
) -> VerificationReport:
    """Compare the observed window count against both explicit bounds.

    pass_lemma checks |count - main term| < total_count_error(T0, T);
    pass_theorem checks the flattened c1 log T + c2 + c3/T form.  T0 must
    be admissible (the error names the binding constraint) and T > T0.
    Both bounds come from one lookup of the window of (data, strip, T0),
    which calls on one T0 share.
    """
    count = count_window(zeros, T0, T)
    smooth = main_term(data, T)
    deviation = abs(count - smooth)
    window = _window_of(data, strip, T0)
    r_total = window.at(T)[2]
    coeff_bound = window.coefficients[0].evaluate(T)
    return VerificationReport(
        count=count,
        main_term=smooth,
        deviation=deviation,
        r_total=r_total,
        coeff_bound=coeff_bound,
        pass_lemma=deviation < r_total,
        pass_theorem=deviation < coeff_bound,
    )
