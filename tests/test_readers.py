"""The matrix readers against the per-format line scans they replaced.

``_oracle_load_csv`` and ``_oracle_load_mm`` are the earlier readers, kept
verbatim: each format had its own loop and its own entry checks.  Every file
they read must give the same array, and every file they reject must fail on
the same line.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregopt.harness import MatrixParseError, load_matrix


def _oracle_load_csv(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                row = [float(p) for p in parts]
            except ValueError:
                raise MatrixParseError(path, lineno, f"not numeric: {line!r}") from None
            for p, val in zip(parts, row):
                if not math.isfinite(val):
                    raise MatrixParseError(
                        path, lineno, f"non-finite entry {p.strip()!r}"
                    )
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise MatrixParseError(
                    path, lineno, f"expected {width} columns, found {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise MatrixParseError(path, 1, "empty matrix file")
    return np.array(rows)


def _oracle_load_mm(path: Path) -> np.ndarray:
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixParseError(path, 1, "empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise MatrixParseError(path, 1, "missing '%%MatrixMarket' header")
    _, obj, layout, fld, symmetry = header
    if obj != "matrix" or layout != "array":
        raise MatrixParseError(
            path, 1, f"only 'matrix array' files are supported, got {obj} {layout}"
        )
    if fld not in ("real", "integer"):
        raise MatrixParseError(path, 1, f"unsupported field {fld!r}")
    if symmetry != "general":
        raise MatrixParseError(path, 1, f"unsupported symmetry {symmetry!r}")

    lineno = 1
    shape = None
    values: list[float] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if shape is None:
            if len(parts) != 2:
                raise MatrixParseError(
                    path, lineno, f"expected 'rows cols', got {line!r}"
                )
            try:
                m, n = int(parts[0]), int(parts[1])
            except ValueError:
                raise MatrixParseError(
                    path, lineno, f"non-integer dimensions: {line!r}"
                ) from None
            if m <= 0 or n <= 0:
                raise MatrixParseError(path, lineno, "dimensions must be positive")
            shape = (m, n)
            continue
        for p in parts:
            try:
                val = float(p)
            except ValueError:
                raise MatrixParseError(path, lineno, f"not numeric: {p!r}") from None
            if not math.isfinite(val):
                raise MatrixParseError(path, lineno, f"non-finite entry {p!r}")
            values.append(val)
        if len(values) > shape[0] * shape[1]:
            raise MatrixParseError(
                path, lineno, f"more than {shape[0] * shape[1]} entries"
            )
    if shape is None:
        raise MatrixParseError(path, lineno, "missing dimension line")
    if len(values) != shape[0] * shape[1]:
        raise MatrixParseError(
            path,
            lineno,
            f"expected {shape[0] * shape[1]} entries, found {len(values)}",
        )
    # MatrixMarket array files store entries column by column.
    return np.ascontiguousarray(np.reshape(values, shape, order="F"))


_ORACLES = {".csv": _oracle_load_csv, ".mtx": _oracle_load_mm}

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Tokens that Python's float reads as finite numbers.
_ENTRIES = st.one_of(
    _FINITE.map(lambda x: "%.17g" % x),
    _FINITE.map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["1_0", "+1", "-0", " 2.5 ", "1E5", "1e-320", "٣", "１２"]),
)
# Tokens that are not finite numbers, or that float reads in surprising ways.
_ODD = st.one_of(
    st.sampled_from(
        ["nan", "-NaN", "inf", "infinity", "-Infinity", "1e400", "1__0", "_1",
         "0x10", "", "abc", "1.2.3", "--1", "% note"]
    ),
    st.floats().map(repr),
    st.text(max_size=3),
)
_BLANKS = st.sampled_from(["", " ", "\t", "  \t "])
_BAD_HEADERS = st.sampled_from(
    [
        "%%MatrixMarket matrix coordinate real general",
        "%%MatrixMarket matrix array complex general",
        "%%MatrixMarket matrix array real symmetric",
        "%%matrixmarket matrix array real general",
        "%%MatrixMarket matrix array real",
        "",
        "2 2",
    ]
)
_BAD_DIMS = st.sampled_from(
    ["2", "2 x", "0 3", "-1 2", "2 2 2", "1_0 1", "٢ ١", "+2 1", "1.0 2"]
)


def _mostly(draw, good: st.SearchStrategy, bad: st.SearchStrategy):
    """A draw from ``bad`` one time in four, else from ``good``."""
    return draw(bad if draw(st.integers(0, 3)) == 0 else good)


def _with_blanks(draw, lines: list[str], comments: bool) -> list[str]:
    """``lines`` with blank lines, and ``%`` comments when asked, in between."""
    out = []
    for line in lines:
        if draw(st.integers(0, 4)) == 0:
            out.append(draw(_BLANKS))
        if comments and draw(st.integers(0, 4)) == 0:
            out.append("% " + draw(st.text(max_size=4)))
        out.append(line)
    return out


@st.composite
def _matrix_files(draw, suffix: str) -> str:
    """The text of a small matrix file, most often well formed."""
    entries = _ENTRIES if draw(st.booleans()) else st.one_of(_ENTRIES, _ENTRIES, _ODD)
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    slip = st.sampled_from([0, 0, 0, 0, -1, 1])  # a short or long row or file
    if suffix == ".csv":
        body = [
            ",".join(draw(st.lists(entries, min_size=n, max_size=n)))
            for n in (max(cols + draw(slip), 0) for _ in range(rows))
        ]
        lines = _with_blanks(draw, body, comments=draw(st.integers(0, 3)) == 0)
    else:
        count = max(rows * cols + draw(slip), 0)
        values = draw(st.lists(entries, min_size=count, max_size=count))
        body = []
        while values:
            take = draw(st.integers(1, 3))
            body.append(" ".join(values[:take]))
            values = values[take:]
        header = _mostly(
            draw,
            st.sampled_from(["real", "integer"]).map(
                "%%MatrixMarket matrix array {} general".format
            ),
            _BAD_HEADERS,
        )
        dims = _mostly(draw, st.just(f"{rows} {cols}"), _BAD_DIMS)
        lines = [header, *_with_blanks(draw, [dims, *body], comments=True)]
    lines += draw(st.lists(_BLANKS, max_size=2))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return bom + newline.join(lines) + draw(st.sampled_from(["", newline]))


def _outcome(read, path: Path):
    """('array', shape, bytes) of a read, or ('error', type, line) of a
    parse failure."""
    try:
        a = read(path)
    except MatrixParseError as exc:
        return "error", type(exc), exc.line
    return "array", a.shape, a.tobytes()


@pytest.mark.parametrize("suffix", [".csv", ".mtx"])
@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_reader_matches_the_per_format_line_scan(suffix, data):
    text = data.draw(_matrix_files(suffix), label="file")
    # tmp_path is one directory per test, not per example: hypothesis's
    # health check rejects function-scoped fixtures under @given.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"m{suffix}"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(load_matrix, path) == _outcome(_ORACLES[suffix], path)
