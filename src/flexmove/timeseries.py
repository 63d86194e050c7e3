"""Uniformly sampled scalar signals and their CSV round trip."""

from __future__ import annotations

import codecs
import os
import stat
from array import array
from functools import cache, partial
from itertools import chain, count, islice

from ._numpy import np
from ._record import Record

#: significant digits written to CSV.  Not a lossless float round trip: a
#: reloaded value differs from the written float by up to 5e-12 relative.
CSV_DIGITS = 12

#: the template of one CSV cell
_CELL = b"%%.%dg" % CSV_DIGITS

#: rows per block of write_csv: one string operation of the template, or one
#: pass of the float64 formatter
_WRITE_ROWS = 2048

#: the float64 formatter writes a cell from rint(m), m = |v| * 10**(11 - e), only
#: when the fraction of m lies further than this from 1/2: m < 2**40, so the one
#: rounding of the product moved m by at most 2**-14
_TIE_MARGIN = 2.0 ** -13

#: exponent slot of a cell the float64 formatter leaves to the template
_FALLBACK = 16

#: bytes the check of a plain CSV reads at a time
_READ_BYTES = 1 << 16

#: file name endings that np.loadtxt opens as compressed files
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")

#: allowed relative deviation of any time step from the median step
JITTER_TOL = 1e-3


def fmt(x: float) -> str:
    """Format a float with CSV_DIGITS significant digits."""
    return format(float(x), f".{CSV_DIGITS}g")


class TimeSeries(Record):
    """A scalar signal sampled at a fixed rate.

    The one place a series is checked: a ValueError names the rule it breaks.

    Attributes
    ----------
    t : np.ndarray
        Sample times [s], uniformly spaced and as given: a loaded trace keeps its
        file's column, so it writes back byte identically.
    values : np.ndarray
        The samples, at least two of them, all finite.
    label : str
        Column name used when the series is written to CSV.
    rate : float
        Samples per second, one over the median time step: set from ``t``,
        never passed.
    """

    _fields = ("t", "values", "label")
    __eq__, __hash__ = object.__eq__, object.__hash__  # holds arrays: equal only to itself

    def __init__(self, t: np.ndarray, values: np.ndarray, label: str = "value") -> None:
        if not isinstance(label, str):
            raise ValueError(f"a series label must be a str, got {label!r}")
        t, values = np.asarray(t, dtype=float), np.asarray(values, dtype=float)
        if values.ndim != 1 or len(values) < 2:
            raise ValueError("a time series needs at least two samples")
        if t.shape != values.shape:
            raise ValueError("time and value columns differ in length")
        if not np.isfinite(t).all():
            raise ValueError("time column must hold finite numbers")
        steps = np.diff(t)
        median = _median(steps)
        if median <= 0.0:
            raise ValueError("time column must be strictly increasing")
        if np.max(np.abs(steps - median)) > JITTER_TOL * median:
            raise ValueError(
                "non-uniform sampling, time steps deviate more than "
                f"{100 * JITTER_TOL:g} % from the median step {median:.6g} s")
        if not np.isfinite(values).all():
            raise ValueError("value column must hold finite numbers")
        self._set(t=t, values=values, label=label, rate=1.0 / median)

    def __len__(self) -> int:
        return len(self.values)

    def _with_values(self, values: np.ndarray) -> TimeSeries:
        """This series with other values, which the caller has checked to be finite
        float64 of its length: the time column is this one, so is its rate."""
        series = object.__new__(TimeSeries)
        series._set(t=self.t, values=values, label=self.label, rate=self.rate)
        return series


def _median(x) -> float:
    """np.median of a NaN-free float64 array, bit for bit, by np.partition:
    np.median's NaN check imports numpy.ma, 11-17 ms on its first call."""
    # np.mean of the middle one or two: their sum from +0.0 (so -0.0 comes out
    # +0.0), over their count
    k = len(x) // 2
    if len(x) % 2:
        return 0.0 + float(np.partition(x, k)[k])
    below, above = np.partition(x, (k - 1, k))[k - 1:k + 1].tolist()
    return (0.0 + below + above) / 2


def _low(n: int) -> int:
    """Mask of the low n bytes of a u8 word, n clipped to 0..8."""
    return (1 << 8 * max(0, min(n, 8))) - 1


@cache
def _format_tables():
    """Lookup tables of the float64 formatter, built on its first call.

    By a 4-digit group: its ASCII digits as a little-endian u8 word, and its
    trailing zeros (4 for 0000).  By the exponent slot e + 4 of a fixed-notation
    cell (-4 <= e <= 11; slot _FALLBACK marks a cell left to the template):
    10**(11 - e), exact in float64, and the masks and point bytes that open a
    byte for the point after digit p = e + 1 of the 12 (p = 12 for e < 0, whose
    prefix carries the point).  By slot * 12 + trailing zeros: the masks of the
    digit bytes kept.  By slot * 2 + sign: the sign and prefix word.
    """
    group = np.arange(10_000)
    digits = sum((48 + group // 10 ** (3 - j) % 10).astype(np.uint64) << np.uint64(8 * j)
                 for j in range(4))
    zeros = np.zeros(10_000, np.intp)
    for j in range(1, 5):
        zeros[group % 10 ** j == 0] = j
    scale = np.array([float(10 ** (11 - e)) for e in range(-4, 12)])
    opening, kept, prefix = [], [], []
    for i in range(_FALLBACK + 1):
        e, p = i - 4, (i - 3 if i >= 4 else 12)
        # the point goes into word 1 (p < 8) or word 2; the bytes above it move up one
        opening.append((_low(p), 46 << 8 * p if p < 8 else 0,
                        _low(p - 8), 46 << 8 * (p - 8) if p >= 8 else 0))
        for tz in range(12):
            digits_kept = max(12 - tz, e + 1)  # integer digits always stay
            length = digits_kept + (digits_kept > p)  # the point stays before a digit
            kept.append((0, 0) if i == _FALLBACK else (_low(length), _low(length - 8)))
        for sign in (b"\0", b"-"):
            text = b"\1" if i == _FALLBACK else sign + (b"0." + b"0" * (-e - 1) if e < 0 else b"")
            prefix.append(int.from_bytes(text, "little"))
    opening, kept = np.array(opening, np.uint64).T, np.array(kept, np.uint64).T
    return digits, zeros, scale, opening.copy(), kept.copy(), np.array(prefix, np.uint64)


def _format_float64(table):
    """The bytes of the ``%.12g`` row template applied to a C-ordered float64
    table, or None when most cells would fall back to the template.

    Each cell is written as three little-endian u8 words, and their NUL bytes are
    dropped: word 0 holds the sign and, for e < 0, the prefix "0.0..."; words 1
    and 2 hold the 12 digits with the point opened after digit e + 1, trailing
    zeros and a bare point masked off, and the separator in the last byte.  A
    cell that fails the certificate gets a \\x01 byte in word 0 instead; the
    template writes those cells in one pass, spliced in at the \\x01 bytes.
    """
    digits, zeros, scale, opening, kept, prefix = _format_tables()
    v = table.ravel()
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e12)  # NaN fails both
    x = np.where(fixed, a, 1.0)
    slot = np.floor(np.log10(x)).astype(np.intp)
    slot += 4
    np.clip(slot, 0, _FALLBACK - 1, out=slot)  # a log10 one off only moves m out of range
    m = x * scale.take(slot)
    r = np.rint(m)
    ok = fixed & (m >= 1e11) & (m < 1e12 - 0.5) & (np.abs(m - r) < 0.5 - _TIE_MARGIN)
    certified = np.count_nonzero(ok)
    if 2 * certified < len(v):
        return None
    uncertified = ~ok
    slot[uncertified], r[uncertified] = _FALLBACK, 1e11  # masked off, digits in range
    mantissa = r.astype(np.int64)
    high = mantissa // 100_000_000
    rest = mantissa - high * 100_000_000
    middle = rest // 10_000
    low = rest - middle * 10_000
    head = digits.take(high)  # digits 1-8
    head |= digits.take(middle) << np.uint64(32)
    tail = digits.take(low)  # digits 9-12
    tz = zeros.take(low)
    if (bare := low == 0).any():  # digits 9-12 all zeros
        tz[bare] += zeros.take(middle[bare]) + (middle[bare] == 0) * zeros.take(high[bare])
    # open a byte for the point: the digits after it move up one byte
    low1, dot1, low2, dot2 = (column.take(slot) for column in opening)
    after = head ^ (head & low1)
    out = np.empty((len(v), 3), "<u8")
    w1, w2 = out[:, 1], out[:, 2]
    np.bitwise_or(head & low1, dot1, out=w1)
    w1 |= after << np.uint64(8)
    np.bitwise_or(tail & low2, dot2, out=w2)
    w2 |= (tail ^ (tail & low2)) << np.uint64(8)
    w2 |= after >> np.uint64(56)  # digit 8, when the point falls before it
    length = slot * 12 + tz
    w1 &= kept[0].take(length)
    w2 &= kept[1].take(length)
    separators = np.full(table.shape[1], ord(",") << 56, np.uint64)
    separators[-1] = ord("\n") << 56
    out.reshape(*table.shape, 3)[:, :, 2] |= separators
    slot *= 2
    slot += np.signbit(v)
    prefix.take(slot, out=out[:, 0])
    text = out.tobytes().translate(None, b"\0")
    if certified == len(v):
        return text
    spliced = [b""] * (2 * (len(v) - certified) + 1)
    spliced[0::2] = text.split(b"\1")
    spliced[1::2] = (b"\1".join([_CELL] * (len(v) - certified))
                     % tuple(v[uncertified].tolist())).split(b"\1")
    return b"".join(spliced)


def write_csv(path, header, columns) -> None:
    """Write equal-length numeric columns under a comma-separated header.

    The bytes are those of ``np.savetxt`` with a ``%.12g`` cell format.  The header
    (one str per column) and each column, by _column, are checked once before the
    file is opened, so that a column that fails leaves no file behind.  Rows go
    _WRITE_ROWS at a time by one route:

    - Columns that are all ``array('d')`` (what ``plan``, ``simulate``, ``sweep``
      and ``report`` write) go through the template: one ``%`` string operation
      per block, and numpy is never touched.
    - Any other columns go a block at a time, as one float64 table, through a numpy
      formatter.  For a cell v with |v| in [1e-4, 1e12) it takes e from log10 and
      m = |v| * 10**(11 - e), whose power of ten is exact, so m is rounded once.  It
      writes the 12 digits of rint(m) only under a certificate: 1e11 <= m < 1e12 -
      1/2, and the fraction of m further than _TIE_MARGIN from 1/2, so the exact
      product rounds to the same integer, the digits the template's correctly
      rounded conversion gives.  Every other cell (exponent notation, zeros, a near
      tie) goes to the template, and a block where most cells would goes through
      the template whole.

    A header cell holding a comma, a quote or a line break is quoted as the csv
    module quotes it, so that read_numeric_csv reads the header back.

    A regular or absent destination is written under a new name beside it, see
    _sibling, and moved onto it by os.replace after the last row: a write that
    fails (a full disk, a file size limit) leaves the old file, or none, and no
    temporary file.  A pipe, a device or a symlink is written in place.
    """
    if len(header) != len(columns):
        raise ValueError(f"need one header name per column, got {len(header)} names "
                         f"for {len(columns)} columns")
    for name in header:
        if not isinstance(name, str):
            raise ValueError(f"header name {name!r} is not a str")
    columns = [_column(name, column) for name, column in zip(header, columns)]
    lengths = [len(column) for column in columns]
    if len(set(lengths)) != 1:
        raise ValueError(f"need one or more columns of equal length, got lengths {lengths}")
    row = b",".join([_CELL] * len(columns)) + b"\n"
    names = ['"' + name.replace('"', '""') + '"' if any(c in name for c in ',"\r\n') else name
             for name in header]
    template = all(isinstance(column, array) for column in columns)
    flat = chain.from_iterable(zip(*columns))
    fd, temporary = _sibling(path)
    try:
        with open(path if fd is None else fd, "wb") as fh:
            fh.write((",".join(names) + "\n").encode("utf-8"))
            for start in range(0, lengths[0], _WRITE_ROWS):
                if template:
                    cells = tuple(islice(flat, _WRITE_ROWS * len(columns)))
                else:
                    table = np.stack([column[start:start + _WRITE_ROWS] for column in columns],
                                     axis=1).astype(float, copy=False)
                    if (text := _format_float64(table)) is not None:
                        fh.write(text)
                        continue
                    cells = tuple(table.ravel().tolist())
                fh.write(row * (len(cells) // len(columns)) % cells)
        if temporary is not None:
            os.replace(temporary, path)
    except BaseException:
        if temporary is not None:
            os.unlink(temporary)
        raise


def _sibling(path):
    """For a regular or absent path, the descriptor and the name of a new file in its
    directory that write_csv writes in its place, with the mode open(path, "wb")
    would give: the old file's, or 0o666 less the umask.  (None, None) for a pipe, a
    device or a symlink, which are written in place.  tempfile is not used: it
    would load random and shutil in every job."""
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        return None, None
    head, name = os.path.split(os.fsdecode(path))
    for attempt in count():
        temporary = os.path.join(head, f".{name}.{os.getpid()}-{attempt}.tmp")
        try:
            fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:  # a missing directory, say: name the output, not this file
            raise OSError(exc.errno, exc.strerror, path) from None
    if mode is not None:
        try:
            os.fchmod(fd, stat.S_IMODE(mode))
        except BaseException:
            os.close(fd)
            os.unlink(temporary)
            raise
    return fd, temporary


def _column(name, column):
    """A column as write_csv writes it: a list, tuple or array.array as array('d'); else a
    1-D real numpy array, as float64 unless of a kind (bool, int, float) sure to convert.
    A cell that is not a real number raises ValueError, naming the column."""
    if isinstance(column, (list, tuple, array)):
        if getattr(column, "typecode", "") == "d":
            return column
        try:
            return array("d", column)
        except TypeError as exc:
            raise ValueError(f"column {name!r} holds a cell that is not a real number: "
                             f"{exc}") from None
    column = np.asarray(column)
    if column.ndim != 1 or column.dtype.kind == "c":
        raise ValueError("each column must be one-dimensional and real")
    return column if column.dtype.kind in "biuf" else column.astype(float)


def read_numeric_csv(path, n_columns: int | None = None):
    """Read a headered CSV of floats; returns (header, list of column arrays).

    A regular file is checked in one pass over its bytes, a chunk at a time, and
    then parsed by numpy's C reader straight from its path; a file that fails a
    check, or that numpy will not parse, is read again by the csv module.  Any
    other path, a pipe for one, is read once, by the csv module, since it cannot
    be read twice.  Raises ValueError with a distinct message for an empty file,
    a ragged or wrongly sized row, a cell that does not parse as a number, and a
    line the csv module cannot split.
    """
    if stat.S_ISREG(os.stat(path).st_mode):
        try:
            return _read_plain_csv(path, n_columns)
        except ValueError:  # anything unusual: the validating reader accepts it or names the fault
            pass
    return _read_csv_checked(path, n_columns)


def _read_plain_csv(path, n_columns):
    """Fast path through numpy's parser: what _read_csv_checked returns, or a bare ValueError."""
    name = os.fspath(path)
    # np.loadtxt would decompress a name with one of these endings and fetch a URL
    if not isinstance(name, str) or "://" in name or name.endswith(_COMPRESSED):
        raise ValueError
    header = _plain_header(name, n_columns)
    # comments=None: numpy would skip the `#` lines that the csv reader rejects
    table = np.loadtxt(name, skiprows=1, encoding="utf-8", delimiter=",", comments=None,
                       quotechar=None, ndmin=2)
    if table.shape[1] != len(header):
        raise ValueError
    return header, [table[:, j].copy() for j in range(len(header))]


def _plain_header(name, n_columns):
    """The header of a file that numpy's reader takes as the csv module does, from
    one pass over its bytes that keeps none of them; a bare ValueError otherwise.

    The header is the first line, ended by "\\n" or "\\r\\n" within the first
    chunk, and holds no quote; the file is UTF-8, no line is longer than the csv
    module's field limit (numpy has none), and the body holds more than
    whitespace (numpy warns on a file without data).
    """
    import csv  # only reading a trace needs it

    limit = csv.field_size_limit()
    with open(name, "rb") as fh:
        chunks = codecs.iterdecode(iter(partial(fh.read, _READ_BYTES), b""), "utf-8")
        text = next(chunks, "")
        end = text.find("\n") + 1
        first = text[:end]
        if (not first or "\r" in first[:-2] or not first.strip() or '"' in first
                or len(first) > limit):
            raise ValueError
        header = [cell.strip() for cell in first[:-1].split(",")]
        if n_columns not in (None, len(header)):
            raise ValueError
        blank, run = True, 0
        for piece in chain((text[end:],), chunks):
            blank = blank and (not piece or piece.isspace())
            run = _line_run(piece, run, limit)
    if blank:
        raise ValueError
    return header


def _line_run(text, run, limit):
    """The length of the line that text ends in, counting the run characters that
    line had before text; a bare ValueError when a line runs past limit.

    Lines end at "\\r" or "\\n", as for the csv module.  The text is searched in
    windows of at most limit characters: a line that starts and ends inside one
    window is shorter than limit, so only the line a window's first end closes,
    and one with no end in the window, can run past it.
    """
    step = max(1, limit)
    for start in range(0, len(text), step):
        stop = min(start + step, len(text))
        ends = [i for i in (text.find("\n", start, stop), text.find("\r", start, stop)) if i >= 0]
        if not ends:
            run += stop - start
        elif run + min(ends) - start > limit:
            raise ValueError
        else:
            run = stop - 1 - max(text.rfind("\n", start, stop), text.rfind("\r", start, stop))
        if run > limit:
            raise ValueError
    return run


def _read_csv_checked(path, n_columns):
    import csv

    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise ValueError(f"{path}: empty file")
            header = [name.strip() for name in first]
            if n_columns is not None and len(header) != n_columns:
                raise ValueError(f"{path}: expected {n_columns} columns, found "
                                 f"{len(header)} ({','.join(header)})")
            data = [[] for _ in header]
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(
                        f"{path}: line {lineno} has {len(row)} cells, expected {len(header)}")
                for col, cell in zip(data, row):
                    try:
                        col.append(float(cell))
                    except ValueError:
                        raise ValueError(f"{path}: non-numeric cell {cell.strip()!r} "
                                         f"on line {lineno}") from None
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return header, [np.asarray(col) for col in data]


def load_trace(path) -> TimeSeries:
    """Read a two-column `t,<value>` CSV into a TimeSeries; a ValueError names the file."""
    header, (t, values) = read_numeric_csv(path, n_columns=2)
    try:
        return TimeSeries(t, values, header[1])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_trace(path, series: TimeSeries) -> None:
    """Write a TimeSeries as a two-column `t,<value>` CSV headed by its label."""
    write_csv(path, ("t", series.label), (series.t, series.values))
