"""Uniformly sampled scalar signals and their CSV round trip."""

from __future__ import annotations

import csv
from itertools import chain, islice

from ._numpy import np
from ._record import Record

#: significant digits written to CSV.  Not a lossless float round trip: a
#: reloaded value differs from the written float by up to 5e-12 relative.
CSV_DIGITS = 12

#: rows formatted per string operation by write_csv
_WRITE_ROWS = 1024

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
        t, values = np.asarray(t, dtype=float), np.asarray(values, dtype=float)
        if values.ndim != 1 or len(values) < 2:
            raise ValueError("a time series needs at least two samples")
        if t.shape != values.shape:
            raise ValueError("time and value columns differ in length")
        if not np.isfinite(t).all():
            raise ValueError("time column must hold finite numbers")
        steps = np.diff(t)
        median = float(np.median(steps))
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


def _cells(column):
    """A column as write_csv zips it: a list or tuple as it is, anything else
    through a memoryview, which yields Python numbers one at a time."""
    return column if isinstance(column, (list, tuple)) else memoryview(column)


def write_csv(path, header, columns) -> None:
    """Write equal-length numeric columns under a comma-separated header.

    The bytes are those of ``np.savetxt`` with a ``%.12g`` cell format, but the
    cells are Python numbers formatted _WRITE_ROWS rows at a time by one
    template.  A header cell holding a comma, a quote or a line break is quoted
    as the csv module quotes it, so that read_numeric_csv reads the header back.
    """
    lengths = [len(column) for column in columns]
    if len(set(lengths)) != 1:
        raise ValueError(f"need one or more columns of equal length, got lengths {lengths}")
    flat = chain.from_iterable(zip(*map(_cells, columns)))
    row = ",".join([f"%.{CSV_DIGITS}g"] * len(columns)) + "\n"
    block, width = row * _WRITE_ROWS, _WRITE_ROWS * len(columns)
    full, rest = divmod(lengths[0], _WRITE_ROWS)
    names = ['"' + name.replace('"', '""') + '"' if any(c in name for c in ',"\r\n') else name
             for name in header]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for _ in range(full):
            fh.write(block % tuple(islice(flat, width)))
        fh.write(row * rest % tuple(islice(flat, rest * len(columns))))


def read_numeric_csv(path, n_columns: int | None = None):
    """Read a headered CSV of floats; returns (header, list of column arrays).

    A plain file is streamed in one pass; anything else is read again by the csv
    module.  Raises ValueError with a distinct message for an empty file, a ragged
    or wrongly sized row, a cell that does not parse as a number, and a line the
    csv module cannot split.
    """
    try:
        return _read_plain_csv(path, n_columns)
    except ValueError:  # anything unusual: the validating reader accepts it or names the fault
        return _read_csv_checked(path, n_columns)


def _read_plain_csv(path, n_columns):
    """Fast path through numpy's parser: what _read_csv_checked returns, or a bare ValueError."""
    limit = csv.field_size_limit()
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        header = [name.strip() for name in first[:-1].split(",")]
        if (not first.endswith("\n") or not first.strip() or '"' in first
                or len(first) > limit or n_columns not in (None, len(header))):
            raise ValueError
        width = len(header)
        blocks = [np.empty((0, width))]
        while lines := fh.readlines(1 << 20):
            # numpy has no field size limit, and it warns on a chunk without data
            if max(map(len, lines)) > limit or not any(map(str.strip, lines)):
                raise ValueError
            # comments=None: numpy would skip the `#` lines that the csv reader rejects
            blocks.append(np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, ndmin=2))
    table = np.concatenate(blocks)  # a ValueError unless every block is `width` wide
    return header, [table[:, j].copy() for j in range(width)]


def _read_csv_checked(path, n_columns):
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
