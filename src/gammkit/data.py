"""Observation tables: CSV loading, validation, response transforms, scaling.

Tables are column-oriented and immutable by convention: every operation
returns a new DataTable and never mutates arrays in place, so tables are
safe to share across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from itertools import chain, compress, islice, repeat
from operator import itemgetter

import numpy as np

from .errors import DomainError, GammkitError, ParseError, SchemaError, ShapeError

MISSING_TOKENS = ("", "NA")
_MISSING = frozenset(MISSING_TOKENS)
_CHUNK = 8192          # CSV lines read, or rows written, per step


@dataclass(frozen=True)
class FactorColumn:
    """Categorical column stored as level indices plus a level-name list."""

    codes: np.ndarray
    levels: tuple[str, ...]

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int64)
        object.__setattr__(self, "codes", codes)
        if codes.size and (codes.min() < 0 or codes.max() >= len(self.levels)):
            raise SchemaError("factor codes out of range for level list")

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def __len__(self) -> int:
        return len(self.codes)

    def take(self, idx) -> "FactorColumn":
        return FactorColumn(self.codes[idx], self.levels)

    @classmethod
    def from_strings(cls, values: list[str]) -> "FactorColumn":
        # Sorted levels: deterministic under row reordering.
        levels = tuple(sorted(set(values)))
        index = {name: i for i, name in enumerate(levels)}
        codes = np.fromiter(map(index.__getitem__, values), dtype=np.int64,
                            count=len(values))
        return cls(codes, levels)


@dataclass(frozen=True)
class DataTable:
    """Validated observation table.

    series_key/order_key designate the grouped time-series structure:
    series_key names a factor column (one level per series) and order_key a
    numeric column giving the within-series ordering.
    """

    columns: dict[str, object]
    n_rows: int
    series_key: str | None = None
    order_key: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, col in self.columns.items():
            if isinstance(col, FactorColumn):
                if len(col) != self.n_rows:
                    raise ShapeError(f"column {name!r} has {len(col)} rows, expected {self.n_rows}")
            else:
                arr = np.asarray(col, dtype=np.float64)
                if arr.ndim != 1 or arr.shape[0] != self.n_rows:
                    raise ShapeError(f"column {name!r} has wrong shape {arr.shape}")
                if not np.all(np.isfinite(arr)):
                    raise DomainError(f"column {name!r} contains non-finite values")
                self.columns[name] = arr
        if self.series_key is not None:
            if self.order_key is None:
                raise SchemaError("series_key requires order_key")
            series = self.factor(self.series_key)
            order = self.numeric(self.order_key)
            # equal pairs are adjacent once sorted; == takes -0.0 for 0.0
            idx = np.lexsort((order, series.codes))
            codes, order = series.codes[idx], order[idx]
            if np.any((codes[1:] == codes[:-1]) & (order[1:] == order[:-1])):
                raise SchemaError("(series, order) pairs are not unique")

    def numeric(self, name: str) -> np.ndarray:
        col = self._get(name)
        if isinstance(col, FactorColumn):
            raise SchemaError(f"column {name!r} is a factor, expected numeric")
        return col

    def factor(self, name: str) -> FactorColumn:
        col = self._get(name)
        if not isinstance(col, FactorColumn):
            raise SchemaError(f"column {name!r} is numeric, expected factor")
        return col

    def _get(self, name: str):
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(f"no column named {name!r}") from None

    def with_column(self, name: str, values) -> "DataTable":
        cols = dict(self.columns)
        cols[name] = values
        return replace(self, columns=cols)

    def take(self, idx) -> "DataTable":
        idx = np.asarray(idx)
        cols = {}
        for name, col in self.columns.items():
            cols[name] = col.take(idx) if isinstance(col, FactorColumn) else col[idx]
        n = int(idx.sum()) if idx.dtype == bool else len(idx)
        return replace(self, columns=cols, n_rows=n, meta=dict(self.meta))

    def column_names(self) -> list[str]:
        return list(self.columns)


def load_csv(path, schema: dict[str, str], series_key: str | None = None,
             order_key: str | None = None) -> DataTable:
    """Read an RFC-4180-style UTF-8 CSV into a validated DataTable.

    schema maps column name -> role ("numeric" | "factor" | "auto"); only
    schema columns are loaded, and each must appear once in the header. A
    leading byte-order mark is skipped; a byte that is not UTF-8, or a line
    csv cannot read (a field over csv.field_size_limit()), is a ParseError
    naming the file. Cells are stripped; rows with a missing value ("" or
    "NA") in any schema column, or too short to reach one, are dropped and
    counted in meta["dropped_rows"]. An "auto" column is numeric when every
    non-missing cell parses as a number, dropped rows included, and a factor
    otherwise. A numeric cell that does not parse or is not finite is a
    ParseError naming the file line of the first such cell in file order.

    The file is read _CHUNK lines at a time, and each chunk becomes float
    arrays and factor codes before the next is read, so the file's text is
    never held whole. A chunk with no '"' whose every line has
    len(header) - 1 commas (and none longer than csv.field_size_limit()) is
    split with one str.split, each column a strided slice of the cells.
    From the first chunk that is not, csv.reader reads the rest of the
    file, since a quoted cell may span lines and chunks.
    """
    for role in schema.values():
        if role not in ("numeric", "factor", "auto"):
            raise SchemaError(f"unknown column role {role!r}")
    columns = {name: _Column(name, role) for name, role in schema.items()}
    records = n = 0
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(_records(reader, path, 0), None)
            if header is None:
                raise ParseError(f"{path}: empty file, header required")
            for name in schema:
                if header.count(name) != 1:
                    where = "repeated in" if name in header else "not in"
                    raise SchemaError(f"{path}: declared column {name!r} "
                                      f"{where} header")
            positions = [header.index(name) for name in schema]
            for size, raw in _chunks(fh, path, reader.line_num, len(header),
                                     positions):
                parsed = [col.parse(cells)
                          for col, cells in zip(columns.values(), raw)]
                keep = np.full(size, bool(schema))
                for _, present in parsed:
                    if present is not None:
                        keep &= present
                for col, (cells, present) in zip(columns.values(), parsed):
                    col.add(cells, present, keep, records)
                records += size
                n += int(keep.sum())
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte 0x{exc.object[exc.start]:02x} is not "
                         f"UTF-8 text ({exc.reason})") from None
    if n == 0:
        raise GammkitError(f"{path}: zero usable rows after missing-value removal")
    bad = [(col.bad[0], j, col.bad[1])
           for j, col in enumerate(columns.values()) if col.bad]
    if bad:
        # The first bad cell in file order, as a row-by-row read meets it.
        record, _, message = min(bad)
        raise ParseError(f"{path}: row {_record_line(path, record)}: {message}")
    return DataTable(columns={name: col.values()
                              for name, col in columns.items()},
                     n_rows=n, series_key=series_key, order_key=order_key,
                     meta={"dropped_rows": records - n})


def _chunks(fh, path, line: int, width: int, positions: list[int]):
    """(records, raw cells of each header position) per chunk of fh, read
    after `line` lines and a header of `width` cells (load_csv)."""
    limit = csv.field_size_limit()
    while lines := list(islice(fh, _CHUNK)):
        # each line's terminator stays on its last cell: strip and float()
        # ignore it
        text = ",".join(lines)
        if '"' in text or max(map(len, lines)) > limit or \
                set(map(str.count, lines, repeat(","))) != {width - 1}:
            # a quoted cell may span lines and chunks, and a ragged or
            # overlong line needs csv's reading: csv reads the rest
            reader = _records(csv.reader(chain(lines, fh)), path, line)
            while rows := list(islice(reader, _CHUNK)):
                yield len(rows), _cells(rows, positions)
            return
        flat = text.split(",")
        yield len(lines), [flat[pos::width] for pos in positions]
        line += len(lines)


def _records(reader, path, line: int):
    """The records of a csv.reader that starts after `line` file lines; a
    csv.Error is a ParseError naming the file line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"{path}: row {line + reader.line_num}: {exc}") \
            from None


def _cells(rows: list[list[str]], positions: list[int]) -> list[list[str]]:
    """The cells of rows at each position, "" where a row is too short."""
    width = max(positions, default=-1) + 1
    if any(len(row) < width for row in rows):
        rows = [row + [""] * (width - len(row)) for row in rows]
    return [list(map(itemgetter(pos), rows)) for pos in positions]


class _Column:
    """One schema column's kept cells, gathered chunk by chunk (load_csv):
    float arrays for a numeric role, codes for a factor role, levels
    numbered in order of first sight. An "auto" column is read as numeric,
    its kept cells held as text, until a present cell fails to parse; then
    it becomes a factor, coded from the held text onward."""

    def __init__(self, name: str, role: str):
        self.name, self.role = name, role
        self.parts: list[np.ndarray] = []
        self.held: list[list[str]] = []
        self.index: dict[str, int] = {}
        self.bad: tuple[int, str] | None = None   # (record, message)

    def parse(self, raw: list[str]):
        """(cells, present) of one chunk's raw cells: its stripped cells and
        present (non-missing) mask, or, for a numeric column whose every
        cell parses, its floats and None (float() ignores surrounding
        whitespace and refuses the missing tokens)."""
        if self.role == "numeric":
            values = _floats(raw)
            if values is not None:
                return values, None
        cells = list(map(str.strip, raw))
        return cells, ~np.fromiter(map(_MISSING.__contains__, cells),
                                   dtype=bool, count=len(cells))

    def add(self, cells, present: np.ndarray | None, keep: np.ndarray,
            start: int):
        """Take one chunk: parse()'s (cells, present), the kept-row mask,
        and the record index of its first row."""
        if present is None:
            kept = values = cells if keep.all() else cells[keep]
        else:
            if self.role == "auto" and _floats(
                    list(compress(cells, present.tolist()))) is None:
                self.role, self.bad = "factor", None
                self.parts, self.held = list(map(self._codes, self.held)), []
            kept = cells if keep.all() else list(compress(cells,
                                                          keep.tolist()))
            if self.role == "factor":
                self.parts.append(self._codes(kept))
                return
            if self.role == "auto":
                self.held.append(kept)
            values = _floats(kept)
        if values is not None:
            self.parts.append(values)
        if (values is None or not np.isfinite(values).all()) \
                and self.bad is None:
            i, message = _first_bad_cell(kept, self.name)
            self.bad = (start + int(np.flatnonzero(keep)[i]), message)

    def _codes(self, kept: list[str]) -> np.ndarray:
        index = self.index
        for name in set(kept).difference(index):
            index[name] = len(index)
        return np.fromiter(map(index.__getitem__, kept), dtype=np.int64,
                           count=len(kept))

    def values(self):
        """The column: a float array, or a FactorColumn with sorted levels
        (deterministic under row reordering)."""
        if self.role != "factor":
            return np.concatenate(self.parts)
        levels = tuple(sorted(self.index))
        rank = np.empty(len(levels), dtype=np.int64)
        rank[[self.index[name] for name in levels]] = np.arange(len(levels))
        return FactorColumn(rank[np.concatenate(self.parts)], levels)


def _record_line(path, record: int) -> int:
    """File line on which data record `record` (0-based, after the header)
    starts: record + 2 unless a quoted cell above it spans lines."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        records = _records(reader, path, 0)
        for _ in range(record + 1):
            next(records)
        return reader.line_num + 1


def _floats(cells: list[str]) -> np.ndarray | None:
    """float() of every cell, or None when one does not parse."""
    try:
        return np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        return None


def _first_bad_cell(cells: list[str], name: str) -> tuple[int, str]:
    """(index, message) of the first cell that is not a finite number;
    cells are text or floats."""
    for i, raw in enumerate(cells):
        try:
            value = float(raw)
        except ValueError:
            return i, f"cannot parse {raw!r} as numeric for column {name!r}"
        if not math.isfinite(value):
            return i, f"non-finite value in {name!r}"
    raise AssertionError(f"column {name!r} has no bad cell")


def rescale_unit(table: DataTable, column: str) -> DataTable:
    """Rescale a numeric column to [0, 1] via (x - min)/(max - min).

    The affine map back to the original scale is recorded in
    meta["scale_maps"][column] as (offset, scale): original = offset + scale*x.
    Composes with any previously recorded map, so applying twice is a no-op
    on values and keeps the map pointing at the original units.
    """
    x = table.numeric(column)
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        raise DomainError(f"column {column!r} is constant; cannot rescale to unit interval")
    scaled = (x - lo) / (hi - lo)
    meta = dict(table.meta)
    maps = dict(meta.get("scale_maps", {}))
    prev_off, prev_scale = maps.get(column, (0.0, 1.0))
    maps[column] = (prev_off + prev_scale * lo, prev_scale * (hi - lo))
    meta["scale_maps"] = maps
    out = table.with_column(column, scaled)
    return replace(out, meta=meta)


def transform_response(table: DataTable, column: str, kind: str,
                       power: float | None = None) -> DataTable:
    """Apply a response transform: identity | log | neg1000_over | power.

    neg1000_over is -1000/y (y in milliseconds is the caller's
    responsibility). power is the Box-Cox transform (y^p - 1)/p, log at p=0.
    identity returns the table bit-identical (nothing recorded).
    """
    if kind == "identity":
        return table
    y = table.numeric(column)
    if kind in ("log", "neg1000_over") and np.any(y <= 0):
        row = int(np.argmax(y <= 0))
        raise DomainError(f"{kind} transform requires positive values; "
                          f"column {column!r} row {row} is {y[row]}")
    if kind == "log":
        z = np.log(y)
        label = "log"
    elif kind == "neg1000_over":
        z = -1000.0 / y
        label = "neg1000_over"
    elif kind == "power":
        if power is None:
            raise DomainError("power transform requires the exponent")
        if np.any(y <= 0):
            row = int(np.argmax(y <= 0))
            raise DomainError(f"power transform requires positive values; "
                              f"column {column!r} row {row} is {y[row]}")
        z = np.log(y) if power == 0 else (y ** power - 1.0) / power
        label = f"power({power:g})"
    else:
        raise DomainError(f"unknown transform kind {kind!r}")
    meta = dict(table.meta)
    transforms = dict(meta.get("transforms", {}))
    transforms[column] = label
    meta["transforms"] = transforms
    out = table.with_column(column, z)
    return replace(out, meta=meta)


def boxcox_profile(y, lam_grid=None) -> tuple[float, np.ndarray]:
    """Box-Cox profile log-likelihood over a lambda grid.

    For each lambda, transforms y, evaluates the Gaussian intercept-only
    log-likelihood at the ML variance, and adds the Jacobian term
    (lambda - 1) * sum(log y). Returns (argmax lambda, full profile).
    Single-parameter form (no shift).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise DomainError("empty response vector")
    if np.any(y <= 0):
        raise DomainError("Box-Cox requires strictly positive values")
    if lam_grid is None:
        lam_grid = np.linspace(-2.0, 2.0, 41)
    lam_grid = np.asarray(lam_grid, dtype=np.float64)
    if lam_grid.size == 0:
        raise DomainError("empty lambda grid")
    n = y.size
    log_y_sum = float(np.sum(np.log(y)))
    scores = np.empty(lam_grid.size)
    for i, lam in enumerate(lam_grid):
        z = np.log(y) if lam == 0 else (y ** lam - 1.0) / lam
        s2 = float(np.mean((z - z.mean()) ** 2))
        scores[i] = -0.5 * n * (np.log(2.0 * np.pi * s2) + 1.0) + (lam - 1.0) * log_y_sum
    best = int(np.argmax(scores))
    return float(lam_grid[best]), scores
