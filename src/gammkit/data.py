"""Observation tables: CSV loading and validation.

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
                for col, text, got in zip(columns.values(), raw, parsed):
                    col.add(text, *got, keep, records)
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
    numbered in order of first sight. A factor cell's text is stripped and
    tested for a missing token once per distinct text, and each cell is
    then coded by one dict lookup; only the texts of kept rows become
    levels. An "auto" column is read as numeric, its kept cells held as
    text, until a present cell fails to parse; then it becomes a factor,
    coded from the held text onward."""

    def __init__(self, name: str, role: str):
        self.name, self.role = name, role
        self.parts: list[np.ndarray] = []
        self.held: list[list[str]] = []
        self.codes: dict[str, int] = {}    # text -> level code, -1 if missing
        self.index: dict[str, int] = {}    # level -> level code
        self.bad: tuple[int, str] | None = None   # (record, message)

    def parse(self, raw: list[str]):
        """(cells, present) of one chunk's raw cells: a factor column's
        level codes (-1 where missing) and present (non-missing) mask; a
        numeric or auto column's floats and None when every cell parses
        (float() ignores surrounding whitespace and refuses the missing
        tokens); otherwise its stripped cells and present mask."""
        if self.role == "factor":
            codes = self._codes(raw)
            return codes, codes >= 0
        values = _floats(raw)
        if values is not None:
            return values, None
        cells = list(map(str.strip, raw))
        return cells, ~np.fromiter(map(_MISSING.__contains__, cells),
                                   dtype=bool, count=len(cells))

    def add(self, raw: list[str], cells, present: np.ndarray | None,
            keep: np.ndarray, start: int):
        """Take one chunk: its raw cells, parse()'s (cells, present), the
        kept-row mask, and the record index of its first row."""
        if self.role == "factor":
            self.parts.append(cells if keep.all() else cells[keep])
            return
        if present is None:
            kept = values = cells if keep.all() else cells[keep]
            if self.role == "auto":
                self.held.append(raw if keep.all() else
                                 list(compress(raw, keep.tolist())))
        else:
            kept = cells if keep.all() else list(compress(cells,
                                                          keep.tolist()))
            if self.role == "auto" and _floats(
                    list(compress(cells, present.tolist()))) is None:
                self.role, self.bad = "factor", None
                self.parts = list(map(self._codes, self.held + [kept]))
                self.held = []
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

    def _codes(self, texts: list[str]) -> np.ndarray:
        """Level codes of cell texts, -1 for a missing one."""
        codes, index = self.codes, self.index
        for text in set(texts).difference(codes):
            cell = text.strip()
            codes[text] = -1 if cell in _MISSING else \
                index.setdefault(cell, len(index))
        return np.fromiter(map(codes.__getitem__, texts), dtype=np.int64,
                           count=len(texts))

    def values(self):
        """The column: a float array, or a FactorColumn with sorted levels
        (deterministic under row reordering)."""
        if self.role != "factor":
            return np.concatenate(self.parts)
        codes = np.concatenate(self.parts)
        # a text seen only in dropped rows is no level
        names = list(self.index)
        used = np.bincount(codes, minlength=len(names)).nonzero()[0]
        levels = tuple(sorted(names[i] for i in used))
        rank = np.empty(len(names), dtype=np.int64)
        rank[[self.index[name] for name in levels]] = np.arange(len(levels))
        return FactorColumn(rank[codes], levels)


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
