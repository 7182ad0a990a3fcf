"""Tables, factors, CSV loading, and response transforms."""

import csv
import gc
import io
import math

import numpy as np
import pytest

from gammkit import data as data_mod
from gammkit.data import (DataTable, FactorColumn, boxcox_profile, load_csv,
                          rescale_unit, transform_response)
from gammkit.errors import (DomainError, GammkitError, ParseError,
                            SchemaError, ShapeError)


def test_factor_from_strings_sorts_levels():
    f = FactorColumn.from_strings(["b", "a", "c", "a"])
    assert f.levels == ("a", "b", "c")
    assert f.codes.tolist() == [1, 0, 2, 0]
    assert f.n_levels == 3


def test_factor_levels_stable_under_row_order():
    f1 = FactorColumn.from_strings(["x", "y", "x"])
    f2 = FactorColumn.from_strings(["y", "x", "x"])
    assert f1.levels == f2.levels


def test_factor_codes_out_of_range():
    with pytest.raises(SchemaError):
        FactorColumn(np.array([0, 3]), ("a", "b"))
    with pytest.raises(SchemaError):
        FactorColumn(np.array([-1]), ("a",))


def test_factor_take_keeps_levels():
    f = FactorColumn.from_strings(["a", "b", "a", "c"])
    sub = f.take(np.array([1, 3]))
    assert sub.levels == f.levels
    assert sub.codes.tolist() == [1, 2]


def test_table_rejects_wrong_length_column():
    with pytest.raises(ShapeError):
        DataTable(columns={"x": np.arange(3.0)}, n_rows=4)


def test_table_rejects_nonfinite():
    with pytest.raises(DomainError):
        DataTable(columns={"x": np.array([1.0, np.nan])}, n_rows=2)


def test_table_accessors_enforce_role():
    tab = DataTable(columns={"x": np.arange(2.0),
                             "g": FactorColumn.from_strings(["a", "b"])},
                    n_rows=2)
    assert tab.numeric("x").tolist() == [0.0, 1.0]
    assert tab.factor("g").levels == ("a", "b")
    with pytest.raises(SchemaError):
        tab.numeric("g")
    with pytest.raises(SchemaError):
        tab.factor("x")
    with pytest.raises(SchemaError):
        tab.numeric("missing")


def test_series_key_requires_order_key():
    cols = {"g": FactorColumn.from_strings(["a", "a"]),
            "t": np.array([1.0, 2.0])}
    with pytest.raises(SchemaError):
        DataTable(columns=dict(cols), n_rows=2, series_key="g")
    DataTable(columns=dict(cols), n_rows=2, series_key="g", order_key="t")


def test_duplicate_series_order_pairs_rejected():
    cols = {"g": FactorColumn.from_strings(["a", "a"]),
            "t": np.array([1.0, 1.0])}
    with pytest.raises(SchemaError):
        DataTable(columns=cols, n_rows=2, series_key="g", order_key="t")


def test_take_bool_mask_and_indices():
    tab = DataTable(columns={"x": np.arange(4.0),
                             "g": FactorColumn.from_strings(list("aabb"))},
                    n_rows=4)
    sub = tab.take(np.array([True, False, True, False]))
    assert sub.n_rows == 2
    assert sub.numeric("x").tolist() == [0.0, 2.0]
    sub2 = tab.take(np.array([3, 0]))
    assert sub2.numeric("x").tolist() == [3.0, 0.0]
    assert sub2.factor("g").codes.tolist() == [1, 0]


# ---------------------------------------------------------------------------
# CSV loading


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_load_csv_roles_and_missing_rows(tmp_path):
    p = _write(tmp_path / "d.csv",
               "subject,rt,cond,junk\n"
               "s1,431.5,a,zzz\n"
               "s1,NA,a,zzz\n"
               "s2,512.25,b,zzz\n"
               "s2,,b,zzz\n")
    tab = load_csv(p, {"subject": "factor", "rt": "numeric",
                       "cond": "factor"})
    assert tab.n_rows == 2
    assert tab.meta["dropped_rows"] == 2
    assert tab.numeric("rt").tolist() == [431.5, 512.25]
    assert tab.factor("subject").levels == ("s1", "s2")
    assert "junk" not in tab.column_names()


def test_load_csv_bad_numeric_cell(tmp_path):
    p = _write(tmp_path / "d.csv", "x\n1.5\noops\n")
    with pytest.raises(ParseError, match="row 3"):
        load_csv(p, {"x": "numeric"})


def test_load_csv_missing_declared_column(tmp_path):
    p = _write(tmp_path / "d.csv", "x\n1\n")
    with pytest.raises(SchemaError):
        load_csv(p, {"y": "numeric"})


def test_load_csv_empty_file(tmp_path):
    p = _write(tmp_path / "d.csv", "")
    with pytest.raises(ParseError):
        load_csv(p, {"x": "numeric"})


def test_load_csv_all_rows_missing(tmp_path):
    p = _write(tmp_path / "d.csv", "x\nNA\n\n")
    with pytest.raises(GammkitError):
        load_csv(p, {"x": "numeric"})


def test_load_csv_unknown_role(tmp_path):
    p = _write(tmp_path / "d.csv", "x\n1\n")
    with pytest.raises(SchemaError):
        load_csv(p, {"x": "date"})


def test_load_csv_repeated_declared_header_is_an_error(tmp_path):
    p = _write(tmp_path / "d.csv", "y,x,y\n1,2,3\n4,5,6\n")
    with pytest.raises(SchemaError, match="'y'"):
        load_csv(p, {"y": "numeric"})
    # a repeated column outside the schema is never read
    tab = load_csv(p, {"x": "numeric"})
    assert tab.numeric("x").tolist() == [2.0, 5.0]


def test_load_csv_reports_file_row_after_dropped_rows(tmp_path):
    p = _write(tmp_path / "d.csv", "x,g\nNA,a\n1,\n\n2,b\noops,c\n")
    with pytest.raises(ParseError, match=r"row 6: cannot parse 'oops'"):
        load_csv(p, {"x": "numeric", "g": "factor"})
    p = _write(tmp_path / "e.csv", "x,g\n,a\n1,NA\n2,b\n1e999,c\n")
    with pytest.raises(ParseError, match=r"row 5: non-finite value in 'x'"):
        load_csv(p, {"x": "numeric", "g": "factor"})


def test_load_csv_reports_the_line_a_record_starts_on(tmp_path):
    """A quoted cell that spans lines shifts the rows below it: the bad
    cell of the third record sits on line 4, not 3."""
    p = _write(tmp_path / "d.csv", 'x,g\n1,"a\nb"\noops,c\n')
    with pytest.raises(ParseError, match=r"row 4: cannot parse 'oops'"):
        load_csv(p, {"x": "numeric", "g": "factor"})
    p = _write(tmp_path / "e.csv", 'x,g\n1,"a\n\nb"\n2,"c\nd"\n\ninf,e\n')
    with pytest.raises(ParseError, match=r"row 8: non-finite value in 'x'"):
        load_csv(p, {"x": "numeric", "g": "factor"})


def test_load_csv_first_bad_cell_in_file_order(tmp_path):
    # z's bad cell comes first in the file although x is the first column
    p = _write(tmp_path / "d.csv", "x,z\n1,2\n3,inf\nbad,4\n")
    with pytest.raises(ParseError, match=r"row 3: non-finite value in 'z'"):
        load_csv(p, {"x": "numeric", "z": "numeric"})
    # in one row, the first schema column wins
    p = _write(tmp_path / "e.csv", "x,z\n1,2\nnan,bad\n")
    with pytest.raises(ParseError, match=r"row 3: non-finite value in 'x'"):
        load_csv(p, {"x": "numeric", "z": "numeric"})


def test_load_csv_auto_role_reads_dropped_rows(tmp_path):
    # "lo" sits in a row dropped for its missing y and still makes c a factor
    p = _write(tmp_path / "d.csv", "y,c,d\n1,2,5\n,lo,6\n3,4,NA\n4, 5 ,7\n")
    tab = load_csv(p, {"y": "numeric", "c": "auto", "d": "auto"})
    assert tab.meta["dropped_rows"] == 2
    assert tab.factor("c").levels == ("2", "5")
    assert tab.numeric("d").tolist() == [5.0, 7.0]


def test_duplicate_zero_and_negative_zero_order_rejected():
    cols = {"g": FactorColumn.from_strings(["a", "b", "a"]),
            "t": np.array([0.0, 0.0, -0.0])}
    with pytest.raises(SchemaError, match="not unique"):
        DataTable(columns=cols, n_rows=3, series_key="g", order_key="t")


def test_with_column_duplicate_pair_rejected():
    tab = DataTable(columns={"g": FactorColumn.from_strings(list("aabb")),
                             "t": np.array([1.0, 2.0, 1.0, 2.0])},
                    n_rows=4, series_key="g", order_key="t")
    with pytest.raises(SchemaError, match="not unique"):
        tab.with_column("t", np.array([1.0, 2.0, 3.0, 3.0]))
    with pytest.raises(SchemaError, match="not unique"):
        tab.with_column("g", FactorColumn.from_strings(list("aaab")))
    assert tab.take(np.array([3, 0, 2])).n_rows == 3


# ---------------------------------------------------------------------------
# the loader against a per-cell oracle


def _oracle_load_csv(path, schema, series_key=None, order_key=None):
    """The per-cell loader: one pass per row, float() per cell."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, header required") from None
        rows = list(reader)
    positions = {}
    for name in schema:
        if name not in header:
            raise SchemaError(f"{path}: declared column {name!r} not in header")
        positions[name] = header.index(name)

    kept = {name: [] for name in schema}
    dropped = 0
    for i, row in enumerate(rows):
        cells = {}
        missing = False
        for name, pos in positions.items():
            if pos >= len(row) or row[pos].strip() in ("", "NA"):
                missing = True
                break
            cells[name] = row[pos].strip()
        if missing:
            dropped += 1
            continue
        for name, raw in cells.items():
            if schema[name] == "numeric":
                try:
                    value = float(raw)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {i + 2}: cannot parse {raw!r} as numeric "
                        f"for column {name!r}") from None
                if not math.isfinite(value):
                    raise ParseError(f"{path}: row {i + 2}: non-finite value in {name!r}")
                kept[name].append(value)
            else:
                kept[name].append(raw)
    n = len(next(iter(kept.values()))) if kept else 0
    if n == 0:
        raise GammkitError(f"{path}: zero usable rows after missing-value removal")
    columns = {}
    for name, role in schema.items():
        if role == "numeric":
            columns[name] = np.array(kept[name], dtype=np.float64)
        else:
            columns[name] = FactorColumn.from_strings(kept[name])
    return DataTable(columns=columns, n_rows=n, series_key=series_key,
                     order_key=order_key, meta={"dropped_rows": dropped})


def _oracle_sniff_role(path, column):
    """numeric unless a non-missing cell of column fails float(), any row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        pos = next(reader).index(column)
        for row in reader:
            if pos >= len(row):
                continue
            cell = row[pos].strip()
            if cell in ("", "NA"):
                continue
            try:
                float(cell)
            except ValueError:
                return "factor"
    return "numeric"


NUMERIC_CELLS = ("1.5", " 2.25 ", "-0.0", "0", "+3", "1e-3", "7", "1_000",
                 " -4.5e2", "0.1", "", "NA", " NA ", "NA ", "  ")
FACTOR_CELLS = ("a", "b", "a,b", 'q"r', " c ", "d e", "é", "10", "", "NA",
                " NA ", "Na")
BAD_CELLS = ("oops", "inf", "1e999", "nan", "-Infinity", "1.2.3")


ENDINGS = ("\n", "\r\n", "\r")
PADS = (" ", "\t", "  ")


def _random_csv(path, rng, bad, kind="quoted"):
    """A CSV of up to 40 random records. kind "quoted": csv.writer rows,
    some quoted whole; "multiline": the same, some factor cells holding a
    line break; "unquoted": cells with no '"' joined by commas (a junk
    cell "z,x" adds one), lines ended by LF, CRLF or a lone CR (the last
    one sometimes by nothing), some numeric cells padded with spaces or
    tabs."""
    header = ["x", "g", "junk", "y", "h"]
    rng.shuffle(header)
    factor_cells = FACTOR_CELLS
    if kind == "multiline":
        factor_cells += ("two\nlines", "c\r\nd")
    elif kind == "unquoted":
        factor_cells = tuple(c for c in FACTOR_CELLS if not set(c) & set(',"'))
    lines = []
    for _ in range(int(rng.integers(0, 40))):
        u = rng.random()
        if u < 0.06:
            if kind == "unquoted":
                lines.append(str(rng.choice(ENDINGS)))
            else:
                lines.append("\r\n" if rng.random() < 0.5 else "\n")
            continue
        row = []
        for name in header:
            if name in ("x", "y"):
                cell = str(rng.choice(NUMERIC_CELLS))
                if bad and rng.random() < 0.04:
                    cell = str(rng.choice(BAD_CELLS))
                elif rng.random() < 0.3:
                    cell = repr(float(rng.standard_normal() * 10.0 ** rng.integers(-5, 6)))
                if kind == "unquoted" and rng.random() < 0.2:
                    cell = str(rng.choice(PADS)) + cell + str(rng.choice(PADS))
            elif name == "junk":
                cell = str(rng.choice(("5", "", "NA", "-1.5", "z,x")
                                      if rng.random() < 0.97 else ("z",)))
            else:
                cell = str(rng.choice(factor_cells))
            row.append(cell)
        if u < 0.12:
            row = row[:int(rng.integers(0, len(row)))]
        if kind == "unquoted":
            lines.append(",".join(row) + str(rng.choice(ENDINGS)))
            continue
        buf = io.StringIO()
        quoting = csv.QUOTE_ALL if rng.random() < 0.2 else csv.QUOTE_MINIMAL
        csv.writer(buf, quoting=quoting).writerow(row)
        lines.append(buf.getvalue())
    if kind == "unquoted" and lines and rng.random() < 0.3:
        lines[-1] = lines[-1].rstrip("\r\n")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + "".join(lines))
    return str(path)


def _load_or_error(loader, *args):
    try:
        return loader(*args)
    except GammkitError as exc:
        return exc


def _assert_same_load(new, old):
    if isinstance(old, Exception):
        assert type(new) is type(old) and str(new) == str(old)
        return
    assert not isinstance(new, Exception), new
    assert new.n_rows == old.n_rows
    assert new.meta == old.meta
    assert new.column_names() == old.column_names()
    for name in old.column_names():
        a, b = new.columns[name], old.columns[name]
        if isinstance(b, FactorColumn):
            assert a.levels == b.levels
            assert np.array_equal(a.codes, b.codes)
        else:
            assert np.array_equal(a, b)
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _oracle_cases(seeds):
    """(seed, chunk, kind): the files as first written, read _CHUNK lines at
    a time; then unquoted and multi-line files read 3 lines at a time, so a
    file mixes split and csv.reader chunks, and a quoted cell may span a
    chunk boundary after split chunks. Multi-line files hold no bad cell:
    the oracle names a bad cell by its record number."""
    return [pytest.param(seed, None, "quoted", id=str(seed))
            for seed in seeds] + \
        [pytest.param(seed, 3, kind, id=f"{kind}-chunk3-{seed}")
         for kind in ("unquoted", "multiline") for seed in seeds]


@pytest.mark.parametrize("seed, chunk, kind", _oracle_cases(range(40)))
def test_load_csv_matches_per_cell_oracle(tmp_path, monkeypatch, seed, chunk,
                                          kind):
    if chunk:
        monkeypatch.setattr(data_mod, "_CHUNK", chunk)
    rng = np.random.default_rng(seed)
    p = _random_csv(tmp_path / "d.csv", rng,
                    bad=seed % 3 == 2 and kind != "multiline", kind=kind)
    schema = {"x": "numeric", "g": "factor", "y": "numeric", "h": "factor"}
    names = list(schema)
    rng.shuffle(names)
    schema = {name: schema[name] for name in names[:int(rng.integers(1, 5))]}
    _assert_same_load(_load_or_error(load_csv, p, schema),
                      _load_or_error(_oracle_load_csv, p, schema))


@pytest.mark.parametrize("seed, chunk, kind", _oracle_cases(range(20)))
def test_load_csv_auto_roles_match_sniffing_oracle(tmp_path, monkeypatch,
                                                   seed, chunk, kind):
    if chunk:
        monkeypatch.setattr(data_mod, "_CHUNK", chunk)
    rng = np.random.default_rng(100 + seed)
    p = _random_csv(tmp_path / "d.csv", rng,
                    bad=seed % 2 == 1 and kind != "multiline", kind=kind)
    schema = {"y": "numeric", "x": "auto", "g": "auto", "junk": "auto"}
    oracle_schema = {name: role if role != "auto"
                     else _oracle_sniff_role(p, name)
                     for name, role in schema.items()}
    _assert_same_load(_load_or_error(load_csv, p, schema),
                      _load_or_error(_oracle_load_csv, p, oracle_schema))


# ---------------------------------------------------------------------------
# records read in chunks of data._CHUNK

CHUNK = data_mod._CHUNK


def _csv_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return str(path)


def _numbered_rows(n):
    """(x, g, c) rows: x numeric, g a level per 7 records, c numeric text."""
    return [[repr(0.5 * i - 3.0), f"g{i % 7}", str(i % 11)] for i in range(n)]


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1])
def test_load_csv_at_chunk_boundaries_matches_oracle(tmp_path, n):
    rows = _numbered_rows(n)
    rows[-1][1] = "a-last"                    # a level seen in the last row
    rows[n // 2][0] = "NA"                    # one dropped row
    p = _csv_rows(tmp_path / "d.csv", ["x", "g", "c"], rows)
    schema = {"x": "numeric", "g": "factor", "c": "numeric"}
    tab = load_csv(p, schema)
    _assert_same_load(tab, _oracle_load_csv(p, schema))
    assert tab.n_rows == n - 1 and tab.meta["dropped_rows"] == 1
    assert tab.factor("g").levels[0] == "a-last"


def test_load_csv_multiline_cell_closing_a_chunk(tmp_path):
    """The last record of the first chunk spans two lines; a bad cell in
    the next chunk is reported on its file line, one below its record
    number + 2."""
    rows = _numbered_rows(CHUNK + 20)
    rows[CHUNK - 1][1] = "two\nlines"
    p = _csv_rows(tmp_path / "d.csv", ["x", "g", "c"], rows)
    schema = {"x": "numeric", "g": "factor"}
    tab = load_csv(p, schema)
    _assert_same_load(tab, _oracle_load_csv(p, schema))
    assert "two\nlines" in tab.factor("g").levels
    rows[CHUNK + 5][0] = "oops"
    p = _csv_rows(tmp_path / "e.csv", ["x", "g", "c"], rows)
    with pytest.raises(ParseError, match=rf"row {CHUNK + 5 + 3}: "
                                         r"cannot parse 'oops'"):
        load_csv(p, schema)


def test_load_csv_bad_cell_in_a_later_chunk_names_its_line(tmp_path):
    rows = _numbered_rows(2 * CHUNK + 50)
    rows[2 * CHUNK + 10][2] = "1e999"
    rows[CHUNK + 3][0] = "NA"                 # dropped: not checked
    p = _csv_rows(tmp_path / "d.csv", ["x", "g", "c"], rows)
    schema = {"x": "numeric", "g": "factor", "c": "numeric"}
    with pytest.raises(ParseError, match=rf"row {2 * CHUNK + 12}: "
                                         r"non-finite value in 'c'"):
        load_csv(p, schema)
    assert str(_load_or_error(load_csv, p, schema)) == \
        str(_load_or_error(_oracle_load_csv, p, schema))


def test_load_csv_auto_column_failing_in_a_later_chunk_is_a_factor(tmp_path):
    """c parses as a number throughout chunk 1 and fails in chunk 2, in a
    row dropped for its missing x: a factor whose levels are the kept
    cells' text of every chunk, sorted."""
    rows = _numbered_rows(CHUNK + 30)
    rows[CHUNK + 7][0] = ""
    rows[CHUNK + 7][2] = "lo"
    p = _csv_rows(tmp_path / "d.csv", ["x", "g", "c"], rows)
    tab = load_csv(p, {"x": "numeric", "c": "auto"})
    _assert_same_load(tab, _oracle_load_csv(p, {"x": "numeric",
                                                "c": "factor"}))
    assert tab.factor("c").levels == tuple(sorted(str(i) for i in range(11)))


def test_load_csv_level_first_seen_in_a_later_chunk_sorts_first(tmp_path):
    rows = _numbered_rows(2 * CHUNK + 5)
    rows[2 * CHUNK + 2][1] = "a0"
    rows[CHUNK + 1][1] = "g35"
    p = _csv_rows(tmp_path / "d.csv", ["x", "g", "c"], rows)
    schema = {"x": "numeric", "g": "factor"}
    tab = load_csv(p, schema)
    _assert_same_load(tab, _oracle_load_csv(p, schema))
    g = tab.factor("g")
    assert g.levels == ("a0", "g0", "g1", "g2", "g3", "g35", "g4", "g5",
                        "g6")
    assert g.levels[g.codes[2 * CHUNK + 2]] == "a0"


def test_load_csv_drops_rows_in_every_chunk(tmp_path):
    rows = _numbered_rows(3 * CHUNK + 3)
    dropped = [5, CHUNK - 1, CHUNK, 2 * CHUNK + 7, 3 * CHUNK + 2]
    for i in dropped:
        rows[i][1 if i % 2 else 2] = "NA" if i % 3 else ""
    rows[CHUNK + 4] = rows[CHUNK + 4][:1]     # too short to reach g
    p = _csv_rows(tmp_path / "d.csv", ["x", "g", "c"], rows)
    schema = {"x": "numeric", "g": "factor", "c": "auto"}
    tab = load_csv(p, schema)
    assert tab.meta["dropped_rows"] == len(dropped) + 1
    _assert_same_load(tab, _oracle_load_csv(p, {"x": "numeric",
                                                "g": "factor",
                                                "c": "numeric"}))


def test_load_csv_auto_non_finite_cell_before_a_bad_numeric_cell(tmp_path):
    """An auto column that stays numeric reports its early non-finite cell
    ahead of a numeric column's later parse failure; one that a later chunk
    makes a factor reports nothing."""
    rows = _numbered_rows(CHUNK + 40)
    rows[3][2] = "inf"
    rows[CHUNK + 3][0] = "oops"
    p = _csv_rows(tmp_path / "d.csv", ["x", "g", "c"], rows)
    schema = {"x": "numeric", "c": "auto"}
    with pytest.raises(ParseError, match=r"row 5: non-finite value in 'c'"):
        load_csv(p, schema)
    rows[CHUNK + 20][2] = "word"
    p = _csv_rows(tmp_path / "e.csv", ["x", "g", "c"], rows)
    with pytest.raises(ParseError, match=rf"row {CHUNK + 5}: cannot parse "
                                         r"'oops' as numeric for column 'x'"):
        load_csv(p, schema)


def test_load_csv_reads_on_with_csv_from_the_first_quote(tmp_path,
                                                       monkeypatch):
    """Three lines a chunk: two split chunks, then a chunk whose quoted
    cell spans into the next; the bad cell after it is named by its file
    line, one below its record number + 2."""
    monkeypatch.setattr(data_mod, "_CHUNK", 3)
    rows = _numbered_rows(14)
    rows[8][1] = "two\nlines"               # file lines 10 and 11
    rows[11][0] = "oops"
    p = _csv_rows(tmp_path / "d.csv", ["x", "g", "c"], rows)
    with pytest.raises(ParseError, match=r"row 14: cannot parse 'oops'"):
        load_csv(p, {"x": "numeric", "g": "factor"})
    rows[11][0] = "1"
    p = _csv_rows(tmp_path / "d.csv", ["x", "g", "c"], rows)
    tab = load_csv(p, {"x": "numeric", "g": "factor"})
    _assert_same_load(tab, _oracle_load_csv(p, {"x": "numeric",
                                                "g": "factor"}))
    assert "two\nlines" in tab.factor("g").levels


def test_a_cell_over_the_csv_field_limit_is_a_parse_error_naming_its_line(
        tmp_path):
    """csv refuses a cell over csv.field_size_limit() characters: the same
    ParseError whether its chunk is unquoted or read on by csv from an
    earlier quote, and from _record_line."""
    limit = csv.field_size_limit()
    p = tmp_path / "d.csv"
    errors = []
    for first in ("1,a", '1,"a"'):
        p.write_text(f"x,g\n{first}\n2,{'b' * (limit + 1)}\n3,c\n")
        with pytest.raises(ParseError) as info:
            load_csv(str(p), {"x": "numeric", "g": "factor"})
        errors.append(str(info.value))
    assert errors[0] == errors[1] == \
        f"{p}: row 3: field larger than field limit ({limit})"
    with pytest.raises(ParseError, match=r"d\.csv: row 3: field larger"):
        data_mod._record_line(str(p), 2)
    # a cell of the limit itself is read, on a line longer than the limit
    p.write_text(f"x,g\n1,a\n2,{'b' * limit}\n")
    tab = load_csv(str(p), {"x": "numeric", "g": "factor"})
    assert tab.factor("g").levels == ("a", "b" * limit)


def test_load_csv_of_40k_unquoted_rows_runs_at_most_2_collections(tmp_path):
    """The split route keeps no Python list per record, so loading sets off
    (almost) no cyclic garbage collection (55 when each record was a list)."""
    p = tmp_path / "d.csv"
    with open(p, "w", newline="") as fh:
        fh.write("subject,trial,y,cond\n")
        for i in range(40_000):
            fh.write(f"s{i // 100:03d},{i % 100 + 1},{math.sin(i)!r},"
                     f"{'ab'[i % 2]}\n")
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(count)
    try:
        tab = load_csv(str(p), {"y": "numeric", "cond": "factor",
                                "trial": "numeric", "subject": "factor"},
                       series_key="subject", order_key="trial")
    finally:
        gc.callbacks.remove(count)
    assert tab.n_rows == 40_000
    assert len(collections) <= 2, collections


# ---------------------------------------------------------------------------
# encodings


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    """A "CSV UTF-8" file from a spreadsheet starts with a BOM: its first
    header cell is still 'x', and error lines count as without it."""
    p = tmp_path / "d.csv"
    p.write_bytes("\ufeffx,g\n1.5,é\n2,b\n".encode("utf-8"))
    tab = load_csv(str(p), {"x": "numeric", "g": "factor"})
    assert tab.numeric("x").tolist() == [1.5, 2.0]
    assert tab.factor("g").levels == ("b", "é")
    p.write_bytes("\ufeffx\n1\noops\n".encode("utf-8"))
    with pytest.raises(ParseError, match="row 3"):
        load_csv(str(p), {"x": "numeric"})


def test_load_csv_undecodable_byte_is_a_parse_error_naming_the_file(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"x,g\n1,caf\xe9\n2,b\n")
    with pytest.raises(ParseError, match=r"latin1\.csv: byte 0xe9 is not "
                                         r"UTF-8"):
        load_csv(str(p), {"x": "numeric", "g": "factor"})


# ---------------------------------------------------------------------------
# transforms


def test_rescale_unit_range_and_map():
    tab = DataTable(columns={"x": np.array([10.0, 20.0, 30.0])}, n_rows=3)
    out = rescale_unit(tab, "x")
    assert out.numeric("x").tolist() == [0.0, 0.5, 1.0]
    off, scale = out.meta["scale_maps"]["x"]
    np.testing.assert_allclose(off + scale * out.numeric("x"),
                               tab.numeric("x"))


def test_rescale_unit_twice_keeps_original_map():
    tab = DataTable(columns={"x": np.array([10.0, 20.0, 30.0])}, n_rows=3)
    once = rescale_unit(tab, "x")
    twice = rescale_unit(once, "x")
    np.testing.assert_array_equal(once.numeric("x"), twice.numeric("x"))
    off, scale = twice.meta["scale_maps"]["x"]
    np.testing.assert_allclose(off + scale * twice.numeric("x"),
                               tab.numeric("x"))


def test_rescale_unit_constant_column():
    tab = DataTable(columns={"x": np.full(3, 7.0)}, n_rows=3)
    with pytest.raises(DomainError):
        rescale_unit(tab, "x")


def test_transform_identity_is_same_object():
    tab = DataTable(columns={"y": np.array([1.0, 2.0])}, n_rows=2)
    assert transform_response(tab, "y", "identity") is tab


@pytest.mark.parametrize("kind,fn", [
    ("log", np.log),
    ("neg1000_over", lambda y: -1000.0 / y),
])
def test_transform_values(kind, fn):
    y = np.array([250.0, 431.0, 977.5])
    tab = DataTable(columns={"y": y}, n_rows=3)
    out = transform_response(tab, "y", kind)
    np.testing.assert_allclose(out.numeric("y"), fn(y))
    assert out.meta["transforms"]["y"] == kind


def test_transform_power_is_boxcox():
    y = np.array([1.0, 2.0, 4.0])
    tab = DataTable(columns={"y": y}, n_rows=3)
    out = transform_response(tab, "y", "power", power=0.5)
    np.testing.assert_allclose(out.numeric("y"), (np.sqrt(y) - 1.0) / 0.5)
    out0 = transform_response(tab, "y", "power", power=0.0)
    np.testing.assert_allclose(out0.numeric("y"), np.log(y))


def test_transform_rejects_nonpositive():
    tab = DataTable(columns={"y": np.array([1.0, -2.0])}, n_rows=2)
    for kind in ("log", "neg1000_over"):
        with pytest.raises(DomainError):
            transform_response(tab, "y", kind)
    with pytest.raises(DomainError):
        transform_response(tab, "y", "power", power=0.5)


def test_transform_power_requires_exponent():
    tab = DataTable(columns={"y": np.array([1.0, 2.0])}, n_rows=2)
    with pytest.raises(DomainError):
        transform_response(tab, "y", "power")


def test_transform_unknown_kind():
    tab = DataTable(columns={"y": np.array([1.0])}, n_rows=1)
    with pytest.raises(DomainError):
        transform_response(tab, "y", "sqrt")


def test_boxcox_profile_recovers_log_scale():
    # y = exp(z) with z Gaussian: profile should peak near lambda = 0.
    rng = np.random.default_rng(31)
    y = np.exp(rng.normal(0.0, 0.5, 4000))
    lam, scores = boxcox_profile(y, np.linspace(-1.0, 1.0, 81))
    assert abs(lam) < 0.15
    assert scores.shape == (81,)


def test_boxcox_profile_identity_scale():
    rng = np.random.default_rng(32)
    y = rng.normal(50.0, 2.0, 4000)
    lam, _ = boxcox_profile(y, np.linspace(-2.0, 4.0, 121))
    assert abs(lam - 1.0) < 0.5


def test_boxcox_profile_rejects_bad_input():
    with pytest.raises(DomainError):
        boxcox_profile(np.array([]))
    with pytest.raises(DomainError):
        boxcox_profile(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        boxcox_profile(np.array([1.0]), np.array([]))
