"""The block-wise CSV loaders read what the row-by-row loaders read.

``reference_*`` below are the loaders as they were before the block-wise
reader: csv.reader over every file, one row at a time, each check in turn.
On any text, well-formed or not, quote-free (split at commas) or not (read
by the csv module), the loaders must return equal tables or raise the same
ParseError: the same message and the same lines.
"""

import csv
import gc
import hashlib
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurious_lens import Point, cli, evaluation
from spurious_lens.errors import ParseError
from spurious_lens.evaluation import (
    _GROUP_CODE,
    _PRED_FIXED,
    PredictionTable,
    SimilarityTable,
    load_points,
    load_predictions,
    load_similarities,
)
from spurious_lens.inputs import read_pieces, read_text

# ---------------------------------------------------------------- reference

_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")
NO_RANK = np.iinfo(np.int64).max  # the rank of a true label the row does not rank


def _read_csv(path, what):
    text = read_text(path)
    reader = csv.reader(match.group() for match in _LINE.finditer(text))

    def numbered():
        line = 0
        try:
            for line, row in enumerate(reader, start=1):
                yield line, row
        except csv.Error as exc:
            line += 1
            raise ParseError(f"line {line}: {exc}", lines=(line,)) from None

    rows = numbered()
    first = next(rows, None)
    if first is None:
        raise ParseError(f"{what} file is empty")
    return first[1], rows


def _full_rows(header, rows, what):
    line = 1
    for line, row in rows:
        if len(row) != len(header):
            raise ParseError(f"line {line}: expected {len(header)} cells, got {len(row)}",
                             lines=(line,))
        yield line, row
    if line == 1:
        raise ParseError(f"{what} file has no data rows")


def _check_id(seen, sample_id, line):
    if not sample_id:
        raise ParseError(f"line {line}: empty sample_id", lines=(line,))
    first = seen.setdefault(sample_id, line)
    if first != line:
        raise ParseError(f"duplicate sample_id {sample_id!r} at lines {first} and {line}",
                         lines=(first, line))


def _names_and_codes(values):
    """The sorted distinct values, and each value's index among them."""
    names = sorted(set(values))
    index = {name: code for code, name in enumerate(names)}
    return tuple(names), np.array([index[value] for value in values], dtype=np.intp)


def reference_load_predictions(path):
    header, rows = _read_csv(path, "prediction")
    if tuple(header[: len(_PRED_FIXED)]) != _PRED_FIXED:
        raise ParseError(
            f"header must start with {','.join(_PRED_FIXED)}, got {','.join(header)}",
            lines=(1,),
        )
    pred_cols = header[len(_PRED_FIXED):]
    expected = [f"pred_{i}" for i in range(1, len(pred_cols) + 1)]
    if not pred_cols or pred_cols != expected:
        raise ParseError(
            f"prediction columns must be pred_1..pred_K in order, got {pred_cols}",
            lines=(1,),
        )
    width = len(header)
    labels, groups, backgrounds, ranks = [], [], [], []
    seen = {}
    for line, row in rows:
        if len(row) > width:
            raise ParseError(f"line {line}: more cells than header columns", lines=(line,))
        row = row + [""] * (width - len(row))
        sample_id, true_label, group, background = row[:4]
        _check_id(seen, sample_id, line)
        if not true_label:
            raise ParseError(f"line {line}: empty true_label", lines=(line,))
        group_code = _GROUP_CODE.get(group)
        if group_code is None:
            raise ParseError(
                f"line {line}: group must be easy/hard/unassigned, got {group!r}",
                lines=(line,),
            )
        ranked = row[4:]
        if not ranked[0]:
            raise ParseError(f"line {line}: empty pred_1", lines=(line,))
        while not ranked[-1]:
            ranked.pop()
        if "" in ranked:
            raise ParseError(f"line {line}: ranked predictions have a gap", lines=(line,))
        if len(set(ranked)) != len(ranked):
            raise ParseError(f"line {line}: duplicate labels in ranked predictions",
                             lines=(line,))
        labels.append(true_label)
        groups.append(group_code)
        backgrounds.append(background)
        ranks.append(ranked.index(true_label) + 1 if true_label in ranked else NO_RANK)
    label_names, label_codes = _names_and_codes(labels)
    background_names, background_codes = _names_and_codes(backgrounds)
    return PredictionTable(
        labels=label_names, label=label_codes, group=np.array(groups, dtype=np.int8),
        backgrounds=background_names, background=background_codes,
        rank=np.array(ranks, dtype=np.int64),
    )


def reference_load_similarities(path):
    header, rows = _read_csv(path, "similarity")
    if len(header) < 2 or header[0] != "sample_id":
        raise ParseError(
            "header must be sample_id,<candidate_1>,...,<candidate_C>", lines=(1,)
        )
    candidates = tuple(header[1:])
    if len(set(candidates)) != len(candidates):
        raise ParseError("duplicate candidate labels in header", lines=(1,))
    seen = {}
    scores = []
    for line, row in _full_rows(header, rows, "similarity"):
        _check_id(seen, row[0], line)
        try:
            values = np.fromiter(map(float, row[1:]), dtype=float, count=len(row) - 1)
        except ValueError:
            raise ParseError(f"line {line}: non-numeric score", lines=(line,)) from None
        if not np.isfinite(values).all():
            raise ParseError(f"line {line}: non-finite score", lines=(line,))
        scores.append(values)
    # finite scores whose sum overflows make an infinite mean, which the
    # loader leaves to confusing_labels
    with np.errstate(over="ignore", invalid="ignore"):
        if len(candidates) == 1:
            # one column is added in file order from +0.0 like a wider table's
            # columns, not pairwise as numpy sums a lone column
            means = np.cumsum([np.zeros(1), *scores], axis=0)[-1] / len(scores)
        else:
            means = np.array(scores).mean(axis=0)
    return SimilarityTable(candidates=candidates, n_samples=len(scores), means=means)


def reference_load_points(path):
    header, rows = _read_csv(path, "points")
    if header == ["easy", "hard"]:
        named = False
    elif header == ["name", "easy", "hard"]:
        named = True
    else:
        raise ParseError("header must be easy,hard or name,easy,hard", lines=(1,))
    points = []
    for line, row in _full_rows(header, rows, "points"):
        name = row[0] if named else None
        try:
            easy, hard = float(row[-2]), float(row[-1])
        except ValueError:
            raise ParseError(f"line {line}: non-numeric accuracy", lines=(line,)) from None
        if not (0.0 <= easy <= 1.0 and 0.0 <= hard <= 1.0):
            raise ParseError(
                f"line {line}: accuracies must be fractions in [0, 1], got {easy}, {hard}",
                lines=(line,),
            )
        points.append(Point(name=name, easy=easy, hard=hard))
    return points


# ---------------------------------------------------------------- harness

def _table(result):
    """A loader's result as plain, comparable values, each float as its
    bits, so that two loaders must agree to the last bit (-0.0 is not 0.0)."""
    if isinstance(result, list):
        return [(p.name, *np.array([p.easy, p.hard]).view(np.int64).tolist())
                for p in result]
    if isinstance(result, SimilarityTable):
        return (result.candidates, result.n_samples, result.means.view(np.int64).tolist())
    return (result.labels, result.label.tolist(), result.group.tolist(),
            result.backgrounds, result.background.tolist(), result.rank.tolist())


def _outcome(load, path):
    try:
        return "table", _table(load(path))
    except ParseError as exc:
        return "error", str(exc), exc.lines


LOADERS = {
    "predictions": (load_predictions, reference_load_predictions),
    "similarities": (load_similarities, reference_load_similarities),
    "points": (load_points, reference_load_points),
}


def assert_same_outcome(kind, text, block_chars=None, field_limit=None):
    """Write ``text`` and load it with both loaders of ``kind``; return the
    outcome they agree on."""
    load, reference = LOADERS[kind]
    saved_block, saved_limit = evaluation._BLOCK_CHARS, csv.field_size_limit()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            evaluation._BLOCK_CHARS = block_chars or saved_block
            csv.field_size_limit(field_limit or saved_limit)
            got, expected = _outcome(load, path), _outcome(reference, path)
        finally:
            evaluation._BLOCK_CHARS = saved_block
            csv.field_size_limit(saved_limit)
    assert got == expected
    return got


# ---------------------------------------------------------------- random files

LIMIT = 12  # the csv field size limit the random files are read under
LABELS = ("a", "b", "c", "d")
# cells a fault writes; "p,q" and "p\nq" split rows and lines unless quoted
WILD = ("", "x", "a", "b", "s0", "s1", "easy", "hard", "nan", "inf", "-0.5",
        "0.5", "1", "2", " 1", "1e400", "p,q", "p\nq", "z" * LIMIT, "y" * (LIMIT + 1))


def _prediction_rows(draw):
    k = draw(st.integers(1, 4))
    rows = [[*_PRED_FIXED, *(f"pred_{i}" for i in range(1, k + 1))]]
    for i in range(draw(st.integers(0, 25))):
        ranked = draw(st.permutations(LABELS))[:draw(st.integers(1, k))]
        rows.append([f"s{i}", draw(st.sampled_from(LABELS)),
                     draw(st.sampled_from(("easy", "hard", "unassigned"))),
                     draw(st.sampled_from(("g1", "g2"))),
                     *ranked, *[""] * (k - len(ranked))])
    return rows


def _similarity_rows(draw):
    candidates = draw(st.integers(1, 4))
    rows = [["sample_id", *(f"c{j}" for j in range(candidates))]]
    for i in range(draw(st.integers(0, 25))):
        rows.append([f"s{i}", *(draw(st.sampled_from(("0.5", "-1", "2e-3", "7")))
                                for _ in range(candidates))])
    return rows


def _point_rows(draw):
    named = draw(st.booleans())
    rows = [["name", "easy", "hard"] if named else ["easy", "hard"]]
    for i in range(draw(st.integers(0, 25))):
        values = [draw(st.sampled_from(("0", "0.25", "0.5", "1"))) for _ in range(2)]
        rows.append([f"m{i}", *values] if named else values)
    return rows


ROWS = {"predictions": _prediction_rows, "similarities": _similarity_rows,
        "points": _point_rows}


@st.composite
def csv_files(draw, kind):
    """Text of a ``kind`` file with up to four faults: a cell blanked, taken
    from another row or overwritten (unparseable, oversized, or holding a
    comma or a line break), a row cut short, widened or emptied.  Quoted
    files quote some cells and may end their lines in carriage returns."""
    rows = ROWS[kind](draw)
    for _ in range(draw(st.integers(0, 4))):
        header = draw(st.integers(0, 19)) == 7  # one fault in twenty hits the header
        i = 0 if header else draw(st.integers(1, len(rows)))
        if i == len(rows):
            rows.append([])
        fault = draw(st.sampled_from(("blank", "wild", "repeat", "short", "wide", "empty")))
        row = rows[i]
        other = row if draw(st.booleans()) else rows[draw(st.integers(0, len(rows) - 1))]
        j = draw(st.integers(0, max(len(row) - 1, 0)))
        if fault == "blank" and row:
            row[j] = ""
        elif fault == "wild" and row:
            row[j] = draw(st.sampled_from(WILD))
        elif fault == "repeat" and row and other:
            row[j] = other[draw(st.integers(0, len(other) - 1))]
        elif fault == "short":
            del row[draw(st.integers(0, len(row))):]
        elif fault == "wide":
            row.extend(draw(st.lists(st.sampled_from(WILD), min_size=1, max_size=2)))
        elif fault == "empty":
            row.clear()
    quoted = draw(st.booleans())
    if quoted:
        rows = [[f'"{cell}"' if draw(st.integers(0, 3)) == 0 else cell for cell in row]
                for row in rows]
    end = draw(st.sampled_from(("\n", "\r\n", "\r"))) if quoted else "\n"
    text = end.join(",".join(row) for row in rows)
    return text + end if draw(st.booleans()) else text


@pytest.mark.parametrize("kind", LOADERS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_block_reader_matches_row_reader(kind, data):
    text = data.draw(csv_files(kind), label="text")
    block_chars = data.draw(st.sampled_from((1, 24, 1 << 14)), label="block_chars")
    assert_same_outcome(kind, text, block_chars, LIMIT)


# ---------------------------------------------------------------- chosen cases

PREDICTIONS = ("sample_id,true_label,group,background,pred_1,pred_2\n"
               "a1,bear,easy,snow,bear,wolf\n"
               "a2,bear,hard,grass,wolf,bear\n"
               "a3,fox,easy,snow,fox\n")
SIMILARITIES = "sample_id,cat,dog\ns1,0.9,0.5\ns2,0.8,0.6\n"


def both_paths(text):
    """The text, and the same rows with the first header cell quoted: the
    first is split at commas, the second read by the csv module."""
    return [text, '"' + text.replace(",", '",', 1)]


EDGE_CASES = [
    ("similarities", SIMILARITIES + "\ns3,0.1,0.2\n", "line 4: expected 3 cells, got 0"),
    ("points", "easy,hard\n0.5,0.5\n\n", "line 3: expected 2 cells, got 0"),
    ("predictions", PREDICTIONS + "\n", "line 5: empty sample_id"),
    ("predictions", PREDICTIONS + "a4,fox,easy,snow,fox,wolf,bear", "line 5: more cells"),
    ("similarities", SIMILARITIES + "s3,0.1", "line 4: expected 3 cells, got 2"),
    ("similarities", "sample_id,cat\ns1,0.5", None),
    ("points", "easy,hard\n0.5,0.5", None),
    ("predictions", PREDICTIONS.replace("a3,fox", "a3,"), "line 4: empty true_label"),
    # two faults on one line: the parent's check order decides
    ("predictions", PREDICTIONS.replace("a3,fox,easy", "a1,,medium"),
     "duplicate sample_id 'a1' at lines 2 and 4"),
    ("predictions", PREDICTIONS.replace("a3,fox,easy,snow,fox", "a3,fox,medium,snow,,"),
     "line 4: group must be easy/hard/unassigned, got 'medium'"),
    ("similarities", SIMILARITIES + "s1,x,inf\n", "duplicate sample_id 's1' at lines 2 and 4"),
    ("similarities", SIMILARITIES + "s3,x,inf\n", "line 4: non-numeric score"),
    ("points", "easy,hard\n0.5,x\n", "line 2: non-numeric accuracy"),
    ("points", "easy,hard\n0.5,1.5\n", "got 0.5, 1.5"),
    # faults on two lines of one block: the first line wins
    ("predictions", PREDICTIONS + "a4,fox,easy,snow,,\na1,fox,easy,snow,fox\n",
     "line 5: empty pred_1"),
    ("similarities", "sample_id,cat\ns1,nan\ns1,0.5\n", "line 2: non-finite score"),
    ("similarities", "sample_id,cat\ns1,0.5\ns1,nan\n", "duplicate sample_id 's1'"),
    ("predictions", PREDICTIONS.replace("pred_2", "pred_2,pred_3").replace("bear,wolf", "bear,,wolf"),
     "line 2: ranked predictions have a gap"),
    ("predictions", PREDICTIONS.replace("wolf,bear", "wolf,wolf"),
     "line 3: duplicate labels in ranked predictions"),
    ("predictions", PREDICTIONS + "a1,fox,easy,snow,fox,\n", "at lines 2 and 5"),
    # a repeated id before a width error, which comes between blocks of rows
    ("similarities", SIMILARITIES + "s1,0.1,0.2\ns3,0.1\n", "'s1' at lines 2 and 4"),
    ("predictions", PREDICTIONS + "a2,fox,easy,snow,fox\na5,fox,easy,snow,a,b,c\n",
     "'a2' at lines 3 and 5"),
    # an empty id is no repeat of an earlier one, nor of a later one
    ("similarities", SIMILARITIES + ",0.1,0.2\n,0.3,0.4\n", "line 4: empty sample_id"),
    ("similarities", SIMILARITIES + ",0.1,0.2\ns1,0.3,0.4\n", "line 4: empty sample_id"),
    ("similarities", SIMILARITIES + "s1,0.1,0.2\n,0.3,0.4\n", "'s1' at lines 2 and 4"),
    ("predictions", PREDICTIONS + "a1,fox,easy,snow,fox\n,fox,easy,snow,fox\n",
     "'a1' at lines 2 and 5"),
    # the first repeat by line, though another id's first copy comes before it
    ("similarities", SIMILARITIES + "s3,0.1,0.2\ns2,0.1,0.2\ns1,0.1,0.2\ns3,0,0\n",
     "'s2' at lines 3 and 5"),
]


@pytest.mark.parametrize("kind,text,message", EDGE_CASES)
@pytest.mark.parametrize("block_chars", [1, None], ids=["row_blocks", "default_blocks"])
def test_edge_cases_match_row_reader(kind, text, message, block_chars):
    for variant in both_paths(text):
        outcome = assert_same_outcome(kind, variant, block_chars)
        if message is None:
            assert outcome[0] == "table"
        else:
            assert outcome[0] == "error" and message in outcome[1]


def test_reader_error_comes_after_an_earlier_bad_line():
    limit = csv.field_size_limit()
    oversized = "a9,fox,easy,snow," + "f" * (limit + 1) + "\n"
    bad_line_first = PREDICTIONS.replace("a2,bear", "a2,") + oversized
    for text in both_paths(bad_line_first):
        assert assert_same_outcome("predictions", text) == (
            "error", "line 3: empty true_label", (3,))
    for text in both_paths(PREDICTIONS + oversized):
        assert assert_same_outcome("predictions", text) == (
            "error", f"line 5: field larger than field limit ({limit})", (5,))
    # a cell of exactly the limit is read
    assert assert_same_outcome("points", "easy,hard\n0.5," + "0" * limit + "\n")[0] == "table"


def test_field_limit_error_after_a_good_record_in_the_same_piece():
    oversized = "a9,fox,easy,snow," + "f" * 21 + "\n"
    for text in both_paths(PREDICTIONS + oversized):
        assert assert_same_outcome("predictions", text, field_limit=20) == (
            "error", "line 5: field larger than field limit (20)", (5,))
    for text in both_paths(PREDICTIONS.replace("a2,bear", "a2,") + oversized):
        assert assert_same_outcome("predictions", text, field_limit=20) == (
            "error", "line 3: empty true_label", (3,))


@pytest.mark.parametrize("kind,text", [
    ("predictions", PREDICTIONS),
    ("similarities", SIMILARITIES),
    ("points", "easy,hard\n0.5,0.5\n"),
], ids=["predictions", "similarities", "points"])
def test_a_byte_order_mark_is_named(tmp_path, kind, text):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    with pytest.raises(ParseError) as err:
        LOADERS[kind][0](path)
    assert str(err.value) == "line 1: the file starts with a byte-order mark (U+FEFF)"
    assert err.value.lines == (1,)


def test_empty_lines_under_a_wide_header_allocate_no_table():
    # a table of one row per line would need 800 GB here
    text = "sample_id," + ",".join(f"c{j}" for j in range(100_000)) + "\n" * 1_000_000
    assert assert_same_outcome("similarities", text) == (
        "error", "line 2: expected 100001 cells, got 0", (2,))


# ---------------------------------------------------------------- memory

def _peak(call, arg) -> int:
    tracemalloc.start()
    try:
        call(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _scores_file(path, rows: int):
    """A similarity table of 1000 candidates, every row with the same scores."""
    rng = np.random.default_rng(0)
    row = ",".join(f"{v:.5f}" for v in rng.normal(0.2, 0.05, 1000))
    path.write_text(
        "sample_id," + ",".join(f"cand{j:04d}" for j in range(1000)) + "\n"
        + "".join(f"q{i:05d},{row}\n" for i in range(rows)), encoding="utf-8")
    return path


def test_peak_memory_is_a_small_multiple_of_the_file(tmp_path):
    """A load holds one piece of the text, its result and an 8-byte hash
    per sample id, with a prediction log's labels and backgrounds held as
    4-byte codes and a block's cells only where numbers are not parsed from
    the records' text: about 0.05x the file for a similarity table, whose
    result is a row of means, and 1.0x for a prediction log.  Splitting
    the whole text into cells at once holds a string per cell: 10x and 14x.
    Both files have half the rows of the benchmark's, to halve the time
    tracemalloc adds; the ratios do not depend on the row count."""
    similarities = _scores_file(tmp_path / "s.csv", 1000)
    labels = [f"c{c:03d}" for c in range(200)]
    predictions = tmp_path / "p.csv"
    predictions.write_text(
        "sample_id,true_label,group,background,pred_1,pred_2,pred_3,pred_4,pred_5\n"
        + "".join(f"s{i:06d},{labels[i % 200]},{('easy', 'hard')[i % 2]},bg{i % 4},"
                  + ",".join(labels[(i + j) % 200] for j in range(5)) + "\n"
                  for i in range(25_000)), encoding="utf-8")
    assert _peak(load_similarities, similarities) <= 0.2 * similarities.stat().st_size
    assert _peak(load_predictions, predictions) <= 2.5 * predictions.stat().st_size


def _log_file(path, rows: int):
    """A prediction log of 200 classes, 2 groups and 4 backgrounds, whose
    true label ranks first in half the rows and second in the others."""
    labels = [f"c{c:03d}" for c in range(200)]
    path.write_text(
        "sample_id,true_label,group,background,pred_1,pred_2,pred_3,pred_4,pred_5\n"
        + "".join(f"s{i:06d},{labels[i % 200]},{('easy', 'hard')[i % 2]},bg{i % 4},"
                  + ",".join(labels[(i + j - i // 7 % 2) % 200] for j in range(5)) + "\n"
                  for i in range(rows)), encoding="utf-8")
    return path


def test_a_prediction_log_keeps_few_bytes_a_row(tmp_path):
    """From 25k to 100k rows, the traced peak of a prediction-log load and of
    the discover subcommand grows by at most 38 bytes a row (26 measured
    for each).  A load keeps an 8-byte sample-id hash, 4-byte label and
    background codes, a 1-byte group and an 8-byte rank a row, sorts the
    hashes in place, drops them before the codes are remapped in place, and
    discover counts its cells from one 8-byte key a row, sorted in place.
    A sorted copy of the hashes, a second array per remapped code column,
    8-byte codes and a key built from temporaries grew 50 bytes a row."""
    sizes = (25_000, 100_000)
    paths = [_log_file(tmp_path / f"p{rows}.csv", rows) for rows in sizes]
    for load in (load_predictions, lambda path: cli.main(
            ["discover", "--predictions", str(path), "--out", str(path.with_suffix(".json"))])):
        gc.collect()
        grown = _peak(load, paths[1]) - _peak(load, paths[0])
        assert grown <= 38 * (sizes[1] - sizes[0]), grown / (sizes[1] - sizes[0])


def test_peak_memory_of_a_similarity_load_is_one_piece(tmp_path):
    """A load holds one piece of the file at a time and a row of column
    sums, never the whole text or the score matrix: a 1000 x 1000 table,
    whose scores take 8 MB, peaks at most at 512 KiB (0.38 MiB measured)."""
    rng = np.random.default_rng(1)
    path = tmp_path / "s.csv"
    path.write_text(
        "sample_id," + ",".join(f"cand{j:04d}" for j in range(1000)) + "\n"
        + "".join(f"q{i:05d}," + ",".join(f"{v:.5f}" for v in rng.normal(0.2, 0.05, 1000))
                  + "\n" for i in range(1000)), encoding="utf-8")
    table = load_similarities(path)
    assert table.n_samples == 1000 and table.means.shape == (1000,)
    assert _peak(load_similarities, path) <= 512 << 10


def test_peak_memory_of_confuse_does_not_grow_with_the_rows(tmp_path):
    """The confuse subcommand, from parsing to its report and manifest,
    peaks under 1 MiB (0.38-0.45 MiB measured), and 4000 rows take at most
    256 KiB more than 1000 (at most 0.02 MiB measured, in warm calls, after
    gc.collect() or with gc off): 8 bytes a row."""
    peaks = [_peak(cli.main, ["confuse", "--similarities",
                              str(_scores_file(tmp_path / f"s{rows}.csv", rows)),
                              "--out", str(tmp_path / f"c{rows}.json")])
             for rows in (1000, 4000)]
    assert max(peaks) <= 1 << 20
    assert peaks[1] - peaks[0] <= 256 << 10


def test_the_sample_id_store_grows_8_bytes_a_row():
    """2000 adds of 2 ids each, the blocks of confuse's 8 KB rows, keep
    about 8 bytes a row (one flat buffer, over-allocated by at most a
    sixteenth), not an array a block (68 bytes a row)."""
    ids = evaluation._SampleIds("s.csv", "similarity", 2, pad=False)
    blocks = [[f"q{i:05d}", f"r{i:05d}"] for i in range(2000)]
    gc.collect()
    tracemalloc.start()
    try:
        for names in blocks:
            ids.add(names)
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert grown <= 9 * 4000 + (1 << 10)


# ---------------------------------------------------------------- piece boundaries

# Read sizes that put a cut at every offset of the short files below.
EVERY_CUT = range(1, 48)


def same_outcome_of_bytes(kind, data: bytes, block_chars=None):
    """Load the file ``data`` with both loaders of ``kind``, the block-wise
    one reading pieces of ``block_chars`` bytes; return the outcome they
    agree on."""
    load, reference = LOADERS[kind]
    saved = evaluation._BLOCK_CHARS
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(data)
        try:
            evaluation._BLOCK_CHARS = block_chars or saved
            got, expected = _outcome(load, path), _outcome(reference, path)
        finally:
            evaluation._BLOCK_CHARS = saved
    assert got == expected
    return got


def _utf8_error(data: bytes) -> tuple[str, str, tuple[int]]:
    """The error outcome of the first byte of ``data`` that is not UTF-8,
    found by decoding the whole of it."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return "error", f"line {line}: not valid UTF-8 ({exc.reason})", (line,)
    raise AssertionError("the data decodes")


def test_a_bad_byte_in_a_later_piece_comes_before_a_bad_row_in_an_earlier_one():
    rows = "".join(f"t{i},0.1,0.2\n" for i in range(20))
    for text in both_paths(SIMILARITIES + "s3,x,0.5\n" + rows):
        data = text.encode("utf-8") + b"u1,0.\xff,0.3\n"
        for block_chars in (1, 16, 64, None):
            outcome = same_outcome_of_bytes("similarities", data, block_chars)
            assert outcome == _utf8_error(data) == (
                "error", "line 25: not valid UTF-8 (invalid start byte)", (25,))


def test_a_bad_byte_several_pieces_in_is_numbered_by_its_line(tmp_path):
    """The newlines before a bad byte are counted from the file only when it
    fails to decode, here up to 300 pieces in, and past 64 KiB of text."""
    for rows in (40, 6000):
        data = (SIMILARITIES.encode("utf-8")
                + b"".join(b"t%d,0.1,0.2\n" % i for i in range(rows)) + b"u1,0.\xff,0.3\n")
        path = tmp_path / f"s{rows}.csv"
        path.write_bytes(data)
        expected = _utf8_error(data)
        assert expected[2] == (rows + 4,)
        for size in (*EVERY_CUT, 1 << 14):
            with pytest.raises(ParseError) as err:
                list(read_pieces(path, size))
            assert ("error", str(err.value), err.value.lines) == expected
        for block_chars in (1, 40, None):
            assert same_outcome_of_bytes("similarities", data, block_chars) == expected


@pytest.mark.parametrize("kind,text,expected", [
    # multi-byte characters of two, three and four bytes in names and ids
    ("similarities", "sample_id,café,€uro,𝄞\ns€1,0.9,0.5,0.1\nsé2,0.8,0.6,0.2\n", "table"),
    ("predictions", PREDICTIONS.replace("snow", "snö€").replace("a2", "𝄞2"), "table"),
    # a bad row between good ones
    ("similarities", SIMILARITIES + "s3,0.1\ns4,0.3,0.4\n", "line 4: expected 3 cells, got 2"),
    ("predictions", PREDICTIONS.replace("a2,bear,hard", "a2,bear,mid"),
     "line 3: group must be easy/hard/unassigned, got 'mid'"),
    # a quoted field over two lines is one record, so the bad row after it is line 3
    ("similarities", 'sample_id,cat,dog\n"s\n1",0.9,0.5\ns2,0.8\n',
     "line 3: expected 3 cells, got 2"),
    ("predictions", PREDICTIONS.replace("a1,bear,easy,snow", 'a1,bear,easy,"sn\now"'), "table"),
    # carriage returns end lines, alone or before a newline
    ("similarities", SIMILARITIES.replace("\n", "\r\n"), "table"),
    ("similarities", (SIMILARITIES + "s3,0.1\n").replace("\n", "\r\n"),
     "line 4: expected 3 cells, got 2"),
    ("points", "easy,hard\r0.5,0.5\r\n0.25,0.75\r", "table"),
    # no final newline
    ("similarities", SIMILARITIES.rstrip("\n"), "table"),
    ("points", "easy,hard\n0.5,0.5\n0.25,x", "line 3: non-numeric accuracy"),
])
def test_records_across_every_cut_match_row_reader(kind, text, expected):
    for variant in both_paths(text):
        for block_chars in EVERY_CUT:
            outcome = assert_same_outcome(kind, variant, block_chars)
            if expected == "table":
                assert outcome[0] == "table"
            else:
                assert outcome[0] == "error" and expected in outcome[1]


@pytest.mark.parametrize("text", [
    "sample_id,café\ns€1,0.9\n",
    "sample_id,cat\r\ns1,0.9\r\ns2,0.8\r\n",
    "sample_id,cat\rs1,0.9\n\ns2,0.8",
    "sample_id,cat\n" + "s" * 300 + ",0.5\n",
])
def test_pieces_are_whole_lines_of_the_text(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    for size in EVERY_CUT:
        pieces = list(read_pieces(path, size))
        assert "".join(pieces) == text
        assert all(piece.endswith("\n") for piece in pieces[:-1])


@pytest.mark.parametrize("colliding", [False, True], ids=["hashed", "colliding-ids"])
@pytest.mark.parametrize("kind,text", [
    ("predictions", PREDICTIONS),
    ("similarities", "sample_id,café\r\ns€1,0.9\r\ns2,0.8"),
    ("points", "name,easy,hard\nr1,0.5,0.5\n,0.25,0.75\n"),
], ids=["predictions", "similarities-crlf", "points"])
def test_the_digest_is_of_the_bytes_parsed(tmp_path, monkeypatch, kind, text, colliding):
    """The parse pass feeds ``digest`` each byte of the file once, at any read
    size, on both paths; ids read again when their hashes collide are not fed
    to it."""
    if colliding:
        monkeypatch.setattr(evaluation, "_id_hash", lambda sample_id: 7)
    for i, variant in enumerate(both_paths(text)):
        path = tmp_path / f"{i}.csv"
        path.write_bytes(variant.encode("utf-8"))
        for size in EVERY_CUT:
            monkeypatch.setattr(evaluation, "_BLOCK_CHARS", size)
            digest = hashlib.sha256()
            LOADERS[kind][0](path, digest=digest)
            assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()


def test_a_line_longer_than_many_pieces():
    cells = [f"{j / 7:.6f}" for j in range(2000)]  # a 17 kB row: 2400 reads of 7 bytes
    text = ("sample_id," + ",".join(f"c{j}" for j in range(2000)) + "\n"
            + "s1," + ",".join(cells) + "\ns2," + ",".join(cells[::-1]) + "\n")
    for variant in both_paths(text):
        for block_chars in (7, 1000, None):
            kind, (candidates, n_samples, means) = assert_same_outcome(
                "similarities", variant, block_chars)
            assert kind == "table" and n_samples == 2 and len(means) == 2000


@pytest.mark.parametrize("data", [
    b"sample_id,cat\ns1,0.9\ns\xe42,0.8\ns3,0.7\n",
    b"sample_id,cat\ns1,0.9\n\n\ns2,0.\xe2\x82\n",
    b"sample_id,cat\ns1,0.9\ns2,0.\xe2\x82",  # a sequence cut short by the end of the file
])
def test_read_text_and_the_csv_reader_name_the_same_line(tmp_path, monkeypatch, data):
    path = tmp_path / "s.csv"
    path.write_bytes(data)
    expected = _utf8_error(data)
    with pytest.raises(ParseError) as whole:
        read_text(path)
    assert ("error", str(whole.value), whole.value.lines) == expected
    for block_chars in (1, 5, 1 << 14):
        monkeypatch.setattr(evaluation, "_BLOCK_CHARS", block_chars)
        with pytest.raises(ParseError) as pieces:
            evaluation._read_csv(path, "similarity")
        assert ("error", str(pieces.value), pieces.value.lines) == expected


# ---------------------------------------------------------------- numeric path

# What a number's cell is drawn from: float() and numpy's reader disagree on
# some of these (``_``, \x1c-\x1f, non-ASCII digits and spaces), and the
# rest make cells that both reject, both accept, or read as non-finite.
TOKENS = (*"0123456789", "+", "-", ".", "e", "_", "#", "inf", "nan",
          " ", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f",
          "\xa0", "　", "١")
PADDING = st.sampled_from(("", " ", "\t", "\x0b", "\x1c", "\x1f", "\xa0", "　"))
NUMBER_CELLS = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=8).map("".join),
    st.tuples(PADDING, st.floats(allow_nan=False).map(repr), PADDING).map("".join),
    st.sampled_from(("0", "-0", "-0.0", "1e-320", "1e400", "0.1", "١.5", "1_000.5")),
)


@st.composite
def numeric_tables(draw, kind):
    """Text of a similarity table or points file whose numbers are drawn
    from NUMBER_CELLS."""
    if kind == "similarities":
        width = draw(st.integers(1, 4))
        rows = [["sample_id", *(f"c{j}" for j in range(width))]]
        names = [f"q{i}" for i in range(draw(st.integers(1, 6)))]
    else:
        width, named = 2, draw(st.booleans())
        rows = [["name", "easy", "hard"] if named else ["easy", "hard"]]
        names = [f"m{i}" if named else None for i in range(draw(st.integers(1, 6)))]
    for name in names:
        numbers = draw(st.lists(NUMBER_CELLS, min_size=width, max_size=width))
        rows.append(numbers if name is None else [name, *numbers])
    return "\n".join(map(",".join, rows)) + draw(st.sampled_from(("", "\n")))


@pytest.mark.parametrize("kind", ["similarities", "points"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_numbers_are_float_bit_for_bit(kind, data):
    text = data.draw(numeric_tables(kind), label="text")
    block_chars = data.draw(st.sampled_from((1, 24, None)), label="block_chars")
    assert_same_outcome(kind, text, block_chars)


def test_scores_whose_sum_overflows_give_the_same_infinite_mean():
    text = ("sample_id,c0,c1,c2\nq0,0,0,8.988465674311579e+307\n"
            "q1,0,0,8.98846567431158e+307")
    kind, (_, _, bits) = assert_same_outcome("similarities", text, block_chars=1)
    assert kind == "table" and np.array(bits).view(float).tolist() == [0.0, 0.0, np.inf]


def refuse_cell_by_cell(monkeypatch):
    """Make the per-cell fallback fail, so a load that passes never took it."""
    def refuse(cells, width):
        raise AssertionError("a plain numeric block was parsed cell by cell")
    monkeypatch.setattr(evaluation, "_floats", refuse)


def _table_text(rows: int, candidates: int, digits: int) -> str:
    rng = np.random.default_rng(rows)
    return ("sample_id," + ",".join(f"cand{j:04d}" for j in range(candidates)) + "\n"
            + "".join(f"q{i:05d}," + ",".join(f"{v:.{digits}f}" for v in
                                              rng.normal(0.2, 0.05, candidates)) + "\n"
                      for i in range(rows)))


@pytest.mark.parametrize("text,block_chars", [
    # the header fills the first 16 KiB read, so the first piece has no data row
    (_table_text(6, 1000, 5), None),
    # each record is longer than one read
    (_table_text(3, 2000, 6), None),
    (_table_text(3, 20, 6), 40),
    # one candidate: numpy reads each record as a one-column row
    ("sample_id,cat\nq1,0.5\nq2,-0.0\nq3,1e-5\n", None),
    ("sample_id,cat\nq1,0.5\nq2,-0.0\nq3,1e-5\n", 1),
])
def test_plain_numeric_table_never_goes_cell_by_cell(monkeypatch, text, block_chars):
    refuse_cell_by_cell(monkeypatch)
    assert assert_same_outcome("similarities", text, block_chars)[0] == "table"


@pytest.mark.parametrize("text", [
    "easy,hard\n0.5,0.25\n1,0\n",
    "name,easy,hard\nm1,0.5,0.25\nm2,1e-3,-0.0\n",
])
def test_plain_points_never_go_cell_by_cell(monkeypatch, text):
    refuse_cell_by_cell(monkeypatch)
    assert assert_same_outcome("points", text)[0] == "table"


@pytest.mark.parametrize("kind,text,expected", [
    # an empty rest is no row to numpy: its record goes cell by cell
    ("similarities", "sample_id,cat\nq1,0.5\nq2,\nq3,0.5\n", "line 3: non-numeric score"),
    ("similarities", "sample_id,cat\nq1,\n", "line 2: non-numeric score"),
    ("similarities", "sample_id,cat,dog\nq1,0.5,0.5\nq2,,\n", "line 3: non-numeric score"),
    # a cell of spaces only is no number to either reader
    ("similarities", "sample_id,cat,dog\nq1,0.5, \n", "line 2: non-numeric score"),
    ("similarities", "sample_id,cat\nq1,\t\n", "line 2: non-numeric score"),
    ("points", "easy,hard\n0.5, \n", "line 2: non-numeric accuracy"),
    # numpy strips \x1c-\x1f around a number, float() does not
    ("similarities", "sample_id,cat\nq1,0.5\x1c\n", "line 2: non-numeric score"),
    ("points", "name,easy,hard\nm1,\x1f0.5,0.5\n", "line 2: non-numeric accuracy"),
    # float() reads these, numpy's reader does not
    ("similarities", "sample_id,cat,dog\nq1,1_0.5,١.5\n", "table"),
    ("points", "easy,hard\n0_0.5,٠.5\n", "table"),
])
def test_cells_the_readers_disagree_on(kind, text, expected):
    outcome = assert_same_outcome(kind, text)
    if expected == "table":
        assert outcome[0] == "table"
    else:
        assert outcome[0] == "error" and expected in outcome[1]


# ---------------------------------------------------------------- means

# What a score is drawn from: finite values of every magnitude, signed zeros
# and a subnormal, so that the order of the additions shows in the bits.
def _scores(rng, shape) -> np.ndarray:
    values = rng.choice((-1.0, 1.0), shape) * 10.0 ** rng.uniform(-320, 300, shape)
    special = rng.random(shape) < 0.1
    values[special] = rng.choice((-0.0, 0.0, 1e-320, -1e-320, 1.0), special.sum())
    return values


def _similarity_text(scores) -> str:
    """A similarity table of the score matrix, each score as its repr."""
    return ("sample_id," + ",".join(f"c{j}" for j in range(scores.shape[1])) + "\n"
            + "".join(f"q{i}," + ",".join(map(repr, row)) + "\n"
                      for i, row in enumerate(scores.tolist())))


@settings(max_examples=40, deadline=None)
@given(candidates=st.sampled_from((1, 2, 3, 40)), rows=st.integers(1, 3000),
       seed=st.integers(0, 2**32 - 1), block_chars=st.sampled_from((1, 24, 1 << 14)))
def test_means_are_numpy_means_bit_for_bit(candidates, rows, seed, block_chars):
    """The means of the column sums are the reference's to the bit: for two
    or more candidates ``np.array(rows).mean(axis=0)``, which adds a row at
    a time, and for one the same in-order sum from +0.0 (numpy would sum
    a lone column pairwise)."""
    rows = min(rows, 6000 // candidates)
    scores = _scores(np.random.default_rng(seed), (rows, candidates))
    text = _similarity_text(scores)
    kind, (_, n_samples, means) = assert_same_outcome("similarities", text, block_chars)
    assert kind == "table" and n_samples == rows
    if candidates == 1:
        in_order = np.cumsum([np.zeros(candidates), *scores], axis=0)[-1] / rows
        assert means == in_order.view(np.int64).tolist()
        return
    assert means == scores.mean(axis=0).view(np.int64).tolist()


def _similarity_file(path, scores):
    path.write_text(_similarity_text(scores), encoding="utf-8")
    return path


def test_a_candidates_mean_does_not_depend_on_the_others(tmp_path):
    """A column of scores has the same mean, to the bit, alone and next to
    another candidate's column: every width adds its rows in file order."""
    scores = np.random.default_rng(5).normal(0.2, 0.05, (2000, 2))
    alone = load_similarities(_similarity_file(tmp_path / "1.csv", scores[:, :1])).means
    paired = load_similarities(_similarity_file(tmp_path / "2.csv", scores)).means
    assert alone[0].hex() == paired[0].hex()


def test_a_one_candidate_overflow_is_an_overflow(tmp_path, capsys):
    """Summed pairwise, 4 x 1e308 then 4 x -1e308 would be inf + -inf = nan;
    added in file order the sum stays inf, an overflow, as at any width."""
    path = _similarity_file(tmp_path / "s.csv", np.repeat([[1e308], [-1e308]], 4, axis=0))
    assert cli.main(["confuse", "--similarities", str(path), "--k", "1",
                     "--out", str(tmp_path / "c.json")]) == 3
    assert capsys.readouterr().err == "error: overflow encountered in reduce\n"


OVERFLOW = ("s0,1e308,1e308\ns1,1e308,1e308\n"
            + "".join(f"t{i},0.5,0.5\n" for i in range(4000)))


@pytest.mark.parametrize("candidates", [1, 2])
def test_an_overflow_of_the_sums_comes_after_every_row(tmp_path, capsys, candidates):
    """Finite scores whose column sums overflow exit 3 with numpy's message,
    but only once every row is checked: a bad row in a later piece is
    reported, as it was when the sums were taken after the load."""
    header = "sample_id," + ",".join(f"c{j}" for j in range(candidates)) + "\n"
    rows = OVERFLOW if candidates == 2 else re.sub(",[^,\n]*\n", "\n", OVERFLOW)
    path = tmp_path / "s.csv"
    argv = ["confuse", "--similarities", str(path), "--k", "1",
            "--out", str(tmp_path / "c.json")]
    path.write_text(header + rows, encoding="utf-8")
    assert path.stat().st_size > 2 * evaluation._BLOCK_CHARS
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "error: overflow encountered in reduce\n"
    path.write_text(header + rows + "bad,x" + ",0.5" * (candidates - 1) + "\n",
                    encoding="utf-8")
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: line 4004: non-numeric score\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


# ---------------------------------------------------------------- sample id hashes

def _with_equal_hashes(check):
    """``check()`` with every sample id hashed to one value, so that every
    pair of rows is checked by reading the file's ids again."""
    saved = evaluation._id_hash
    evaluation._id_hash = lambda sample_id: 7
    try:
        return check()
    finally:
        evaluation._id_hash = saved


@pytest.mark.parametrize("kind,text,message", EDGE_CASES)
def test_equal_hashes_change_no_outcome(kind, text, message):
    for variant in both_paths(text):
        for block_chars in (1, 24, None):
            outcome = assert_same_outcome(kind, variant, block_chars)
            assert _with_equal_hashes(
                lambda: assert_same_outcome(kind, variant, block_chars)) == outcome


def test_equal_hashes_before_a_reader_error():
    limit = csv.field_size_limit()
    text = PREDICTIONS + "a1,fox,easy,snow,fox\na9,fox,easy,snow," + "f" * (limit + 1) + "\n"
    for variant in both_paths(text):
        for check in (lambda: assert_same_outcome("predictions", variant),
                      lambda: _with_equal_hashes(
                          lambda: assert_same_outcome("predictions", variant))):
            assert check() == ("error", "duplicate sample_id 'a1' at lines 2 and 5", (2, 5))


@pytest.mark.parametrize("kind", ["predictions", "similarities"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_equal_hashes_change_no_outcome_of_random_files(kind, data):
    text = data.draw(csv_files(kind), label="text")
    block_chars = data.draw(st.sampled_from((1, 24, 1 << 14)), label="block_chars")
    outcome = assert_same_outcome(kind, text, block_chars, LIMIT)
    assert _with_equal_hashes(
        lambda: assert_same_outcome(kind, text, block_chars, LIMIT)) == outcome
