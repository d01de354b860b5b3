"""Metrics and selection procedures over external models' prediction logs.

Everything here is pure aggregation: prediction logs, similarity tables and
accuracy points are ingested from CSV, never produced.  Accuracies are kept
as fractions in [0, 1] internally and in JSON; percentage rendering is a
formatting concern (:func:`fmt_pct`).
"""

from __future__ import annotations

import array
import csv
import enum
import io
import math
import operator
import os
import stat
import warnings
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DegenerateFitError,
    DomainError,
    InsufficientDataError,
    ParseError,
)
from .inputs import read_pieces


class Group(str, enum.Enum):
    EASY = "easy"
    HARD = "hard"
    UNASSIGNED = "unassigned"


class Transform(str, enum.Enum):
    LINEAR = "linear"
    PROBIT = "probit"


def fmt_pct(fraction: float) -> str:
    """Render a fraction as a percentage with two decimals, e.g. '97.62'."""
    return f"{100.0 * fraction:.2f}"


@dataclass(frozen=True)
class PredictionRecord:
    """One row of a prediction log: a sample's label, group, background
    and the model's labels in descending score order."""

    sample_id: str
    true_label: str
    group: Group
    background: str
    ranked_predictions: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "group", Group(self.group))
        object.__setattr__(self, "ranked_predictions", tuple(self.ranked_predictions))
        if not self.ranked_predictions:
            raise ConfigError("ranked_predictions must be nonempty")
        if len(set(self.ranked_predictions)) != len(self.ranked_predictions):
            raise ConfigError("ranked_predictions must be duplicate-free")


# The rank of a true label missing from the ranking.  Hit tests clamp k
# below it, so no k, however large, counts a missing label as a hit.
_NO_RANK = np.iinfo(np.int64).max
_GROUP_CODE = {g.value: code for code, g in enumerate(Group)}


def _rank(label: str, ranked) -> int:
    return ranked.index(label) + 1 if label in ranked else _NO_RANK


class _Codes(dict):
    """A code for each string, the next free one for a string not seen before."""

    def __missing__(self, key: str) -> int:
        self[key] = code = len(self)
        return code

    def in_name_order(self, codes) -> tuple[tuple[str, ...], np.ndarray]:
        """The sorted strings whose codes occur in ``codes``, and each code's
        index among them, written over ``codes`` if it is an int32 array."""
        codes = np.asarray(codes, dtype=np.int32)
        used = np.zeros(len(self), dtype=bool)
        used[codes] = True
        names = sorted(compress(self, used.tolist()))  # a dict iterates in code order
        index = np.empty(len(self), dtype=np.int32)
        index[list(map(self.__getitem__, names))] = np.arange(len(names))
        np.take(index, codes, out=codes, mode="clip")  # "raise" would buffer ``out``
        return tuple(names), codes


@dataclass(frozen=True, eq=False)
class PredictionTable:
    """A prediction log as columns, one entry per row.

    ``label`` and ``background`` are int32 indexes of the sorted names in
    ``labels`` and ``backgrounds``; ``group`` is an int8 index of
    ``tuple(Group)``; ``rank`` is the int64 1-based position of the true
    label in the row's ranked predictions, and larger than any k when the
    label is absent.  A row is a top-k hit iff ``rank <= k``.
    """

    labels: tuple[str, ...]
    label: np.ndarray
    group: np.ndarray
    backgrounds: tuple[str, ...]
    background: np.ndarray
    rank: np.ndarray

    def __len__(self) -> int:
        return len(self.rank)

    @classmethod
    def from_records(cls, records) -> PredictionTable:
        """The table of an iterable of PredictionRecord, one row each."""
        records = list(records)
        labels, backgrounds = _Codes(), _Codes()
        return _encode(
            labels, backgrounds,
            [labels[r.true_label] for r in records],
            [_GROUP_CODE[r.group.value] for r in records],
            [backgrounds[r.background] for r in records],
            [_rank(r.true_label, r.ranked_predictions) for r in records],
        )


def _encode(labels: _Codes, backgrounds: _Codes, label, group, background,
            rank) -> PredictionTable:
    """The table of per-row true label codes in ``labels``, group codes,
    background codes in ``backgrounds`` and ranks."""
    label_names, label_codes = labels.in_name_order(label)
    background_names, background_codes = backgrounds.in_name_order(background)
    return PredictionTable(
        labels=label_names, label=label_codes, group=np.asarray(group, dtype=np.int8),
        backgrounds=background_names, background=background_codes,
        rank=np.asarray(rank, dtype=np.int64),
    )


_PRED_FIXED = ("sample_id", "true_label", "group", "background")
# CSV files are read in pieces of whole lines from reads of this many bytes,
# and their records checked a piece (or about this many characters of csv
# module rows) at a time, so a load holds one piece, its cells, its result
# and a hash of each sample id.
_BLOCK_CHARS = 1 << 14
# Characters that send a text through csv.reader (see _read_csv).
_NOT_PLAIN = '"\r\0\x1c\x1d\x1e\x1f'


class _Block(NamedTuple):
    """Consecutive records of a CSV file: the first one's line number, each
    one's cell count, and the records, each a line of text cut at its commas
    only when its cells are asked for (``text``) or a csv module row."""

    line: int
    widths: list[int]
    records: list[str] | list[list[str]]
    text: bool

    def cells(self) -> list[str]:
        """All the records' cells, record after record."""
        if not self.text:
            return list(chain.from_iterable(self.records))
        if self.records and "" not in self.records:
            return ",".join(self.records).split(",")
        # csv.reader reads an empty line as no cells, not as one empty cell
        return [cell for record in self.records if record for cell in record.split(",")]

    def rows(self, start: int, stop: int | None = None) -> _Block:
        """The block of records ``start`` to ``stop``."""
        return _Block(self.line + start, self.widths[start:stop], self.records[start:stop],
                      self.text)


def _at(line: int, message: str) -> ParseError:
    return ParseError(f"line {line}: {message}", lines=(line,))


def _read_csv(path, what: str, digest=None) -> tuple[list[str], Iterator[_Block]]:
    """The header row and the data rows in blocks, read lazily.  Lines
    number the records from 1.

    The file is read twice, a piece of whole lines at a time.  The first
    pass decodes every piece, so a byte that is not UTF-8 is an error
    before any row's, and keeps only whether the text is plain.  The second
    parses, and feeds ``digest`` (see read_pieces) the bytes it parses.  A
    plain text, with no quote, carriage return, NUL or \\x1c-\\x1f, is cut
    at its newlines into records whose commas cut the cells csv.reader
    gives; any other text goes through csv.reader.  (numpy's
    text reader, which parses the numbers of a plain text's records, strips
    \\x1c-\\x1f around a number, where float() rejects them.)  A file that is
    not regular (a pipe cannot be read twice), an empty file and a cell over
    the csv module's field size limit are ParseErrors; ``what`` names the
    file in the first two.  So is a UTF-8 byte-order mark at its start."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ParseError(f"{what} file {path}: a CSV input must be a regular file")
    empty, plain = True, True
    for piece in read_pieces(path, _BLOCK_CHARS):
        if empty and piece.startswith("\ufeff"):
            raise _at(1, "the file starts with a byte-order mark (U+FEFF)")
        empty = False
        plain = plain and not any(map(piece.__contains__, _NOT_PLAIN))
    if empty:
        raise ParseError(f"{what} file is empty")
    pieces = read_pieces(path, _BLOCK_CHARS, digest)
    blocks = _split_blocks(pieces, csv.field_size_limit()) if plain else _csv_blocks(pieces)
    first = next(blocks)
    header = first.rows(0, 1).cells()
    if len(first.widths) > 1:
        blocks = chain([first.rows(1)], blocks)
    return header, blocks


def _split_blocks(pieces: Iterator[str], limit: int) -> Iterator[_Block]:
    """The records of a plain text (see _read_csv), a piece at a time."""
    line = 1
    for piece in pieces:
        lines = piece.removesuffix("\n").split("\n")
        if len(piece) > limit:
            for i, record in enumerate(lines):
                if len(record) > limit and max(map(len, record.split(","))) > limit:
                    if i:
                        yield _split_block(line, lines[:i])
                    raise _at(line + i, f"field larger than field limit ({limit})")
        yield _split_block(line, lines)
        line += len(lines)


def _split_block(line: int, lines: list[str]) -> _Block:
    widths = [commas + 1 for commas in map(str.count, lines, repeat(","))]
    if "" in lines:  # an empty line has no cells
        widths = [width if record else 0 for width, record in zip(widths, lines)]
    return _Block(line, widths, lines, True)


def _csv_blocks(pieces: Iterator[str]) -> Iterator[_Block]:
    """The records csv.reader reads from the pieces, in blocks of about
    _BLOCK_CHARS characters; a reader error comes after the records before
    it.  io.StringIO cuts lines from each piece, one at a time, after
    \\r\\n, \\r or \\n."""
    reader = csv.reader(line for piece in pieces for line in io.StringIO(piece, newline=""))
    line, rows, size = 1, [], 0
    try:
        for row in reader:
            rows.append(row)
            size += len(row) + sum(map(len, row))
            if size >= _BLOCK_CHARS:
                yield _rows_block(line, rows)
                line, rows, size = line + len(rows), [], 0
    except csv.Error as exc:
        if rows:
            yield _rows_block(line, rows)
        raise _at(line + len(rows), str(exc)) from None
    if rows:
        yield _rows_block(line, rows)


def _rows_block(line: int, rows: list[list[str]]) -> _Block:
    return _Block(line, list(map(len, rows)), rows, False)


def _data_rows(blocks: Iterator[_Block], width: int, pad: bool) -> Iterator[_Block]:
    """The blocks, with rows ``width`` cells wide.  A block ends before its
    first row of the wrong width, whose error is raised when the next block
    is asked for, so the rows before it are checked first.  With ``pad`` a
    narrower row is filled out with empty cells and only a wider one is
    wrong."""
    for block in blocks:
        if block.widths.count(width) == len(block.widths):
            yield block
            continue
        n = next((i for i, count in enumerate(block.widths)
                  if count > width or not pad and count < width), len(block.widths))
        good = block.rows(0, n)
        if pad:
            cells, start, rows = good.cells(), 0, []
            for count in good.widths:
                rows.append(cells[start:start + count] + [""] * (width - count))
                start += count
            good = _rows_block(good.line, rows)
        yield good
        if n < len(block.widths):
            raise _at(block.line + n, "more cells than header columns" if pad
                      else f"expected {width} cells, got {block.widths[n]}")


def _raise_first(checks) -> None:
    """Raise the error of the first failing row.  ``checks`` pairs each
    check's per-row failure mask with the ParseError of a row index, in the
    order the checks apply to one row."""
    failed = np.column_stack([mask for mask, _ in checks])
    if failed.any():
        row, check = divmod(int(failed.argmax()), len(checks))
        raise checks[check][1](row)


# The hash a sample id is kept as; equal hashes are compared as strings.
_id_hash = hash


class _SampleIds:
    """The sample ids of a CSV file's data rows, kept as one 8-byte hash
    each in one flat buffer (``hashes``, one entry a row), in row order
    until :meth:`check` sorts it in place.  ``path``, ``what``, ``width``
    and ``pad`` say how to read the file again (see _read_csv and
    _data_rows): only when two hashes are equal are the ids read as strings,
    and hashed again to find the rows that share a hash.  Around a row
    loop, it checks the rows up to a ParseError's line before the error,
    else all."""

    def __init__(self, path, what: str, width: int, pad: bool):
        self.source = path, what, width, pad
        self.hashes = array.array("q")

    def add(self, names) -> np.ndarray:
        """Take the next rows' sample ids; the mask of the empty ones."""
        n = len(names)
        self.hashes.frombytes(
            np.fromiter(map(_id_hash, names), dtype=np.int64, count=n).view(np.uint8))
        if "" not in names:
            return np.zeros(n, dtype=bool)
        return np.fromiter(map(operator.not_, names), dtype=bool, count=n)

    def __enter__(self) -> _SampleIds:
        return self

    def __exit__(self, kind, error, traceback) -> None:
        if kind is None or issubclass(kind, ParseError) and error.lines:
            # data rows start at line 2, so the rows up to line L are L - 1
            rows = len(self.hashes)
            self.check(rows if error is None else min(rows, error.lines[0] - 1))

    def check(self, rows: int) -> None:
        """Raise the error of the first row, of the first ``rows`` (only the
        last of them may have an empty id), whose sample_id an earlier row
        has.  Sorts those rows' hashes in place."""
        ranked = np.frombuffer(self.hashes, dtype=np.int64)[:rows]
        ranked.sort()
        equal = ranked[1:] == ranked[:-1]
        if not equal.any():
            return
        shared = set(ranked[1:][equal].tolist())
        first: dict[str, int] = {}
        for row, sample_id in self._ids(shared, rows):
            if first.setdefault(sample_id, row) != row:
                lines = first[sample_id] + 2, row + 2  # data rows are the lines from 2 on
                raise ParseError(f"duplicate sample_id {sample_id!r} at lines {lines[0]} "
                                 f"and {lines[1]}", lines=lines)

    def _ids(self, shared: set[int], rows: int) -> Iterator[tuple[int, str]]:
        """Each of the first ``rows`` rows whose sample id hashes to one of
        ``shared``, and its id, read from the file again."""
        path, what, width, pad = self.source
        _, blocks = _read_csv(path, what)
        blocks = _data_rows(blocks, width, pad)
        start = 0
        while start < rows:  # and no further: a later row may be malformed
            names = next(blocks).cells()[0:(rows - start) * width:width]
            for i, sample_id in enumerate(names):
                if _id_hash(sample_id) in shared:
                    yield start + i, sample_id
            start += len(names)


def _floats(cells: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells as a float array ``width`` wide, and the mask of the rows
    with a cell that float() rejects, which read as zeros."""
    rows = len(cells) // width
    values, bad = np.zeros((rows, width)), np.zeros(rows, dtype=bool)
    for i in range(rows):
        try:
            values[i] = list(map(float, cells[i * width:(i + 1) * width]))
        except ValueError:
            bad[i] = True
    return values, bad


def _numbers(block: _Block, width: int,
             named: bool) -> tuple[list[str | None], np.ndarray, np.ndarray]:
    """The block's first cells if ``named`` (else a None per row), and the
    floats and mask of :func:`_floats` of its other cells.  Records of text
    go to numpy's C reader, which parses a number with float()'s own
    routine and makes no str per cell.  A block it rejects or reads to
    another shape (say, for a cell such as ``1_0`` that float() accepts), a
    block with a record empty after its name, and a block of csv module
    rows go row by row."""
    rows = len(block.widths)
    if block.text and rows:
        names, rests = [None] * rows, block.records
        if named:
            names, _, rests = zip(*map(str.partition, rests, repeat(",")))
        # an empty record is no row to numpy, and no record is no data
        if "" not in rests:
            try:
                values = np.loadtxt(rests, delimiter=",", comments=None, dtype=float,
                                    ndmin=2)
            except ValueError:
                values = None
            if values is not None and values.shape == (rows, width - named):
                return list(names), values, np.zeros(rows, dtype=bool)
    cells = block.cells()
    if not named:
        return [None] * rows, *_floats(cells, width)
    names = cells[0::width]
    del cells[0::width]
    return names, *_floats(cells, width - 1)


def load_predictions(path, *, digest=None) -> PredictionTable:
    """Parse a prediction log; malformed rows are rejected by line number.

    Expected header: sample_id,true_label,group,background,pred_1,...,pred_K.
    A row may rank fewer than K labels by leaving trailing cells empty;
    pred_1 itself must never be empty.  A ``digest`` (a hashlib object) is
    fed the bytes of the file that are parsed.
    """
    header, blocks = _read_csv(path, "prediction", digest)
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
    labels, backgrounds = _Codes({"": 0}), _Codes()  # label code 0 is an empty cell
    # the rows' true label, group and background codes and ranks
    columns = tuple(map(array.array, "ibiq"))
    with _SampleIds(path, "prediction", width, pad=True) as ids:
        for block in _data_rows(blocks, width, pad=True):
            line, n, cells = block.line, len(block.widths), block.cells()
            group = cells[2::width]
            ranked = [cells[j::width] for j in range(4, width)]
            pred = np.fromiter(map(labels.__getitem__, chain.from_iterable(ranked)),
                               dtype=np.intp, count=n * len(ranked)).reshape(len(ranked), n).T
            true = np.fromiter(map(labels.__getitem__, cells[1::width]), dtype=np.int32, count=n)
            group_code = np.fromiter(map(_GROUP_CODE.get, group, repeat(-1, n)),
                                     dtype=np.int8, count=n)
            filled = pred != 0
            ordered = np.sort(pred, axis=1)
            _raise_first([
                (ids.add(cells[0::width]), lambda i: _at(line + i, "empty sample_id")),
                (true == 0, lambda i: _at(line + i, "empty true_label")),
                (group_code < 0, lambda i: _at(
                    line + i, f"group must be easy/hard/unassigned, got {group[i]!r}")),
                (~filled[:, 0], lambda i: _at(line + i, "empty pred_1")),
                ((filled[:, 1:] > filled[:, :-1]).any(axis=1),
                 lambda i: _at(line + i, "ranked predictions have a gap")),
                (((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] != 0)).any(axis=1),
                 lambda i: _at(line + i, "duplicate labels in ranked predictions")),
            ])
            hit = pred == true[:, None]
            background = np.fromiter(map(backgrounds.__getitem__, cells[3::width]),
                                     dtype=np.int32, count=n)
            rank = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, _NO_RANK)
            for column, codes in zip(columns, (true, group_code, background, rank)):
                column.frombytes(codes.view(np.uint8))
    del ids  # checked, so its hashes need not outlast the remaps in _encode
    return _encode(labels, backgrounds,
                   *(np.frombuffer(column, dtype=column.typecode) for column in columns))


def _as_table(predictions, k: int) -> PredictionTable:
    """The predictions as a table, once ``k`` is known to be a valid top-k;
    a table with no rows is an InsufficientDataError."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not isinstance(predictions, PredictionTable):
        predictions = PredictionTable.from_records(predictions)
    if not len(predictions):
        raise InsufficientDataError("no records to score")
    return predictions


def _top_k(table: PredictionTable, k: int) -> np.ndarray:
    return table.rank <= min(k, _NO_RANK - 1)


def _class_counts(table: PredictionTable, k: int,
                  group: Group | None = None) -> tuple[list[int], list[int]]:
    """Top-k hits and rows per label code, over one group's rows or all."""
    label, hit = table.label, _top_k(table, k)
    if group is not None:
        mine = table.group == _GROUP_CODE[group.value]
        label, hit = label[mine], hit[mine]
    n = len(table.labels)
    return (np.bincount(label[hit], minlength=n).tolist(),
            np.bincount(label, minlength=n).tolist())


def _balanced(hits: list[int], totals: list[int]) -> float:
    """Mean accuracy of the classes present, summed in label order."""
    accuracies = [h / n for h, n in zip(hits, totals) if n]
    return sum(accuracies) / len(accuracies)


def plain_accuracy(predictions, k: int) -> float:
    """Top-k hit rate over all records regardless of class."""
    table = _as_table(predictions, k)
    return int(np.count_nonzero(_top_k(table, k))) / len(table)


def balanced_accuracy(predictions, k: int) -> float:
    """Unweighted mean of per-class top-k accuracies."""
    table = _as_table(predictions, k)
    return _balanced(*_class_counts(table, k))


class ClassMetrics(NamedTuple):
    label: str
    easy_accuracy: float | None
    hard_accuracy: float | None
    drop: float | None
    n_easy: int
    n_hard: int


class EvalReport(NamedTuple):
    """Per-class and dataset-level easy/hard comparison at one k.

    balanced_drop subtracts balanced accuracies computed over the classes
    present in both groups; one-sided classes keep their own accuracy but
    contribute no drop.
    """

    k: int
    per_class: tuple[ClassMetrics, ...]
    balanced_easy: float
    balanced_hard: float
    balanced_drop: float
    plain_easy: float
    plain_hard: float


def group_report(predictions, k: int) -> EvalReport:
    """Easy-vs-hard metrics; every record must already carry a group."""
    table = _as_table(predictions, k)
    if (table.group == _GROUP_CODE[Group.UNASSIGNED.value]).any():
        raise ConfigError("group_report needs every record assigned easy or hard")
    easy_hits, n_easy = _class_counts(table, k, Group.EASY)
    hard_hits, n_hard = _class_counts(table, k, Group.HARD)
    if not sum(n_easy) or not sum(n_hard):
        raise InsufficientDataError("both easy and hard groups must be nonempty")
    per_class = []
    common_drops = []
    for label, e_hits, e_rows, h_hits, h_rows in zip(
            table.labels, easy_hits, n_easy, hard_hits, n_hard):
        e = e_hits / e_rows if e_rows else None
        h = h_hits / h_rows if h_rows else None
        drop = e - h if e is not None and h is not None else None
        if drop is not None:
            common_drops.append(drop)
        per_class.append(ClassMetrics(
            label=label,
            easy_accuracy=e,
            hard_accuracy=h,
            drop=drop,
            n_easy=e_rows,
            n_hard=h_rows,
        ))
    if not common_drops:
        raise InsufficientDataError("no class appears in both groups")
    return EvalReport(
        k=k,
        per_class=tuple(per_class),
        balanced_easy=_balanced(easy_hits, n_easy),
        balanced_hard=_balanced(hard_hits, n_hard),
        balanced_drop=sum(common_drops) / len(common_drops),
        plain_easy=sum(easy_hits) / sum(n_easy),
        plain_hard=sum(hard_hits) / sum(n_hard),
    )


class BackgroundStat(NamedTuple):
    name: str
    accuracy: float
    count: int


class ClassSplit(NamedTuple):
    label: str
    easy_background: str
    hard_background: str
    backgrounds: tuple[BackgroundStat, ...]
    gap_pp: float


class Skipped(NamedTuple):
    label: str
    notice: str


class GroupSplit(NamedTuple):
    """Outcome of the per-class background split selection."""

    threshold_pp: float
    min_count: int
    k: int
    flagged: tuple[ClassSplit, ...]
    unflagged: tuple[str, ...]
    skipped: tuple[Skipped, ...]


def discover_spurious(predictions, threshold_pp: float, min_count: int = 20) -> GroupSplit:
    """Flag classes whose top-1 accuracy varies across backgrounds by more
    than threshold_pp percentage points (strictly), assigning easy and hard.

    Only backgrounds with at least min_count records of the class qualify;
    a class with fewer than two qualifying backgrounds is skipped with a
    notice.  Ties break toward the lexicographically smaller name.
    """
    if not (math.isfinite(threshold_pp) and threshold_pp > 0):
        raise ConfigError(f"threshold_pp must be finite and > 0, got {threshold_pp}")
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    table = _as_table(predictions, 1)
    n_bg = len(table.backgrounds)
    # Count only the (class, background) cells that occur: a log with a
    # background per row would otherwise need rows x rows counters.  A row's
    # key is its cell times 2, plus 1 for a top-1 hit, built in place in
    # int64: int32 codes would wrap past 2^31, and codes below 2^31 keep it
    # below 2^63.
    key = table.label.astype(np.int64)
    key *= n_bg
    key += table.background
    key *= 2
    key += _top_k(table, 1)
    key.sort()  # in place, where np.unique would sort a copy
    runs = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    keys, counts = key[runs], np.diff(runs, append=len(key))
    cells, first = np.unique(keys // 2, return_index=True)
    totals = np.add.reduceat(counts, first)
    hit_counts = np.add.reduceat(counts * (keys % 2), first)
    qualifying: list[list[tuple[str, int, int]]] = [[] for _ in table.labels]
    for cell, hit, count in zip(cells.tolist(), hit_counts.tolist(), totals.tolist()):
        if count >= min_count:
            label, background = divmod(cell, n_bg)
            qualifying[label].append((table.backgrounds[background], hit, count))
    flagged = []
    unflagged = []
    skipped = []
    for label, cells_of_label in zip(table.labels, qualifying):
        if len(cells_of_label) < 2:
            skipped.append(Skipped(
                label, f"fewer than 2 backgrounds with >= {min_count} records"))
            continue
        hits = {name: hit for name, hit, _ in cells_of_label}
        stats = [BackgroundStat(name=name, accuracy=hit / count, count=count)
                 for name, hit, count in cells_of_label]
        easy = min(stats, key=lambda b: (-b.accuracy, b.name))
        hard = min(stats, key=lambda b: (b.accuracy, b.name))
        # integer cross-multiplication keeps representable gaps exact, so a
        # gap of exactly threshold_pp never flags
        gap_pp = 100.0 * (hits[easy.name] * hard.count
                          - hits[hard.name] * easy.count) / (easy.count * hard.count)
        if gap_pp > threshold_pp:
            flagged.append(ClassSplit(
                label=label,
                easy_background=easy.name,
                hard_background=hard.name,
                backgrounds=tuple(stats),
                gap_pp=gap_pp,
            ))
        else:
            unflagged.append(label)
    return GroupSplit(
        threshold_pp=threshold_pp,
        min_count=min_count,
        k=1,
        flagged=tuple(flagged),
        unflagged=tuple(unflagged),
        skipped=tuple(skipped),
    )


@dataclass(frozen=True, eq=False)
class SimilarityTable:
    """The mean score of each candidate label over the samples of one
    class's images."""

    candidates: tuple[str, ...]
    n_samples: int
    means: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        object.__setattr__(self, "means", means)
        if means.shape != (len(self.candidates),):
            raise ConfigError(
                f"means shape {means.shape} does not match {len(self.candidates)} candidates"
            )


def load_similarities(path, *, digest=None) -> SimilarityTable:
    """Parse a similarity CSV: header sample_id,<cand_1>,...,<cand_C>.

    The means are one row of column sums over the row count.  Each column
    is summed in file order from +0.0, however many candidates the table
    has, so a candidate's mean does not depend on the others: for two or
    more candidates these are the bits of numpy's ``mean(axis=0)`` over the
    score matrix, whose rows numpy adds in order.  An overflow of the sums
    is left to :func:`confusing_labels`, after every row is checked.  A
    ``digest`` is fed the bytes parsed, as by :func:`load_predictions`."""
    header, blocks = _read_csv(path, "similarity", digest)
    if len(header) < 2 or header[0] != "sample_id":
        raise ParseError(
            "header must be sample_id,<candidate_1>,...,<candidate_C>", lines=(1,)
        )
    candidates = tuple(header[1:])
    if len(set(candidates)) != len(candidates):
        raise ParseError("duplicate candidate labels in header", lines=(1,))
    width = len(header)
    ids = _SampleIds(path, "similarity", width, pad=False)
    sums = np.zeros(len(candidates))
    with ids:
        for block in _data_rows(blocks, width, pad=False):
            line = block.line
            names, values, non_numeric = _numbers(block, width, named=True)
            _raise_first([
                (ids.add(names), lambda i: _at(line + i, "empty sample_id")),
                (non_numeric, lambda i: _at(line + i, "non-numeric score")),
                (~np.isfinite(values).all(axis=1),
                 lambda i: _at(line + i, "non-finite score")),
            ])
            if len(values):
                with np.errstate(over="ignore"):
                    values[0] += sums
                    # not add.reduce: numpy sums a lone column pairwise
                    sums = np.add.accumulate(values, axis=0, out=values)[-1]
    rows = len(ids.hashes)
    if not rows:
        raise ParseError("similarity file has no data rows")
    return SimilarityTable(candidates=candidates, n_samples=rows, means=sums / rows)


def confusing_labels(similarities: SimilarityTable, k: int = 20) -> list[str]:
    """Top-k candidate labels by mean score over all samples, descending.

    Easy and hard samples are pooled with equal per-sample weight; ties
    break lexicographically.  An infinite mean, the overflow of finite
    scores' sum, is warned of as numpy's mean warns of it.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > len(similarities.candidates):
        raise ConfigError(
            f"k = {k} exceeds the {len(similarities.candidates)} candidates"
        )
    if np.isinf(similarities.means).any():
        warnings.warn("overflow encountered in reduce", RuntimeWarning, stacklevel=2)
    order = sorted(
        zip(similarities.candidates, similarities.means.tolist()),
        key=lambda item: (-item[1], item[0]),
    )
    return [name for name, _ in order[:k]]


class Point(NamedTuple):
    name: str | None
    easy: float
    hard: float


def load_points(path, *, digest=None) -> list[Point]:
    """Parse accuracy pairs: header easy,hard with an optional name column.

    Accuracies are fractions; a value that is not finite or lies outside
    [0, 1] is rejected with its line.  A ``digest`` is fed the bytes parsed,
    as by :func:`load_predictions`.
    """
    header, blocks = _read_csv(path, "points", digest)
    if header == ["easy", "hard"]:
        named = False
    elif header == ["name", "easy", "hard"]:
        named = True
    else:
        raise ParseError(
            "header must be easy,hard or name,easy,hard", lines=(1,)
        )
    width = len(header)
    points = []
    for block in _data_rows(blocks, width, pad=False):
        line = block.line
        names, values, non_numeric = _numbers(block, width, named)
        _raise_first([
            (non_numeric, lambda i: _at(line + i, "non-numeric accuracy")),
            (~((values >= 0.0) & (values <= 1.0)).all(axis=1), lambda i: _at(
                line + i, "accuracies must be fractions in [0, 1], got {}, {}".format(
                    *values[i].tolist()))),
        ])
        points += map(Point, names, *values.T.tolist())
    if not points:
        raise ParseError("points file has no data rows")
    return points


class FitLine(NamedTuple):
    slope: float
    intercept: float
    transform: Transform
    residual_rms: float


def std_normal_inv_cdf(p: float) -> float:
    """Inverse standard normal CDF; defined only on the open unit interval."""
    if math.isnan(p) or not 0.0 < p < 1.0:
        raise DomainError(f"inverse normal CDF needs p in (0, 1), got {p}")
    import statistics  # here, not at the top: it loads fractions and decimal
    return statistics.NormalDist().inv_cdf(p)


def transform_coordinates(points, transform: Transform | str):
    """(x, y) arrays of easy/hard values, probit-mapped when requested."""
    transform = Transform(transform)
    x = np.array([p.easy for p in points], dtype=float)
    y = np.array([p.hard for p in points], dtype=float)
    if transform is Transform.PROBIT:
        for v in np.concatenate([x, y]):
            if not 0.0 < v < 1.0:
                raise DomainError(
                    f"probit transform needs accuracies strictly inside (0, 1), got {v}"
                )
        x = np.array([std_normal_inv_cdf(v) for v in x])
        y = np.array([std_normal_inv_cdf(v) for v in y])
    return x, y


def effective_robustness_fit(points, transform: Transform | str = Transform.LINEAR) -> FitLine:
    """Least squares of hard on easy, raw or on probit-mapped axes, in the
    centered closed form, each sum by math.fsum.  As in np.linalg.lstsq, the
    design [x 1] is rank-deficient when its smaller singular value is at most
    n * eps times its larger; their squares are the eigenvalues of
    [[sum x^2, sum x], [sum x, n]], of determinant n * Sxx."""
    transform = Transform(transform)
    n = len(points)
    if n < 2:
        raise InsufficientDataError("need at least 2 points to fit a line")
    x, y = transform_coordinates(points, transform)
    if np.ptp(x) == 0.0:
        raise DegenerateFitError("all x values identical; line is not determined")
    sum_x, sum_x2 = math.fsum(x.tolist()), math.fsum((x * x).tolist())
    x_mean, y_mean = sum_x / n, math.fsum(y.tolist()) / n
    dx = x - x_mean
    sxx = math.fsum((dx * dx).tolist())
    larger = (sum_x2 + n + math.hypot(sum_x2 - n, 2.0 * sum_x)) / 2
    if n * sxx <= (n * np.finfo(float).eps * larger) ** 2:
        raise DegenerateFitError(
            "x values too close to distinguish; line is not determined")
    slope = math.fsum((dx * (y - y_mean)).tolist()) / sxx
    intercept = y_mean - slope * x_mean
    residuals = y - (slope * x + intercept)
    return FitLine(
        slope=slope,
        intercept=intercept,
        transform=transform,
        residual_rms=float(math.sqrt(np.mean(residuals ** 2))),
    )
