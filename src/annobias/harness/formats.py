"""On-disk formats: datasets, annotation logs, and confusion matrices.

A dataset is a directory:

* ``meta.json`` — class names and default parameters;
* ``gt.csv`` — per-image soft labels (``image_id, p_0..p_{K-1}`` and an
  optional trailing ``proposal`` column holding a class name);
* ``annotations.csv`` (optional) — one-hot annotations
  (``image_id, annotator_idx, class``);
* ``acceptance_log.csv`` (optional) — proposal-guided annotation events
  (``image_id, proposal_class, annotated_class``).

When ``gt.csv`` is absent, soft labels are averaged from the raw
annotations.  Confusion matrices live in single JSON files.  Every CSV
table and JSON document of the package, reports and configs included,
is read and written by the helpers here, in one canonical form (standard
CSV quoting, sorted JSON keys, ``\\n`` line ends, shortest round-trip
float representation), so saving what was loaded is byte-stable.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field
from importlib import resources
from itertools import chain, islice
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from ..calibration import AcceptanceRecord, TwoProposalRecord
from ..core import (
    AnnotationSet,
    DatasetMeta,
    LabelDistribution,
    TransitionMatrix,
    _readonly,
    _validated_rows,
)

__all__ = [
    "FormatError",
    "ImageRecord",
    "Dataset",
    "LogEntry",
    "TransitionMatrixFile",
    "MATRIX_ROW_TOL",
    "load_dataset",
    "save_dataset",
    "load_acceptance_log",
    "save_acceptance_log",
    "acceptance_records_from_log",
    "two_proposal_records_from_log",
    "load_transition_matrix",
    "save_transition_matrix",
    "bundled_transition_matrix",
    "bundled_transition_names",
]

META_NAME = "meta.json"
GT_NAME = "gt.csv"
ANNOTATIONS_NAME = "annotations.csv"

# Published confusion tables round entries to about three decimals, so a
# row may sum to e.g. 0.999; accept that here and renormalize explicitly.
MATRIX_ROW_TOL = 2e-2

_META_KEYS = {"class_names", "delta", "upper_bound", "mu"}
_MATRIX_KEYS = {"class_names", "rows", "metadata"}
_ANNOTATIONS_HEADER = ["image_id", "annotator_idx", "class"]
_LOG_HEADER = ["image_id", "proposal_class", "annotated_class"]

# images repaired and scored together; bounds the temporaries
_BLOCK_ROWS = 128
# rows of annotations.csv or an acceptance log read into columns at once
_CHUNK_ROWS = 128
# float cells formatted together; bounds the distinct strings held at once
_CHUNK_CELLS = 2**16


class FormatError(ValueError):
    """A file does not parse against its schema."""


def _gt_header(k: int) -> list:
    return ["image_id"] + [f"p_{i}" for i in range(k)]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(n, str) for n in value)


def _not_utf8(path: Path, e: UnicodeDecodeError) -> FormatError:
    return FormatError(f"{path}: not valid UTF-8 text ({e.reason})")


def _refuse_constant(name: str):  # NaN and Infinity, which _dump_json refuses too
    raise ValueError(f"{name} is not a JSON number")


def _read_json(path: Path) -> dict:
    """The JSON object in a UTF-8 file; any defect raises FormatError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f, parse_constant=_refuse_constant)
    except OSError as e:
        raise FormatError(f"{path}: cannot read: {e}") from e
    except UnicodeDecodeError as e:
        raise _not_utf8(path, e) from e
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}:{e.lineno}: invalid JSON: {e.msg}") from e
    except (ValueError, RecursionError) as e:
        # an integer literal past the digit limit, or nesting too deep
        raise FormatError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    return data


def _dump_json(obj, path) -> None:
    """Write ``obj`` as canonical JSON: sorted keys, two-space indent, no NaN."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as e:
        raise FormatError(f"{path}: cannot write as JSON: {e}") from e
    Path(path).write_text(text, encoding="utf-8", newline="")


def _header(reader, path: Path, header: list, optional: Optional[str] = None) -> bool:
    """Read the header row of a CSV ``reader``: it must be ``header``, or
    ``header`` plus the ``optional`` column, in which case the result is true."""
    got = next(reader, None)
    if got is None:
        raise FormatError(f"{path}:1: empty file, expected header {header}")
    names = [h.strip() for h in got]
    extra = optional is not None and names == header + [optional]
    if not extra and names != header:
        raise FormatError(f"{path}:1: header {got} does not match {header}")
    return extra


def _table(path: Path, header: list, optional: Optional[str] = None):
    """Rows of a UTF-8 CSV table: ``(line, image_id, fields, extra)``.

    The header is checked as by :func:`_header`, ``extra`` telling whether
    it has the ``optional`` column.  Blank lines are skipped; every other
    row must have one field per column and a non-empty first field (the
    stripped ``image_id``).  Bad bytes or quoting raise FormatError naming
    the file and line.
    """
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            extra = _header(reader, path, header, optional)
            width = len(header) + extra
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) != width:
                    raise FormatError(
                        f"{path}:{line}: expected {width} fields, got {len(row)}"
                    )
                image_id = row[0].strip()
                if not image_id:
                    raise FormatError(f"{path}:{line}: empty image_id")
                yield line, image_id, row, extra
        except UnicodeDecodeError as e:
            raise _not_utf8(path, e) from e
        except csv.Error as e:
            raise FormatError(f"{path}:{reader.line_num}: {e}") from e


# what a bulk reader raises where it cannot read a file as the row reader would
_REFUSED = (ValueError, LookupError, csv.Error)


def _bulk_or_rows(bulk, by_row, *args):
    """``bulk(*args)``, or ``by_row(*args)`` where the bulk reader refuses.

    A bulk reader raises one of ``_REFUSED`` at any file it might read
    otherwise than its row reader, and then leaves its arguments as they
    were.  The row reader raises FormatError naming the first bad line, or
    reads the few valid files the bulk reader refuses (a float ``0_5``).
    """
    try:
        return bulk(*args)
    except _REFUSED:
        return by_row(*args)


def _chunks(path: Path, header: list):
    """``(ids, *columns)`` of each chunk of up to ``_CHUNK_ROWS`` rows of a
    CSV table, blank rows left out and ids stripped.  ValueError at a row of
    another width, an empty id, or a chunk of blank rows only."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        _header(reader, path, header)
        for chunk in iter(lambda: list(islice(reader, _CHUNK_ROWS)), []):
            rows = [row for row in chunk if row]
            if set(map(len, rows)) != {len(header)}:
                raise ValueError("a row of another width")
            ids, *columns = zip(*rows)
            ids = list(map(str.strip, ids))
            if not all(ids):
                raise ValueError("an empty image_id")
            yield ids, *columns


def _float_texts(values):
    """Each row of ``float64[N, K]`` ``values`` as the ``repr`` of its cells,
    taken once per distinct bit pattern (``0.0`` and ``-0.0`` differ) in each
    chunk of at most ``_CHUNK_CELLS`` cells or one row."""
    step = max(1, _CHUNK_CELLS // max(values.shape[1], 1))
    for lo in range(0, len(values), step):
        chunk = values[lo : lo + step]
        # a 1-D input gives a 1-D inverse on every numpy version
        bits, inverse = np.unique(chunk.view(np.uint64).ravel(), return_inverse=True)
        texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        yield from texts[inverse].reshape(chunk.shape).tolist()


def _csv_line(fields: Sequence) -> str:
    try:
        line = ",".join(fields)
    except TypeError:  # a field that is not text
        fields = [repr(f) if isinstance(f, float) else str(f) for f in fields]
        line = ",".join(fields)
    # some field holds a quote, a line break or a comma of its own
    if '"' in line or "\r" in line or "\n" in line or line.count(",") >= len(fields):
        line = ",".join(
            '"' + f.replace('"', '""') + '"' if any(c in f for c in ',"\r\n') else f
            for f in fields
        )
    return line + "\n" if line or len(fields) != 1 else '""\n'


def _write_table(path, header: Sequence, rows) -> None:
    """Write a CSV table with ``\\n`` line ends, one line per field sequence.

    Floats are written as ``repr``, the shortest form that reads back exactly.
    A field holding ``,``, ``"``, ``\\r`` or ``\\n`` is quoted, each ``"``
    doubled, and a lone empty field is ``""``: every field reads back as is.
    """
    # every row is formatted before the file is opened, so a row that
    # fails leaves no file; the rows are written one by one, never joined
    lines = [_csv_line(header), *map(_csv_line, rows)]
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(lines)


@dataclass(frozen=True)
class ImageRecord:
    """One image: its soft label, optional raw annotations and proposal."""

    image_id: str
    gt: LabelDistribution
    annotations: Optional[AnnotationSet] = None
    annotation_classes: tuple = ()
    proposal: Optional[int] = None


class Dataset:
    """A validated in-memory dataset, held as columns: image ``i`` is
    ``ids[i]``, with soft label ``probs[i]`` (read-only ``float64[N, K]``),
    proposal ``proposals[i]`` (-1 for none), annotation tally ``counts[i]``
    and annotations ``classes[offsets[i]:offsets[i + 1]]`` in file order.
    ``images`` is an :class:`ImageRecord` view built on first access;
    ``Dataset(meta, images)`` builds the columns from such records.
    """

    def __init__(self, meta: DatasetMeta, images: Sequence[ImageRecord]):
        images = tuple(images)
        index = {}
        k = meta.num_classes
        for img in images:
            if img.image_id in index:
                raise FormatError(f"duplicate image_id {img.image_id!r}")
            index[img.image_id] = len(index)
            if img.gt.num_classes != k:
                raise FormatError(
                    f"image {img.image_id!r}: {img.gt.num_classes} classes, "
                    f"metadata declares {k}"
                )
            if img.annotations is not None and img.annotations.num_classes != k:
                raise FormatError(
                    f"image {img.image_id!r}: annotation tally has wrong width"
                )
            if not all(0 <= c < k for c in img.annotation_classes):
                raise FormatError(f"image {img.image_id!r}: unknown annotation class")
            if img.proposal is not None and not 0 <= img.proposal < k:
                raise FormatError(
                    f"image {img.image_id!r}: proposal index {img.proposal} "
                    f"out of range"
                )
        probs = np.array([img.gt.probs for img in images]).reshape(len(images), k)
        proposals = [-1 if img.proposal is None else img.proposal for img in images]
        rows = [i for i, img in enumerate(images) for _ in img.annotation_classes]
        classes = [c for img in images for c in img.annotation_classes]
        self._fill(meta, index, probs, proposals, rows, classes)
        for img, counts in zip(images, self.counts):
            if img.annotations is not None and (img.annotations.counts != counts).any():
                raise FormatError(
                    f"image {img.image_id!r}: annotation tally differs from its classes"
                )
        self._images = images

    def _fill(self, meta, index, probs, proposals, rows, classes) -> None:
        """Set the columns from the ``index`` of image ids to rows and the row
        and class of each annotation in file order.  With ``probs`` None the
        soft labels are the averaged annotations, and there are no proposals."""
        k, n = meta.num_classes, len(index)
        rows, classes = np.asarray(rows, np.int64), np.asarray(classes, np.int64)
        counts = np.bincount(rows * k + classes, minlength=n * k).reshape(n, k)
        if probs is None:
            probs = _validated_rows(counts / counts.sum(axis=1, keepdims=True))
            proposals = [-1] * n
        self.meta, self.ids, self._rows, self._images = meta, tuple(index), index, None
        self.probs, self.counts = _readonly(probs), _readonly(counts)
        self.proposals = _readonly(np.asarray(proposals, dtype=np.int64))
        self.classes = _readonly(classes[np.argsort(rows, kind="stable")])
        self.offsets = _readonly(np.concatenate(([0], np.cumsum(counts.sum(1)))))

    @property
    def num_classes(self) -> int:
        return self.meta.num_classes

    @property
    def images(self) -> tuple:
        """One :class:`ImageRecord` per image, built on first access."""
        if self._images is None:
            ends = zip(self.offsets.tolist(), self.offsets[1:].tolist())
            proposals = self.proposals.tolist()
            columns = zip(self.ids, self.probs, self.counts, ends, proposals)
            self._images = tuple(
                ImageRecord(
                    image_id,
                    LabelDistribution(probs),
                    AnnotationSet(counts, hi - lo) if hi > lo else None,
                    tuple(self.classes[lo:hi].tolist()),
                    None if proposal < 0 else proposal,
                )
                for image_id, probs, counts, (lo, hi), proposal in columns
            )
        return self._images

    def image(self, image_id: str) -> ImageRecord:
        if image_id not in self._rows:
            raise KeyError(f"unknown image_id {image_id!r}")
        return self.images[self._rows[image_id]]

    def gt_by_id(self) -> dict:
        return {img.image_id: img.gt for img in self.images}


class LogEntry(NamedTuple):
    """One proposal-guided annotation event (class indices)."""

    image_id: str
    proposal: int
    annotated: int


def _load_meta(path: Path) -> DatasetMeta:
    data = _read_json(path)
    unknown = set(data) - _META_KEYS
    if unknown:
        raise FormatError(f"{path}: unknown metadata keys {sorted(unknown)}")
    if "class_names" not in data:
        raise FormatError(f"{path}: missing required key 'class_names'")
    if not _is_names(data["class_names"]):
        raise FormatError(f"{path}: 'class_names' must be a list of strings")
    numbers = {key: data[key] for key in ("delta", "upper_bound", "mu") if key in data}
    for key, value in numbers.items():
        if not _is_number(value):
            raise FormatError(f"{path}: {key!r} must be a number")
    try:
        # float() overflows on an integer literal past the float range
        kwargs = {key: float(value) for key, value in numbers.items()}
        return DatasetMeta(tuple(data["class_names"]), **kwargs)
    except (ValueError, OverflowError) as e:
        raise FormatError(f"{path}: {e}") from e


def _class_index(path: Path, line: int, meta: DatasetMeta, name: str) -> int:
    index = meta._index.get(name.strip())
    if index is None:
        raise FormatError(f"{path}:{line}: unknown class name {name.strip()!r}")
    return index


# separators numpy's C float parser skips as white space but float() refuses
_C_ONLY_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f")


def _c_lines(f):
    """The lines of ``f``; ValueError at one numpy's C reader might read
    otherwise than csv.reader and float(): one holding a separator of
    ``_C_ONLY_SPACES``, or longer than csv's field size limit."""
    limit = csv.field_size_limit()
    for line in f:
        if len(line) > limit or any(c in line for c in _C_ONLY_SPACES):
            raise ValueError("a line the C reader may read otherwise")
        yield line


def _gt_columns(path: Path, meta: DatasetMeta):
    """:func:`_gt_rows` of gt.csv, its body parsed in one ``np.loadtxt`` call."""
    k = meta.num_classes
    with open(path, encoding="utf-8", newline="") as f:
        extra = _header(csv.reader(f), path, _gt_header(k), "proposal")
        lines = _c_lines(f)
        # loadtxt warns on a body without rows; csv.reader skips blank lines
        first = next((line for line in lines if line.strip("\r\n")), None)
        if first is None:
            return {}, np.empty((0, k)), []
        dtype = [("id", object), ("p", float, (k,))] + [("proposal", object)] * extra
        table = np.loadtxt(
            chain([first], lines),
            dtype=dtype,
            comments=None,
            delimiter=",",
            quotechar='"',
            ndmin=1,
        )
    ids = list(map(str.strip, table["id"].tolist()))
    index = dict(zip(ids, range(len(ids))))
    if len(index) < len(ids) or not all(ids):
        raise ValueError("an empty or repeated image_id")
    probs = _validated_rows(table["p"].copy())
    proposals = [-1] * len(ids)
    if extra:
        lookup = meta._index.__getitem__
        names = map(str.strip, table["proposal"].tolist())
        proposals = [lookup(name) if name else -1 for name in names]
    return index, probs, proposals


def _gt_rows(path: Path, meta: DatasetMeta):
    """Parse gt.csv row by row into the ``index`` of image ids to rows,
    ``probs[N, K]`` and ``proposals[N]``, -1 marking no proposal."""
    k = meta.num_classes
    index, probs, proposals = {}, [], []
    for line, image_id, row, extra in _table(path, _gt_header(k), "proposal"):
        if image_id in index:
            raise FormatError(f"{path}:{line}: duplicate image_id {image_id!r}")
        index[image_id] = len(index)
        try:
            values = np.array([[float(v) for v in row[1 : 1 + k]]])
        except ValueError as e:
            raise FormatError(f"{path}:{line}: {e}") from e
        try:
            probs.append(_validated_rows(values)[0])
        except ValueError as e:
            raise FormatError(
                f"{path}:{line}: non-normalizable soft label ({e})"
            ) from e
        name = row[-1].strip() if extra else ""
        proposals.append(_class_index(path, line, meta, name) if name else -1)
    return index, np.array(probs).reshape(len(probs), k), proposals


def _annotation_columns(path: Path, meta: DatasetMeta, index: dict):
    """:func:`_annotation_rows`, read in chunks of columns; ``index`` is
    extended only once the whole file has been read."""
    seen, rows, classes = dict(index), [], []
    lookup = meta._index.__getitem__
    for ids, annotators, names in _chunks(path, _ANNOTATIONS_HEADER):
        if min(map(int, annotators)) < 0:
            raise ValueError("a negative annotator_idx")
        classes += map(lookup, map(str.strip, names))
        rows += [seen.setdefault(i, len(seen)) for i in ids]
    index.update(seen)
    return rows, classes


def _annotation_rows(path: Path, meta: DatasetMeta, index: dict):
    """Parse annotations.csv into each annotation's image row and class
    index, in file order; ids missing from ``index`` are added to it."""
    rows, classes = [], []
    for line, image_id, row, _ in _table(path, _ANNOTATIONS_HEADER):
        try:
            idx = int(row[1])
        except ValueError as e:
            raise FormatError(f"{path}:{line}: {e}") from e
        if idx < 0:
            raise FormatError(f"{path}:{line}: negative annotator_idx")
        classes.append(_class_index(path, line, meta, row[2]))
        rows.append(index.setdefault(image_id, len(index)))
    return rows, classes


def load_dataset(path) -> Dataset:
    """Read and validate a dataset directory.

    Soft labels are taken from ``gt.csv`` when present, else averaged from
    ``annotations.csv``; at least one of the two must exist.
    """
    root = Path(path)
    if not os.path.isdir(root):
        raise FormatError(f"{root}: not a dataset directory")
    meta_path = root / META_NAME
    if not meta_path.exists():
        raise FormatError(f"{meta_path}: missing metadata file")
    meta = _load_meta(meta_path)

    gt_path = root / GT_NAME
    ann_path = root / ANNOTATIONS_NAME
    if not gt_path.exists() and not ann_path.exists():
        raise FormatError(f"{root}: need {GT_NAME} or {ANNOTATIONS_NAME}")
    # soft labels come from gt.csv when it exists, even with no rows
    index, probs, proposals = {}, None, None
    if gt_path.exists():
        index, probs, proposals = _bulk_or_rows(_gt_columns, _gt_rows, gt_path, meta)
    n = len(index)
    ann = ((), ())
    if ann_path.exists():
        ann = _bulk_or_rows(
            _annotation_columns, _annotation_rows, ann_path, meta, index
        )
    if probs is not None and len(index) > n:
        # ids past gt.csv's were added in annotations.csv order, so row n
        # is the first orphan in that file
        line = _line_of(ann_path, _ANNOTATIONS_HEADER, ann[0].index(n))
        orphan = next(islice(index, n, None))
        raise FormatError(f"{ann_path}:{line}: image_id {orphan!r} not present in {GT_NAME}")
    dataset = Dataset.__new__(Dataset)
    dataset._fill(meta, index, probs, proposals, *ann)
    return dataset


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset directory in canonical form."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    meta = dataset.meta
    _dump_json(asdict(meta), root / META_NAME)

    header = _gt_header(meta.num_classes)
    rows = ([i, *texts] for i, texts in zip(dataset.ids, _float_texts(dataset.probs)))
    if (dataset.proposals >= 0).any():
        header.append("proposal")
        names = ("" if p < 0 else meta.name_of(p) for p in dataset.proposals.tolist())
        rows = ([*row, name] for row, name in zip(rows, names))
    _write_table(root / GT_NAME, header, rows)

    if dataset.classes.size:
        # the image row of each annotation and its index within that image
        image = np.repeat(np.arange(len(dataset.ids)), np.diff(dataset.offsets))
        position = (np.arange(image.size) - dataset.offsets[image]).tolist()
        names = map(meta.name_of, dataset.classes.tolist())
        rows = zip(map(dataset.ids.__getitem__, image.tolist()), position, names)
        _write_table(root / ANNOTATIONS_NAME, _ANNOTATIONS_HEADER, rows)


def load_acceptance_log(path, meta: DatasetMeta):
    """Read an acceptance log into class-index entries, preserving order."""
    return _bulk_or_rows(_log_columns, _log_rows, Path(path), meta)


def _log_columns(path: Path, meta: DatasetMeta) -> list:
    """:func:`_log_rows`, read in chunks of columns."""
    lookup = meta._index.__getitem__
    entries = []
    for ids, *names in _chunks(path, _LOG_HEADER):
        entries += map(LogEntry, ids, *(map(lookup, map(str.strip, c)) for c in names))
    return entries


def _log_rows(path: Path, meta: DatasetMeta) -> list:
    return [
        LogEntry(
            image_id,
            _class_index(path, line, meta, row[1]),
            _class_index(path, line, meta, row[2]),
        )
        for line, image_id, row, _ in _table(path, _LOG_HEADER)
    ]


def save_acceptance_log(entries: Sequence[LogEntry], path, meta: DatasetMeta) -> None:
    name = meta.name_of
    rows = ((e.image_id, name(e.proposal), name(e.annotated)) for e in entries)
    _write_table(path, _LOG_HEADER, rows)


def acceptance_records_from_log(
    entries: Sequence[LogEntry], gt_by_id: Mapping[str, LabelDistribution]
) -> list:
    """Join log entries with their images' soft labels."""
    gts = _join(entries, gt_by_id)
    return [AcceptanceRecord(*e, gt) for e, gt in zip(entries, gts)]


def _join(entries: Sequence[LogEntry], by_id: Mapping, path=None) -> list:
    """``by_id`` at each log entry's image id.  An unknown id raises FormatError,
    naming its line of the log at ``path`` if one is given."""
    try:
        return [by_id[e.image_id] for e in entries]
    except KeyError:
        i = next(i for i, e in enumerate(entries) if e.image_id not in by_id)
    at = "" if path is None else f"{path}:{_line_of(Path(path), _LOG_HEADER, i)}: "
    image_id = entries[i].image_id
    raise FormatError(f"{at}acceptance log references unknown image_id {image_id!r}")


def _line_of(path: Path, header: list, i: int):
    """The line of row ``i`` of a table, found by reading it again; ``"?"``
    if the file no longer has that row."""
    return next(islice(_table(path, header), i, None), "?")[0]


def two_proposal_records_from_log(
    entries: Sequence[LogEntry], num_classes: int
) -> list:
    """Group log entries into two-round records, one per image.

    Every image must appear with exactly two distinct proposals; the
    round order follows first appearance in the log.
    """
    rounds = {}  # image id -> proposal -> annotated classes, in log order
    for e in entries:
        rounds.setdefault(e.image_id, {}).setdefault(e.proposal, []).append(e.annotated)
    records = []
    for image_id, by_proposal in rounds.items():
        if len(by_proposal) != 2:
            raise FormatError(
                f"image {image_id!r} has {len(by_proposal)} distinct proposals "
                f"in the log; the two-round protocol needs exactly 2"
            )
        (rho_a, a), (rho_b, b) = by_proposal.items()
        tallies = (AnnotationSet.tally(c, num_classes) for c in (a, b))
        records.append(TwoProposalRecord(image_id, rho_a, rho_b, *tallies))
    return records


@dataclass(frozen=True)
class TransitionMatrixFile:
    """A confusion matrix plus the verbatim numbers it was stored with.

    ``raw_rows`` preserves the file's literal values (published tables are
    rounded and may sum to 0.999); ``matrix`` is the validated,
    renormalized form used for computation.
    """

    raw_rows: tuple
    class_names: Optional[tuple] = None
    metadata: Mapping = field(default_factory=dict)
    matrix: TransitionMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in row) for row in self.raw_rows)
        object.__setattr__(self, "raw_rows", rows)
        if self.class_names is not None:
            names = tuple(str(n) for n in self.class_names)
            if len(names) != len(rows):
                raise FormatError(
                    f"{len(names)} class names for {len(rows)} matrix rows"
                )
            object.__setattr__(self, "class_names", names)
        object.__setattr__(self, "metadata", dict(self.metadata))
        matrix = TransitionMatrix.from_rows(np.asarray(rows), row_tol=MATRIX_ROW_TOL)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def from_matrix(
        cls, matrix: TransitionMatrix, class_names=None, metadata=None
    ) -> "TransitionMatrixFile":
        rows = tuple(tuple(float(v) for v in row) for row in matrix.rows)
        return cls(rows, class_names, metadata or {})


def load_transition_matrix(path) -> TransitionMatrixFile:
    p = Path(path)
    data = _read_json(p)
    unknown = set(data) - _MATRIX_KEYS
    if unknown:
        raise FormatError(f"{p}: unknown keys {sorted(unknown)}")
    if "rows" not in data:
        raise FormatError(f"{p}: missing required key 'rows'")
    rows = data["rows"]
    if (
        not isinstance(rows, list)
        or not rows
        or not all(isinstance(r, list) for r in rows)
        # json gives exact types, and a bool is not a number here
        or not {int, float}.issuperset(map(type, chain.from_iterable(rows)))
    ):
        raise FormatError(f"{p}: 'rows' must be a non-empty list of number lists")
    if any(len(r) != len(rows) for r in rows):
        raise FormatError(f"{p}: matrix must be square")
    names = data.get("class_names")
    if names is not None and not _is_names(names):
        raise FormatError(f"{p}: 'class_names' must be a list of strings")
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise FormatError(f"{p}: 'metadata' must be an object")
    try:
        return TransitionMatrixFile(rows, names, metadata)
    except (ValueError, OverflowError) as e:
        raise FormatError(f"{p}: {e}") from e


def save_transition_matrix(tm: TransitionMatrixFile, path) -> None:
    obj = {"rows": [list(row) for row in tm.raw_rows]}
    if tm.class_names is not None:
        obj["class_names"] = list(tm.class_names)
    if tm.metadata:
        obj["metadata"] = dict(tm.metadata)
    _dump_json(obj, path)


_FIXTURE_PACKAGE = "annobias.data.transitions"


def bundled_transition_names() -> list:
    """Names of the confusion-matrix fixtures shipped with the package."""
    entries = resources.files(_FIXTURE_PACKAGE).iterdir()
    return sorted(e.name[: -len(".json")] for e in entries if e.name.endswith(".json"))


def bundled_transition_matrix(name: str) -> TransitionMatrixFile:
    """Load a shipped confusion-matrix fixture by name."""
    entry = resources.files(_FIXTURE_PACKAGE) / f"{name}.json"
    if not entry.is_file():
        raise FormatError(
            f"no bundled transition matrix {name!r} "
            f"(available: {', '.join(bundled_transition_names())})"
        )
    with resources.as_file(entry) as p:
        return load_transition_matrix(p)
