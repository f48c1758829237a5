"""The bulk table readers against the row reader they fall back to.

``gt.csv`` is parsed by numpy's C reader, annotations and acceptance logs
in chunks of columns.  Where a bulk reader returns, the row reader must
return the same columns; the public loaders must return what the row
reader returns or raise FormatError with its text.  The inputs mix line
ends, blank and white-space lines, quoting, floats that only ``float()``
reads, header-only and empty files, and invalid UTF-8.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annobias import DatasetMeta
from annobias.harness import formats
from annobias.harness.formats import FormatError

# numpy warns on a table without rows; the bulk readers must not ask it to
pytestmark = pytest.mark.filterwarnings("error::UserWarning")

META = DatasetMeta(("a", "b"))

# (tokens both readers read alike, tokens one of them may refuse) per column
_IDS = (
    ["x", " y ", "é", '"a,b"', '"a""b"', '"c\nd"', '"e\r\nf"', '"x"y', 'x"y'],
    ["", '" "', '"q', "\x1cz"],
)
_FLOATS = (
    ["0.5", " 0.5", "\t0.5", "0.5\xa0", '"0.5"', "5e-1", "-0", "0.500000001"],
    ["0_5", "٠.5", "0.2", "inf", "1e999", "nan", "", "\x1c0.5", "0.5 x"],
)
_CLASSES = (["a", " b ", '"a"', ""], ["zz", "\x1cb", "a\xff"])
_INTS = (["0", " 1", "+2"], ["0_1", "٣", "-1", "x", ""])
_ENDS = ["\n", "\r\n", "\r"]
_EXTRA_LINES = ["", " ", "\t"]


def _numbered(token: str, i: int) -> str:
    """``token`` made distinct by the row number ``i``, its quoting kept."""
    return f'"{i}{token[1:]}' if token.startswith('"') else f"{i}{token}"


@st.composite
def _table(draw, header, columns, optional=None):
    """Bytes of a CSV table: ``header`` (or at times another), then rows
    drawn from the token lists of ``columns``, mixed with blank or
    white-space lines.  With an ``optional`` column, a gt.csv
    ``proposal``, ids are kept distinct."""
    extra = [optional] if optional and draw(st.booleans()) else []
    header += ",proposal" * bool(extra)
    if not draw(st.integers(0, 5)):
        header = draw(st.sampled_from([" " + header.replace(",", " ,"), "id,x"]))
    # half the columns have one odd token, drawn in about a third of rows
    odd = [
        draw(st.sampled_from(odd)) if draw(st.booleans()) else None
        for _, odd in columns + extra
    ]
    lines = [header]
    for i in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(_EXTRA_LINES)))
            continue
        fields = [
            token if token is not None and draw(st.integers(0, 2)) == 0
            else draw(st.sampled_from(plain))
            for (plain, _), token in zip(columns + extra, odd)
        ]
        if optional:  # distinct ids, but for a repeated one now and then
            repeat = len(lines) > 1 and draw(st.integers(0, 7)) == 0
            fields[0] = lines[-1].split(",")[0] if repeat else _numbered(fields[0], i)
        if draw(st.integers(0, 15)) == 0:
            fields = fields[:-1] if draw(st.booleans()) else fields + ["a"]
        lines.append(",".join(fields))
    ends = [draw(st.sampled_from(_ENDS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if not draw(st.integers(0, 4)):
        text = text[: len(text) - len(ends[-1])]  # no line end after the last
    # the one invalid UTF-8 token a class column may hold: a lone \xff byte
    data = text.encode("utf-8").replace("a\xff".encode("utf-8"), b"a\xff")
    fault = draw(st.sampled_from(["none"] * 8 + ["empty", "header only", "bad utf-8"]))
    if fault == "empty":
        return b""
    if fault == "header only":
        return (header + ends[0]).encode("utf-8")
    if fault == "bad utf-8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff" + data[at:]
    return data


_GT = _table("image_id,p_0,p_1", [_IDS, _FLOATS, _FLOATS], optional=_CLASSES)
_ANNOTATIONS = _table("image_id,annotator_idx,class", [_IDS, _INTS, _CLASSES])
_LOG = _table("image_id,proposal_class,annotated_class", [_IDS, _CLASSES, _CLASSES])


def _examples(header: str, *bodies: str):
    """Each body under ``header``, and the edge cases of every table."""
    cases = [(header + "\n" + body).encode("utf-8") for body in bodies]
    cases += [b"", header.encode() + b"\r\n", header.encode() + b"\nx\xff,a,b\n"]

    def add(test):
        for case in cases:
            test = example(case)(test)
        return test

    return add


def _outcome(read, *args):
    try:
        return read(*args)
    except FormatError as e:
        return str(e)


def _bulk(read, *args):
    """What ``read`` returns, or None where it refuses the file."""
    try:
        return read(*args)
    except formats._REFUSED:
        return None


def _gt_form(result):
    if isinstance(result, str):
        return result
    index, probs, proposals = result
    return list(index.items()), probs.shape, probs.tobytes(), list(proposals)


def _check(bulk, want, same):
    """A bulk result, where there is one, is the row reader's."""
    if bulk is not None:
        assert not isinstance(want, str), want
        assert same(bulk) == same(want)


@settings(max_examples=400, deadline=None)
@given(_GT)
@_examples(
    "image_id,p_0,p_1",
    "x,0.5,0.5\r\n\r\ny,1,0\rz,0,1",
    " y ,0.5,0.5\n",
    "x,0.5,0.5\n\t\n",
    'x,0.5,0.5\n"x",1,0\n',
    '"a,b",\t0.5,0.5\xa0\n"c\nd",1,0\n"e""f"g,"0.5",0.5\n',
    "x,\x1c0.5,0.5\n",
    "x,0_5,0.5\ny,٠.5,0.5\n",
    "x,inf,0\ny,1e999,0\n",
    "x,0.5" + " " * 2**17 + ",0.5\n",  # a field past csv's size limit
)
def test_gt_columns_match_the_row_reader(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gt.csv"
        path.write_bytes(data)
        want = _outcome(formats._gt_rows, path, META)
        read = formats._gt_columns, formats._gt_rows, path, META
        got = _outcome(formats._bulk_or_rows, *read)
        assert _gt_form(got) == _gt_form(want)
        _check(_bulk(formats._gt_columns, path, META), want, _gt_form)


@settings(max_examples=400, deadline=None)
@given(_ANNOTATIONS)
@_examples(
    "image_id,annotator_idx,class",
    'x,0,a\r\n\r"y\n,z",1, b \ry,٣,"b"',
    "x,0_1,a\n",
    "x,0,a\n \n",
    "y,-1,a\n",
    "y,0,a\n,1,b\n",
)
def test_annotation_columns_match_the_row_reader(data):
    def read(read, path):
        index = {"x": 0, "é": 1}
        result = read(path, META, index)
        return result if isinstance(result, str) else (*result, list(index.items()))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "annotations.csv"
        path.write_bytes(data)
        want = _outcome(read, formats._annotation_rows, path)
        both = lambda *args: formats._bulk_or_rows(
            formats._annotation_columns, formats._annotation_rows, *args
        )
        assert _outcome(read, both, path) == want
        index = {"x": 0, "é": 1}
        bulk = _bulk(formats._annotation_columns, path, META, index)
        if bulk is None:
            assert index == {"x": 0, "é": 1}  # a refused file leaves it as it was
        _check(None if bulk is None else (*bulk, list(index.items())), want, tuple)


@settings(max_examples=400, deadline=None)
@given(_LOG)
@_examples(
    "image_id,proposal_class,annotated_class",
    'x,a,b\r\n\r\n"x""y",\t"a", b \r',
    "x,a,zz\n",
    "x,a,b\n\t\n",
)
def test_log_columns_match_the_row_reader(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "acceptance_log.csv"
        path.write_bytes(data)
        want = _outcome(formats._log_rows, path, META)
        assert _outcome(formats.load_acceptance_log, path, META) == want
        _check(_bulk(formats._log_columns, path, META), want, list)


def test_plain_tables_take_the_bulk_readers(tmp_path):
    gt, ann, log = (tmp_path / name for name in ("gt.csv", "ann.csv", "log.csv"))
    gt.write_text('image_id,p_0,p_1,proposal\nx,0.5,0.5,a\r\n\n"y,1",1,0,\n')
    ann.write_text("image_id,annotator_idx,class\nx,0,a\n\nz,1,b\n")
    log.write_text("image_id,proposal_class,annotated_class\nx,a,b\n")
    index, probs, proposals = formats._gt_columns(gt, META)
    assert index == {"x": 0, "y,1": 1} and probs.tolist() == [[0.5, 0.5], [1, 0]]
    assert proposals == [0, -1]
    assert formats._annotation_columns(ann, META, index) == ([0, 2], [0, 1])
    assert index == {"x": 0, "y,1": 1, "z": 2}
    assert formats._log_columns(log, META) == [formats.LogEntry("x", 0, 1)]


@pytest.mark.parametrize("body", ["", "\n\r\n\r"])
def test_a_gt_body_without_rows_reads_as_no_images(tmp_path, body):
    (tmp_path / "meta.json").write_text('{"class_names": ["a", "b"]}')
    (tmp_path / "gt.csv").write_text("image_id,p_0,p_1" + "\n" + body, newline="")
    index, probs, proposals = formats._gt_columns(tmp_path / "gt.csv", META)
    assert index == {} and probs.shape == (0, 2) and proposals == []
    assert formats.load_dataset(tmp_path).ids == ()
