"""The corpus archive, a directory of vocabulary.tsv, documents.txt and
stats.json written from a Corpus and read back into its token arrays, and
a run's assignments.csv.

Each of vocabulary.tsv, documents.txt and assignments.csv has two readers.
The compiled kernel scans the file's bytes once (Kernel.vocabulary,
Kernel.pairs, Kernel.assignments), parsing its numbers with no Python
object per pair or per line. A line loop is the reference: it reads the
file where the kernel cannot be built or a value has more than 18 digits,
and it names the first bad line of a file the compiled path refuses. The
files are UTF-8; a byte that is not names the file and its line.
Kernel.lines writes documents.txt and assignments.csv, or where it cannot
be built one plain loop that writes the same bytes.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import _native
from .corpus import Corpus, TokenCSR, Vocabulary, _not_rising, _repeated_row
from .errors import ConfigError, GsdmmError, MalformedRecord
from .model import check_token_total

__all__ = ["MISSING_LABEL", "check_comma_free", "line_naming", "read_archive",
           "read_assignments", "read_json_object", "write_archive", "write_assignments"]

MISSING_LABEL = "-"


def write_archive(corpus: Corpus, outdir: str | Path) -> None:
    """Write the corpus as an archive: vocabulary.tsv, documents.txt with
    each document's pairs in rising word id order, and stats.json.

    The lines are formatted from the corpus arrays. A doc id or label
    holding whitespace (any character str.isspace accepts), which would
    break the line and column structure of documents.txt, a doc id
    holding a comma, which would break the assignments.csv of every run,
    or a vocabulary word holding a tab or a line break, which would break
    vocabulary.tsv's, raises ConfigError before any file is written.
    """
    fields = [""] * (2 * len(corpus) + 1)  # doc_id<TAB>label<TAB> per line
    fields[0:-1:2] = corpus.doc_ids
    fields[1:-1:2] = [MISSING_LABEL if label is None else label
                      for label in corpus.gold_labels]
    _refuse(_WHITESPACE, fields, "doc id or label {!r} contains whitespace; "
            "archives need whitespace-free fields")
    check_comma_free(fields[0:-1:2])
    vocab = corpus.vocabulary
    _refuse(_BREAKS, vocab.id_to_word, "vocabulary word {!r} contains a tab or a "
            "line break; vocabulary.tsv needs one word per line")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "vocabulary.tsv").write_text("".join(map(
        "{}\t{}\t{}\n".format, range(vocab.size), vocab.id_to_word,
        vocab.doc_freq)), encoding="utf-8")
    csr = corpus.token_csr
    words, counts = csr.words, csr.counts
    if _not_rising(words, csr.word_ptr).any():
        # a Corpus built from Documents holds each one's dict order
        order = np.lexsort((words, csr.entry_doc))
        words, counts = words[order], counts[order]
    (out / "documents.txt").write_bytes(_line_bytes(
        "\t".join(fields), "\t", 2, csr.word_ptr, np.column_stack((words, counts))))
    stats = {**asdict(corpus.stats), "dropped_doc_ids": list(corpus.dropped_doc_ids)}
    (out / "stats.json").write_text(
        json.dumps(stats, sort_keys=True, indent=2) + "\n", encoding="utf-8")


_WHITESPACE = re.compile(r"\s")  # exactly the characters str.isspace accepts
# what read_archive takes as a column or line end: a tab, and the line ends
# of text mode
_BREAKS = re.compile("[\t\n\r]")


def _refuse(pattern: re.Pattern, values, message: str) -> None:
    """Raise ConfigError with message naming the first value that holds a
    match of a one-character pattern."""
    if pattern.search("".join(values)):
        raise ConfigError(message.format(next(filter(pattern.search, values))))


def check_comma_free(doc_ids) -> None:
    """Raise ConfigError naming the first doc id that holds a comma, which
    the doc_id,cluster lines of a run's assignments.csv cannot hold."""
    _refuse(re.compile(","), doc_ids,
            "doc id {!r} contains a comma; assignments.csv needs comma-free doc ids")


def _line_bytes(prefix: str, sep: str, per_line: int, ptr,
                items) -> bytes | bytearray:
    """Kernel.lines on the text prefix, or where the kernel cannot be built
    one plain loop that writes the same bytes."""
    kernel = _native.kernel()
    if kernel is not None:
        return kernel.lines(prefix.encode("utf-8"), sep, per_line, ptr, items)
    rows = list(map(":".join(["{}"] * items.shape[1]).format, *items.T.tolist()))
    p = ptr.tolist()
    return "".join([f"{head}{' '.join(rows[a:b])}\n" for head, a, b in zip(
        re.findall(f"(?:[^{sep}]*{sep}){{{per_line}}}", prefix), p, p[1:])]
    ).encode("utf-8")


def write_assignments(path: Path, doc_ids, assignments: np.ndarray) -> None:
    """Write a run's assignments.csv, doc ids comma-free (check_comma_free)."""
    path.write_bytes(b"doc_id,cluster\n" + _line_bytes(
        ",".join([*doc_ids, ""]), ",", 1, np.arange(len(doc_ids) + 1),
        assignments.reshape(-1, 1)))


def read_archive(indir: str | Path) -> Corpus:
    """The corpus of an archive written by write_archive.

    A line of documents.txt is doc_id<TAB>label<TAB>pairs, each pair
    word_id:count in ASCII digits, pairs separated by spaces (or other
    ASCII whitespace but tabs). Any other pair, a repeated doc id, an empty
    document, a word id repeated within a document or outside [0, V), a
    count below 1, or a stats.json that is no JSON object, gives D or V
    other than the files or dropped_doc_ids other than a list of strings
    raises MalformedRecord naming the first bad line (the rest of
    stats.json is derived, not read), as does a byte that is not UTF-8. A
    count beyond int32, the dtype of the counts array, raises ConfigError
    once the file is known to be valid (see model.check_token_total).
    """
    src = Path(indir)
    for name in ("vocabulary.tsv", "documents.txt", "stats.json"):
        if not (src / name).exists():
            raise FileNotFoundError(src / name)
    id_to_word, doc_freq = _read_vocabulary(src / "vocabulary.tsv")
    v = len(id_to_word)
    doc_ids, labels, csr = _read_documents(src / "documents.txt", v)
    stats, text = read_json_object(src / "stats.json")
    for key, actual in (("D", len(doc_ids)), ("V", v)):
        # a float or a boolean equal to the count is no count
        if type(stats.get(key)) is not int or stats[key] != actual:
            raise MalformedRecord(
                f"stats.json gives {key}={stats.get(key)}, the archive has {actual}",
                line_naming(text, key))
    dropped = stats.get("dropped_doc_ids", [])
    if not (isinstance(dropped, list) and all(isinstance(x, str) for x in dropped)):
        raise MalformedRecord(f"stats.json gives dropped_doc_ids={dropped!r:.40}, not "
                              "a list of strings", line_naming(text, "dropped_doc_ids"))
    return Corpus.from_arrays(
        csr, doc_ids, [None if label == MISSING_LABEL else label for label in labels],
        Vocabulary(tuple(id_to_word), tuple(doc_freq)), dropped)


def read_json_object(path: Path) -> tuple[dict, str]:
    """The JSON object a file holds, and its text; anything else raises
    MalformedRecord naming the file."""
    text = _decode(path)
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int too long to read
        raise MalformedRecord(f"{path.name} is not valid JSON "
                              f"({getattr(exc, 'msg', exc)})",
                              getattr(exc, "lineno", 1)) from None
    if not isinstance(obj, dict):
        raise MalformedRecord(
            f"{path.name} holds a JSON {type(obj).__name__}, not an object", 1)
    return obj, text


def line_naming(text: str, key: str) -> int:
    """The number of the first line of a JSON text that names key, or 1."""
    return next((i for i, row in enumerate(text.splitlines(), start=1)
                 if f'"{key}"' in row), 1)


def _decode(path: Path) -> str:
    """A UTF-8 file's text as text mode reads it: CRLF and CR line ends read
    as LF. A byte that is not UTF-8 raises MalformedRecord naming the file
    and the line of the first such byte."""
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise MalformedRecord(f"{path.name} is not UTF-8 (byte "
                              f"0x{raw[exc.start]:02x})", line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_text(path: Path) -> str:
    """A UTF-8 text file's text (see _decode) with every line ended by a
    newline."""
    text = _decode(path)
    return text + "\n" if text and not text.endswith("\n") else text


def _fields(text: str, n: int, sep: str = "\t") -> list[list[str]]:
    """The n sep-separated columns of the lines of text, as n lists, for a
    text whose every line has n columns."""
    fields = text.replace("\n", sep).split(sep)
    fields.pop()  # after the last line end
    return [fields[i::n] for i in range(n)]


_BY_LOOP = object()  # what _scan returns for a file the line loop reads


def _scan(text: str, scan):
    """What a compiled scan (Kernel.vocabulary, Kernel.pairs or
    Kernel.assignments) makes of a file's text: its arrays, or None if it
    refuses the file. _BY_LOOP where the kernel cannot be built or the file
    holds a value of more than 18 digits, which the line loop reads."""
    kernel = _native.kernel()
    if kernel is None:
        return _BY_LOOP
    try:
        return scan(kernel, text.encode("utf-8"))
    except OverflowError:  # a value of more than 18 digits
        return _BY_LOOP


def _read_vocabulary(path: Path) -> tuple[list[str], list[int]]:
    """Words by id and their document frequencies; ids must run 0, 1, ...
    in line order. Ids and document frequencies are ASCII digits."""
    text = _read_text(path)
    doc_freq = _scan(text, _native.Kernel.vocabulary)
    if doc_freq is _BY_LOOP:
        return _vocabulary_loop(text)
    if doc_freq is None:  # the loop names the first bad line
        _vocabulary_loop(text)
        raise AssertionError("the compiled path refused a valid vocabulary.tsv")
    return _fields(text, 3)[1], doc_freq.tolist()


def _vocabulary_loop(text: str) -> tuple[list[str], list[int]]:
    """The words and document frequencies of a vocabulary.tsv, line by
    line, or the MalformedRecord of its first bad line. A line is checked
    for, in order: columns, id digits, id order, df digits. Ids are
    compared exactly, at any length."""
    words, doc_freq = [], []
    for index, line in enumerate(text.split("\n")[:-1]):
        cols = line.split("\t")
        if len(cols) != 3:
            raise MalformedRecord("expected id<TAB>word<TAB>df", index + 1)
        ident, word, df = cols
        if not (ident.isascii() and ident.isdigit()):
            raise MalformedRecord(f"expected an ASCII-digit id, got {ident!r}", index + 1)
        if _digits(ident) != str(index):
            raise MalformedRecord("vocabulary ids out of order", index + 1)
        if not (df.isascii() and df.isdigit()):
            raise MalformedRecord(f"expected an ASCII-digit df, got {df!r}", index + 1)
        words.append(word)
        doc_freq.append(df)
    return words, _values(doc_freq)


_INT64_MAX = int(np.iinfo(np.int64).max)
_INT32_MAX = int(np.iinfo(np.int32).max)
# the ASCII whitespace str.split() splits on, less the tab and the line end
# that delimit the column: what separates two pairs
_SEPARATORS = " \x0b\x0c\x1c\x1d\x1e\x1f"
_PAIR = re.compile("[0-9]+:[0-9]+")
_PAIRS = re.compile(f"[{_SEPARATORS}]*(?:[0-9]+:[0-9]+(?:[{_SEPARATORS}]+|$))*")
_SPLIT = re.compile(f"[{_SEPARATORS}]+")


def _read_documents(path: Path, v: int):
    """(doc ids, labels, TokenCSR) of documents.txt, in file order."""
    text = _read_text(path)
    pairs = _scan(text, _native.Kernel.pairs)
    if pairs is _BY_LOOP:
        parsed = _documents_loop(text, v)
    else:
        parsed = None if pairs is None else _checked(text, pairs, v)
        if parsed is None:  # the loop names the first bad line
            _documents_loop(text, v)
            raise AssertionError("the compiled path refused a valid documents.txt")
    doc_ids, labels, words, counts, word_ptr = parsed
    if len(counts) and counts.max() > _INT32_MAX:
        # past the int32 counts array; the total names the excess
        check_token_total(sum(counts.tolist()))
    csr = TokenCSR(word_ptr, words.astype(np.intp, copy=False),
                   counts.astype(np.int32))
    return doc_ids, labels, csr


def _checked(text: str, pairs, v: int):
    """(doc ids, labels, word ids, counts, word_ptr) of a documents.txt whose
    pairs Kernel.pairs read, or None if a line is bad in a way the scan
    does not check: a repeated doc id, an empty document, a repeated word
    id, a word id outside [0, V) or a count below 1."""
    doc_ids, labels, _ = _fields(text, 3)
    words, counts, word_ptr = pairs
    if len(set(doc_ids)) < len(doc_ids) or (word_ptr[1:] == word_ptr[:-1]).any() \
            or _repeated_row(words, word_ptr) >= 0 or (words >= v).any() \
            or (counts < 1).any():
        return None
    return doc_ids, labels, words, counts, word_ptr


def _documents_loop(text: str, v: int):
    """(doc ids, labels, word ids, counts, word_ptr) of a documents.txt, line
    by line, with the dtypes Kernel.pairs gives, or the MalformedRecord of
    its first bad line. A line is checked for, in order: columns, doc id,
    pair syntax, empty document, repeated word id, word id range, count. Ids
    are compared exactly, at any length."""
    doc_ids, labels, words, counts, word_ptr = [], [], [], [], [0]
    seen: set[str] = set()
    for lineno, line in enumerate(text.split("\n")[:-1], start=1):
        cols = line.split("\t")
        if len(cols) != 3:
            raise MalformedRecord("expected doc_id<TAB>label<TAB>counts", lineno)
        doc_id, label, blob = cols
        if doc_id in seen:
            raise MalformedRecord(f"duplicate doc id {doc_id!r}", lineno)
        seen.add(doc_id)
        if not _PAIRS.fullmatch(blob):
            pair = next(pair for pair in _SPLIT.split(blob)
                        if pair and not _PAIR.fullmatch(pair))
            raise MalformedRecord(
                f"expected word_id:count in ASCII digits, got {pair!r}", lineno)
        values = blob.replace(":", " ").split()
        if not values:
            raise MalformedRecord("empty document in archive", lineno)
        numbers = _values(values)
        line_words, line_counts = numbers[0::2], numbers[1::2]
        # capping only merges ids, all of them outside: the digits decide
        if len(set(line_words)) < len(line_words) \
                and len(set(map(_digits, values[0::2]))) < len(line_words):
            raise MalformedRecord("repeated word id in document", lineno)
        if max(line_words) >= v:
            top = max(map(_digits, values[0::2]), key=lambda digits: (len(digits), digits))
            # an id of over 40 digits is named by its first digits and length
            shown = top if len(top) <= 40 else f"{top[:20]}... ({len(top)} digits)"
            raise MalformedRecord(f"word id {shown} outside [0, {v})", lineno)
        if 0 in line_counts:
            raise MalformedRecord("count 0 < 1", lineno)
        doc_ids.append(doc_id)
        labels.append(label)
        words += line_words
        counts += line_counts
        word_ptr.append(len(words))
    return (doc_ids, labels, *(np.array(column, dtype=np.int64)
                               for column in (words, counts, word_ptr)))


def read_assignments(path: str | Path) -> list[tuple[str, int]]:
    """The (doc_id, cluster) rows of a run's assignments.csv after its
    header, blank lines skipped; a file without rows is a GsdmmError."""
    header, _, body = _read_text(Path(path)).partition("\n")
    if header != "doc_id,cluster":
        raise MalformedRecord("expected header 'doc_id,cluster'", 1)
    clusters = _scan(body, _native.Kernel.assignments)
    ids = _fields(body, 2, ",")[0]
    if clusters is None or clusters is _BY_LOOP or len(set(ids)) < len(ids):
        rows = _assignments_loop(body)  # its rows, or its first bad line
    else:
        rows = list(zip(ids, clusters.tolist()))
    if not rows:
        raise GsdmmError(f"{path} holds no assignments")
    return rows


def _assignments_loop(body: str) -> list[tuple[str, int]]:
    """The rows of the lines of an assignments.csv after its header, line
    by line, or the MalformedRecord of its first bad line: one without two
    columns, a cluster id other than ASCII digits (a negative one too) or
    past int64, a repeated doc id."""
    rows, seen = [], set()
    for lineno, line in enumerate(body.split("\n")[:-1], start=2):
        if not line.strip():
            continue
        cols = line.split(",")
        if len(cols) != 2:
            raise MalformedRecord("expected doc_id,cluster", lineno)
        doc_id, z = cols
        if not (z.isascii() and z.isdigit()):
            if z[:1] == "-" and z[1:].isascii() and z[1:].isdigit():
                raise MalformedRecord(f"negative cluster id {z}", lineno)
            raise MalformedRecord(
                f"expected a cluster id in ASCII digits, got {z!r}", lineno)
        digits = _digits(z)
        if len(digits) > 19 or int(digits) > _INT64_MAX:
            raise MalformedRecord(
                f"cluster id of {len(digits)} digits is past int64", lineno)
        if doc_id in seen:
            raise MalformedRecord(f"duplicate doc id {doc_id!r}", lineno)
        seen.add(doc_id)
        rows.append((doc_id, int(digits)))
    return rows


def _values(digits: list[str]) -> list[int]:
    """The values of ASCII digit strings, each past int64 read as int64
    max."""
    if max(map(len, digits), default=0) <= 18:  # every 18 digits fit int64
        return list(map(int, digits))
    return list(map(_capped, digits))


def _capped(digits: str) -> int:
    """The value of an ASCII digit string, or int64 max if it is larger. At
    most 19 digits are converted, so a string of any length reads."""
    digits = _digits(digits)
    return min(int(digits), _INT64_MAX) if len(digits) <= 19 else _INT64_MAX


def _digits(digits: str) -> str:
    """An ASCII digit string without its leading zeros: equal strings for
    equal values, at any length."""
    return digits.lstrip("0") or "0"
