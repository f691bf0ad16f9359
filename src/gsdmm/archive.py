"""The corpus archive: a directory of vocabulary.tsv, documents.txt and
stats.json, written from a Corpus and read back into its token arrays.

read_archive parses each file in whole-file passes: the lines are split
into their columns once, and the word_id:count pairs of all lines are
checked and converted together from their bytes, with no Python object
per pair or per document. The compiled kernel scans documents.txt and the
vocabulary's number columns in one C pass each (Kernel.pairs,
Kernel.digits); the numpy passes are their reference, and read the file
where the kernel cannot be built or a value has more than 18 digits. The
passes only decide whether a file is valid. When one is not, a plain loop
over the lines already read finds the first bad line and raises its
error, checking each line in the order a line-by-line reader would.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import _native
from .corpus import Corpus, TokenCSR, Vocabulary, _not_rising, _repeated_row
from .errors import ConfigError, MalformedRecord
from .model import check_token_total

__all__ = ["MISSING_LABEL", "check_comma_free", "line_naming", "read_archive",
           "read_json_object", "write_archive"]

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
    doc_ids = corpus.doc_ids
    labels = [MISSING_LABEL if label is None else label
              for label in corpus.gold_labels]
    _check_fields(doc_ids, labels)
    vocab = corpus.vocabulary
    _check_words(vocab.id_to_word)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "vocabulary.tsv", "w", encoding="utf-8") as fh:
        fh.write("".join(map("{}\t{}\t{}\n".format, range(vocab.size),
                             vocab.id_to_word, vocab.doc_freq)))
    with open(out / "documents.txt", "w", encoding="utf-8") as fh:
        fh.write("".join(_document_lines(corpus.token_csr, doc_ids, labels)))
    stats = {**asdict(corpus.stats), "dropped_doc_ids": list(corpus.dropped_doc_ids)}
    with open(out / "stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, sort_keys=True, indent=2)
        fh.write("\n")


_WHITESPACE = re.compile(r"\s")  # exactly the characters str.isspace accepts


def _check_fields(doc_ids, labels) -> None:
    """Raise ConfigError naming the first doc id or label, in document
    order, that holds whitespace, then the first doc id with a comma."""
    if _WHITESPACE.search("".join(doc_ids) + "".join(labels)):
        for doc_id, label in zip(doc_ids, labels):
            for value in (doc_id, label):
                if _WHITESPACE.search(value):
                    raise ConfigError(
                        f"doc id or label {value!r} contains whitespace; "
                        "archives need whitespace-free fields"
                    )
    check_comma_free(doc_ids)


# what read_archive takes as a column or line end: a tab, and the line ends
# of text mode
_BREAKS = re.compile("[\t\n\r]")


def _check_words(words) -> None:
    """Raise ConfigError naming the first vocabulary word that holds a tab,
    a line feed or a carriage return."""
    if _BREAKS.search("".join(words)):
        word = next(word for word in words if _BREAKS.search(word))
        raise ConfigError(f"vocabulary word {word!r} contains a tab or a line "
                          "break; vocabulary.tsv needs one word per line")


def check_comma_free(doc_ids) -> None:
    """Raise ConfigError naming the first doc id that holds a comma, which
    the doc_id,cluster lines of a run's assignments.csv cannot hold."""
    with_comma = [doc_id for doc_id in doc_ids if "," in doc_id]
    if with_comma:
        raise ConfigError(f"doc id {with_comma[0]!r} contains a comma; "
                          "assignments.csv needs comma-free doc ids")


def _document_lines(csr: TokenCSR, doc_ids, labels) -> list[str]:
    """The lines of documents.txt: doc_id<TAB>label<TAB>pairs, each pair
    word_id:count, in rising word id order. The pair strings come from
    tables of the id and count strings in use."""
    words, counts = csr.words, csr.counts
    if _not_rising(words, csr.word_ptr).any():
        # a Corpus built from Documents holds each one's dict order
        order = np.lexsort((words, csr.entry_doc))
        words, counts = words[order], counts[order]
    id_text = np.array([f"{w}:" for w in range(int(words.max(initial=-1)) + 1)],
                       dtype=object)
    distinct, count_index = np.unique(counts, return_inverse=True)
    count_text = np.array(list(map(str, distinct.tolist())), dtype=object)
    pairs = (id_text[words] + count_text[count_index]).tolist()
    wp = csr.word_ptr.tolist()
    return [f"{doc_id}\t{label}\t{' '.join(pairs[a:b])}\n"
            for doc_id, label, a, b in zip(doc_ids, labels, wp, wp[1:])]


def read_archive(indir: str | Path) -> Corpus:
    """The corpus of an archive written by write_archive.

    A line of documents.txt is doc_id<TAB>label<TAB>pairs, each pair
    word_id:count in ASCII digits, pairs separated by spaces (or other
    ASCII whitespace but tabs). Any other pair, a repeated doc id, an empty
    document, a word id repeated within a document or outside [0, V), a
    count below 1, or a stats.json that is no JSON object, gives D or V
    other than the files or dropped_doc_ids other than a list of strings
    raises MalformedRecord naming the first bad line (the rest of
    stats.json is derived, not read). Whole-array passes only accept or
    refuse each file; a refused file is read again line by line. A count
    beyond int32, the dtype of the counts array, raises ConfigError once
    the file is known to be valid (see model.check_token_total).
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
    text = path.read_text(encoding="utf-8")
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


def _read_text(path: Path) -> str:
    """A text file's text with every line ended by a newline. The file is
    read in text mode, so CRLF and CR line ends read as LF."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return text + "\n" if text and not text.endswith("\n") else text


def _has_columns(text: str, n: int) -> bool:
    """Whether every line of text has n tab-separated columns."""
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    # counted per line: a line with a tab too many and a later one with a
    # tab too few would balance out in the file's total
    tabs = np.diff(np.searchsorted(np.flatnonzero(raw == ord("\t")),
                                   np.flatnonzero(raw == ord("\n"))), prepend=0)
    return not (tabs != n - 1).any()


def _fields(text: str, n: int) -> list[list[str]]:
    """The n tab-separated columns of the lines of text, as n lists, for a
    text whose every line has n columns."""
    fields = text.replace("\n", "\t").split("\t")
    fields.pop()  # after the last line end
    return [fields[i::n] for i in range(n)]


def _digit_column(values: list[str]) -> np.ndarray | None:
    """int64 values of a column of ASCII-digit numbers, or None if a value
    is not one or more ASCII digits. A value past int64 reads as int64
    max. Parsed in C (Kernel.digits) when the kernel builds; otherwise, or
    for a value of more than 18 digits, in one whole-array numpy pass."""
    raw = ("\n".join(values) + "\n" if values else "").encode("utf-8")
    kernel = _native.kernel()
    if kernel is not None:
        try:
            return kernel.digits(raw)
        except OverflowError:
            pass  # read by the numpy pass, which caps it
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    # the line ends are the only bytes other than digits, and no value is empty
    if np.count_nonzero(_CLASS[buf] != _DIGIT) > len(ends) or (starts == ends).any():
        return None
    return _digit_values(buf, starts, ends)


def _read_vocabulary(path: Path) -> tuple[list[str], list[int]]:
    """Words by id and their document frequencies; ids must run 0, 1, ...
    in line order. Ids and document frequencies are ASCII digits."""
    text = _read_text(path)
    if _has_columns(text, 3):
        ids, words, dfs = _fields(text, 3)
        ids, doc_freq = _digit_column(ids), _digit_column(dfs)
        if ids is not None and doc_freq is not None \
                and (ids == np.arange(len(ids))).all():
            return words, doc_freq.tolist()
    _vocabulary_error(text)


def _vocabulary_error(text: str) -> NoReturn:
    """Raise the MalformedRecord of the first bad line of a vocabulary.tsv
    the array pass refused. A line is checked for, in order: columns, id
    digits, id order, df digits."""
    for lineno, line in enumerate(text.split("\n")[:-1], start=1):
        cols = line.split("\t")
        if len(cols) != 3:
            raise MalformedRecord("expected id<TAB>word<TAB>df", lineno)
        if not (cols[0].isascii() and cols[0].isdigit()):
            raise MalformedRecord(f"expected an ASCII-digit id, got {cols[0]!r}", lineno)
        if _capped(cols[0]) != lineno - 1:
            raise MalformedRecord("vocabulary ids out of order", lineno)
        if not (cols[2].isascii() and cols[2].isdigit()):
            raise MalformedRecord(f"expected an ASCII-digit df, got {cols[2]!r}", lineno)
    raise AssertionError("the array pass refused a valid vocabulary.tsv")


# byte classes of the pairs column; any byte outside them (a sign, an
# underscore, a non-ASCII digit) makes its pair unparseable
_BAD, _DIGIT, _COLON, _SPACE, _NEWLINE = range(5)
_CLASS = np.zeros(256, dtype=np.uint8)
_CLASS[np.frombuffer(b"0123456789", dtype=np.uint8)] = _DIGIT
_CLASS[ord(":")] = _COLON
# the ASCII whitespace str.split() splits on, less the tab and the line
# end that delimit the column
_SEPARATORS = " \x0b\x0c\x1c\x1d\x1e\x1f"
_CLASS[np.frombuffer(_SEPARATORS.encode("ascii"), dtype=np.uint8)] = _SPACE
_CLASS[ord("\n")] = _NEWLINE
_DIGIT_VALUE = np.zeros(256, dtype=np.int64)
_DIGIT_VALUE[np.frombuffer(b"0123456789", dtype=np.uint8)] = np.arange(10)
_MAX_DIGITS = 18  # every number of 18 digits fits int64
_INT64_MAX = int(np.iinfo(np.int64).max)
_INT32_MAX = int(np.iinfo(np.int32).max)
# the same classes for the line loop over documents.txt
_PAIR = re.compile("[0-9]+:[0-9]+")
_SPLIT = re.compile(f"[{_SEPARATORS}]+")


def _read_documents(path: Path, v: int):
    """(doc ids, labels, TokenCSR) of documents.txt, in file order."""
    text = _read_text(path)
    parsed = _parse_documents(text, v)
    if parsed is None:
        _documents_error(text, v)
    doc_ids, labels, words, counts, word_ptr = parsed
    if len(counts) and counts.max() > _INT32_MAX:
        # past the int32 counts array; the total names the excess
        check_token_total(sum(counts.tolist()))
    csr = TokenCSR(word_ptr, words.astype(np.intp, copy=False),
                   counts.astype(np.int32))
    return doc_ids, labels, csr


def _parse_documents(text: str, v: int):
    """The whole-array pass over documents.txt: (doc ids, labels, word ids,
    counts, word_ptr) as read, or None if a line is bad in any way
    _documents_error checks."""
    doc_ids, labels, blobs = _fields(text, 3)
    pairs = _pairs(text, blobs)
    if pairs is None or len(set(doc_ids)) < len(doc_ids):
        return None
    words, counts, word_ptr = pairs
    # ids past int64, read as int64 max, may look repeated, but they are
    # outside [0, V) anyway
    if (word_ptr[1:] == word_ptr[:-1]).any() or _repeated_row(words, word_ptr) >= 0 \
            or (words >= v).any() or (counts < 1).any():
        return None
    return doc_ids, labels, words, counts, word_ptr


def _pairs(text: str, blobs: list[str]):
    """(word ids, counts, word_ptr) of the pairs columns, blobs, of the
    lines of documents.txt, text; None if a line has other than three
    columns or a pair is other than word_id:count in ASCII digits. The
    compiled kernel scans text's bytes once (Kernel.pairs); without it, or
    for a value of more than 18 digits, which it leaves to numpy, the
    numpy pass reads blobs."""
    kernel = _native.kernel()
    if kernel is not None:
        try:
            return kernel.pairs(text.encode("utf-8"))
        except OverflowError:
            pass  # read by the numpy pass, which caps it
    if not _has_columns(text, 3):
        return None
    # every line's pairs column, each ended by a newline
    pairs_text = "\n".join(blobs) + "\n" if blobs else ""
    buf = np.frombuffer(pairs_text.encode("utf-8"), dtype=np.uint8)
    del pairs_text
    cls = _CLASS[buf]
    # pairs are the runs of bytes that separate nothing: [starts, ends)
    edge = np.diff((cls < _SPACE).view(np.int8), prepend=np.int8(0))
    starts, ends = np.flatnonzero(edge == 1), np.flatnonzero(edge == -1)
    del edge
    colons = np.flatnonzero(cls == _COLON)
    # well formed: digits, one colon, digits. With no other bytes, as many
    # colons as pairs and the k-th colon strictly inside the k-th pair,
    # every pair holds exactly one colon between digits.
    if len(colons) != len(starts) or (cls == _BAD).any() \
            or not ((starts < colons) & (colons < ends - 1)).all():
        return None
    word_ptr = np.zeros(len(blobs) + 1, dtype=np.int64)
    word_ptr[1:] = np.searchsorted(starts, np.flatnonzero(cls == _NEWLINE))
    del cls
    return (_digit_values(buf, starts, colons), _digit_values(buf, colons + 1, ends),
            word_ptr)


def _documents_error(text: str, v: int) -> NoReturn:
    """Raise the MalformedRecord of the first bad line of a documents.txt
    the array pass refused. A line is checked for, in order: columns, doc
    id, pair syntax, empty document, repeated word id, word id range,
    count. Ids are compared as exact integers, by their digits without
    leading zeros."""
    seen: set[str] = set()
    for lineno, line in enumerate(text.split("\n")[:-1], start=1):
        cols = line.split("\t")
        if len(cols) != 3:
            raise MalformedRecord("expected doc_id<TAB>label<TAB>counts", lineno)
        if cols[0] in seen:
            raise MalformedRecord(f"duplicate doc id {cols[0]!r}", lineno)
        seen.add(cols[0])
        pairs = [pair for pair in _SPLIT.split(cols[2]) if pair]
        malformed = [pair for pair in pairs if not _PAIR.fullmatch(pair)]
        if malformed:
            raise MalformedRecord(
                f"expected word_id:count in ASCII digits, got {malformed[0]!r}", lineno)
        if not pairs:
            raise MalformedRecord("empty document in archive", lineno)
        ids, counts = zip(*((value.lstrip("0") or "0" for value in pair.split(":"))
                            for pair in pairs))
        if len(set(ids)) < len(ids):
            raise MalformedRecord("repeated word id in document", lineno)
        top = max(ids, key=lambda digits: (len(digits), digits))
        if _capped(top) >= v:
            # an id of over 40 digits is named by its first digits and length
            shown = top if len(top) <= 40 else f"{top[:20]}... ({len(top)} digits)"
            raise MalformedRecord(f"word id {shown} outside [0, {v})", lineno)
        if "0" in counts:
            raise MalformedRecord("count 0 < 1", lineno)
    raise AssertionError("the array pass refused a valid documents.txt")


def _digit_values(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """int64 values of the ASCII digit strings buf[lo[i]:hi[i]], by Horner's
    rule over all strings at once, one digit place per pass. A string of
    more than 18 digits is converted on its own (see _capped)."""
    length = hi - lo
    width = int(length.max(initial=0))
    value = np.zeros(len(lo), dtype=np.int64)
    for place in range(min(width, _MAX_DIGITS) - 1, -1, -1):
        # a string shorter than the place reads the byte before it, which
        # is no digit and so reads as 0
        value *= 10
        value += _DIGIT_VALUE[buf[np.maximum(hi - 1 - place, lo - 1)]]
    if width > _MAX_DIGITS:
        for i in np.flatnonzero(length > _MAX_DIGITS).tolist():
            value[i] = _capped(buf[lo[i]:hi[i]].tobytes().decode())
    return value


def _capped(digits: str) -> int:
    """The value of an ASCII digit string, or int64 max if it is larger. At
    most 19 digits are converted, so a string of any length reads."""
    digits = digits.lstrip("0")
    return min(int(digits or 0), _INT64_MAX) if len(digits) <= 19 else _INT64_MAX
