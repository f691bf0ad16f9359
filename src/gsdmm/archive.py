"""The corpus archive: a directory of vocabulary.tsv, documents.txt and
stats.json, written from a Corpus and read back into its token arrays.

Each of vocabulary.tsv and documents.txt has two readers. The compiled
kernel scans the file's bytes once (Kernel.vocabulary, Kernel.pairs),
checking each line and parsing its numbers with no Python object per pair
or per document. A line loop is the reference: it reads the file where
the kernel cannot be built or a value has more than 18 digits, and it
names the first bad line of a file the compiled path refuses, checking
each line in a fixed order. The files are UTF-8; a byte that is not names
the file and its line.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from pathlib import Path

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


def _fields(text: str, n: int) -> list[list[str]]:
    """The n tab-separated columns of the lines of text, as n lists, for a
    text whose every line has n columns."""
    fields = text.replace("\n", "\t").split("\t")
    fields.pop()  # after the last line end
    return [fields[i::n] for i in range(n)]


_BY_LOOP = object()  # what _scan returns for a file the line loop reads


def _scan(text: str, scan):
    """What a compiled scan (Kernel.vocabulary or Kernel.pairs) makes of a
    file's text: its arrays, or None if it refuses the file. _BY_LOOP where
    the kernel cannot be built or the file holds a value of more than 18
    digits, which the line loop reads."""
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
