"""The corpus archive: a directory of vocabulary.tsv, documents.txt and
stats.json, written from a Corpus and read back into its token arrays.

read_archive parses documents.txt in whole-array passes: the lines are
split into their columns once, and the word_id:count pairs of all lines
are checked and converted together from their bytes, with no Python object
per pair or per document. Each check finds its first bad line; the error
raised is the one of the lowest line and, within one line, the one a
line-by-line reader would meet first.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .corpus import Corpus, CorpusStats, TokenCSR, Vocabulary
from .errors import ConfigError, MalformedRecord
from .model import check_token_total

__all__ = ["MISSING_LABEL", "check_comma_free", "read_archive", "write_archive"]

MISSING_LABEL = "-"


def write_archive(corpus: Corpus, outdir: str | Path) -> None:
    """Write the corpus as an archive: vocabulary.tsv, documents.txt with
    each document's pairs in rising word id order, and stats.json.

    The lines are formatted from the corpus arrays. A doc id or label
    holding whitespace (any character str.isspace accepts), which would
    break the line and column structure of documents.txt, or a doc id
    holding a comma, which would break the assignments.csv of every run,
    raises ConfigError before any file is written.
    """
    doc_ids = corpus.doc_ids
    labels = [MISSING_LABEL if label is None else label
              for label in corpus.gold_labels]
    _check_fields(doc_ids, labels)
    vocab = corpus.vocabulary
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "vocabulary.tsv", "w", encoding="utf-8") as fh:
        fh.write("".join(map("{}\t{}\t{}\n".format, range(vocab.size),
                             vocab.id_to_word, vocab.doc_freq)))
    with open(out / "documents.txt", "w", encoding="utf-8") as fh:
        fh.write("".join(_document_lines(corpus.token_csr, doc_ids, labels)))
    stats = {
        "D": corpus.stats.D,
        "V": corpus.stats.V,
        "mean_len": corpus.stats.mean_len,
        "max_len": corpus.stats.max_len,
        "dropped_doc_ids": list(corpus.dropped_doc_ids),
    }
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
    rising = np.ones(len(words), dtype=bool)
    rising[1:] = words[1:] > words[:-1]
    rising[csr.word_ptr[:-1][csr.word_ptr[:-1] < len(words)]] = True  # line starts
    if not rising.all():
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
    count below 1, or a stats.json whose D or V disagrees with the files
    raises MalformedRecord naming the first bad line. A count beyond int32,
    the dtype of the counts array, raises ConfigError (see
    model.check_token_total).
    """
    src = Path(indir)
    for name in ("vocabulary.tsv", "documents.txt", "stats.json"):
        if not (src / name).exists():
            raise FileNotFoundError(src / name)
    id_to_word, doc_freq = _read_vocabulary(src / "vocabulary.tsv")
    v = len(id_to_word)
    doc_ids, labels, csr = _read_documents(src / "documents.txt", v)
    text = (src / "stats.json").read_text(encoding="utf-8")
    stats = json.loads(text)
    for key, actual in (("D", len(doc_ids)), ("V", v)):
        if stats.get(key) != actual:
            line = next((i for i, row in enumerate(text.splitlines(), start=1)
                         if f'"{key}"' in row), 1)
            raise MalformedRecord(
                f"stats.json gives {key}={stats.get(key)}, the archive has {actual}",
                line)
    vocab = Vocabulary(
        word_to_id=dict(zip(id_to_word, range(v))),
        id_to_word=tuple(id_to_word),
        doc_freq=tuple(doc_freq),
    )
    return Corpus.from_arrays(
        csr, doc_ids,
        [None if label == MISSING_LABEL else label for label in labels],
        vocabulary=vocab,
        stats=CorpusStats(D=stats["D"], V=stats["V"],
                          mean_len=stats["mean_len"], max_len=stats["max_len"]),
        dropped_doc_ids=tuple(stats.get("dropped_doc_ids", [])),
    )


def _raise_first(errors: list[tuple[int, int, Exception]]) -> None:
    """Raise the error of the lowest line (0-based) and, on one line, of
    the lowest rank: the order in which a line-by-line reader checks."""
    if errors:
        raise min(errors, key=lambda e: e[:2])[2]


def _read_columns(path: Path, n: int) -> tuple[list[list[str]], int | None]:
    """The n tab-separated columns of a text file's lines, as n lists, and
    the index of the first line with another number of columns (None if
    there is none); only the lines above that one are returned.

    The file is read in text mode, so CRLF and CR line ends read as LF.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text and not text.endswith("\n"):
        text += "\n"
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    tabs = np.diff(np.searchsorted(np.flatnonzero(raw == ord("\t")), ends),
                   prepend=0)
    bad = np.flatnonzero(tabs != n - 1)
    first_bad = int(bad[0]) if len(bad) else None
    if first_bad is not None:
        text = raw[:ends[first_bad - 1] + 1].tobytes().decode("utf-8") \
            if first_bad else ""
    del raw, ends, tabs
    fields = text.replace("\n", "\t").split("\t")
    del text
    fields.pop()  # after the last line end
    return [fields[i::n] for i in range(n)], first_bad


def _digit_column(values: list[str], rank: int, name: str,
                  errors: list) -> np.ndarray:
    """int64 values of a column of ASCII-digit numbers, parsed in one
    whole-array pass. At the first value that is not one or more ASCII
    digits, a MalformedRecord naming its line is added to errors and the
    values above it are returned. A value past int64 reads as int64 max."""
    text = "\n".join(values) + "\n" if values else ""
    buf = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    del text
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    # the bytes other than digits are the line ends, and before the first
    # value holding another byte the two lists agree
    others = np.flatnonzero(_CLASS[buf] != _DIGIT)
    stray = np.flatnonzero(others[:len(ends)] != ends)
    bad = [int(np.searchsorted(ends, others[stray[0]]))] if len(stray) else []
    bad += np.flatnonzero(starts == ends)[:1].tolist()
    n = len(values)
    if bad:
        n = min(bad)
        errors.append((n, rank, MalformedRecord(
            f"expected an ASCII-digit {name}, got {values[n]!r}", n + 1)))
    return _digit_values(buf, starts[:n], ends[:n])


def _read_vocabulary(path: Path) -> tuple[list[str], list[int]]:
    """Words by id and their document frequencies; ids must run 0, 1, ...
    in line order. Ids and document frequencies are ASCII digits."""
    (ids, words, dfs), first_bad = _read_columns(path, 3)
    errors: list = []
    if first_bad is not None:
        errors.append((first_bad, 0,
                       MalformedRecord("expected id<TAB>word<TAB>df", first_bad + 1)))
    ids = _digit_column(ids, 1, "id", errors)
    unordered = np.flatnonzero(ids != np.arange(len(ids)))
    if len(unordered):
        i = int(unordered[0])
        errors.append((i, 1, MalformedRecord("vocabulary ids out of order", i + 1)))
    doc_freq = _digit_column(dfs, 2, "df", errors).tolist()
    _raise_first(errors)
    return words, doc_freq


# byte classes of the pairs column; any byte outside them (a sign, an
# underscore, a non-ASCII digit) makes its pair unparseable
_BAD, _DIGIT, _COLON, _SPACE, _NEWLINE = range(5)
_CLASS = np.zeros(256, dtype=np.uint8)
_CLASS[np.frombuffer(b"0123456789", dtype=np.uint8)] = _DIGIT
_CLASS[ord(":")] = _COLON
# the whitespace str.split() splits on, less the tab and the line end
# that delimit the column
_CLASS[np.frombuffer(b" \x0b\x0c\x1c\x1d\x1e\x1f", dtype=np.uint8)] = _SPACE
_CLASS[ord("\n")] = _NEWLINE
_DIGIT_VALUE = np.zeros(256, dtype=np.int64)
_DIGIT_VALUE[np.frombuffer(b"0123456789", dtype=np.uint8)] = np.arange(10)
_MAX_DIGITS = 18  # every number of 18 digits fits int64
_INT64_MAX = int(np.iinfo(np.int64).max)
_INT32_MAX = int(np.iinfo(np.int32).max)


def _read_documents(path: Path, v: int):
    """(doc ids, labels, TokenCSR) of documents.txt, in file order, with
    the checks ranked on one line as: columns, doc id, pair syntax, empty
    document, repeated word id, word id range, count."""
    (doc_ids, labels, blobs), first_bad = _read_columns(path, 3)
    errors: list = []
    if first_bad is not None:
        errors.append((first_bad, 0, MalformedRecord(
            "expected doc_id<TAB>label<TAB>counts", first_bad + 1)))
    if len(set(doc_ids)) < len(doc_ids):
        seen: set[str] = set()
        for i, doc_id in enumerate(doc_ids):
            if doc_id in seen:
                errors.append((i, 1, MalformedRecord(
                    f"duplicate doc id {doc_id!r}", i + 1)))
                break
            seen.add(doc_id)

    # every line's pairs column, each ended by a newline
    text = "\n".join(blobs) + "\n" if blobs else ""
    buf = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    del text
    cls = _CLASS[buf]
    # pairs are the runs of bytes that separate nothing: [starts, ends)
    edge = np.diff((cls < _SPACE).view(np.int8), prepend=np.int8(0))
    starts, ends = np.flatnonzero(edge == 1), np.flatnonzero(edge == -1)
    del edge
    line_ends = np.flatnonzero(cls == _NEWLINE)
    word_len = np.diff(np.searchsorted(starts, line_ends), prepend=0)
    n_lines = len(blobs)
    colons = np.flatnonzero(cls == _COLON)
    # well formed: digits, one colon, digits. With no other bytes, as many
    # colons as pairs and the k-th colon strictly inside the k-th pair,
    # every pair holds exactly one colon between digits.
    well_formed = len(colons) == len(starts) and not (cls == _BAD).any() \
        and bool(((starts < colons) & (colons < ends - 1)).all())
    if not well_formed:
        bad = _first_malformed(cls, starts, ends)
        pair_end = np.cumsum(word_len)
        n_lines = int(np.searchsorted(pair_end, bad, side="right"))
        pair = buf[starts[bad]:ends[bad]].tobytes().decode("utf-8")
        errors.append((n_lines, 2, MalformedRecord(
            f"expected word_id:count in ASCII digits, got {pair!r}", n_lines + 1)))
        # the lines above the first bad pair parse; keep only their pairs
        n_pairs = int(pair_end[n_lines - 1]) if n_lines else 0
        word_len, starts, ends = word_len[:n_lines], starts[:n_pairs], ends[:n_pairs]
    del cls
    colons = colons[:len(starts)]  # one in each pair, in order
    words = _digit_values(buf, starts, colons)
    counts = _digit_values(buf, colons + 1, ends)
    del buf, starts, ends, colons

    word_ptr = np.zeros(n_lines + 1, dtype=np.int64)
    np.cumsum(word_len, out=word_ptr[1:])
    line = np.repeat(np.arange(n_lines), word_len)
    empty = np.flatnonzero(word_len == 0)
    if len(empty):
        i = int(empty[0])
        errors.append((i, 3, MalformedRecord("empty document in archive", i + 1)))
    repeated = _first_repeat(words, line, word_ptr, blobs)
    if repeated is not None:
        errors.append((repeated, 4, MalformedRecord(
            "repeated word id in document", repeated + 1)))
    outside = np.flatnonzero(words >= v)
    if len(outside):
        i = int(line[outside[0]])
        hi = max(int(p.split(":")[0]) for p in blobs[i].split())
        errors.append((i, 5, MalformedRecord(f"word id {hi} outside [0, {v})", i + 1)))
    zero = np.flatnonzero(counts < 1)
    if len(zero):
        i = int(line[zero[0]])
        errors.append((i, 6, MalformedRecord("count 0 < 1", i + 1)))
    _raise_first(errors)
    del line

    if len(counts) and counts.max() > _INT32_MAX:
        # past the int32 counts array; the exact total names the excess
        check_token_total(sum(int(p.split(":")[1])
                              for blob in blobs for p in blob.split()))
    tok_ptr = np.zeros(n_lines + 1, dtype=np.int64)
    if n_lines:
        np.cumsum(np.add.reduceat(counts, word_ptr[:-1]), out=tok_ptr[1:])
    csr = TokenCSR(word_ptr, words.astype(np.intp, copy=False),
                   counts.astype(np.int32), tok_ptr)
    return doc_ids, labels, csr


def _first_malformed(cls: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> int:
    """Index of the first pair that is not digits, one colon, digits."""
    def per_pair(positions):
        pair = np.searchsorted(starts, positions, side="right") - 1
        return np.bincount(pair, minlength=len(starts))
    ok = per_pair(np.flatnonzero(cls == _COLON)) == 1
    ok &= per_pair(np.flatnonzero(cls == _BAD)) == 0
    ok &= (cls[starts] == _DIGIT) & (cls[ends - 1] == _DIGIT)
    return int(np.argmin(ok))


def _digit_values(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """int64 values of the ASCII digit strings buf[lo[i]:hi[i]], by Horner's
    rule over all strings at once, one digit place per pass. A string of
    more than 18 digits is converted on its own and capped at int64 max."""
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
            value[i] = min(int(buf[lo[i]:hi[i]].tobytes()), _INT64_MAX)
    return value


def _first_repeat(words: np.ndarray, line: np.ndarray, word_ptr: np.ndarray,
                  blobs: list[str]) -> int | None:
    """Index of the first line that names a word id twice, or None.
    write_archive sorts each line, so ids rising within every line settle
    it without a sort."""
    rising = np.ones(len(words), dtype=bool)
    rising[1:] = words[1:] > words[:-1]
    rising[word_ptr[:-1][word_ptr[:-1] < len(words)]] = True  # line starts
    if rising.all():
        return None
    order = np.lexsort((words, line))
    words, line = words[order], line[order]
    same = (words[1:] == words[:-1]) & (line[1:] == line[:-1])
    for i in np.unique(line[1:][same]).tolist():
        if words[line == i].max() < _INT64_MAX:
            return i
        # ids past int64 were capped, so equal values need not be equal ids
        ids = [int(p.split(":")[0]) for p in blobs[i].split()]
        if len(set(ids)) < len(ids):
            return i
    return None
