"""Dataset ingestion, text normalization, and the in-memory corpus.

A corpus is an immutable list of bag-of-words documents over a contiguous
integer vocabulary. Word ids are assigned by first appearance in corpus scan
order, so rebuilding from the same input is fully deterministic.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from itertools import chain, compress, count
from operator import methodcaller
from pathlib import Path

import numpy as np

from . import _native
from .errors import AllDocumentsEmpty, DuplicateDocId, MalformedRecord

__all__ = [
    "TokenRules",
    "Vocabulary",
    "Document",
    "CorpusStats",
    "Corpus",
    "TokenCSR",
    "occurrences",
    "tokenize",
    "build_corpus",
    "check_unique_doc_ids",
    "read_dataset",
    "load_stopwords",
    "default_stopwords",
]

_SEP = "\x00"  # joins the texts for one regex pass over all of them
_LATIN = re.compile(r"[a-z]+|\x00")


@dataclass(frozen=True)
class TokenRules:
    """Normalization pipeline settings.

    The pipeline order is fixed: lowercase, split into runs of Latin
    letters, drop stopwords, stem, filter by token length. Document-frequency
    filtering (min_df) happens at corpus level, not per call.
    """

    stopword_list: frozenset[str] = frozenset()
    stemming: bool = False
    min_word_len: int = 2
    max_word_len: int = 15
    min_df: int = 2

    def __post_init__(self):
        if not (1 <= self.min_word_len <= self.max_word_len):
            raise ValueError(
                f"need 1 <= min_word_len <= max_word_len, got "
                f"[{self.min_word_len}, {self.max_word_len}]"
            )
        if self.min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {self.min_df}")
        if not isinstance(self.stopword_list, frozenset):
            object.__setattr__(self, "stopword_list", frozenset(self.stopword_list))


@dataclass(frozen=True)
class Vocabulary:
    """Bijective word/id mapping with per-word document frequencies."""

    id_to_word: tuple[str, ...]
    doc_freq: tuple[int, ...]

    def __post_init__(self):
        if len(self.id_to_word) != len(self.doc_freq):
            raise ValueError(f"vocabulary has {len(self.id_to_word)} words but "
                             f"{len(self.doc_freq)} document frequencies")

    @cached_property
    def word_to_id(self) -> dict[str, int]:
        return dict(zip(self.id_to_word, range(len(self.id_to_word))))

    @property
    def size(self) -> int:
        return len(self.id_to_word)

    def __len__(self) -> int:
        return len(self.id_to_word)


@dataclass(frozen=True)
class Document:
    """One bag-of-words document: sparse word-id counts and a gold label."""

    doc_id: str
    counts: dict[int, int]
    gold_label: str | None = field(default=None, kw_only=True)

    @property
    def total_len(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class CorpusStats:
    D: int
    V: int
    mean_len: float
    max_len: int


class Corpus:
    """Immutable tokenized corpus. Safe to share across threads.

    A corpus is its token arrays (token_csr), its doc ids and its gold
    labels (None where a document has none), one entry per document in
    corpus order, plus the vocabulary and the ids of documents dropped
    because filtering emptied them (kept so that gold-label alignment
    downstream stays correct). ``stats``, ``documents`` and the
    per-document views are derived from these on first access; the sampler
    and the commands read the arrays and build no documents or views.

    Corpus.from_arrays takes the arrays as they are (read_archive,
    build_corpus and generate_corpus build them directly).
    Corpus(documents=...) converts the given Document objects to arrays once,
    at construction, keeping each document's word order. Both raise
    ValueError unless there are as many doc ids and gold labels as token
    rows, every word id lies in [0, V), every count is at least 1 and no
    document names a word id twice; the last two messages name the
    document. A document may be empty.
    """

    def __init__(self, documents, vocabulary: Vocabulary, dropped_doc_ids=()):
        docs = tuple(documents)
        csr = TokenCSR.from_rows([doc.counts for doc in docs],
                                 [doc.counts.values() for doc in docs])
        self._set(csr, [doc.doc_id for doc in docs],
                  [doc.gold_label for doc in docs], vocabulary, dropped_doc_ids)

    @classmethod
    def from_arrays(cls, token_csr: "TokenCSR", doc_ids, gold_labels,
                    vocabulary: Vocabulary, dropped_doc_ids=()) -> "Corpus":
        corpus = cls.__new__(cls)
        corpus._set(token_csr, doc_ids, gold_labels, vocabulary, dropped_doc_ids)
        return corpus

    def _set(self, token_csr, doc_ids, gold_labels, vocabulary,
             dropped_doc_ids) -> None:
        doc_ids, gold_labels = tuple(doc_ids), tuple(gold_labels)
        rows = len(token_csr.word_ptr) - 1
        if not len(doc_ids) == len(gold_labels) == rows:
            raise ValueError(f"corpus has {len(doc_ids)} doc ids, "
                             f"{len(gold_labels)} gold labels and {rows} token rows")
        words, counts, v = token_csr.words, token_csr.counts, vocabulary.size
        lo, hi = (words.min(), words.max()) if len(words) else (0, -1)
        if lo < 0 or hi >= v:
            raise ValueError(f"word id {lo if lo < 0 else hi} outside [0, {v})")
        low = np.flatnonzero(counts < 1)
        if len(low):
            d = int(np.searchsorted(token_csr.word_ptr, low[0], side="right")) - 1
            raise ValueError(f"document {doc_ids[d]!r} has count {counts[low[0]]} "
                             f"for word id {words[low[0]]}; counts must be >= 1")
        d = _repeated_row(words, token_csr.word_ptr)
        if d >= 0:
            raise ValueError(f"document {doc_ids[d]!r} names a word id twice")
        self.__dict__.update(token_csr=token_csr, doc_ids=doc_ids,
                             gold_labels=gold_labels,
                             vocabulary=vocabulary,
                             dropped_doc_ids=tuple(dropped_doc_ids))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Corpus")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Corpus")

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __repr__(self) -> str:
        return (f"Corpus(D={len(self)}, V={self.vocabulary.size}, "
                f"dropped={len(self.dropped_doc_ids)})")

    @cached_property
    def stats(self) -> CorpusStats:
        lengths = np.diff(self.token_csr.tok_ptr)
        return CorpusStats(len(self), self.vocabulary.size,
                           float(np.mean(lengths)) if len(lengths) else 0.0,
                           int(lengths.max(initial=0)))

    @cached_property
    def documents(self) -> tuple[Document, ...]:
        """One Document per document, built from the arrays."""
        csr = self.token_csr
        wp = csr.word_ptr.tolist()
        words, counts = csr.words.tolist(), csr.counts.tolist()
        return tuple(
            Document(doc_id, dict(zip(words[a:b], counts[a:b])), gold_label=label)
            for doc_id, label, a, b in zip(self.doc_ids, self.gold_labels, wp, wp[1:])
        )

    @cached_property
    def token_views(self) -> tuple[tuple, ...]:
        """Per-document arrays precomputed for the sampler kernels.

        Each entry is (distinct_words, distinct_counts, word_rep, occ_offset,
        total_len) where word_rep repeats each word id once per occurrence and
        occ_offset is 0, 1, ... within the repeats of one word. Counts are
        int32, the dtype of the model's counts, so adding and removing
        a document never casts.

        Each document's entry holds slices (views) of token_csr's arrays.
        The package slices token_csr itself; perfbench still reads this
        (ROADMAP item 1).
        """
        csr = self.token_csr
        wp, tp = csr.word_ptr.tolist(), csr.tok_ptr.tolist()
        return tuple(
            (csr.words[a:b], csr.counts[a:b], csr.word_rep[s:t], csr.occ[s:t],
             t - s)
            for a, b, s, t in zip(wp, wp[1:], tp, tp[1:])
        )


@dataclass(frozen=True, eq=False)
class TokenCSR:
    """Corpus-wide token arrays in compressed-row form.

    Document d's distinct words and their int32 counts are
    words[word_ptr[d]:word_ptr[d + 1]] and counts[...] of the same range
    (int64 word_ptr, intp words). All else is derived from these on first
    access: document d's tokens are word_rep[tok_ptr[d]:tok_ptr[d + 1]]
    (int64 tok_ptr), each word id repeated once per occurrence, with occ
    (0, 1, ... within the repeats of one word, float64) at the same
    positions; entry_doc is the document of each (document, word) entry.
    """

    word_ptr: np.ndarray
    words: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_rows(cls, words, counts) -> "TokenCSR":
        """The arrays of per-document rows: document d's distinct word ids
        words[d], in the order given, and their counts counts[d]."""
        n = len(words)
        word_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, words), dtype=np.int64, count=n),
                  out=word_ptr[1:])
        size = int(word_ptr[-1])
        return cls(word_ptr,
                   np.fromiter(chain.from_iterable(words), dtype=np.intp, count=size),
                   np.fromiter(chain.from_iterable(counts), dtype=np.int32, count=size))

    @cached_property
    def tok_ptr(self) -> np.ndarray:
        # the token total before each row, from the rows' sums. reduceat
        # over the non-empty rows alone sums each up to the next non-empty
        # row's start, its own end, so an empty row reads 0
        sizes = np.diff(self.word_ptr)
        sums = np.zeros(len(sizes), dtype=np.int64)
        full = sizes > 0
        if full.any():
            sums[full] = np.add.reduceat(self.counts, self.word_ptr[:-1][full],
                                         dtype=np.int64)
        ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sums, out=ptr[1:])
        return ptr

    @cached_property
    def word_rep(self) -> np.ndarray:
        return np.repeat(self.words, self.counts)

    @cached_property
    def occ(self) -> np.ndarray:
        return occurrences(self.counts)

    @cached_property
    def entry_doc(self) -> np.ndarray:
        return _entry_docs(self.word_ptr)


def _entry_docs(word_ptr: np.ndarray) -> np.ndarray:
    """The document of each (document, word) entry of compressed rows."""
    return np.repeat(np.arange(len(word_ptr) - 1), np.diff(word_ptr))


def _not_rising(words: np.ndarray, word_ptr: np.ndarray) -> np.ndarray:
    """Whether each entry of compressed rows has a word id at or below the
    one before it in its row."""
    falls = np.zeros(len(words), dtype=bool)
    falls[1:] = words[1:] <= words[:-1]
    falls[word_ptr[:-1][word_ptr[:-1] < len(words)]] = False  # row starts
    return falls


def _repeated_row(words: np.ndarray, word_ptr: np.ndarray) -> int:
    """The first row of compressed rows that names a word id twice, or -1.
    Ids rising within every row, as build_corpus and read_archive give
    them, settle it without a sort; otherwise the ids sorted within each
    row must rise."""
    if not _not_rising(words, word_ptr).any():
        return -1
    row = _entry_docs(word_ptr)
    falls = _not_rising(words[np.lexsort((words, row))], word_ptr)
    return int(row[falls.argmax()]) if falls.any() else -1


def occurrences(counts) -> np.ndarray:
    """0, 1, ... within the repeats of each word of np.repeat(words, counts),
    as float64: the occ of the tokens of distinct words with these counts."""
    run_end = np.cumsum(counts, dtype=np.intp)
    occ = np.arange(run_end[-1] if len(run_end) else 0, dtype=np.float64)
    run_end -= counts
    occ -= np.repeat(run_end, counts)
    return occ


# Light suffix stripper used when TokenRules.stemming is on. Intentionally
# much cruder than a dictionary lemmatizer; exact lemmatizer parity is a
# non-goal.
_SUFFIX_RULES = (
    ("sses", "ss"),
    ("ies", "y"),
    ("ing", ""),
    ("ed", ""),
    ("ly", ""),
)


def _stem(word: str) -> str:
    for suffix, repl in _SUFFIX_RULES:
        if word.endswith(suffix) and len(word) - len(suffix) + len(repl) >= 3:
            return word[: len(word) - len(suffix)] + repl
    if word.endswith("s") and not word.endswith(("ss", "us")) and len(word) > 3:
        return word[:-1]
    return word


def _split(texts: list[str]) -> tuple[list[str], np.ndarray]:
    """Every raw part of the texts, in order, and the index of the text
    each part comes from. After lowercasing, a text's raw parts are its
    runs of Latin letters."""
    # One regex pass over the texts joined by _SEP, which the pattern
    # returns as a part of its own wherever it stands: between two texts,
    # or within a text that holds it. _SEP is neither cased nor
    # case-ignorable, so lowercasing the joined texts lowercases each alone.
    joined = _SEP.join(texts)
    parts = _LATIN.findall(joined.lower())
    sep = np.fromiter(map(_SEP.__eq__, parts), dtype=bool, count=len(parts))
    doc = _segment_docs(texts, joined)[np.cumsum(sep)]
    return list(compress(parts, ~sep)), doc[~sep]


def _segment_docs(texts: list[str], joined: str) -> np.ndarray:
    """The text of each segment of joined, the texts joined by _SEP, the
    segments being what its _SEP characters separate: text i holds one
    more segment than it holds _SEP characters."""
    if joined.count(_SEP) == len(texts) - 1:  # no text holds one
        return np.arange(len(texts))
    held = np.fromiter(map(methodcaller("count", _SEP), texts), dtype=np.intp,
                       count=len(texts))
    return np.repeat(np.arange(len(texts)), held + 1)


def _parts(texts: list[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The distinct raw parts of the texts, by first appearance, and for
    every raw part in order its index among them and the index of its text:
    _split's parts, numbered. The compiled kernel scans the UTF-8 bytes of
    the lowercased joined texts (a byte in a..z is always that ASCII
    letter, and surrogatepass keeps lone surrogates, which JSON may hold);
    without it, _split's regex pass and a dict number the parts."""
    kernel = _native.kernel()
    if kernel is not None:
        joined = _SEP.join(texts)
        raw = joined.lower().encode("utf-8", errors="surrogatepass")
        seg, part, distinct = kernel.runs(raw)
        return distinct, part, _segment_docs(texts, joined)[seg]
    parts, doc = _split(texts)
    first: dict[str, int] = {}
    at_first = np.fromiter(map(first.setdefault, parts, count()), dtype=np.intp,
                           count=len(parts))
    number = np.cumsum(at_first == np.arange(len(at_first))) - 1
    return list(first), number[at_first], doc


def _normalize(part: str, rules: TokenRules) -> str | None:
    """The token a raw part becomes, or None when the rules drop it: a
    stopword is dropped, then the stem is taken, then the length bounds
    apply. The one place the per-string rules live."""
    if part in rules.stopword_list:
        return None
    if rules.stemming:
        part = _stem(part)
    return part if rules.min_word_len <= len(part) <= rules.max_word_len else None


def tokenize(text: str, rules: TokenRules) -> list[str]:
    """Normalize raw text into a (possibly empty) token list.

    Total function: never raises, any input yields a list. min_df filtering
    is not applied here.
    """
    tokens = (_normalize(part, rules) for part in _split([text])[0])
    return [tok for tok in tokens if tok is not None]


def build_corpus(
    raw_docs: list[tuple[str, str, str | None]],
    rules: TokenRules,
) -> Corpus:
    """Tokenize, apply the document-frequency cutoff, and assemble a Corpus.

    Document frequency is computed on the final tokens (after stopword,
    stemming, and length filtering). Words with df < rules.min_df are
    dropped and ids are reassigned contiguously by first appearance.
    Documents that end up empty are dropped and recorded in
    Corpus.dropped_doc_ids. Each document's words are held in rising id
    order, the order of its archive line.

    The rules are decided once per distinct raw part, and the counting is
    done in whole-corpus numpy passes, so no per-document object is built.

    Raises DuplicateDocId on repeated ids and AllDocumentsEmpty when nothing
    survives filtering.
    """
    doc_ids = [doc_id for doc_id, _, _ in raw_docs]
    check_unique_doc_ids(doc_ids)
    n_docs = len(doc_ids)

    # each distinct part is decided once; terms (the distinct tokens) are
    # numbered by first appearance, so the kept ones are already in word id
    # order
    parts, part, doc = _parts([text for _, text, _ in raw_docs])
    terms: dict[str, int] = {}
    term_of = np.empty(len(parts), dtype=np.intp)
    for p, text in enumerate(parts):
        tok = _normalize(text, rules)
        term_of[p] = -1 if tok is None else terms.setdefault(tok, len(terms))
    term = term_of[part]
    del parts, part, term_of
    kept = term >= 0
    n_terms = max(len(terms), 1)
    # one entry per (document, term), sorted by document then term
    key, counts = np.unique(doc[kept] * n_terms + term[kept], return_counts=True)
    del term, doc, kept
    entry_doc, entry_term = np.divmod(key, n_terms)
    df = np.bincount(entry_term, minlength=len(terms))
    keep = df >= rules.min_df
    word_id = np.cumsum(keep) - 1
    entry = keep[entry_term]
    entry_doc, counts = entry_doc[entry], counts[entry]
    words = word_id[entry_term[entry]]

    word_len = np.bincount(entry_doc, minlength=n_docs)
    nonempty = word_len > 0
    if not nonempty.any():
        raise AllDocumentsEmpty(
            f"no documents left after filtering ({n_docs} inputs)"
        )
    word_ptr = np.zeros(int(nonempty.sum()) + 1, dtype=np.int64)
    np.cumsum(word_len[nonempty], out=word_ptr[1:])
    csr = TokenCSR(word_ptr, words.astype(np.intp, copy=False),
                   counts.astype(np.int32))

    id_to_word = tuple(t for t, k in zip(terms, keep.tolist()) if k)
    labels = [label for _, _, label in raw_docs]
    kept_docs = np.flatnonzero(nonempty).tolist()
    return Corpus.from_arrays(
        csr,
        [doc_ids[d] for d in kept_docs],
        [labels[d] for d in kept_docs],
        vocabulary=Vocabulary(id_to_word, tuple(df[keep].tolist())),
        dropped_doc_ids=[doc_ids[d] for d in np.flatnonzero(~nonempty).tolist()],
    )


def check_unique_doc_ids(doc_ids: list[str]) -> None:
    """Raise DuplicateDocId naming the first doc id that repeats."""
    if len(set(doc_ids)) < len(doc_ids):
        seen = set()
        for doc_id in doc_ids:
            if doc_id in seen:
                raise DuplicateDocId(f"duplicate document id {doc_id!r}")
            seen.add(doc_id)


def read_dataset(
    path: str | Path,
    format: str = "jsonl",
) -> list[tuple[str, str, str | None]]:
    """Load (doc_id, text, label) records in file order.

    jsonl: one object per line with fields "id", "text", optional "label".
    tsv: id<TAB>text or id<TAB>label<TAB>text. Blank lines are skipped.
    Raises MalformedRecord with the offending line number.
    """
    if format not in ("jsonl", "tsv"):
        raise ValueError(f"unknown dataset format {format!r}")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    if format == "jsonl":
        records = _read_jsonl_at_once(text, lines)
        if records is not None:
            return records
    records: list[tuple[str, str, str | None]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if format == "jsonl":
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"invalid JSON ({exc.msg})", lineno) from exc
            if not isinstance(obj, dict) or "id" not in obj:
                raise MalformedRecord('missing "id" field', lineno)
            if "text" not in obj:
                raise MalformedRecord('missing "text" field', lineno)
            label = obj.get("label")
            records.append((str(obj["id"]), str(obj["text"]),
                            None if label is None else str(label)))
        else:
            cols = line.split("\t")
            if len(cols) == 2:
                records.append((cols[0], cols[1], None))
            elif len(cols) == 3:
                records.append((cols[0], cols[2], cols[1]))
            else:
                raise MalformedRecord(
                    f"expected 2 or 3 tab-separated columns, got {len(cols)}",
                    lineno,
                )
    return records


# Two objects separated by a comma within one line. Where the text holds
# none, each comma between the objects of the joined array of lines is one
# the join put there, so as many objects as lines means one per line.
_OBJECTS_IN_ONE_LINE = re.compile(r"\}[ \t]*,[ \t]*\{")


def _read_jsonl_at_once(text: str, lines: list[str]
                        ) -> list[tuple[str, str, str | None]] | None:
    """The records of a JSONL text split into its lines, parsed by one
    json.loads over the array of the nonblank lines, or None unless no
    line holds two objects and the array holds exactly one object with
    "id" and "text" per nonblank line. On None the caller reads line by
    line, which names the first bad line."""
    if _OBJECTS_IN_ONE_LINE.search(text):
        return None
    nonblank = list(filter(str.strip, lines))
    try:
        objs = json.loads("[" + ",".join(nonblank) + "]")
    except json.JSONDecodeError:
        return None
    if len(objs) != len(nonblank) or not all(
            isinstance(obj, dict) and "id" in obj and "text" in obj for obj in objs):
        return None
    return [(str(obj["id"]), str(obj["text"]),
             None if obj.get("label") is None else str(obj["label"]))
            for obj in objs]


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a one-word-per-line UTF-8 stopword file."""
    with open(path, encoding="utf-8") as fh:
        return frozenset(w.strip() for w in fh if w.strip())


def default_stopwords() -> frozenset[str]:
    """The English stopword list shipped with the package."""
    text = resources.files("gsdmm").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(w for w in text.split("\n") if w.strip())
