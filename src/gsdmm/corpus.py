"""Dataset ingestion, text normalization, and the in-memory corpus.

A corpus is an immutable list of bag-of-words documents over a contiguous
integer vocabulary. Word ids are assigned by first appearance in corpus scan
order, so rebuilding from the same input is fully deterministic.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import chain, compress, count
from operator import methodcaller
from pathlib import Path

import numpy as np

from .errors import AllDocumentsEmpty, DuplicateDocId, MalformedRecord

__all__ = [
    "TokenRules",
    "Vocabulary",
    "Document",
    "CorpusStats",
    "Corpus",
    "TokenCSR",
    "tokenize",
    "build_corpus",
    "read_dataset",
    "load_stopwords",
    "default_stopwords",
]

_SEP = "\x00"  # joins the texts for one regex pass over all of them
_LATIN = re.compile(r"[a-z]+|\x00")
_LATIN_CASED = re.compile(r"[a-zA-Z]+|\x00")


@dataclass(frozen=True)
class TokenRules:
    """Normalization pipeline settings.

    The pipeline order is fixed: lowercase, strip non-latin characters,
    drop stopwords, stem, filter by token length. Document-frequency
    filtering (min_df) happens at corpus level, not per call.
    """

    lowercase: bool = True
    strip_non_latin: bool = True
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

    word_to_id: dict[str, int]
    id_to_word: tuple[str, ...]
    doc_freq: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.id_to_word)

    def __len__(self) -> int:
        return len(self.id_to_word)


@dataclass(frozen=True)
class Document:
    """One bag-of-words document: sparse word-id counts plus total length."""

    doc_id: str
    counts: dict[int, int]
    total_len: int
    gold_label: str | None = None


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
    corpus order, plus the vocabulary, the stats and the ids of documents
    dropped because filtering emptied them (kept so that gold-label
    alignment downstream stays correct). ``documents`` and the per-document
    views present the same facts in other shapes, built on first access;
    the sampler and the commands read the arrays and build neither.

    Corpus.from_arrays takes the arrays as they are (read_archive,
    build_corpus and generate_corpus build them directly).
    Corpus(documents=...) converts the given Document objects to arrays once,
    at construction, keeping each document's word order.
    """

    def __init__(self, documents, vocabulary: Vocabulary, stats: CorpusStats,
                 dropped_doc_ids=()):
        docs = tuple(documents)
        csr = TokenCSR.from_rows([doc.counts for doc in docs],
                                 [doc.counts.values() for doc in docs],
                                 [doc.total_len for doc in docs])
        self._set(csr, [doc.doc_id for doc in docs],
                  [doc.gold_label for doc in docs], vocabulary, stats,
                  dropped_doc_ids)

    @classmethod
    def from_arrays(cls, token_csr: "TokenCSR", doc_ids, gold_labels,
                    vocabulary: Vocabulary, stats: CorpusStats,
                    dropped_doc_ids=()) -> "Corpus":
        corpus = cls.__new__(cls)
        corpus._set(token_csr, doc_ids, gold_labels, vocabulary, stats,
                    dropped_doc_ids)
        return corpus

    def _set(self, token_csr, doc_ids, gold_labels, vocabulary, stats,
             dropped_doc_ids) -> None:
        self.__dict__.update(token_csr=token_csr, doc_ids=tuple(doc_ids),
                             gold_labels=tuple(gold_labels),
                             vocabulary=vocabulary, stats=stats,
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
    def documents(self) -> tuple[Document, ...]:
        """One Document per document, built from the arrays."""
        csr = self.token_csr
        wp = csr.word_ptr.tolist()
        words, counts = csr.words.tolist(), csr.counts.tolist()
        totals = np.diff(csr.tok_ptr).tolist()
        return tuple(
            Document(doc_id=doc_id, counts=dict(zip(words[a:b], counts[a:b])),
                     total_len=total, gold_label=label)
            for doc_id, label, a, b, total in zip(
                self.doc_ids, self.gold_labels, wp, wp[1:], totals)
        )

    @cached_property
    def token_views(self) -> tuple[tuple, ...]:
        """Per-document arrays precomputed for the sampler kernels.

        Each entry is (distinct_words, distinct_counts, word_rep, occ_offset,
        total_len) where word_rep repeats each word id once per occurrence and
        occ_offset is 0, 1, ... within the repeats of one word. Counts are
        int32, the dtype of the model's count matrix, so adding and removing
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
    (int64 word_ptr, intp words); its tokens are
    word_rep[tok_ptr[d]:tok_ptr[d + 1]] (int64 tok_ptr), each word id
    repeated once per occurrence, with occ (0, 1, ... within the repeats of
    one word, float64) at the same positions. word_rep and occ, one entry
    per token, and entry_doc, the document of each (document, word) entry,
    are expanded on first access.
    """

    word_ptr: np.ndarray
    words: np.ndarray
    counts: np.ndarray
    tok_ptr: np.ndarray

    @classmethod
    def from_rows(cls, words, counts, lengths) -> "TokenCSR":
        """The arrays of per-document rows: document d's distinct word ids
        words[d], in the order given, their counts counts[d] and its token
        total lengths[d]."""
        n = len(lengths)
        word_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, words), dtype=np.int64, count=n),
                  out=word_ptr[1:])
        tok_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(lengths, dtype=np.int64, count=n), out=tok_ptr[1:])
        size = int(word_ptr[-1])
        return cls(word_ptr,
                   np.fromiter(chain.from_iterable(words), dtype=np.intp, count=size),
                   np.fromiter(chain.from_iterable(counts), dtype=np.int32,
                               count=size),
                   tok_ptr)

    @cached_property
    def word_rep(self) -> np.ndarray:
        return np.repeat(self.words, self.counts)

    @cached_property
    def occ(self) -> np.ndarray:
        run_end = np.cumsum(self.counts, dtype=np.intp)
        occ = np.arange(run_end[-1] if len(run_end) else 0, dtype=np.float64)
        run_end -= self.counts
        occ -= np.repeat(run_end, self.counts)
        return occ

    @cached_property
    def entry_doc(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.word_ptr) - 1), np.diff(self.word_ptr))


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


def _split(texts: list[str], rules: TokenRules) -> tuple[list[str], np.ndarray]:
    """Every raw part of the texts, in order, and the index of the text
    each part comes from. After lowercasing, a text's raw parts are its
    runs of Latin letters, or with strip_non_latin off its runs of
    non-whitespace."""
    n = len(texts)
    if not rules.strip_non_latin:
        per_text = [(text.lower() if rules.lowercase else text).split()
                    for text in texts]
        sizes = np.fromiter(map(len, per_text), dtype=np.intp, count=n)
        return list(chain.from_iterable(per_text)), np.repeat(np.arange(n), sizes)
    # One regex pass over the texts joined by _SEP, which the pattern
    # returns as a part of its own wherever it stands: between two texts,
    # or within a text that holds it. _SEP is neither cased nor
    # case-ignorable, so lowercasing the joined texts lowercases each alone.
    joined = _SEP.join(texts)
    if rules.lowercase:
        joined = joined.lower()
    parts = (_LATIN if rules.lowercase else _LATIN_CASED).findall(joined)
    del joined
    sep = np.fromiter(map(_SEP.__eq__, parts), dtype=bool, count=len(parts))
    held = np.fromiter(map(methodcaller("count", _SEP), texts), dtype=np.intp,
                       count=n)
    doc = np.repeat(np.arange(n), held + 1)[np.cumsum(sep)]
    return list(compress(parts, ~sep)), doc[~sep]


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
    tokens = (_normalize(part, rules) for part in _split([text], rules)[0])
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
    if len(set(doc_ids)) < len(doc_ids):
        seen = set()
        for doc_id in doc_ids:
            if doc_id in seen:
                raise DuplicateDocId(f"duplicate document id {doc_id!r}")
            seen.add(doc_id)
    n_docs = len(doc_ids)

    parts, doc = _split([text for _, text, _ in raw_docs], rules)
    # each distinct part is decided once, at the position where it first
    # appears; terms (the distinct tokens) are numbered by first appearance,
    # so the kept ones are already in word id order
    first: dict[str, int] = {}
    at_first = np.fromiter(map(first.setdefault, parts, count()), dtype=np.intp,
                           count=len(parts))
    del parts
    terms: dict[str, int] = {}
    term_of = np.empty(len(at_first), dtype=np.intp)
    for part, pos in first.items():
        tok = _normalize(part, rules)
        term_of[pos] = -1 if tok is None else terms.setdefault(tok, len(terms))
    term = term_of[at_first]
    del first, at_first, term_of
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
    lengths = np.add.reduceat(counts, word_ptr[:-1])
    tok_ptr = np.zeros_like(word_ptr)
    np.cumsum(lengths, out=tok_ptr[1:])
    csr = TokenCSR(word_ptr, words.astype(np.intp, copy=False),
                   counts.astype(np.int32), tok_ptr)

    id_to_word = tuple(t for t, k in zip(terms, keep.tolist()) if k)
    stats = CorpusStats(
        D=len(word_ptr) - 1,
        V=len(id_to_word),
        mean_len=float(np.mean(lengths)),
        max_len=int(lengths.max()),
    )
    labels = [label for _, _, label in raw_docs]
    kept_docs = np.flatnonzero(nonempty).tolist()
    return Corpus.from_arrays(
        csr,
        [doc_ids[d] for d in kept_docs],
        [labels[d] for d in kept_docs],
        vocabulary=Vocabulary(dict(zip(id_to_word, range(len(id_to_word)))),
                              id_to_word, tuple(df[keep].tolist())),
        stats=stats,
        dropped_doc_ids=[doc_ids[d] for d in np.flatnonzero(~nonempty).tolist()],
    )


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
