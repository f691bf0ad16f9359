import dataclasses
import json
import tempfile
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsdmm.archive import read_archive, write_archive
from gsdmm.corpus import (
    Corpus,
    Document,
    TokenCSR,
    TokenRules,
    Vocabulary,
    build_corpus,
    default_stopwords,
    load_stopwords,
    read_dataset,
    tokenize,
)
from gsdmm.errors import AllDocumentsEmpty, DuplicateDocId, MalformedRecord
from gsdmm.synth import GenSpec, generate_corpus

from conftest import corpus_from_counts

RULES = TokenRules(stopword_list=frozenset({"the"}), min_df=1)


class TestTokenize:
    def test_empty_input(self):
        assert tokenize("", RULES) == []

    def test_all_stopwords(self):
        assert tokenize("The THE the", RULES) == []

    def test_rule_pipeline(self):
        # hand-traced: lowercase, split on non-alphabetic, stopword drop,
        # length filter [2, 15]
        assert tokenize("Running 2 marathons!!", RULES) == ["running", "marathons"]

    def test_length_filter(self):
        rules = TokenRules(min_word_len=3, max_word_len=5, min_df=1)
        assert tokenize("a ab abc abcd abcde abcdef", rules) == ["abc", "abcd", "abcde"]

    def test_stemming(self):
        rules = TokenRules(stemming=True, min_df=1)
        assert tokenize("running jumped cities glasses", rules) == \
            ["runn", "jump", "city", "glass"]

    @given(st.text(max_size=200))
    def test_total_function_and_filters(self, text):
        tokens = tokenize(text, RULES)
        for tok in tokens:
            assert RULES.min_word_len <= len(tok) <= RULES.max_word_len
            assert tok not in RULES.stopword_list
            assert tok == tok.lower()
            assert tok.isalpha()

    def test_invalid_rules(self):
        with pytest.raises(ValueError):
            TokenRules(min_word_len=5, max_word_len=2)
        with pytest.raises(ValueError):
            TokenRules(min_df=0)


class TestBuildCorpus:
    def test_df_threshold_boundary(self):
        docs = [("a", "budget cuts", None), ("b", "budget план", None)]
        corpus = build_corpus(docs, TokenRules(min_df=2))
        vocab = corpus.vocabulary
        assert vocab.id_to_word == ("budget",)
        assert vocab.doc_freq == (2,)

    def test_below_threshold_dropped(self):
        docs = [("a", "budget unique", None), ("b", "budget", None)]
        corpus = build_corpus(docs, TokenRules(min_df=2))
        assert "unique" not in corpus.vocabulary.word_to_id

    def test_three_doc_toy(self):
        # df table by hand: shared=2, one=1, two=1, three=1
        docs = [("d1", "shared one", None), ("d2", "shared two", None),
                ("d3", "three", None)]
        corpus = build_corpus(docs, TokenRules(min_df=2))
        assert corpus.vocabulary.size == 1
        assert corpus.stats.D == 2
        assert corpus.dropped_doc_ids == ("d3",)

    def test_duplicate_doc_id(self):
        with pytest.raises(DuplicateDocId):
            build_corpus([("x", "a b", None), ("x", "c d", None)],
                         TokenRules(min_df=1))

    def test_all_documents_empty(self):
        with pytest.raises(AllDocumentsEmpty):
            build_corpus([("a", "123 !!", None)], TokenRules(min_df=1))

    def test_idempotent_vocabulary(self):
        docs = [("a", "alpha beta gamma", None), ("b", "beta gamma delta", None)]
        c1 = build_corpus(docs, TokenRules(min_df=1))
        c2 = build_corpus(docs, TokenRules(min_df=1))
        assert c1.vocabulary == c2.vocabulary
        # ids follow first appearance in scan order
        assert c1.vocabulary.id_to_word == ("alpha", "beta", "gamma", "delta")

    def test_token_conservation(self):
        docs = [("a", "red red blue", None), ("b", "red green", None),
                ("c", "blue blue", None)]
        rules = TokenRules(min_df=2)
        corpus = build_corpus(docs, rules)
        total = sum(d.total_len for d in corpus.documents)
        kept = {"red", "blue"}  # green has df 1
        expected = sum(
            sum(1 for t in tokenize(text, rules) if t in kept)
            for _, text, _ in docs
        )
        assert total == expected

    def test_invariants(self):
        docs = [("a", "one two two", "x"), ("b", "one three", "y")]
        corpus = build_corpus(docs, TokenRules(min_df=1))
        v = corpus.vocabulary.size
        for doc in corpus.documents:
            assert doc.total_len == sum(doc.counts.values())
            for w, c in doc.counts.items():
                assert 0 <= w < v
                assert c > 0
        assert corpus.stats.mean_len == pytest.approx(
            sum(d.total_len for d in corpus.documents) / corpus.stats.D)
        assert corpus.documents[0].gold_label == "x"


class TestReadDataset:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        rows = [{"id": "a", "text": "first"}, {"id": "b", "text": "second"},
                {"id": "c", "text": "third", "label": "lab"}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        got = read_dataset(path, "jsonl")
        assert got == [("a", "first", None), ("b", "second", None),
                       ("c", "third", "lab")]

    def test_jsonl_missing_text(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "ok"}\n{"id": "b"}\n')
        with pytest.raises(MalformedRecord) as exc:
            read_dataset(path, "jsonl")
        assert exc.value.line_number == 2

    def test_tsv_three_columns(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("d1\tsports\tgame tonight\n")
        assert read_dataset(path, "tsv") == [("d1", "game tonight", "sports")]

    def test_tsv_two_columns(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("d1\tgame tonight\n")
        assert read_dataset(path, "tsv") == [("d1", "game tonight", None)]

    def test_tsv_wrong_columns(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("only-one-column\n")
        with pytest.raises(MalformedRecord):
            read_dataset(path, "tsv")

    def test_missing_file(self):
        with pytest.raises(OSError):
            read_dataset("/nonexistent/file.jsonl", "jsonl")


class TestStopwords:
    def test_default_list_nonempty(self):
        words = default_stopwords()
        assert "the" in words and "and" in words
        assert len(words) > 100

    def test_load_custom(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("foo\nbar\n\n")
        assert load_stopwords(path) == frozenset({"foo", "bar"})


class TestTokenViews:
    @staticmethod
    def _per_document(doc):
        """Reference: one document's views built on their own."""
        words = np.fromiter(doc.counts, dtype=np.intp)
        counts = np.fromiter(doc.counts.values(), dtype=np.int32)
        occ = [np.arange(c, dtype=np.float64) for c in counts]
        return (words, counts, np.repeat(words, counts),
                np.concatenate(occ) if occ else np.zeros(0), doc.total_len)

    def test_match_per_document_construction(self):
        docs = [{}, {3: 2, 0: 1}, {}, {1: 4}, {0: 1, 1: 1, 2: 3, 4: 2}, {}]
        corpus = corpus_from_counts(docs, 5)
        assert len(corpus.token_views) == len(docs)
        for view, doc in zip(corpus.token_views, corpus.documents):
            want = self._per_document(doc)
            for got, ref in zip(view[:4], want[:4]):
                assert got.dtype == ref.dtype
                assert np.array_equal(got, ref)
            assert view[4] == want[4]

    def test_empty_corpus(self):
        assert corpus_from_counts([], 3).token_views == ()


# ---------------------------------------------------------------------------
# the facts derived from the token arrays, whichever way a corpus is built

_WORDS = ["apple", "bank", "cider", "delta", "ember", "fjord", "gale", "harp"]


@st.composite
def _documents_corpus(draw) -> Corpus:
    """Corpus(documents=...), with documents that hold no words."""
    v = draw(st.integers(1, 8))
    docs = []
    for d in range(draw(st.integers(0, 12))):
        ids = draw(st.lists(st.integers(0, v - 1), max_size=v, unique=True))
        docs.append(Document(f"d{d}", {w: draw(st.integers(1, 50)) for w in ids},
                             gold_label=draw(st.sampled_from(["x", None]))))
    return Corpus(documents=docs, vocabulary=Vocabulary(tuple(_WORDS[:v]), (1,) * v))


@st.composite
def _generated_corpus(draw) -> Corpus:
    spec = GenSpec(k=draw(st.integers(1, 4)), v=draw(st.integers(2, 40)),
                   d=draw(st.integers(0, 30)), doc_len=draw(st.integers(1, 9)),
                   length_dist=draw(st.sampled_from(["fixed", "poisson"])),
                   seed=draw(st.integers(0, 2 ** 16)))
    return generate_corpus(spec)[0]


@st.composite
def _built_corpus(draw) -> Corpus:
    """build_corpus, with documents that filtering empties."""
    texts = draw(st.lists(st.lists(st.sampled_from(_WORDS + ["a", "the"]),
                                   max_size=10).map(" ".join), min_size=1,
                          max_size=12))
    texts[0] += " apple"  # one word survives
    rules = TokenRules(stopword_list=frozenset({"the"}),
                       min_df=draw(st.integers(1, 2)))
    if rules.min_df == 2:
        texts.append("apple")
    return build_corpus([(f"r{i}", text, None) for i, text in enumerate(texts)],
                        rules)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(source=st.sampled_from(["documents", "generated", "built", "archive"]),
       data=st.data())
def test_derived_facts(source, data):
    draw = {"documents": _documents_corpus, "built": _built_corpus}.get(
        source, _generated_corpus)
    corpus = data.draw(draw())
    with tempfile.TemporaryDirectory() as tmp:
        if source == "archive":
            write_archive(corpus, tmp)
            corpus = read_archive(tmp)
        csr = corpus.token_csr
        wp = csr.word_ptr.tolist()
        sums = [int(csr.counts[a:b].sum()) for a, b in zip(wp, wp[1:])]
        assert csr.tok_ptr.dtype == np.int64
        assert csr.tok_ptr.tolist() == [0, *accumulate(sums)]
        assert [doc.total_len for doc in corpus.documents] == sums
        write_archive(corpus, tmp)
        written = json.loads((Path(tmp) / "stats.json").read_text(encoding="utf-8"))
    assert written.pop("dropped_doc_ids") == list(corpus.dropped_doc_ids)
    assert written == dataclasses.asdict(corpus.stats)
    assert corpus.stats.D == len(sums) and corpus.stats.V == corpus.vocabulary.size
    assert corpus.stats.max_len == max(sums, default=0)
    assert corpus.stats.mean_len == (float(np.mean(sums)) if sums else 0.0)
    vocab = corpus.vocabulary
    assert [vocab.word_to_id[word] for word in vocab.id_to_word] == \
        list(range(vocab.size))
    assert len(vocab.word_to_id) == vocab.size


# ---------------------------------------------------------------------------
# per-item arrays that disagree, or counts no bag of words holds, are
# refused when a corpus is built

_VOCAB = Vocabulary(("apple", "bank"), (2, 2))


def _three_rows() -> TokenCSR:
    return TokenCSR.from_rows([[0], [1], [0, 1]], [[1], [2], [1, 1]])


def _two_rows(word_ptr, counts) -> Corpus:
    """Documents x and y over the words [0, 1], with these rows and counts."""
    return Corpus.from_arrays(
        TokenCSR(np.array(word_ptr, dtype=np.int64), np.array([0, 1], dtype=np.intp),
                 np.array(counts, dtype=np.int32)),
        ["x", "y"], [None, None], _VOCAB)


@pytest.mark.parametrize("build, message", [
    (lambda: Corpus.from_arrays(_three_rows(), ["a", "b"], ["x", "y", "z"], _VOCAB),
     "2 doc ids, 3 gold labels and 3 token rows"),
    (lambda: Corpus.from_arrays(_three_rows(), ["a", "b", "c"], ["x"], _VOCAB),
     "3 doc ids, 1 gold labels and 3 token rows"),
    (lambda: Corpus.from_arrays(TokenCSR.from_rows([[0], [5]], [[1], [1]]),
                                ["a", "b"], [None, None], _VOCAB),
     r"word id 5 outside \[0, 2\)"),
    (lambda: Corpus([Document("a", {0: 1}), Document("b", {1: 1, 5: 2})], _VOCAB),
     r"word id 5 outside \[0, 2\)"),
    (lambda: Corpus([Document("a", {-1: 1})], _VOCAB),
     r"word id -1 outside \[0, 2\)"),
    (lambda: Vocabulary(("apple", "bank"), (1,)),
     "2 words but 1 document frequencies"),
    # counts no bag of words holds, which read_archive refuses too
    (lambda: Corpus([Document("a", {0: 1}), Document("c", {1: -1, 0: 2})], _VOCAB),
     "document 'c' has count -1 for word id 1"),
    (lambda: Corpus.from_arrays(TokenCSR.from_rows([[0], [1, 0]], [[1], [0, 2]]),
                                ["a", "c"], [None, None], _VOCAB),
     "document 'c' has count 0 for word id 1"),
    (lambda: Corpus.from_arrays(TokenCSR.from_rows([[1], [], [0, 0]],
                                                   [[1], [], [1, 1]]),
                                ["a", "b", "c"], [None] * 3, _VOCAB),
     "document 'c' names a word id twice"),
    (lambda: Corpus.from_arrays(TokenCSR.from_rows([[1, 0], [1, 0, 1]],
                                                   [[1, 1], [2, 1, 1]]),
                                ["a", "c"], [None] * 2, _VOCAB),
     "document 'c' names a word id twice"),
    # rows that do not cover the words once, in order, and counts that do
    # not match the words: each would report a wrong corpus
    (lambda: _two_rows([0, 2, 1], [1, 1]),
     "word_ptr must start at 0, never fall and end at 2, the number of words"),
    (lambda: _two_rows([0, 1, 5], [1, 1]), "word_ptr must start at 0"),
    (lambda: _two_rows([1, 1, 2], [1, 1]), "word_ptr must start at 0"),
    (lambda: _two_rows([0, 1, 2], [1, 1, 1]), "corpus has 2 words and 3 counts"),
], ids=["fewer-ids", "fewer-labels", "word-past-v", "document-word-past-v",
        "negative-word", "vocabulary", "document-negative-count",
        "zero-count", "repeated-word", "repeated-word-unsorted",
        "rows-fall", "rows-end-past-words", "rows-start-past-0",
        "more-counts-than-words"])
def test_disagreeing_arrays_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()
