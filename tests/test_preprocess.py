"""Preprocessing against the line-by-line references it replaced:
read_dataset, tokenize, build_corpus and write_archive as they were before
they worked in whole-corpus passes are kept here as oracles, and
hypothesis compares the two on raw datasets, rules and corpora. Also: the
fields an archive refuses, the in-memory word order, and demo 04."""

import functools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsdmm import cli
from gsdmm.archive import MISSING_LABEL, read_archive, write_archive
from gsdmm.corpus import (
    Corpus,
    Document,
    TokenCSR,
    TokenRules,
    Vocabulary,
    _stem,
    build_corpus,
    default_stopwords,
    read_dataset,
    tokenize,
)
from gsdmm.errors import (
    AllDocumentsEmpty,
    ConfigError,
    DuplicateDocId,
    MalformedRecord,
)
from gsdmm.sampler import RunConfig, run_gsdmm
from gsdmm.synth import GenSpec, generate_corpus

from conftest import PATHS, corpus_from_counts, kernel_path

ROOT = Path(__file__).resolve().parents[1]

# ---------------------------------------------------------------------------
# the references: the code as it was, one document and one token at a time

_REF_NON_ALPHA = re.compile(r"[^a-z]+")


def reference_tokenize(text: str, rules: TokenRules) -> list[str]:
    tokens = []
    for tok in _REF_NON_ALPHA.split(text.lower()):
        if not tok or tok in rules.stopword_list:
            continue
        if rules.stemming:
            tok = _stem(tok)
        if rules.min_word_len <= len(tok) <= rules.max_word_len:
            tokens.append(tok)
    return tokens


def reference_build_corpus(raw_docs, rules: TokenRules) -> Corpus:
    """One Document per kept document, its words in first-appearance order."""
    seen_ids = set()
    tokenized = []
    for doc_id, text, label in raw_docs:
        if doc_id in seen_ids:
            raise DuplicateDocId(f"duplicate document id {doc_id!r}")
        seen_ids.add(doc_id)
        tokenized.append((doc_id, reference_tokenize(text, rules), label))

    df: dict[str, int] = {}
    for _, tokens, _ in tokenized:
        for word in set(tokens):
            df[word] = df.get(word, 0) + 1

    word_to_id: dict[str, int] = {}
    id_to_word: list[str] = []
    documents: list[Document] = []
    dropped: list[str] = []
    for doc_id, tokens, label in tokenized:
        counts: dict[int, int] = {}
        for word in tokens:
            if df[word] < rules.min_df:
                continue
            wid = word_to_id.get(word)
            if wid is None:
                wid = len(id_to_word)
                word_to_id[word] = wid
                id_to_word.append(word)
            counts[wid] = counts.get(wid, 0) + 1
        if not counts:
            dropped.append(doc_id)
            continue
        documents.append(Document(doc_id=doc_id, counts=counts, gold_label=label))

    if not documents:
        raise AllDocumentsEmpty(
            f"no documents left after filtering ({len(raw_docs)} inputs)")
    return Corpus(
        documents=tuple(documents),
        vocabulary=Vocabulary(tuple(id_to_word),
                              tuple(df[word] for word in id_to_word)),
        dropped_doc_ids=tuple(dropped),
    )


def reference_write_archive(corpus: Corpus, outdir) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    vocab = corpus.vocabulary
    with open(out / "vocabulary.tsv", "w", encoding="utf-8") as fh:
        for wid, word in enumerate(vocab.id_to_word):
            fh.write(f"{wid}\t{word}\t{vocab.doc_freq[wid]}\n")
    with open(out / "documents.txt", "w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            label = doc.gold_label if doc.gold_label is not None else MISSING_LABEL
            pairs = " ".join(f"{w}:{c}" for w, c in sorted(doc.counts.items()))
            fh.write(f"{doc.doc_id}\t{label}\t{pairs}\n")
    stats = {"D": corpus.stats.D, "V": corpus.stats.V,
             "mean_len": corpus.stats.mean_len, "max_len": corpus.stats.max_len,
             "dropped_doc_ids": list(corpus.dropped_doc_ids)}
    with open(out / "stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, sort_keys=True, indent=2)
        fh.write("\n")


def reference_read_dataset(path, format: str = "jsonl"):
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
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
                        lineno)
    return records


def archive_bytes(writer, corpus: Corpus) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        writer(corpus, tmp)
        return {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}


# ---------------------------------------------------------------------------
# raw datasets and rules

# words that exercise stemming, case, stopwords and non-ASCII letters:
# the Kelvin sign (U+212A) lowercases to an ASCII k, U+0130 to i and a
# combining dot
_WORDS = ["running", "cities", "glasses", "jumped", "quickly", "bus", "cats",
          "the", "The", "THE", "of", "a", "ab", "senate", "Senate", "vote",
          "votes", "\u212aelvin", "\u212a", "\u0130stanbul", "\u0130",
          "ΑΣ", "σοφός",
          "é", "café", "straße", "中文", "don't", "x1y", "42", "a-b", "wORD"]
_SEPARATORS = [" ", "  ", "\n", "\t", "\x00", "\x0b", "\x85", "\u3000", ",",
               ". ", "!", "\r\n", ""]


@st.composite
def texts(draw) -> str:
    pieces = draw(st.lists(st.one_of(st.sampled_from(_WORDS),
                                     st.text(max_size=4)), max_size=8))
    out = []
    for piece in pieces:
        out.append(piece)
        out.append(draw(st.sampled_from(_SEPARATORS)))
    return "".join(out)


@st.composite
def token_rules(draw) -> TokenRules:
    lo = draw(st.integers(1, 4))
    return TokenRules(
        stopword_list=draw(st.sampled_from(
            [frozenset(), frozenset({"the", "of", "a"}), default_stopwords()])),
        stemming=draw(st.booleans()),
        min_word_len=lo,
        max_word_len=draw(st.integers(lo, 12)),
        min_df=draw(st.integers(1, 3)),
    )


_IDS = st.text("abcXYZ019_-.é中", min_size=1, max_size=4)
_LABEL = st.one_of(st.none(), st.text("cxyλ0", min_size=1, max_size=3))


@st.composite
def raw_datasets(draw):
    n = draw(st.integers(0, 12))
    ids = draw(st.lists(_IDS, min_size=n, max_size=n, unique=True))
    if n >= 2 and draw(st.integers(0, 9)) == 0:
        ids[draw(st.integers(1, n - 1))] = ids[0]  # a duplicate
    return [(doc_id, draw(texts()), draw(_LABEL)) for doc_id in ids]


def _built(builder, records, rules):
    try:
        return "ok", builder(records, rules)
    except (DuplicateDocId, AllDocumentsEmpty) as exc:
        return type(exc).__name__, str(exc)


def assert_same_corpus(got: Corpus, want: Corpus) -> None:
    assert got.vocabulary == want.vocabulary
    assert got.stats == want.stats
    assert got.stats.mean_len.hex() == want.stats.mean_len.hex()
    assert got.doc_ids == want.doc_ids
    assert got.gold_labels == want.gold_labels
    assert got.dropped_doc_ids == want.dropped_doc_ids
    assert [doc.counts for doc in got.documents] == \
        [doc.counts for doc in want.documents]
    assert [doc.total_len for doc in got.documents] == \
        [doc.total_len for doc in want.documents]
    # in memory too, each document's words rise, as on its archive line
    csr = got.token_csr
    for a, b in zip(csr.word_ptr[:-1].tolist(), csr.word_ptr[1:].tolist()):
        assert (np.diff(csr.words[a:b]) > 0).all()
    assert archive_bytes(write_archive, got) == \
        archive_bytes(reference_write_archive, want)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(records=raw_datasets(), rules=token_rules())
@example(records=[("a", "Budget \u212aelvin \u0130stanbul", "x"),
                  ("b", "budget kelvin i\u0307stanbul", None)],
         rules=TokenRules(min_df=2))
@example(records=[("a", "the of", "x"), ("b", "ΑΣ\x00ΒΑΣ σ\x00", "y")],
         rules=TokenRules(min_df=1))
@example(records=[("a", "ab\x00cd\x00", None), ("b", "\x00ab", None),
                  ("c", "", None), ("d", "cd\nab", None)],
         rules=TokenRules(min_df=1))
@example(records=[("a", "x y", None), ("b", "y z", None), ("a", "z", None),
                  ("b", "q", None)], rules=TokenRules(min_df=1))
@example(records=[("a", "123 !!", None)], rules=TokenRules(min_df=1))
@example(records=[], rules=TokenRules())
# a lone surrogate, as JSON's \ud800 gives one, and a 100k-letter run
@example(records=[("a", json.loads('"ab\\ud800cd \\udfffef"'), None),
                  ("b", "ab cd ef", None)], rules=TokenRules(min_df=1))
@example(records=[("a", "q" * 100_000 + " beta", None),
                  ("b", "beta " + "q" * 100_000, None)],
         rules=TokenRules(min_df=1, max_word_len=100_000))
def test_build_corpus_matches_reference(records, rules):
    # on the compiled byte scan and on the regex pass it replaces
    want = _built(reference_build_corpus, records, rules)
    for path in PATHS:
        with kernel_path(path):
            got = _built(build_corpus, records, rules)
        assert got[0] == want[0], path
        if want[0] == "ok":
            assert_same_corpus(got[1], want[1])
        else:
            assert got == want
    for _, text, _ in records:
        assert tokenize(text, rules) == reference_tokenize(text, rules)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(text=texts(), rules=token_rules())
def test_tokenize_matches_reference(text, rules):
    assert tokenize(text, rules) == reference_tokenize(text, rules)


# ---------------------------------------------------------------------------
# read_dataset

_RECORD_VALUES = st.one_of(st.text(max_size=6), st.integers(-5, 5), st.none(),
                           st.booleans(), st.floats(allow_nan=False),
                           st.lists(st.integers(0, 3), max_size=2))


@st.composite
def jsonl_lines(draw) -> list[str]:
    """JSONL lines, most of them good records, some broken in the ways
    a bulk parse of the joined lines could mistake for good ones."""
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        obj = {"id": draw(_RECORD_VALUES), "text": draw(_RECORD_VALUES)}
        if draw(st.booleans()):
            obj["label"] = draw(_RECORD_VALUES)
        kind = draw(st.sampled_from(
            ["good"] * 8 + ["blank", "no_id", "no_text", "list", "bad_json",
                            "two_objects", "split", "spaces", "number"]))
        text = json.dumps(obj, ensure_ascii=draw(st.booleans()))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\x0b", "\u3000"])))
        elif kind == "no_id":
            lines.append(json.dumps({"text": "x"}))
        elif kind == "no_text":
            lines.append(json.dumps({"id": "x"}))
        elif kind == "list":
            lines.append(json.dumps([obj]))
        elif kind == "bad_json":
            lines.append(text[:-1])
        elif kind == "two_objects":
            lines.append(text + draw(st.sampled_from([",", " , ", ",\t"])) + text)
        elif kind == "split":  # one object over two lines
            lines.extend([text[:-1] + ', "z": [1', "2]}"])
        elif kind == "spaces":
            lines.append(" \t" + text + "  ")
        elif kind == "number":
            lines.append("7")
        else:
            lines.append(text)
    return lines


def _read(reader, path, fmt):
    try:
        return "ok", reader(path, fmt)
    except MalformedRecord as exc:
        return "malformed", str(exc), exc.line_number


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lines=jsonl_lines(), ending=st.sampled_from(["\n", "\r\n", "\r"]),
       final=st.booleans())
@example(lines=['{"id": "a", "text": "x", "z": [{"q": 1}',
                '{"r": 2}]}',
                '{"id": "b", "text": "y"},{"id": "c", "text": "z"}'],
         ending="\n", final=True)
@example(lines=['{"id": "a", "text": "x", "z": [1', '2]}', '{"id": "b", "text": "y"}'],
         ending="\n", final=True)
@example(lines=['{"id": "a", "text": "},{"}', '{"id": 1, "text": 2, "label": null}'],
         ending="\n", final=False)
def test_read_dataset_matches_reference(tmp_path_factory, lines, ending, final):
    path = tmp_path_factory.mktemp("jsonl") / "data.jsonl"
    path.write_bytes((ending.join(lines) + (ending if final else ""))
                     .encode("utf-8"))
    assert _read(read_dataset, path, "jsonl") == \
        _read(reference_read_dataset, path, "jsonl")


@settings(derandomize=True, deadline=None, max_examples=100)
@given(rows=st.lists(st.text(st.characters(blacklist_characters="\r\n"),
                             max_size=12), max_size=8))
def test_read_tsv_matches_reference(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("tsv") / "data.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert _read(read_dataset, path, "tsv") == \
        _read(reference_read_dataset, path, "tsv")


# ---------------------------------------------------------------------------
# write_archive on Document-built corpora

@settings(derandomize=True, deadline=None, max_examples=100)
@given(docs=st.lists(st.dictionaries(st.integers(0, 29), st.integers(1, 10 ** 6),
                                     max_size=8), min_size=1, max_size=20),
       labels=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_writer_matches_reference_on_unsorted_documents(docs, labels, seed):
    shuffle = random.Random(seed).shuffle
    unsorted = []
    for counts in docs:
        items = list(counts.items())
        shuffle(items)
        unsorted.append(dict(items))
    corpus = corpus_from_counts(
        unsorted, 30, [f"t{i % 3}" for i in range(len(docs))] if labels else None)
    assert archive_bytes(write_archive, corpus) == \
        archive_bytes(reference_write_archive, corpus)


# the smoke sizes of the benchmark's three sampler workloads, whose
# archives perfbench writes through write_archive
SAMPLER_SPECS = [
    dict(k=5, v=1000, d=300, doc_len=10, length_dist="fixed", beta_gen=0.01),
    dict(k=5, v=500, d=300, doc_len=12, length_dist="poisson", beta_gen=0.05),
    dict(k=6, v=1000, d=300, doc_len=10, length_dist="poisson", beta_gen=0.01),
]


@pytest.mark.parametrize("spec", SAMPLER_SPECS)
@pytest.mark.parametrize("seed", [1, 7])
def test_writer_matches_reference_on_generated_corpora(spec, seed):
    corpus, _, _, _ = generate_corpus(GenSpec(seed=seed, **spec))
    assert archive_bytes(write_archive, corpus) == \
        archive_bytes(reference_write_archive, corpus)


_ID_LETTERS = "abzé中ж0_-."
_WRITE_LABELS = ["c0", "ключ", "標籤", "x_y", None]


@functools.cache
def _vocabulary(v: int) -> Vocabulary:
    return Vocabulary(tuple(f"w{i}" for i in range(v)), (1,) * v)


def _written_corpus(v: int, rows, doc_ids, labels, from_documents: bool) -> Corpus:
    """A corpus of the rows (word ids, counts), built from Documents in the
    rows' order or from arrays with each row's ids sorted."""
    if from_documents:
        return Corpus(documents=tuple(
            Document(doc_id, dict(zip(*row)), gold_label=label)
            for doc_id, label, row in zip(doc_ids, labels, rows)),
            vocabulary=_vocabulary(v))
    rows = [sorted(zip(*row)) for row in rows]
    csr = TokenCSR.from_rows([[w for w, _ in row] for row in rows],
                             [[c for _, c in row] for row in rows])
    return Corpus.from_arrays(csr, doc_ids, labels, _vocabulary(v))


@st.composite
def written_corpora(draw) -> Corpus:
    """Corpora of V up to 10**5 and counts up to 2**31 - 1, with non-ASCII
    doc ids and labels and missing labels, built either way."""
    v = draw(st.integers(1, 10 ** 5))
    rows, doc_ids, labels = [], [], []
    for d in range(draw(st.integers(1, 12))):
        words = draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=6,
                              unique=True))
        rows.append((words, draw(st.lists(st.integers(1, 2 ** 31 - 1),
                                          min_size=len(words),
                                          max_size=len(words)))))
        doc_ids.append(draw(st.text(_ID_LETTERS, max_size=3)) + str(d))
        labels.append(draw(st.sampled_from(_WRITE_LABELS)))
    return _written_corpus(v, rows, doc_ids, labels, draw(st.booleans()))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(corpus=written_corpora())
@example(corpus=_written_corpus(
    10 ** 5, [([99_999, 0, 5], [2 ** 31 - 1, 1, 10]), ([7], [1])], ["é1", "中"],
    ["ключ", None], from_documents=True))
@example(corpus=_written_corpus(
    10 ** 5, [([0, 99_999], [1, 2 ** 31 - 1])], ["a"], [None], from_documents=False))
def test_writer_matches_reference_on_both_paths(corpus):
    want = archive_bytes(reference_write_archive, corpus)
    for path in PATHS:
        with kernel_path(path):
            assert archive_bytes(write_archive, corpus) == want, path


# ---------------------------------------------------------------------------
# fields an archive refuses

def _corpus_with(doc_id: str, label: str | None) -> Corpus:
    return Corpus(
        documents=(Document("ok", {0: 1}, gold_label="x"),
                   Document(doc_id, {0: 2}, gold_label=label)),
        vocabulary=Vocabulary(("w",), (2,)),
    )


@pytest.mark.parametrize("space", ["\r", "\r\n", "\x0b", "\x85", " ", "\t", "\n",
                                   "\x1c", "\u3000"])
@pytest.mark.parametrize("field", ["doc_id", "label"])
def test_whitespace_refused_before_any_file(tmp_path, space, field):
    value = f"b{space}c"
    corpus = _corpus_with(value, "y") if field == "doc_id" \
        else _corpus_with("b", value)
    out = tmp_path / "archive"
    with pytest.raises(ConfigError, match="whitespace-free fields") as exc:
        write_archive(corpus, out)
    assert repr(value) in str(exc.value)
    assert not out.exists()


@pytest.mark.parametrize("brk", ["\t", "\n", "\r", "\r\n"])
def test_vocabulary_word_with_a_break_refused_before_any_file(tmp_path, brk):
    # the word would split its vocabulary.tsv line, which read_archive
    # then refused as "expected id<TAB>word<TAB>df"
    word = f"b{brk}c"
    corpus = Corpus(documents=(Document("a", {0: 1, 1: 2}),),
                    vocabulary=Vocabulary(("w", word), (1, 1)))
    out = tmp_path / "archive"
    with pytest.raises(ConfigError, match="vocabulary word") as exc:
        write_archive(corpus, out)
    assert repr(word) in str(exc.value)
    assert not out.exists()
    # other whitespace in a word round-trips
    corpus = Corpus(documents=(Document("a", {0: 1, 1: 2}),),
                    vocabulary=Vocabulary(("w", "b c\x0b\x85"), (1, 1)))
    write_archive(corpus, out)
    assert read_archive(out).vocabulary == corpus.vocabulary


def test_comma_in_doc_id_refused_before_any_file(tmp_path):
    out = tmp_path / "archive"
    with pytest.raises(ConfigError, match="'a,1' contains a comma"):
        write_archive(_corpus_with("a,1", None), out)
    assert not out.exists()
    # a label may hold one: assignments.csv holds no labels
    write_archive(_corpus_with("a1", "x,y"), out)
    assert read_archive(out).gold_labels == ("x", "x,y")


@pytest.mark.parametrize("doc_id", ["b\rc", "a,1"])
def test_preprocess_refuses_unusable_ids(tmp_path, doc_id, capsys):
    data = tmp_path / "data.jsonl"
    data.write_text("\n".join(json.dumps({"id": i, "text": "alpha beta"})
                              for i in ("a", doc_id)) + "\n", encoding="utf-8")
    assert cli.main(["preprocess", str(data), str(tmp_path / "archive")]) == 3
    assert repr(doc_id) in capsys.readouterr().err
    assert not (tmp_path / "archive").exists()


def test_cluster_refuses_comma_in_hand_written_archive(tmp_path, capsys):
    archive = tmp_path / "archive"
    archive.mkdir()
    (archive / "vocabulary.tsv").write_text("0\tw\t2\n", encoding="utf-8")
    (archive / "documents.txt").write_text("a\t-\t0:1\na,1\t-\t0:2\n",
                                           encoding="utf-8")
    (archive / "stats.json").write_text(json.dumps(
        {"D": 2, "V": 1, "mean_len": 1.5, "max_len": 2}), encoding="utf-8")
    run = tmp_path / "run"
    assert cli.main(["cluster", str(archive), str(run), "--kmax", "2"]) == 3
    assert "'a,1' contains a comma" in capsys.readouterr().err
    assert not run.exists()


# ---------------------------------------------------------------------------
# the library path and the command path give the same chain

def test_in_memory_corpus_matches_its_archive(tmp_path):
    corpus, _, _, _ = generate_corpus(
        GenSpec(k=3, v=120, d=80, doc_len=8, length_dist="poisson", seed=11))
    rng = random.Random(11)
    rows = []
    for doc in corpus.documents:  # words in a shuffled order, as raw text has them
        tokens = [corpus.vocabulary.id_to_word[w]
                  for w, c in doc.counts.items() for _ in range(c)]
        rng.shuffle(tokens)
        rows.append({"id": doc.doc_id, "text": " ".join(tokens),
                     "label": doc.gold_label})
    data = tmp_path / "raw.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    rules = TokenRules(stopword_list=default_stopwords(), min_df=2)
    built = build_corpus(read_dataset(data), rules)
    cfg = RunConfig(k_max=10, iterations=3, seed=5)
    assignments, _, _ = run_gsdmm(built, cfg)

    archive, run = tmp_path / "archive", tmp_path / "run"
    assert cli.main(["preprocess", str(data), str(archive)]) == 0
    assert cli.main(["cluster", str(archive), str(run), "--kmax", "10",
                     "--iters", "3", "--seed", "5"]) == 0
    lines = (run / "assignments.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert lines == [f"{d},{z}" for d, z in zip(built.doc_ids, assignments.tolist())]
    read = read_archive(archive)
    assert np.array_equal(read.token_csr.words, built.token_csr.words)
    assert np.array_equal(read.token_csr.counts, built.token_csr.counts)


def test_preprocess_builds_no_documents(tmp_path, monkeypatch):
    built = []
    derive = Corpus.documents

    def documents(self):
        built.append(self)
        return derive.__get__(self, Corpus)

    monkeypatch.setattr(Corpus, "documents", property(documents))
    data = tmp_path / "data.jsonl"
    assert cli.main(["synth", str(data), "--k", "3", "--v", "60", "--d", "40"]) == 0
    built.clear()  # synth builds its corpus from Documents
    assert cli.main(["preprocess", str(data), str(tmp_path / "archive")]) == 0
    assert built == []


def test_demo_04_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "04_preprocess_and_topwords.py")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "-> ['senate', 'votes', 'budget', 'bill', 'tonight']" in proc.stdout
    assert "non-empty clusters:" in proc.stdout
