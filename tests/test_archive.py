"""The corpus archive: the array reader against a line-by-line reference
reader, round trips and corruptions drawn by hypothesis, and the guard
that the run path never builds per-document objects."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdmm import _native, cli
from gsdmm.archive import MISSING_LABEL, read_archive, write_archive
from gsdmm.corpus import Corpus, CorpusStats, Document, Vocabulary
from gsdmm.errors import MalformedRecord
from gsdmm.sampler import RunConfig, run_gsdmm, run_gsdmm_plus
from gsdmm.synth import GenSpec, generate_corpus


def reference_read_archive(indir) -> Corpus:
    """The archive reader as it was before read_archive parsed into arrays:
    one line at a time, int() on every pair, one Document per line. Kept
    as the oracle for the array reader; it accepts what int() accepts."""
    src = Path(indir)
    for name in ("vocabulary.tsv", "documents.txt", "stats.json"):
        if not (src / name).exists():
            raise FileNotFoundError(src / name)
    id_to_word: list[str] = []
    doc_freq: list[int] = []
    with open(src / "vocabulary.tsv", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            cols = line.rstrip("\n").split("\t")
            if len(cols) != 3:
                raise MalformedRecord("expected id<TAB>word<TAB>df", lineno)
            if int(cols[0]) != len(id_to_word):
                raise MalformedRecord("vocabulary ids out of order", lineno)
            id_to_word.append(cols[1])
            doc_freq.append(int(cols[2]))
    documents: list[Document] = []
    seen: set[str] = set()
    v = len(id_to_word)
    with open(src / "documents.txt", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            cols = line.rstrip("\n").split("\t")
            if len(cols) != 3:
                raise MalformedRecord("expected doc_id<TAB>label<TAB>counts", lineno)
            doc_id, label, blob = cols
            if doc_id in seen:
                raise MalformedRecord(f"duplicate doc id {doc_id!r}", lineno)
            seen.add(doc_id)
            pairs = blob.split()
            counts: dict[int, int] = {}
            for pair in pairs:
                w, c = pair.split(":")
                counts[int(w)] = int(c)
            if not counts:
                raise MalformedRecord("empty document in archive", lineno)
            if len(counts) != len(pairs):
                raise MalformedRecord("repeated word id in document", lineno)
            lo, hi = min(counts), max(counts)
            if lo < 0 or hi >= v:
                raise MalformedRecord(
                    f"word id {lo if lo < 0 else hi} outside [0, {v})", lineno)
            if min(counts.values()) < 1:
                raise MalformedRecord(f"count {min(counts.values())} < 1", lineno)
            documents.append(Document(
                doc_id=doc_id,
                counts=counts,
                total_len=sum(counts.values()),
                gold_label=None if label == MISSING_LABEL else label,
            ))
    text = (src / "stats.json").read_text(encoding="utf-8")
    stats = json.loads(text)
    for key, actual in (("D", len(documents)), ("V", v)):
        if stats.get(key) != actual:
            line = next((i for i, row in enumerate(text.splitlines(), start=1)
                         if f'"{key}"' in row), 1)
            raise MalformedRecord(
                f"stats.json gives {key}={stats.get(key)}, the archive has {actual}",
                line)
    return Corpus(
        documents=tuple(documents),
        vocabulary=Vocabulary(
            word_to_id={w: i for i, w in enumerate(id_to_word)},
            id_to_word=tuple(id_to_word),
            doc_freq=tuple(doc_freq),
        ),
        stats=CorpusStats(D=stats["D"], V=stats["V"],
                          mean_len=stats["mean_len"], max_len=stats["max_len"]),
        dropped_doc_ids=tuple(stats.get("dropped_doc_ids", [])),
    )


ROWS = ("word_ptr", "words", "counts", "tok_ptr")


def assert_same_arrays(a: Corpus, b: Corpus, tokens: bool = True) -> None:
    """Equal token arrays, dtypes included; with tokens, also the per-token
    arrays and the per-document views."""
    for name in ROWS + ("word_rep", "occ") * tokens:
        x, y = getattr(a.token_csr, name), getattr(b.token_csr, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
    if not tokens:
        return
    assert len(a.token_views) == len(b.token_views)
    for va, vb in zip(a.token_views, b.token_views):
        for x, y in zip(va[:4], vb[:4]):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert va[4] == vb[4] and type(va[4]) is type(vb[4])


def _corpus(docs: list[Document], words: list[str]) -> Corpus:
    lengths = [doc.total_len for doc in docs]
    return Corpus(
        documents=tuple(docs),
        vocabulary=Vocabulary({w: i for i, w in enumerate(words)}, tuple(words),
                              tuple(1 for _ in words)),
        stats=CorpusStats(D=len(docs), V=len(words),
                          mean_len=float(np.mean(lengths)), max_len=max(lengths)),
    )


_LETTERS = "abcxyzéλжß中文ñ"
_LABELS = ["c0", "c1", "ключ", "標籤", None]


@st.composite
def corpora(draw) -> Corpus:
    """Small corpora: D 1-40, V 1-60, counts up to 10**6, labels missing
    at random, non-ASCII words and labels. Each document's word ids are
    sorted, the order write_archive gives them."""
    v = draw(st.integers(1, 60))
    words = [draw(st.text(_LETTERS, min_size=1, max_size=6)) + str(i)
             for i in range(v)]
    docs = []
    for d in range(draw(st.integers(1, 40))):
        ids = draw(st.lists(st.integers(0, v - 1), min_size=1,
                            max_size=min(v, 8), unique=True))
        counts = {w: draw(st.integers(1, 10 ** 6)) for w in sorted(ids)}
        docs.append(Document(doc_id=f"d{d}é", counts=counts,
                             total_len=sum(counts.values()),
                             gold_label=draw(st.sampled_from(_LABELS))))
    return _corpus(docs, words)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(corpora())
def test_round_trip(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        write_archive(corpus, tmp)
        back = read_archive(tmp)
        assert back.documents == corpus.documents
        assert back.doc_ids == corpus.doc_ids
        assert back.gold_labels == corpus.gold_labels
        assert back.vocabulary == corpus.vocabulary
        assert back.stats == corpus.stats
        # counts up to 10**6 would make the per-token arrays large
        assert_same_arrays(back, corpus, tokens=False)
        reference = reference_read_archive(tmp)
        assert reference.documents == back.documents


# forms int() accepted but an archive pair no longer may
LENIENT = {"plus", "minus_zero", "underscore", "arabic_digit"}
EDITS = ["non_digit", "no_colon", "extra_colon", "extra_tab", "minus_one",
         "id_v", "count_zero", "repeated_word", "blank_line", "duplicate_id",
         "crlf", "double_spaces", *sorted(LENIENT)]


def _edit(lines: list[str], i: int, j: int, kind: str, v: int) -> list[str]:
    """lines with line i changed by one edit to its pair j."""
    doc_id, label, blob = lines[i].rstrip("\n").split("\t")
    pairs = blob.split(" ")
    j %= len(pairs)
    w, c = pairs[j].split(":")
    pair = {
        "non_digit": f"{w}x:{c}",
        "no_colon": f"{w}{c}",
        "extra_colon": f"{w}:{c}:1",
        "minus_one": f"-1:{c}",
        "id_v": f"{v}:{c}",
        "count_zero": f"{w}:0",
        "plus": f"+{w}:{c}",
        "minus_zero": f"-0:{c}",
        "underscore": f"{w[0]}_{w[1:]}:{c}" if len(w) > 1 else f"0_{w}:{c}",
        "arabic_digit": f"{w}:{c[:-1]}٥",
    }.get(kind, pairs[j])
    pairs[j] = pair
    sep = "  " if kind == "double_spaces" else " "
    blob = sep.join(pairs) + ("  " if kind == "double_spaces" else "")
    if kind == "repeated_word":
        blob += f" {w}:1"
    if kind == "extra_tab":
        blob += "\tz"
    if kind == "duplicate_id":
        doc_id = lines[i - 1 if i else 1].split("\t", 1)[0]
    out = list(lines)
    out[i] = f"{doc_id}\t{label}\t{blob}" + ("\r\n" if kind == "crlf" else "\n")
    if kind == "blank_line":
        out.insert(i, "\n")
    return out


def _outcome(reader, path):
    """("ok", documents), or ("error", line number or None) for what the
    command line reports as malformed input."""
    try:
        return "ok", reader(path).documents
    except MalformedRecord as exc:
        return "error", exc.line_number
    except ValueError:
        return "error", None


@pytest.fixture(scope="module")
def base_archive(tmp_path_factory):
    corpus, _, _, _ = generate_corpus(
        GenSpec(k=3, v=40, d=12, doc_len=6, length_dist="poisson", seed=5))
    path = tmp_path_factory.mktemp("base")
    write_archive(corpus, path)
    return path, corpus.vocabulary.size


@settings(derandomize=True, deadline=None, max_examples=150)
@given(line=st.integers(0, 11), pair=st.integers(0, 20),
       kind=st.sampled_from(EDITS))
def test_corruption_matches_reference(base_archive, line, pair, kind):
    base, v = base_archive
    lines = (base / "documents.txt").read_text(encoding="utf-8") \
        .splitlines(keepends=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("vocabulary.tsv", "stats.json"):
            (Path(tmp) / name).write_bytes((base / name).read_bytes())
        with open(Path(tmp) / "documents.txt", "w", encoding="utf-8",
                  newline="") as fh:
            fh.writelines(_edit(lines, line, pair, kind, v))
        got = _outcome(read_archive, tmp)
        want = _outcome(reference_read_archive, tmp)
    if kind in LENIENT:
        assert got == ("error", line + 1)
    elif want[0] == "ok":
        assert got == want
    else:
        assert got[0] == "error"
        if want[1] is not None:
            assert got[1] == want[1]


class TestReader:
    def _write(self, tmp_path, text: str, v: int = 6, d: int | None = None):
        (tmp_path / "vocabulary.tsv").write_text(
            "".join(f"{i}\tw{i}\t1\n" for i in range(v)), encoding="utf-8")
        (tmp_path / "documents.txt").write_bytes(text.encode("utf-8"))
        d = len(text.splitlines()) if d is None else d
        (tmp_path / "stats.json").write_text(json.dumps(
            {"D": d, "V": v, "mean_len": 1.0, "max_len": 1}))
        return tmp_path

    def test_whitespace_the_old_reader_took(self, tmp_path):
        want = {0: 1, 3: 2}
        path = self._write(tmp_path, "a\tx\t 0:1   3:2  \r\nb\t-\t5:1\r\n")
        corpus = read_archive(path)
        assert corpus.documents[0].counts == want
        assert corpus.gold_labels == ("x", None)

    def test_word_order_kept(self, tmp_path):
        corpus = read_archive(self._write(tmp_path, "a\tx\t4:1 0:2 2:1\n"))
        assert corpus.token_csr.words.tolist() == [4, 0, 2]
        assert list(corpus.documents[0].counts) == [4, 0, 2]

    def test_empty_documents_file(self, tmp_path):
        corpus = read_archive(self._write(tmp_path, "", d=0))
        assert len(corpus) == 0 and corpus.documents == ()
        assert corpus.token_csr.word_ptr.tolist() == [0]

    @pytest.mark.parametrize("pair", ["5", "5:1:2", "a:1", ":1", "1:", "+5:1",
                                      "-0:1", "1_0:1", "٥:1", "1:1 2:1"])
    def test_unparseable_pair_names_its_line(self, tmp_path, pair, capsys):
        path = self._write(tmp_path, f"a\tx\t0:1\nb\tx\t1:1 {pair}\n")
        assert cli.main(["cluster", str(path), str(tmp_path / "r"),
                         "--iters", "1"]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and repr(pair) in err

    def test_first_bad_line_wins(self, tmp_path):
        # a bad pair on line 3 and a repeated doc id on line 2: line 2 first
        path = self._write(tmp_path, "a\tx\t0:1\na\tx\t1:1\nc\tx\tq\n")
        with pytest.raises(MalformedRecord, match="line 2: duplicate doc id"):
            read_archive(path)

    def test_ids_past_int64_read_exactly(self, tmp_path):
        big = "9" * 25
        with pytest.raises(MalformedRecord, match=f"word id {big} outside"):
            read_archive(self._write(tmp_path, f"a\tx\t0:1 {big}:1 {'8' * 25}:1\n"))


def _archive(tmp_path) -> Path:
    corpus, _, _, _ = generate_corpus(
        GenSpec(k=4, v=300, d=240, doc_len=8, beta_gen=0.01, seed=3))
    write_archive(corpus, tmp_path / "archive")
    return tmp_path / "archive"


def test_read_matches_documents_built_corpus(tmp_path):
    archive = _archive(tmp_path)
    read = read_archive(archive)
    built = Corpus(documents=read.documents, vocabulary=read.vocabulary,
                   stats=read.stats, dropped_doc_ids=read.dropped_doc_ids)
    fresh = read_archive(archive)
    assert_same_arrays(fresh, built)
    assert fresh.documents == built.documents


def test_run_path_never_builds_documents(tmp_path, monkeypatch):
    # nor reads the per-document views: both sampler paths slice the arrays
    archive = _archive(tmp_path)
    built = []
    for name in ("documents", "token_views"):
        def read(self, derive=getattr(Corpus, name)):
            built.append(self)
            return derive.__get__(self, Corpus)

        monkeypatch.setattr(Corpus, name, property(read))
    corpus = read_archive(archive)
    plain = RunConfig(k_max=20, iterations=2, seed=1)
    plus = RunConfig(algorithm="gsdmm+", k_max=20, k_real=4, beta=0.01,
                     iterations=2, seed=1)
    run_gsdmm(corpus, plain)
    run_gsdmm_plus(corpus, plus)
    with monkeypatch.context() as mp:  # the numpy reference sweep as well
        mp.setattr(_native, "kernel", lambda: None)
        run_gsdmm(read_archive(archive), plain)
        run_gsdmm_plus(read_archive(archive), plus)
    for algorithm in ("gsdmm", "gsdmm+"):
        out = tmp_path / algorithm
        argv = [["cluster", archive, out, "--algorithm", algorithm, "--kmax", 8,
                 "--kreal", 4, "--iters", 2, "--trace"],
                ["eval", out / "assignments.csv", archive, "--out", out / "e.json"],
                ["topwords", archive, out, "-n", 3, "--out", out / "top.tsv"]]
        assert [cli.main([str(a) for a in args]) for args in argv] == [0, 0, 0]
    assert built == []
