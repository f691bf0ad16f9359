"""The corpus archive: the array reader against a line-by-line reference
reader, round trips and corruptions drawn by hypothesis, archives with
exactly one fault per check, and the guards that the line loops run only
on refused files and that the run path never builds per-document
objects."""

import json
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdmm import _native, archive, cli
from gsdmm.archive import MISSING_LABEL, read_archive, write_archive
from gsdmm.corpus import Corpus, Document, Vocabulary
from gsdmm.errors import ConfigError, MalformedRecord
from gsdmm.sampler import RunConfig, run_gsdmm, run_gsdmm_plus
from gsdmm.synth import GenSpec, generate_corpus

from conftest import PATHS, kernel_path


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
            id_to_word=tuple(id_to_word),
            doc_freq=tuple(doc_freq),
        ),
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
    return Corpus(
        documents=tuple(docs),
        vocabulary=Vocabulary(tuple(words), tuple(1 for _ in words)),
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
                             gold_label=draw(st.sampled_from(_LABELS))))
    return _corpus(docs, words)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(corpora())
def test_round_trip(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        write_archive(corpus, tmp)
        reference = reference_read_archive(tmp)
        for path in PATHS:
            with kernel_path(path):
                back = read_archive(tmp)
            assert back.documents == corpus.documents
            assert back.doc_ids == corpus.doc_ids
            assert back.gold_labels == corpus.gold_labels
            assert back.vocabulary == corpus.vocabulary
            assert back.stats == corpus.stats
            # counts up to 10**6 would make the per-token arrays large
            assert_same_arrays(back, corpus, tokens=False)
            assert reference.documents == back.documents


# forms int() accepted but an archive pair no longer may
LENIENT = {"plus", "minus_zero", "underscore", "arabic_digit"}
EDITS = ["non_digit", "no_colon", "extra_colon", "extra_tab", "minus_one",
         "id_v", "count_zero", "repeated_word", "blank_line", "duplicate_id",
         "crlf", "double_spaces", *sorted(LENIENT)]
# edits to one line of vocabulary.tsv (crlf: to every line end); the
# reference reads a df past int64, which the archive reader caps
VOCABULARY_EDITS = ["vocab_missing_tab", "vocab_missing_word", "vocab_extra_tab",
                    "vocab_moved_tab", "vocab_sign", "vocab_arabic_df",
                    "vocab_empty_id", "vocab_empty_df", "vocab_id_order",
                    "vocab_long_id", "vocab_long_df", "vocab_crlf"]
# edits whose line is the first bad one, whatever the reference reports:
# forms int() accepts, and an empty id or df, which int() refuses with a
# ValueError that names no line
NAMED_LINE = LENIENT | {"vocab_sign", "vocab_arabic_df", "vocab_empty_id",
                        "vocab_empty_df"}
_INT64_MAX = 2 ** 63 - 1


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


def _edit_vocabulary(lines: list[str], i: int, kind: str) -> tuple[list[str], int]:
    """lines of vocabulary.tsv with line i changed by one edit, and the
    number of the first line the edit touches."""
    out = [line.rstrip("\n") for line in lines]
    ident, word, df = out[i].split("\t")
    out[i] = {
        "vocab_missing_tab": f"{ident}\t{word}{df}",
        "vocab_missing_word": f"{ident}\t{df}",
        "vocab_extra_tab": f"{ident}\t{word}\t{df}\tz",
        "vocab_sign": f"+{ident}\t{word}\t{df}",
        "vocab_arabic_df": f"{ident}\t{word}\t{df}\u0665",
        "vocab_empty_id": f"\t{word}\t{df}",
        "vocab_empty_df": f"{ident}\t{word}\t",
        "vocab_id_order": f"{int(ident) + 1}\t{word}\t{df}",
        "vocab_long_id": f"{'0' * 20}{ident}\t{word}\t{df}",
        "vocab_long_df": f"{ident}\t{word}\t{'9' * 25}",
    }.get(kind, out[i])
    if kind == "vocab_moved_tab":
        # a tab moves from the next line (the one before, for the last) into
        # this one's word, so the file's tab total stays right
        a, b = sorted((i, i + 1 if i + 1 < len(out) else i - 1))
        ident, word, df = out[a].split("\t")
        out[a] = f"{ident}\t{word[:1]}\t{word[1:]}\t{df}"
        out[b] = out[b].replace("\t", "", 1)
        i = a
    end = "\r\n" if kind == "vocab_crlf" else "\n"
    return [line + end for line in out], i + 1


def _outcome(reader, path):
    """("ok", (documents, vocabulary)), or ("error", line number or None)
    for what the command line reports as malformed input."""
    try:
        corpus = reader(path)
    except MalformedRecord as exc:
        return "error", exc.line_number
    except ValueError:
        return "error", None
    return "ok", (corpus.documents, corpus.vocabulary)


@pytest.fixture(scope="module")
def base_archive(tmp_path_factory):
    corpus, _, _, _ = generate_corpus(
        GenSpec(k=3, v=40, d=12, doc_len=6, length_dist="poisson", seed=5))
    path = tmp_path_factory.mktemp("base")
    write_archive(corpus, path)
    return path, corpus.vocabulary.size


@settings(derandomize=True, deadline=None, max_examples=300)
@given(line=st.integers(0, 11), pair=st.integers(0, 20),
       kind=st.sampled_from(EDITS + VOCABULARY_EDITS), word=st.integers(0, 39))
def test_corruption_matches_reference(base_archive, line, pair, kind, word):
    base, v = base_archive
    files = {name: (base / name).read_text(encoding="utf-8").splitlines(keepends=True)
             for name in ("vocabulary.tsv", "documents.txt")}
    if kind in VOCABULARY_EDITS:
        files["vocabulary.tsv"], at = _edit_vocabulary(files["vocabulary.tsv"],
                                                       word % v, kind)
    else:
        files["documents.txt"] = _edit(files["documents.txt"], line, pair, kind, v)
        at = line + 1
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "stats.json").write_bytes((base / "stats.json").read_bytes())
        for name, lines in files.items():
            with open(Path(tmp) / name, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(lines)
        want = _outcome(reference_read_archive, tmp)
        if kind == "vocab_long_df":
            documents, vocabulary = want[1]
            want = "ok", (documents, Vocabulary(vocabulary.id_to_word, tuple(
                min(df, _INT64_MAX) for df in vocabulary.doc_freq)))
        for path in PATHS:
            with kernel_path(path):
                got = _outcome(read_archive, tmp)
            if kind in NAMED_LINE:
                assert got == ("error", at)
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

    def test_long_word_id_is_named_short(self, tmp_path, capsys):
        # a 5000-digit id used to be printed whole, in a 5042-character line
        path = self._write(tmp_path, f"a\tx\t0:1\nb\tx\t{'7' * 5000}:1\n")
        with pytest.raises(MalformedRecord) as info:
            read_archive(path)
        assert info.value.line_number == 2
        assert str(info.value) == (
            f"line 2: word id {'7' * 20}... (5000 digits) outside [0, 6)")
        assert cli.main(["cluster", str(path), str(tmp_path / "r"),
                         "--kmax", "2", "--iters", "1"]) == 2
        assert len(capsys.readouterr().err) < 200

    @pytest.mark.parametrize("pair, code, message", [
        ("0" * 4999 + "3:1", 0, None),
        ("7" * 5000 + ":1", 2, "line 2: word id 7777"),
        ("1:" + "7" * 5000, 3, f"corpus has {2 ** 63} tokens"),
    ], ids=["word-id-leading-zeros", "word-id", "count"])
    def test_values_past_the_int_string_limit(self, tmp_path, capsys, pair, code,
                                              message):
        # Python's int() refuses strings past 4300 digits; a word id past
        # int64 reads as int64 max and a count past it as int64 max
        path = self._write(tmp_path, f"a\tx\t0:1\nb\tx\t{pair}\n")
        assert cli.main(["cluster", str(path), str(tmp_path / "r"),
                         "--kmax", "2", "--iters", "1"]) == code
        if message:
            assert message in capsys.readouterr().err

    # the compiled scan hands a value of more than 18 digits to the line
    # loop, and reads text-mode line ends as the line loop does
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("text, want", [
        ("a\tx\t0000000000000000003:2\n", {3: 2}),
        ("a\tx\t0:1 1234567890123456789:1\n", "line 1: word id 1234567890123456789 "
                                              "outside [0, 6)"),
        ("a\tx\t0:1000000000000000000\n", ConfigError),
        ("a\tx\t0:999999999999999999\n", ConfigError),
        ("a\tx\t0:1 3:2\r\nb\t-\t5:1\r\n", {0: 1, 3: 2}),
    ], ids=["19-digit-id", "19-digit-id-outside", "19-digit-count",
            "18-digit-count", "crlf"])
    def test_long_values_and_line_ends(self, tmp_path, path, text, want):
        self._write(tmp_path, text)
        vocabulary = tmp_path / "vocabulary.tsv"
        vocabulary.write_bytes(vocabulary.read_bytes().replace(b"\n", b"\r\n"))
        with kernel_path(path):
            if isinstance(want, dict):
                assert read_archive(tmp_path).documents[0].counts == want
            elif isinstance(want, str):
                with pytest.raises(MalformedRecord) as info:
                    read_archive(tmp_path)
                assert str(info.value) == want
            else:
                with pytest.raises(want, match="int32"):
                    read_archive(tmp_path)

    # past int64 a count or df reads as int64 max, a 19-digit one too
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("digits", [19, 25])
    def test_values_past_int64_read_capped(self, tmp_path, path, digits):
        self._write(tmp_path, f"a\tx\t0:1\nb\tx\t1:{'9' * digits}\n")
        vocabulary = tmp_path / "vocabulary.tsv"
        lines = vocabulary.read_text().splitlines(keepends=True)
        lines[2] = f"{'0' * digits}2\tw2\t{'9' * digits}\n"
        vocabulary.write_text("".join(lines))
        with kernel_path(path):
            with pytest.raises(ConfigError, match=f"corpus has {2 ** 63} tokens"):
                read_archive(tmp_path)
            self._write(tmp_path, "a\tx\t0:1\n")
            vocabulary.write_text("".join(lines))
            assert read_archive(tmp_path).vocabulary.doc_freq[2] == _INT64_MAX


VOCABULARY = [f"{i}\tw{i}\t1" for i in range(6)]
DOCUMENTS = ["a\tx\t0:1 3:2", "b\t-\t1:1", "c\ty\t2:1 5:1", "d\tx\t4:2"]


def _write_lines(path: Path, vocabulary: list[str], documents: list[str]) -> Path:
    (path / "vocabulary.tsv").write_text("".join(f"{line}\n" for line in vocabulary),
                                         encoding="utf-8")
    (path / "documents.txt").write_text("".join(f"{line}\n" for line in documents),
                                        encoding="utf-8")
    (path / "stats.json").write_text(json.dumps(
        {"D": len(documents), "V": len(vocabulary), "mean_len": 1.0, "max_len": 2}))
    return path


# one case per check of each file, in the order a line is checked: the file,
# its lines replaced (by 0-based index), and the error with its line number
ONE_FAULT = {
    "documents-columns": ("documents.txt", {2: "c\ty\t2:1 5:1\tz"},
                          "line 3: expected doc_id<TAB>label<TAB>counts"),
    # a tab too many and then one too few: the file's tab total is right
    "documents-balanced-columns": ("documents.txt",
                                   {1: "b\t-\t1:1\tz", 2: "c\t2:1 5:1"},
                                   "line 2: expected doc_id<TAB>label<TAB>counts"),
    "documents-doc-id": ("documents.txt", {2: "a\ty\t2:1 5:1"},
                         "line 3: duplicate doc id 'a'"),
    "documents-pair-syntax": ("documents.txt", {2: "c\ty\t2:1 5x:1"},
                              "line 3: expected word_id:count in ASCII digits, "
                              "got '5x:1'"),
    "documents-empty-document": ("documents.txt", {2: "c\ty\t \x0b "},
                                 "line 3: empty document in archive"),
    "documents-empty-pair-column": ("documents.txt", {2: "c\ty\t"},
                                    "line 3: empty document in archive"),
    "documents-repeated-word-id": ("documents.txt", {2: "c\ty\t2:1 5:1 2:3"},
                                   "line 3: repeated word id in document"),
    "documents-word-id-range": ("documents.txt", {2: "c\ty\t7:1 2:1 9:1 6:1"},
                                "line 3: word id 9 outside [0, 6)"),
    "documents-count": ("documents.txt", {2: "c\ty\t2:1 5:0"}, "line 3: count 0 < 1"),
    "vocabulary-columns": ("vocabulary.tsv", {2: "2\tw2"},
                           "line 3: expected id<TAB>word<TAB>df"),
    "vocabulary-two-number-columns": ("vocabulary.tsv", {2: "2\t1"},
                                      "line 3: expected id<TAB>word<TAB>df"),
    # a tab moved from line 3 to line 2: split at every tab, the fields are
    # those of the valid file
    "vocabulary-balanced-columns": ("vocabulary.tsv", {1: "1\tw1\t1\t2", 2: "w2\t1"},
                                    "line 2: expected id<TAB>word<TAB>df"),
    "vocabulary-id-digits": ("vocabulary.tsv", {2: "+2\tw2\t1"},
                             "line 3: expected an ASCII-digit id, got '+2'"),
    "vocabulary-id-order": ("vocabulary.tsv", {2: "3\tw2\t1"},
                            "line 3: vocabulary ids out of order"),
    "vocabulary-df-digits": ("vocabulary.tsv", {2: "2\tw2\t1x"},
                             "line 3: expected an ASCII-digit df, got '1x'"),
}

# two faults on one line: the check that comes first in that order wins
TWO_FAULTS = {
    "columns-before-pair-syntax": ("documents.txt", {2: "c\ty\tq\tz"},
                                   "line 3: expected doc_id<TAB>label<TAB>counts"),
    "doc-id-before-pair-syntax": ("documents.txt", {2: "a\ty\t2:1 5x:1"},
                                  "line 3: duplicate doc id 'a'"),
    "repeated-before-range-and-count": ("documents.txt", {2: "c\ty\t9:1 9:0"},
                                        "line 3: repeated word id in document"),
    "range-before-count": ("documents.txt", {2: "c\ty\t2:0 9:1"},
                           "line 3: word id 9 outside [0, 6)"),
    "id-order-before-df-digits": ("vocabulary.tsv", {2: "3\tw2\tx"},
                                  "line 3: vocabulary ids out of order"),
}


@pytest.mark.parametrize("case", [*ONE_FAULT.values(), *TWO_FAULTS.values()],
                         ids=[*ONE_FAULT, *TWO_FAULTS])
def test_fault_names_its_line(tmp_path, case):
    name, edits, message = case
    files = {"vocabulary.tsv": list(VOCABULARY), "documents.txt": list(DOCUMENTS)}
    for i, line in edits.items():
        files[name][i] = line
    _write_lines(tmp_path, files["vocabulary.tsv"], files["documents.txt"])
    for path in PATHS:
        with kernel_path(path), pytest.raises(MalformedRecord) as info:
            read_archive(tmp_path)
        assert str(info.value) == message


# stats.json with one fault; each names the file and the line of the fault
STATS_FAULTS = {
    "not-json": ('{"D": 4,\n "V": 6,}',
                 "line 2: stats.json is not valid JSON (Expecting property name "
                 "enclosed in double quotes)"),
    "empty": ("", "line 1: stats.json is not valid JSON (Expecting value)"),
    "list": ("[]", "line 1: stats.json holds a JSON list, not an object"),
    "D-float": ('{"D": 4.0, "V": 6}', "line 1: stats.json gives D=4.0, the archive has 4"),
    "dropped-number": ('{"D": 4,\n "V": 6,\n "dropped_doc_ids": 5}',
                       "line 3: stats.json gives dropped_doc_ids=5, not a list "
                       "of strings"),
    "dropped-int-id": ('{"D": 4,\n "V": 6,\n "dropped_doc_ids": ["a", 1]}',
                       "line 3: stats.json gives dropped_doc_ids=['a', 1], not a "
                       "list of strings"),
    "dropped-null": ('{"D": 4, "V": 6, "dropped_doc_ids": null}',
                     "line 1: stats.json gives dropped_doc_ids=None, not a list "
                     "of strings"),
}


@pytest.mark.parametrize("text, message", STATS_FAULTS.values(), ids=STATS_FAULTS)
def test_stats_fault_names_the_file(tmp_path, capsys, text, message):
    # these used to crash with exit 1, keep a non-string id, or, for
    # invalid JSON, exit 2 without naming the file
    _write_lines(tmp_path, VOCABULARY, DOCUMENTS)
    (tmp_path / "stats.json").write_text(text)
    with pytest.raises(MalformedRecord) as info:
        read_archive(tmp_path)
    assert str(info.value) == message
    assert cli.main(["cluster", str(tmp_path), str(tmp_path / "r"),
                     "--kmax", "2", "--iters", "1"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("name, line", [("vocabulary.tsv", 3), ("documents.txt", 2),
                                        ("stats.json", 3)])
def test_byte_not_utf8_names_the_file_and_line(tmp_path, capsys, name, line, end):
    # this used to exit 2 with the codec's text alone: "'utf-8' codec can't
    # decode byte 0xff in position 40: invalid start byte"
    _write_lines(tmp_path, VOCABULARY, DOCUMENTS)
    (tmp_path / "stats.json").write_text(json.dumps({"D": 4, "V": 6}, indent=1))
    lines = (tmp_path / name).read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:1] + b"\xff" + lines[line - 1][1:]
    (tmp_path / name).write_bytes(end.encode().join(lines))
    message = f"line {line}: {name} is not UTF-8 (byte 0xff)"
    for path in PATHS:
        with kernel_path(path), pytest.raises(MalformedRecord) as info:
            read_archive(tmp_path)
        assert str(info.value) == message
    assert cli.main(["cluster", str(tmp_path), str(tmp_path / "r"),
                     "--kmax", "2", "--iters", "1"]) == 2
    assert message in capsys.readouterr().err


def test_summary_byte_not_utf8_names_the_file(tmp_path, capsys):
    _write_lines(tmp_path, VOCABULARY, DOCUMENTS)
    run = tmp_path / "run"
    assert cli.main(["cluster", str(tmp_path), str(run), "--kmax", "2",
                     "--iters", "1"]) == 0
    summary = run / "summary.json"
    summary.write_bytes(summary.read_bytes().replace(b"\n", b"\n\xc3", 1))
    assert cli.main(["topwords", str(tmp_path), str(run)]) == 2
    assert "line 2: summary.json is not UTF-8 (byte 0xc3)" in capsys.readouterr().err


def test_stats_lengths_are_derived_not_read(tmp_path):
    # a stats.json without mean_len and max_len used to raise KeyError;
    # wrong ones are not read either
    _write_lines(tmp_path, VOCABULARY, DOCUMENTS)
    want = read_archive(tmp_path).stats
    assert (want.mean_len, want.max_len) == (2.0, 3)
    for stats in ({"D": 4, "V": 6}, {"D": 4, "V": 6, "mean_len": "x", "max_len": -1}):
        (tmp_path / "stats.json").write_text(json.dumps(stats))
        corpus = read_archive(tmp_path)
        assert corpus.stats == want and corpus.dropped_doc_ids == ()


@contextmanager
def _counted_line_loops():
    """The names of the line loops called inside the block, in call order."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_vocabulary_loop", "_documents_loop"):
            def counted(*args, name=name, loop=getattr(archive, name)):
                calls.append(name)
                return loop(*args)

            mp.setattr(archive, name, counted)
        yield calls


@settings(derandomize=True, deadline=None, max_examples=40)
@given(corpora())
def test_line_loops_never_run_on_round_trip_corpora(corpus):
    with tempfile.TemporaryDirectory() as tmp, _counted_line_loops() as calls:
        write_archive(corpus, tmp)
        read_archive(tmp)
    assert calls == []


def test_line_loops_run_only_on_refused_files(tmp_path):
    generated = _archive(tmp_path)
    with _counted_line_loops() as calls:
        read_archive(generated)
        read_archive(_write_lines(tmp_path, VOCABULARY, DOCUMENTS))
        assert calls == []
        for name in ("documents.txt", "vocabulary.tsv"):
            with open(tmp_path / name, "a", encoding="utf-8") as fh:
                fh.write("\n")  # a blank line, with no columns
            with pytest.raises(MalformedRecord):
                read_archive(tmp_path)
    assert calls == ["_documents_loop", "_vocabulary_loop"]


@pytest.mark.parametrize("scan, loop", [("vocabulary", "_vocabulary_loop"),
                                        ("pairs", "_documents_loop")])
def test_refused_valid_file_is_a_fault_and_long_values_go_to_the_loop(
        tmp_path, monkeypatch, scan, loop):
    if _native.kernel() is None:
        pytest.skip("no compiled kernel here")
    path = _write_lines(tmp_path, VOCABULARY, DOCUMENTS)
    want = read_archive(path)

    def long(kernel, raw):
        raise OverflowError("a value of more than 18 digits")

    with _counted_line_loops() as calls:
        monkeypatch.setattr(_native.Kernel, scan, long)
        back = read_archive(path)  # read by the line loop alone
        assert calls == [loop]
        assert back.documents == want.documents and back.vocabulary == want.vocabulary
        monkeypatch.setattr(_native.Kernel, scan, lambda kernel, raw: None)
        with pytest.raises(AssertionError, match="refused a valid"):
            read_archive(path)


def _archive(tmp_path) -> Path:
    corpus, _, _, _ = generate_corpus(
        GenSpec(k=4, v=300, d=240, doc_len=8, beta_gen=0.01, seed=3))
    write_archive(corpus, tmp_path / "archive")
    return tmp_path / "archive"


def test_read_matches_documents_built_corpus(tmp_path):
    archive = _archive(tmp_path)
    read = read_archive(archive)
    built = Corpus(documents=read.documents, vocabulary=read.vocabulary,
                   dropped_doc_ids=read.dropped_doc_ids)
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
