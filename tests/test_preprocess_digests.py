"""The preprocess command's archive files, pinned by SHA-256 digest.

A noisy labelled JSONL file is generated here from a fixed seed: capitals,
punctuation, digits, stopwords, non-ASCII letters, words that stem alike,
words too short or too long, documents emptied by the rules and records
without a label. preprocess runs on it with and without --stem, on both
tokenizer paths (the compiled Kernel.runs and the regex where no compiler
exists); both must write the pinned files. Each archive is then read back
on both reader paths (the compiled scans and the line loops), which must
give the same corpus. The digests depend on no random stream of numpy and
on no floating-point library, only on the generator below.
"""

import hashlib
import json
import random

import pytest

from gsdmm.archive import read_archive
from gsdmm.cli import main

from conftest import PATHS, kernel_path
from test_archive import assert_same_arrays

FILES = ("vocabulary.tsv", "documents.txt", "stats.json")
STEMS = ["cluster", "model", "sampl", "topic", "word", "count", "run", "stream",
         "caf", "tweet", "graph", "vector"]
ENDINGS = ["", "s", "ing", "ed", "er", "ers", "ation"]
STOPWORDS = ["The", "and", "of", "a", "to", "IN", "is"]
NOISE = ["café", "naïve", "straße", "Ωmega", "x", "supercalifragilisticexpialidocious",
         "v2", "3.14", "1999", "#tag", "@user", "http://t.co/abc", "e-mail"]
PUNCT = ",.;:!?()\"'"

# stemmed or not -> file -> digest
PINS = {
    False: {
        "vocabulary.tsv":
            "484b5d6170a61a8b3cfca447b257f3c7d862b12d0a48eb02c2e015f8aeddd2ca",
        "documents.txt":
            "e6e117e827eea46e9ea6ce962de1fed5c2c65ef7ac4d77ee633903b11695877f",
        "stats.json":
            "a4c5d5029f89f0b23d66e1e4fb3c4134fd5fa9ea4999b74b01c2e26381694cd7",
    },
    True: {
        "vocabulary.tsv":
            "13c60fed1c00238361c82234223124d68a9bbdafc34d034ded1fbbffad31b544",
        "documents.txt":
            "bfb5a3dedd4ee3807b4965b85f8b00f8ec95f83f558fd73611382aa17a250714",
        "stats.json":
            "0d37f28a51518018f4e57183cc216524dc2d1d33557bc87d1e72ddd4c82f1c8a",
    },
}


def _write_noisy_jsonl(path, records: int = 240, seed: int = 11) -> None:
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(records):
            topic = rng.randrange(4)
            tokens = []
            for _ in range(rng.randrange(0, 14)):
                r = rng.random()
                if r < 0.55:
                    stem = STEMS[(3 * topic + rng.randrange(4)) % len(STEMS)]
                    tok = stem + rng.choice(ENDINGS)
                elif r < 0.8:
                    tok = rng.choice(STOPWORDS)
                else:
                    tok = rng.choice(NOISE)
                if rng.random() < 0.2:
                    tok = tok.capitalize() if rng.random() < 0.7 else tok.upper()
                if rng.random() < 0.15:
                    tok += rng.choice(PUNCT)
                tokens.append(tok)
            record = {"id": f"doc-{i}", "text": " ".join(tokens)}
            if rng.random() < 0.9:
                record["label"] = f"t{topic}"
            fh.write(json.dumps(record, ensure_ascii=rng.random() < 0.5) + "\n")


@pytest.fixture(scope="module")
def raw(tmp_path_factory):
    path = tmp_path_factory.mktemp("preprocess") / "raw.jsonl"
    _write_noisy_jsonl(path)
    return path


def _digests(archive) -> dict[str, str]:
    return {name: hashlib.sha256((archive / name).read_bytes()).hexdigest()
            for name in FILES}


@pytest.mark.parametrize("stem", [False, True], ids=["plain", "stem"])
def test_archives_match_the_pins(raw, tmp_path, stem):
    archives = []
    for path in PATHS:
        out = tmp_path / path
        with kernel_path(path):
            assert main(["preprocess", str(raw), str(out),
                         *(["--stem"] if stem else [])]) == 0
        assert _digests(out) == PINS[stem], path
        archives.append(out)
    corpora = []
    for archive in archives:
        for path in PATHS:
            with kernel_path(path):
                corpora.append(read_archive(archive))
    first = corpora[0]
    assert first.dropped_doc_ids and None in first.gold_labels
    for corpus in corpora[1:]:
        assert corpus.doc_ids == first.doc_ids
        assert corpus.gold_labels == first.gold_labels
        assert corpus.vocabulary == first.vocabulary
        assert corpus.dropped_doc_ids == first.dropped_doc_ids
        assert corpus.stats == first.stats
        assert_same_arrays(corpus, first)
