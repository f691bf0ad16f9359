"""The cluster command's output files, and the eval and topwords output
of each run, pinned by SHA-256 digest.

Each case runs cli.main in-process on one small synthetic archive, three
ways: on the compiled kernel as shipped, on the compiled kernel with every
document in one scoring mode ("other": sparse at k_max 20, where the
shipped rule scores dense throughout, dense at k_max 200, where it scores
sparse until the occupied clusters fall to _CROSSOVER), and on the numpy
reference; at k_max 200 a fourth run scores every document sparse. All
must write the pinned files, so a change to the sampler, the kernel or the
output formats that moves any byte of a run shows here. eval scores the run's assignments against the
archive's gold labels and topwords lists each cluster's 5 top words, so
the pins also cover the evaluation and the word counts top_words reads.
summary.json is digested with its wall time set to 0. The digests also
depend on numpy's generator streams and on the log and exp of numpy and
libm, so a mismatch names the numpy version and the C compiler.
"""

import hashlib
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from gsdmm import _native
from gsdmm.archive import write_archive
from gsdmm.cli import main
from gsdmm.synth import GenSpec, generate_corpus

CASES = {
    "gsdmm-alpha0": ["--algorithm", "gsdmm", "--alpha", 0],
    "gsdmm-alpha0.1": ["--algorithm", "gsdmm", "--alpha", 0.1],
    "plus-merge": ["--algorithm", "gsdmm+", "--kreal", 3],
    "plus-raw-entropy": ["--algorithm", "gsdmm+", "--kreal", 3,
                         "--no-entropy-norm", "--entropy-refreshes", 3],
}
K_MAX = (20, 200)
FILES = ("assignments.csv", "trace.csv", "mergelog.csv", "summary.json",
         "eval.json", "topwords.tsv")

# (case, k_max) -> file -> digest; the files a case does not write (gsdmm
# writes no mergelog.csv) are absent. The eval.json and topwords.tsv pins
# were taken before the count store moved from a dense matrix to per-word
# tables, which gave top_words a new source
PINS = {
    ('gsdmm-alpha0', 20): {
        'assignments.csv':
            'b371be1294d5c88f97b5df73f839f9bf8815bca8d9474eb25ba3f336a3a7b84b',
        'trace.csv':
            '9e5f25aa0530c8541042bc58e193ab1ca7d6e3b280ee0c3a24e50f7061783bc8',
        'summary.json':
            '8ae948d9f53dcdba4da2f941c4b059bda9ef8547da28d9de836076d149f2c141',
        'eval.json':
            '83b8ef172e31730cd61a0ddcf369d2376c070074e55340629693941c246e8383',
        'topwords.tsv':
            'aa99b941890a908e4c8c57375d2f4c71022eb362797a9231f14fe0cd1ddb1b70',
    },
    ('gsdmm-alpha0', 200): {
        'assignments.csv':
            '02d2db8a1c9a984506540d14572c1faa373a0b26c0acf164c0fb7cc240168ac1',
        'trace.csv':
            'ceecafbdb585c4c7c2c2a275255f171050fd0dddc9f54d9f9702a20fe85ac4cf',
        'summary.json':
            '19bdca62f2b36b3a42e937af0be3df4122fcf0d17af48eb7436dcf8c3bc44936',
        'eval.json':
            '49931248e5ebc6c0e36c8c581f0039b34794aecdbcb43582a627c31d47cf0227',
        'topwords.tsv':
            'aa92af3f4f57494b4779e7282244eca05b6b292532a27d6e4ef33cbadfb405ca',
    },
    ('gsdmm-alpha0.1', 20): {
        'assignments.csv':
            'b371be1294d5c88f97b5df73f839f9bf8815bca8d9474eb25ba3f336a3a7b84b',
        'trace.csv':
            '9e5f25aa0530c8541042bc58e193ab1ca7d6e3b280ee0c3a24e50f7061783bc8',
        'summary.json':
            '42e6140b29619323e65eb5b93870de8450d70c281842a9296a42eb0a3c8488a9',
        'eval.json':
            '83b8ef172e31730cd61a0ddcf369d2376c070074e55340629693941c246e8383',
        'topwords.tsv':
            'aa99b941890a908e4c8c57375d2f4c71022eb362797a9231f14fe0cd1ddb1b70',
    },
    ('gsdmm-alpha0.1', 200): {
        'assignments.csv':
            'd44f76afc9ef04560f7cb216e14846d701cb4c3801c08a1ac65197e9a9f1529e',
        'trace.csv':
            '84f3488e7ab95575b731e0db1ba279ea1356e2cb6986cea3d5a6984bb2aebff0',
        'summary.json':
            '9a8c4143c71935bde934aec565a67f502f4cc64c8bb0c17cdc97c8bdbc0b6e8c',
        'eval.json':
            'b6f237cb4357d76db122d79a404edeb6296bdd52ae20613da4e8c7c2cec6e5ac',
        'topwords.tsv':
            '527ec43754da238ac4bedb0d5199ec43ac47506eceb45f0c19e8b119050bc210',
    },
    ('plus-merge', 20): {
        'assignments.csv':
            '00e343f19854ec4bac3e83d60decd70d5ae2eac02c2a3711a9b490b77e6d7f73',
        'trace.csv':
            '61b43c83d010e21b125d893cc0a905da90dbc05171db78854957994d5771da36',
        'mergelog.csv':
            'da7adb3b4443a1f1ea552b2b5d365ba1d55c788edfe479635da657518f5c53e3',
        'summary.json':
            'd3a372b32a2dd83072b9a63078c786197bacf387e4632159dda33d6cc6329a0d',
        'eval.json':
            '8f877e619c6bdc5f7f2d8e7d116ea9dd1729eb0421bab73276f82186d82beea4',
        'topwords.tsv':
            'acdd18c5e1bd571ac72e207c6a66df2edebae6a384c2781279d06fbbb884e9e3',
    },
    ('plus-merge', 200): {
        'assignments.csv':
            '4b8e5f79979a0553eb867460b85085bd445333e4f7bf32cf10341516e4c4639e',
        'trace.csv':
            '7315cf4947fcf6032874926c7ad806e2c3db0c53cdf145aa4a2406e64aeeec87',
        'mergelog.csv':
            'e97da2cdd1f2eb083e55ebf40b373732726e8bc8c3b3d410fb8ff11125c63827',
        'summary.json':
            '7b67221702409e242d1aef9d237085f357536cbae578a27b1f4be6010d3808cc',
        'eval.json':
            '9c63888f20f67fcecda61615419cf2d70bcac283ffc8d757b15d84913c0b4386',
        'topwords.tsv':
            '7c1a90974051726c77c9153ed3ce494128011cd49a0fca26200ba5ba105916ff',
    },
    ('plus-raw-entropy', 20): {
        'assignments.csv':
            '26984eb419b594f89df9f9e94aa6b6b7e03725e3d7be0b61db38a349d28e6182',
        'trace.csv':
            '2bc81097c30f4703cad1b60ba481d4dd89e2c600e5f0fa13182fc51b1a9bba0d',
        'mergelog.csv':
            'e7171f51d9ecba5281af9365748267a5cdecf47ad194f9ef7b35225ea260b6e7',
        'summary.json':
            'd3a372b32a2dd83072b9a63078c786197bacf387e4632159dda33d6cc6329a0d',
        'eval.json':
            '9c63888f20f67fcecda61615419cf2d70bcac283ffc8d757b15d84913c0b4386',
        'topwords.tsv':
            '98aa676e3df9071f493311b55daf5c8458f993efaa425665445cb74996ffb564',
    },
    ('plus-raw-entropy', 200): {
        'assignments.csv':
            '684a98d48e98318396dd2086315a9d19cde58d84c44d2a05ae8a722183d92f45',
        'trace.csv':
            '0cd5163201dc741309c2248a1339035b98c80681c38491e6dd23aa23560ba22b',
        'mergelog.csv':
            '43fb3b21fae3ce2b617bfbd838eae6fee1b4c10c6452b228b80470a87ac3e527',
        'summary.json':
            '7b67221702409e242d1aef9d237085f357536cbae578a27b1f4be6010d3808cc',
        'eval.json':
            '9c63888f20f67fcecda61615419cf2d70bcac283ffc8d757b15d84913c0b4386',
        'topwords.tsv':
            '923ad0ebdcde99d1dd51235646d1589d16b00bc1a94baebca7e98b618819944c',
    },
}


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    corpus, _, _, _ = generate_corpus(GenSpec(
        k=5, v=400, d=300, doc_len=8, length_dist="poisson", seed=21))
    path = tmp_path_factory.mktemp("digests") / "archive"
    write_archive(corpus, path)
    return path


def _digests(run: Path) -> dict[str, str]:
    out = {}
    for name in FILES:
        if not (run / name).exists():
            continue
        data = (run / name).read_bytes()
        if name == "summary.json":
            data = re.sub(rb'"wall_time_ms": \d+', b'"wall_time_ms": 0', data)
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def _toolchain() -> str:
    cc = shutil.which("cc") or shutil.which("gcc")
    version = "no compiler"
    if cc:
        proc = subprocess.run([cc, "--version"], capture_output=True, text=True)
        version = proc.stdout.splitlines()[0] if proc.stdout else proc.stderr
    return f"numpy {np.__version__}; {version}"


# _CROSSOVER values that force a mode on every document: no count of
# occupied clusters is at or below -1, and none passes 10 ** 6
EVERY_SPARSE, EVERY_DENSE = -1, 10 ** 6


def run_case(archive, out, case, k_max, path, monkeypatch) -> dict[str, str]:
    """The digests of one cluster run on path: "shipped", "other" (the
    compiled kernel with every document sparse for a k_max the shipped rule
    scores dense throughout, else every document dense), "sparse" (every
    document sparse) or "numpy", then of eval and topwords on its output."""
    with monkeypatch.context() as mp:
        if path == "numpy":
            mp.setattr(_native, "kernel", lambda: None)
        elif path == "sparse" or (path == "other"
                                  and k_max <= _native._CROSSOVER):
            mp.setattr(_native, "_CROSSOVER", EVERY_SPARSE)
        elif path == "other":
            mp.setattr(_native, "_CROSSOVER", EVERY_DENSE)
        code = main([str(a) for a in (
            "cluster", archive, out, "--kmax", k_max, "--iters", 3,
            "--seed", 5, "--trace", *CASES[case])])
        assert code == 0
        assert main([str(a) for a in (
            "eval", out / "assignments.csv", archive, "--out",
            out / "eval.json")]) == 0
        assert main([str(a) for a in (
            "topwords", archive, out, "-n", 5, "--out",
            out / "topwords.tsv")]) == 0
    return _digests(out)


@pytest.mark.parametrize("path", ["shipped", "other", "numpy"])
@pytest.mark.parametrize("k_max", K_MAX)
@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_the_pins(archive, tmp_path, monkeypatch, case, k_max,
                                path):
    if path != "numpy" and _native.kernel() is None:
        pytest.skip("no compiled kernel here")
    got = run_case(archive, tmp_path / "run", case, k_max, path, monkeypatch)
    assert got == PINS[case, k_max], _toolchain()


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_document_sparse_at_k_max_200(archive, tmp_path, monkeypatch,
                                            case):
    if _native.kernel() is None:
        pytest.skip("no compiled kernel here")
    got = run_case(archive, tmp_path / "run", case, 200, "sparse", monkeypatch)
    assert got == PINS[case, 200], _toolchain()
