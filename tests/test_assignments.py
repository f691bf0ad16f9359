"""A run's assignments.csv: written by cluster through Kernel.lines, read
by the compiled scan (Kernel.assignments) with the line loop as its
reference, which reads every file the scan refuses, cannot read or cannot
be built for, and names the first bad line."""

import re
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdmm import _native, archive, cli
from gsdmm.archive import read_assignments, write_archive, write_assignments
from gsdmm.errors import GsdmmError, MalformedRecord
from gsdmm.synth import GenSpec, generate_corpus

from conftest import PATHS, kernel_path
from test_archive import corpora

ROWS = ["d0,3", "dé1,0", "d2,12", "d3,3"]
HEADER = "doc_id,cluster"


@contextmanager
def _counted_loop():
    """One entry per call of the line loop inside the block."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        def counted(body, loop=archive._assignments_loop):
            calls.append(body)
            return loop(body)

        mp.setattr(archive, "_assignments_loop", counted)
        yield calls


def _outcome(path):
    """The rows read_assignments gives, or its exception's type and text."""
    try:
        return read_assignments(path)
    except GsdmmError as exc:
        return type(exc), str(exc)


def _row(value: str, doc_id: str = "d2") -> list[str]:
    """The rows with line 4 (d2's) replaced."""
    return [*ROWS[:2], f"{doc_id},{value}", *ROWS[3:]]


# name: (the file's text, who reads it: the scan alone or the line loop)
CASES = {
    "blank-line": (ROWS[:2] + [""] + ROWS[2:], "loop"),
    "whitespace-line": (ROWS[:2] + [" \t　\x0c"] + ROWS[2:], "loop"),
    "crlf": ("\r\n".join([HEADER, *ROWS, ""]), "scan"),
    "trailing-space": (_row("12 "), "loop"),
    "no-final-newline": ("\n".join([HEADER, *ROWS]), "scan"),
    "empty-id": (_row("5", ""), "scan"),
    "id-with-spaces": (_row("5", " d 2 "), "scan"),
    "three-columns": (_row("5,6"), "loop"),
    "no-comma": (ROWS[:2] + ["d2 5"] + ROWS[3:], "loop"),
    "minus": (_row("-5"), "loop"),
    "plus": (_row("+5"), "loop"),
    "arabic-indic-digit": (_row("٥"), "loop"),
    "fullwidth-digit": (_row("５"), "loop"),
    "18-digits": (_row("9" * 18), "scan"),
    "18-digits-zero-padded": (_row("000" + "9" * 18), "scan"),
    "19-digits": (_row("1" * 19), "loop"),
    "19-digits-zero-padded": (_row("00" + "1" * 19), "loop"),
    "19-digits-past-int64": (_row("9" * 19), "loop"),
    "20-digits": (_row("1" * 20), "loop"),
    "20-digits-zero-padded": (_row("0" * 5 + "1" * 20), "loop"),
    "20-zeros": (_row("0" * 20), "scan"),
    "int64-max": (_row(str(2 ** 63 - 1)), "loop"),
    "2**63": (_row(str(2 ** 63)), "loop"),
    "repeated-id": (ROWS + ["d0,1"], "loop"),
    "header-only": ([], "scan"),
}


def _text(case) -> str:
    lines, _ = CASES[case]
    return lines if isinstance(lines, str) else "\n".join([HEADER, *lines, ""])


def _compiled(body: str):
    """The compiled reading of assignments.csv's body, as read_assignments
    makes it: the scan's cluster ids and the split's doc ids, or None where
    the scan refuses the body or a doc id repeats. A value of more than 18
    significant digits raises OverflowError."""
    clusters = _native.kernel().assignments(body.encode("utf-8"))
    ids = archive._fields(body, 2, ",")[0]
    if clusters is None or len(set(ids)) < len(ids):
        return None
    return list(zip(ids, clusters.tolist()))


@pytest.mark.parametrize("case", CASES)
def test_scan_matches_the_line_loop(tmp_path, case):
    path = tmp_path / "assignments.csv"
    path.write_bytes(_text(case).encode("utf-8"))
    with kernel_path("numpy"), _counted_loop() as calls:
        want = _outcome(path)  # the line loop's rows or error
    assert len(calls) == 1
    if _native.kernel() is None:
        pytest.skip("no compiled kernel here")
    with _counted_loop() as calls:
        assert _outcome(path) == want
    assert len(calls) == (CASES[case][1] == "loop")
    # the body itself, with LF and with CRLF line ends, which reach the
    # scan only as text mode would not read them
    body = _text(case).partition("\n")[2].replace("\r\n", "\n")
    body += "\n" if body and not body.endswith("\n") else ""
    for text in (body, body.replace("\n", "\r\n")):
        try:
            got = _compiled(text)
        except OverflowError:  # a value the line loop reads
            assert re.search("[1-9][0-9]{18}", text)
            continue
        if got is not None:  # the scan accepts only what the loop reads
            assert got == archive._assignments_loop(text)


def test_scan_cases_cover_their_outcomes():
    outcomes = {case: _outcome_of_text(case) for case in CASES}
    assert outcomes["crlf"] == outcomes["no-final-newline"] == \
        [("d0", 3), ("dé1", 0), ("d2", 12), ("d3", 3)]
    assert outcomes["blank-line"] == outcomes["whitespace-line"] == outcomes["crlf"]
    assert outcomes["18-digits-zero-padded"][2] == ("d2", 10 ** 18 - 1)
    assert outcomes["19-digits-zero-padded"][2] == ("d2", int("1" * 19))
    assert outcomes["int64-max"][2] == ("d2", 2 ** 63 - 1)
    assert outcomes["20-zeros"][2] == ("d2", 0)
    assert outcomes["empty-id"][2] == ("", 5)
    assert outcomes["id-with-spaces"][2] == (" d 2 ", 5)
    for case, message in [
        ("trailing-space", "line 4: expected a cluster id in ASCII digits, got '12 '"),
        ("three-columns", "line 4: expected doc_id,cluster"),
        ("no-comma", "line 4: expected doc_id,cluster"),
        ("minus", "line 4: negative cluster id -5"),
        ("plus", "line 4: expected a cluster id in ASCII digits, got '+5'"),
        ("19-digits-past-int64", "line 4: cluster id of 19 digits is past int64"),
        ("20-digits-zero-padded", "line 4: cluster id of 20 digits is past int64"),
        ("2**63", "line 4: cluster id of 19 digits is past int64"),
        ("repeated-id", "line 6: duplicate doc id 'd0'"),
    ]:
        assert outcomes[case] == (MalformedRecord, message), case
    assert outcomes["header-only"][0] is GsdmmError


def _outcome_of_text(case):
    """The line loop's reading of a case."""
    with tempfile.TemporaryDirectory() as tmp, kernel_path("numpy"):
        path = Path(tmp) / "assignments.csv"
        path.write_bytes(_text(case).encode("utf-8"))
        return _outcome(path)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("command", ["eval", "topwords"])
def test_byte_not_utf8_names_the_file_and_line(tmp_path, capsys, command, path):
    # this used to exit 2 with the codec's text alone: "'utf-8' codec can't
    # decode byte 0xff in position 27: invalid start byte"
    corpus = generate_corpus(GenSpec(k=2, v=30, d=12, seed=3))[0]
    write_archive(corpus, tmp_path / "archive")
    run = tmp_path / "run"
    assert cli.main(["cluster", str(tmp_path / "archive"), str(run),
                     "--kmax", "3", "--iters", "1"]) == 0
    csv = run / "assignments.csv"
    lines = csv.read_bytes().split(b"\n")
    lines[3] = lines[3][:2] + b"\xff" + lines[3][2:]
    csv.write_bytes(b"\n".join(lines))
    argv = [str(csv), str(tmp_path / "archive")] if command == "eval" \
        else [str(tmp_path / "archive"), str(run)]
    capsys.readouterr()
    with kernel_path(path):
        assert cli.main([command, *argv]) == 2
    assert "line 4: assignments.csv is not UTF-8 (byte 0xff)" in capsys.readouterr().err


@settings(derandomize=True, deadline=None, max_examples=40)
@given(corpus=corpora(), seed=st.integers(0, 2 ** 32 - 1),
       top=st.sampled_from([1, 60, 10 ** 18 - 1]))
def test_line_loop_never_runs_on_written_assignments(corpus, seed, top):
    clusters = np.random.default_rng(seed).integers(0, top, len(corpus),
                                                    endpoint=True)
    with tempfile.TemporaryDirectory() as tmp, _counted_loop() as calls:
        path = Path(tmp) / "assignments.csv"
        write_assignments(path, corpus.doc_ids, clusters)
        rows = read_assignments(path)
    assert rows == list(zip(corpus.doc_ids, clusters.tolist()))
    assert calls == [] or _native.kernel() is None


def test_line_loop_never_runs_on_a_cluster_run(tmp_path):
    corpus = generate_corpus(GenSpec(k=4, v=300, d=400, seed=5))[0]
    write_archive(corpus, tmp_path / "archive")
    for algorithm in ("gsdmm", "gsdmm+"):
        run = tmp_path / algorithm
        assert cli.main(["cluster", str(tmp_path / "archive"), str(run),
                         "--algorithm", algorithm, "--kmax", "12", "--kreal", "4",
                         "--iters", "2"]) == 0
        with _counted_loop() as calls:
            rows = read_assignments(run / "assignments.csv")
            assert cli.main(["eval", str(run / "assignments.csv"),
                             str(tmp_path / "archive")]) == 0
            assert cli.main(["topwords", str(tmp_path / "archive"), str(run)]) == 0
        assert [doc_id for doc_id, _ in rows] == list(corpus.doc_ids)
        assert calls == [] or _native.kernel() is None
