"""Numeric fields of vocabulary.tsv and assignments.csv are ASCII digits:
any other value exits 2 with its line, where int() used to either accept
it or fail without one."""

import json

import pytest

from gsdmm.archive import read_archive
from gsdmm.cli import _read_assignments, main
from gsdmm.errors import MalformedRecord


def run(*argv):
    return main([str(a) for a in argv])


def _archive(path, vocab_lines, docs="a\tx\t0:1 1:1\nb\ty\t1:2 2:1\n"):
    path.mkdir()
    (path / "vocabulary.tsv").write_text("".join(vocab_lines), encoding="utf-8")
    (path / "documents.txt").write_text(docs, encoding="utf-8")
    (path / "stats.json").write_text(json.dumps(
        {"D": docs.count("\n"), "V": len(vocab_lines), "mean_len": 2.0,
         "max_len": 3}))
    return path


GOOD = ["0\tw0\t1\n", "1\tw1\t2\n", "2\tw2\t1\n"]


class TestVocabulary:
    def test_reads_ids_and_document_frequencies(self, tmp_path):
        vocab = read_archive(_archive(tmp_path / "a", GOOD)).vocabulary
        assert vocab.id_to_word == ("w0", "w1", "w2")
        assert vocab.doc_freq == (1, 2, 1)
        assert all(type(df) is int for df in vocab.doc_freq)

    def test_leading_zeros_and_long_values(self, tmp_path):
        lines = ["00\tw0\t0001\n", "1\tw1\t" + "9" * 30 + "\n", "2\tw2\t1\n"]
        vocab = read_archive(_archive(tmp_path / "a", lines)).vocabulary
        assert vocab.doc_freq[0] == 1
        assert vocab.doc_freq[1] == 2 ** 63 - 1  # capped past int64

    @pytest.mark.parametrize("column", [0, 2])
    @pytest.mark.parametrize("value", ["x", "+1", "-0", "1_0", " 1", "1 ",
                                       "١", ""])
    def test_non_digit_value_names_its_line(self, tmp_path, capsys, column, value):
        lines = list(GOOD)
        cols = lines[1].rstrip("\n").split("\t")
        cols[column] = value
        lines[1] = "\t".join(cols) + "\n"
        archive = _archive(tmp_path / "a", lines)
        with pytest.raises(MalformedRecord) as exc:
            read_archive(archive)
        assert exc.value.line_number == 2
        assert repr(value) in str(exc.value)
        assert run("cluster", archive, tmp_path / "r", "--iters", 1) == 2
        assert "line 2" in capsys.readouterr().err

    def test_first_bad_line_wins(self, tmp_path):
        # a bad df on line 2, ids out of order from line 3, a bad id on 4
        lines = ["0\tw0\t1\n", "1\tw1\t+2\n", "5\tw2\t1\n", "x\tw3\t1\n"]
        with pytest.raises(MalformedRecord, match="line 2: expected an "
                           "ASCII-digit df, got '\\+2'"):
            read_archive(_archive(tmp_path / "a", lines))
        lines[1] = "1\tw1\t2\n"
        with pytest.raises(MalformedRecord, match="line 3: vocabulary ids out of order"):
            read_archive(_archive(tmp_path / "b", lines))
        lines[2] = "2\tw2\t1\n"
        with pytest.raises(MalformedRecord, match="line 4: expected an "
                           "ASCII-digit id, got 'x'"):
            read_archive(_archive(tmp_path / "c", lines))

    def test_values_past_the_int_string_limit(self, tmp_path, capsys):
        # Python's int() refuses strings past 4300 digits: a df past int64
        # reads as int64 max, an id past it is out of order on its line
        big = "7" * 5000
        lines = ["0\tw0\t1\n", f"1\tw1\t{big}\n", f"00{big}\tw2\t1\n"]
        with pytest.raises(MalformedRecord, match="line 3: vocabulary ids out of order"):
            read_archive(_archive(tmp_path / "a", lines))
        lines[2] = "0" * 5000 + "2\tw2\t1\n"
        vocab = read_archive(_archive(tmp_path / "b", lines)).vocabulary
        assert vocab.doc_freq == (1, 2 ** 63 - 1, 1)
        assert run("cluster", tmp_path / "a", tmp_path / "r", "--iters", 1) == 2
        assert "line 3" in capsys.readouterr().err

    def test_column_count_kept(self, tmp_path):
        lines = ["0\tw0\t1\n", "1\tw1\n", "2\tw2\t1\n"]
        with pytest.raises(MalformedRecord, match="line 2: expected id<TAB>word<TAB>df"):
            read_archive(_archive(tmp_path / "a", lines))


class TestAssignments:
    def _write(self, tmp_path, rows):
        path = tmp_path / "assignments.csv"
        path.write_text("doc_id,cluster\n" + "".join(f"{r}\n" for r in rows))
        return path

    def test_digits_read(self, tmp_path):
        path = self._write(tmp_path, ["a,0", "b,007", "c,12"])
        assert _read_assignments(path) == [("a", 0), ("b", 7), ("c", 12)]

    @pytest.mark.parametrize("value", ["abc", "+5", "1_0", " 5", "5 ", "٥",
                                       "", "1.0"])
    def test_non_digit_cluster_names_its_line(self, tmp_path, capsys, value):
        path = self._write(tmp_path, ["a,0", f"b,{value}"])
        with pytest.raises(MalformedRecord) as exc:
            _read_assignments(path)
        assert exc.value.line_number == 3
        assert repr(value) in str(exc.value)
        archive = _archive(tmp_path / "a", GOOD)
        assert run("eval", path, archive) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("value, read", [
        ("0" * 4999 + "5", 5), ("9223372036854775807", 2 ** 63 - 1),
        ("9223372036854775808", None), ("7" * 5000, None),
    ], ids=["5000-digit-5", "int64-max", "past-int64", "5000-digits"])
    def test_cluster_id_past_int64(self, tmp_path, capsys, value, read):
        # Python's int() refuses strings past 4300 digits
        path = self._write(tmp_path, ["a,0", f"b,{value}"])
        if read is not None:
            assert _read_assignments(path) == [("a", 0), ("b", read)]
            return
        with pytest.raises(MalformedRecord, match="line 3: cluster id .* past int64"):
            _read_assignments(path)
        assert run("eval", path, _archive(tmp_path / "a", GOOD)) == 2
        assert "line 3" in capsys.readouterr().err

    def test_negative_cluster_named(self, tmp_path):
        path = self._write(tmp_path, ["a,-3"])
        with pytest.raises(MalformedRecord, match="line 2: negative cluster id -3"):
            _read_assignments(path)
