import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gsdmm import cli
from gsdmm.cli import main
from gsdmm.corpus import TokenRules
from gsdmm.sampler import RunConfig


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def pipeline_dir(tmp_path):
    """synth -> preprocess pipeline artifacts shared by several tests."""
    data = tmp_path / "data.jsonl"
    archive = tmp_path / "archive"
    assert run("synth", data, "--k", 3, "--v", 200, "--d", 90, "--seed", 4) == 0
    assert run("preprocess", data, archive, "--min-df", 1) == 0
    return tmp_path


class TestSynth:
    def test_single_cluster_records(self, tmp_path):
        out = tmp_path / "synth.jsonl"
        assert run("synth", out, "--k", 1, "--v", 20, "--d", 5) == 0
        lines = [json.loads(x) for x in out.read_text().splitlines()]
        assert len(lines) == 5
        assert {x["label"] for x in lines} == {"c0"}

    def test_fixed_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run("synth", out, "--k", 4, "--v", 100, "--d", 50,
                       "--seed", 9) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_spec_exit_2(self, tmp_path):
        assert run("synth", tmp_path / "x.jsonl", "--k", 0, "--v", 10,
                   "--d", 5) == 2


class TestPreprocess:
    def test_writes_archive_and_stats(self, tmp_path):
        data = tmp_path / "tiny.jsonl"
        rows = [{"id": f"t{i}", "text": "vote election tonight", "label": "pol"}
                for i in range(10)]
        data.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        archive = tmp_path / "arch"
        assert run("preprocess", data, archive) == 0
        stats = json.loads((archive / "stats.json").read_text())
        assert stats["D"] <= 10 and stats["V"] >= 1
        assert (archive / "vocabulary.tsv").exists()
        assert (archive / "documents.txt").exists()

    def test_empty_input_exit_2(self, tmp_path):
        data = tmp_path / "empty.jsonl"
        data.write_text("")
        assert run("preprocess", data, tmp_path / "arch") == 2

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        data = tmp_path / "bad.jsonl"
        data.write_text('{"id": "a", "text": "x y"}\n{"id": "b"}\n')
        assert run("preprocess", data, tmp_path / "arch") == 2
        assert "line 2" in capsys.readouterr().err

    def test_rerun_byte_identical(self, pipeline_dir):
        archive = pipeline_dir / "archive"
        again = pipeline_dir / "archive2"
        assert run("preprocess", pipeline_dir / "data.jsonl", again,
                   "--min-df", 1) == 0
        for name in ("vocabulary.tsv", "documents.txt", "stats.json"):
            assert (archive / name).read_bytes() == (again / name).read_bytes()


class TestCluster:
    def test_gsdmm_defaults(self, pipeline_dir):
        out = pipeline_dir / "run_gsdmm"
        assert run("cluster", pipeline_dir / "archive", out,
                   "--algorithm", "gsdmm", "--iters", 3, "--seed", 1) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["alpha"] == 0.1 and summary["beta"] == 0.1
        assert summary["k_max"] == 500
        assert summary["iterations"] == 3
        assert (out / "assignments.csv").read_text().startswith("doc_id,cluster\n")

    def test_gsdmm_plus_defaults_and_outputs(self, pipeline_dir):
        out = pipeline_dir / "run_plus"
        assert run("cluster", pipeline_dir / "archive", out,
                   "--algorithm", "gsdmm+", "--kmax", 12, "--kreal", 3,
                   "--iters", 5, "--seed", 2, "--trace") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["beta"] == 0.01  # enhanced-variant default
        assert summary["k_final"] == 3
        assert (out / "trace.csv").exists()
        assert (out / "mergelog.csv").read_text().startswith(
            "step,cluster_a,cluster_b,similarity")

    def test_same_seed_byte_identical(self, pipeline_dir):
        outs = []
        for name in ("r1", "r2"):
            out = pipeline_dir / name
            assert run("cluster", pipeline_dir / "archive", out,
                       "--algorithm", "gsdmm+", "--kmax", 10, "--kreal", 3,
                       "--iters", 4, "--seed", 11) == 0
            outs.append((out / "assignments.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("algorithm", ["gsdmm", "gsdmm+"])
    def test_trace_metrics_only_when_traced(self, pipeline_dir, monkeypatch,
                                            algorithm):
        # the per-sweep ACC and NMI are computed when the trace is read, so
        # an untraced run never calls the ACC solver
        from gsdmm import evaluation

        solves = []
        real = evaluation.max_assignment
        monkeypatch.setattr(evaluation, "max_assignment",
                            lambda w: solves.append(w.shape) or real(w))
        args = ["cluster", pipeline_dir / "archive", pipeline_dir / "r",
                "--algorithm", algorithm, "--kmax", 6, "--kreal", 3,
                "--iters", 3]
        assert run(*args) == 0
        assert solves == []
        assert run(*args, "--trace") == 0
        assert len(solves) == 3

    def test_config_violation_exit_3(self, pipeline_dir):
        assert run("cluster", pipeline_dir / "archive", pipeline_dir / "bad",
                   "--algorithm", "gsdmm+", "--kmax", 5, "--kreal", 9) == 3

    def test_kmax_beyond_corpus_exit_3(self, pipeline_dir):
        # adaptive init cannot seed more clusters than there are documents;
        # the failed run leaves no run directory
        assert run("cluster", pipeline_dir / "archive", pipeline_dir / "bad2",
                   "--algorithm", "gsdmm+", "--kmax", 100000, "--iters", 1) == 3
        assert not (pipeline_dir / "bad2").exists()

    def test_unallocatable_kmax_exit_3(self, pipeline_dir, capsys):
        # 2**60 clusters: numpy would refuse the arrays before allocating
        out = pipeline_dir / "huge"
        assert run("cluster", pipeline_dir / "archive", out,
                   "--algorithm", "gsdmm", "--kmax", 2 ** 60, "--iters", 1) == 3
        err = capsys.readouterr().err
        assert f"k_max={2 ** 60}" in err and "bytes" in err
        assert not out.exists()

    def test_failed_allocation_exit_3(self, pipeline_dir, capsys, monkeypatch):
        def no_memory(self, *args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli.ModelState, "__init__", no_memory)
        out = pipeline_dir / "oom"
        assert run("cluster", pipeline_dir / "archive", out,
                   "--algorithm", "gsdmm", "--kmax", 50, "--iters", 1) == 3
        assert "k_max=50 over V=" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_with_flag_override(self, pipeline_dir, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text(
            "algorithm = gsdmm\n"
            "kmax = 7\n"
            "iters = 2\n"
            "seed = 3\n"
            "# comment line\n"
            "alpha = 0.2\n"
        )
        out = pipeline_dir / "cfg_run"
        assert run("cluster", pipeline_dir / "archive", out,
                   "--config", cfg, "--alpha", "0.5") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["alpha"] == 0.5  # flag wins
        assert summary["k_max"] == 7    # file value used

    def test_unknown_config_key_exit_3(self, pipeline_dir, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("planets = 9\n")
        assert run("cluster", pipeline_dir / "archive",
                   pipeline_dir / "never", "--config", cfg) == 3

    @pytest.mark.parametrize("key", ["trace", "entropy_norm"])
    def test_non_boolean_config_value_exit_3(self, pipeline_dir, tmp_path,
                                             capsys, key):
        # bool("no") is True: "trace = no" used to write trace.csv
        cfg = tmp_path / "bool.conf"
        cfg.write_text(f"kmax = 5\niters = 1\n{key} = no\n")
        out = pipeline_dir / "bool_run"
        assert run("cluster", pipeline_dir / "archive", out, "--config", cfg) == 3
        assert "must be true or false" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    def test_non_boolean_stem_exit_3(self, pipeline_dir, tmp_path, capsys):
        cfg = tmp_path / "stem.conf"
        cfg.write_text("stem = no\n")
        assert run("preprocess", pipeline_dir / "data.jsonl",
                   pipeline_dir / "stem_arch", "--config", cfg) == 3
        assert "must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["kmax = 10.5", "iters = 2.5", "seed = true",
                                      "kreal = three"])
    def test_non_integral_config_value_exit_3(self, pipeline_dir, tmp_path,
                                              capsys, line):
        # kmax = 10.5 used to be truncated to 10 silently
        cfg = tmp_path / "int.conf"
        cfg.write_text(line + "\n")
        assert run("cluster", pipeline_dir / "archive",
                   pipeline_dir / "int_run", "--config", cfg) == 3
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["alpha", "kmax"])
    def test_config_number_too_large_exit_3(self, pipeline_dir, tmp_path, capsys,
                                            key):
        # a 401-digit integer used to crash float() with OverflowError (exit 1)
        cfg = tmp_path / "huge.conf"
        cfg.write_text(f"iters = 1\n{key} = 1{'0' * 400}\n")
        assert run("cluster", pipeline_dir / "archive",
                   pipeline_dir / "huge_run", "--config", cfg) == 3
        assert f"{cfg}:2: {key} is too large" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["alpha", "kmax"])
    def test_config_integer_past_the_digit_limit_exit_3(
            self, pipeline_dir, tmp_path, capsys, key):
        # int() refuses more than 4300 digits; float() then read inf, and
        # the run exited naming no file or line
        cfg = tmp_path / "huge.conf"
        cfg.write_text(f"iters = 1\n{key} = {'7' * 5000}\n")
        assert run("cluster", pipeline_dir / "archive",
                   pipeline_dir / "huge_run", "--config", cfg) == 3
        assert f"{cfg}:2: {key} is too large (5000 digits)" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("line, shown", [
        ("alpha = 1e400", "inf"), ("beta = inf", "inf"),
        ("entropy_eps = -1e999", "-inf"), ("alpha = nan", "nan")])
    def test_config_non_finite_number_names_its_line_exit_3(
            self, pipeline_dir, tmp_path, capsys, line, shown):
        # float() reads 1e400 as inf, which RunConfig refused later with a
        # message naming no file or line
        key = line.split()[0]
        cfg = tmp_path / "inf.conf"
        cfg.write_text(f"iters = 1\n{line}\n")
        assert run("cluster", pipeline_dir / "archive",
                   pipeline_dir / "inf_run", "--config", cfg) == 3
        assert f"{cfg}:2: {key} must be finite, got {shown}" \
            in capsys.readouterr().err
        assert not (pipeline_dir / "inf_run").exists()

    @pytest.mark.parametrize("line", ["stopwords = 99", "stopwords = 0",
                                      "stopwords = true", "format = 1"])
    def test_bare_number_for_string_key_exit_3(self, pipeline_dir, tmp_path,
                                               capsys, line):
        # stopwords = 99 used to reach open(99), a file descriptor
        cfg = tmp_path / "str.conf"
        cfg.write_text(line + "\n")
        assert run("preprocess", pipeline_dir / "data.jsonl",
                   pipeline_dir / "str_arch", "--config", cfg) == 3
        assert "must be a string" in capsys.readouterr().err
        assert not (pipeline_dir / "str_arch").exists()

    def test_quoted_number_is_a_stopword_path(self, pipeline_dir, tmp_path,
                                              monkeypatch):
        def vocabulary(archive):
            lines = (archive / "vocabulary.tsv").read_text().splitlines()
            return [line.split("\t")[1] for line in lines]

        stopped = vocabulary(pipeline_dir / "archive")[0]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "99").write_text(stopped + "\n")
        cfg = tmp_path / "str.conf"
        cfg.write_text('stopwords = "99"\nformat = "jsonl"\n')
        out = pipeline_dir / "quoted_arch"
        assert run("preprocess", pipeline_dir / "data.jsonl", out,
                   "--min-df", 1, "--config", cfg) == 0
        assert stopped in vocabulary(pipeline_dir / "archive")
        assert stopped not in vocabulary(out)

    def test_typed_config_values_accepted(self, pipeline_dir, tmp_path):
        cfg = tmp_path / "typed.conf"
        cfg.write_text("kmax = 6.0\niters = 1\ntrace = true\nentropy_norm = false\n")
        out = pipeline_dir / "typed_run"
        assert run("cluster", pipeline_dir / "archive", out, "--config", cfg) == 0
        assert json.loads((out / "summary.json").read_text())["k_max"] == 6
        assert (out / "trace.csv").exists()

    @pytest.mark.parametrize("flag,value", [("--alpha", "nan"), ("--beta", "inf")])
    def test_non_finite_pseudocount_exit_3(self, pipeline_dir, capsys, flag, value):
        assert run("cluster", pipeline_dir / "archive", pipeline_dir / "nf",
                   "--iters", 1, flag, value) == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("given", [["--seed", -1], "seed = -5"],
                             ids=["flag", "config"])
    def test_negative_seed_exit_3(self, pipeline_dir, tmp_path, capsys, given):
        # numpy used to refuse it after the run directory was made (exit 2,
        # "expected non-negative integer", naming no key)
        if isinstance(given, str):
            cfg = tmp_path / "seed.conf"
            cfg.write_text(given + "\n")
            given = ["--config", cfg]
        out = pipeline_dir / "neg_seed"
        assert run("cluster", pipeline_dir / "archive", out, "--iters", 1,
                   *given) == 3
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,lines,message", [
        (["--min-len", 0], "", "min_word_len"),
        (["--min-df", 0], "", "min_df"),
        (["--min-len", 9, "--max-len", 3], "", "min_word_len"),
        ([], "min_len = 0", "min_word_len"),
        ([], "min_df = 0", "min_df"),
        ([], "min_len = 9\nmax_len = 3", "min_word_len"),
    ], ids=["min-len", "min-df", "min-len-above-max-len", "config-min-len",
            "config-min-df", "config-min-len-above-max-len"])
    def test_rule_value_out_of_range_exit_3(self, pipeline_dir, tmp_path, capsys,
                                            flags, lines, message):
        # TokenRules' ValueError used to exit 2
        cfg = tmp_path / "rules.conf"
        cfg.write_text(lines + "\n")
        out = pipeline_dir / "rules_arch"
        assert run("preprocess", pipeline_dir / "data.jsonl", out, *flags,
                   "--config", cfg) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()


def _corrupt_first_pair(archive, pair):
    """Replace the first word:count pair of the archive's first document."""
    path = archive / "documents.txt"
    lines = path.read_text().splitlines(keepends=True)
    doc_id, label, blob = lines[0].rstrip("\n").split("\t")
    lines[0] = f"{doc_id}\t{label}\t{' '.join([pair] + blob.split()[1:])}\n"
    path.write_text("".join(lines))


class TestArchiveBoundary:
    def test_negative_word_id_exit_2(self, pipeline_dir, capsys):
        _corrupt_first_pair(pipeline_dir / "archive", "-1:1")
        assert run("cluster", pipeline_dir / "archive", pipeline_dir / "r",
                   "--iters", 1) == 2
        assert "line 1" in capsys.readouterr().err

    def test_word_id_past_vocabulary_exit_2(self, pipeline_dir, capsys):
        archive = pipeline_dir / "archive"
        v = len((archive / "vocabulary.tsv").read_text().splitlines())
        _corrupt_first_pair(archive, f"{v}:1")
        assert run("cluster", archive, pipeline_dir / "r", "--iters", 1) == 2
        assert f"word id {v}" in capsys.readouterr().err

    def test_count_below_one_exit_2(self, pipeline_dir, capsys):
        _corrupt_first_pair(pipeline_dir / "archive", "0:0")
        assert run("cluster", pipeline_dir / "archive", pipeline_dir / "r",
                   "--iters", 1) == 2
        assert "count 0" in capsys.readouterr().err

    def test_repeated_word_id_exit_2(self, pipeline_dir, capsys):
        # 5:1 ... 5:5 used to keep only the last count
        path = pipeline_dir / "archive" / "documents.txt"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].rstrip("\n") + " 5:1 5:5\n"
        path.write_text("".join(lines))
        assert run("cluster", pipeline_dir / "archive", pipeline_dir / "r",
                   "--iters", 1) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "repeated word id" in err

    def test_duplicate_doc_id_exit_2(self, pipeline_dir, capsys):
        path = pipeline_dir / "archive" / "documents.txt"
        lines = path.read_text().splitlines(keepends=True)
        first_id = lines[0].split("\t", 1)[0]
        lines[2] = first_id + "\t" + lines[2].split("\t", 1)[1]
        path.write_text("".join(lines))
        assert run("cluster", pipeline_dir / "archive", pipeline_dir / "r",
                   "--iters", 1) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and f"duplicate doc id {first_id!r}" in err

    @pytest.mark.parametrize("key", ["D", "V"])
    def test_stats_disagreeing_with_files_exit_2(self, pipeline_dir, capsys, key):
        path = pipeline_dir / "archive" / "stats.json"
        stats = json.loads(path.read_text())
        actual = stats[key]
        stats[key] += 1
        path.write_text(json.dumps(stats, sort_keys=True, indent=2) + "\n")
        assert run("cluster", pipeline_dir / "archive", pipeline_dir / "r",
                   "--iters", 1) == 2
        err = capsys.readouterr().err
        assert f"{key}={actual + 1}" in err and f"has {actual}" in err


def test_every_setting_reaches_the_command_line():
    # a RunConfig or TokenRules field that no flag or config key sets is a
    # switch only tests turn, which doubles what the tests must cover;
    # validate_every_sweep, the exact-count fault detector, is the exception
    keys = {**cli.RUN_FIELDS, **cli.RULE_FIELDS, "stopwords": "stopword_list"}
    assert set(keys) <= set(cli.CONFIG_KEYS)
    fields = {f.name for cls in (RunConfig, TokenRules) for f in dataclasses.fields(cls)}
    assert fields - set(keys.values()) == {"validate_every_sweep"}
    assert set(keys.values()) <= fields


def test_one_parser_per_process(tmp_path, monkeypatch):
    # main builds its parser on its first call and looks each command up
    # when it runs, so a wrapper installed after that call (as a tracer
    # installs one) still runs
    builds, evals = [], []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    assert run("synth", tmp_path / "s.jsonl", "--k", 1, "--v", 5, "--d", 2) == 0
    monkeypatch.setattr(cli, "cmd_eval", lambda args: evals.append(args.gold) or 0)
    assert run("eval", tmp_path / "assignments.csv", "gold") == 0
    assert builds == [1]
    assert evals == ["gold"]


class TestImportHygiene:
    def test_no_scipy_on_the_run_path(self, pipeline_dir):
        # scipy is needed only by the synth oracles; the commands never load it
        archive, runs = pipeline_dir / "archive", pipeline_dir / "runs"
        code = "\n".join([
            "import sys",
            "import gsdmm, gsdmm.cli",
            "archive, runs = sys.argv[1:3]",
            "for algo in ('gsdmm', 'gsdmm+'):",
            "    run = f'{runs}/{algo}'",
            "    codes = [gsdmm.cli.main(['cluster', archive, run, '--algorithm', algo,",
            "                             '--kmax', '6', '--kreal', '3', '--iters', '2',",
            "                             '--trace']),",
            "             gsdmm.cli.main(['eval', f'{run}/assignments.csv', archive]),",
            "             gsdmm.cli.main(['topwords', archive, run, '-n', '3'])]",
            "    assert codes == [0, 0, 0], codes",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ])
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code, str(archive), str(runs)],
                             env=env, check=True, capture_output=True, text=True)
        assert out.stdout.splitlines()[-1] == "[]"
        assert (runs / "gsdmm+" / "trace.csv").read_text().count(",") > 10


class TestEval:
    def test_perfect_assignments(self, pipeline_dir):
        out = pipeline_dir / "run_eval"
        assert run("cluster", pipeline_dir / "archive", out,
                   "--algorithm", "gsdmm+", "--kmax", 10, "--kreal", 3,
                   "--iters", 8, "--seed", 0) == 0
        report_path = pipeline_dir / "report.json"
        assert run("eval", out / "assignments.csv", pipeline_dir / "archive",
                   "--out", report_path) == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {"acc", "nmi", "k_pred", "k_gold"}
        assert report["acc"] == 1.0 and report["nmi"] == 1.0

    def test_unmatched_doc_id_exit_4(self, pipeline_dir, tmp_path, capsys):
        assignments = tmp_path / "assign.csv"
        assignments.write_text("doc_id,cluster\nghost,0\n")
        assert run("eval", assignments, pipeline_dir / "archive") == 4
        assert "ghost" in capsys.readouterr().err

    def test_duplicate_id_in_dataset_exit_2(self, pipeline_dir, tmp_path, capsys):
        # the last label of a repeated id used to win silently (exit 0)
        out = pipeline_dir / "run_dup_gold"
        assert run("cluster", pipeline_dir / "archive", out, "--kmax", 6,
                   "--iters", 1) == 0
        lines = (pipeline_dir / "data.jsonl").read_text().splitlines()
        record = json.loads(lines[3])
        lines.append(json.dumps({**record, "label": "other"}))
        data = tmp_path / "dup.jsonl"
        data.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("eval", out / "assignments.csv", data) == 2
        assert f"duplicate document id {str(record['id'])!r}" \
            in capsys.readouterr().err

    def test_header_only_assignments_exit_2(self, pipeline_dir, tmp_path, capsys):
        # used to report "empty partitions", naming neither file nor cause
        assignments = tmp_path / "assign.csv"
        assignments.write_text("doc_id,cluster\n")
        assert run("eval", assignments, pipeline_dir / "archive") == 2
        assert f"{assignments} holds no assignments" in capsys.readouterr().err

    def test_cli_matches_library_eval(self, pipeline_dir, capsys):
        from gsdmm.cli import read_archive, _read_assignments
        from gsdmm.evaluation import LabeledPartitionPair, evaluate

        out = pipeline_dir / "run_match"
        assert run("cluster", pipeline_dir / "archive", out,
                   "--algorithm", "gsdmm", "--kmax", 10, "--iters", 5,
                   "--seed", 6) == 0
        capsys.readouterr()
        assert run("eval", out / "assignments.csv", pipeline_dir / "archive") == 0
        cli_report = json.loads(capsys.readouterr().out.strip())

        corpus = read_archive(pipeline_dir / "archive")
        rows = _read_assignments(out / "assignments.csv")
        gold = {d.doc_id: d.gold_label for d in corpus.documents}
        pair = LabeledPartitionPair.from_labels(
            [z for _, z in rows], [gold[i] for i, _ in rows])
        lib_report = evaluate(pair).to_json_dict()
        assert cli_report == pytest.approx(lib_report)


def _duplicate_first_row(run_dir):
    path = run_dir / "assignments.csv"
    lines = path.read_text().splitlines()
    lines.append(lines[1])
    path.write_text("\n".join(lines) + "\n")


class TestAssignmentsBoundary:
    @pytest.fixture()
    def run_dir(self, pipeline_dir):
        out = pipeline_dir / "run_dup"
        assert run("cluster", pipeline_dir / "archive", out,
                   "--algorithm", "gsdmm", "--kmax", 6, "--iters", 1,
                   "--seed", 0) == 0
        return out

    def test_duplicate_doc_id_eval_exit_2(self, pipeline_dir, run_dir, capsys):
        # eval used to score D + 1 rows and exit 0
        _duplicate_first_row(run_dir)
        capsys.readouterr()
        assert run("eval", run_dir / "assignments.csv",
                   pipeline_dir / "archive") == 2
        assert "duplicate doc id" in capsys.readouterr().err

    def test_duplicate_doc_id_topwords_exit_2(self, pipeline_dir, run_dir, capsys):
        _duplicate_first_row(run_dir)
        capsys.readouterr()
        assert run("topwords", pipeline_dir / "archive", run_dir) == 2
        assert "duplicate doc id" in capsys.readouterr().err


class TestTopwords:
    def test_large_cluster_id_sized_by_ids_in_use(self, pipeline_dir, capsys,
                                                  monkeypatch):
        out = pipeline_dir / "run_big"
        assert run("cluster", pipeline_dir / "archive", out,
                   "--algorithm", "gsdmm", "--kmax", 6, "--iters", 2,
                   "--seed", 0) == 0
        path = out / "assignments.csv"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",60000"
        path.write_text("\n".join(lines) + "\n")
        ids = {int(line.rsplit(",", 1)[1]) for line in lines[1:]}
        sizes = []
        real_for_corpus = cli.ModelState.for_corpus

        def spy(corpus, k_max, alpha):
            sizes.append(k_max)
            return real_for_corpus(corpus, k_max, alpha)

        monkeypatch.setattr(cli.ModelState, "for_corpus", spy)
        capsys.readouterr()
        assert run("topwords", pipeline_dir / "archive", out, "-n", 2) == 0
        printed = {int(row.split("\t")[0]) for row in
                   capsys.readouterr().out.strip().splitlines()[1:]}
        assert 60000 in printed and printed == ids
        assert sizes == [len(ids)]

    def test_table_shape_default_n(self, pipeline_dir, capsys):
        out = pipeline_dir / "run_tw"
        assert run("cluster", pipeline_dir / "archive", out,
                   "--algorithm", "gsdmm+", "--kmax", 8, "--kreal", 3,
                   "--iters", 5, "--seed", 0) == 0
        capsys.readouterr()
        assert run("topwords", pipeline_dir / "archive", out) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "cluster\trank\tword\tphi"
        body = lines[1:]
        # ten rows per cluster when the vocabulary is large enough
        clusters = {row.split("\t")[0] for row in body}
        for z in clusters:
            assert sum(r.split("\t")[0] == z for r in body) == 10

    def test_single_word_per_cluster(self, pipeline_dir, capsys):
        out = pipeline_dir / "run_tw1"
        assert run("cluster", pipeline_dir / "archive", out,
                   "--algorithm", "gsdmm", "--kmax", 6, "--iters", 4,
                   "--seed", 0) == 0
        capsys.readouterr()
        assert run("topwords", pipeline_dir / "archive", out, "-n", 1) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        ranks = [row.split("\t")[1] for row in lines]
        assert set(ranks) == {"1"}

    def test_negative_cluster_id_exit_2(self, pipeline_dir, capsys):
        out = pipeline_dir / "run_neg"
        assert run("cluster", pipeline_dir / "archive", out,
                   "--algorithm", "gsdmm", "--kmax", 6, "--iters", 1,
                   "--seed", 0) == 0
        path = out / "assignments.csv"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",-1"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("topwords", pipeline_dir / "archive", out) == 2
        assert "negative cluster id" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -2])
    def test_n_below_one_exit_3(self, pipeline_dir, capsys, n):
        out = pipeline_dir / "run_n"
        assert run("cluster", pipeline_dir / "archive", out, "--kmax", 6,
                   "--iters", 1) == 0
        capsys.readouterr()
        assert run("topwords", pipeline_dir / "archive", out, "-n", n) == 3
        assert "-n must be >= 1" in capsys.readouterr().err

    def test_header_only_assignments_exit_2(self, pipeline_dir, capsys):
        # used to report "k_max must be >= 1, got 0"
        out = pipeline_dir / "run_empty"
        assert run("cluster", pipeline_dir / "archive", out, "--kmax", 6,
                   "--iters", 1) == 0
        (out / "assignments.csv").write_text("doc_id,cluster\n")
        capsys.readouterr()
        assert run("topwords", pipeline_dir / "archive", out) == 2
        assert "holds no assignments" in capsys.readouterr().err

    def test_missing_artifacts_exit_5(self, pipeline_dir):
        assert run("topwords", pipeline_dir / "archive",
                   pipeline_dir / "no_such_run") == 5

    @pytest.fixture()
    def summary_run(self, pipeline_dir):
        out = pipeline_dir / "run_summary"
        assert run("cluster", pipeline_dir / "archive", out, "--kmax", 6,
                   "--iters", 1, "--seed", 0) == 0
        return out

    @pytest.mark.parametrize("text", [
        "[]", '"str"', "null", "{", '{"beta": [1]}', '{"beta": true}',
        '{"beta": "0.1"}', '{"beta": null}', '{"beta": 0}', '{"beta": -0.5}',
        '{"beta": NaN}', '{"beta": Infinity}', '{"beta": 1e999}',
        pytest.param('{"beta": 1' + "0" * 400 + "}", id="beta-past-float"),
    ])
    def test_bad_summary_exit_2(self, pipeline_dir, summary_run, capsys, text):
        # these used to crash with exit 1, run with a beta of true as 1.0,
        # or, for invalid JSON, not name the file
        (summary_run / "summary.json").write_text(text)
        capsys.readouterr()
        assert run("topwords", pipeline_dir / "archive", summary_run) == 2
        err = capsys.readouterr().err
        assert "summary.json" in err and len(err) < 200

    @pytest.mark.parametrize("alpha", ['"x"', "null", "[]"])
    def test_alpha_not_read(self, pipeline_dir, summary_run, capsys, alpha):
        # top_words uses beta alone; a bad alpha used to exit 1
        path = summary_run / "summary.json"
        capsys.readouterr()
        assert run("topwords", pipeline_dir / "archive", summary_run) == 0
        want = capsys.readouterr().out
        beta = json.loads(path.read_text())["beta"]
        path.write_text(f'{{"alpha": {alpha}, "beta": {beta}}}')
        assert run("topwords", pipeline_dir / "archive", summary_run) == 0
        assert capsys.readouterr().out == want

    def test_disjoint_topics_topword_from_own_block(self, tmp_path, capsys):
        # two topics with disjoint hand-built vocabularies
        data = tmp_path / "two.jsonl"
        rows = []
        for i in range(20):
            rows.append({"id": f"a{i}", "text": "apple banana cherry apple",
                         "label": "fruit"})
            rows.append({"id": f"b{i}", "text": "engine wheel brake engine",
                         "label": "car"})
        data.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        archive = tmp_path / "arch"
        run_dir = tmp_path / "run"
        assert run("preprocess", data, archive) == 0
        assert run("cluster", archive, run_dir, "--algorithm", "gsdmm",
                   "--kmax", 6, "--iters", 10, "--seed", 1) == 0
        capsys.readouterr()
        assert run("topwords", archive, run_dir, "-n", 1) == 0
        top = [line.split("\t")[2] for line in
               capsys.readouterr().out.strip().splitlines()[1:]]
        fruit = {"apple", "banana", "cherry"}
        car = {"engine", "wheel", "brake"}
        assert len(top) == 2
        assert (top[0] in fruit) != (top[0] in car)
        assert (top[1] in fruit) != (top[1] in car)
        assert {top[0] in fruit, top[1] in fruit} == {True, False}


class TestPipelineComposability:
    def test_synth_to_eval_in_sequence(self, tmp_path):
        data = tmp_path / "p.jsonl"
        archive = tmp_path / "parch"
        out = tmp_path / "prun"
        assert run("synth", data, "--k", 8, "--v", 2000, "--d", 300,
                   "--doc-len", 8, "--beta-gen", 0.01, "--seed", 0) == 0
        assert run("preprocess", data, archive, "--min-df", 1) == 0
        assert run("cluster", archive, out, "--algorithm", "gsdmm+",
                   "--kmax", 20, "--kreal", 8, "--iters", 5, "--seed", 0) == 0
        assert run("eval", out / "assignments.csv", archive) == 0
