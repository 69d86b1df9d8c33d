import json
import os
from collections import Counter
from pathlib import Path

import pytest

from lexicost.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_RESOURCE,
    SuiteConfig,
    discover_tasks,
    main,
    run_bench,
    stratified_split,
)
from lexicost.analytics import ResultRow, read_results_csv, write_results_csv
from lexicost.cost import ALL_SPEC_NAMES
from lexicost.errors import LexicostError
from lexicost.kb import atom
from conftest import TRAINS_BIAS, TRAINS_BK, TRAINS_EXS, write_task_dir
import random

DATA = Path(__file__).parent / "data"
DEMO = Path(__file__).parent.parent / "demo"


@pytest.fixture
def trains_dir(tmp_path):
    d = tmp_path / "task"
    d.mkdir()
    (d / "bk.datalog").write_text(TRAINS_BK)
    (d / "exs.datalog").write_text(TRAINS_EXS)
    (d / "bias.txt").write_text(TRAINS_BIAS)
    return d


class TestLearnCommand:
    def test_learn_json(self, trains_dir, capsys):
        code = main([
            "learn",
            "--bk", str(trains_dir / "bk.datalog"),
            "--exs", str(trains_dir / "exs.datalog"),
            "--bias", str(trains_dir / "bias.txt"),
            "--cost", "errorsize",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["cost"] == [0, 3]
        assert payload["hypothesis"] == ["east(A):- closed(B),has_car(A,B)."]
        assert payload["proof"] == "optimal"
        assert payload["train"] == {"tp": 2, "fp": 0, "tn": 2, "fn": 0}

    @pytest.mark.parametrize("cost, extra, stop", [
        ("errorsize", [], "exhausted"),
        ("error", [], "zero-cost"),
        ("errorsize", ["--candidate-cap", "2"], "candidate-cap"),
    ])
    def test_learn_json_reports_stop(self, trains_dir, capsys, cost, extra, stop):
        code = main([
            "learn",
            "--bk", str(trains_dir / "bk.datalog"),
            "--exs", str(trains_dir / "exs.datalog"),
            "--bias", str(trains_dir / "bias.txt"),
            "--cost", cost, *extra,
        ])
        assert code == EXIT_OK
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert sorted(stats) == [
            "combine_resolves", "combine_skipped", "generated", "promising", "stop"
        ]
        assert stats["stop"] == stop

    @pytest.mark.parametrize("option", [["--max-size", "-3"],
                                        ["--candidate-cap", "-1"]])
    def test_negative_limit_exit_2(self, trains_dir, capsys, option):
        code = main([
            "learn",
            "--bk", str(trains_dir / "bk.datalog"),
            "--exs", str(trains_dir / "exs.datalog"),
            "--bias", str(trains_dir / "bias.txt"),
            "--cost", "errorsize", *option,
        ])
        assert code == EXIT_INPUT
        assert "must be >= 0" in capsys.readouterr().err

    def test_learn_with_test_examples(self, trains_dir, capsys):
        (trains_dir / "test.datalog").write_text(
            "pos(east(t1)). neg(east(t4))."
        )
        code = main([
            "learn",
            "--bk", str(trains_dir / "bk.datalog"),
            "--exs", str(trains_dir / "exs.datalog"),
            "--bias", str(trains_dir / "bias.txt"),
            "--cost", "errorsize",
            "--test-exs", str(trains_dir / "test.datalog"),
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["test"]["accuracy"] == 100.0

    def test_missing_exs_is_usage_error(self, trains_dir):
        with pytest.raises(SystemExit) as err:
            main([
                "learn",
                "--bk", str(trains_dir / "bk.datalog"),
                "--bias", str(trains_dir / "bias.txt"),
                "--cost", "errorsize",
            ])
        assert err.value.code == EXIT_INPUT

    def test_custom_cost_equals_errorsize(self, trains_dir, capsys):
        code = main([
            "learn",
            "--bk", str(trains_dir / "bk.datalog"),
            "--exs", str(trains_dir / "exs.datalog"),
            "--bias", str(trains_dir / "bias.txt"),
            "--cost", "custom:fp+fn,size",
        ])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["cost"] == [0, 3]

    def test_bad_cost_name_exit_2(self, trains_dir, capsys):
        code = main([
            "learn",
            "--bk", str(trains_dir / "bk.datalog"),
            "--exs", str(trains_dir / "exs.datalog"),
            "--bias", str(trains_dir / "bias.txt"),
            "--cost", "bogus",
        ])
        assert code == EXIT_INPUT

    def test_parse_error_exit_2(self, trains_dir, capsys):
        (trains_dir / "bad.datalog").write_text("edge(a,.")
        code = main([
            "learn",
            "--bk", str(trains_dir / "bad.datalog"),
            "--exs", str(trains_dir / "exs.datalog"),
            "--bias", str(trains_dir / "bias.txt"),
            "--cost", "error",
        ])
        assert code == EXIT_INPUT

    def test_underscore_led_term_exit_2(self, trains_dir, capsys):
        (trains_dir / "bad.datalog").write_text("closed(c1).\np(_x).\n")
        code = main([
            "learn",
            "--bk", str(trains_dir / "bad.datalog"),
            "--exs", str(trains_dir / "exs.datalog"),
            "--bias", str(trains_dir / "bias.txt"),
            "--cost", "error",
        ])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 2, col 3: ") and "'_x'" in captured.err

    def test_resource_limit_exit_3(self, trains_dir, monkeypatch, capsys):
        from lexicost import cli
        from lexicost.errors import ResourceLimitError

        def boom(task, options):
            raise ResourceLimitError("too big")

        monkeypatch.setattr(cli, "learn", boom)
        code = main([
            "learn",
            "--bk", str(trains_dir / "bk.datalog"),
            "--exs", str(trains_dir / "exs.datalog"),
            "--bias", str(trains_dir / "bias.txt"),
            "--cost", "error",
        ])
        assert code == EXIT_RESOURCE

    def test_recursion_error_exit_3(self, trains_dir, monkeypatch, capsys):
        from lexicost import cli

        def boom(task, options):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "learn", boom)
        code = main([
            "learn",
            "--bk", str(trains_dir / "bk.datalog"),
            "--exs", str(trains_dir / "exs.datalog"),
            "--bias", str(trains_dir / "bias.txt"),
            "--cost", "error",
        ])
        assert code == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_background_on_head_predicate_exit_2(self, tmp_path, capsys):
        # the empty program already covers the positive through the
        # background; such tasks are rejected rather than mis-costed
        d = tmp_path / "task"
        d.mkdir()
        (d / "bk.datalog").write_text("f(a). p(a). p(b).")
        (d / "exs.datalog").write_text("pos(f(a)). neg(f(b)).")
        (d / "bias.txt").write_text(
            "head_pred(f,1). body_pred(p,1). max_vars(1). max_body(1)."
        )
        code = main([
            "learn",
            "--bk", str(d / "bk.datalog"),
            "--exs", str(d / "exs.datalog"),
            "--bias", str(d / "bias.txt"),
            "--cost", "error",
        ])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "head predicate f/1" in captured.err

        rows = read_results_csv(run_bench(SuiteConfig(
            root_dir=tmp_path, cost_fns=("error",), repeats=1, timing=False
        )))
        assert [r.status for r in rows] == ["error"]

    def test_head_pred_of_arity_zero_exit_2(self, tmp_path, capsys):
        # `f:- q.` covers the positive, but a head without arguments
        # connects to no body literal, so the generator's space is empty
        d = tmp_path / "task"
        d.mkdir()
        (d / "bk.datalog").write_text("q. r(a).")
        (d / "exs.datalog").write_text("pos(f).")
        (d / "bias.txt").write_text("head_pred(f,0). body_pred(q,0). body_pred(r,1).")
        code = main([
            "learn",
            "--bk", str(d / "bk.datalog"),
            "--exs", str(d / "exs.datalog"),
            "--bias", str(d / "bias.txt"),
            "--cost", "error",
        ])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err == "error: head_pred f must have arity >= 1, got 0\n"

        rows = read_results_csv(run_bench(SuiteConfig(
            root_dir=tmp_path, cost_fns=("error",), repeats=1, timing=False
        )))
        assert [r.status for r in rows] == ["error"]

    def test_dump_combine(self, trains_dir, tmp_path, capsys):
        dump = tmp_path / "combine.txt"
        code = main([
            "learn",
            "--bk", str(trains_dir / "bk.datalog"),
            "--exs", str(trains_dir / "exs.datalog"),
            "--bias", str(trains_dir / "bias.txt"),
            "--cost", "errorsize",
            "--dump-combine", str(dump),
        ])
        assert code == EXIT_OK
        header, *lines = dump.read_text().strip().splitlines()
        assert header == "max_rules 1"
        assert lines
        for line in lines:
            ident, size, pos_bits, neg_bits = line.split()
            assert len(pos_bits) == 2 and len(neg_bits) == 2

    def test_missing_test_examples_exit_2(self, trains_dir, tmp_path, capsys):
        code = main([
            "learn",
            "--bk", str(trains_dir / "bk.datalog"),
            "--exs", str(trains_dir / "exs.datalog"),
            "--bias", str(trains_dir / "bias.txt"),
            "--cost", "errorsize",
            "--test-exs", str(tmp_path / "missing.datalog"),
        ])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "missing.datalog" in captured.err

    def test_dump_combine_into_missing_directory_exit_2(self, trains_dir,
                                                        tmp_path, capsys):
        code = main([
            "learn",
            "--bk", str(trains_dir / "bk.datalog"),
            "--exs", str(trains_dir / "exs.datalog"),
            "--bias", str(trains_dir / "bias.txt"),
            "--cost", "errorsize",
            "--dump-combine", str(tmp_path / "no-such-dir" / "combine.txt"),
        ])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "no-such-dir" in captured.err

    def test_text_format(self, trains_dir, capsys):
        code = main([
            "learn",
            "--bk", str(trains_dir / "bk.datalog"),
            "--exs", str(trains_dir / "exs.datalog"),
            "--bias", str(trains_dir / "bias.txt"),
            "--cost", "errorsize",
            "--format", "text",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "east(A):- closed(B),has_car(A,B)." in out
        assert "proof: optimal" in out


SECOND_BK = """\
p(a1). p(a2). q(a1). q(a2).
p(b1). q(b2).
"""

SECOND_EXS = """\
pos(f(a1)). pos(f(a2)).
neg(f(b1)). neg(f(b2)).
"""

SECOND_BIAS = """\
head_pred(f,1).
body_pred(p,1).
body_pred(q,1).
max_vars(1).
max_body(2).
max_clauses(1).
"""


REACH_BK = """\
e(n1,n2). e(n2,n3). e(n3,n4).
g(n4).
e(m1,m2).
"""

REACH_EXS = """\
pos(f(n1)). pos(f(n2)). pos(f(n3)). pos(f(n4)).
neg(f(m1)). neg(f(m2)).
"""

REACH_TEST_EXS = """\
pos(f(n2)). neg(f(m2)).
"""

REACH_BIAS = """\
head_pred(f,1).
body_pred(e,2).
body_pred(g,1).
max_vars(2).
max_body(2).
max_clauses(2).
enable_recursion.
"""


@pytest.fixture
def suite_root(tmp_path):
    root = tmp_path / "suite"
    write_task_dir(root, "trains", "t1", TRAINS_BK, TRAINS_EXS, TRAINS_BIAS)
    write_task_dir(root, "props", "t1", SECOND_BK, SECOND_EXS, SECOND_BIAS)
    write_task_dir(root, "reach", "t1", REACH_BK, REACH_EXS, REACH_BIAS,
                   test_exs=REACH_TEST_EXS)
    return root


class TestBench:
    def test_two_tasks_seven_costs_three_repeats(self, tmp_path):
        root = tmp_path / "two"
        write_task_dir(root, "trains", "t1", TRAINS_BK, TRAINS_EXS, TRAINS_BIAS)
        write_task_dir(root, "props", "t1", SECOND_BK, SECOND_EXS, SECOND_BIAS)
        out = tmp_path / "results.csv"
        code = main([
            "bench", "--root", str(root), "--out", str(out),
            "--repeats", "3", "--no-timing",
        ])
        assert code == EXIT_OK
        rows = read_results_csv(out.read_text())
        assert len(rows) == 42

    def test_row_cardinality(self, suite_root, tmp_path):
        out = tmp_path / "results.csv"
        code = main([
            "bench", "--root", str(suite_root), "--out", str(out),
            "--repeats", "3", "--no-timing",
        ])
        assert code == EXIT_OK
        rows = read_results_csv(out.read_text())
        assert len(rows) == 3 * 7 * 3

    def test_recursive_task_uses_test_examples(self, suite_root, tmp_path):
        out = tmp_path / "results.csv"
        main(["bench", "--root", str(suite_root), "--out", str(out),
              "--repeats", "1", "--costs", "errorsize", "--no-timing"])
        rows = read_results_csv(out.read_text())
        reach = [r for r in rows if r.domain == "reach"]
        assert len(reach) == 1
        # held-out: one positive, one negative, both classified correctly
        assert (reach[0].tp, reach[0].fp, reach[0].tn, reach[0].fn) == (1, 0, 1, 0)
        assert reach[0].size == 5

    def test_same_seed_byte_identical(self, suite_root):
        config = SuiteConfig(
            root_dir=suite_root,
            cost_fns=("error", "errorsize"),
            repeats=2,
            split=0.5,
            seed=7,
            timing=False,
        )
        assert run_bench(config) == run_bench(config)

    def test_different_seed_differs(self, suite_root):
        base = dict(root_dir=suite_root, cost_fns=("errorsize",), repeats=1,
                    split=0.5, timing=False)
        a = run_bench(SuiteConfig(seed=1, **base))
        b = run_bench(SuiteConfig(seed=2, **base))
        # same schema; split membership differs for at least one task
        assert a.splitlines()[0] == b.splitlines()[0]

    def test_byte_identical_across_processes(self, suite_root, tmp_path):
        # hash randomisation differs per process; output must not
        import subprocess
        import sys

        outs = []
        for seed, name in (("123", "a.csv"), ("9876", "b.csv")):
            out = tmp_path / name
            env = dict(os.environ, PYTHONHASHSEED=seed)
            subprocess.run(
                [sys.executable, "-m", "lexicost", "bench",
                 "--root", str(suite_root), "--out", str(out),
                 "--repeats", "2", "--split", "0.5", "--seed", "5",
                 "--costs", "errorsize,mdl", "--no-timing"],
                check=True, env=env, capture_output=True,
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_worker_pool_matches_serial(self, suite_root):
        base = dict(root_dir=suite_root, cost_fns=("error", "mdl"),
                    repeats=2, timing=False, seed=3)
        serial = run_bench(SuiteConfig(workers=1, **base))
        parallel = run_bench(SuiteConfig(workers=2, **base))
        assert serial == parallel

    def test_threads_env_caps_workers(self, monkeypatch):
        from lexicost.cli import _worker_count

        monkeypatch.delenv("LEXICOST_THREADS", raising=False)
        assert _worker_count(None) == 1
        assert _worker_count(4) == 4
        monkeypatch.setenv("LEXICOST_THREADS", "2")
        assert _worker_count(None) == 2
        assert _worker_count(8) == 2
        assert _worker_count(1) == 1

    def test_bad_threads_env_exit_2(self, suite_root, tmp_path, monkeypatch,
                                    capsys):
        monkeypatch.setenv("LEXICOST_THREADS", "abc")
        code = main(["bench", "--root", str(suite_root),
                     "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "LEXICOST_THREADS" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("root", ["missing", "file.txt"])
    def test_root_not_a_directory_exit_2(self, tmp_path, capsys, root):
        (tmp_path / "file.txt").write_text("")
        code = main(["bench", "--root", str(tmp_path / root),
                     "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and root in err
        assert not (tmp_path / "r.csv").exists()

    def test_unreadable_task_records_io_error(self, suite_root):
        bad = suite_root / "broken" / "t1"
        bad.mkdir(parents=True)
        (bad / "bias.txt").write_text(TRAINS_BIAS)  # bk/exs missing
        config = SuiteConfig(
            root_dir=suite_root, cost_fns=("error",), repeats=1, timing=False
        )
        rows = read_results_csv(run_bench(config))
        statuses = {(r.domain, r.status) for r in rows}
        assert ("broken", "io_error") in statuses
        assert ("trains", "ok") in statuses

    def test_underscore_led_term_records_parse_error(self, tmp_path):
        root = tmp_path / "two"
        write_task_dir(root, "trains", "t1", TRAINS_BK, TRAINS_EXS, TRAINS_BIAS)
        write_task_dir(root, "props", "t1", SECOND_BK + "p(_x).\n", SECOND_EXS,
                       SECOND_BIAS)
        rows = read_results_csv(run_bench(SuiteConfig(
            root_dir=root, cost_fns=("error", "mdl"), repeats=1, timing=False,
        )))
        assert sorted((r.domain, r.cost_fn, r.status) for r in rows) == [
            ("props", "error", "parse_error"), ("props", "mdl", "parse_error"),
            ("trains", "error", "ok"), ("trains", "mdl", "ok"),
        ]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("split", [None, 0.5])
    def test_overlapping_labels_fail_every_row(self, tmp_path, seed, split):
        # `Task` rejects an example labelled both ways; a split must not
        # hide that by putting one of the two labels on the held-out side
        exs = (DEMO / "trains" / "t1" / "exs.datalog").read_text() + "neg(east(t1)).\n"
        root = tmp_path / "suite"
        write_task_dir(root, "trains", "t1",
                       (DEMO / "trains" / "t1" / "bk.datalog").read_text(), exs,
                       (DEMO / "trains" / "t1" / "bias.txt").read_text())
        rows = read_results_csv(run_bench(SuiteConfig(
            root_dir=root, cost_fns=("error", "mdl"), repeats=3, split=split,
            seed=seed, timing=False,
        )))
        assert len(rows) == 6
        assert {r.status for r in rows} == {"error"}

    def test_out_in_missing_directory_exit_2(self, suite_root, tmp_path, capsys,
                                             monkeypatch):
        from lexicost import cli

        def run_bench(config):
            raise AssertionError("the suite ran before the output was checked")

        monkeypatch.setattr(cli, "run_bench", run_bench)
        code = main(["bench", "--root", str(suite_root / "trains"),
                     "--costs", "error", "--repeats", "1",
                     "--out", str(tmp_path / "no-such-dir" / "r.csv")])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "no-such-dir" in captured.err

    def test_crash_in_one_job_does_not_abort_suite(self, suite_root,
                                                   monkeypatch):
        from lexicost import cli

        real_learn = cli.learn

        def learn(task, options):
            if options.spec.name == "mdl":
                raise RecursionError("maximum recursion depth exceeded")
            return real_learn(task, options)

        monkeypatch.setattr(cli, "learn", learn)
        rows = read_results_csv(run_bench(SuiteConfig(
            root_dir=suite_root / "trains", cost_fns=("error", "mdl"),
            repeats=1, timing=False,
        )))
        assert [(r.cost_fn, r.status) for r in rows] == [
            ("error", "ok"), ("mdl", "crash")
        ]

    def test_demo_suite_matches_golden_csv(self):
        # `bench --root demo --no-timing`, with `--costs` reversed (the first
        # cost function to reach a size lists its candidates), and with
        # `--split 0.5 --repeats 3`
        for golden, options in (
            ("demo_results.csv", dict(repeats=1)),
            ("demo_results.csv", dict(repeats=1, cost_fns=ALL_SPEC_NAMES[::-1])),
            ("demo_results_split.csv", dict(repeats=3, split=0.5)),
        ):
            options.setdefault("cost_fns", ALL_SPEC_NAMES)
            config = SuiteConfig(root_dir=DEMO, timing=False, **options)
            assert run_bench(config) == (DATA / golden).read_text(), golden

    def test_one_parse_and_one_enumeration_per_task(self, monkeypatch):
        from lexicost import cli, generator

        calls = Counter()

        def counted(module, name):
            real = getattr(module, name)

            def wrapped(*args):
                key = (name, args[1]) if module is generator else name
                calls[key] += 1
                return real(*args)

            monkeypatch.setattr(module, name, wrapped)

        for name in ("parse_facts", "parse_examples", "parse_bias"):
            counted(cli, name)
        counted(generator, "enumerate_rules")
        counted(generator, "list_candidates")
        real_learn = cli.learn
        seen = []

        def learn(task, options):
            # the fact store and the rule table are ready before the timer;
            # a size's candidates are listed by the first row to reach it
            assert "_fact_store" in task.__dict__
            before = calls.copy()
            result = real_learn(task, options)
            seen.append(sorted((calls - before).keys()))
            return result

        monkeypatch.setattr(cli, "learn", learn)
        # reach/t1: recursive, max_body 2, max_clauses 2, with held-out examples
        rows = read_results_csv(run_bench(SuiteConfig(
            root_dir=DEMO / "reach", cost_fns=ALL_SPEC_NAMES, repeats=2,
            timing=False,
        )))
        assert [r.status for r in rows] == ["ok"] * 14
        listed = {("list_candidates", size): 1 for size in range(1, 6)}
        assert calls == {
            "parse_facts": 1,
            "parse_examples": 2,  # exs.datalog and test_exs.datalog
            "parse_bias": 1,
            ("enumerate_rules", 1): 1,
            ("enumerate_rules", 2): 1,
            **listed,
        }
        assert sorted(key for keys in seen for key in keys) == sorted(listed)

    def test_one_fact_store_per_task_with_split(self, monkeypatch):
        from lexicost import evaluator

        built = []
        real = evaluator._store_of

        def counted(facts):
            built.append(facts)
            return real(facts)

        monkeypatch.setattr(evaluator, "_store_of", counted)
        rows = read_results_csv(run_bench(SuiteConfig(
            root_dir=DEMO, cost_fns=("error",), repeats=3, split=0.5, timing=False,
        )))
        assert len(rows) == 9
        assert len(built) == len(discover_tasks(DEMO)) == 3

    def test_invalid_config_rejected(self, suite_root):
        with pytest.raises(LexicostError):
            SuiteConfig(root_dir=suite_root, cost_fns=("error",), repeats=0)
        with pytest.raises(LexicostError):
            SuiteConfig(root_dir=suite_root, cost_fns=("error",), split=1.5)


class TestSplit:
    def test_stratified_and_deterministic(self):
        pos = tuple(atom("f", f"p{i}") for i in range(10))
        neg = tuple(atom("f", f"n{i}") for i in range(6))
        a = stratified_split(pos, neg, 0.5, random.Random(3))
        b = stratified_split(pos, neg, 0.5, random.Random(3))
        assert a == b
        train_pos, train_neg, test_pos, test_neg = a
        assert len(train_pos) == 5 and len(test_pos) == 5
        assert len(train_neg) == 3 and len(test_neg) == 3
        assert set(train_pos) | set(test_pos) == set(pos)
        assert not set(train_pos) & set(test_pos)

    def test_always_keeps_a_training_positive(self):
        pos = (atom("f", "p0"),)
        train_pos, _, test_pos, _ = stratified_split(pos, (), 0.1,
                                                     random.Random(0))
        assert train_pos == pos and test_pos == ()


class TestAnalyzeCommand:
    def test_analyze_end_to_end(self, suite_root, tmp_path, capsys):
        out = tmp_path / "results.csv"
        main(["bench", "--root", str(suite_root), "--out", str(out),
              "--repeats", "2", "--no-timing"])
        capsys.readouterr()
        agg_dir = tmp_path / "agg"
        code = main(["analyze", str(out), "--out-dir", str(agg_dir)])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert set(report["cost_fns"]) == {
            "error", "errorsize", "fnfp", "fnfpsize", "fpfn", "fpfnsize", "mdl"
        }
        assert (agg_dir / "rank_table.csv").exists()
        assert (agg_dir / "pearson_accuracy.csv").exists()
        assert (agg_dir / "overall_means.csv").exists()

    def test_filled_tables_keep_their_float_formats(self, tmp_path, capsys):
        # seven domains, so every Pearson and Wilcoxon cell has a value (the
        # demo tables leave them blank); p-values keep six decimals, other
        # floats four.  The expected texts were written by the code before
        # the tables became data.
        rng = random.Random(7)
        rows = [ResultRow(f"d{d}", f"t{t}", r, fn, tp=rng.randint(1, 9),
                          fp=rng.randint(0, 5), tn=rng.randint(0, 9),
                          fn=rng.randint(0, 5), size=rng.randint(0, 4))
                for d in range(7) for t in range(2) for r in (1, 2) for fn in "abc"]
        results = tmp_path / "results.csv"
        results.write_text(write_results_csv(rows))
        assert main(["analyze", str(results), "--out-dir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "wilcoxon_p.csv").read_text() == (
            "pair,p_value\na|b,0.687500\na|c,0.687500\nb|c,0.687500\n")
        assert (tmp_path / "pearson_accuracy.csv").read_text() == (
            "cost_fn,a,b,c\na,1.0000,0.2918,-0.2448\nb,0.2918,1.0000,0.1963\n"
            "c,-0.2448,0.1963,1.0000\n")
        assert (tmp_path / "overall_means.csv").read_text() == (
            "cost_fn,accuracy_mean\na,63.3324\nb,65.6851\nc,64.3709\n")

    def test_demo_results_match_golden_csvs(self, tmp_path):
        golden = DATA / "demo_analysis"
        code = main(["analyze", str(DATA / "demo_results.csv"), "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        names = sorted(p.name for p in golden.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == names and len(names) == 5
        for name in names:
            assert (tmp_path / name).read_text() == (golden / name).read_text(), name

    @pytest.mark.parametrize("name", ["demo", "seeded"])
    def test_json_matches_golden(self, name, capsys):
        # `seeded_results.csv` has eight domains and five cost functions: `c`
        # has only error rows on d7, so d0-d6 are the complete domains; d5/t2
        # learned nothing under any cost function and is excluded; `d` scores
        # 100 on every domain and `e` equals `a` but on d0-d2, so Pearson and
        # Wilcoxon cells hold both numbers and null
        assert main(["analyze", str(DATA / f"{name}_results.csv")]) == EXIT_OK
        assert capsys.readouterr().out == (DATA / f"{name}_analysis.json").read_text()

    def test_out_dir_under_a_regular_file_exit_2(self, suite_root, tmp_path,
                                                 capsys):
        out = tmp_path / "results.csv"
        main(["bench", "--root", str(suite_root / "trains"), "--out", str(out),
              "--repeats", "1", "--costs", "error,mdl", "--no-timing"])
        (tmp_path / "plain").write_text("")
        capsys.readouterr()
        code = main(["analyze", str(out), "--out-dir", str(tmp_path / "plain" / "agg")])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "plain" in captured.err

    def test_empty_csv_schema_error(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        code = main(["analyze", str(f)])
        assert code == EXIT_INPUT

    def test_single_domain(self, tmp_path, capsys):
        root = tmp_path / "suite"
        write_task_dir(root, "trains", "t1", TRAINS_BK, TRAINS_EXS, TRAINS_BIAS)
        out = tmp_path / "results.csv"
        main(["bench", "--root", str(root), "--out", str(out),
              "--repeats", "1", "--costs", "error,mdl", "--no-timing"])
        capsys.readouterr()
        code = main(["analyze", str(out)])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["domains"] == ["trains"]
        assert report["rank_table"]["error"][0] >= 0


def test_import_loads_neither_worker_pool_nor_hashing():
    # only `bench --workers N` and `bench --split` need them, and import them
    # where they are used
    import subprocess
    import sys

    probe = ("import sys, lexicost.cli; "
             "print([m for m in ('concurrent.futures', 'hashlib') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "[]"
