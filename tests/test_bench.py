"""Tests for the benchmark harness, CSV emission and the CLI."""

import dataclasses
import math

import numpy as np
import pytest

from mopg import (
    BenchmarkRecord,
    RunPlan,
    SolverConfig,
    build_parser,
    main,
    read_records,
    run_experiment,
    run_experiment_detailed,
    sample_starts,
    summarize,
    summary_csv,
    format_summary,
    write_csv,
    write_front,
    write_traces,
)
from mopg.bench import _fmt, _plan_from_args


def tiny_plan(**overrides) -> RunPlan:
    defaults = dict(problem="jos1", n=4, starts=3, seed=7)
    defaults.update(overrides)
    return RunPlan(**defaults)


def make_record(**overrides) -> BenchmarkRecord:
    defaults = dict(
        problem="jos1",
        algorithm="pgm",
        n=2,
        start_id=0,
        seed=1,
        iterations=10,
        backtracks=2,
        final_ell=4.0,
        wall_time_ms=3.25,
        residual_inf=1e-6,
        objective=(0.5, 1.5),
        status="Converged",
    )
    defaults.update(overrides)
    return BenchmarkRecord(**defaults)


# ---------------------------------------------------------------------------
# start sampling
# ---------------------------------------------------------------------------


def test_sample_starts_deterministic():
    a = sample_starts(tiny_plan())
    b = sample_starts(tiny_plan())
    assert len(a) == len(b) == 3
    for xa, xb in zip(a, b):
        np.testing.assert_array_equal(xa, xb)


def test_sample_starts_respect_problem_boxes():
    for problem, lo, hi in (
        ("jos1", -2.0, 4.0),
        ("jos1-l1", -2.0, 4.0),
        ("fds", -2.0, 2.0),
        ("fds-nonneg", 0.0, 2.0),
    ):
        for x in sample_starts(tiny_plan(problem=problem, starts=5)):
            assert (x >= lo).all() and (x <= hi).all()


def test_sample_starts_use_independent_per_start_streams():
    short = sample_starts(tiny_plan(starts=5))
    long = sample_starts(tiny_plan(starts=10))
    for xa, xb in zip(short, long[:5]):
        np.testing.assert_array_equal(xa, xb)


def test_run_plan_validation():
    with pytest.raises(Exception):
        tiny_plan(problem="nope")
    with pytest.raises(ValueError):
        tiny_plan(starts=0)
    with pytest.raises(ValueError):
        tiny_plan(n=0)
    with pytest.raises(ValueError):
        tiny_plan(algorithms=())
    with pytest.raises(ValueError):
        tiny_plan(algorithms=("pgm", "pgm"))
    with pytest.raises(ValueError):
        tiny_plan(algorithms=("newton",))
    with pytest.raises(ValueError):
        tiny_plan(workers=0)


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------


def test_run_experiment_produces_ordered_paired_records():
    plan = tiny_plan()
    records = run_experiment(plan)
    assert [(r.algorithm, r.start_id) for r in records] == [
        ("acc", 0),
        ("acc", 1),
        ("acc", 2),
        ("pgm", 0),
        ("pgm", 1),
        ("pgm", 2),
    ]
    for r in records:
        assert r.problem == "jos1"
        assert r.n == 4
        assert r.seed == 7
        assert r.status == "Converged"
        assert r.residual_inf < plan.config.epsilon
        assert r.iterations <= plan.config.max_iterations
        assert all(math.isfinite(v) for v in r.objective)


def test_run_experiment_uses_the_sampled_starts_for_both_algorithms():
    from mopg import make_problem, run_accpgm, run_pgm

    plan = tiny_plan()
    records = run_experiment(plan)
    problem = make_problem(plan.problem, plan.n)
    starts = sample_starts(plan)
    for r in records:
        runner = run_pgm if r.algorithm == "pgm" else run_accpgm
        trace = runner(problem, starts[r.start_id], plan.config)
        assert trace.iterations == r.iterations
        np.testing.assert_array_equal(
            np.asarray(r.objective),
            np.asarray([float(v) for v in trace.records[-1].objective]),
        )


def test_run_experiment_records_do_not_depend_on_worker_count():
    base = run_experiment(tiny_plan(workers=1))
    pooled = run_experiment(tiny_plan(workers=2))
    for a, b in zip(base, pooled):
        assert a.algorithm == b.algorithm and a.start_id == b.start_id
        assert a.iterations == b.iterations
        assert a.final_ell == b.final_ell
        assert a.residual_inf == b.residual_inf
        assert a.objective == b.objective
        assert a.status == b.status


@pytest.mark.parametrize("workers", [1, 2])
def test_a_start_that_raises_does_not_abort_the_batch(monkeypatch, workers):
    import mopg.bench

    plan = tiny_plan(
        problem="fds-nonneg", workers=workers, config=SolverConfig(max_iterations=20)
    )
    clean = run_experiment(plan)
    starts = sample_starts(plan)
    # outside dom F: the run's first subproblem raises ValueError
    starts[1] = starts[1] - 3.0
    monkeypatch.setattr(mopg.bench, "sample_starts", lambda plan: starts)
    records, traces = run_experiment_detailed(plan)
    for got, want in zip(records, clean):
        if got.start_id != 1:
            assert got == dataclasses.replace(want, wall_time_ms=got.wall_time_ms)
            continue
        trace = traces[(got.algorithm, 1)]
        assert got.status == "SubproblemFailure" and got.iterations == 0
        assert trace.failure == "ValueError: x_anchor lies outside dom F"
        np.testing.assert_array_equal(trace.x_final, starts[1])


def test_any_error_of_a_run_ends_it_as_a_failure(monkeypatch):
    import mopg.bench

    plan = tiny_plan()
    run_pgm = mopg.bench.run_pgm
    first = sample_starts(plan)[0]

    def raising(problem, x0, cfg):
        if np.array_equal(x0, first):
            raise KeyError("no such thing")
        return run_pgm(problem, x0, cfg)

    monkeypatch.setattr(mopg.bench, "run_pgm", raising)
    records, traces = run_experiment_detailed(plan)
    assert [r.status for r in records if r.algorithm == "pgm"] == [
        "SubproblemFailure",
        "Converged",
        "Converged",
    ]
    assert traces[("pgm", 0)].failure == "KeyError: 'no such thing'"
    assert all(r.status == "Converged" for r in records if r.algorithm == "acc")


def test_run_experiment_survives_non_converged_starts():
    plan = tiny_plan(config=SolverConfig(max_iterations=1))
    records = run_experiment(plan)
    assert len(records) == 6
    assert any(r.status == "MaxIterations" for r in records)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def test_write_csv_header_and_round_trip(tmp_path):
    records = run_experiment(tiny_plan(starts=2))
    path = str(tmp_path / "records.csv")
    write_csv(records, path)
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw
    first = raw.decode("utf-8").splitlines()[0]
    assert first == (
        "problem,algorithm,n,start_id,seed,iterations,backtracks,"
        "final_ell,wall_time_ms,residual_inf,F1,F2,status"
    )
    assert read_records(path) == records


def test_write_csv_empty_is_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    write_csv([], path, num_objectives=2)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1
    assert lines[0].endswith("F1,F2,status")
    assert read_records(path) == []


def test_float_formatting_round_trips_exactly():
    rng = np.random.default_rng(2)
    for _ in range(200):
        v = float(rng.normal(0.0, 1.0) * 10.0 ** rng.integers(-12, 12))
        assert float(_fmt(v)) == v


def test_write_front_rows(tmp_path):
    records = run_experiment(tiny_plan(starts=2))
    path = str(tmp_path / "front.csv")
    write_front(records, path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "problem,algorithm,start_id,F1,F2"
    assert len(lines) == 1 + len(records)
    cells = lines[1].split(",")
    assert cells[0] == "jos1"
    assert float(cells[3]) == records[0].objective[0]


def test_jos1_front_lies_on_the_known_curve(tmp_path):
    records = run_experiment(tiny_plan(n=6, starts=8))
    cs = np.linspace(0.0, 2.0, 40001)
    curve_f1 = cs**2
    curve_f2 = (cs - 2.0) ** 2
    for r in records:
        if r.status != "Converged":
            continue
        d = np.hypot(r.objective[0] - curve_f1, r.objective[1] - curve_f2)
        assert float(d.min()) <= 1e-3


def test_write_traces_files_and_headers(tmp_path):
    plan = tiny_plan(starts=2)
    records, traces = run_experiment_detailed(plan)
    directory = str(tmp_path / "traces")
    write_traces(plan.problem, traces, directory)
    import os

    names = sorted(os.listdir(directory))
    assert names == [
        "jos1-acc-start0000.csv",
        "jos1-acc-start0001.csv",
        "jos1-pgm-start0000.csv",
        "jos1-pgm-start0001.csv",
    ]
    with open(os.path.join(directory, names[0]), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == (
        "k,residual_inf,ell,theta,backtracks,dual_evals,dual_stationarity,F1,F2"
    )
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ks == list(range(1, len(ks) + 1))
    assert float(lines[-1].split(",")[1]) < plan.config.epsilon
    trace = traces[("acc", 0)]
    rows = [line.split(",") for line in lines[1:]]
    assert [int(row[5]) for row in rows] == [r.dual_evals for r in trace.records]
    assert [float(row[6]) for row in rows] == [
        r.dual_stationarity for r in trace.records
    ]
    assert all(r.dual_evals >= 1 for r in trace.records)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def test_summarize_single_record():
    row = summarize([make_record()])[0]
    assert row.runs == 1
    assert row.converged == 1
    assert row.mean_iterations == 10.0
    assert row.mean_iterations_converged == 10.0
    assert row.mean_wall_ms == 3.25
    assert row.total_wall_ms == 3.25
    assert row.convergence_rate == 1.0


def test_summarize_averages_two_records():
    rows = summarize(
        [
            make_record(iterations=10, wall_time_ms=2.0),
            make_record(
                start_id=1,
                iterations=20,
                wall_time_ms=4.0,
                status="MaxIterations",
            ),
        ]
    )
    assert len(rows) == 1
    row = rows[0]
    assert row.mean_iterations == 15.0
    assert row.mean_iterations_converged == 10.0
    assert row.converged == 1
    assert row.total_wall_ms == 6.0


def test_summarize_groups_and_sorts():
    rows = summarize(
        [
            make_record(algorithm="pgm"),
            make_record(algorithm="acc", iterations=4),
            make_record(problem="fds", objective=(1.0, 1.0, 0.5)),
        ]
    )
    assert [(r.problem, r.algorithm) for r in rows] == [
        ("fds", "pgm"),
        ("jos1", "acc"),
        ("jos1", "pgm"),
    ]


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_summary_rendering():
    rows = summarize([make_record()])
    text = format_summary(rows)
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].split() == [
        "problem",
        "algorithm",
        "runs",
        "converged",
        "mean_iters",
        "mean_iters_conv",
        "mean_ms",
        "total_ms",
    ]
    csv_text = summary_csv(rows)
    assert csv_text.startswith("problem,algorithm,")
    assert csv_text.endswith("\n")
    assert len(csv_text.splitlines()) == 2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_build_parser_accepts_full_flag_set(tmp_path):
    parser = build_parser()
    args = parser.parse_args(
        [
            "bench",
            "--problem",
            "jos1-l1",
            "--alg",
            "acc",
            "--n",
            "10",
            "--starts",
            "5",
            "--seed",
            "3",
            "--eps",
            "1e-4",
            "--ell0",
            "2.0",
            "--bt-factor",
            "4.0",
            "--max-iter",
            "500",
            "--dual-tol",
            "1e-9",
            "--threads",
            "1",
            "--out",
            str(tmp_path / "r.csv"),
            "--front-out",
            str(tmp_path / "f.csv"),
            "--trace-dir",
            str(tmp_path / "traces"),
        ]
    )
    assert args.problem == "jos1-l1"
    assert args.alg == "acc"
    assert args.bt_factor == 4.0


def test_threads_default_follows_the_cpu_affinity_mask(tmp_path, monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    out, front = str(tmp_path / "r.csv"), str(tmp_path / "f.csv")
    args = build_parser().parse_args(
        ["bench", "--problem", "jos1", "--out", out, "--front-out", front]
    )
    assert _plan_from_args(args).workers == 1


def test_cli_success_exit_zero(tmp_path, capsys):
    out = str(tmp_path / "records.csv")
    front = str(tmp_path / "front.csv")
    traces = str(tmp_path / "traces")
    code = main(
        [
            "bench",
            "--problem",
            "jos1",
            "--n",
            "4",
            "--starts",
            "2",
            "--threads",
            "1",
            "--out",
            out,
            "--front-out",
            front,
            "--trace-dir",
            traces,
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "mean_iters" in printed
    parsed = read_records(out)
    assert len(parsed) == 4
    assert all(r.status == "Converged" for r in parsed)
    import os

    assert os.path.exists(front)
    assert len(os.listdir(traces)) == 4


def test_cli_non_converged_exit_two(tmp_path):
    code = main(
        [
            "bench",
            "--problem",
            "jos1",
            "--n",
            "6",
            "--starts",
            "2",
            "--max-iter",
            "1",
            "--threads",
            "1",
            "--out",
            str(tmp_path / "r.csv"),
            "--front-out",
            str(tmp_path / "f.csv"),
        ]
    )
    assert code == 2


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    assert main(["bench"]) == 1
    assert (
        main(
            [
                "bench",
                "--problem",
                "nope",
                "--out",
                str(tmp_path / "r.csv"),
                "--front-out",
                str(tmp_path / "f.csv"),
            ]
        )
        == 1
    )
    capsys.readouterr()


def test_cli_io_errors_exit_one(tmp_path, capsys):
    code = main(
        [
            "bench",
            "--problem",
            "jos1",
            "--n",
            "2",
            "--starts",
            "1",
            "--threads",
            "1",
            "--out",
            str(tmp_path / "missing-dir" / "r.csv"),
            "--front-out",
            str(tmp_path / "f.csv"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err
