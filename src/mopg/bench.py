"""Benchmark harness and ``mopg`` command-line interface.

Runs seeded batches of solver starts on the shipped problems, collects
one record per (algorithm, start), and emits byte-stable CSV: per-run
records, terminal objective vectors (front data), optional per-iteration
traces, and a summary table per problem and algorithm.

Exit codes: 0 when every start converged, 2 when some start did not,
1 on usage or I/O errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import Array, eval_F
from .problems import PROBLEM_IDS, make_problem, start_box
from .solvers import (
    IterationTrace,
    SolverConfig,
    TerminationStatus,
    run_accpgm,
    run_pgm,
)

__all__ = [
    "ALGORITHMS",
    "BenchmarkRecord",
    "RunPlan",
    "sample_starts",
    "run_experiment",
    "run_experiment_detailed",
    "write_csv",
    "read_records",
    "write_front",
    "write_traces",
    "SummaryRow",
    "summarize",
    "format_summary",
    "summary_csv",
    "build_parser",
    "main",
]

ALGORITHMS = ("pgm", "acc")

_RECORD_FIXED_FIELDS = (
    "problem",
    "algorithm",
    "n",
    "start_id",
    "seed",
    "iterations",
    "backtracks",
    "final_ell",
    "wall_time_ms",
    "residual_inf",
)


@dataclass(frozen=True)
class BenchmarkRecord:
    """Raw datum of one solver run on one start."""

    problem: str
    algorithm: str
    n: int
    start_id: int
    seed: int
    iterations: int
    backtracks: int
    final_ell: float
    wall_time_ms: float
    residual_inf: float
    objective: tuple[float, ...]
    status: str


@dataclass(frozen=True)
class RunPlan:
    """One benchmark invocation: problem, algorithms, starts, settings.

    Both algorithms always receive bitwise-identical starts drawn from
    per-start seeded streams, so records are reproducible regardless of
    worker count or execution order.
    """

    problem: str
    algorithms: tuple[str, ...] = ALGORITHMS
    n: int = 50
    starts: int = 100
    seed: int = 42
    config: SolverConfig = field(default_factory=SolverConfig)
    workers: int = 1

    def __post_init__(self) -> None:
        start_box(self.problem, max(self.n, 1))
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not self.algorithms or any(
            a not in ALGORITHMS for a in self.algorithms
        ):
            raise ValueError(f"algorithms must be a nonempty subset of {ALGORITHMS}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("algorithms must not repeat")
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


def sample_starts(plan: RunPlan) -> list[Array]:
    """Deterministic start points, uniform in the problem's box.

    Start ``i`` is drawn from its own stream seeded by
    ``(plan.seed, i)``, so the list does not depend on execution order
    or worker count.
    """
    lo, hi = start_box(plan.problem, plan.n)
    return [
        np.random.default_rng((plan.seed, i)).uniform(lo, hi)
        for i in range(plan.starts)
    ]


def _run_task(
    task: tuple[str, int, str, Array, SolverConfig]
) -> tuple[IterationTrace, float]:
    problem_id, n, algorithm, x0, cfg = task
    problem = make_problem(problem_id, n)
    runner = run_pgm if algorithm == "pgm" else run_accpgm
    begin = time.perf_counter()
    trace = runner(problem, x0, cfg)
    wall_ms = (time.perf_counter() - begin) * 1e3
    return trace, wall_ms


def run_experiment_detailed(
    plan: RunPlan,
) -> tuple[list[BenchmarkRecord], dict[tuple[str, int], IterationTrace]]:
    """Run the plan and return records plus the trace of every run.

    Records are ordered by (algorithm, start_id).
    """
    starts = sample_starts(plan)
    keys = sorted(
        (alg, i) for alg in plan.algorithms for i in range(plan.starts)
    )
    tasks = [(plan.problem, plan.n, alg, starts[i], plan.config) for alg, i in keys]
    if plan.workers > 1:
        chunk = max(1, len(tasks) // (4 * plan.workers))
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            outcomes = list(pool.map(_run_task, tasks, chunksize=chunk))
    else:
        outcomes = [_run_task(task) for task in tasks]

    problem = make_problem(plan.problem, plan.n)
    records: list[BenchmarkRecord] = []
    traces: dict[tuple[str, int], IterationTrace] = {}
    for (alg, i), (trace, wall_ms) in zip(keys, outcomes):
        terminal = eval_F(problem, trace.x_final)
        records.append(
            BenchmarkRecord(
                problem=plan.problem,
                algorithm=alg,
                n=plan.n,
                start_id=i,
                seed=plan.seed,
                iterations=trace.iterations,
                backtracks=trace.total_backtracks,
                final_ell=trace.final_ell,
                wall_time_ms=wall_ms,
                residual_inf=trace.final_residual,
                objective=tuple(float(v) for v in terminal),
                status=trace.status.value,
            )
        )
        traces[(alg, i)] = trace
    return records, traces


def run_experiment(plan: RunPlan) -> list[BenchmarkRecord]:
    """Run the plan and return one record per (algorithm, start)."""
    return run_experiment_detailed(plan)[0]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _open_out(path: str):
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc}") from exc


def write_csv(
    records: Sequence[BenchmarkRecord], path: str, num_objectives: Optional[int] = None
) -> None:
    """Write the records CSV (17 significant digits, LF endings)."""
    if num_objectives is None:
        num_objectives = len(records[0].objective) if records else 0
    header = (
        list(_RECORD_FIXED_FIELDS)
        + [f"F{j + 1}" for j in range(num_objectives)]
        + ["status"]
    )
    with _open_out(path) as fh:
        fh.write(",".join(header) + "\n")
        for r in records:
            row = [
                r.problem,
                r.algorithm,
                str(r.n),
                str(r.start_id),
                str(r.seed),
                str(r.iterations),
                str(r.backtracks),
                _fmt(r.final_ell),
                _fmt(r.wall_time_ms),
                _fmt(r.residual_inf),
                *(_fmt(v) for v in r.objective),
                r.status,
            ]
            fh.write(",".join(row) + "\n")


def read_records(path: str) -> list[BenchmarkRecord]:
    """Parse a records CSV written by ``write_csv``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = lines[0].split(",")
    f_cols = [name for name in header if name.startswith("F")]
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        row = dict(zip(header, parts))
        records.append(
            BenchmarkRecord(
                problem=row["problem"],
                algorithm=row["algorithm"],
                n=int(row["n"]),
                start_id=int(row["start_id"]),
                seed=int(row["seed"]),
                iterations=int(row["iterations"]),
                backtracks=int(row["backtracks"]),
                final_ell=float(row["final_ell"]),
                wall_time_ms=float(row["wall_time_ms"]),
                residual_inf=float(row["residual_inf"]),
                objective=tuple(float(row[c]) for c in f_cols),
                status=row["status"],
            )
        )
    return records


def write_front(records: Sequence[BenchmarkRecord], path: str) -> None:
    """Write terminal objective vectors, one row per run."""
    num_objectives = len(records[0].objective) if records else 0
    header = ["problem", "algorithm", "start_id"] + [
        f"F{j + 1}" for j in range(num_objectives)
    ]
    with _open_out(path) as fh:
        fh.write(",".join(header) + "\n")
        for r in records:
            row = [r.problem, r.algorithm, str(r.start_id)]
            row += [_fmt(v) for v in r.objective]
            fh.write(",".join(row) + "\n")


def write_traces(
    problem_id: str,
    traces: dict[tuple[str, int], IterationTrace],
    directory: str,
) -> None:
    """Write one per-iteration trace CSV per run into ``directory``."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create {directory!r}: {exc}") from exc
    for (alg, start_id), trace in sorted(traces.items()):
        path = os.path.join(
            directory, f"{problem_id}-{alg}-start{start_id:04d}.csv"
        )
        m = len(trace.records[0].objective) if trace.records else 0
        header = ["k", "residual_inf", "ell", "theta", "backtracks"] + [
            f"F{j + 1}" for j in range(m)
        ]
        with _open_out(path) as fh:
            fh.write(",".join(header) + "\n")
            for rec in trace.records:
                row = [
                    str(rec.k),
                    _fmt(rec.residual_inf),
                    _fmt(rec.ell),
                    _fmt(rec.theta),
                    str(rec.backtracks),
                    *(_fmt(v) for v in rec.objective),
                ]
                fh.write(",".join(row) + "\n")


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate over one (problem, algorithm) record group."""

    problem: str
    algorithm: str
    runs: int
    converged: int
    mean_iterations: float
    mean_iterations_converged: float
    mean_wall_ms: float
    total_wall_ms: float

    @property
    def convergence_rate(self) -> float:
        return self.converged / self.runs


def summarize(records: Sequence[BenchmarkRecord]) -> list[SummaryRow]:
    """Arithmetic means per (problem, algorithm), sorted by that key.

    The iteration mean is reported both over all runs and over converged
    runs only (NaN when no run converged).
    """
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple[str, str], list[BenchmarkRecord]] = {}
    for r in records:
        groups.setdefault((r.problem, r.algorithm), []).append(r)
    rows = []
    for (problem, algorithm), group in sorted(groups.items()):
        iters = np.array([r.iterations for r in group], dtype=float)
        walls = np.array([r.wall_time_ms for r in group], dtype=float)
        conv = [
            r.iterations
            for r in group
            if r.status == TerminationStatus.CONVERGED.value
        ]
        rows.append(
            SummaryRow(
                problem=problem,
                algorithm=algorithm,
                runs=len(group),
                converged=len(conv),
                mean_iterations=float(iters.mean()),
                mean_iterations_converged=(
                    float(np.mean(conv)) if conv else float("nan")
                ),
                mean_wall_ms=float(walls.mean()),
                total_wall_ms=float(walls.sum()),
            )
        )
    return rows


_SUMMARY_COLUMNS = (
    "problem",
    "algorithm",
    "runs",
    "converged",
    "mean_iters",
    "mean_iters_conv",
    "mean_ms",
    "total_ms",
)


def _summary_cells(row: SummaryRow) -> list[str]:
    return [
        row.problem,
        row.algorithm,
        str(row.runs),
        str(row.converged),
        f"{row.mean_iterations:.1f}",
        f"{row.mean_iterations_converged:.1f}",
        f"{row.mean_wall_ms:.2f}",
        f"{row.total_wall_ms:.2f}",
    ]


def format_summary(rows: Sequence[SummaryRow]) -> str:
    """Aligned text table of summary rows."""
    table = [list(_SUMMARY_COLUMNS)] + [_summary_cells(r) for r in rows]
    widths = [max(len(line[j]) for line in table) for j in range(len(table[0]))]
    out = []
    for line in table:
        out.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    return "\n".join(out)


def summary_csv(rows: Sequence[SummaryRow]) -> str:
    """Machine-readable form of the summary table."""
    lines = [",".join(_SUMMARY_COLUMNS)]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.problem,
                    r.algorithm,
                    str(r.runs),
                    str(r.converged),
                    _fmt(r.mean_iterations),
                    _fmt(r.mean_iterations_converged),
                    _fmt(r.mean_wall_ms),
                    _fmt(r.total_wall_ms),
                ]
            )
        )
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1 (2 is reserved for non-converged runs)
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mopg",
        description=(
            "Benchmark harness for multiobjective proximal gradient solvers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    bench = sub.add_parser(
        "bench",
        help="run seeded solver batches and write CSV results",
        description=(
            "Run PGM and/or accelerated PGM from seeded uniform starts "
            "and write per-run records, front data and summaries."
        ),
    )
    bench.add_argument("--problem", required=True, choices=PROBLEM_IDS)
    bench.add_argument("--alg", default="both", choices=("pgm", "acc", "both"))
    bench.add_argument("--n", type=int, default=50, help="dimension (default 50)")
    bench.add_argument(
        "--starts", type=int, default=100, help="number of start points"
    )
    bench.add_argument("--seed", type=int, default=42, help="master seed")
    bench.add_argument(
        "--eps", type=float, default=1e-5, help="stopping threshold"
    )
    bench.add_argument(
        "--ell0", type=float, default=1.0, help="initial proximal parameter"
    )
    bench.add_argument(
        "--bt-factor", type=float, default=2.0, help="backtracking multiplier"
    )
    bench.add_argument(
        "--max-iter", type=int, default=10000, help="outer iteration budget"
    )
    bench.add_argument(
        "--dual-tol",
        type=float,
        default=1e-10,
        help="relative dual stationarity tolerance",
    )
    bench.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes (default: available cores)",
    )
    bench.add_argument("--out", required=True, help="records CSV path")
    bench.add_argument("--front-out", required=True, help="front CSV path")
    bench.add_argument(
        "--trace-dir", default=None, help="directory for per-run trace CSVs"
    )
    return parser


def _plan_from_args(args: argparse.Namespace) -> RunPlan:
    algorithms = ALGORITHMS if args.alg == "both" else (args.alg,)
    config = SolverConfig(
        epsilon=args.eps,
        ell_init=args.ell0,
        backtrack_factor=args.bt_factor,
        max_iterations=args.max_iter,
    )
    config = replace(config, dual=replace(config.dual, tolerance=args.dual_tol))
    if args.threads is not None:
        workers = args.threads
    elif hasattr(os, "sched_getaffinity"):
        # the CPUs this process may run on (taskset, a container's cpuset)
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    return RunPlan(
        problem=args.problem,
        algorithms=algorithms,
        n=args.n,
        starts=args.starts,
        seed=args.seed,
        config=config,
        workers=workers,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        plan = _plan_from_args(args)
    except ValueError as exc:
        print(f"mopg: error: {exc}", file=sys.stderr)
        return 1
    try:
        records, traces = run_experiment_detailed(plan)
        write_csv(records, args.out, num_objectives=len(records[0].objective))
        write_front(records, args.front_out)
        if args.trace_dir is not None:
            write_traces(plan.problem, traces, args.trace_dir)
    except OSError as exc:
        print(f"mopg: error: {exc}", file=sys.stderr)
        return 1
    print(format_summary(summarize(records)))
    converged = TerminationStatus.CONVERGED.value
    if all(r.status == converged for r in records):
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
