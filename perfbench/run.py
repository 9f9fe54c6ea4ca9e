"""Benchmark of the mopg solvers: time to epsilon per start, cost per outer
iteration, outer-iteration counts and peak memory.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload jos1-l1 --seed 1 --seconds 32 --trace 0

One process runs one workload serially (one worker, no pool).  With
``--trace 0`` it makes whole passes over the workload's starts, PGM then
Acc-PGM, until about ``--seconds`` have gone by, and times each start as
its fastest pass, and scales every time by the host reference of
``hostref.py``.  With ``--trace 1`` it makes, per algorithm, a traced
pass between two untraced ones and reports per-layer counts and self
times.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import check_run
from hostref import HostReference
from tracer import PROBLEM_CALLABLES, Tracer, replaced
from workloads import ALGORITHMS, WORKLOADS, QuadInstance, solver_config

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_PASSES = 3
# a slow host may run past --seconds by this factor to make MIN_PASSES
MAX_OVERRUN = 1.35
# units of the metrics that the host reference scales
TIME_UNITS = ("s", "ms", "us")


def seconds_since_process_start() -> float:
    """Time since the kernel started this process (10 ms resolution)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        after_comm = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(after_comm[19])  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf(
        "SC_CLK_TCK"
    )


@dataclass
class Outcome:
    """What one solve of one (algorithm, start) pair returned."""

    x0: object
    x_final: object
    status: str
    iterations: int
    steps: int
    backtracks: int
    final_ell: float
    reported: object
    seconds: float


class _StartTimer:
    """Times each call of a solver entry point and keeps the start it got."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.x0s: list = []
        self.seconds: list[float] = []

    def __call__(self, problem, x0, cfg=None):
        begin = time.perf_counter()
        trace = self.fn(problem, x0, cfg)
        self.seconds.append(time.perf_counter() - begin)
        self.x0s.append(x0)
        return trace


class BatchFailure(RuntimeError):
    """A batch raised or returned something the benchmark cannot use."""


class Runner:
    """Runs batches of one workload through the path the workload names."""

    def __init__(self, workload, cfg, seed: int) -> None:
        self.workload = workload
        self.cfg = cfg
        self.seed = seed
        self.instance = None if workload.via_bench else QuadInstance.draw()
        self.problem = None if workload.via_bench else self.instance.problem()

    def batch(self, alg: str, starts, cfg=None, tracer=None) -> list[Outcome]:
        """Solve every start with ``alg``; spans go to ``tracer`` when given."""
        cfg = cfg or self.cfg
        if self.workload.via_bench:
            return self._bench_batch(alg, starts, cfg, tracer)
        return self._direct_batch(alg, starts, cfg, tracer)

    def _bench_batch(self, alg, starts, cfg, tracer) -> list[Outcome]:
        import mopg.bench as bench

        plan = bench.RunPlan(
            problem=self.workload.name,
            algorithms=(alg,),
            n=len(starts[0]),
            starts=len(starts),
            seed=self.seed,
            config=cfg,
            workers=1,
        )
        name = "run_pgm" if alg == "pgm" else "run_accpgm"
        timer = _StartTimer(getattr(bench, name))
        run = bench.run_experiment_detailed
        if tracer is not None:
            run = tracer.wrap("bench.batch", run)
        # the plan carries no start points, so the benchmark hands its own
        # starts to the batch through the sampler it calls
        with replaced(bench, "sample_starts", lambda plan: [s.copy() for s in starts]):
            with replaced(bench, name, timer):
                records, traces = run(plan)
        if tracer is not None:
            tracer.records_held = sum(len(t.records) for t in traces.values())
        if len(timer.x0s) != len(starts) or not all(
            np.array_equal(a, b) for a, b in zip(timer.x0s, starts)
        ):
            raise BatchFailure("the batch did not solve the benchmark's starts in order")
        outcomes = []
        for i, (rec, seconds) in enumerate(zip(records, timer.seconds)):
            trace = traces[(alg, i)]
            outcomes.append(_outcome(starts[i], trace, rec.objective, seconds))
        return outcomes

    def _direct_batch(self, alg, starts, cfg, tracer) -> list[Outcome]:
        import mopg

        problem = self.problem
        run = mopg.run_pgm if alg == "pgm" else mopg.run_accpgm
        if tracer is not None:
            problem = tracer.problem(problem)
            run = tracer.wrap("solvers.loop", run)

        def loop():
            held = []
            for x0 in starts:
                begin = time.perf_counter()
                trace = run(problem, x0, cfg)
                held.append((trace, time.perf_counter() - begin))
            return held

        if tracer is not None:
            loop = tracer.wrap("bench.batch", loop)
        held = loop()
        if tracer is not None:
            tracer.records_held = sum(len(trace.records) for trace, _ in held)
        return [
            _outcome(x0, trace, trace.records[-1].objective, seconds)
            for x0, (trace, seconds) in zip(starts, held)
        ]


def _outcome(x0, trace, reported, seconds: float) -> Outcome:
    return Outcome(
        x0=x0,
        x_final=trace.x_final,
        status=trace.status.value,
        iterations=trace.iterations,
        steps=len(trace.records),
        backtracks=trace.total_backtracks,
        final_ell=trace.final_ell,
        reported=reported,
        seconds=seconds,
    )


class Tally:
    """Attempted and failed operations, and faults that make a run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def batch(self, runner: Runner, alg: str, starts, **kwargs):
        """Run one batch; a batch that raises fails every start in it."""
        self.attempted += len(starts)
        try:
            return runner.batch(alg, starts, **kwargs)
        except BatchFailure as exc:
            self.faults.append(f"{alg}: {exc}")
        except Exception as exc:  # a raising solver must not end the run
            print(f"perfbench: {alg} batch raised {exc!r}", file=sys.stderr)
        self.failed += len(starts)
        return None


def same_results(a: list[Outcome], b: list[Outcome]) -> bool:
    return all(
        p.iterations == q.iterations and np.array_equal(p.x_final, q.x_final)
        for p, q in zip(a, b)
    )


def check_outputs(workload, instance, outcomes: list[Outcome]) -> list[str]:
    """Output checks of each solve, as ``start i: message`` lines."""
    errors = []
    for i, o in enumerate(outcomes):
        for msg in check_run(
            workload.name,
            instance,
            o.x0,
            o.x_final,
            o.status == "Converged",
            o.reported,
            o.final_ell,
        ):
            errors.append(f"start {i}: {msg}")
        if o.status == "SubproblemFailure":
            errors.append(f"start {i}: ended in SubproblemFailure")
    return errors


def failing_starts(errors: list[str]) -> int:
    return len({e.split(":", 1)[0] for e in errors})


def timed_run(args, workload, runner, starts, tally, setup_s) -> dict:
    """Passes over the starts until ``--seconds``; end-to-end metrics."""
    best: dict[str, list[float]] = {}
    last: dict[str, list[Outcome]] = {}
    passes = dict.fromkeys(ALGORITHMS, 0)
    pass_s: dict[str, float] = {}
    log: list[str] = []
    ref = HostReference()
    begin = time.perf_counter()
    while True:
        for alg in ALGORITHMS:
            group = starts[: workload.count(alg)]
            ref.sample()
            pass_begin = time.perf_counter()
            outcomes = tally.batch(runner, alg, group)
            pass_s[alg] = time.perf_counter() - pass_begin
            passes[alg] += 1
            if outcomes is None:
                continue
            if alg in last and not same_results(last[alg], outcomes):
                tally.faults.append(f"{alg}: results differ between passes")
            last[alg] = outcomes
            times = [o.seconds for o in outcomes]
            best[alg] = [min(a, b) for a, b in zip(best.get(alg, times), times)]
            log.append(f"{alg} {sum(times):.3f}")
            del outcomes
        elapsed = time.perf_counter() - begin
        next_s = sum(pass_s.values())
        if elapsed + 0.5 * next_s < args.seconds:
            continue
        short = min(passes.values()) < MIN_PASSES
        if not (short and elapsed + next_s <= MAX_OVERRUN * args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"perfbench: {min(passes.values())} passes in {elapsed:.1f} s; seconds per pass: "
        + ", ".join(log),
        file=sys.stderr,
    )

    scale = ref.scale()
    print(
        f"perfbench: host reference median {statistics.median(ref.samples) * 1e3:.2f} ms, "
        f"fastest {min(ref.samples) * 1e3:.2f} ms over {len(ref.samples)} samples; "
        f"times scaled by {scale:.4f}",
        file=sys.stderr,
    )

    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for alg in ALGORITHMS:
        if alg not in last:
            tally.faults.append(f"{alg}: no pass completed")
            continue
        errors = check_outputs(workload, runner.instance, last[alg])
        for e in errors:
            print(f"perfbench: {alg} {e}", file=sys.stderr)
        tally.failed += passes[alg] * failing_starts(errors)
        outcomes, times = last[alg], best[alg]
        # medians are taken over antithetic pairs: on jos1-l1 half of the
        # starts cost three times the other half, and a median over starts
        # would sit on the edge between the two
        pair_s = [a + b for a, b in zip(times[::2], times[1::2])]
        pair_steps = [a.steps + b.steps for a, b in zip(outcomes[::2], outcomes[1::2])]
        metrics[f"{alg}_solve_s"] = (sum(times), "s")
        metrics[f"{alg}_start_ms_p50"] = (statistics.median(pair_s) / 2 * 1e3, "ms")
        metrics[f"{alg}_iter_us_p50"] = (
            statistics.median(t / k * 1e6 for t, k in zip(pair_s, pair_steps)),
            "us",
        )
        metrics[f"{alg}_outer_iters"] = (
            sum(o.iterations for o in outcomes),
            "iterations",
        )
    raw = {k: v for k, (v, unit) in metrics.items() if unit in TIME_UNITS}
    print(f"perfbench: unscaled times {json.dumps(raw)}", file=sys.stderr)
    return {
        k: (v * scale if unit in TIME_UNITS else v, unit)
        for k, (v, unit) in metrics.items()
    }


def traced_run(workload, runner, starts, tally) -> dict:
    """A traced pass between two untraced ones, per algorithm; per-layer metrics."""
    metrics = {}
    for alg in ALGORITHMS:
        group = starts[: workload.count(alg)]
        plain = tally.batch(runner, alg, group)
        tracer = Tracer()
        with tracer.installed():
            traced = tally.batch(runner, alg, group, tracer=tracer)
        again = tally.batch(runner, alg, group)
        if plain is None or traced is None or again is None:
            continue
        plain_s = sum(min(a.seconds, b.seconds) for a, b in zip(plain, again))
        traced_s = sum(o.seconds for o in traced)
        print(
            f"perfbench: {alg} untraced {plain_s:.2f} s (fastest of two passes), "
            f"traced {traced_s:.2f} s, overhead x{traced_s / plain_s:.2f}",
            file=sys.stderr,
        )
        errors = check_outputs(workload, runner.instance, plain)
        tally.failed += 3 * failing_starts(errors)
        for e in errors:
            print(f"perfbench: {alg} {e}", file=sys.stderr)
        if not same_results(plain, again):
            tally.faults.append(f"{alg}: results differ between passes")
        if not same_results(plain, traced):
            tally.faults.append(f"{alg}: traced results differ from untraced ones")

        calls, self_s = tracer.calls, tracer.self_s
        steps = sum(o.steps for o in traced)
        backtracks = sum(o.backtracks for o in traced)
        if calls["problems.smooth_jacobian"] != steps:
            tally.faults.append(
                f"{alg}: {calls['problems.smooth_jacobian']} Jacobians for {steps} steps"
            )
        if calls["subproblem.solve"] != calls["solvers.backtrack"] + backtracks:
            tally.faults.append(
                f"{alg}: {calls['subproblem.solve']} solves for "
                f"{calls['solvers.backtrack']} steps and {backtracks} backtracks"
            )

        def per_step(count):
            return count / steps

        def us(span):
            return self_s[span] * 1e6 / steps

        p = f"{alg}."
        for name in PROBLEM_CALLABLES:
            metrics[f"{p}problems.{name}.calls"] = (per_step(calls[f"problems.{name}"]), "calls/iter")
            metrics[f"{p}problems.{name}.self_us"] = (us(f"problems.{name}"), "us/iter")
        metrics[f"{p}core.eval_F.calls"] = (per_step(calls["core.eval_F"]), "calls/iter")
        metrics[f"{p}core.eval_F.self_us"] = (us("core.eval_F"), "us/iter")
        metrics[f"{p}subproblem.solve.self_us"] = (us("subproblem.solve"), "us/iter")
        # every dual evaluation makes exactly one weighted_prox call
        metrics[f"{p}subproblem.dual_evals_per_solve"] = (
            calls["problems.weighted_prox"] / calls["subproblem.solve"],
            "count",
        )
        metrics[f"{p}subproblem.project_simplex.calls"] = (
            per_step(calls["subproblem.project_simplex"]),
            "calls/iter",
        )
        metrics[f"{p}subproblem.project_simplex.self_us"] = (
            us("subproblem.project_simplex"),
            "us/iter",
        )
        metrics[f"{p}subproblem.input_build.self_us"] = (us("subproblem.input_build"), "us/iter")
        metrics[f"{p}solvers.solves_per_step"] = (per_step(calls["subproblem.solve"]), "count")
        metrics[f"{p}solvers.backtrack.self_us"] = (us("solvers.backtrack"), "us/iter")
        metrics[f"{p}solvers.loop.self_us"] = (us("solvers.loop"), "us/iter")
        metrics[f"{p}bench.batch.self_ms"] = (self_s["bench.batch"] * 1e3, "ms")
        metrics[f"{p}bench.records_held"] = (tracer.records_held, "count")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mopg" / "__init__.py").is_file():
        print(f"perfbench: no mopg sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mopg

    if Path(mopg.__file__).resolve().parent != (SRC / "mopg").resolve():
        print(f"perfbench: imported mopg from {mopg.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, solver_config(), args.seed)
    starts = workload.starts(args.seed)
    # each start is timed at its fastest pass, so the one-off costs of the
    # first pass do not reach the metrics and set-up needs no warm-up solve
    setup_s = seconds_since_process_start()

    tally = Tally()
    if args.trace:
        metrics = traced_run(workload, runner, starts, tally)
    else:
        metrics = timed_run(args, workload, runner, starts, tally, setup_s)
    for fault in tally.faults:
        print(f"perfbench: {fault}", file=sys.stderr)
    result = {
        "correct": not tally.faults,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
