"""Acceptance gate: the nine graded criteria, one PASS/FAIL line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see every line as it is
produced.  Criteria 1-3 and 8 share one seeded benchmark batch (the same
starts the CLI would use); the remaining criteria drive the library
directly against independent oracles.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from mopg import (
    BenchmarkRecord,
    MeritConfig,
    MultiObjectiveProblem,
    RunPlan,
    SolverConfig,
    SubproblemInput,
    dual_gradient,
    dual_value,
    eval_F,
    jos1_pareto_distance,
    jos1_pareto_segment,
    make_problem,
    rate_constant,
    run_accpgm,
    run_pgm,
    sample_starts,
    soft_threshold,
    solve_subproblem,
    start_box,
    summarize,
    u0_estimate,
)
from oracles import (
    InstanceG,
    brute_subproblem,
    fd_gradient,
    fista_reference,
    prox_oracle_1d,
    random_simplex,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@dataclass
class BatchStats:
    """Streaming aggregates over one problem's 100-start benchmark."""

    # the SummaryRow of each algorithm
    summary: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    pgm_monotonicity_violation: float = 0.0
    acc_containment_violation: float = 0.0
    max_terminal_distance: float = 0.0


def _run_batch(problem_id: str) -> BatchStats:
    plan = RunPlan(problem=problem_id, n=50, starts=100, seed=42)
    starts = sample_starts(plan)
    problem = make_problem(plan.problem, plan.n)
    cfg = plan.config  # defaults: eps 1e-5, ell0 1, factor 2, 10000 iters
    stats = BatchStats()
    records = []
    begin = time.perf_counter()
    for i, x0 in enumerate(starts):
        F0 = eval_F(problem, x0)
        for alg, runner in (("pgm", run_pgm), ("acc", run_accpgm)):
            trace = runner(problem, x0, cfg)
            # the counts summarize() reads; traces are dropped as we go
            records.append(
                BenchmarkRecord(
                    problem=problem_id,
                    algorithm=alg,
                    n=plan.n,
                    start_id=i,
                    seed=plan.seed,
                    iterations=trace.iterations,
                    backtracks=trace.total_backtracks,
                    final_ell=trace.final_ell,
                    wall_time_ms=0.0,
                    residual_inf=trace.final_residual,
                    objective=(),
                    status=trace.status.value,
                )
            )
            objs = np.array([rec.objective for rec in trace.records])
            if alg == "pgm":
                steps = np.vstack([F0[None, :], objs])
                worst = float((steps[1:] - steps[:-1]).max())
                stats.pgm_monotonicity_violation = max(
                    stats.pgm_monotonicity_violation, worst
                )
            else:
                worst = float((objs - F0[None, :]).max())
                stats.acc_containment_violation = max(
                    stats.acc_containment_violation, worst
                )
            if problem_id == "jos1":
                stats.max_terminal_distance = max(
                    stats.max_terminal_distance,
                    jos1_pareto_distance(trace.x_final),
                )
    stats.wall_seconds = time.perf_counter() - begin
    stats.summary = {row.algorithm: row for row in summarize(records)}
    return stats


@pytest.fixture(scope="module")
def bench():
    return {
        pid: _run_batch(pid)
        for pid in ("jos1", "jos1-l1", "fds", "fds-nonneg")
    }


def test_criterion_1_jos1_iteration_counts(bench):
    s = bench["jos1"]
    pgm, acc = s.summary["pgm"].mean_iterations, s.summary["acc"].mean_iterations
    ratio = acc / pgm
    ok = (
        174.0 <= pgm <= 290.0
        and 49.0 <= acc <= 81.0
        and acc <= 0.45 * pgm
        and s.wall_seconds < 120.0
    )
    report(
        1,
        ok,
        f"jos1 n=50, 100 starts: PGM mean {pgm:.1f} in [174, 290], "
        f"Acc-PGM mean {acc:.1f} in [49, 81], ratio {ratio:.3f} <= 0.45, "
        f"batch {s.wall_seconds:.0f}s < 120s "
        f"(converged {s.summary['pgm'].converged}/{s.summary['acc'].converged} "
        "of 100 each)",
    )


def test_criterion_2_jos1_l1_ratio(bench):
    s = bench["jos1-l1"]
    pgm, acc = s.summary["pgm"].mean_iterations, s.summary["acc"].mean_iterations
    ratio = acc / pgm
    ok = acc < pgm and 0.5 <= ratio <= 0.95 and s.wall_seconds < 180.0
    report(
        2,
        ok,
        f"jos1-l1 n=50, 100 starts: Acc mean {acc:.1f} < PGM mean {pgm:.1f}, "
        f"ratio {ratio:.3f} in [0.5, 0.95], batch {s.wall_seconds:.0f}s < 180s",
    )


def test_criterion_3_fds_ratios(bench):
    s1, s2 = bench["fds"], bench["fds-nonneg"]
    r1 = s1.summary["acc"].mean_iterations / s1.summary["pgm"].mean_iterations
    r2 = s2.summary["acc"].mean_iterations / s2.summary["pgm"].mean_iterations
    combined = s1.wall_seconds + s2.wall_seconds

    def means(s):
        # the means include capped runs, so each carries its converged count
        acc, pgm = s.summary["acc"], s.summary["pgm"]
        return (
            f"acc {acc.mean_iterations:.1f} [{acc.converged}/{acc.runs} converged]"
            f" / pgm {pgm.mean_iterations:.1f} [{pgm.converged}/{pgm.runs} converged]"
        )

    ok = r1 <= 0.6 and r2 <= 0.6 and combined < 600.0
    report(
        3,
        ok,
        f"fds ratio {r1:.3f} <= 0.6 ({means(s1)}), "
        f"fds-nonneg ratio {r2:.3f} <= 0.6 ({means(s2)}), "
        f"combined {combined:.0f}s < 600s",
    )


def test_criterion_4_rate_bounds():
    begin = time.perf_counter()
    problem = make_problem("jos1", 2)  # L = 2/n = 1
    segment = jos1_pareto_segment(2)
    merit_cfg = MeritConfig(lower=np.full(2, -3.0), upper=np.full(2, 5.0))
    cfg = SolverConfig(backtracking=False, ell_init=1.0, keep_points=True)
    starts = sample_starts(RunPlan(problem="jos1", n=2, starts=20, seed=42))
    ell = 1.0
    worst_pgm = -math.inf
    worst_acc = -math.inf
    for x0 in starts:
        R = rate_constant(problem, x0, segment)
        trace = run_pgm(problem, x0, cfg)
        for rec in trace.records:
            u = u0_estimate(problem, rec.point, merit_cfg)
            bound = ell * R / (2.0 * rec.k) + 1e-3
            worst_pgm = max(worst_pgm, u - bound)
        trace = run_accpgm(problem, x0, cfg)
        u = u0_estimate(problem, x0, merit_cfg)
        worst_acc = max(worst_acc, u - (2.0 * ell * R + 1e-3))
        for rec in trace.records:
            u = u0_estimate(problem, rec.point, merit_cfg)
            bound = 2.0 * ell * R / (rec.k + 1.0) ** 2 + 1e-3
            worst_acc = max(worst_acc, u - bound)
    wall = time.perf_counter() - begin
    ok = worst_pgm <= 0.0 and worst_acc <= 0.0 and wall < 120.0
    report(
        4,
        ok,
        "jos1 n=2, ell=L=1, 20 starts: "
        f"u0 <= ell*R/(2k)+1e-3 along PGM (worst margin {worst_pgm:.2e}) "
        f"and u0 <= 2*ell*R/(k+1)^2+1e-3 along Acc-PGM incl. x0 "
        f"(worst margin {worst_acc:.2e}), {wall:.0f}s < 120s",
    )


def _random_instance(rng):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(2, 4))
    family = ("zero", "l1-mix", "nonneg-mix")[int(rng.integers(0, 3))]
    A = [np.diag(rng.uniform(0.2, 2.0, n)) for _ in range(m)]
    b = [rng.normal(0.0, 1.0, n) for _ in range(m)]
    if family == "zero":
        gs = [InstanceG("zero") for _ in range(m)]
    elif family == "l1-mix":
        # some objectives plain smooth (tau 0 == zero g), others L1
        gs = []
        for i in range(m):
            if rng.uniform() < 0.3:
                gs.append(InstanceG("zero"))
            else:
                gs.append(InstanceG("l1", tau=float(rng.uniform(0.1, 0.8))))
    else:
        gs = [
            InstanceG("nonneg") if rng.uniform() < 0.7 else InstanceG("zero")
            for i in range(m)
        ]
        if not any(g.kind == "nonneg" for g in gs):
            gs[0] = InstanceG("nonneg")
    taus = np.array([g.tau for g in gs])
    has_indicator = any(g.kind == "nonneg" for g in gs)

    def values(x):
        return np.array([0.5 * x @ A[i] @ x + b[i] @ x for i in range(m)])

    def jac(x):
        return np.vstack([A[i] @ x + b[i] for i in range(m)])

    def nonsmooth(x):
        return np.array([g.value(x) for g in gs])

    def prox(w, v):
        # the orthant indicators are domain restrictions, so they bind
        # regardless of their weights
        if has_indicator:
            return np.maximum(soft_threshold(v, float(w @ taus)), 0.0)
        return soft_threshold(v, float(w @ taus))

    problem = MultiObjectiveProblem(
        m=m,
        n=n,
        smooth_values=values,
        smooth_jacobian=jac,
        nonsmooth_values=nonsmooth,
        weighted_prox=prox,
    )
    if has_indicator:
        x = rng.uniform(0.0, 1.0, n)
        y = np.maximum(x + rng.normal(0.0, 0.4, n), 0.0)
    else:
        x = rng.normal(0.0, 1.0, n)
        y = x + rng.normal(0.0, 0.4, n)
    ell = float(rng.uniform(0.8, 4.0))
    return problem, (values, jac, gs), x, y, ell


def test_criterion_5_subproblem_matches_brute_force():
    begin = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_z = 0.0
    worst_theta = 0.0
    for _ in range(200):
        problem, (values, jac, gs), x, y, ell = _random_instance(rng)
        inp = SubproblemInput.build(problem, x, y, ell)
        sol = solve_subproblem(problem, inp)
        z_ref, theta_ref = brute_subproblem(values, jac, gs, x, y, ell)
        worst_z = max(worst_z, float(np.abs(sol.z_star - z_ref).max()))
        worst_theta = max(worst_theta, abs(sol.theta - theta_ref))
    wall = time.perf_counter() - begin
    ok = worst_z <= 1e-4 and worst_theta <= 1e-6 and wall < 60.0
    report(
        5,
        ok,
        f"200 random instances (n<=4, m in {{2,3}}, mixed g): "
        f"max |z - z_ref|_inf {worst_z:.2e} <= 1e-4, "
        f"max |theta - theta_ref| {worst_theta:.2e} <= 1e-6, "
        f"{wall:.0f}s < 60s",
    )


def test_criterion_6_dual_gradient_finite_differences():
    rng = np.random.default_rng(99)
    worst = 0.0
    cases = (
        ("jos1", 4, 25),
        ("jos1-l1", 4, 25),
        ("fds", 4, 25),
        ("fds-nonneg", 4, 25),
    )
    for pid, n, points in cases:
        problem = make_problem(pid, n)
        lo, hi = start_box(pid, n)
        for _ in range(points):
            x = rng.uniform(lo, hi)
            y = rng.uniform(lo, hi)
            ell = float(rng.uniform(0.5, 4.0))
            inp = SubproblemInput.build(problem, x, y, ell)
            lam = random_simplex(rng, problem.m)
            want = fd_gradient(
                lambda u: dual_value(problem, inp, u), lam, step=1e-6
            )
            got = dual_gradient(problem, inp, lam)
            rel = float(np.linalg.norm(got - want)) / max(
                1.0, float(np.linalg.norm(want))
            )
            worst = max(worst, rel)
    ok = worst <= 1e-5
    report(
        6,
        ok,
        "dual gradient vs central differences at 100 interior simplex "
        f"points across all shipped problems: max relative error "
        f"{worst:.2e} <= 1e-5",
    )


def test_criterion_7_momentum_identities():
    from mopg import MomentumSchedule, momentum_next

    sched = MomentumSchedule()
    worst_identity = 0.0
    worst_lower = math.inf
    worst_gamma = math.inf
    for _ in range(1_000_000):
        t = sched.t
        sched, gamma = momentum_next(sched)
        t_next = sched.t
        # |t_k^2 - t_{k+1}^2 + t_{k+1}| <= 1e-12 at unit scale; t^2 grows to
        # 2.5e11 where one double-precision ulp alone is ~3e-5, so the
        # identity is certified relative to t_{k+1}^2
        resid = abs(t * t - t_next * t_next + t_next) / max(
            1.0, t_next * t_next
        )
        worst_identity = max(worst_identity, resid)
        worst_lower = min(worst_lower, t_next - 0.5 * (sched.k + 1))
        worst_gamma = min(
            worst_gamma, (1.0 - gamma * gamma) - (1.0 / t - 1e-12)
        )
    ok = worst_identity <= 1e-12 and worst_lower >= 0.0 and worst_gamma >= 0.0
    report(
        7,
        ok,
        f"k to 1e6: max |t_k^2 - t_(k+1)^2 + t_(k+1)| / max(1, t_(k+1)^2) "
        f"= {worst_identity:.2e} <= 1e-12 (scaled: one float64 ulp of t^2 "
        f"is ~3e-5 at k=1e6), min t_k - (k+1)/2 = {worst_lower:.2e} >= 0, "
        f"min (1 - gamma^2) - (1/t_k - 1e-12) = {worst_gamma:.2e} >= 0",
    )


def test_criterion_8_structural_invariants(bench):
    containment = max(
        s.acc_containment_violation for s in bench.values()
    )
    monotone = max(s.pgm_monotonicity_violation for s in bench.values())
    terminal = bench["jos1"].max_terminal_distance

    rng = np.random.default_rng(31)
    n = 5
    diag = rng.uniform(0.5, 4.0, n)
    lin = rng.normal(0.0, 1.0, n)
    tau = 0.1
    ell = float(diag.max())
    scalar = MultiObjectiveProblem(
        m=1,
        n=n,
        smooth_values=lambda x: np.array([0.5 * x @ (diag * x) + lin @ x]),
        smooth_jacobian=lambda x: (diag * x + lin)[None, :],
        nonsmooth_values=lambda x: np.array([tau * np.abs(x).sum()]),
        weighted_prox=lambda w, v: soft_threshold(v, tau * w[0]),
        lipschitz_hint=ell,
    )
    x0 = rng.uniform(-1.0, 1.0, n)
    cfg = SolverConfig(
        epsilon=1e-300,
        ell_init=ell,
        backtracking=False,
        max_iterations=200,
        keep_points=True,
    )
    trace = run_accpgm(scalar, x0, cfg)
    ref = fista_reference(
        grad_f=lambda x: diag * x + lin,
        prox_g=lambda step, v: soft_threshold(v, tau * step),
        x0=x0,
        ell=ell,
        iterations=200,
    )
    fista_gap = max(
        float(np.abs(rec.point - want).max())
        for rec, want in zip(trace.records, ref)
    )

    ok = (
        containment <= 1e-9
        and monotone <= 1e-9
        and terminal <= 1e-2
        and len(trace.records) == 200
        and fista_gap <= 1e-10
    )
    report(
        8,
        ok,
        f"acc level-set containment violation {containment:.2e} <= 1e-9 "
        f"over all benchmark runs, PGM monotonicity violation "
        f"{monotone:.2e} <= 1e-9, max jos1 terminal Pareto distance "
        f"{terminal:.2e} <= 1e-2, m=1 FISTA max gap {fista_gap:.2e} <= "
        f"1e-10 over 200 iterations",
    )


def test_criterion_9_prox_property_suite():
    from mopg import moreau_envelope_value

    begin = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 6
    problems = {
        pid: make_problem(pid, n)
        for pid in ("jos1", "jos1-l1", "fds", "fds-nonneg")
    }

    worst_expansion = 0.0
    for problem in problems.values():
        for _ in range(50):
            w = rng.uniform(0.0, 2.0, problem.m)
            v1 = rng.normal(0.0, 2.0, n)
            v2 = rng.normal(0.0, 2.0, n)
            d_out = float(
                np.linalg.norm(
                    problem.weighted_prox(w, v1) - problem.weighted_prox(w, v2)
                )
            )
            d_in = float(np.linalg.norm(v1 - v2))
            worst_expansion = max(worst_expansion, d_out - d_in)

    worst_oracle = 0.0
    for pid, problem in problems.items():
        for _ in range(20):
            w = rng.uniform(0.0, 2.0, problem.m)
            v = rng.normal(0.0, 2.0, n)
            got = problem.weighted_prox(w, v)
            for j in range(n):
                if pid == "jos1" or pid == "fds":
                    want = v[j]
                elif pid == "jos1-l1":
                    a = w[0] / n
                    bb = w[1] / (2.0 * n)
                    want = prox_oracle_1d(
                        lambda t: a * abs(t) + bb * abs(t - 1.0), v[j]
                    )
                else:
                    # the orthant constraint binds for every weight vector
                    want = prox_oracle_1d(
                        lambda t: 0.0, v[j], lo=0.0, hi=abs(v[j]) + 5.0
                    )
                worst_oracle = max(worst_oracle, abs(float(got[j]) - want))

    worst_moreau = 0.0
    for pid in ("jos1-l1", "fds-nonneg"):
        problem = problems[pid]
        for _ in range(10):
            w = rng.uniform(0.1, 2.0, problem.m)
            v = rng.normal(0.0, 2.0, n)
            grad_want = v - problem.weighted_prox(w, v)
            grad_fd = fd_gradient(
                lambda u: moreau_envelope_value(problem, w, u), v, step=1e-6
            )
            worst_moreau = max(
                worst_moreau, float(np.abs(grad_fd - grad_want).max())
            )

    wall = time.perf_counter() - begin
    ok = (
        worst_expansion <= 1e-12
        and worst_oracle <= 1e-6
        and worst_moreau <= 1e-5
        and wall < 60.0
    )
    report(
        9,
        ok,
        f"prox suite: non-expansiveness excess {worst_expansion:.2e} <= "
        f"1e-12, grid-oracle max gap {worst_oracle:.2e} <= 1e-6, Moreau "
        f"gradient identity max error {worst_moreau:.2e} <= 1e-5, "
        f"{wall:.0f}s < 60s",
    )
