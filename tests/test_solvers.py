"""Tests for the outer solver loops and the momentum schedule."""

import dataclasses
import math

import numpy as np
import pytest

from mopg import (
    BacktrackDivergedError,
    DualSolverConfig,
    MomentumSchedule,
    MultiObjectiveProblem,
    SolverConfig,
    TerminationStatus,
    backtrack_ell,
    eval_F,
    make_fds,
    make_jos1,
    make_jos1_l1,
    make_problem,
    momentum_next,
    run_accpgm,
    run_pgm,
    soft_threshold,
    start_box,
)
from oracles import fista_reference


def quadratic_m1(scale: float = 1.0) -> MultiObjectiveProblem:
    """Single objective f(x) = scale * x^2 on R, g = 0."""
    return MultiObjectiveProblem(
        m=1,
        n=1,
        smooth_values=lambda x: np.array([scale * x[0] ** 2]),
        smooth_jacobian=lambda x: np.array([[2.0 * scale * x[0]]]),
        nonsmooth_values=lambda x: np.zeros(1),
        weighted_prox=lambda w, v: v,
        lipschitz_hint=2.0 * scale,
    )


# ---------------------------------------------------------------------------
# momentum schedule
# ---------------------------------------------------------------------------


def test_momentum_first_step_is_golden_ratio():
    sched, gamma = momentum_next(MomentumSchedule())
    assert gamma == 0.0
    assert sched.t == pytest.approx(1.6180340, abs=5e-8)
    assert sched.k == 2


def test_momentum_from_t_two():
    sched, gamma = momentum_next(MomentumSchedule(t=2.0, k=3))
    assert sched.t == pytest.approx(2.5615528, abs=5e-8)
    assert gamma == pytest.approx(0.3903882, abs=5e-8)


def test_momentum_identities_along_ten_thousand_steps():
    sched = MomentumSchedule()
    for _ in range(10_000):
        t = sched.t
        sched, gamma = momentum_next(sched)
        t_next = sched.t
        # exact algebraic identity, checked at machine precision relative
        # to the magnitude of t^2
        resid = abs(t_next * t_next - t_next - t * t)
        assert resid <= 1e-12 * max(1.0, t_next * t_next)
        assert t_next >= 0.5 * (sched.k + 1) * (1.0 - 1e-12)
        assert 1.0 - gamma * gamma >= 1.0 / t - 1e-12


def test_momentum_schedule_validation():
    with pytest.raises(ValueError):
        MomentumSchedule(t=1.0, k=0)
    with pytest.raises(ValueError):
        MomentumSchedule(t=1.0, k=4)  # needs t >= 2.5
    MomentumSchedule(t=2.5, k=4)


# ---------------------------------------------------------------------------
# backtracking on ell
# ---------------------------------------------------------------------------


def test_backtrack_noop_when_ell_already_large_enough():
    prob = make_jos1(50)
    x = np.full(50, 3.0)
    ell, sol, nbt = backtrack_ell(prob, x, x, 1.0)
    assert nbt == 0
    assert ell == 1.0
    gap = float((eval_F(prob, sol.z_star) - eval_F(prob, x)).max())
    assert gap <= sol.theta + 1e-12 * (1.0 + abs(sol.theta))


def test_backtrack_single_doubling_on_scalar_quadratic():
    prob = quadratic_m1()
    x = np.array([1.0])
    ell, sol, nbt = backtrack_ell(prob, x, x, 1.0)
    assert nbt == 1
    assert ell == 2.0
    assert sol.z_star == pytest.approx(0.0, abs=1e-12)


def test_backtrack_ell_grows_on_quartic_objectives():
    prob = make_fds(10)
    x0 = np.full(10, 1.9)
    trace = run_pgm(prob, x0, SolverConfig(max_iterations=10))
    assert trace.total_backtracks >= 1
    ells = [r.ell for r in trace.records]
    assert ells == sorted(ells)


def test_backtrack_reports_geometric_ell():
    prob = quadratic_m1(scale=8.0)  # L = 16
    x = np.array([1.0])
    ell, sol, nbt = backtrack_ell(prob, x, x, 1.0)
    assert ell == pytest.approx(2.0**nbt)
    assert ell >= 8.0  # accepted only once curvature is matched


def test_backtrack_diverges_on_non_lipschitz_gradient():
    prob = MultiObjectiveProblem(
        m=1,
        n=1,
        smooth_values=lambda x: np.array([x[0] ** 4]),
        smooth_jacobian=lambda x: np.array([[4.0 * x[0] ** 3]]),
        nonsmooth_values=lambda x: np.zeros(1),
        weighted_prox=lambda w, v: v,
    )
    x0 = np.array([1e16])
    with pytest.raises(BacktrackDivergedError):
        backtrack_ell(prob, x0, x0, 1.0)
    trace = run_pgm(prob, x0)
    assert trace.status is TerminationStatus.SUBPROBLEM_FAILURE
    assert np.array_equal(trace.x_final, x0)


# ---------------------------------------------------------------------------
# plain proximal gradient method
# ---------------------------------------------------------------------------


def test_pgm_stops_immediately_at_weakly_pareto_point():
    prob = make_jos1(50)
    x0 = np.full(50, 1.3)  # on the segment [0, 2] * ones
    trace = run_pgm(prob, x0)
    assert trace.status is TerminationStatus.CONVERGED
    assert trace.iterations == 0
    assert len(trace.records) == 1
    assert trace.final_residual <= 1e-10
    np.testing.assert_allclose(trace.x_final, x0, atol=1e-10)


def test_pgm_scalar_trace_lands_on_pareto_set_in_one_update():
    prob = make_jos1(1)
    cfg = SolverConfig(backtracking=False, ell_init=2.0)
    trace = run_pgm(prob, np.array([3.0]), cfg)
    assert trace.status is TerminationStatus.CONVERGED
    assert trace.iterations == 1
    assert trace.x_final[0] == pytest.approx(2.0, abs=1e-8)
    assert trace.records[0].residual_inf == pytest.approx(1.0, abs=1e-8)
    assert trace.records[-1].residual_inf < cfg.epsilon


def test_pgm_objectives_decrease_componentwise():
    prob = make_jos1_l1(6)
    rng = np.random.default_rng(11)
    trace = run_pgm(prob, rng.uniform(-2.0, 4.0, 6))
    assert trace.status is TerminationStatus.CONVERGED
    values = [r.objective for r in trace.records]
    for prev, curr in zip(values, values[1:]):
        assert (curr <= prev + 1e-9).all()


def test_pgm_max_iterations_status_and_count():
    prob = make_jos1(20)
    rng = np.random.default_rng(3)
    cfg = SolverConfig(max_iterations=3)
    trace = run_pgm(prob, rng.uniform(-2.0, 4.0, 20), cfg)
    assert trace.status is TerminationStatus.MAX_ITERATIONS
    assert trace.iterations == 3
    assert len(trace.records) == 3


def test_pgm_subproblem_failure_status():
    prob = make_jos1(3)
    cfg = SolverConfig(
        dual=DualSolverConfig(tolerance=1e-300, max_iterations=1)
    )
    x0 = np.array([3.0, -1.0, 0.5])
    trace = run_pgm(prob, x0, cfg)
    assert trace.status is TerminationStatus.SUBPROBLEM_FAILURE
    assert trace.records == ()
    assert np.array_equal(trace.x_final, x0)


@pytest.mark.parametrize("run", [run_pgm, run_accpgm])
def test_failure_keeps_the_subproblem_error(run):
    cfg = SolverConfig(dual=DualSolverConfig(tolerance=1e-300, max_iterations=1))
    trace = run(make_jos1(3), np.array([3.0, -1.0, 0.5]), cfg)
    assert trace.status is TerminationStatus.SUBPROBLEM_FAILURE
    assert trace.failure.startswith("MaxIterationsExceededError: ")
    assert "stationarity" in trace.failure


@pytest.mark.parametrize("run", [run_pgm, run_accpgm])
def test_failure_keeps_the_backtracking_error(run):
    prob = MultiObjectiveProblem(
        m=1,
        n=1,
        smooth_values=lambda x: np.array([x[0] ** 4]),
        smooth_jacobian=lambda x: np.array([[4.0 * x[0] ** 3]]),
        nonsmooth_values=lambda x: np.zeros(1),
        weighted_prox=lambda w, v: v,
    )
    trace = run(prob, np.array([1e16]))
    assert trace.status is TerminationStatus.SUBPROBLEM_FAILURE
    assert trace.failure.startswith("BacktrackDivergedError: descent condition")


@pytest.mark.parametrize("run", [run_pgm, run_accpgm])
def test_nan_objective_inside_the_loop_ends_the_run(run):
    # finite at the start, NaN at the first proximal point
    prob = MultiObjectiveProblem(
        m=1,
        n=1,
        smooth_values=lambda x: np.array([x[0] ** 2 if x[0] > 0.5 else np.nan]),
        smooth_jacobian=lambda x: np.array([[2.0 * x[0]]]),
        nonsmooth_values=lambda x: np.zeros(1),
        weighted_prox=lambda w, v: v,
    )
    trace = run(prob, np.array([1.0]))
    assert trace.status is TerminationStatus.SUBPROBLEM_FAILURE
    assert trace.records == ()
    assert trace.failure == "NaNObjectiveError: objective evaluation produced NaN"
    assert run(make_jos1(3), np.full(3, 3.0)).failure is None


@pytest.mark.parametrize("backtracking", [True, False])
@pytest.mark.parametrize("run", [run_pgm, run_accpgm])
def test_one_objective_evaluation_per_step(run, backtracking):
    prob = make_fds(6)
    calls = []

    def smooth_values(x):
        calls.append(1)
        return prob.smooth_values(x)

    counted = dataclasses.replace(prob, smooth_values=smooth_values)
    cfg = SolverConfig(
        backtracking=backtracking,
        ell_init=1.0 if backtracking else 64.0,
        keep_points=True,
    )
    x0 = np.random.default_rng(4).uniform(-2.0, 2.0, 6)
    trace = run(counted, x0, cfg)
    assert trace.status is TerminationStatus.CONVERGED
    # F(x0), then per step f(y) for the subproblem and F(z) per solve
    steps = len(trace.records)
    assert len(calls) == 1 + 2 * steps + trace.total_backtracks
    for rec in trace.records:
        np.testing.assert_array_equal(rec.objective, eval_F(prob, rec.point))


def test_jos1_l1_iteration_counts_are_pinned():
    # counts of the dual ascent that preceded the two-objective root
    # search; any change to the dual that moves trajectories shows here
    prob = make_problem("jos1-l1", 50)
    rng = np.random.default_rng(2024)
    starts = [rng.uniform(-2.0, 4.0, 50) for _ in range(4)]
    pgm = [run_pgm(prob, x0).iterations for x0 in starts]
    acc = [run_accpgm(prob, x0).iterations for x0 in starts]
    assert pgm == [220, 227, 222, 222]
    assert acc == [156, 156, 156, 156]


@pytest.mark.parametrize(
    "problem, counts",
    [
        (
            "fds",
            {
                run_pgm: [(209, 2, 4.0), (207, 2, 4.0), (179, 2, 4.0)],
                run_accpgm: [(198, 5, 32.0), (144, 6, 64.0), (179, 5, 32.0)],
            },
        ),
        (
            "fds-nonneg",
            {
                run_pgm: [(268, 2, 4.0), (944, 4, 16.0), (207, 2, 4.0)],
                run_accpgm: [(164, 5, 32.0), (299, 5, 32.0), (123, 5, 32.0)],
            },
        ),
    ],
)
def test_three_objective_runs_are_pinned(problem, counts):
    # the m >= 3 dual ascent and the ell backtracking, pinned as
    # (iterations, backtracks, final ell) per start
    prob = make_problem(problem, 10)
    lo, hi = start_box(problem, 10)
    rng = np.random.default_rng(2024)
    starts = [rng.uniform(lo, hi, 10) for _ in range(3)]
    for run, want in counts.items():
        got = []
        for x0 in starts:
            trace = run(prob, x0)
            assert trace.status is TerminationStatus.CONVERGED
            got.append((trace.iterations, trace.total_backtracks, trace.final_ell))
        assert got == want


@pytest.mark.parametrize("backtracking", [True, False])
@pytest.mark.parametrize("run", [run_pgm, run_accpgm])
def test_proximal_point_outside_domain_is_never_accepted(run, backtracking):
    # g_1 is the indicator of z >= 0, and the prox drops it at zero weight
    # (against the MultiObjectiveProblem contract), so z can leave dom F
    def prox(w, v):
        return np.maximum(v, 0.0) if w[1] > 0.0 else v

    prob = MultiObjectiveProblem(
        m=2,
        n=1,
        smooth_values=lambda x: np.array([0.5 * (x[0] + 2.0) ** 2, 5.0 * x[0] ** 2]),
        smooth_jacobian=lambda x: np.array([[x[0] + 2.0], [10.0 * x[0]]]),
        nonsmooth_values=lambda x: np.array([0.0, 0.0 if x[0] >= 0.0 else np.inf]),
        weighted_prox=prox,
    )
    cfg = SolverConfig(backtracking=backtracking)
    for x0 in (1.0, 0.3, 2.0):
        trace = run(prob, np.array([x0]), cfg)
        assert all(np.isfinite(r.objective).all() for r in trace.records)
        assert np.isfinite(eval_F(prob, trace.x_final)).all()
        assert trace.status is not TerminationStatus.MAX_ITERATIONS
        assert (trace.failure is None) == (
            trace.status is TerminationStatus.CONVERGED
        )
        if not backtracking:
            assert trace.failure.startswith("NonFiniteValueError: ")


def test_start_point_outside_domain_rejected():
    from mopg import make_fds_nonneg

    prob = make_fds_nonneg(4)
    with pytest.raises(ValueError):
        run_pgm(prob, np.array([1.0, -1.0, 1.0, 1.0]))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(ell_init=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(backtrack_factor=1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


# ---------------------------------------------------------------------------
# accelerated proximal gradient method
# ---------------------------------------------------------------------------


def test_accpgm_stops_immediately_at_weakly_pareto_point():
    prob = make_jos1(50)
    x0 = np.full(50, 0.4)
    trace = run_accpgm(prob, x0)
    assert trace.status is TerminationStatus.CONVERGED
    assert trace.iterations == 0
    np.testing.assert_allclose(trace.x_final, x0, atol=1e-10)


def test_accpgm_level_set_containment_and_theta_sign():
    prob = make_fds(8)
    rng = np.random.default_rng(19)
    x0 = rng.uniform(-2.0, 2.0, 8)
    trace = run_accpgm(prob, x0)
    assert trace.status is TerminationStatus.CONVERGED
    F0 = eval_F(prob, x0)
    for rec in trace.records:
        assert (rec.objective <= F0 + 1e-9).all()
    assert trace.records[0].theta <= 1e-12
    ells = [r.ell for r in trace.records]
    assert ells == sorted(ells)


def test_accpgm_converges_faster_than_pgm_on_jos1():
    prob = make_jos1(50)
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-2.0, 4.0, 50)
    it_pgm = run_pgm(prob, x0).iterations
    it_acc = run_accpgm(prob, x0).iterations
    assert it_acc < it_pgm


def test_keep_points_stores_iterates_and_extrapolations():
    prob = make_jos1(4)
    rng = np.random.default_rng(8)
    x0 = rng.uniform(-2.0, 4.0, 4)
    cfg = SolverConfig(keep_points=True, max_iterations=20)
    trace = run_accpgm(prob, x0, cfg)
    assert all(r.point is not None for r in trace.records)
    assert all(r.extrapolation is not None for r in trace.records)
    np.testing.assert_array_equal(trace.records[0].extrapolation, x0)
    np.testing.assert_array_equal(trace.records[-1].point, trace.x_final)
    plain = run_pgm(prob, x0, cfg)
    assert all(r.point is not None for r in plain.records)
    assert all(r.extrapolation is None for r in plain.records)
    default = run_pgm(prob, x0)
    assert all(r.point is None for r in default.records)


def test_traces_are_deterministic():
    prob = make_jos1_l1(10)
    rng = np.random.default_rng(21)
    x0 = rng.uniform(-2.0, 4.0, 10)
    a = run_accpgm(prob, x0)
    b = run_accpgm(prob, x0)
    assert a.status is b.status
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.k == rb.k
        assert ra.residual_inf == rb.residual_inf
        assert ra.ell == rb.ell
        assert ra.theta == rb.theta
        assert ra.backtracks == rb.backtracks
        np.testing.assert_array_equal(ra.objective, rb.objective)
        np.testing.assert_array_equal(ra.lam, rb.lam)
    np.testing.assert_array_equal(a.x_final, b.x_final)


def test_accpgm_matches_fista_on_scalarized_lasso():
    rng = np.random.default_rng(31)
    n = 5
    diag = rng.uniform(0.5, 4.0, n)
    lin = rng.normal(0.0, 1.0, n)
    tau = 0.1
    ell = float(diag.max())

    prob = MultiObjectiveProblem(
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
    trace = run_accpgm(prob, x0, cfg)
    assert len(trace.records) == 200

    ref = fista_reference(
        grad_f=lambda x: diag * x + lin,
        prox_g=lambda step, v: soft_threshold(v, tau * step),
        x0=x0,
        ell=ell,
        iterations=200,
    )
    for rec, want in zip(trace.records, ref):
        np.testing.assert_allclose(rec.point, want, atol=1e-10)
