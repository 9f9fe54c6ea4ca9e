"""Tests for the dual subproblem machinery."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopg import (
    DualSolverConfig,
    MaxIterationsExceededError,
    MultiObjectiveProblem,
    NonFiniteValueError,
    SubproblemInput,
    dual_gradient,
    dual_value,
    eval_F,
    make_fds,
    make_fds_nonneg,
    make_jos1,
    make_jos1_l1,
    primal_from_dual,
    project_simplex,
    psi_values,
    solve_subproblem,
    soft_threshold,
)
from mopg.subproblem import _simplex_ascent
from oracles import (
    InstanceG,
    brute_subproblem,
    exact_dual_g0,
    fd_gradient,
    random_simplex,
)


def quadratic_m1() -> MultiObjectiveProblem:
    """Single objective f(x) = x^2 in one dimension, g = 0."""
    return MultiObjectiveProblem(
        m=1,
        n=1,
        smooth_values=lambda x: np.array([float(x @ x)]),
        smooth_jacobian=lambda x: np.atleast_2d(2.0 * x),
        nonsmooth_values=lambda x: np.zeros(1),
        weighted_prox=lambda w, v: v,
        lipschitz_hint=2.0,
    )


# ---------------------------------------------------------------------------
# psi_values
# ---------------------------------------------------------------------------


def test_psi_at_y_equals_zero_when_x_equals_y():
    prob = make_jos1(1)
    inp = SubproblemInput.build(prob, np.array([1.0]), np.array([1.0]), 2.0)
    np.testing.assert_allclose(psi_values(prob, inp, np.array([1.0])), [0, 0])


def test_psi_hand_values_jos1():
    prob = make_jos1(1)
    inp = SubproblemInput.build(prob, np.array([3.0]), np.array([3.0]), 2.0)
    np.testing.assert_allclose(
        psi_values(prob, inp, np.array([2.0])), [-5.0, -1.0]
    )


def test_psi_at_y_is_objective_gap():
    rng = np.random.default_rng(41)
    prob = make_jos1_l1(3)
    for _ in range(10):
        x = rng.uniform(-2.0, 4.0, 3)
        y = rng.uniform(-2.0, 4.0, 3)
        inp = SubproblemInput.build(prob, x, y, 1.7)
        want = eval_F(prob, y) - eval_F(prob, x)
        np.testing.assert_allclose(psi_values(prob, inp, y), want, atol=1e-12)


def test_psi_infinite_outside_domain():
    prob = make_fds_nonneg(2)
    x = np.array([0.5, 0.5])
    inp = SubproblemInput.build(prob, x, x, 1.0)
    psis = psi_values(prob, inp, np.array([-1.0, 0.5]))
    assert np.all(np.isposinf(psis))


# ---------------------------------------------------------------------------
# primal_from_dual
# ---------------------------------------------------------------------------


def test_primal_symmetric_point_jos1():
    prob = make_jos1(1)
    inp = SubproblemInput.build(prob, np.array([1.0]), np.array([1.0]), 2.0)
    z = primal_from_dual(prob, inp, np.array([0.5, 0.5]))
    np.testing.assert_allclose(z, [1.0])


def test_primal_single_objective_stationary():
    prob = quadratic_m1()
    inp = SubproblemInput.build(prob, np.zeros(1), np.zeros(1), 2.0)
    np.testing.assert_allclose(primal_from_dual(prob, inp, np.ones(1)), [0.0])


def test_primal_projects_for_indicator_prox():
    prob = make_fds_nonneg(2)
    x = np.array([0.1, 0.1])
    # small ell makes the gradient step overshoot below zero in coordinate 0
    y = np.array([0.2, 0.0])
    inp = SubproblemInput.build(prob, x, y, 0.05)
    lam = np.full(3, 1.0 / 3.0)
    pre = y - (inp.jac_t @ lam) / inp.ell
    assert pre[0] < 0.0  # the setup must actually exercise the projection
    z = primal_from_dual(prob, inp, lam)
    assert z[0] == 0.0
    assert z[1] == pytest.approx(pre[1])


# ---------------------------------------------------------------------------
# dual_value
# ---------------------------------------------------------------------------


def test_dual_value_m1_closed_form():
    prob = quadratic_m1()
    inp = SubproblemInput.build(prob, np.ones(1), np.ones(1), 2.0)
    assert dual_value(prob, inp, np.ones(1)) == pytest.approx(-1.0)


def test_dual_value_hand_value_jos1():
    prob = make_jos1(1)
    inp = SubproblemInput.build(prob, np.array([3.0]), np.array([3.0]), 2.0)
    assert dual_value(prob, inp, np.array([0.0, 1.0])) == pytest.approx(-1.0)


def test_dual_value_weak_duality_at_anchor():
    rng = np.random.default_rng(43)
    prob = make_jos1(2)
    x = np.array([1.0, 1.0])
    inp = SubproblemInput.build(prob, x, x, 2.0)
    for _ in range(25):
        lam = random_simplex(rng, 2)
        assert dual_value(prob, inp, lam) <= 0.0 + 1e-12


def test_dual_value_matches_envelope_closed_form_g0():
    # for g == 0 the dual is -||J'lam||^2/(2 ell) + lam'(f(y) - F(x))
    rng = np.random.default_rng(47)
    for make, m in ((make_jos1, 2), (make_fds, 3)):
        prob = make(3)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, 3)
            y = rng.uniform(-1.5, 1.5, 3)
            ell = float(rng.uniform(0.5, 4.0))
            inp = SubproblemInput.build(prob, x, y, ell)
            lam = random_simplex(rng, m)
            direction = inp.jac_t @ lam
            want = (
                -float(direction @ direction) / (2.0 * ell)
                + float(lam @ (inp.f_y - inp.F_x))
            )
            got = dual_value(prob, inp, lam)
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


# ---------------------------------------------------------------------------
# dual_gradient
# ---------------------------------------------------------------------------


def test_dual_gradient_zero_at_symmetric_point():
    prob = make_jos1(1)
    inp = SubproblemInput.build(prob, np.array([1.0]), np.array([1.0]), 2.0)
    np.testing.assert_allclose(
        dual_gradient(prob, inp, np.array([0.5, 0.5])), [0.0, 0.0]
    )


def test_dual_gradient_m1_closed_form():
    prob = quadratic_m1()
    inp = SubproblemInput.build(prob, np.ones(1), np.ones(1), 2.0)
    # omega(lam) = -lam^2 grad^2/(2 ell) with grad = 2, ell = 2
    # => omega'(1) = -2
    got = dual_gradient(prob, inp, np.ones(1))
    np.testing.assert_allclose(got, [-2.0], rtol=1e-12)


def test_dual_gradient_matches_finite_differences_l1():
    rng = np.random.default_rng(53)
    prob = make_jos1_l1(3)
    x = rng.uniform(-1.0, 3.0, 3)
    y = rng.uniform(-1.0, 3.0, 3)
    inp = SubproblemInput.build(prob, x, y, 1.3)
    for _ in range(10):
        lam = random_simplex(rng, 2)
        want = fd_gradient(
            lambda u: dual_value(prob, inp, u), lam, step=1e-6
        )
        got = dual_gradient(prob, inp, lam)
        scale = max(1.0, float(np.linalg.norm(want)))
        assert np.linalg.norm(got - want) / scale <= 1e-5


def test_dual_gradient_psi_identity():
    rng = np.random.default_rng(59)
    prob = make_fds(3)
    x = rng.uniform(-1.0, 1.0, 3)
    y = rng.uniform(-1.0, 1.0, 3)
    inp = SubproblemInput.build(prob, x, y, 2.2)
    for _ in range(10):
        lam = random_simplex(rng, 3)
        z = primal_from_dual(prob, inp, lam)
        dz = z - y
        want = psi_values(prob, inp, z) - 0.5 * inp.ell * float(dz @ dz)
        got = dual_gradient(prob, inp, lam)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# project_simplex
# ---------------------------------------------------------------------------


def test_project_simplex_fixed_point():
    np.testing.assert_allclose(
        project_simplex(np.array([0.2, 0.8])), [0.2, 0.8]
    )


def test_project_simplex_symmetric():
    np.testing.assert_allclose(project_simplex(np.array([1.0, 1.0])), [0.5, 0.5])


def test_project_simplex_vertex():
    np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])


def test_project_simplex_matches_brute_qp():
    rng = np.random.default_rng(61)
    for m in (1, 2, 3, 5):
        for _ in range(20):
            v = rng.normal(0.0, 2.0, m)
            lam = project_simplex(v)
            assert lam.min() >= 0.0
            assert lam.sum() == pytest.approx(1.0, abs=1e-12)
            # optimality: no feasible direction improves the distance
            base = float((lam - v) @ (lam - v))
            for _ in range(20):
                trial = rng.dirichlet(np.ones(m))
                assert base <= float((trial - v) @ (trial - v)) + 1e-12


# ---------------------------------------------------------------------------
# solve_subproblem
# ---------------------------------------------------------------------------


def test_solve_weakly_pareto_point():
    prob = make_jos1(1)
    inp = SubproblemInput.build(prob, np.array([1.0]), np.array([1.0]), 2.0)
    sol = solve_subproblem(prob, inp)
    np.testing.assert_allclose(sol.z_star, [1.0], atol=1e-12)
    assert sol.theta == pytest.approx(0.0, abs=1e-12)
    assert sol.residual_inf <= 1e-12


def test_solve_hand_instance_jos1():
    prob = make_jos1(1)
    inp = SubproblemInput.build(prob, np.array([3.0]), np.array([3.0]), 2.0)
    sol = solve_subproblem(prob, inp)
    np.testing.assert_allclose(sol.z_star, [2.0], atol=1e-9)
    np.testing.assert_allclose(sol.lambda_star, [0.0, 1.0], atol=1e-9)
    assert sol.theta == pytest.approx(-1.0, abs=1e-9)
    assert sol.active_set == (1,)


def test_solve_stationary_smooth_point():
    # all gradients vanish at y and g = 0: z* = y, theta = 0
    prob = MultiObjectiveProblem(
        m=2,
        n=2,
        smooth_values=lambda x: np.array([float(x @ x), float(x @ x)]),
        smooth_jacobian=lambda x: np.vstack([2.0 * x, 2.0 * x]),
        nonsmooth_values=lambda x: np.zeros(2),
        weighted_prox=lambda w, v: v,
    )
    y = np.zeros(2)
    inp = SubproblemInput.build(prob, y, y, 1.0)
    sol = solve_subproblem(prob, inp)
    np.testing.assert_allclose(sol.z_star, y, atol=1e-12)
    assert sol.theta == pytest.approx(0.0, abs=1e-12)


def test_solution_invariants_randomized():
    rng = np.random.default_rng(67)
    for make, m, n in (
        (make_jos1, 2, 4),
        (make_jos1_l1, 2, 3),
        (make_fds, 3, 3),
        (make_fds_nonneg, 3, 3),
    ):
        prob = make(n)
        for _ in range(8):
            lo = 0.05 if make is make_fds_nonneg else -1.5
            x = rng.uniform(lo, 1.8, n)
            y = x + rng.normal(0.0, 0.3, n)
            if make is make_fds_nonneg:
                y = np.maximum(y, 0.0)
            ell = float(rng.uniform(0.5, 8.0))
            inp = SubproblemInput.build(prob, x, y, ell)
            sol = solve_subproblem(prob, inp)
            # theta equals the worst psi at z*
            psis = psi_values(prob, inp, sol.z_star)
            assert sol.theta == pytest.approx(
                float(np.max(psis)), abs=1e-8 * (1.0 + abs(sol.theta))
            )
            # complementary slackness against the active set
            for j in range(m):
                if j not in sol.active_set:
                    assert sol.lambda_star[j] <= 1e-6
            # prox fixed-point form of the optimality system
            pre = y - (inp.jac_t @ sol.lambda_star) / ell
            z_check = prob.weighted_prox(sol.lambda_star / ell, pre)
            np.testing.assert_allclose(sol.z_star, z_check, atol=1e-12)
            # upper bound: theta never exceeds the y-vs-x objective gap
            gap = eval_F(prob, y) - eval_F(prob, x)
            finite = np.isfinite(gap)
            if finite.any():
                assert sol.theta <= float(np.max(gap[finite])) + 1e-9


def test_solve_matches_face_enumeration_oracle_g0():
    rng = np.random.default_rng(71)
    for make, m in ((make_jos1, 2), (make_fds, 3)):
        prob = make(4)
        for _ in range(15):
            x = rng.uniform(-1.5, 1.5, 4)
            y = rng.uniform(-1.5, 1.5, 4)
            ell = float(rng.uniform(0.5, 6.0))
            inp = SubproblemInput.build(prob, x, y, ell)
            sol = solve_subproblem(prob, inp)
            jac = prob.smooth_jacobian(y)
            G = jac @ jac.T
            shift = prob.smooth_values(y) - eval_F(prob, x)
            lam_ref, theta_ref = exact_dual_g0(G, shift, ell)
            assert sol.theta == pytest.approx(
                theta_ref, abs=1e-9 * (1.0 + abs(theta_ref))
            )


def test_solve_matches_brute_force_mixed_instances():
    rng = np.random.default_rng(73)
    for trial in range(12):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        kind = ("zero", "l1", "nonneg")[trial % 3]
        A = [np.diag(rng.uniform(0.2, 2.0, n)) for _ in range(m)]
        b = [rng.normal(0.0, 1.0, n) for _ in range(m)]
        gs = [
            InstanceG(kind, tau=float(rng.uniform(0.1, 0.8)), shift=0.0)
            for _ in range(m)
        ]

        def values(x):
            return np.array(
                [0.5 * x @ A[i] @ x + b[i] @ x for i in range(m)]
            )

        def jac(x):
            return np.vstack([A[i] @ x + b[i] for i in range(m)])

        def nonsmooth(x):
            return np.array([g.value(x) for g in gs])

        def prox(w, v):
            if kind == "zero":
                return v
            if kind == "nonneg":
                # domain restriction: binds for every weight vector
                return np.maximum(v, 0.0)
            tau = float(w @ [g.tau for g in gs])
            return soft_threshold(v, tau)

        prob = MultiObjectiveProblem(
            m=m,
            n=n,
            smooth_values=values,
            smooth_jacobian=jac,
            nonsmooth_values=nonsmooth,
            weighted_prox=prox,
        )
        x = rng.uniform(0.0, 1.0, n) if kind == "nonneg" else rng.normal(0, 1, n)
        y = x + rng.normal(0.0, 0.4, n)
        if kind == "nonneg":
            y = np.maximum(y, 0.0)
        ell = float(rng.uniform(0.8, 4.0))
        inp = SubproblemInput.build(prob, x, y, ell)
        sol = solve_subproblem(prob, inp)
        z_ref, theta_ref = brute_subproblem(values, jac, gs, x, y, ell)
        assert np.max(np.abs(sol.z_star - z_ref)) <= 1e-4
        assert abs(sol.theta - theta_ref) <= 1e-6


def test_dual_concavity_probe():
    rng = np.random.default_rng(79)
    prob = make_jos1_l1(3)
    x = rng.uniform(-1.0, 2.0, 3)
    y = rng.uniform(-1.0, 2.0, 3)
    inp = SubproblemInput.build(prob, x, y, 1.5)
    for _ in range(20):
        l1 = random_simplex(rng, 2)
        l2 = random_simplex(rng, 2)
        a = float(rng.uniform(0.0, 1.0))
        mid = dual_value(prob, inp, a * l1 + (1 - a) * l2)
        assert mid >= a * dual_value(prob, inp, l1) + (1 - a) * dual_value(
            prob, inp, l2
        ) - 1e-9


def test_solution_continuity_smoke():
    rng = np.random.default_rng(83)
    for make in (make_jos1, make_fds):
        prob = make(3)
        x = rng.uniform(-1.0, 1.0, 3)
        y = rng.uniform(-1.0, 1.0, 3)
        inp = SubproblemInput.build(prob, x, y, 2.0)
        sol = solve_subproblem(prob, inp)
        d = rng.normal(0.0, 1.0, 3)
        d *= 1e-6 / np.linalg.norm(d)
        inp2 = SubproblemInput.build(prob, x + d, y + d, 2.0)
        sol2 = solve_subproblem(prob, inp2)
        assert np.linalg.norm(sol.z_star - sol2.z_star) <= 1e-3
        assert abs(sol.theta - sol2.theta) <= 1e-3


def test_solve_m1_short_circuit_is_one_prox_step():
    prob = quadratic_m1()
    inp = SubproblemInput.build(prob, np.array([2.0]), np.array([2.0]), 2.0)
    sol = solve_subproblem(prob, inp)
    np.testing.assert_allclose(sol.z_star, [0.0], atol=1e-15)
    np.testing.assert_allclose(sol.lambda_star, [1.0])
    assert sol.theta == pytest.approx(-4.0)  # 4*(-1) + 0 + 1*1... -4 exact


def test_max_iterations_error_carries_best():
    prob = make_jos1_l1(3)
    x = np.array([2.5, -1.5, 0.7])
    inp = SubproblemInput.build(prob, x, x, 1.0)
    cfg = DualSolverConfig(tolerance=1e-300, max_iterations=1)
    with pytest.raises(MaxIterationsExceededError) as err:
        solve_subproblem(prob, inp, cfg)
    best = err.value.best
    assert best.z_star.shape == (3,)
    assert np.isfinite(best.theta)


def test_non_finite_dual_raises():
    # the smooth part goes NaN away from the anchor, so the anchor check
    # passes but the first dual evaluation at y must raise
    prob = MultiObjectiveProblem(
        m=2,
        n=1,
        smooth_values=lambda x: np.array(
            [np.nan if x[0] > 0.5 else 0.0, 0.0]
        ),
        smooth_jacobian=lambda x: np.zeros((2, 1)),
        nonsmooth_values=lambda x: np.zeros(2),
        weighted_prox=lambda w, v: v,
    )
    inp = SubproblemInput.build(prob, np.zeros(1), np.ones(1), 1.0)
    with pytest.raises(NonFiniteValueError):
        solve_subproblem(prob, inp)


# ---------------------------------------------------------------------------
# the two-objective root search
# ---------------------------------------------------------------------------

# deterministic examples and no example database, so the suite is repeatable
_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def linear_pair(jac: np.ndarray, const: np.ndarray) -> MultiObjectiveProblem:
    """Two linear objectives ``jac @ x + const`` with ``g = 0``."""
    return MultiObjectiveProblem(
        m=2,
        n=jac.shape[1],
        smooth_values=lambda x: jac @ x + const,
        smooth_jacobian=lambda x: jac,
        nonsmooth_values=lambda x: np.zeros(2),
        weighted_prox=lambda w, v: v,
    )


def counting_prox(prob: MultiObjectiveProblem) -> tuple[MultiObjectiveProblem, list]:
    """``prob`` with a prox that logs its calls: one per dual evaluation."""
    calls = []

    def prox(w, v):
        calls.append(w)
        return prob.weighted_prox(w, v)

    return dataclasses.replace(prob, weighted_prox=prox), calls


@_PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 11),
    scales=st.tuples(*[st.sampled_from([1e-3, 1.0, 1e3])] * 2),
    duplicate=st.booleans(),
)
def test_pair_matches_face_enumeration_on_scaled_rows(seed, n, scales, duplicate):
    rng = np.random.default_rng(seed)
    jac = rng.normal(size=(2, n)) * np.array(scales)[:, None]
    if duplicate:
        jac[1] = jac[0]
    prob = linear_pair(jac, rng.normal(size=2))
    x = rng.normal(size=n)
    inp = SubproblemInput.build(prob, x, x + rng.normal(size=n), rng.uniform(0.5, 4.0))
    _, theta_ref = exact_dual_g0(jac @ jac.T, inp.f_y - inp.F_x, inp.ell)
    try:
        sol = solve_subproblem(prob, inp)
    except MaxIterationsExceededError as err:
        # one float step in t can move the derivative by more than the
        # absolute tolerance; the search must then end on a collapsed
        # bracket, never on the evaluation budget
        assert "bracket collapsed" in str(err)
        sol = err.best
    assert sol.theta == pytest.approx(theta_ref, abs=1e-9 * (1.0 + abs(theta_ref)))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["l1", "nonneg"]))
def test_pair_matches_brute_force_with_nonsmooth_terms(seed, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    A = [np.diag(rng.uniform(0.2, 2.0, n)) for _ in range(2)]
    b = [rng.normal(0.0, 1.0, n) for _ in range(2)]
    gs = [InstanceG(kind, tau=float(rng.uniform(0.1, 0.8))) for _ in range(2)]
    taus = np.array([g.tau for g in gs])

    def values(x):
        return np.array([0.5 * x @ A[i] @ x + b[i] @ x for i in range(2)])

    def jac(x):
        return np.vstack([A[i] @ x + b[i] for i in range(2)])

    def prox(w, v):
        if kind == "nonneg":
            return np.maximum(v, 0.0)
        return soft_threshold(v, float(w @ taus))

    prob = MultiObjectiveProblem(
        m=2,
        n=n,
        smooth_values=values,
        smooth_jacobian=jac,
        nonsmooth_values=lambda x: np.array([g.value(x) for g in gs]),
        weighted_prox=prox,
    )
    x = rng.uniform(0.0, 1.0, n) if kind == "nonneg" else rng.normal(0.0, 1.0, n)
    y = x + rng.normal(0.0, 0.4, n)
    if kind == "nonneg":
        y = np.maximum(y, 0.0)
    ell = float(rng.uniform(0.8, 4.0))
    inp = SubproblemInput.build(prob, x, y, ell)
    sol = solve_subproblem(prob, inp)
    z_ref, theta_ref = brute_subproblem(values, jac, gs, x, y, ell)
    assert np.max(np.abs(sol.z_star - z_ref)) <= 1e-4
    assert abs(sol.theta - theta_ref) <= 1e-6
    # the general ascent solves the same dual
    ref = _simplex_ascent(prob, inp, DualSolverConfig())
    assert sol.theta == pytest.approx(ref.theta, abs=1e-9 * (1.0 + abs(ref.theta)))


@pytest.mark.parametrize("t_star", [0.0, 1.0])
def test_pair_finds_vertex_optima(t_star):
    # orthogonal unit rows and shift = J (y - x) = +-(5, -5): the dual
    # derivative keeps one sign on [0, 1], so the optimum is a vertex
    jac = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    prob, calls = counting_prox(linear_pair(jac, np.zeros(2)))
    x = np.array([0.3, -0.2, 0.1])
    sign = 1.0 if t_star == 1.0 else -1.0
    inp = SubproblemInput.build(prob, x, x + sign * np.array([5.0, -5.0, 0.0]), 1.0)
    sol = solve_subproblem(prob, inp)
    np.testing.assert_array_equal(sol.lambda_star, [t_star, 1.0 - t_star])
    assert sol.dual_stationarity == 0.0
    _, theta_ref = exact_dual_g0(jac @ jac.T, inp.shift, 1.0)
    assert sol.theta == pytest.approx(theta_ref, abs=1e-12)
    # the midpoint, then the Newton step lands on the vertex
    assert len(calls) == 2


def test_pair_infinite_gradient_coordinate():
    # g_1 is the indicator of z >= 0.  This prox drops the constraint at
    # zero weight, against the contract of MultiObjectiveProblem, which is
    # the only way a +inf dual gradient coordinate can arise: at t = 1 the
    # primal point leaves dom g_1
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
    inp = SubproblemInput.build(prob, np.array([1.0]), np.zeros(1), 1.0)
    vertex = np.array([1.0, 0.0])
    assert np.isposinf(dual_gradient(prob, inp, vertex)[1])
    sol = solve_subproblem(prob, inp)
    # the derivative is positive inside, so the Newton step reaches t = 1;
    # the stand-in ascent entry never steps toward the infinite coordinate,
    # so that vertex is stationary
    np.testing.assert_array_equal(sol.lambda_star, vertex)
    assert sol.dual_stationarity == 0.0
    assert sol.theta == dual_value(prob, inp, vertex) == -4.5
    assert sol.active_set == (1,)


@pytest.mark.parametrize("budget", [1, 2])
def test_pair_budget_counts_dual_evaluations(budget):
    prob, calls = counting_prox(make_jos1_l1(3))
    x = np.array([2.5, -1.5, 0.7])
    inp = SubproblemInput.build(prob, x, x, 1.0)
    cfg = DualSolverConfig(tolerance=1e-300, max_iterations=budget)
    with pytest.raises(MaxIterationsExceededError, match="budget") as err:
        solve_subproblem(prob, inp, cfg)
    assert len(calls) == budget
    best = err.value.best
    assert best.lambda_star.sum() == pytest.approx(1.0)
    assert np.isfinite(best.theta)
    assert best.dual_stationarity > 0.0
