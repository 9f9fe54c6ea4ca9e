"""Tests for the problem model, the proximal toolkit and the package surface."""

import importlib

import numpy as np
import pytest

import mopg
from mopg import (
    DimensionMismatchError,
    MultiObjectiveProblem,
    eval_F,
    make_fds_nonneg,
    make_jos1,
    make_jos1_l1,
    make_problem,
    moreau_envelope_value,
    project_nonneg,
    soft_threshold,
)
from oracles import fd_gradient, prox_oracle_1d

PROBLEMS_50 = ["jos1", "jos1-l1", "fds", "fds-nonneg"]


# ---------------------------------------------------------------------------
# eval_F
# ---------------------------------------------------------------------------


def test_eval_f_jos1_at_zero():
    prob = make_jos1(50)
    np.testing.assert_allclose(eval_F(prob, np.zeros(50)), [0.0, 4.0])


def test_eval_f_jos1_at_two():
    prob = make_jos1(50)
    np.testing.assert_allclose(eval_F(prob, np.full(50, 2.0)), [4.0, 0.0])


def test_eval_f_fds_nonneg_infinite_off_orthant():
    prob = make_fds_nonneg(2)
    values = eval_F(prob, np.array([-1.0, 0.0]))
    assert values.shape == (3,)
    assert np.all(np.isposinf(values))


def test_eval_f_dimension_mismatch():
    prob = make_jos1(3)
    with pytest.raises(DimensionMismatchError):
        eval_F(prob, np.zeros(4))


# ---------------------------------------------------------------------------
# soft_threshold
# ---------------------------------------------------------------------------


def test_soft_threshold_upper_branch():
    assert soft_threshold(2.5, 1.0) == 1.5


def test_soft_threshold_dead_zone():
    assert soft_threshold(0.0, 0.7) == 0.0


def test_soft_threshold_lower_branch():
    assert soft_threshold(-2.0, 0.5) == -1.5


def test_soft_threshold_zero_tau_is_identity():
    xs = np.linspace(-3, 3, 13)
    np.testing.assert_array_equal(soft_threshold(xs, 0.0), xs)


def test_soft_threshold_matches_grid_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = float(rng.uniform(-4, 4))
        tau = float(rng.uniform(0, 2))
        want = prox_oracle_1d(lambda z: tau * abs(z), x)
        assert abs(soft_threshold(x, tau) - want) <= 1e-6


# ---------------------------------------------------------------------------
# project_nonneg
# ---------------------------------------------------------------------------


def test_project_nonneg_clips_negative():
    np.testing.assert_array_equal(
        project_nonneg(np.array([-1.0, 2.0])), [0.0, 2.0]
    )


def test_project_nonneg_zero_fixed_point():
    np.testing.assert_array_equal(project_nonneg(np.zeros(2)), np.zeros(2))


def test_project_nonneg_feasible_fixed_point():
    np.testing.assert_array_equal(project_nonneg(np.array([3.0])), [3.0])


# ---------------------------------------------------------------------------
# moreau_envelope_value
# ---------------------------------------------------------------------------


def test_envelope_zero_for_smooth_problems():
    prob = make_jos1(4)
    v = np.array([0.3, -1.0, 2.0, 0.0])
    assert moreau_envelope_value(prob, np.array([0.4, 0.6]), v) == 0.0


def test_envelope_l1_hand_value():
    # with n = 1 and weights (1, 0) the weighted nonsmooth term is |z|;
    # min over z of |z| + (2 - z)^2 / 2 is attained at z = 1 with value 1.5
    prob = make_jos1_l1(1)
    value = moreau_envelope_value(prob, np.array([1.0, 0.0]), np.array([2.0]))
    assert abs(value - 1.5) <= 1e-12


def test_envelope_gradient_identity_l1():
    # d/dv of the envelope equals v - prox(v); at v = 2 that is 1.0
    prob = make_jos1_l1(1)
    w = np.array([1.0, 0.0])

    def env(v):
        return moreau_envelope_value(prob, w, v)

    grad = fd_gradient(env, np.array([2.0]), step=1e-6)
    np.testing.assert_allclose(grad, [1.0], rtol=1e-5)


def test_envelope_gradient_identity_random():
    rng = np.random.default_rng(3)
    for pid, make in (("jos1-l1", make_jos1_l1), ("fds-nonneg", make_fds_nonneg)):
        prob = make(3)
        for _ in range(5):
            w = rng.uniform(0.1, 1.0, prob.m)
            v = rng.uniform(-2.0, 2.0, 3)

            def env(u):
                return moreau_envelope_value(prob, w, u)

            want = v - prob.weighted_prox(w, v)
            got = fd_gradient(env, v, step=1e-6)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)


# ---------------------------------------------------------------------------
# weighted_prox contract on every shipped problem
# ---------------------------------------------------------------------------


def test_prox_zero_weights_identity_on_domain():
    # zero weights drop every term from the sum, but domain constraints
    # remain: the prox is the identity only on the common domain
    rng = np.random.default_rng(5)
    for pid in PROBLEMS_50:
        prob = make_problem(pid, 6)
        v = rng.uniform(-2.0, 2.0, 6)
        got = prob.weighted_prox(np.zeros(prob.m), v)
        if pid == "fds-nonneg":
            np.testing.assert_array_equal(got, np.maximum(v, 0.0))
        else:
            np.testing.assert_array_equal(got, v)


def test_prox_non_expansive():
    rng = np.random.default_rng(7)
    for pid in PROBLEMS_50:
        prob = make_problem(pid, 5)
        for _ in range(20):
            w = rng.uniform(0.0, 1.5, prob.m)
            v1 = rng.uniform(-3.0, 3.0, 5)
            v2 = rng.uniform(-3.0, 3.0, 5)
            p1 = prob.weighted_prox(w, v1)
            p2 = prob.weighted_prox(w, v2)
            assert np.linalg.norm(p1 - p2) <= np.linalg.norm(v1 - v2) + 1e-12


def test_prox_point_is_finite_in_nonsmooth_terms():
    rng = np.random.default_rng(9)
    for pid in PROBLEMS_50:
        prob = make_problem(pid, 4)
        for _ in range(10):
            w = rng.uniform(0.05, 1.0, prob.m)
            v = rng.uniform(-3.0, 3.0, 4)
            z = prob.weighted_prox(w, v)
            assert np.all(np.isfinite(prob.nonsmooth_values(z)))


def test_prox_optimality_against_perturbations():
    rng = np.random.default_rng(13)
    for pid in PROBLEMS_50:
        prob = make_problem(pid, 4)
        for _ in range(15):
            w = rng.uniform(0.0, 1.0, prob.m)
            v = rng.uniform(-2.5, 2.5, 4)
            z = prob.weighted_prox(w, v)

            def total(point):
                gv = prob.nonsmooth_values(point)
                mask = w > 0.0
                weighted = float(w[mask] @ gv[mask]) if mask.any() else 0.0
                return weighted + 0.5 * float((point - v) @ (point - v))

            base = total(z)
            for _ in range(8):
                d = rng.normal(0.0, 0.2, 4)
                cand = z + d
                if not np.all(np.isfinite(prob.nonsmooth_values(cand))):
                    continue
                assert base <= total(cand) + 1e-10


# ---------------------------------------------------------------------------
# problem model validation
# ---------------------------------------------------------------------------


def test_problem_requires_positive_dimensions():
    with pytest.raises(ValueError):
        MultiObjectiveProblem(
            m=0,
            n=1,
            smooth_values=lambda x: np.zeros(0),
            smooth_jacobian=lambda x: np.zeros((0, 1)),
            nonsmooth_values=lambda x: np.zeros(0),
            weighted_prox=lambda w, v: v,
        )


# ---------------------------------------------------------------------------
# package surface
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "module", ["core", "subproblem", "solvers", "merit", "problems", "bench"]
)
def test_package_exports_every_public_name(module):
    sub = importlib.import_module(f"mopg.{module}")
    for name in sub.__all__:
        assert name in mopg.__all__
        assert getattr(mopg, name) is getattr(sub, name)
    assert len(mopg.__all__) == len(set(mopg.__all__))
