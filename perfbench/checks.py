"""Output checks: properties of the methods and computations made apart
from the program.

Objectives and gradients are evaluated from the benchmark's own formulas,
and the two geometric checks solve their own small problems with SciPy.
Each check returns a list of messages, empty when the run passes.  Nothing
here compares against stored output.
"""

from __future__ import annotations

import numpy as np

from workloads import N, QuadInstance

EPSILON = 1e-5
# jos1-l1: max |x_i - c| over the coordinates at convergence is below 4.4e-4
# on every start seen; at the starts it is above 2.
JOS1_SPREAD_TOL = 5e-3
# relative and absolute slack on objective comparisons (rounding only)
MONOTONE_SLACK = 1e-12
REPORT_RTOL = 1e-9

_IDX = np.arange(1.0, N + 1.0)
_DECAY_W = _IDX * (N - _IDX + 1.0) / (N * (N + 1.0))


def jos1_l1_F(x: np.ndarray) -> np.ndarray:
    """``(|x|^2/n + |x|_1/n, |x-2|^2/n + |x-1|_1/(2n))``."""
    d = x - 2.0
    return np.array(
        [
            (x @ x + np.abs(x).sum()) / N,
            (d @ d) / N + np.abs(x - 1.0).sum() / (2.0 * N),
        ]
    )


def fds_F(x: np.ndarray) -> np.ndarray:
    """The three FDS objectives plus the indicator of ``x >= 0``."""
    f = np.array(
        [
            _IDX @ (x - _IDX) ** 4 / N**2,
            np.exp(x.sum() / N) + x @ x,
            _DECAY_W @ np.exp(-x),
        ]
    )
    return f if (x >= 0).all() else np.full(3, np.inf)


def fds_gradients(x: np.ndarray) -> np.ndarray:
    """Rows are the gradients of the three smooth FDS objectives."""
    return np.vstack(
        [
            4.0 * _IDX * (x - _IDX) ** 3 / N**2,
            np.exp(x.sum() / N) / N + 2.0 * x,
            -_DECAY_W * np.exp(-x),
        ]
    )


def quad_F(x: np.ndarray, inst: QuadInstance) -> np.ndarray:
    d = x - inst.centres
    return inst.scales * np.einsum("ij,ij->i", d, d) / (2.0 * N)


def objective(workload: str, inst: QuadInstance | None, x: np.ndarray) -> np.ndarray:
    if workload == "jos1-l1":
        return jos1_l1_F(x)
    if workload == "fds-nonneg":
        return fds_F(x)
    return quad_F(x, inst)


def _simplex_max(fun, jac, scale: np.ndarray) -> np.ndarray:
    """Maximizer of a concave ``fun`` over the standard simplex.

    SLSQP works in ``mu = lam * scale``; with ``scale`` the norms of the
    gradients that ``lam`` weighs, objectives whose gradients differ by
    orders of magnitude get comparable multipliers.  The result is made
    exactly feasible.
    """
    from scipy.optimize import minimize

    res = minimize(
        lambda mu: -fun(mu / scale),
        np.full(len(scale), 1.0 / np.sum(1.0 / scale)),
        jac=lambda mu: -jac(mu / scale) / scale,
        method="SLSQP",
        bounds=[(0.0, None)] * len(scale),
        constraints=[{"type": "eq", "fun": lambda mu: np.sum(mu / scale) - 1.0}],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    lam = np.maximum(res.x / scale, 0.0)
    return lam / lam.sum()


def fds_criticality(x: np.ndarray) -> float:
    """Lower bound on ``min_{z>=0} max_i grad f_i(x)^T (z-x) + |z-x|^2/2``.

    Solved through its dual over the simplex: for weights ``lam`` the inner
    minimum is attained at ``z = max(x - G^T lam, 0)``.  Any feasible
    ``lam`` gives a lower bound (weak duality), and ``z = x`` shows the
    value is at most 0, so a result near 0 certifies criticality even if
    SciPy stops short.
    """
    G = fds_gradients(x)

    def state(lam):
        z = np.maximum(x - G.T @ lam, 0.0)
        return z - x

    def phi(lam):
        d = state(lam)
        return float((G.T @ lam) @ d + 0.5 * d @ d)

    scale = np.linalg.norm(G, axis=1)
    return phi(_simplex_max(phi, lambda lam: G @ state(lam), scale))


def quad_distance(x: np.ndarray, inst: QuadInstance) -> float:
    """Upper bound on the distance from ``x`` to ``conv{a_i}`` (the Pareto set).

    Any point of the hull bounds the distance from above, so an inexact
    SciPy solve can only make the check stricter.
    """
    A = inst.centres

    def half_sq(mu):
        r = A.T @ mu - x
        return -0.5 * float(r @ r)

    mu = _simplex_max(half_sq, lambda mu: -(A @ (A.T @ mu - x)), np.ones(len(A)))
    return float(np.linalg.norm(A.T @ mu - x))


def fds_criticality_tol(ell: float) -> float:
    """How far below 0 the criticality value of a converged point may lie.

    The last proximal step ``d`` at ``ell`` was shorter than epsilon in every
    coordinate; on the ``ell = 1`` scale of the criticality value it is
    ``ell d``, worth ``-(ell |d|)^2 / 2``.  The returned point lies one step
    from where the step was taken, which can move the weighted gradient by
    about as much again, hence ``2 (ell sqrt(n) epsilon)^2``: 6.6e-4 at the
    usual ``ell = 256``, against values near -1e-4 at converged points and
    below -0.09 at uniform starts.
    """
    return 2.0 * (ell * np.sqrt(N) * EPSILON) ** 2


def quad_distance_tol(inst: QuadInstance, ell: float) -> float:
    """Distance bound at a point whose proximal step is shorter than epsilon.

    A step ``d`` from ``y`` satisfies ``sum_i lam_i s_i (y - a_i) = -n ell d``,
    so ``y`` is within ``n ell |d| / min s`` of the hull, and the returned
    point lies within ``|d|`` of ``y``, with ``|d| <= sqrt(n) epsilon``.
    """
    step = np.sqrt(N) * EPSILON
    return N * ell * step / float(inst.scales.min()) + step


def check_run(
    workload: str,
    inst: QuadInstance | None,
    x0: np.ndarray,
    x_final: np.ndarray,
    converged: bool,
    reported: np.ndarray,
    final_ell: float,
) -> list[str]:
    """Every check that applies to one finished run."""
    errors: list[str] = []
    F0 = objective(workload, inst, x0)
    F1 = objective(workload, inst, x_final)
    # fds_F is infinite outside the orthant, so this also checks x_final >= 0
    if not np.isfinite(F1).all():
        return [f"F(x_final) is not finite: {F1}"]
    if (F1 > F0 + MONOTONE_SLACK * (1.0 + np.abs(F0))).any():
        errors.append(f"F(x_final) {F1} exceeds F(x0) {F0}")
    reported = np.asarray(reported, dtype=float)
    if not np.allclose(reported, F1, rtol=REPORT_RTOL, atol=REPORT_RTOL):
        errors.append(f"reported objective {reported} differs from F(x_final) {F1}")
    if not converged:
        return errors
    if workload == "jos1-l1":
        c = min(max(float(x_final.mean()), 0.0), 2.0)
        gap = float(np.abs(x_final - c).max())
        if gap > JOS1_SPREAD_TOL:
            errors.append(f"x_final is {gap:.3e} from the Pareto set c*1")
    elif workload == "fds-nonneg":
        v = fds_criticality(x_final)
        tol = fds_criticality_tol(final_ell)
        if v < -tol:
            errors.append(f"criticality value {v:.3e} is below -{tol:.3e}")
    else:
        dist = quad_distance(x_final, inst)
        tol = quad_distance_tol(inst, final_ell)
        if dist > tol:
            errors.append(f"x_final is {dist:.3e} from conv(a_i) (tolerance {tol:.3e})")
    return errors
