"""Per-iteration subproblem, solved through its dual over the simplex.

Given an anchor point ``x`` (in the domain of ``F``), an extrapolation
point ``y`` (possibly outside it) and a proximal parameter ``ell``, the
subproblem minimizes over ``z``

    max_i psi_i(z) + (ell/2) ||z - y||^2,
    psi_i(z) = <grad f_i(y), z - y> + g_i(z) + f_i(y) - F_i(x)
               + (ell/2) ||z - y||^2

(the quadratic sits inside each ``psi_i`` here; the max-form objective is
``max_i psi_i``).  Strong duality turns this into maximizing a concave,
differentiable function ``omega`` over the standard simplex; the primal
minimizer is recovered from the dual optimum by one weighted-prox call.
The plain proximal step is the special case ``y = x``.

Dual points are plain ``(m,)`` arrays: nonnegative, summing to one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from math import isfinite, isnan, sqrt
from typing import Optional

import numpy as np

from .core import Array, MultiObjectiveProblem, eval_F

__all__ = [
    "DualSolverConfig",
    "SubproblemInput",
    "SubproblemSolution",
    "SubproblemError",
    "NonFiniteValueError",
    "MaxIterationsExceededError",
    "psi_values",
    "primal_from_dual",
    "dual_value",
    "dual_gradient",
    "project_simplex",
    "solve_subproblem",
]

# i is active iff psi_i >= max psi - TIE_TOL * (1 + |max psi|)
ACTIVE_TIE_TOL = 1e-8

_ALPHA_MIN = 1e-12
_ALPHA_MAX = 1e12
_HISTORY = 10
_TAU_MIN = 1e-16
# Armijo line search of the m >= 3 ascent: step shrink factor and
# sufficient-increase fraction of the predicted slope
_ARMIJO_FACTOR = 0.5
_SUFFICIENT_INCREASE = 1e-4
# absolute slack in the sufficient-increase test: near the optimum the
# objective is flat to machine precision while the gradient still carries
# signal, so steps within float resolution of "no change" must pass
_LS_SLACK = 1e-15
# stand-in ascent entry for +inf gradient coordinates: never step toward a
# coordinate whose g_i is infinite at the current primal point
_NEG_BIG = -1e32
_SQRT2 = sqrt(2.0)


class SubproblemError(RuntimeError):
    """Base class for subproblem solver failures."""


class NonFiniteValueError(SubproblemError):
    """The dual objective evaluated to NaN or +inf."""


class MaxIterationsExceededError(SubproblemError):
    """Dual ascent missed the stationarity tolerance within the budget.

    Attributes
    ----------
    best : SubproblemSolution
        The iterate with the largest dual value seen; with two objectives,
        the one with the smallest stationarity measure.
    """

    def __init__(self, message: str, best: "SubproblemSolution"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class DualSolverConfig:
    """Settings for the dual solve.

    The defaults keep the dual solve well below the outer stopping
    threshold so the residual test stays meaningful.  ``tolerance``
    bounds the stationarity measure of ``solve_subproblem``.
    ``max_iterations`` bounds the ascent iterations for ``m >= 3``; for
    ``m = 2`` it bounds the dual evaluations, the first one included.
    """

    tolerance: float = 1e-10
    max_iterations: int = 500

    def __post_init__(self) -> None:
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class SubproblemInput:
    """One subproblem instance with the per-instance quantities cached.

    ``f_y``, ``jac_y`` and ``F_x`` are evaluated once and reused across
    dual iterations and backtracking trials at different ``ell``.
    """

    x_anchor: Array
    y_extrap: Array
    ell: float
    f_y: Array
    jac_y: Array
    F_x: Array

    def __post_init__(self) -> None:
        if not self.ell > 0:
            raise ValueError("ell must be positive")
        if not np.isfinite(self.F_x).all():
            raise ValueError("x_anchor lies outside dom F")
        # cached derived arrays; recomputed on replace()
        object.__setattr__(self, "jac_t", np.ascontiguousarray(self.jac_y.T))
        object.__setattr__(self, "shift", self.f_y - self.F_x)

    @staticmethod
    def build(
        problem: MultiObjectiveProblem,
        x_anchor: Array,
        y_extrap: Array,
        ell: float,
        F_x: Optional[Array] = None,
    ) -> "SubproblemInput":
        """Evaluate and cache ``f(y)``, the Jacobian at ``y`` and ``F(x)``.

        A caller that already holds ``F(x)`` passes it as ``F_x`` and
        saves one objective evaluation.
        """
        x_anchor = np.asarray(x_anchor, dtype=float)
        y_extrap = np.asarray(y_extrap, dtype=float)
        if x_anchor.shape != (problem.n,) or y_extrap.shape != (problem.n,):
            raise ValueError(
                f"points must have shape ({problem.n},), got "
                f"{x_anchor.shape} and {y_extrap.shape}"
            )
        f_y = np.asarray(problem.smooth_values(y_extrap), dtype=float)
        jac_y = np.asarray(problem.smooth_jacobian(y_extrap), dtype=float)
        if jac_y.shape != (problem.m, problem.n):
            raise ValueError(
                f"jacobian has shape {jac_y.shape}, expected "
                f"({problem.m}, {problem.n})"
            )
        return SubproblemInput(
            x_anchor=x_anchor,
            y_extrap=y_extrap,
            ell=float(ell),
            f_y=f_y,
            jac_y=jac_y,
            F_x=eval_F(problem, x_anchor) if F_x is None else F_x,
        )

    def with_ell(self, ell: float) -> "SubproblemInput":
        """The same instance at a different proximal parameter."""
        return replace(self, ell=float(ell))


@dataclass(frozen=True)
class SubproblemSolution:
    """Primal-dual solution of one subproblem.

    ``theta`` is the optimal value (reported from the dual, which equals
    the primal optimum); ``psi`` holds the per-objective model values at
    ``z_star``; ``active_set`` collects the indices attaining
    ``max_i psi_i`` within a tie tolerance; ``residual_inf`` is
    ``||z_star - y||_inf``, the quantity tested by the outer stopping
    rule; ``dual_stationarity`` is the projected-gradient norm at
    ``lambda_star``; ``F_z`` is ``F(z_star)`` when a caller evaluated it
    (the descent test of ``backtrack_ell`` does), else ``None``.
    """

    z_star: Array
    lambda_star: Array
    theta: float
    psi: Array
    active_set: tuple[int, ...]
    residual_inf: float
    dual_stationarity: float
    F_z: Optional[Array] = None


def psi_values(
    problem: MultiObjectiveProblem, inp: SubproblemInput, z: Array
) -> Array:
    """Evaluate all model components ``psi_i(z)`` for one instance.

    Coordinates are ``+inf`` where ``g_i(z)`` is infinite.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (problem.n,):
        raise ValueError(f"z has shape {z.shape}, expected ({problem.n},)")
    dz = z - inp.y_extrap
    gz = np.asarray(problem.nonsmooth_values(z), dtype=float)
    return (
        inp.jac_y @ dz
        + gz
        + inp.f_y
        - inp.F_x
        + 0.5 * inp.ell * (dz @ dz)
    )


def primal_from_dual(
    problem: MultiObjectiveProblem, inp: SubproblemInput, lam: Array
) -> Array:
    """Recover the primal point of a dual point by one prox evaluation.

    ``z = weighted_prox(lam/ell, y - (1/ell) sum_i lam_i grad f_i(y))``.
    """
    lam = np.asarray(lam, dtype=float)
    u = inp.y_extrap - (inp.jac_t @ lam) / inp.ell
    return problem.weighted_prox(lam / inp.ell, u)


def _dual_state(
    problem: MultiObjectiveProblem, inp: SubproblemInput, lam: Array
) -> tuple[Array, Array, float, Array]:
    """Primal point, psi vector, dual value and dual gradient at ``lam``."""
    u = inp.y_extrap - (inp.jac_t @ lam) / inp.ell
    z = problem.weighted_prox(lam / inp.ell, u)
    dz = z - inp.y_extrap
    gz = np.asarray(problem.nonsmooth_values(z), dtype=float)
    grad = inp.jac_y @ dz + gz + inp.shift
    quad = 0.5 * inp.ell * (dz @ dz)
    psi = grad + quad
    # omega = lam @ grad + quad: the Lagrangian minimum over z, which keeps
    # the quadratic term unscaled so finite-difference probes slightly off
    # the simplex still see the exact gradient
    if np.isfinite(grad).all():
        omega = float(lam @ grad) + quad
    else:
        # 0 * inf convention: zero-weight coordinates contribute nothing
        act = lam > 0
        ga = grad[act]
        if np.isinf(ga).any():
            omega = float("inf")
        else:
            omega = float(lam[act] @ ga) + quad
    return z, psi, omega, grad


def dual_value(
    problem: MultiObjectiveProblem, inp: SubproblemInput, lam: Array
) -> float:
    """The dual objective ``omega(lam)``.

    The minimum over ``z`` of the weighted model
    ``sum_i lam_i (g_i(z) + <grad f_i(y), z - y> + f_i(y) - F_i(x))
    + (ell/2) ||z - y||^2``; on the simplex this equals
    ``sum_i lam_i psi_i(z_lam)``.
    """
    _check_dual_point(problem, lam)
    return _dual_state(problem, inp, np.asarray(lam, dtype=float))[2]


def dual_gradient(
    problem: MultiObjectiveProblem, inp: SubproblemInput, lam: Array
) -> Array:
    """Gradient of the dual objective at ``lam``.

    ``grad omega(lam) = g(z_lam) + J_f(y) (z_lam - y) + f(y) - F(x)``,
    equivalently ``psi(z_lam) - (ell/2)||z_lam - y||^2`` componentwise.
    A ``+inf`` coordinate signals ``g_i`` infinite at the recovered
    primal point, possible only for zero-weight indicator components.
    """
    _check_dual_point(problem, lam)
    return _dual_state(problem, inp, np.asarray(lam, dtype=float))[3]


def _check_dual_point(problem: MultiObjectiveProblem, lam: Array) -> None:
    # the dual objective extends naturally to any nonnegative weights, and
    # finite-difference probes step slightly off the simplex; only reject
    # clearly invalid inputs
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (problem.m,):
        raise ValueError(f"lam has shape {lam.shape}, expected ({problem.m},)")
    if (lam < -1e-9).any() or abs(float(lam.sum()) - 1.0) > 0.5:
        raise ValueError("lam must lie near the standard simplex")


def project_simplex(v: Array) -> Array:
    """Euclidean projection onto the standard simplex, sort-and-threshold."""
    v = np.asarray(v, dtype=float)
    m = v.size
    if m == 1:
        return np.ones(1)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    j = np.arange(1.0, m + 1.0)
    rho = int(np.flatnonzero(u * j > css)[-1])
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def _ascent_direction(grad: Array) -> Array:
    """Gradient with +inf entries replaced by a large negative stand-in."""
    if np.isfinite(grad).all():
        return grad
    if np.isnan(grad).any():
        raise NonFiniteValueError("dual gradient evaluated to NaN")
    return np.where(np.isposinf(grad), _NEG_BIG, grad)


def _newton_candidate(
    Q: Array, g: Array, lam: Array, probe: Array
) -> Optional[Array]:
    """Quadratic-model step on the working face, pulled back to the simplex.

    ``Q`` is the model curvature (Gram matrix of the smooth gradients over
    ``ell``), exact for problems without nonsmooth terms and an upper
    curvature surrogate otherwise, so the proposed step errs short.  The
    working face is the union of the supports of ``lam`` and of the
    projected-gradient probe; coordinates pinned at zero that the model
    step would push negative are dropped and the step is re-solved.
    Returns ``None`` when no usable step exists (the caller falls back to
    the line-searched gradient step).
    """
    m = lam.size
    support = np.flatnonzero((lam > 0.0) | (probe > 0.0))
    for _ in range(m):
        k = support.size
        if k == 0:
            return None
        if k == 1:
            cand = np.zeros(m)
            cand[support[0]] = 1.0
            if np.array_equal(cand, lam):
                return None
            return cand
        # equality-constrained model step: maximize the local quadratic on
        # the affine hull of the face (step components sum to zero)
        A = np.zeros((k + 1, k + 1))
        A[:k, :k] = Q[np.ix_(support, support)]
        A[:k, k] = 1.0
        A[k, :k] = 1.0
        b = np.zeros(k + 1)
        b[:k] = g[support]
        try:
            d = np.linalg.solve(A, b)[:k]
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(d).all():
            return None
        lam_s = lam[support]
        neg = d < 0.0
        hit = None
        t = 1.0
        if neg.any():
            at_zero = neg & (lam_s <= 0.0)
            if at_zero.any():
                support = support[~at_zero]
                continue
            ratios = lam_s[neg] / -d[neg]
            j = int(np.argmin(ratios))
            if ratios[j] < 1.0:
                t = float(ratios[j])
                hit = int(support[np.flatnonzero(neg)[j]])
        cand = np.zeros(m)
        cand[support] = lam_s + t * d
        if hit is not None:
            cand[hit] = 0.0
        cand = np.maximum(cand, 0.0)
        total = float(cand.sum())
        if not np.isfinite(total) or total <= 0.0:
            return None
        cand /= total
        if np.array_equal(cand, lam):
            return None
        return cand
    return None


def _finalize(
    inp: SubproblemInput,
    lam: Array,
    z: Array,
    psi: Array,
    omega: float,
    stationarity: float,
) -> SubproblemSolution:
    finite = np.isfinite(psi)
    if finite.all():
        top = float(psi.max())
        cut = top - ACTIVE_TIE_TOL * (1.0 + abs(top))
        active = tuple(int(i) for i in np.flatnonzero(psi >= cut))
    else:
        active = tuple(int(i) for i in np.flatnonzero(np.isposinf(psi)))
    return SubproblemSolution(
        z_star=z,
        lambda_star=lam,
        theta=float(omega),
        psi=psi,
        active_set=active,
        residual_inf=float(np.abs(z - inp.y_extrap).max()),
        dual_stationarity=float(stationarity),
    )


def solve_subproblem(
    problem: MultiObjectiveProblem,
    inp: SubproblemInput,
    cfg: Optional[DualSolverConfig] = None,
) -> SubproblemSolution:
    """Maximize the dual over the simplex and recover the primal point.

    Stops when the projected-gradient stationarity measure
    ``||lam - proj(lam + grad)||`` falls below ``cfg.tolerance``.
    With one objective the dual is a point and the solve is a single
    prox call, which makes the accelerated outer loop coincide with the
    classical fast iterative shrinkage-thresholding scheme.  With two
    objectives the dual is a concave function of ``t = lam_0`` on
    ``[0, 1]``, and a bracketed root search on its nonincreasing
    derivative finds the optimum in a few dual evaluations.  With three
    or more, a projected gradient ascent runs from the uniform dual
    point, with a Barzilai-Borwein initial step and a nonmonotone Armijo
    backtracking line search; a quadratic-model face step is tried first
    whenever it halves the stationarity measure without degrading the
    dual value.

    Raises
    ------
    NonFiniteValueError
        If the dual objective evaluates to NaN or +inf.
    MaxIterationsExceededError
        If stationarity is not reached within ``cfg.max_iterations``, or
        for two objectives when the bracket around the optimum shrinks to
        adjacent floats first; the error carries the best iterate found.
    """
    if cfg is None:
        cfg = DualSolverConfig()

    if problem.m == 1:
        lam = np.ones(1)
        z, psi, omega, _ = _dual_state(problem, inp, lam)
        if not isfinite(omega):
            raise NonFiniteValueError(f"dual objective is {omega}")
        return _finalize(inp, lam, z, psi, omega, 0.0)
    if problem.m == 2:
        return _solve_pair(problem, inp, cfg)
    return _simplex_ascent(problem, inp, cfg)


def _solve_pair(
    problem: MultiObjectiveProblem,
    inp: SubproblemInput,
    cfg: DualSolverConfig,
) -> SubproblemSolution:
    """Two objectives: find the zero of ``d(t) = omega'(t)``, ``lam = (t, 1 - t)``.

    ``d = gdir_0 - gdir_1`` with ``gdir`` the ascent direction, and it is
    nonincreasing because the dual is concave.  The first step from
    ``t = 1/2`` is a Newton step on the model curvature
    ``||J_0 - J_1||^2 / ell``, exact without nonsmooth terms.  Until ``d``
    changes sign, secant steps through the last two points extrapolate
    toward the unexplored vertex, and the vertex itself is tried when the
    secant leaves the interval; once ``d`` changes sign, Illinois steps
    (regula falsi with the stale end's value halved) shrink the bracket,
    with bisection whenever the secant point falls outside it.  Every
    evaluation counts against ``cfg.max_iterations``.
    """
    diff = inp.jac_y[0] - inp.jac_y[1]
    curvature = float(diff @ diff) / inp.ell
    # the optimum lies in [lo, hi]; d(lo) > 0 and d(hi) < 0 once evaluated,
    # with the values Illinois-weighted (None while that end is unexplored)
    lo, hi = 0.0, 1.0
    d_lo: Optional[float] = None
    d_hi: Optional[float] = None
    side = 0
    t_prev = d_prev = float("nan")
    best = None
    t = 0.5
    for _ in range(cfg.max_iterations):
        lam = np.array([t, 1.0 - t])
        z, psi, omega, grad = _dual_state(problem, inp, lam)
        if isnan(omega) or omega == float("inf"):
            raise NonFiniteValueError(f"dual objective is {omega}")
        gdir = _ascent_direction(grad)
        d = float(gdir[0] - gdir[1])
        # closed form of ||lam - proj(lam + gdir)|| for m = 2
        probe = min(max(t + 0.5 * d, 0.0), 1.0)
        stationarity = _SQRT2 * abs(t - probe)
        if stationarity <= cfg.tolerance:
            return _finalize(inp, lam, z, psi, omega, stationarity)
        # near the optimum omega is flat to rounding, so the best iterate
        # is the one closest to stationarity
        if best is None or stationarity < best[4]:
            best = (omega, lam, z, psi, stationarity)

        if d > 0.0:
            lo, d_lo = t, d
            if side > 0 and d_hi is not None:
                d_hi *= 0.5
            side = 1
        else:
            hi, d_hi = t, d
            if side < 0 and d_lo is not None:
                d_lo *= 0.5
            side = -1
        if d_lo is not None and d_hi is not None:
            t_new = lo + (hi - lo) * (d_lo / (d_lo - d_hi))
            if not lo < t_new < hi:
                t_new = 0.5 * (lo + hi)
                if not lo < t_new < hi:
                    reason = "bracket collapsed to adjacent floats"
                    break
        else:
            if isnan(t_prev):
                t_new = t + d / curvature if curvature > 0.0 else float("nan")
            elif d != d_prev:
                t_new = t - d * (t - t_prev) / (d - d_prev)
            else:
                t_new = float("nan")
            if not lo < t_new < hi:
                # the unexplored vertex: stationary there, or a bracket end
                t_new = hi if d > 0.0 else lo
        t_prev, d_prev, t = t, d, t_new
    else:
        reason = "dual evaluation budget spent"
    bomega, blam, bz, bpsi, bstat = best
    raise MaxIterationsExceededError(
        f"dual root search stopped ({reason}) at stationarity {bstat:.3e} "
        f"(tolerance {cfg.tolerance:.3e})",
        _finalize(inp, blam, bz, bpsi, bomega, bstat),
    )


def _simplex_ascent(
    problem: MultiObjectiveProblem,
    inp: SubproblemInput,
    cfg: DualSolverConfig,
) -> SubproblemSolution:
    """Projected gradient ascent on the simplex, for any ``m >= 2``."""
    m = problem.m
    lam = np.full(m, 1.0 / m)
    z, psi, omega, grad = _dual_state(problem, inp, lam)
    if isnan(omega) or omega == float("inf"):
        raise NonFiniteValueError(f"dual objective is {omega}")
    best = (omega, lam, z, psi)
    history: deque[float] = deque([omega], maxlen=_HISTORY)
    alpha = 1.0
    stationarity = float("inf")
    # model curvature for the face step; exact when every nonsmooth term
    # vanishes and an upper surrogate otherwise
    Q = (inp.jac_y @ inp.jac_t) / inp.ell

    for _ in range(cfg.max_iterations):
        gdir = _ascent_direction(grad)
        probe = project_simplex(lam + gdir)
        stationarity = float(np.linalg.norm(lam - probe))
        if stationarity <= cfg.tolerance:
            return _finalize(inp, lam, z, psi, omega, stationarity)

        # try the quadratic-model face step first; badly conditioned duals
        # stall a pure first-order ascent short of the stationarity target.
        # The model is exact only when every nonsmooth term vanishes, so the
        # step counts only when it decisively shrinks the stationarity
        # measure without degrading the value: judged any looser it can
        # park on a wrong face or oscillate around a kink of the dual,
        # shutting out the globally convergent projected step below.
        stepped = False
        cand = _newton_candidate(Q, gdir, lam, probe)
        if cand is not None:
            z2, psi2, om2, grad2 = _dual_state(problem, inp, cand)
            if isfinite(om2) and om2 >= omega - _LS_SLACK * (1.0 + abs(omega)):
                probe2 = project_simplex(cand + _ascent_direction(grad2))
                stat2 = float(np.linalg.norm(cand - probe2))
                stepped = stat2 <= 0.5 * stationarity
        if not stepped:
            # nonmonotone reference: the worst dual value in the recent
            # window, with slack absorbing ulp-level ties near the optimum
            ref = min(history)
            slack = _LS_SLACK * (1.0 + abs(ref))
            # the projected step is an ascent direction for any alpha > 0;
            # a negative inner product here is rounding noise, so clamp it
            d = project_simplex(lam + alpha * gdir) - lam
            slope = max(float(gdir @ d), 0.0)
            tau = 1.0
            accepted = False
            while True:
                cand = lam + tau * d
                z2, psi2, om2, grad2 = _dual_state(problem, inp, cand)
                if om2 >= ref + _SUFFICIENT_INCREASE * tau * slope - slack:
                    accepted = True
                    break
                if tau <= _TAU_MIN:
                    break
                tau *= _ARMIJO_FACTOR
            if isnan(om2) or om2 == float("inf"):
                raise NonFiniteValueError(f"dual objective is {om2}")
            if not accepted and om2 <= omega:
                break
        # Barzilai-Borwein step length from the accepted move
        s = cand - lam
        yv = _ascent_direction(grad2) - gdir
        sy = float(s @ yv)
        if sy < 0.0:
            alpha = min(max(-float(s @ s) / sy, _ALPHA_MIN), _ALPHA_MAX)
        else:
            # curvature signal lost in rounding noise; restart the step
            alpha = 1.0
        lam, z, psi, omega, grad = cand, z2, psi2, om2, grad2
        history.append(omega)
        if omega > best[0]:
            best = (omega, lam, z, psi)

    _, blam, bz, bpsi = best
    bomega, bgrad = _dual_state(problem, inp, blam)[2:]
    bprobe = project_simplex(blam + _ascent_direction(bgrad))
    bstat = float(np.linalg.norm(blam - bprobe))
    if bstat <= cfg.tolerance:
        return _finalize(inp, blam, bz, bpsi, bomega, bstat)
    raise MaxIterationsExceededError(
        f"dual ascent stalled at stationarity {bstat:.3e} "
        f"(tolerance {cfg.tolerance:.3e})",
        _finalize(inp, blam, bz, bpsi, bomega, bstat),
    )
