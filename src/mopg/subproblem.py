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
The plain proximal step is the special case ``y = x``.  Without nonsmooth
terms the dual is the concave quadratic of Fliege and Svaiter (2000), with
curvature ``J J^T / ell``, and three or more objectives are solved face by
face as in Wolfe's nearest-point method (1976).

Dual points are plain ``(m,)`` arrays: nonnegative, summing to one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite, isnan, sqrt
from typing import NamedTuple, Optional

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

# stand-in ascent entry for +inf gradient coordinates: never step toward a
# coordinate whose g_i is infinite at the current primal point
_NEG_BIG = -1e32

# lam = base + t * delta = (t, 1 - t), the two-objective simplex
_PAIR_SEGMENT = (np.array([0.0, 1.0]), np.array([1.0, -1.0]))


class SubproblemError(RuntimeError):
    """Base class for subproblem solver failures."""


class NonFiniteValueError(SubproblemError):
    """The dual objective evaluated to NaN or +inf."""


class MaxIterationsExceededError(SubproblemError):
    """The dual solve missed the stationarity tolerance.

    Attributes
    ----------
    best : SubproblemSolution
        With two objectives the iterate of smallest stationarity, with
        more the last one the dual confirmed.
    """

    def __init__(self, message: str, best: "SubproblemSolution"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class DualSolverConfig:
    """Settings for the dual solve.

    The defaults keep the dual solve well below the outer stopping
    threshold so the residual test stays meaningful.  ``tolerance``
    bounds the relative stationarity measure of ``solve_subproblem``.
    ``max_iterations`` bounds, for ``m = 2``, the dual evaluations; for
    ``m >= 3``, the face changes of the active-set solves plus the dual
    evaluations of the ray searches.
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
        # the part of the stationarity scale that is fixed per instance
        object.__setattr__(self, "shift_max", max(map(abs, self.shift.tolist())))

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
) -> tuple[Array, Array, float, Array, bool]:
    """Primal point, psi vector, dual value and dual gradient at ``lam``,
    and whether the gradient passed the finiteness test."""
    u = inp.y_extrap - (inp.jac_t @ lam) / inp.ell
    z = problem.weighted_prox(lam / inp.ell, u)
    dz = z - inp.y_extrap
    gz = np.asarray(problem.nonsmooth_values(z), dtype=float)
    grad = inp.jac_y @ dz + gz + inp.shift
    quad = 0.5 * inp.ell * (dz @ dz)
    psi = grad + quad
    # omega = lam @ grad + quad: the Lagrangian minimum over z, which keeps
    # the quadratic term unscaled so finite-difference probes slightly off
    # the simplex still see the exact gradient; it is finite iff every
    # gradient entry is (barring an overflow, which takes the general branch)
    omega = float(lam @ grad) + quad
    finite = isfinite(omega)
    if not finite:
        # 0 * inf convention: zero-weight coordinates contribute nothing
        act = lam > 0
        ga = grad[act]
        if np.isinf(ga).any():
            omega = float("inf")
        else:
            omega = float(lam[act] @ ga) + quad
    return z, psi, omega, grad, finite


def dual_value(
    problem: MultiObjectiveProblem, inp: SubproblemInput, lam: Array
) -> float:
    """The dual objective ``omega(lam)``.

    The minimum over ``z`` of the weighted model
    ``sum_i lam_i (g_i(z) + <grad f_i(y), z - y> + f_i(y) - F_i(x))
    + (ell/2) ||z - y||^2``; on the simplex this equals
    ``sum_i lam_i psi_i(z_lam)``.
    """
    return _dual_state(problem, inp, _dual_point(problem, lam))[2]


def dual_gradient(
    problem: MultiObjectiveProblem, inp: SubproblemInput, lam: Array
) -> Array:
    """Gradient of the dual objective at ``lam``.

    ``grad omega(lam) = g(z_lam) + J_f(y) (z_lam - y) + f(y) - F(x)``,
    equivalently ``psi(z_lam) - (ell/2)||z_lam - y||^2`` componentwise.
    A ``+inf`` coordinate signals ``g_i`` infinite at the recovered
    primal point, possible only for zero-weight indicator components.
    """
    return _dual_state(problem, inp, _dual_point(problem, lam))[3]


def _dual_point(problem: MultiObjectiveProblem, lam: Array) -> Array:
    # the dual objective extends naturally to any nonnegative weights, and
    # finite-difference probes step slightly off the simplex; only reject
    # clearly invalid inputs
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (problem.m,):
        raise ValueError(f"lam has shape {lam.shape}, expected ({problem.m},)")
    if (lam < -1e-9).any() or abs(float(lam.sum()) - 1.0) > 0.5:
        raise ValueError("lam must lie near the standard simplex")
    return lam


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


class _Point(NamedTuple):
    """One dual evaluation and what the solvers take from it."""

    lam: Array
    z: Array
    psi: Array
    omega: float
    gdir: Array  # the gradient, +inf entries replaced by _NEG_BIG
    scale: float  # 1 + max_i |f_i(y) - F_i(x)| + max_i |grad_i| (finite)


def _evaluate(
    problem: MultiObjectiveProblem, inp: SubproblemInput, lam: Array
) -> _Point:
    z, psi, omega, grad, finite = _dual_state(problem, inp, lam)
    if isnan(omega) or omega == float("inf"):
        raise NonFiniteValueError(f"dual objective is {omega}")
    if finite:
        # m is small: Python floats beat a NumPy reduction here
        scale = 1.0 + inp.shift_max + max(map(abs, grad.tolist()))
    else:
        if np.isnan(grad).any():
            raise NonFiniteValueError("dual gradient evaluated to NaN")
        inf = np.isposinf(grad)
        scale = 1.0 + float(np.abs(grad[~inf]).max(initial=0.0)) + inp.shift_max
        grad = np.where(inf, _NEG_BIG, grad)
    return _Point(lam, z, psi, omega, grad, scale)


def _stationarity(p: _Point) -> float:
    """The projected-gradient measure ``||lam - proj(lam + gdir)||``."""
    return float(np.linalg.norm(p.lam - project_simplex(p.lam + p.gdir)))


def _finalize(inp: SubproblemInput, p: _Point, stat: float) -> SubproblemSolution:
    if np.isfinite(p.psi).all():
        top = float(p.psi.max())
        cut = top - ACTIVE_TIE_TOL * (1.0 + abs(top))
        active = tuple(int(i) for i in np.flatnonzero(p.psi >= cut))
    else:
        active = tuple(int(i) for i in np.flatnonzero(np.isposinf(p.psi)))
    return SubproblemSolution(
        z_star=p.z,
        lambda_star=p.lam,
        theta=float(p.omega),
        psi=p.psi,
        active_set=active,
        residual_inf=float(np.abs(p.z - inp.y_extrap).max()),
        dual_stationarity=float(stat),
    )


def solve_subproblem(
    problem: MultiObjectiveProblem,
    inp: SubproblemInput,
    cfg: Optional[DualSolverConfig] = None,
) -> SubproblemSolution:
    """Maximize the dual over the simplex and recover the primal point.

    Stops when the projected-gradient stationarity measure
    ``||lam - proj(lam + grad)||`` is at most ``cfg.tolerance`` times
    ``1 + max_i |grad_i| + max_i |f_i(y) - F_i(x)|``.  With one objective
    the dual is a point and the solve is a single prox call, which makes
    the accelerated outer loop coincide with the classical fast iterative
    shrinkage-thresholding scheme.  With two objectives a bracketed root
    search on the derivative of the dual, a concave function of
    ``t = lam_0``, takes a few dual evaluations.  With three or more, a
    primal active-set method maximizes a concave quadratic model of the
    dual face by face, and one dual evaluation confirms the optimum;
    without nonsmooth terms the model is the dual itself, so a solve takes
    two evaluations, the uniform point and the optimum.

    Raises
    ------
    NonFiniteValueError
        If the dual objective evaluates to NaN or +inf.
    MaxIterationsExceededError
        If stationarity is not reached within ``cfg.max_iterations``, or
        when the search can make no more progress; the error carries the
        best iterate found.
    """
    if cfg is None:
        cfg = DualSolverConfig()
    if problem.m == 1:
        return _finalize(inp, _evaluate(problem, inp, np.ones(1)), 0.0)
    solve = _solve_pair if problem.m == 2 else _solve_simplex
    p, stationarity, reason = solve(problem, inp, cfg)
    if reason is not None:
        raise MaxIterationsExceededError(
            f"dual solve stopped ({reason}) at stationarity {stationarity:.3e} "
            f"(relative tolerance {cfg.tolerance:.3e})",
            _finalize(inp, p, stationarity),
        )
    return _finalize(inp, p, stationarity)


def _root_search(
    problem: MultiObjectiveProblem,
    inp: SubproblemInput,
    tolerance: float,
    base: Array,
    delta: Array,
    t: float,
    budget: int,
) -> tuple[_Point, float, int, Optional[str]]:
    """Find the zero of ``d(t) = gdir(base + t delta) . delta`` on ``[0, 1]``.

    ``d``, the dual's slope along the segment, is nonincreasing.  From
    ``t`` comes a Newton step on the curvature ``||J^T delta||^2 / ell``,
    exact without nonsmooth terms; until ``d`` changes sign, secant steps
    toward the unexplored end (or the end itself); then Illinois steps
    (regula falsi with the stale end's value halved), bisecting when the
    secant leaves the bracket.  Stops when the segment stationarity
    ``||delta|| |t - clip(t + d / ||delta||^2, 0, 1)|`` is within
    ``tolerance`` times the scale, which for two objectives is the test
    on the simplex.  Returns the point of smallest segment stationarity,
    that stationarity, the evaluations made (at most ``budget``) and
    ``None`` or why the search stopped short.
    """
    v = inp.jac_t @ delta
    curvature = float(v @ v) / inp.ell
    # m is small: Python floats beat NumPy for the segment arithmetic
    b0, d0 = base.tolist(), delta.tolist()
    norm2 = sum([e * e for e in d0])
    norm = sqrt(norm2)
    # the optimum lies in [lo, hi]; d(lo) > 0 and d(hi) < 0 once evaluated,
    # with the values Illinois-weighted (None while that end is unexplored)
    lo, hi = 0.0, 1.0
    d_lo: Optional[float] = None
    d_hi: Optional[float] = None
    side = 0
    t_prev = d_prev = float("nan")
    best = None
    for used in range(1, budget + 1):
        p = _evaluate(problem, inp, np.array([b + t * e for b, e in zip(b0, d0)]))
        d = sum([g * e for g, e in zip(p.gdir.tolist(), d0)])
        stationarity = norm * abs(t - min(max(t + d / norm2, 0.0), 1.0))
        # near the optimum omega is flat to rounding, so the best iterate
        # is the one closest to stationarity
        if best is None or stationarity < best[1]:
            best = (p, stationarity)
        if stationarity <= tolerance * p.scale:
            return p, stationarity, used, None

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
                    return (*best, used, "bracket collapsed to adjacent floats")
        else:
            if isnan(t_prev):
                t_new = t + d / curvature if curvature > 0.0 else float("nan")
            elif d != d_prev:
                t_new = t - d * (t - t_prev) / (d - d_prev)
            else:
                t_new = float("nan")
            if not lo < t_new < hi:
                # the unexplored end: stationary there, or a bracket end
                t_new = hi if d > 0.0 else lo
        t_prev, d_prev, t = t, d, t_new
    return (*best, budget, "budget spent")


def _solve_pair(
    problem: MultiObjectiveProblem, inp: SubproblemInput, cfg: DualSolverConfig
) -> tuple[_Point, float, Optional[str]]:
    """Two objectives: the root search on ``lam = (t, 1 - t)`` from ``t = 1/2``."""
    p, stationarity, _, reason = _root_search(
        problem, inp, cfg.tolerance, *_PAIR_SEGMENT, 0.5, cfg.max_iterations
    )
    return p, stationarity, reason


def _solve_simplex(
    problem: MultiObjectiveProblem, inp: SubproblemInput, cfg: DualSolverConfig
) -> tuple[_Point, float, Optional[str]]:
    """Three or more objectives: confirmed active-set solves of a model.

    The model at ``lam_c`` (at first the uniform point) is the concave
    quadratic ``c . lam - lam^T Q lam / 2``, ``c = gdir(lam_c) + Q lam_c``,
    which shares the dual's gradient there; ``Q`` starts as the curvature
    ``J J^T / ell``, exact without nonsmooth terms.  An unconfirmed model
    optimum becomes ``lam_c`` if the dual has not dropped there and does
    not rise beyond it; otherwise the root search runs along the ray from
    ``lam_c`` through it to the boundary.  Either way ``Q`` then takes a
    BFGS update, unless the step shows no curvature or meets the stand-in
    for an infinite gradient.
    """
    m = problem.m
    Q = (inp.jac_y @ inp.jac_t) / inp.ell
    cur = _evaluate(problem, inp, np.full(m, 1.0 / m))
    steps = cfg.max_iterations
    while steps > 0:
        lam, used = _model_optimum(
            Q, cur.gdir + Q @ cur.lam, cur.lam, steps, cfg.tolerance * cur.scale
        )
        steps -= used
        new = _evaluate(problem, inp, lam)
        stationarity = _stationarity(new)
        if stationarity <= cfg.tolerance * new.scale:
            return new, stationarity, None
        if np.array_equal(lam, cur.lam):
            return new, stationarity, "model optimum not confirmed"
        delta = lam - cur.lam
        d_new = float(new.gdir @ delta)
        neg = delta < 0.0
        if steps > 0 and (new.omega < cur.omega or d_new > 0.0) and neg.any():
            reach = float((cur.lam[neg] / -delta[neg]).min())
            # start where the slope's secant through lam_c and the model
            # optimum vanishes; no coordinate passes zero up to the boundary
            d_cur = float(cur.gdir @ delta)
            t = d_cur / (d_cur - d_new) / reach if d_cur > d_new else 1.0
            t = min(max(t, 0.0), 1.0)
            ray = np.maximum(reach * delta, -cur.lam)
            new, _, used, _ = _root_search(
                problem, inp, cfg.tolerance, cur.lam, ray, t, steps
            )
            steps -= used
            stationarity = _stationarity(new)
            if stationarity <= cfg.tolerance * new.scale:
                return new, stationarity, None
        s, y = new.lam - cur.lam, cur.gdir - new.gdir
        Qs = Q @ s
        sQs, ys = float(s @ Qs), float(y @ s)
        if sQs > 0.0 and ys > 0.0 and np.abs(y).max() < -0.5 * _NEG_BIG:
            Q = Q - np.outer(Qs, Qs) / sQs + np.outer(y, y) / ys
        cur = new
    return cur, stationarity, "budget spent"


def _model_optimum(
    Q: Array, c: Array, lam: Array, budget: int, tolerance: float
) -> tuple[Array, int]:
    """Maximize ``c . lam - lam^T Q lam / 2`` over the simplex from ``lam``.

    A primal active-set method from the support of ``lam``.  Each step
    solves the face's KKT system, the bordered matrix
    ``[[Q_WW, 1], [1^T, 0]]``.  A face solution outside the simplex is
    approached up to the boundary, where the blocking coordinate leaves
    the face; a feasible one is the optimum unless an outside coordinate's
    model gradient beats the face multiplier (by a fraction of
    ``tolerance``), and then the largest joins.  On a singular face (as
    when ``n < m`` or rows repeat) the model is linear along a null
    vector, which the step follows uphill to the boundary.  After a step
    of length zero the smallest joining index goes first (Bland's rule).
    Returns the point and the face steps taken, at most ``budget``.
    """
    m = c.size
    sigma = float(Q.diagonal().max()) or 1.0
    # the bordered matrix of the whole simplex, with Q scaled by sigma
    # (which leaves the face solutions unchanged); a face takes its free
    # rows and columns and the border's
    K = np.ones((m + 1, m + 1))
    K[:m, :m] = Q / sigma
    K[m, m] = 0.0
    rhs = np.append(c / sigma, 1.0)
    Kq, cq = K[:m, :m], rhs[:m]
    # rounding in the model gain per unit of step length: |Q / sigma| <= 1
    noise = 1e-12 * sqrt(m) * (float(np.abs(cq).max()) + 1.0)
    # stationarity on the simplex holds within tolerance when every
    # outside coordinate is within tolerance / sqrt(m) of the multiplier
    join_tol = 0.1 * tolerance / (sigma * sqrt(m))
    lam = lam.copy()
    free = np.append(lam > 0.0, True)
    bland = False
    for used in range(1, budget + 1):
        rows = np.flatnonzero(free)
        face = rows[:-1]
        Kf = K.take(rows, 0).take(rows, 1)
        Qf = Kf[:-1, :-1]
        lam_f = lam.take(face)
        # the model gradient on the face
        r = cq.take(face) - Qf @ lam_f
        try:
            sol = np.linalg.solve(Kf, rhs.take(rows))
        except np.linalg.LinAlgError:
            sol = None
        if sol is not None:
            step = sol[:-1] - lam_f
            # the model gains a - b / 2 at the face solution; a face optimum
            # has a = b, as its gradient minus the multiplier is Q step on
            # the face, and a step that loses more than rounding is noise
            # on a singular face
            a = float((r - sol[-1]) @ step)
            b = float(step @ (Qf @ step))
            if not (isfinite(b) and b <= 2.0 * a + noise * sqrt(float(step @ step))):
                sol = None
        if sol is None:
            # singular face: a null vector, uphill, to the boundary
            step = np.linalg.svd(Kf)[2][-1, :-1]
            if r @ step < 0.0:
                step = -step
        ratios = np.divide(lam_f, -step, out=np.full(face.size, np.inf), where=step < 0)
        j = int(ratios.argmin())
        t = float(ratios[j])
        if t < 1.0 or (sol is None and t < np.inf):
            # blocked: move to the boundary; the first blocking coordinate
            # (smallest index) leaves the face
            lam[face] = np.maximum(lam_f + t * step, 0.0)
            lam[face[j]] = 0.0
            free[face[j]] = False
            bland = t == 0.0
            continue
        if sol is None:
            break
        lam[face] = np.maximum(sol[:-1], 0.0)
        gain = cq - Kq @ lam - sol[-1]
        gain[free[:m]] = -np.inf
        j = int(gain.argmax())
        if not gain[j] > join_tol:
            break
        free[int(np.flatnonzero(gain > join_tol)[0]) if bland else j] = True
        bland = False
    return lam / lam.sum(), used
