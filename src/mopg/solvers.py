"""Outer solver loops: the proximal gradient method and its accelerated variant.

Both methods repeat: solve one subproblem at the current anchor and
extrapolation points (identical for the plain method), test the
infinity-norm residual ``||z - y||_inf`` against ``epsilon``, and step.
The proximal parameter ``ell`` starts at ``ell_init`` and is doubled by
backtracking until the per-objective surrogate descent inequality
``F_i(z) - F_i(x) <= theta`` holds; the accepted value carries over to
later iterations and never shrinks.

The accelerated variant extrapolates ``y = x_k + gamma_k (x_k - x_{k-1})``
with the step coefficients produced by ``momentum_next``; the resulting
objective values are not monotone step to step but never exceed the
values at the starting point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import Array, MultiObjectiveProblem, NaNObjectiveError, eval_F
from .subproblem import (
    DualSolverConfig,
    SubproblemError,
    SubproblemInput,
    SubproblemSolution,
    solve_subproblem,
)

__all__ = [
    "SolverConfig",
    "MomentumSchedule",
    "momentum_next",
    "TerminationStatus",
    "IterationRecord",
    "IterationTrace",
    "BacktrackDivergedError",
    "backtrack_ell",
    "run_pgm",
    "run_accpgm",
]

_MAX_BACKTRACKS = 60


class BacktrackDivergedError(RuntimeError):
    """More than 60 per-step doublings of ``ell``: the surrogate descent
    condition never held, indicating a non-Lipschitz gradient or a broken
    problem registration."""


class TerminationStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    SUBPROBLEM_FAILURE = "SubproblemFailure"


@dataclass(frozen=True)
class SolverConfig:
    """Outer-loop settings shared by both methods.

    ``backtracking=False`` pins ``ell`` at ``ell_init`` for the whole run
    (useful when a Lipschitz bound is known exactly, and for rate
    studies); ``keep_points`` stores the iterate and extrapolation point
    on every trace record.
    """

    epsilon: float = 1e-5
    ell_init: float = 1.0
    backtrack_factor: float = 2.0
    max_iterations: int = 10000
    dual: DualSolverConfig = field(default_factory=DualSolverConfig)
    backtrack_slack: float = 1e-12
    backtracking: bool = True
    keep_points: bool = False

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.ell_init > 0:
            raise ValueError("ell_init must be positive")
        if not self.backtrack_factor > 1:
            raise ValueError("backtrack_factor must exceed 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.backtrack_slack < 0:
            raise ValueError("backtrack_slack must be nonnegative")


@dataclass(frozen=True)
class MomentumSchedule:
    """Extrapolation state ``(t_k, k)``, started at ``t_1 = 1``.

    The sequence satisfies ``t_k >= (k+1)/2`` and the exact recurrence
    ``t_k^2 - t_{k+1}^2 + t_{k+1} = 0``.
    """

    t: float = 1.0
    k: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.t + 1e-6 * max(1.0, self.t) < 0.5 * (self.k + 1):
            raise ValueError("t must be at least (k+1)/2")


def momentum_next(sched: MomentumSchedule) -> tuple[MomentumSchedule, float]:
    """Advance the schedule one step and return the extrapolation factor.

    ``t_{k+1} = sqrt(t_k^2 + 1/4) + 1/2`` and
    ``gamma_k = (t_k - 1) / t_{k+1}``; the first factor is always 0.
    """
    t_next = math.sqrt(sched.t * sched.t + 0.25) + 0.5
    gamma = (sched.t - 1.0) / t_next
    return MomentumSchedule(t=t_next, k=sched.k + 1), gamma


@dataclass(frozen=True)
class IterationRecord:
    """One outer iteration: the accepted subproblem solve ``k``.

    ``objective`` is ``F`` at the point this solve produced, ``lam`` the
    dual weights, ``backtracks`` the number of ``ell`` doublings spent in
    this step.  ``point`` and ``extrapolation`` are populated only under
    ``SolverConfig.keep_points``.
    """

    k: int
    objective: Array
    residual_inf: float
    ell: float
    theta: float
    backtracks: int
    lam: Array
    point: Optional[Array] = None
    extrapolation: Optional[Array] = None


@dataclass(frozen=True)
class IterationTrace:
    """Full run history plus terminal status and final point.

    On ``CONVERGED`` the last record is the solve whose residual fell
    below ``epsilon``; the update count excludes it.  ``x_final`` is the
    point produced by the last successful solve.  On
    ``SUBPROBLEM_FAILURE``, ``failure`` names the error that stopped the
    run and carries its message.
    """

    records: tuple[IterationRecord, ...]
    status: TerminationStatus
    x_final: Array
    failure: Optional[str] = None

    @property
    def iterations(self) -> int:
        """Number of accepted updates (the benchmark iteration count)."""
        if self.status is TerminationStatus.CONVERGED:
            return len(self.records) - 1
        return len(self.records)

    @property
    def total_backtracks(self) -> int:
        return sum(r.backtracks for r in self.records)

    @property
    def final_ell(self) -> float:
        if not self.records:
            return float("nan")
        return self.records[-1].ell

    @property
    def final_residual(self) -> float:
        if not self.records:
            return float("nan")
        return self.records[-1].residual_inf


def backtrack_ell(
    problem: MultiObjectiveProblem,
    x_anchor: Array,
    y: Array,
    ell_in: float,
    cfg: Optional[SolverConfig] = None,
    F_x: Optional[Array] = None,
) -> tuple[float, SubproblemSolution, int]:
    """Solve the subproblem, doubling ``ell`` until descent is certified.

    Accepts the first ``ell`` whose solution satisfies
    ``max_i (F_i(z) - F_i(x_anchor)) <= max_i psi_i(z)`` up to the
    relative slack ``backtrack_slack * (1 + |max psi|)`` — the
    descent-lemma inequality at the proximal point, which any ``ell`` at
    or above the gradient Lipschitz constant passes.  The right-hand side
    is the per-objective model value at ``z`` rather than the dual value
    ``theta``: the two differ by the dual solver's residual duality gap,
    and measuring primal against dual would make near-stationary
    iterations fail the test at every ``ell``.  Returns the accepted
    ``ell``, its solution and the number of doublings; the solution
    carries the ``F(z_star)`` of the test in ``F_z``.  A caller that holds
    ``F(x_anchor)`` passes it as ``F_x``.

    Raises
    ------
    BacktrackDivergedError
        After more than 60 doublings.
    """
    if cfg is None:
        cfg = SolverConfig()
    inp = SubproblemInput.build(problem, x_anchor, y, ell_in, F_x)
    ell = float(ell_in)
    backtracks = 0
    while True:
        sol = solve_subproblem(problem, inp, cfg.dual)
        F_z = eval_F(problem, sol.z_star)
        gap = float((F_z - inp.F_x).max())
        model = float(np.max(sol.psi))
        if gap <= model + cfg.backtrack_slack * (1.0 + abs(model)):
            return ell, replace(sol, F_z=F_z), backtracks
        backtracks += 1
        if backtracks > _MAX_BACKTRACKS:
            raise BacktrackDivergedError(
                f"descent condition still failing after {_MAX_BACKTRACKS} "
                f"doublings (ell = {ell:.3e})"
            )
        ell *= cfg.backtrack_factor
        inp = inp.with_ell(ell)


# the errors that end a run as SUBPROBLEM_FAILURE
_STEP_ERRORS = (SubproblemError, BacktrackDivergedError, NaNObjectiveError)


def _accepted_step(
    problem: MultiObjectiveProblem,
    x_anchor: Array,
    y: Array,
    ell: float,
    F_x: Array,
    cfg: SolverConfig,
) -> tuple[float, SubproblemSolution, int]:
    """One accepted solve; its solution carries ``F(z_star)`` in ``F_z``."""
    if cfg.backtracking:
        return backtrack_ell(problem, x_anchor, y, ell, cfg, F_x)
    inp = SubproblemInput.build(problem, x_anchor, y, ell, F_x)
    sol = solve_subproblem(problem, inp, cfg.dual)
    return ell, replace(sol, F_z=eval_F(problem, sol.z_star)), 0


def _start_point(problem: MultiObjectiveProblem, x0: Array) -> tuple[Array, Array]:
    x = np.array(x0, dtype=float, copy=True)
    F_x = eval_F(problem, x)
    if not np.isfinite(F_x).all():
        raise ValueError("x0 lies outside dom F")
    return x, F_x


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_pgm(
    problem: MultiObjectiveProblem,
    x0: Array,
    cfg: Optional[SolverConfig] = None,
) -> IterationTrace:
    """Plain proximal gradient method from ``x0``.

    Each iteration solves the subproblem anchored and centered at the
    current point and steps to its minimizer; stops when
    ``||z - x||_inf < epsilon``.  Objective values decrease monotonically
    in every component.
    """
    if cfg is None:
        cfg = SolverConfig()
    x, F_x = _start_point(problem, x0)
    ell = cfg.ell_init
    records: list[IterationRecord] = []
    status = TerminationStatus.MAX_ITERATIONS
    failure = None
    for k in range(1, cfg.max_iterations + 1):
        try:
            ell, sol, nbt = _accepted_step(problem, x, x, ell, F_x, cfg)
        except _STEP_ERRORS as exc:
            status = TerminationStatus.SUBPROBLEM_FAILURE
            failure = _failure(exc)
            break
        x, F_x = sol.z_star, sol.F_z
        records.append(
            IterationRecord(
                k=k,
                objective=F_x,
                residual_inf=sol.residual_inf,
                ell=ell,
                theta=sol.theta,
                backtracks=nbt,
                lam=sol.lambda_star,
                point=x if cfg.keep_points else None,
            )
        )
        if sol.residual_inf < cfg.epsilon:
            status = TerminationStatus.CONVERGED
            break
    return IterationTrace(
        records=tuple(records), status=status, x_final=x, failure=failure
    )


def run_accpgm(
    problem: MultiObjectiveProblem,
    x0: Array,
    cfg: Optional[SolverConfig] = None,
) -> IterationTrace:
    """Accelerated proximal gradient method from ``x0``.

    Iteration ``k`` solves the subproblem anchored at ``x_{k-1}`` and
    centered at the extrapolation ``y_k`` (with ``y_1 = x0``), stops when
    ``||z - y_k||_inf < epsilon``, and otherwise sets
    ``x_k = z`` and ``y_{k+1} = x_k + gamma_k (x_k - x_{k-1})``.
    """
    if cfg is None:
        cfg = SolverConfig()
    x_prev, F_x = _start_point(problem, x0)
    y = x_prev
    sched = MomentumSchedule()
    ell = cfg.ell_init
    records: list[IterationRecord] = []
    status = TerminationStatus.MAX_ITERATIONS
    failure = None
    for k in range(1, cfg.max_iterations + 1):
        try:
            ell, sol, nbt = _accepted_step(problem, x_prev, y, ell, F_x, cfg)
        except _STEP_ERRORS as exc:
            status = TerminationStatus.SUBPROBLEM_FAILURE
            failure = _failure(exc)
            break
        F_x = sol.F_z
        records.append(
            IterationRecord(
                k=k,
                objective=F_x,
                residual_inf=sol.residual_inf,
                ell=ell,
                theta=sol.theta,
                backtracks=nbt,
                lam=sol.lambda_star,
                point=sol.z_star if cfg.keep_points else None,
                extrapolation=y if cfg.keep_points else None,
            )
        )
        if sol.residual_inf < cfg.epsilon:
            status = TerminationStatus.CONVERGED
            x_prev = sol.z_star
            break
        sched, gamma = momentum_next(sched)
        y = sol.z_star + gamma * (sol.z_star - x_prev)
        x_prev = sol.z_star
    return IterationTrace(
        records=tuple(records), status=status, x_final=x_prev, failure=failure
    )
