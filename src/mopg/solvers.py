"""Outer solver loop: the proximal gradient method and its accelerated variant.

One loop serves both methods, since the plain method is the accelerated
one with every extrapolation factor zero.  Each iteration solves one
subproblem anchored at the current point ``x`` and centered at ``y``,
tests the infinity-norm residual ``||z - y||_inf`` against ``epsilon``,
and steps to ``z``.  The proximal parameter ``ell`` starts at
``ell_init`` and is doubled by ``backtrack_ell`` until the per-objective
surrogate descent inequality holds at a ``z`` inside ``dom F``; the
accepted value carries over to later iterations and never shrinks.

The plain method keeps ``y = x``.  The accelerated one extrapolates
``y = x_k + gamma_k (x_k - x_{k-1})`` with the factors produced by
``momentum_next``; its objective values are not monotone step to step
but never exceed the values at the starting point.
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
    NonFiniteValueError,
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
# relative slack of the descent test in backtrack_ell
_BACKTRACK_SLACK = 1e-12


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
    studies): ``backtrack_ell`` then accepts its first solve unless the
    solve leaves ``dom F``.  ``keep_points`` stores the iterate, and for
    the accelerated method the extrapolation point, on every trace
    record.
    """

    epsilon: float = 1e-5
    ell_init: float = 1.0
    backtrack_factor: float = 2.0
    max_iterations: int = 10000
    dual: DualSolverConfig = field(default_factory=DualSolverConfig)
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
    relative slack ``1e-12 * (1 + |max psi|)`` — the descent-lemma
    inequality at the proximal point, which any ``ell`` at or above the
    gradient Lipschitz constant passes.  The right-hand side is the
    per-objective model value at ``z`` rather than the dual value
    ``theta``: the two differ by the dual solver's residual duality gap,
    and measuring primal against dual would make near-stationary
    iterations fail the test at every ``ell``.  A ``z`` outside
    ``dom F`` never passes.  With ``cfg.backtracking`` off, the first
    solve is accepted as long as ``z`` lies in ``dom F``.  Returns the
    accepted ``ell``, its solution and the number of doublings; the
    solution carries the ``F(z_star)`` of the test in ``F_z``.  A caller
    that holds ``F(x_anchor)`` passes it as ``F_x``.

    Raises
    ------
    BacktrackDivergedError
        After more than 60 doublings.
    NonFiniteValueError
        With ``cfg.backtracking`` off, when ``z`` lies outside ``dom F``.
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
        if math.isfinite(gap) and (
            not cfg.backtracking
            or gap <= model + _BACKTRACK_SLACK * (1.0 + abs(model))
        ):
            return ell, replace(sol, F_z=F_z), backtracks
        if not cfg.backtracking:
            raise NonFiniteValueError(
                f"proximal point leaves dom F (ell = {ell:.3e})"
            )
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
    return _run(problem, x0, cfg, accelerated=False)


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
    return _run(problem, x0, cfg, accelerated=True)


def _run(
    problem: MultiObjectiveProblem,
    x0: Array,
    cfg: Optional[SolverConfig],
    accelerated: bool,
) -> IterationTrace:
    """The outer loop of both methods; the plain one keeps ``y = x``."""
    if cfg is None:
        cfg = SolverConfig()
    x = np.array(x0, dtype=float)
    # an x0 outside dom F makes the first SubproblemInput raise ValueError
    F_x = eval_F(problem, x)
    y = x
    sched = MomentumSchedule()
    ell = cfg.ell_init
    records: list[IterationRecord] = []
    status = TerminationStatus.MAX_ITERATIONS
    failure = None
    for k in range(1, cfg.max_iterations + 1):
        try:
            ell, sol, nbt = backtrack_ell(problem, x, y, ell, cfg, F_x)
        except _STEP_ERRORS as exc:
            status = TerminationStatus.SUBPROBLEM_FAILURE
            failure = f"{type(exc).__name__}: {exc}"
            break
        x_prev, x, F_x = x, sol.z_star, sol.F_z
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
                extrapolation=y if accelerated and cfg.keep_points else None,
            )
        )
        if sol.residual_inf < cfg.epsilon:
            status = TerminationStatus.CONVERGED
            break
        if accelerated:
            sched, gamma = momentum_next(sched)
            y = x + gamma * (x - x_prev)
        else:
            y = x
    return IterationTrace(
        records=tuple(records), status=status, x_final=x, failure=failure
    )
