"""Problem container and proximal primitives shared by the solvers.

A problem bundles ``m`` objectives ``F_i = f_i + g_i`` on ``R^n``: each
``f_i`` is smooth convex with Lipschitz gradient, each ``g_i`` is closed
proper convex and may take the value ``+inf`` (constraints enter as
indicator functions).  Extended-real arithmetic uses IEEE ``inf``; callables
registered here must never return NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

__all__ = [
    "Array",
    "MultiObjectiveProblem",
    "DimensionMismatchError",
    "NaNObjectiveError",
    "eval_F",
    "soft_threshold",
    "project_nonneg",
    "moreau_envelope_value",
]


class DimensionMismatchError(ValueError):
    """Raised when a point or weight vector has the wrong shape."""


class NaNObjectiveError(ValueError):
    """Raised when an objective evaluates to NaN."""


@dataclass(frozen=True)
class MultiObjectiveProblem:
    """Composite multiobjective problem ``min (f_1 + g_1, ..., f_m + g_m)``.

    Parameters
    ----------
    m : int
        Number of objectives, at least 1.
    n : int
        Ambient dimension, at least 1.
    smooth_values : callable
        ``x -> (m,)`` array of smooth parts ``f_i(x)``; must be finite.
    smooth_jacobian : callable
        ``x -> (m, n)`` array whose rows are the gradients ``grad f_i(x)``.
    nonsmooth_values : callable
        ``x -> (m,)`` array of nonsmooth parts ``g_i(x)``; entries may be
        ``+inf`` outside ``dom g_i`` but never NaN.
    weighted_prox : callable
        ``(w, v) -> argmin_z  sum_i w_i g_i(z) + 0.5 ||z - v||^2`` for
        nonnegative weights ``w``, minimized over the common domain of
        every ``g_i``: a zero-weight term drops out of the sum but its
        domain constraint remains.  With ``w = 0`` and finite ``g_i``
        this is the identity.
    lipschitz_hint : float, optional
        Known bound ``max_i L_i`` on the gradient Lipschitz constants, or
        ``None`` when unavailable.
    """

    m: int
    n: int
    smooth_values: Callable[[Array], Array]
    smooth_jacobian: Callable[[Array], Array]
    nonsmooth_values: Callable[[Array], Array]
    weighted_prox: Callable[[Array, Array], Array]
    lipschitz_hint: Optional[float] = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be at least 1, got {self.m}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.lipschitz_hint is not None and not (self.lipschitz_hint > 0):
            raise ValueError("lipschitz_hint must be positive when given")


def _check_point(problem: MultiObjectiveProblem, x: Array, name: str = "x") -> Array:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise DimensionMismatchError(
            f"{name} has shape {x.shape}, expected ({problem.n},)"
        )
    return x


def eval_F(problem: MultiObjectiveProblem, x: Array) -> Array:
    """Evaluate all objectives ``F_i(x) = f_i(x) + g_i(x)``.

    Returns an ``(m,)`` float array; entries are ``+inf`` where ``x`` lies
    outside ``dom g_i``.  Raises ``NaNObjectiveError`` on a NaN entry.
    """
    x = _check_point(problem, x)
    values = np.asarray(problem.smooth_values(x), dtype=float) + np.asarray(
        problem.nonsmooth_values(x), dtype=float
    )
    if np.isnan(values).any():
        raise NaNObjectiveError("objective evaluation produced NaN")
    return values


def soft_threshold(x, tau):
    """Shrink ``x`` toward zero by ``tau >= 0``: the prox of ``tau * |.|``.

    Componentwise on arrays: ``x - tau`` where ``x >= tau``, ``x + tau``
    where ``x <= -tau``, else ``0``.
    """
    x = np.asarray(x, dtype=float)
    out = np.where(x >= tau, x - tau, np.where(x <= -tau, x + tau, 0.0))
    if out.ndim == 0:
        return float(out)
    return out


def project_nonneg(v: Array) -> Array:
    """Project onto the nonnegative orthant: componentwise ``max(v, 0)``."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def moreau_envelope_value(
    problem: MultiObjectiveProblem, weights: Array, v: Array
) -> float:
    """Value of the weighted-sum envelope ``min_z sum w_i g_i(z) + 0.5||z-v||^2``.

    The minimum runs over the common domain of every ``g_i``; the
    minimizer is ``weighted_prox(weights, v)`` and zero-weight terms
    contribute nothing to the sum.
    """
    v = _check_point(problem, v, "v")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (problem.m,):
        raise DimensionMismatchError(
            f"weights has shape {weights.shape}, expected ({problem.m},)"
        )
    if (weights < 0).any():
        raise ValueError("weights must be nonnegative")
    z = problem.weighted_prox(weights, v)
    gz = np.asarray(problem.nonsmooth_values(z), dtype=float)
    active = weights > 0
    if np.isinf(gz[active]).any():
        return float("inf")
    diff = z - v
    return float(weights[active] @ gz[active] + 0.5 * (diff @ diff))
