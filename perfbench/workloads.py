"""Workload inputs of the benchmark, derived from ``--seed``.

Every workload runs PGM and Acc-PGM on ``n = 50`` with the settings of the
paper's experiments: ``epsilon = 1e-5``, ``ell_0 = 1``, backtracking factor
2, and the 10 000-iteration budget of ``mopg bench``.

The cost of a start depends on which part of the front it reaches.  On
``jos1-l1`` the dual solver needs about 6 evaluations per step when the
mean of ``x0`` is below the box centre and about 18 above it; on
``fds-nonneg`` Acc-PGM needs 2-3 times more steps when the last
coordinates of ``x0`` are large.  With 16 independent uniform starts, the
share of costly ones alone moved the summed dual evaluations on ``jos1-l1``
by up to 15 % from seed to seed.  So the starts form a stratified sample of
the box:

* they come in antithetic pairs ``(u, lo + hi - u)``, so every feature that
  is odd about the box centre is balanced within each pair;
* pair ``j`` is drawn uniform in the box conditioned on the distance of the
  mean of ``u`` from the centre falling in stratum ``j`` of ``pairs``
  equally likely strata, so pairs near the centre, where both starts of a
  pair can land on the same side, come in a fixed number.

Every start is still marginally uniform in the box.  The strata are taken in
an order drawn from the seed, and PGM runs on a prefix of the Acc-PGM
starts, pair by pair.

PGM on ``fds-nonneg`` is the exception.  A uniform start there takes
anywhere from about 400 to the cap of 10 000 iterations, at up to 3 s per
start, and with the few starts a run can afford, the seed alone moved
``pgm_solve_s`` by a third between seeds.  So its 2 starts, which lead the
Acc-PGM starts, come from a fixed stream; the other 30 Acc-PGM starts
follow ``--seed``.  The stream is chosen so that one of the two PGM starts
stops at the cap and the other converges in under 500 iterations: the
capped one measures the cost of a long run, and the other lets the
iteration count move both ways.

On ``fds-nonneg`` the dual solver of the first proximal step stalls on
some uniform starts, 1 of 3 366 tried (a fault of ``mopg``, see ``FOUND:``
in ``CHANGES.md``), and the run then ends in ``SubproblemFailure``.  The
pair of such a start is redrawn within its stratum, so no start of the
benchmark fails in its first step; on a seed where no start fails, the
starts are those drawn without the screen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

N = 50
# the quad-m8 instance is fixed; only the starts follow --seed, so that a
# seed moves the inputs and not the problem's conditioning
QUAD_M = 8
QUAD_INSTANCE_SEED = 8
# seed-independent starts; a stream that no integer --seed produces.  With
# it, PGM on fds-nonneg stops at the cap on the first start and converges
# after 478 iterations on the second.
FIXED_STARTS = (0, 6)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a problem, a start box and start counts."""

    name: str
    box: tuple[float, float]
    pgm_starts: int
    acc_starts: int
    # True: run through mopg.bench.run_experiment_detailed;
    # False: call run_pgm / run_accpgm directly (the library API)
    via_bench: bool
    # leading starts drawn from FIXED_STARTS instead of --seed
    fixed_starts: int = 0
    # redraw starts on which the first proximal step fails
    screen: bool = False

    def starts(self, seed: int) -> list[np.ndarray]:
        """The ``acc_starts`` start points of ``seed``; PGM takes a prefix."""
        accept = _first_step_succeeds(self.name) if self.screen else None
        fixed = self._stratified(
            np.random.default_rng(FIXED_STARTS), self.fixed_starts, accept
        )
        rest = self._stratified(
            np.random.default_rng(seed), self.acc_starts - self.fixed_starts, accept
        )
        return fixed + rest

    def _stratified(self, rng, count: int, accept=None) -> list[np.ndarray]:
        lo, hi = self.box
        pairs = count // 2
        # the mean of n uniforms is normal to within 1e-3 at n = 50
        scale = (hi - lo) / math.sqrt(6.0 * N)
        points: list[np.ndarray] = []
        for stratum in rng.permutation(pairs):
            while True:
                u = rng.uniform(lo, hi, N)
                level = math.erf(abs(u.mean() - 0.5 * (lo + hi)) / scale)
                if int(level * pairs) == stratum and (
                    accept is None or (accept(u) and accept(lo + hi - u))
                ):
                    break
            points += [u, lo + hi - u]
        return points

    def count(self, alg: str) -> int:
        return self.pgm_starts if alg == "pgm" else self.acc_starts


WORKLOADS = {
    "jos1-l1": Workload("jos1-l1", (-2.0, 4.0), 16, 16, True),
    # PGM's starts here do not follow --seed: see the module docstring
    "fds-nonneg": Workload(
        "fds-nonneg", (0.0, 2.0), 2, 32, True, fixed_starts=2, screen=True
    ),
    "quad-m8": Workload("quad-m8", (-2.0, 2.0), 16, 32, False),
}
ALGORITHMS = ("pgm", "acc")


@dataclass(frozen=True)
class QuadInstance:
    """``f_i(x) = s_i ||x - a_i||^2 / (2n)``, ``g_i = 0``; rows of ``centres`` are ``a_i``."""

    centres: np.ndarray
    scales: np.ndarray

    @staticmethod
    def draw() -> "QuadInstance":
        rng = np.random.default_rng(QUAD_INSTANCE_SEED)
        centres = rng.uniform(-1.0, 1.0, (QUAD_M, N))
        scales = rng.uniform(0.5, 2.0, QUAD_M)
        return QuadInstance(centres, scales)

    def problem(self):
        """The instance as a ``mopg.MultiObjectiveProblem``."""
        from mopg import MultiObjectiveProblem

        a, s = self.centres, self.scales
        zeros = np.zeros(QUAD_M)

        def values(x):
            d = x - a
            return s * np.einsum("ij,ij->i", d, d) / (2.0 * N)

        def jacobian(x):
            return s[:, None] * (x - a) / N

        return MultiObjectiveProblem(
            m=QUAD_M,
            n=N,
            smooth_values=values,
            smooth_jacobian=jacobian,
            nonsmooth_values=lambda x: zeros.copy(),
            weighted_prox=lambda w, v: np.asarray(v, dtype=float),
            lipschitz_hint=float(s.max()) / N,
        )


def _first_step_succeeds(name: str):
    """Predicate: one Acc-PGM step from ``x0`` ends without ``SubproblemFailure``."""
    import mopg

    problem = mopg.make_problem(name, N)
    cfg = replace(solver_config(), max_iterations=1)
    return lambda x0: mopg.run_accpgm(problem, x0, cfg).status.value != "SubproblemFailure"


def solver_config():
    """The paper's settings; spelled out so a changed default does not move them."""
    from mopg import SolverConfig

    return SolverConfig(
        epsilon=1e-5, ell_init=1.0, backtrack_factor=2.0, max_iterations=10000
    )
