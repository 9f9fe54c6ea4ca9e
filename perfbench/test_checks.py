"""Self-test of the benchmark: each output check passes a right answer and
rejects a wrong one, and the tracer counts and then restores what it wraps.

Run from the root of a checkout (takes a few seconds):

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mopg  # noqa: E402
import mopg.solvers  # noqa: E402
from checks import check_run, objective  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import N, WORKLOADS, QuadInstance, solver_config  # noqa: E402

NAMES = sorted(WORKLOADS)


def _problem(name):
    if name == "quad-m8":
        return QuadInstance.draw().problem()
    return mopg.make_problem(name, N)


@pytest.fixture(scope="module")
def solved():
    """One converged Acc-PGM run per workload, on two starts."""
    out = {}
    for name in NAMES:
        starts = WORKLOADS[name].starts(0)
        runs = []
        for x0 in starts[:2]:
            trace = mopg.run_accpgm(_problem(name), x0, solver_config())
            assert trace.status is mopg.TerminationStatus.CONVERGED
            runs.append((x0, trace))
        out[name] = runs
    return out


def _check(name, x0, x_final, final_ell=256.0, reported=None, converged=True):
    inst = QuadInstance.draw() if name == "quad-m8" else None
    if reported is None:
        reported = objective(name, inst, x_final)
    return check_run(name, inst, x0, x_final, converged, reported, final_ell)


def _joined(errors):
    assert errors, "the check accepted a wrong answer"
    return " | ".join(errors)


@pytest.mark.parametrize("name", NAMES)
def test_solver_output_passes(solved, name):
    for x0, trace in solved[name]:
        reported = trace.records[-1].objective
        assert _check(name, x0, trace.x_final, trace.final_ell, reported) == []


GEOMETRY = {
    "jos1-l1": "Pareto set",
    "fds-nonneg": "criticality value",
    "quad-m8": "conv(a_i)",
}


@pytest.mark.parametrize("name", NAMES)
def test_start_point_in_place_of_x_final_is_rejected(solved, name):
    x0, trace = solved[name][0]
    assert GEOMETRY[name] in _joined(_check(name, x0, x0.copy(), trace.final_ell))


@pytest.mark.parametrize("name", NAMES)
def test_point_moved_off_the_solution_set_is_rejected(solved, name):
    x0, trace = solved[name][0]
    # on fds-nonneg the third gradient is below 0.4 in norm, so the
    # criticality value at ell = 1 needs a move of this size to see it
    moved = trace.x_final.copy()
    moved[::2] += 0.5
    assert GEOMETRY[name] in _joined(_check(name, x0, moved, trace.final_ell))


@pytest.mark.parametrize("name", NAMES)
def test_objective_increase_is_rejected(solved, name):
    # two solutions of the same run set are incomparable, so some objective
    # of one exceeds its value at the other
    (_, first), (_, second) = solved[name]
    errors = _check(name, first.x_final, second.x_final, second.final_ell)
    assert "exceeds F(x0)" in _joined(errors)


@pytest.mark.parametrize("name", NAMES)
def test_misreported_objective_is_rejected(solved, name):
    x0, trace = solved[name][0]
    wrong = np.asarray(trace.records[-1].objective) * (1.0 + 1e-6)
    errors = _check(name, x0, trace.x_final, trace.final_ell, reported=wrong)
    assert "reported objective" in _joined(errors)


def test_point_outside_the_orthant_is_rejected(solved):
    x0, trace = solved["fds-nonneg"][0]
    outside = trace.x_final.copy()
    outside[0] = -1e-9
    assert "not finite" in _joined(_check("fds-nonneg", x0, outside, converged=False))


def test_screen_redraws_a_rejected_start_and_nothing_else():
    wl = WORKLOADS["quad-m8"]
    lo, hi = wl.box
    plain = wl._stratified(np.random.default_rng(3), 8)
    kept = wl._stratified(np.random.default_rng(3), 8, accept=lambda x: True)
    assert all(np.array_equal(a, b) for a, b in zip(plain, kept))
    rejected = plain[1]
    screened = wl._stratified(
        np.random.default_rng(3), 8, accept=lambda x: not np.array_equal(x, rejected)
    )
    assert len(screened) == 8
    assert not any(np.array_equal(x, rejected) for x in screened)
    assert all(np.allclose(a + b, lo + hi) for a, b in zip(screened[::2], screened[1::2]))


def test_tracer_totals_and_restore():
    inst = QuadInstance.draw()
    x0 = WORKLOADS["quad-m8"].starts(0)[0]
    originals = (mopg.solvers.solve_subproblem, mopg.solvers.SubproblemInput.build)
    tracer = Tracer()
    with tracer.installed():
        trace = mopg.run_pgm(tracer.problem(inst.problem()), x0, solver_config())
    assert (mopg.solvers.solve_subproblem, mopg.solvers.SubproblemInput.build) == originals
    steps = len(trace.records)
    assert tracer.calls["problems.smooth_jacobian"] == steps
    assert tracer.calls["subproblem.solve"] == steps + trace.total_backtracks
    assert tracer.calls["subproblem.input_build"] == steps
    assert all(v >= 0.0 for v in tracer.self_s.values())
