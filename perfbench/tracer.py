"""Layer spans taken from outside the program.

The benchmark replaces, for the length of one batch, the module-level
names through which one layer of ``mopg`` calls the next, and the four
callables of the problem object.  Each replacement counts its calls and
measures its self time: its duration minus the time spent in the spans it
encloses.  Nothing under ``src/`` changes; the original names are put back
when the batch ends.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from contextlib import ExitStack, contextmanager

PROBLEM_CALLABLES = (
    "smooth_values",
    "smooth_jacobian",
    "nonsmooth_values",
    "weighted_prox",
)


@contextmanager
def replaced(owner, name: str, value):
    """Bind ``owner.name`` to ``value`` until the block exits."""
    original = vars(owner)[name]
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


class Tracer:
    """Call counts and self times (seconds) per span name."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        # trace records alive when the traced batch returned
        self.records_held = 0
        # child time accumulated by each open span, innermost last
        self._open: list[float] = []

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        open_spans = self._open

        def span(*args, **kwargs):
            open_spans.append(0.0)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - begin
                self.self_s[name] += elapsed - open_spans.pop()
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed

        return span

    def problem(self, problem):
        """``problem`` with each of its four callables wrapped in a span."""
        return dataclasses.replace(
            problem,
            **{
                name: self.wrap(f"problems.{name}", getattr(problem, name))
                for name in PROBLEM_CALLABLES
            },
        )

    @contextmanager
    def installed(self):
        """Wrap the inter-layer names of ``mopg`` for the block's duration."""
        import mopg.bench as bench
        import mopg.solvers as solvers
        import mopg.subproblem as subproblem

        make_problem = bench.make_problem
        names = [
            (bench, "make_problem", lambda *a: self.problem(make_problem(*a)), "problems.make"),
            (bench, "run_pgm", bench.run_pgm, "solvers.loop"),
            (bench, "run_accpgm", bench.run_accpgm, "solvers.loop"),
            (bench, "eval_F", bench.eval_F, "core.eval_F"),
            (solvers, "backtrack_ell", solvers.backtrack_ell, "solvers.backtrack"),
            (solvers, "solve_subproblem", solvers.solve_subproblem, "subproblem.solve"),
            (solvers, "eval_F", solvers.eval_F, "core.eval_F"),
            (subproblem, "project_simplex", subproblem.project_simplex, "subproblem.project_simplex"),
            (subproblem, "eval_F", subproblem.eval_F, "core.eval_F"),
        ]
        with ExitStack() as stack:
            for owner, attr, fn, span in names:
                stack.enter_context(replaced(owner, attr, self.wrap(span, fn)))
            build = subproblem.SubproblemInput.build
            stack.enter_context(
                replaced(
                    subproblem.SubproblemInput,
                    "build",
                    staticmethod(self.wrap("subproblem.input_build", build)),
                )
            )
            yield self
