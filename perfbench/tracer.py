"""Spans and counts recorded from outside the program.

The tracer replaces public functions of collisionlab at the names their
callers look up at call time (module globals, imported names, class
attributes) with wrappers that record one span per call: name, start,
end, parent span and job id.  Spans stay in memory until the run ends.
Counts are read from the arguments and return values at the same
boundaries, so they do not depend on the clock.

A layer's self time is the time its spans were busy minus the busy time
of their direct child spans.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


def _chain_points(report) -> dict:
    return {
        "degreebound.points": len(report.points),
        "degreebound.exact_points": sum(1 for row in report.points if row.exact),
    }


class Tracer:
    """Wraps collisionlab's layer entry points while installed.

    With timing off the wrappers only count; no clock is read and no span
    is kept.  Set `job` before each job so spans and counts are grouped.
    """

    def __init__(self, timing: bool = True):
        self.timing = timing
        self.job = None
        # (name, start, end, parent, job, busy); busy differs from
        # end - start only for generator spans, which are busy only
        # inside next().
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------------

    def _count(self, values: dict):
        per_job = self.counts[self.job]
        for name, k in values.items():
            per_job[name] += k

    def wrap(self, fn, name: str, count=None):
        """Wrapper recording a span named `name` around each call of fn;
        count(args, result) returns counts to add for the call."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.timing:
                result = fn(*args, **kwargs)
            else:
                sid = len(tracer.spans)
                tracer.spans.append(None)
                parent = tracer._stack[-1] if tracer._stack else None
                tracer._stack.append(sid)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    tracer._stack.pop()
                    tracer.spans[sid] = (name, start, end, parent, tracer.job, end - start)
            if count is not None:
                tracer._count(count(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name: str, count_name: str):
        """Wrapper for a generator function: one span per generator, busy
        only while the caller waits in next(); counts the items yielded."""
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            return tracer._iterate(fn(*args, **kwargs), name, count_name, parent)

        traced.__wrapped__ = fn
        return traced

    def _iterate(self, gen, name, count_name, parent):
        job = self.job
        sid = None
        if self.timing:
            sid = len(self.spans)
            self.spans.append(None)
        start = perf_counter()
        busy = 0.0
        items = 0
        try:
            while True:
                t = perf_counter() if self.timing else 0.0
                try:
                    item = next(gen)
                except StopIteration:
                    break
                finally:
                    if self.timing:
                        busy += perf_counter() - t
                items += 1
                yield item
        finally:
            self.counts[job][count_name] += items
            if sid is not None:
                self.spans[sid] = (name, start, perf_counter(), parent, job, busy)

    # -- installation ------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, count=None, generator_count=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        static = isinstance(original, staticmethod)
        fn = original.__func__ if static else original
        if generator_count is not None:
            wrapper = self.wrap_generator(fn, name, generator_count)
        else:
            wrapper = self.wrap(fn, name, count)
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        """Wrap the entry points of every layer the workloads exercise."""
        from collisionlab import (
            circuits,
            cli,
            degreebound,
            lattice,
            multilinear,
            polymethod,
            setcomp_poly,
            simulator,
        )

        p = self.patch
        Layer = simulator.Layer
        p(Layer, "is_orthogonal", "simulator.is_orthogonal", count=lambda a, r: {
            "simulator.is_orthogonal_calls": 1,
            "simulator.layer_nnz": sum(len(col) for col in a[0].cols),
        })
        p(Layer, "compose", "simulator.compose")
        p(simulator.QueryAlgorithm, "load", "simulator.load")
        p(simulator, "apply_unitary", "simulator.apply_unitary", count=lambda a, r: {
            "simulator.apply_unitary_calls": 1,
            "simulator.amplitudes_in": len(a[0].entries),
        })
        p(simulator, "apply_standard_query", "simulator.query")
        p(simulator, "apply_erasing_query", "simulator.query")
        for module in (simulator, polymethod):
            p(module, "acceptance_probability", "simulator.acceptance_probability")

        for builder in ("coincidence_probe", "two_query_mixer", "setcomp_probe"):
            p(circuits, builder, "circuits.build")

        extract_terms = lambda a, r: {"polymethod.extract_terms": len(r.terms)}
        q_terms = lambda a, r: {"lattice.q_terms": len(r.coeffs)}
        samples = lambda a, r: {"instances.samples": 1}
        for module in (polymethod, degreebound, cli):
            p(module, "extract_polynomial", "polymethod.extract", count=extract_terms)
        for module in (degreebound, cli):
            p(module, "assemble_q", "polymethod.assemble_q", count=q_terms)
        p(degreebound, "assemble_q3", "setcomp_poly.assemble_q3", count=q_terms)
        p(degreebound, "expected_acceptance_mc", "polymethod.mc")
        p(degreebound, "expected_acceptance3_mc", "setcomp_poly.mc")
        p(polymethod, "sample_collision_input", "instances.sample", count=samples)
        p(setcomp_poly, "sample_setcomp_input", "instances.sample", count=samples)
        p(polymethod, "enumerate_collision_supports", "instances.enumerate",
          generator_count="instances.latent_draws")
        p(cli, "gamma_bruteforce_sweep", "polymethod.gamma_sweep")
        p(cli, "gamma_closed", "polymethod.gamma_closed")

        p(multilinear.MultilinearPoly, "square", "multilinear.square")
        p(multilinear.MultilinearPoly, "evaluate", "multilinear.evaluate")
        p(lattice.LatticePoly, "__mul__", "lattice.mul")

        p(degreebound, "weighted_max_derivative", "degreebound.max_derivative")
        p(cli, "verify_inequality_chain", "degreebound.chain",
          count=lambda a, r: _chain_points(r))
        p(cli, "emit_report", "reports.emit")
        p(cli, "main", "cli.main")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def self_times(self) -> dict:
        """{job: {span name: self time in s}}."""
        child_busy = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                child_busy[span[3]] += span[5]
        out: dict = defaultdict(lambda: defaultdict(float))
        for sid, (name, _start, _end, _parent, job, busy) in enumerate(self.spans):
            out[job][name] += busy - child_busy[sid]
        return out

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, job, busy) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "job": job, "busy": busy,
                }) + "\n")
