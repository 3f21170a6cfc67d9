"""Span tracing of tailchain's layer entry points, installed from outside `src/`.

`Tracer.install()` replaces each entry point listed in `_function_table()`
and `_method_table()` with a wrapper that records one span per call:
(id, name, start_ns, end_ns, parent id, op id, rows, aux, error).  Module
functions are replaced in every tailchain module that imported them by
name, because that is where the program looks them up; methods are replaced
on their class.  `uninstall()` restores the originals.  Spans stay in memory
until `write()`; `layer_metrics()` turns them into the per-layer metrics.

A span's self time is its duration minus the durations of its child spans
(children run on the same thread, so they never overlap).  Worker threads of
`simulate_conditioned_chain(threads>1)` start spans without a parent, so the
caller's self time there includes waiting for the pool.
"""
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _n(x):
    return int(np.size(x))


def _bind(fn):
    sig = inspect.signature(fn)

    def bound(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments
    return bound


# module, function, span name, rows(args, kwargs, result), aux(args, kwargs, result)
def _function_table():
    from tailchain import cli, kernels, mc_lab, mvnorm, recurrence, tail_chain, transforms
    mvn_args = _bind(mvnorm.mvn_logcdf)

    def mvn_rows(a, kw, out):
        return _n(out[0])

    def mvn_lattice(a, kw, out):
        p = mvn_args(a, kw)
        return _n(out[0]) * int(p["points"]) * int(p["shifts"])

    def csv_rows(a, kw, out):
        return len(a[2]) if hasattr(a[2], "__len__") else 0

    def csv_bytes(a, kw, out):
        return os.path.getsize(a[0])

    table = [(transforms, f, f"transforms.{f}", lambda a, kw, out: _n(out), None)
             for f in ("exp_to_frechet", "log_exp_to_frechet", "frechet_to_exp",
                       "exp_to_uniform", "uniform_to_exp", "exp_to_gauss", "gauss_to_exp")]
    table += [
        (mvnorm, "mvn_logcdf", "mvnorm.mvn_logcdf", mvn_rows, mvn_lattice),
        (mvnorm, "mvn_cdf", "mvnorm.mvn_cdf", mvn_rows, None),
        (kernels, "_invert_slice", "kernels.invert", lambda a, kw, out: _n(out), None),
        (kernels, "kernel_cdf", "kernels.kernel_cdf", lambda a, kw, out: _n(out), None),
        (kernels, "kernel_quantile", "kernels.kernel_quantile", lambda a, kw, out: _n(out), None),
        (kernels, "kernel_sample", "kernels.kernel_sample", lambda a, kw, out: _n(out), None),
        (kernels, "sample_initial_conditioned", "kernels.sample_initial", None, None),
        (kernels, "_simulate_chunk", "kernels.simulate_chunk", None, None),
        (kernels, "simulate_conditioned_chain", "kernels.simulate_conditioned_chain",
         lambda a, kw, out: out.data.size, None),
        (tail_chain, "simulate_hidden_tail_chain", "tail_chain.hidden",
         lambda a, kw, out: out.data.size, None),
        (tail_chain, "simulate_regime_tail_chain", "tail_chain.regime",
         lambda a, kw, out: int(np.isfinite(out.data).sum()), None),
        (recurrence, "solve_closed_form", "recurrence.solve", None, None),
        (recurrence, "solve_delta_zero", "recurrence.solve", None, None),
        (recurrence, "solve_delta_inf", "recurrence.solve", None, None),
        (recurrence, "iterate_alpha", "recurrence.iterate", None, None),
        (recurrence, "beta_sequence", "recurrence.beta_sequence", None, None),
        (recurrence, "gaussian_yule_walker", "recurrence.yule_walker", None, None),
        (mc_lab, "renormalize", "mc_lab.renormalize", None, None),
        (mc_lab, "ks_distance", "mc_lab.ks_distance", None, None),
        (mc_lab, "quantile_bands", "mc_lab.quantile_bands", None, None),
        (mc_lab, "convergence_diagnostic", "mc_lab.report", None, None),
        (mc_lab, "kernel_limit_gap", "mc_lab.kernel_limit_gap", None, None),
        (cli, "main", "cli.main", None, None),
        (cli, "_write_csv", "cli.write_csv", csv_rows, csv_bytes),
        (cli, "_write_paths_csv", "cli.write_paths", None, None),
        (cli, "_write_bands_csv", "cli.write_bands", None, None),
    ]
    return table


# class, method, span name, rows, aux, wrap the returned evaluator as this span
def _method_table():
    from tailchain import kernels, measures, mvnorm, recurrence, tail_chain

    def cache_rows(a, kw, out):
        c = a[0]
        return 0 if c.log_head is None else c.log_head.shape[0]

    def cache_bytes(a, kw, out):
        c = a[0]
        return 0 if c.log_head is None else c.log_head.nbytes + c.mean_last.nbytes

    def logcdf_lattice(a, kw, out):
        c = a[0]
        return 0 if c.log_head is None else _n(out) * c.n_points

    rows_out = lambda a, kw, out: _n(out)  # noqa: E731
    table = []
    for cls in (measures.ExponentMeasure, measures.HuslerReissMeasure):
        table += [(cls, "partial_tail_evaluator", "measures.partial_build", None, None,
                   "measures.partial"),
                  (cls, "value_tail_evaluator", "measures.value_build", None, None,
                   "measures.value")]
    table += [
        (measures.ExponentMeasure, "value", "measures.value", rows_out, None, None),
        (measures.ExponentMeasure, "partial", "measures.partial", rows_out, None, None),
        (mvnorm.GenzTailCache, "__init__", "mvnorm.tail_cache_build", cache_rows,
         cache_bytes, None),
        (mvnorm.GenzTailCache, "logcdf", "mvnorm.tail_cache_logcdf", rows_out,
         logcdf_lattice, None),
        (recurrence.RecurrenceSolution, "evaluate", "recurrence.evaluate", None, None, None),
        (tail_chain.RegimeSwitchingTailChain, "body_quantile", "tail_chain.body_quantile",
         rows_out, None, None),
        (tail_chain.RegimeSwitchingTailChain, "body_cdf", "tail_chain.body_cdf",
         rows_out, None, None),
    ]
    for cls in (kernels._MaxStableSlice, kernels._InvertedSlice, kernels._GaussianSlice):
        table += [(cls, "__init__", "kernels.slice_build",
                   lambda a, kw, out: a[0].n if hasattr(a[0], "n") else len(a[0].mean),
                   None, None),
                  (cls, "cdf", "kernels.cdf", rows_out, None, None)]
    table.append((kernels._GaussianSlice, "quantile", "kernels.quantile", rows_out, None, None))
    return table


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.active = False    # spans are recorded only while an op's call runs
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, rows=None, aux=None, returns=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                t1 = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer.op, 0, 0,
                                     type(exc).__name__))
                raise
            t1 = time.perf_counter_ns()
            stack.pop()
            n = rows(args, kwargs, out) if rows else 0
            x = aux(args, kwargs, out) if aux else 0
            tracer.spans.append((sid, name, t0, t1, parent, tracer.op, n, x, None))
            if returns and not hasattr(out, "__traced__"):
                out = tracer.wrap(out, returns, rows=lambda a, kw, o: _n(a[0]))
            return out

        traced.__traced__ = True
        return traced

    def install(self):
        mods = [m for k, m in list(sys.modules.items())
                if k == "tailchain" or k.startswith("tailchain.")]
        for owner, attr, name, rows, aux in _function_table():
            orig = getattr(owner, attr)
            traced = self.wrap(orig, name, rows, aux)
            for m in mods:
                if getattr(m, attr, None) is orig:
                    setattr(m, attr, traced)
                    self._undo.append((m, attr, orig))
        for cls, attr, name, rows, aux, returns in _method_table():
            orig = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(orig, name, rows, aux, returns))
            self._undo.append((cls, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "name", "start_ns", "end_ns", "parent", "op",
                                 "rows", "aux", "error"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Agg:
    __slots__ = ("calls", "total", "self", "rows", "aux", "errors")

    def __init__(self):
        self.calls = self.total = self.self = self.rows = self.aux = 0
        self.errors = defaultdict(int)


def _aggregate(spans):
    """Per-name totals; calls, durations, rows and aux count outermost spans only,
    so a function that re-enters itself is counted once per outer call."""
    name_of = {s[0]: s[1] for s in spans}
    child_ns = defaultdict(int)
    for s in spans:
        if s[4] is not None:
            child_ns[s[4]] += s[3] - s[2]
    agg = defaultdict(_Agg)
    for sid, name, t0, t1, parent, _op, rows, aux, err in spans:
        a = agg[name]
        a.self += t1 - t0 - child_ns[sid]
        if parent is not None and name_of.get(parent) == name:
            continue
        a.calls += 1
        a.total += t1 - t0
        a.rows += rows
        a.aux += aux
        if err:
            a.errors[err] += 1
    return agg, name_of


def layer_metrics(spans, rounds, overhead_s):
    """Per-layer metrics per traced round: {name: (value, unit)}."""
    agg, name_of = _aggregate(spans)
    zero = _Agg()

    def a(name):
        return agg.get(name, zero)

    def per(x):
        return x / rounds

    def sec(ns):
        return ns / 1e9 / rounds

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def layer_sum(prefix, field):
        return sum(getattr(v, field) for k, v in agg.items() if k.startswith(prefix))

    # CDF rows and calls made from inside an inversion (its direct children)
    inv_cdf_calls = inv_cdf_rows = 0
    for s in spans:
        if s[1] == "kernels.cdf" and s[4] is not None and name_of.get(s[4]) == "kernels.invert":
            inv_cdf_calls += 1
            inv_cdf_rows += s[6]
    inv = a("kernels.invert")
    draws = inv.rows + a("kernels.quantile").rows
    errors = defaultdict(int)
    for k, v in agg.items():
        if k.startswith("kernels."):
            for e, c in v.errors.items():
                errors[e] += c
    # writer time: outermost CSV-writer spans, row formatting included
    writers = ("cli.write_paths", "cli.write_bands", "cli.write_csv")
    write_ns = sum(s[3] - s[2] for s in spans
                   if s[1] in writers and name_of.get(s[4]) not in writers)
    csv = a("cli.write_csv")
    m = {
        "transforms.calls": (per(layer_sum("transforms.", "calls")), "count"),
        "transforms.self_s": (sec(layer_sum("transforms.", "self")), "s"),
        "measures.partial_calls": (per(a("measures.partial").calls), "count"),
        "measures.partial_rows": (per(a("measures.partial").rows), "count"),
        "measures.partial_self_s": (sec(a("measures.partial").self), "s"),
        "measures.partial_ns_per_row": (ratio(a("measures.partial").self,
                                              a("measures.partial").rows), "ns"),
        "measures.value_self_s": (sec(a("measures.value").self), "s"),
        "measures.evaluator_build_s": (sec(a("measures.partial_build").total
                                           + a("measures.value_build").total), "s"),
        "mvnorm.tail_cache_builds": (per(a("mvnorm.tail_cache_build").calls), "count"),
        "mvnorm.tail_cache_build_self_s": (sec(a("mvnorm.tail_cache_build").self), "s"),
        "mvnorm.tail_cache_bytes": (per(a("mvnorm.tail_cache_build").aux), "B"),
        "mvnorm.logcdf_calls": (per(a("mvnorm.tail_cache_logcdf").calls), "count"),
        "mvnorm.logcdf_self_s": (sec(a("mvnorm.tail_cache_logcdf").self), "s"),
        "mvnorm.lattice_evals": (per(a("mvnorm.tail_cache_logcdf").aux
                                     + a("mvnorm.mvn_logcdf").aux), "count"),
        "mvnorm.ns_per_lattice_eval": (ratio(a("mvnorm.tail_cache_logcdf").self
                                             + a("mvnorm.mvn_logcdf").self,
                                             a("mvnorm.tail_cache_logcdf").aux
                                             + a("mvnorm.mvn_logcdf").aux), "ns"),
        "mvnorm.mvn_logcdf_calls": (per(a("mvnorm.mvn_logcdf").calls), "count"),
        "mvnorm.mvn_logcdf_self_s": (sec(a("mvnorm.mvn_logcdf").self), "s"),
        "kernels.slice_builds": (per(a("kernels.slice_build").calls), "count"),
        "kernels.slice_build_self_s": (sec(a("kernels.slice_build").self), "s"),
        "kernels.cdf_calls": (per(a("kernels.cdf").calls), "count"),
        "kernels.cdf_rows": (per(a("kernels.cdf").rows), "count"),
        "kernels.cdf_self_s": (sec(a("kernels.cdf").self), "s"),
        "kernels.draws": (per(draws), "count"),
        "kernels.cdf_evals_per_draw": (ratio(inv_cdf_rows, inv.rows), "count"),
        "kernels.cdf_calls_per_inversion": (ratio(inv_cdf_calls, inv.calls), "count"),
        "kernels.sampler_self_s": (sec(inv.self + a("kernels.quantile").self), "s"),
        "kernels.us_per_draw": (ratio(inv.total + a("kernels.quantile").total, draws,
                                      1e-3), "us"),
        "kernels.bracket_errors": (per(errors["BracketError"]), "count"),
        "kernels.numerical_errors": (per(errors["NumericalError"]), "count"),
        "tail_chain.hidden_draws": (per(a("tail_chain.hidden").rows), "count"),
        "tail_chain.hidden_s": (sec(a("tail_chain.hidden").total), "s"),
        "tail_chain.regime_s": (sec(a("tail_chain.regime").total), "s"),
        "tail_chain.body_quantile_calls": (per(a("tail_chain.body_quantile").calls), "count"),
        "tail_chain.body_quantile_rows": (per(a("tail_chain.body_quantile").rows), "count"),
        "tail_chain.body_quantile_self_s": (sec(a("tail_chain.body_quantile").self), "s"),
        "tail_chain.body_cdf_calls": (per(a("tail_chain.body_cdf").calls), "count"),
        "recurrence.solves": (per(a("recurrence.solve").calls), "count"),
        "recurrence.solve_self_s": (sec(a("recurrence.solve").self), "s"),
        "recurrence.iterate_s": (sec(a("recurrence.iterate").total), "s"),
        "mc_lab.renormalize_s": (sec(a("mc_lab.renormalize").total), "s"),
        "mc_lab.ks_distance_s": (sec(a("mc_lab.ks_distance").total), "s"),
        "mc_lab.quantile_bands_s": (sec(a("mc_lab.quantile_bands").total), "s"),
        "mc_lab.report_self_s": (sec(a("mc_lab.report").self), "s"),
        "cli.commands": (per(a("cli.main").calls), "count"),
        "cli.main_self_s": (sec(a("cli.main").self), "s"),
        "cli.rows_written": (per(csv.rows), "count"),
        "cli.bytes_written": (per(csv.aux), "B"),
        "cli.write_mb_per_s": (ratio(csv.aux / 1e6, write_ns / 1e9), "MB/s"),
        "trace.spans": (per(len(spans)), "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return m
