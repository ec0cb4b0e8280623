"""Outside-in layer tracing for hodgekp.

Every public function of the layer modules is wrapped at each module
binding that refers to it (`cli` and `tau` import `build_curve`,
`exp_apply` and the others by name), and the hot class methods are
wrapped on their class.  Layer calls become spans (name, start, end,
parent, job id) kept in memory; the algebra kernels, called up to about
10^6 times a run, are aggregated per function instead.  No hodgekp
source is changed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# Layers whose public functions get spans; algebra is traced by its kernels.
SPAN_LAYERS = ("curve", "operators", "tau", "kp", "cli")

# Class methods wrapped on the class, aggregated rather than spanned.
KERNELS = {
    "algebra.TPoly.mul": ("algebra", "TPoly", "__mul__"),
    "algebra.TPoly.diff": ("algebra", "TPoly", "diff"),
    "algebra.TPoly.mul_var": ("algebra", "TPoly", "mul_var"),
    "algebra.TPoly.substitute": ("algebra", "TPoly", "substitute"),
    "operators.LinearOp.apply": ("operators", "LinearOp", "apply"),
}

# Functions whose distinct argument tuples are counted against their calls.
DISTINCT = {
    "curve.build_curve",
    "operators.tqp_forms",
    "tau.kw_tau",
    "tau.bgw_tau",
    "tau.tau_qp_check",
    "tau.tau_qp_theta_check",
}

# The bilinear and even-time checks; their tau argument is the kp input.
KP_CHECKS = {
    "kp.hirota_first_equation",
    "kp.hirota_full_check",
    "kp.hirota_graded_check",
    "kp.kdv_reduction_check",
}


def _module(layer):
    return sys.modules[f"hodgekp.{layer}"]


def _layer_functions(layer):
    """Public plain functions defined in a layer module.

    The module-level algebra helpers (`mono_weight`, `mono_mul`, ...) are
    the per-term work inside the TPoly kernels and are left unwrapped, as
    are the `lru_cache` correlators, whose misses come from `cache_info()`.
    """
    mod = _module(layer)
    return {
        name: obj
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == mod.__name__
    }


def _key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    """Spans and counters for one traced child run.

    Time spent inspecting results (rational bit sizes, term counts) is
    excluded from every span through `paused`.
    """

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, job, self seconds)
        self.kernels = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.stack = []  # open frames: [child seconds, enclosing span id]
        self.job = None
        self.paused = 0.0
        self.active = False
        self.distinct = defaultdict(set)
        self.counters = Counter()
        self._undo = []

    def now(self):
        return time.perf_counter() - self.paused

    # -- installation ------------------------------------------------------

    def install(self):
        for layer in SPAN_LAYERS:
            for fname, fn in _layer_functions(layer).items():
                self._rebind(fn, self._span_wrapper(f"{layer}.{fname}", fn))
        for name, (layer, cls_name, attr) in KERNELS.items():
            cls = getattr(_module(layer), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._kernel_wrapper(name, original))
            self._undo.append((cls, attr, original))
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, fn, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hodgekp" or mod_name.startswith("hodgekp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    # -- wrappers ------------------------------------------------------------

    def _kernel_wrapper(self, name, fn):
        stack = self.stack
        stats = self.kernels[name]
        now = self.now

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0, stack[-1][1] if stack else None]
            stack.append(frame)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = now() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]

        return wrapper

    def _span_wrapper(self, name, fn):
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = len(spans)
            spans.append(None)  # reserve the id so children get larger ones
            frame = [0.0, span_id]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            t0 = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = self.now()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                spans[span_id] = (span_id, name, t0, t1, parent, self.job, t1 - t0 - frame[0])
            self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def job_span(self, job_id, fn, *args):
        """Run one (check, point) job as a span that its layer spans share."""
        self.job = job_id
        try:
            return self._span_wrapper("cli.job", fn)(*args)
        finally:
            self.job = None

    # -- counters ------------------------------------------------------------

    def _observe(self, name, args, kwargs, result):
        t0 = time.perf_counter()
        if name in DISTINCT:
            self.distinct[name].add(_key(args, kwargs))
        if name == "operators.exp_apply":
            self.counters["operators.exp_apply.out_terms"] += len(result.terms)
            self._rational_sizes(result)
        elif name in ("tau.tau_qp_check", "tau.tau_qp_theta_check"):
            self._rational_sizes(result.tau.body)
        elif name in KP_CHECKS:
            self.counters["kp.input_terms"] += len(args[0].terms)
            self.counters["kp.equations"] += len(getattr(result, "equations", ()))
        self.paused += time.perf_counter() - t0

    def _rational_sizes(self, poly):
        num = den = 0
        for c in poly.terms.values():
            for x in c.terms.values():
                num = max(num, x.numerator.bit_length())
                den = max(den, x.denominator.bit_length())
        self.counters["algebra.max_num_bits"] = max(self.counters["algebra.max_num_bits"], num)
        self.counters["algebra.max_den_bits"] = max(self.counters["algebra.max_den_bits"], den)

    # -- results -------------------------------------------------------------

    def self_seconds(self):
        """Self seconds per traced function, spans and kernels together."""
        out = Counter()
        for span in self.spans:
            if span is not None:
                out[span[1]] += span[6]
        for name, (_, _, self_s) in self.kernels.items():
            out[name] += self_s
        return out

    def calls(self):
        out = Counter(span[1] for span in self.spans if span is not None)
        for name, (calls, _, _) in self.kernels.items():
            out[name] += calls
        return out

    def layer_metrics(self, jobs):
        """The per-layer metrics of one traced run, self times in seconds.

        `traced_s` is the time spent in jobs, the base of the self-time shares.
        """
        self_s = self.self_seconds()
        calls = self.calls()
        tau = _module("tau")
        m = {
            "traced_s": sum(span[3] - span[2] for span in self.spans if span and span[1] == "cli.job"),
            "cli.jobs": jobs,
            "cli.run_verification.self_s": self_s["cli.run_verification"],
            "tau.psi_correlator.misses": tau.psi_correlator.cache_info().misses,
            "tau.theta_correlator.misses": tau.theta_correlator.cache_info().misses,
        }
        for name in (
            "curve.build_curve",
            "curve.witt_coefficients",
            "curve.shift_data",
            "operators.exp_apply",
            "operators.LinearOp.apply",
            "operators.tqp_forms",
            "tau.kw_tau",
            "tau.bgw_tau",
            "tau.tau_qp_check",
            "tau.tau_qp_theta_check",
            "algebra.TPoly.mul",
            "algebra.TPoly.diff",
            "algebra.TPoly.mul_var",
        ):
            m[f"{name}.calls"] = calls[name]
        for name in DISTINCT:
            m[f"{name}.distinct"] = len(self.distinct[name])
        for name in (
            "curve.build_curve",
            "curve.witt_coefficients",
            "curve.shift_data",
            "curve.grunsky_matrix",
            "operators.exp_apply",
            "operators.LinearOp.apply",
            "operators.givental_factorized",
            "kp.hirota_graded_check",
            "kp.hirota_full_check",
            "algebra.TPoly.mul",
            "algebra.TPoly.diff",
            "algebra.TPoly.mul_var",
            "algebra.TPoly.substitute",
        ):
            m[f"{name}.self_s"] = self_s[name]
        for layer in ("curve", "operators", "tau", "kp", "algebra"):
            m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        for name in (
            "operators.exp_apply.out_terms",
            "kp.equations",
            "kp.input_terms",
            "algebra.max_num_bits",
            "algebra.max_den_bits",
        ):
            m[name] = self.counters[name]
        return m

    def records(self):
        """Spans and kernel aggregates, as written out when the run ends."""
        return {
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "job": s[5]}
                for s in self.spans
                if s is not None
            ],
            "kernels": {
                name: {"calls": calls, "total_s": total, "self_s": self_s}
                for name, (calls, total, self_s) in self.kernels.items()
            },
        }
