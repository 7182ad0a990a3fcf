"""In-memory spans around calls into gammkit's public module attributes.

The benchmark never edits the package. It replaces module attributes (and one
method) with wrappers that record a span per call: name, start, end, parent
span and the command it belongs to. Spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its child spans.
A target the package no longer has, or an observer that cannot read a result,
is kept in ``problems`` so that no metric reads 0 without notice.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict

# (module[:class], attribute, span name). diagnostics binds fitting.fit at
# import time, so that binding is replaced as well; every other caller looks
# the attribute up on its module at call time.
TARGETS = (
    ("gammkit.data", "load_csv", "data.load_csv"),
    ("gammkit.fitting", "fit", "fitting.fit"),
    ("gammkit.diagnostics", "fit", "fitting.fit"),
    ("gammkit.fitting", "assemble", "fitting.assemble"),
    ("gammkit.fitting", "ar1_whiten", "fitting.ar1_whiten"),
    ("gammkit.fitting", "optimize_lambdas", "fitting.optimize_lambdas"),
    ("gammkit.fitting", "reml_score", "fitting.reml_score"),
    ("gammkit.fitting", "pls_solve", "fitting.pls_solve"),
    ("gammkit.fitting", "partial_effect", "fitting.partial_effect"),
    ("gammkit.fitting:AssembledDesign", "ensure_products",
     "fitting.ensure_products"),
    ("gammkit.inference", "wald_term_test", "inference.wald_term_test"),
    ("gammkit.diagnostics", "permutation_fs_test",
     "diagnostics.permutation_fs_test"),
    ("gammkit.simulate", "gen_experiment", "simulate.gen_experiment"),
)

COMMAND_SPAN = "cli"


def _qr_gflop(design, lambdas, ridged: bool) -> float:
    """Householder QR of the (n + rank) x p augmented matrix, R and thin Q.

    2mp^2 - 2p^3/3 flops for R and as many again to form Q; a ridge retry
    stacks p more rows and factors again.
    """
    p = design.p
    m = design.n + sum(e.rank for e, lam in zip(design.penalties, lambdas)
                       if lam > 0)
    flops = 2.0 * (2.0 * m * p * p - 2.0 * p ** 3 / 3.0)
    if ridged:
        flops += 2.0 * (2.0 * (m + p) * p * p - 2.0 * p ** 3 / 3.0)
    return flops / 1e9


def _observe_assemble(attrs, args, result):
    attrs["design_mb"] = 8.0 * result.n * result.p / 1e6


def _observe_fit(attrs, args, result):
    reml = float(result.reml)
    attrs["reml"] = reml if math.isfinite(reml) else None


def _observe_optimize(attrs, args, result):
    attrs["converged"] = bool(result.converged)


def _observe_pls(attrs, args, result):
    attrs["qr_gflop"] = _qr_gflop(args[0], args[1], result.ridged)


OBSERVERS = {
    "fitting.assemble": _observe_assemble,
    "fitting.fit": _observe_fit,
    "fitting.optimize_lambdas": _observe_optimize,
    "fitting.pls_solve": _observe_pls,
}


class Tracer:
    """Records spans; install() wraps the targets, uninstall() undoes it."""

    def __init__(self):
        # span: [name, start, end, parent index, command id, error, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.command_id = None
        self.problems: set[str] = set()

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.command_id, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                span[6] = {}
                try:
                    observe(span[6], args, result)
                except Exception as exc:    # the package changed shape
                    self.problems.add(f"{name} observer failed: {exc!r}")
            return result
        return wrapper

    def install(self):
        """Wrap every target; a target the package no longer has is a
        problem."""
        wrapped = {}
        for target, attr, span_name in TARGETS:
            mod_name, _, cls_name = target.partition(":")
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.problems.add(f"{target}.{attr} is not in gammkit")
                continue
            self._saved.append((owner, attr, original))
            key = (span_name, id(original))
            if key not in wrapped:
                wrapped[key] = self._wrap(span_name, original)
            setattr(owner, attr, wrapped[key])

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def command(self, command_id, fn, *args):
        """Run fn(*args) as the root span of one command."""
        self.command_id = command_id
        try:
            return self._wrap(COMMAND_SPAN, fn)(*args)
        finally:
            self.command_id = None

    def summaries(self) -> dict:
        """Per command id: self time per span name, call and error counts,
        and observed attrs."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out = {}
        for i, (name, start, end, _, cmd, err, extra) in \
                enumerate(self.spans):
            c = out.setdefault(cmd, {
                "self_s": defaultdict(float),
                "calls": defaultdict(int),
                "errors": defaultdict(lambda: defaultdict(int)),
                "attrs": defaultdict(list)})
            c["self_s"][name] += (end - start) - child_time[i]
            c["calls"][name] += 1
            if err is not None:
                c["errors"][name][err] += 1
            if extra:
                c["attrs"][name].append(extra)
        return out

    def dump(self, path):
        """Write each span as a JSON line: name, start, end, parent, cmd."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:6]) + "\n")
