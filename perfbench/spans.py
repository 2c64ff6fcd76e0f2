"""Outside-in span recorder for the traced benchmark run.

The library is not edited.  ``install`` replaces each public function of the
five modules (kernel, charfun, certify, simulate, cli) by a wrapper that
records a span, in every module namespace that holds the function.  The
library looks these names up as module globals at call time, so the wrappers
see every call: ``certify.test_real_axis_root`` finds the wrapped
``power_series_value``, ``charfun.pn_roots`` the wrapped ``_polish_roots``.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span (-1 at the top) and ``op`` the index of the workload
operation that caused it.  Spans stay in memory and are written out once,
after the pass.  A layer's self time is its span's duration minus the time
its child spans cover; the process is single-threaded, so children never
overlap and nothing waits on another layer.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import time
from collections import Counter, defaultdict

# import_module, because the package rebinds the name ``certify`` to the function
kernel, charfun, certify, simulate, cli = (
    importlib.import_module(f"volterra_stability.{m}") for m in ("kernel", "charfun", "certify", "simulate", "cli")
)
_MODULES = (kernel, charfun, certify, simulate, cli, importlib.import_module("volterra_stability"))

_EARLY_EXIT = ("AbsoluteSum", "EFP")


class Recorder:
    def __init__(self, fixtures: dict):
        self.spans: list[list] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.tags: dict[int, str] = {}
        self._paused = False
        self._stack: list[int] = []
        self._fixtures = fixtures

    def wrap(self, name: str, fn, before=None, after=None, failed=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec._paused:
                return fn(*args, **kwargs)
            sid = len(rec.spans)
            span = [name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1, rec.op]
            rec.spans.append(span)
            if before is not None:
                before(rec, sid, args)
            rec._stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                span[2] = time.perf_counter()
                rec._stack.pop()
                if failed is not None:
                    failed(rec, e)
                raise
            span[2] = time.perf_counter()
            rec._stack.pop()
            if after is not None:
                after(rec, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside: for work that is not the operation's, like its check."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- hooks -------------------------------------------------------------

    def _enclosure(self, result):
        self.counts["kernel.enclosures"] += 1
        if result.status == "unknown":
            self.counts["kernel.unknown"] += 1

    def _pn_roots(self, sid, args):
        k, n = args[0], args[1]
        self.distinct["charfun.pn_roots"].add((k, n))
        self.counts["charfun.pn_roots.degree_sum"] += n

    def _pn_roots_failed(self, e):
        if isinstance(e, charfun.NonConvergence):
            self.counts["charfun.pn_roots.nonconvergence"] += 1

    def _real_axis(self, sid, args):
        self.distinct["certify.test_real_axis_root"].add(args[0])

    def _certify_call(self, sid, args):
        name = self._fixtures.get(args[0])
        if name is not None:
            self.tags[sid] = name

    def _certify_done(self, report):
        self.counts["certify.certify.done"] += 1
        if report.final_criterion in _EARLY_EXIT:
            self.counts["certify.early_exits"] += 1

    def _steps(self, name):
        def after(rec, traj):
            rec.counts[name + ".steps"] += len(traj.values) - 1

        return after

    # -- installation and results -------------------------------------------

    def install(self):
        enclosure = Recorder._enclosure
        targets = [
            (kernel, "power_series_value", "kernel.power_series_value", {"after": enclosure}),
            (kernel, "series_sum", "kernel.series_sum", {"after": enclosure}),
            (kernel, "tail_abs_sum", "kernel.tail_abs_sum", {"after": enclosure}),
            (kernel, "terms", "kernel.terms", {}),
            (charfun, "pn_roots", "charfun.pn_roots",
             {"before": Recorder._pn_roots, "failed": Recorder._pn_roots_failed}),
            (charfun, "_polish_roots", "charfun.polish", {}),
            (charfun, "e_bounds", "charfun.e_bounds", {}),
            (charfun, "maximize_delta", "charfun.maximize_delta", {}),
            (certify, "certify", "certify.certify",
             {"before": Recorder._certify_call, "after": Recorder._certify_done}),
            (certify, "test_real_axis_root", "certify.test_real_axis_root", {"before": Recorder._real_axis}),
            (certify, "test_rouche_stable", "certify.test_rouche_stable", {}),
            (certify, "test_rouche_unstable", "certify.test_rouche_unstable", {}),
            (certify, "test_marginal_stable", "certify.test_marginal_stable", {}),
            (certify, "report_to_dict", "certify.report_to_dict", {}),
            (simulate, "solve", "simulate.solve", {"after": self._steps("simulate.solve")}),
            (simulate, "solve_fast", "simulate.solve_fast", {"after": self._steps("simulate.solve_fast")}),
            (simulate, "classify", "simulate.classify", {}),
            (cli, "main", "cli.main", {}),
        ]
        for module, attr, name, hooks in targets:
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, **hooks)
            for ns in _MODULES:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)

    def self_times(self) -> tuple[Counter, Counter]:
        """(self seconds, calls) per span name."""
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - covered[sid]
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self) -> dict:
        """The per-layer metrics of one pass (see README.md for the map)."""
        self_s, calls = self.self_times()
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "kernel.power_series_value.calls": calls["kernel.power_series_value"],
            "kernel.unknown_ratio": ratio(c["kernel.unknown"], c["kernel.enclosures"]),
            "charfun.pn_roots.calls": calls["charfun.pn_roots"],
            "charfun.pn_roots.unique_ratio": ratio(len(self.distinct["charfun.pn_roots"]), calls["charfun.pn_roots"]),
            "charfun.pn_roots.degree_sum": c["charfun.pn_roots.degree_sum"],
            "charfun.pn_roots.nonconvergence": c["charfun.pn_roots.nonconvergence"],
            "certify.test_real_axis_root.calls": calls["certify.test_real_axis_root"],
            "certify.test_real_axis_root.unique_ratio": ratio(
                len(self.distinct["certify.test_real_axis_root"]), calls["certify.test_real_axis_root"]
            ),
            "certify.test_rouche_stable.calls": calls["certify.test_rouche_stable"],
            "certify.test_rouche_unstable.calls": calls["certify.test_rouche_unstable"],
            "certify.early_exit_share": ratio(c["certify.early_exits"], c["certify.certify.done"]),
            "simulate.solve.steps": c["simulate.solve.steps"],
            "simulate.solve_fast.steps": c["simulate.solve_fast.steps"],
        }
        for name in SELF_TIMED:
            m[name + ".self_s"] = self_s[name]
        for fixture in sorted(set(self._fixtures.values())):
            m[f"certify.certify.{fixture}_s"] = 0.0
        for sid, fixture in self.tags.items():
            _, start, end, _, _ = self.spans[sid]
            m[f"certify.certify.{fixture}_s"] += end - start
        return m

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                if sid in self.tags:
                    rec["fixture"] = self.tags[sid]
                f.write(json.dumps(rec) + "\n")


SELF_TIMED = (
    "kernel.power_series_value",
    "kernel.series_sum",
    "kernel.tail_abs_sum",
    "kernel.terms",
    "charfun.pn_roots",
    "charfun.polish",
    "charfun.e_bounds",
    "charfun.maximize_delta",
    "certify.test_real_axis_root",
    "certify.test_marginal_stable",
    "certify.report_to_dict",
    "simulate.solve",
    "simulate.solve_fast",
    "simulate.classify",
    "cli.main",
)
