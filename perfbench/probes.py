"""Measurement from outside the package.

Nothing under ``src/`` is edited.  Each probe replaces a name in the module
where its caller looks it up (``aci_lab.harness.aci_update``,
``aci_lab.cp_online.RidgeSystem``, ...) by a wrapper around the original,
and puts the original back when the pass ends.

``StepClock`` is the untraced instrument: it timestamps the start of each
run and the controller's ``aci_init``/``aci_update`` calls.  The gaps
between successive marks cut a pass into segments: a run's set-up (its
start to ``aci_init``), its steps (the time between successive controller
calls: predict, record, update and observe of one step), and its tail
(the last step's observe, the summary and any output files).  Passes over
the same inputs make the same segments in the same order.  Every
``speed.EVERY`` seconds a mark also samples the host's speed (see
``speed``); the sample's time lies between two segments, in neither.

``Tracer`` is the traced instrument: spans (name, start, end, parent) at
every layer boundary, kept in memory until the pass ends.  Besides public
names it wraps one private one, ``harness._aci_loop``: the only place the
offline prediction rule is a callable of its own.  Renaming that function
needs the same change here.
"""

import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager

from aci_lab import cp_online, harness, inductive, nccp_online
from aci_lab.numerics import NumericError

import speed
import workloads

now = time.perf_counter


@contextmanager
def patched(replacements):
    """Set (module, name) -> value for the duration of the block."""
    saved = [(mod, name, getattr(mod, name)) for (mod, name) in replacements]
    try:
        for (mod, name), value in replacements.items():
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in saved:
            setattr(mod, name, value)


class StepClock:
    """Timestamped marks of one pass, speed samples, and the runs it finished."""

    def __init__(self, yardstick):
        self.yardstick = yardstick
        self.marks = []       # (kind, route, time, resume); kind is "run", "init" or "step"
        self.speeds = []      # yardstick samples
        self.finished = []    # RunResults the harness returned
        self._route = None
        self._start = self._resume = self._next_sample = 0.0

    def start(self):
        """Sample the speed; the pass starts now."""
        self.speeds.append(self.yardstick.sample())
        self._start = self._resume = now()
        self._next_sample = self._start + speed.EVERY
        return self._start

    def _mark(self, kind):
        t = now()
        if t >= self._next_sample:
            self.speeds.append(self.yardstick.sample())
            self._next_sample = t + speed.EVERY
            self._resume = now()
        else:
            self._resume = t
        self.marks.append((kind, self._route, t, self._resume))

    def begin_run(self, route):
        self._route = route
        self._mark("run")

    def loop_start(self):
        self._mark("init")

    def step(self):
        self._mark("step")

    def segments(self, end):
        """(kind, route, scaled seconds) up to ``end``, one per mark plus
        the last run's tail.  A segment takes the kind of the mark that
        ends it: "init" is a set-up, "step" a step, and "run" or "end"
        the tail of the run before.  Times are in seconds at the
        workload's reference speed."""
        self.speeds.append(self.yardstick.sample())
        speeds = speed.Speeds(self.speeds, self.yardstick.reference_s)
        out, begin = [], self._start
        for kind, route, t, resume in self.marks + [("end", None, end, end)]:
            out.append((kind, route, (t - begin) * speeds.scale(begin, t)))
            begin = resume
        return out

    def probes(self):
        init, update, offline = harness.aci_init, harness.aci_update, harness.run_offline

        def timed_init(*args, **kwargs):
            self.loop_start()
            return init(*args, **kwargs)

        def timed_update(*args, **kwargs):
            self.step()
            return update(*args, **kwargs)

        def offline_run(cfg):
            self.begin_run(cfg.predictor)
            result = offline(cfg)
            self.finished.append(result)
            return result

        return patched({(harness, "aci_init"): timed_init,
                        (harness, "aci_update"): timed_update,
                        (harness, "run_offline"): offline_run,
                        (workloads, "aci_init"): timed_init,
                        (workloads, "aci_update"): timed_update})


class Tracer:
    """In-memory spans and the per-layer figures derived from them."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent index or -1]
        self._stack = []
        self.fallbacks = 0
        self.finished = []
        self._offline = False

    def begin_run(self, route):
        """Runs need no marker here: spans carry their own structure."""

    def open(self, name):
        self.spans.append([name, now(), math.nan, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = now()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return traced

    def wrap_methods(self, obj, spans):
        """Shadow bound methods of one instance with traced ones;
        ``spans`` maps method name -> span name.  Absent methods are skipped."""
        for method, span in spans.items():
            if hasattr(obj, method):
                setattr(obj, method, self.wrap(span, getattr(obj, method)))
        return obj

    def predictor(self, pred):
        layer = type(pred).__module__.rsplit(".", 1)[-1]
        return self.wrap_methods(pred, {m: f"{layer}.{m}" for m in ("predict", "observe")})

    def probes(self):
        h = harness
        loop, offline, make_predictor = h._aci_loop, h.run_offline, h.make_online_predictor
        loop_sig, traced_loop_body = inspect.signature(loop), self.wrap("harness.loop", loop)

        def traced_loop(*args, **kwargs):
            bound = loop_sig.bind(*args, **kwargs)
            if self._offline:
                bound.arguments["predict_fn"] = self.wrap(
                    "inductive.rule", bound.arguments["predict_fn"])
            return traced_loop_body(*bound.args, **bound.kwargs)

        def offline_run(cfg):
            self._offline = True
            try:
                result = offline(cfg)
            finally:
                self._offline = False
            self.finished.append(result)
            return result

        def ridge_factor(cls):
            def factor(*args, **kwargs):
                self.open("numerics.ridge_factor")
                try:
                    return cls(*args, **kwargs)
                except NumericError:
                    self.fallbacks += 1
                    raise
                finally:
                    self.close()
            return factor

        fit = dict.fromkeys(("fit", "class_scores", "point"), "inductive.fit")
        scorer = lambda cls: lambda *a, **kw: self.wrap_methods(cls(*a, **kw), fit)
        cached = workloads.CachedKnnConformalClassifier
        w = self.wrap
        return patched({
            (h, "_aci_loop"): traced_loop,
            (h, "run_offline"): offline_run,
            (h, "make_online_predictor"): lambda *a, **kw: self.predictor(make_predictor(*a, **kw)),
            (h, "aci_update"): w("aci.update", h.aci_update),
            (h, "classification_record"): w("metrics.record", h.classification_record),
            (h, "regression_record"): w("metrics.record", h.regression_record),
            (h, "summarize_run"): w("metrics.summarize", h.summarize_run),
            (h, "make_stream"): w("data.stream", h.make_stream),
            (h, "split_train_calibration"): w("data.split", h.split_train_calibration),
            (h, "KnnClassScorer"): scorer(h.KnnClassScorer),
            (h, "KnnQuantileScorer"): scorer(h.KnnQuantileScorer),
            (h, "calibration_scores"): w("inductive.fit", h.calibration_scores),
            (h, "calibration_residuals"): w("inductive.fit", h.calibration_residuals),
            (h, "write_run_outputs"): w("harness.emit", h.write_run_outputs),
            (cp_online, "RidgeSystem"): ridge_factor(cp_online.RidgeSystem),
            (nccp_online, "RidgeSystem"): ridge_factor(nccp_online.RidgeSystem),
            (nccp_online, "student_t_quantile"): w("numerics.t_quantile",
                                                   nccp_online.student_t_quantile),
            (inductive, "empirical_quantile"): w("numerics.quantile", inductive.empirical_quantile),
            (workloads, "aci_update"): w("aci.update", workloads.aci_update),
            (workloads, "classification_record"): w("metrics.record",
                                                    workloads.classification_record),
            (workloads, "summarize_run"): w("metrics.summarize", workloads.summarize_run),
            (workloads, "make_stream"): w("data.stream", workloads.make_stream),
            (workloads, "CachedKnnConformalClassifier"): lambda *a, **kw: self.predictor(
                cached(*a, **kw)),
        })

    def layer_times(self):
        """name -> (self seconds summed, span count, span durations)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0, []])
        for (name, start, end, _parent), inner in zip(self.spans, child):
            acc = out[name]
            acc[0] += end - start - inner
            acc[1] += 1
            acc[2].append(end - start)
        return out
