"""The host's speed, sampled while a pass runs.

The benchmark shares a few cores of a host with other processes.  Their
load slows the benchmark by a share that holds for tens of seconds and
then changes, by up to a third on the 2-vCPU host the benchmark was
written on.  A yardstick, timed every ``EVERY`` seconds during a pass,
measures that share: step and set-up times are divided by the
yardstick's time at that moment and reported in seconds at the
workload's reference speed.

A workload's yardstick is a few prediction steps of the frozen reference
(``reference.py``) on a fixed stream, of the kinds the workload runs, so
a slowdown that hits its code hits the yardstick alike; digits-shape adds
the distance product and partitions of a knn-cp rescoring, which no
reference step does at that width.  Each segment is scaled by the
fastest sample within ``WINDOW`` seconds: short bursts of load slow some
samples, and the fastest one measures the share that holds.  The
yardstick is fixed code of the benchmark: a change to the package moves
the benchmark's times and leaves the yardstick where it was.
"""

import bisect
import time

import numpy as np

import reference

EVERY = 0.1          # seconds of pass between samples
WINDOW = 3.0         # a segment's speed is the fastest sample within this many seconds


def _steps(calls):
    """One call of the yardstick: each (step function, step) at eps 0.1."""
    def run():
        for fn, t in calls:
            fn(t, 0.1)
    for fn, t in calls:   # the first call pays one-off costs
        fn(t, 0.1)
    return run


def _ridge():
    base = dict(dataset="synth-reg", n=1100, p=8, drift=2.0, warmup=100, seed=0)
    return [(reference.online_reference({**base, "predictor": pid}), 900)
            for pid in ("crr", "ols-nccp")]


def _knn():
    """A knn-nccp step only: adding a reference knn-cp step made the
    scaled knn-cp steps themselves less steady."""
    base = dict(dataset="synth-class", p=8, n_classes=3, class_sep=3.5, drift=1.5, seed=0)
    return [(reference.online_reference({**base, "predictor": "knn-nccp", "k": 20,
                                         "n": 2100, "warmup": 100}), 1900)]


def _digits():
    base = dict(dataset="synth-class", p=256, n_classes=10, class_sep=3.5, drift=1.0, seed=0)
    X = reference.stream({**base, "n": 300})[0]

    def rescore(t, eps):
        """Pairwise distances and nearest neighbours of a 300-example
        history: the product and partitions a knn-cp step does."""
        sq = np.sum(X * X, axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (X @ X.T), 0.0)
        return np.sort(np.partition(np.sqrt(d2), 2, axis=1)[:, :2], axis=1)

    return [(reference.online_reference({**base, "predictor": "knn-nccp", "k": 20,
                                         "n": 2001, "warmup": 2000}), 0),
            (rescore, 0)]


def _split():
    base = dict(dataset="synth-reg", n=1000, p=8, drift=1.0, test_fraction=0.25,
                cal_fraction=0.5, seed=0)
    cls = dict(base, dataset="synth-class", n_classes=3, class_sep=3.5)
    return [(reference.offline_reference({**base, "predictor": "icp-reg", "k": 20}), 0),
            (reference.offline_reference({**cls, "predictor": "icp-class", "k": 10}), 0),
            (reference.offline_reference({**base, "predictor": "inccp-reg", "k": 20}), 0)]


# workload -> (steps of one call, seconds of one call at the reference
# speed: about the fastest seen on the host the benchmark was written on,
# so that reported times read close to that host's)
YARDSTICKS = {
    "ridge-stream": (_ridge, 2.1e-4),
    "knn-stream": (_knn, 1.7e-4),
    "digits-shape": (_digits, 2.4e-3),
    "split-sweep": (_split, 1.6e-4),
}


class Yardstick:
    """The workload's yardstick and its reference time."""

    def __init__(self, workload):
        make, self.reference_s = YARDSTICKS[workload]
        self.run = _steps(make())

    def sample(self):
        """(time, seconds of one call), the faster of two in a row: the
        first runs with caches the pass has just filled."""
        times = []
        for _ in range(2):
            t = time.perf_counter()
            self.run()
            times.append(time.perf_counter() - t)
        return time.perf_counter(), min(times)


class Speeds:
    """Samples of one pass, and the scale they give a stretch of it."""

    def __init__(self, samples, reference_s):
        self.times = [t for t, _ in samples]
        self.calls = [s for _, s in samples]
        self.reference_s = reference_s

    def scale(self, start, end):
        """The reference time over the fastest yardstick call sampled
        within WINDOW seconds of [start, end]."""
        lo = min(bisect.bisect_left(self.times, start - WINDOW), len(self.times) - 1)
        hi = max(bisect.bisect_right(self.times, end + WINDOW), lo + 1)
        return self.reference_s / min(self.calls[lo:hi])
