"""Acceptance suite: one test per numbered criterion, each printing a
visible [PASS]/[FAIL]/[SKIP] line with the measured quantities.

Criteria tied to the real datasets look for the files (see conftest) and
fall back to the documented synthetic variant, or skip the real half
with an explicit note, when the files are absent.  No tolerance is ever
loosened to compensate.
"""
import math
import os
import time

import numpy as np
import pytest

from aci_lab.core import (CLASSIFICATION, CoinFlipPredictor, PredictionSet,
                          derive_rng)
from aci_lab.cp_online import crr_predict, knn_cp_predict
from aci_lab.data import Dataset
from aci_lab.harness import (build_config, lemma_stress_matrix,
                             make_online_predictor, run_online, run_sweep)
from aci_lab.inductive import (KnnClassScorer, KnnQuantileScorer,
                               calibration_residuals, calibration_scores,
                               icp_classify_predict, icp_regress_predict,
                               inccp_classify_predict, inccp_regress_predict)
from aci_lab.metrics import (lag1_autocorrelation, winkler_score,
                             winkler_score_set)
from aci_lab.nccp_online import knn_threshold_predict, ols_interval_predict
from aci_lab.numerics import student_t_quantile
from oracles import crr_grid_oracle, t_quantile_by_integration


def _pass(capsys, num, note):
    with capsys.disabled():
        print(f"[PASS] criterion {num}: {note}")


def _fail(capsys, num, note):
    with capsys.disabled():
        print(f"[FAIL] criterion {num}: {note}")
    pytest.fail(f"criterion {num}: {note}")


def _skip(capsys, num, note):
    with capsys.disabled():
        print(f"[SKIP] criterion {num}: {note}")
    pytest.skip(f"criterion {num}: {note}")


# ------------------------------------------------------------- shared runs

@pytest.fixture(scope="module")
def stress_runs():
    """Every predictor id on shift and iid synthetic streams."""
    return lemma_stress_matrix()


@pytest.fixture(scope="module")
def real_runs(wine_paths, usps_paths):
    """Desk-scale online runs on the real datasets, when the files exist.

    Keyed by (dataset, predictor).  The wine runs are full scale (that is
    the one full-scale criterion); usps runs a seeded 2000-example
    subsample.
    """
    runs = {}
    if wine_paths:
        white, red = wine_paths
        for pid in ("crr", "ols-nccp"):
            cfg = build_config(dict(dataset="wine", predictor=pid, eps=0.1,
                                    delta=0.01, warmup=100, seed=0,
                                    white_path=white, red_path=red))
            runs[("wine", pid)] = run_online(cfg)
    if usps_paths:
        train, test = usps_paths
        for pid in ("knn-cp", "knn-nccp"):
            cfg = build_config(dict(dataset="usps", predictor=pid, eps=0.1,
                                    delta=0.01, warmup=100, seed=0,
                                    subsample=2000,
                                    train_path=train, test_path=test))
            runs[("usps", pid)] = run_online(cfg)
    return runs


def _all_runs(stress_runs, real_runs):
    runs = [(f"{pid}@{stream}", r) for pid, stream, r in stress_runs]
    runs += [(f"{pid}@{ds}", r) for (ds, pid), r in real_runs.items()]
    return runs


def _coverage_note(stress_runs, real_runs):
    pids = sorted({pid for pid, _, _ in stress_runs})
    note = f"{len(stress_runs)} synthetic-stream runs over {len(pids)} predictor ids"
    if real_runs:
        note += f" + {len(real_runs)} real-data runs"
    else:
        note += " (real-data files absent, synthetic only)"
    return note


# ------------------------------------------------------------ criteria 1-2

def test_criterion_01_aci_guarantee(stress_runs, real_runs, capsys):
    bad = []
    for name, r in _all_runs(stress_runs, real_runs):
        s = r.summary
        if not s.bound_satisfied or abs(s.eps_target - s.mean_err) > s.bound:
            bad.append(f"{name}: |{s.eps_target} - {s.mean_err:.5f}| > {s.bound:.5f}")
    if bad:
        _fail(capsys, 1, f"guarantee violated on {len(bad)} runs: {bad[:3]}")
    _pass(capsys, 1, "|eps - mean err| <= (max(eps1,1-eps1)+gamma)/(gamma*N) on "
          + _coverage_note(stress_runs, real_runs))


def test_criterion_02_level_confinement(stress_runs, real_runs, capsys):
    bad = []
    for name, r in _all_runs(stress_runs, real_runs):
        if r.eps_min < -r.gamma or r.eps_max > 1.0 + r.gamma:
            bad.append(f"{name}: [{r.eps_min:.5f}, {r.eps_max:.5f}] "
                       f"outside [-{r.gamma:.5f}, 1+{r.gamma:.5f}]")
    if bad:
        _fail(capsys, 2, f"level escaped [-gamma, 1+gamma] on {len(bad)} runs: {bad[:3]}")
    _pass(capsys, 2, "eps stayed in [-gamma, 1+gamma] at every step of every run, "
          "including the non-nested random-set predictor "
          f"({_coverage_note(stress_runs, real_runs)})")


# -------------------------------------------------------------- criterion 3

def test_criterion_03_crr_grid_oracle(capsys):
    rng = derive_rng(11, "acceptance-crr")
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(5, 26))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        w = rng.normal(size=p)
        y = X @ w + rng.normal(scale=float(rng.uniform(0.1, 2.0)), size=n)
        x = rng.normal(size=p)
        eps = float(rng.uniform(0.05, 0.6))
        a = float(rng.choice([0.0, 0.0, 1.0]))
        got = crr_predict(X, y, x, eps, a)
        lo, hi, step = crr_grid_oracle(X, y, x, eps, a)
        for g, o in ((got.lower, lo), (got.upper, hi)):
            if math.isinf(o) or math.isinf(g):
                if g != o:
                    _fail(capsys, 3, f"trial {trial}: {got} vs oracle [{lo}, {hi}]")
            else:
                worst = max(worst, abs(g - o) / step)
                if abs(g - o) > step * 1.0001:
                    _fail(capsys, 3, f"trial {trial}: endpoint off by "
                          f"{abs(g - o):.3g} > grid step {step:.3g}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        _fail(capsys, 3, f"took {elapsed:.1f}s, budget is one minute")
    _pass(capsys, 3, f"200 instances (n<=25, p<=3) within one grid step of the "
          f"brute-force oracle (worst gap {worst:.3f} steps) in {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 4

class _StubScorer:
    """Fixed score row; lets the recount target arbitrary score patterns."""

    def __init__(self, label_space, row):
        self.label_space = list(label_space)
        self._row = np.asarray(row, dtype=float)

    def class_scores(self, x):
        return self._row


def test_criterion_04_icp_recount_oracle(capsys):
    rng = derive_rng(12, "acceptance-icp")
    for trial in range(200):
        n_cal = int(rng.integers(1, 51))
        n_labels = int(rng.integers(2, 6))
        if trial % 3 == 0:
            # coarse grid forces exact rank ties
            cal = rng.integers(0, 5, size=n_cal) / 4.0
            row = rng.integers(0, 5, size=n_labels) / 4.0
        else:
            cal = rng.uniform(size=n_cal)
            row = rng.uniform(size=n_labels)
        eps = float(rng.uniform(0.02, 0.9))
        got = icp_classify_predict(_StubScorer(range(n_labels), row), cal,
                                   np.zeros(1), eps)
        want = {lab for lab in range(n_labels)
                if (np.count_nonzero(cal >= 1.0 - row[lab]) + 1) / (n_cal + 1) > eps}
        if set(got.labels) != want:
            _fail(capsys, 4, f"trial {trial}: {sorted(got.labels)} != {sorted(want)} "
                  f"(n_cal={n_cal}, eps={eps:.3f})")
    _pass(capsys, 4, "membership matches the direct p-value recount exactly on "
          "200 random calibration sets (n_cal <= 50, rank ties included)")


# -------------------------------------------------------------- criterion 5

def test_criterion_05_winkler_identity(capsys):
    rng = derive_rng(13, "acceptance-winkler")
    worst = 0.0
    for _ in range(10_000):
        lo, hi = np.sort(rng.normal(scale=3.0, size=2))
        y = float(rng.normal(scale=4.0))
        eps = float(rng.uniform(0.01, 0.99))
        a = winkler_score(float(lo), float(hi), y, eps)
        b = winkler_score_set(PredictionSet.interval(float(lo), float(hi)), y, eps)
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    if worst > 1e-12:
        _fail(capsys, 5, f"interval and set forms diverge: rel diff {worst:.3e}")
    _pass(capsys, 5, f"interval form == set form on 10^4 random tuples "
          f"(worst rel diff {worst:.1e} <= 1e-12)")


# -------------------------------------------------------------- criterion 6

def test_criterion_06_coin_flip_validity(capsys):
    pred = CoinFlipPredictor(derive_rng(2026, "acceptance-coin"),
                             task=CLASSIFICATION)
    x = np.zeros(1)
    errs = np.array([1 if pred.predict(x, 0.2).kind == "empty" else 0
                     for _ in range(100_000)])
    dev = abs(float(errs.mean()) - 0.2)
    dev_band = 3.0 * math.sqrt(0.2 * 0.8 / 100_000)
    rho = lag1_autocorrelation(errs)
    rho_band = 3.0 / math.sqrt(100_000)
    if dev > dev_band or abs(rho) > rho_band:
        _fail(capsys, 6, f"mean err off by {dev:.5f} (band {dev_band:.5f}) "
              f"or lag-1 autocorr {rho:.5f} (band {rho_band:.5f})")
    _pass(capsys, 6, f"10^5 steps at eps=0.2: |mean err - 0.2| = {dev:.5f} "
          f"<= {dev_band:.5f}, lag-1 autocorr {rho:+.5f} within +/-{rho_band:.5f}")


# -------------------------------------------------------------- criterion 7

CONFIDENCE_PREDICTORS = ("knn-cp", "knn-nccp", "crr", "ols-nccp",
                         "icp-class", "icp-reg", "inccp-class", "inccp-reg")


def _instance_predict_fn(pid, rng):
    """Fresh random instance; returns eps -> PredictionSet."""
    p = int(rng.integers(1, 4))
    x = rng.normal(size=p)
    if pid in ("knn-cp", "knn-nccp"):
        n = int(rng.integers(4, 30))
        X = rng.normal(size=(n, p))
        y = rng.integers(0, 3, size=n)
        k = int(rng.integers(1, 4))
        if pid == "knn-cp":
            return lambda e: knn_cp_predict(X, y, x, e, k, [0, 1, 2])
        return lambda e: knn_threshold_predict(X, y, x, e, k, [0, 1, 2])
    if pid in ("crr", "ols-nccp"):
        n = int(rng.integers(5, 30))
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        a = float(rng.choice([0.0, 0.5]))
        if pid == "crr":
            return lambda e: crr_predict(X, y, x, e, a)
        return lambda e: ols_interval_predict(X, y, x, e, a)
    n = int(rng.integers(12, 40))
    n_cal = int(rng.integers(3, n // 2))
    k = int(rng.integers(1, 4))
    X = rng.normal(size=(n, p))
    if pid.endswith("-class"):
        y = rng.integers(0, 3, size=n)
        if pid == "icp-class":
            scorer = KnnClassScorer(k).fit(X[n_cal:], y[n_cal:], [0, 1, 2])
            cal = calibration_scores(scorer, X[:n_cal], y[:n_cal])
            return lambda e: icp_classify_predict(scorer, cal, x, e)
        scorer = KnnClassScorer(k).fit(X, y, [0, 1, 2])
        return lambda e: inccp_classify_predict(scorer, x, e)
    y = X @ rng.normal(size=p) + rng.normal(size=n)
    if pid == "icp-reg":
        scorer = KnnQuantileScorer(k).fit(X[n_cal:], y[n_cal:])
        cal = calibration_residuals(scorer, X[:n_cal], y[:n_cal])
        point = scorer.point(x)
        return lambda e: icp_regress_predict(point, cal, e)
    scorer = KnnQuantileScorer(k).fit(X, y)
    return lambda e: inccp_regress_predict(scorer, x, e)


def test_criterion_07_nestedness(capsys):
    rng = derive_rng(14, "acceptance-nest")
    for pid in CONFIDENCE_PREDICTORS:
        for instance in range(50):
            fn = _instance_predict_fn(pid, rng)
            for _ in range(10):
                if rng.uniform() < 0.25:
                    draws = rng.uniform(-0.05, 1.05, size=2)
                else:
                    draws = rng.uniform(0.01, 0.99, size=2)
                e2, e1 = float(np.min(draws)), float(np.max(draws))
                if not fn(e1).issubset(fn(e2)):
                    _fail(capsys, 7, f"{pid} instance {instance}: set at "
                          f"eps={e1:.4f} not inside set at eps={e2:.4f}")
    _pass(capsys, 7, "500 random (history, x, eps1 >= eps2) triples per "
          f"confidence predictor ({len(CONFIDENCE_PREDICTORS)} ids), zero violations")


# -------------------------------------------------------------- criterion 8

def test_criterion_08_wine_replication(wine_paths, real_runs, capsys):
    if wine_paths is None:
        means = {}
        for pid in ("crr", "ols-nccp"):
            cfg = build_config(dict(dataset="synth-reg", predictor=pid,
                                    n=1600, warmup=100, eps=0.1, delta=0.01,
                                    seed=0))
            s = run_online(cfg).summary
            if not s.bound_satisfied:
                _fail(capsys, 8, f"smoke variant: guarantee failed for {pid} "
                      f"(mean err {s.mean_err:.5f}, bound {s.bound:.5f})")
            means[pid] = s.mean_err
        _pass(capsys, 8, "smoke variant (synthetic stream, N=1500), wine csv "
              "files absent; guarantee held for crr "
              f"(mean err {means['crr']:.4f}) and ols-nccp "
              f"({means['ols-nccp']:.4f})")
        return
    notes = []
    for pid in ("crr", "ols-nccp"):
        s = real_runs[("wine", pid)].summary
        if abs(s.mean_err - 0.1) > 0.01:
            _fail(capsys, 8, f"{pid} mean err {s.mean_err:.6f} outside 0.1 +/- 0.01")
        if not 0.85 * 3.24 <= s.mean_winkler_finite <= 1.15 * 3.24:
            _fail(capsys, 8, f"{pid} mean Winkler {s.mean_winkler_finite:.4f} "
                  f"outside 3.24 +/- 15%")
        notes.append(f"{pid} mean err {s.mean_err:.6f}, "
                     f"Winkler {s.mean_winkler_finite:.3f}")
    _pass(capsys, 8, "full-scale wine run (warmup 100, N=6397, delta=0.01): "
          + "; ".join(notes) + " (bands 0.1 +/- 0.01 and 3.24 +/- 15%)")


# -------------------------------------------------------------- criterion 9

def test_criterion_09_usps_speed_and_oe(usps_paths, real_runs, capsys):
    # timing half always runs: the harness predictor bindings on a stream
    # shaped like the digit data (256 features, 10 labels, history 2000)
    rng = derive_rng(15, "acceptance-speed")
    X = rng.normal(size=(2040, 256))
    y = rng.integers(0, 10, size=2040)
    ds = Dataset(name="speed", task=CLASSIFICATION, X=X, y=y,
                 label_space=list(range(10)))
    per_step, marks = {}, {}
    for pid, steps in (("knn-cp", 6), ("knn-nccp", 40)):
        cfg = build_config(dict(dataset="synth-class", predictor=pid))
        pred = make_online_predictor(cfg, ds)
        for i in range(2000):
            pred.observe(X[i], int(y[i]))
        marks[pid] = [time.perf_counter()]
        for i in range(2000, 2000 + steps):
            pred.predict(X[i], 0.1)
            pred.observe(X[i], int(y[i]))
            marks[pid].append(time.perf_counter())
        per_step[pid] = (marks[pid][-1] - marks[pid][0]) / steps
    ratio = per_step["knn-cp"] / per_step["knn-nccp"]
    # knn-cp's first step fills its neighbour caches; the later ones are
    # the steady state.  Threaded BLAS moves both, so the thread variables
    # are printed too.
    cp = marks["knn-cp"]
    threads = ", ".join(f"{v}={os.environ.get(v, 'unset')}"
                        for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    timing_note = (f"per step at history 2000: knn-cp "
                   f"{per_step['knn-cp'] * 1e3:.1f} ms (first step {(cp[1] - cp[0]) * 1e3:.1f} "
                   f"ms, later {(cp[-1] - cp[1]) / (len(cp) - 2) * 1e3:.2f} ms each), knn-nccp "
                   f"{per_step['knn-nccp'] * 1e3:.2f} ms, ratio {ratio:.0f}x; {threads}")
    if ratio < 5.0:
        _fail(capsys, 9, f"{timing_note} < required 5x")
    if usps_paths is None:
        _pass(capsys, 9, timing_note + " (>= 5x); err and OE sub-checks "
              "skipped - usps files absent")
        return
    notes = [timing_note + " (>= 5x)"]
    for pid in ("knn-cp", "knn-nccp"):
        s = real_runs[("usps", pid)].summary
        if abs(s.mean_err - 0.1) > 0.01:
            _fail(capsys, 9, f"{pid} mean err {s.mean_err:.5f} outside 0.1 +/- 0.01")
        if not 0.01 <= s.oe <= 0.15:
            _fail(capsys, 9, f"{pid} OE {s.oe:.4f} outside [0.01, 0.15]")
        notes.append(f"{pid} err {s.mean_err:.4f}, OE {s.oe:.4f}")
    _pass(capsys, 9, "; ".join(notes))


# ------------------------------------------------------------- criterion 10

def test_criterion_10_sweep_shape(usps_paths, capsys):
    base = dict(predictor="icp-class", eps=0.1, delta=0.05,
                seeds=tuple(range(20)),
                cal_fractions=tuple(round(0.05 * i, 2) for i in range(1, 20)))
    if usps_paths:
        train, test = usps_paths
        cfg = build_config(dict(base, dataset="usps", train_path=train,
                                test_path=test, pool_subsample=800,
                                subsample=400))
        src = "usps (pool 800, test 400)"
    else:
        cfg = build_config(dict(base, dataset="synth-class", n=600, p=6,
                                test_fraction=0.3))
        src = "synthetic surrogate (usps files absent; 600-example class streams)"
    sweep = run_sweep(cfg)
    icp = {frac: mean for frac, m, met, mean, _, _ in sweep.rows
           if m == "icp-class" and met == "oe"}
    inccp = [mean for _f, m, met, mean, _, _ in sweep.rows
             if m == "inccp-class" and met == "oe"][0]
    wins = sum(inccp < v for v in icp.values())
    need = math.ceil(0.8 * len(icp))
    mid_min = min(v for f, v in icp.items() if 0.25 <= f <= 0.75)
    ends_ok = icp[0.05] > mid_min and icp[0.95] > mid_min
    if wins < need:
        _fail(capsys, 10, f"{src}: split-free twin beat the split predictor in "
              f"only {wins}/{len(icp)} fraction cells (need {need})")
    if not ends_ok:
        _fail(capsys, 10, f"{src}: OE at the 5%/95% fractions "
              f"({icp[0.05]:.3f}/{icp[0.95]:.3f}) does not exceed the "
              f"mid-range minimum {mid_min:.3f}")
    _pass(capsys, 10, f"{src}: twin OE {inccp:.3f} below the split predictor in "
          f"{wins}/{len(icp)} cells (need {need}); end-fraction OE "
          f"{icp[0.05]:.3f}/{icp[0.95]:.3f} above mid-range min {mid_min:.3f}")


# ------------------------------------------------------------- criterion 11

T_SPOTS = [(0.6, 1), (0.75, 1), (0.9, 2), (0.95, 2), (0.975, 3), (0.99, 3),
           (0.05, 5), (0.25, 5), (0.75, 8), (0.9, 8), (0.975, 10), (0.99, 10),
           (0.999, 4), (0.01, 12), (0.05, 20), (0.95, 30), (0.975, 50),
           (0.25, 60), (0.9, 120), (0.01, 7)]


def test_criterion_11_t_quantiles(capsys):
    worst = 0.0
    for p, dof in T_SPOTS:
        diff = abs(student_t_quantile(p, dof) - t_quantile_by_integration(p, dof))
        worst = max(worst, diff)
        if diff > 1e-3:
            _fail(capsys, 11, f"quantile({p}, dof={dof}) off by {diff:.2e} > 1e-3")
    _pass(capsys, 11, f"20 spot values within 1e-3 of the integration oracle "
          f"(worst |diff| {worst:.1e})")
