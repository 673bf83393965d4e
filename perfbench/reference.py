"""Frozen reference outputs for the benchmark's correctness check.

Everything here restates the arithmetic of aci-lab 0.1.0, the version the
benchmark was written against, without importing the package.  Later
changes under ``src/`` are therefore checked against fixed behaviour, not
against themselves.  The reference regenerates each run's inputs from its
configuration, recomputes the prediction set at every step using the
level the run itself used there, and compares:

* the error indicator and the label-set size exactly;
* interval widths and Winkler scores to a relative tolerance of
  ``WIDTH_RTOL`` (the reference solves the same systems by the same
  factorisation, and takes the Student-t quantile from ``scipy.special``
  rather than by bisection, so the last digits may differ).

Whole-run checks need no recomputation and cover every step: the level
recurrence, level confinement to [-gamma, 1 + gamma], and the telescoping
bound on the mean error.
"""

import hashlib
import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import stdtrit

WIDTH_RTOL = 1e-6

CLASSIFICATION = "classification"
REGRESSION = "regression"

# Defaults of the 0.1.0 configuration that the benchmark's configs leave unset.
CHANGEPOINT_FRAC = 0.5
NOISE_SCALE = 1.0
WINKLER_CLAMP = (0.001, 0.999)


# ---------------------------------------------------------------- inputs

def derive_rng(seed, *labels):
    entropy = [int(seed) & 0xFFFFFFFF]
    for lab in labels:
        digest = hashlib.sha256(str(lab).encode("utf-8")).digest()
        entropy.append(int.from_bytes(digest[:4], "big"))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def stream(cfg):
    """(X, y, label_space, task) of the synthetic stream a config names."""
    n, p, seed = cfg["n"], cfg["p"], cfg["seed"]
    cut = int(round(CHANGEPOINT_FRAC * n))
    if cfg["dataset"] == "synth-reg":
        kind = "changepoint-regression"
        rng = derive_rng(seed, "stream", kind, n, p)
        w1 = rng.normal(size=p)
        u = rng.normal(size=p)
        u /= max(float(np.linalg.norm(u)), 1e-12)
        w2 = w1 + cfg["drift"] * u
        X = rng.normal(size=(n, p))
        noise = rng.normal(scale=NOISE_SCALE, size=n)
        y = np.concatenate([X[:cut] @ w1, X[cut:] @ w2]) + noise
        return X, y, [], REGRESSION
    kind = "cluster-classification"
    n_classes, sep = cfg["n_classes"], cfg["class_sep"]
    rng = derive_rng(seed, "stream", kind, n, p)
    means = np.zeros((n_classes, p))
    for c in range(n_classes):
        means[c, c] = sep
    shift_dir = rng.normal(size=p)
    shift_dir /= max(float(np.linalg.norm(shift_dir)), 1e-12)
    y = rng.integers(0, n_classes, size=n)
    X = rng.normal(size=(n, p)) + means[y]
    X[cut:] += cfg["drift"] * sep / 4.0 * shift_dir
    return X, y, list(range(n_classes)), CLASSIFICATION


def offline_split(cfg):
    """(train X, train y, test X, test y) of an offline run."""
    X, y, labels, task = stream(cfg)
    n_test = max(1, int(round(cfg["test_fraction"] * len(y))))
    perm = derive_rng(cfg["seed"], "offline-split", cfg["dataset"]).permutation(len(y))
    tr, te = np.sort(perm[:-n_test]), np.sort(perm[-n_test:])
    return X[tr], y[tr], X[te], y[te], labels, task


def calibration_split(n, cal_fraction, seed):
    n_cal = int(math.floor(cal_fraction * n))
    perm = derive_rng(seed, "split").permutation(n)
    return np.sort(perm[:n - n_cal]), np.sort(perm[n - n_cal:])


# ------------------------------------------------------------ set outputs
# A set is ("labels", frozenset) | ("all",) | ("empty",) | ("interval", lo, hi).

def boundary(eps, task):
    if eps <= 0.0:
        return ("all",) if task == CLASSIFICATION else ("interval", -math.inf, math.inf)
    if eps >= 1.0:
        return ("empty",)
    return None


def ceil_index(t):
    return int(math.ceil(t - 1e-9))


def floor_index(t):
    return int(math.floor(t + 1e-9))


def _k_smallest(rows, k):
    """Ascending k smallest per row, +inf padded to width k."""
    if k < rows.shape[1]:
        rows = np.partition(rows, k - 1, axis=1)[:, :k]
    rows = np.sort(rows, axis=1)
    if rows.shape[1] < k:
        rows = np.hstack([rows, np.full((rows.shape[0], k - rows.shape[1]), np.inf)])
    return rows


def _finite_mean(rows):
    """Row means over finite entries; NaN where a row has none."""
    finite = np.isfinite(rows)
    cnt = finite.sum(axis=1)
    with np.errstate(invalid="ignore"):
        return np.where(cnt > 0, np.where(finite, rows, 0.0).sum(axis=1) / cnt, np.nan)


def _ratio(same, diff):
    """k-NN strangeness ratio with the missing-side conventions."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = same / diff
    r = np.where(diff == 0.0, np.inf, r)
    r = np.where(same == 0.0, 0.0, r)
    r = np.where(np.isnan(diff), 0.0, r)
    return np.where(np.isnan(same), np.inf, r)


class KnnCp:
    """Full-CP k-NN over the stream ``X, y`` after ``warmup`` examples:
    keep the labels whose completion's p-value exceeds eps.  A bag
    member's strangeness is the mean of its k nearest same-label distances
    over the mean of its k nearest other-label distances.  Each member's k
    nearest distances on either side are kept as the history grows, so
    stepping through every step costs about as much as one rescoring.
    Steps must be asked for in increasing order."""

    def __init__(self, X, y, warmup, k, labels):
        self.X, self.y, self.w, self.k, self.labels = X, y, warmup, k, labels
        self.near = {True: np.full((len(y), k), np.inf), False: np.full((len(y), k), np.inf)}
        self.size = 0

    def _add(self, j):
        d = np.sqrt(np.sum((self.X[:j] - self.X[j]) ** 2, axis=1))
        is_same = self.y[:j] == self.y[j]
        for side, mask in ((True, is_same), (False, ~is_same)):
            rows = self.near[side][:j]
            rows[mask] = _k_smallest(np.hstack([rows[mask], d[mask, None]]), self.k)
            self.near[side][j] = _k_smallest(np.where(mask, d, np.inf)[None, :], self.k)[0]

    def __call__(self, t, eps):
        forced = boundary(eps, CLASSIFICATION)
        if forced:
            return forced
        n = self.w + t
        while self.size < n:
            self._add(self.size)
            self.size += 1
        hy, k = self.y[:n], self.k
        hx = np.sqrt(np.sum((self.X[:n] - self.X[n]) ** 2, axis=1))
        near_same, near_diff = self.near[True][:n], self.near[False][:n]
        with_x = lambda rows: _k_smallest(np.hstack([rows, hx[:, None]]), k)
        kept = []
        for lab in self.labels:
            is_same = hy == lab
            s_rows = np.where(is_same[:, None], with_x(near_same), near_same)
            d_rows = np.where(is_same[:, None], near_diff, with_x(near_diff))
            alphas = _ratio(_finite_mean(s_rows), _finite_mean(d_rows))
            own = _k_smallest(np.where(is_same, hx, np.inf)[None, :], k)
            own_diff = _k_smallest(np.where(is_same, np.inf, hx)[None, :], k)
            alpha_n = _ratio(_finite_mean(own), _finite_mean(own_diff))[0]
            if (np.count_nonzero(alphas >= alpha_n) + 1) / (n + 1) > eps:
                kept.append(lab)
        return ("labels", frozenset(kept))


def knn_vote(hX, hy, x, eps, k, labels):
    """Labels whose share of the k nearest votes exceeds eps (earlier
    index wins ties)."""
    forced = boundary(eps, CLASSIFICATION)
    if forced:
        return forced
    d = np.sqrt(np.sum((hX - x) ** 2, axis=1))
    kk = min(k, len(hy))
    votes = hy[np.argsort(d, kind="stable")[:kk]]
    return ("labels", frozenset(c for c in labels if np.count_nonzero(votes == c) / kk > eps))


def crr(hX, hy, x, eps):
    """Conformalised (a = 0) ridge regression interval."""
    forced = boundary(eps, REGRESSION)
    if forced:
        return forced
    X = np.vstack([hX, x[None, :]])
    n = X.shape[0]
    factor = cho_factor(X.T @ X)
    v = np.append(hy, 0.0)
    A = v - X @ cho_solve(factor, X.T @ v)
    B = -(X @ cho_solve(factor, X[-1]))
    B[-1] += 1.0
    good = B[-1] > B[:-1]
    crit = np.zeros(n - 1)
    crit[good] = (A[:-1][good] - A[-1]) / (B[-1] - B[:-1][good])
    jl = floor_index(0.5 * eps * n)
    ju = ceil_index((1.0 - 0.5 * eps) * n)
    lower = np.sort(np.where(good, crit, -np.inf))[jl - 1] if jl >= 1 else -math.inf
    upper = np.sort(np.where(good, crit, np.inf))[ju - 1] if ju <= n - 1 else math.inf
    return ("interval", float(lower), float(upper))


def ols(hX, hy, x, eps):
    """Least-squares interval; the whole line when it carries no information."""
    forced = boundary(eps, REGRESSION)
    if forced:
        return forced
    m, p = hX.shape
    full = ("interval", -math.inf, math.inf)
    if m - p < 1:
        return full
    try:
        factor = cho_factor(hX.T @ hX)
    except np.linalg.LinAlgError:
        return full
    d = np.abs(np.diag(factor[0]))
    if not np.all(d > 0.0) or (float(d.max()) / float(d.min())) ** 2 > 1e12:
        return full
    w = cho_solve(factor, hX.T @ hy)
    resid = hy - hX @ w
    sigma = math.sqrt(max(float(resid @ resid), 0.0) / (m - p))
    leverage = float(x @ cho_solve(factor, x))
    half = float(stdtrit(m - p, 1.0 - 0.5 * eps)) * sigma * math.sqrt(max(1.0 + leverage, 0.0))
    yhat = float(x @ w)
    return ("interval", yhat - half, yhat + half)


def online_reference(cfg):
    """step, eps -> reference set, for an online run of ``cfg``."""
    X, y, labels, _task = stream(cfg)
    w, pid = cfg["warmup"], cfg["predictor"]
    if pid == "knn-cp":
        return KnnCp(X, y, w, cfg["k"], labels)
    if pid == "knn-nccp":
        return lambda t, eps: knn_vote(X[:w + t], y[:w + t], X[w + t], eps, cfg["k"], labels)
    fn = {"crr": crr, "ols-nccp": ols}[pid]
    return lambda t, eps: fn(X[:w + t], y[:w + t], X[w + t], eps)


def _vote_shares(trX, trY, X, k, labels):
    d2 = (np.sum(X * X, axis=1)[:, None] + np.sum(trX * trX, axis=1)[None, :]
          - 2.0 * X @ trX.T)
    votes = trY[np.argsort(d2, axis=1, kind="stable")[:, :k]]
    return np.stack([(votes == c).sum(axis=1) / k for c in labels], axis=1)


def _neighbour_labels(trX, trY, x, k):
    d = np.sqrt(np.sum((trX - x) ** 2, axis=1))
    return trY[np.argsort(d, kind="stable")[:k]]


def _quantile(values, q):
    arr = np.sort(values)
    return float(arr[min(max(ceil_index(q * len(arr)), 1), len(arr)) - 1])


def offline_reference(cfg):
    """step, eps -> reference set, for an offline run of ``cfg``."""
    trX, trY, teX, teY, labels, task = offline_split(cfg)
    pid, k = cfg["predictor"], cfg["k"]
    if pid.startswith("icp"):
        proper, cal = calibration_split(len(trY), cfg["cal_fraction"], cfg["seed"])
        pX, pY, cX, cY = trX[proper], trY[proper], trX[cal], trY[cal]
        n_cal = len(cY)
    if pid == "icp-class":
        shares = _vote_shares(pX, pY, cX, k, labels)
        cal_sorted = np.sort(1.0 - shares[np.arange(n_cal), cY])

        def rule(t, eps):
            alphas = 1.0 - _vote_shares(pX, pY, teX[t:t + 1], k, labels)[0]
            pv = (n_cal - np.searchsorted(cal_sorted, alphas, side="left") + 1.0) / (n_cal + 1.0)
            return ("labels", frozenset(c for c, v in zip(labels, pv) if v > eps))
    elif pid == "icp-reg":
        cal_sorted = np.sort([abs(yv - np.mean(_neighbour_labels(pX, pY, xv, k)))
                              for xv, yv in zip(cX, cY)])

        def rule(t, eps):
            idx = ceil_index((1.0 - eps) * (n_cal + 1))
            if idx > n_cal:
                return ("interval", -math.inf, math.inf)
            point = float(np.mean(_neighbour_labels(pX, pY, teX[t], k)))
            q = float(cal_sorted[max(idx, 1) - 1])
            return ("interval", point - q, point + q)
    elif pid == "inccp-class":
        def rule(t, eps):
            shares = _vote_shares(trX, trY, teX[t:t + 1], k, labels)[0]
            return ("labels", frozenset(c for c, s in zip(labels, shares) if s > eps))
    else:
        def rule(t, eps):
            nb = _neighbour_labels(trX, trY, teX[t], k)
            return ("interval", _quantile(nb, 0.5 * eps), _quantile(nb, 1.0 - 0.5 * eps))

    return lambda t, eps: boundary(eps, task) or rule(t, eps)


def expected_steps(cfg, offline):
    if offline:
        return max(1, int(round(cfg["test_fraction"] * cfg["n"])))
    return cfg["n"] - cfg["warmup"]


def observed(cfg, offline):
    """The true label of every controlled step, in order."""
    if offline:
        return offline_split(cfg)[3]
    return stream(cfg)[1][cfg["warmup"]:]


# ---------------------------------------------------------------- records

def record(ps, y, eps, task, n_labels):
    """(err, set size or width, winkler) of one step, 0.1.0 conventions."""
    kind = ps[0]
    if task == CLASSIFICATION:
        hit = kind == "all" or (kind == "labels" and int(y) in ps[1])
        size = len(ps[1]) if kind == "labels" else (n_labels if kind == "all" else 0)
        return int(not hit), float(size), None
    if kind == "empty":
        return 1, 0.0, math.inf
    lo, hi = ps[1], ps[2]
    err = int(not lo <= y <= hi)
    if math.isinf(lo) or math.isinf(hi):
        return err, hi - lo, math.inf
    eps_w = min(max(eps, WINKLER_CLAMP[0]), WINKLER_CLAMP[1])
    return err, hi - lo, (hi - lo) + 2.0 * max(lo - y, y - hi, 0.0) / eps_w


def _close(a, b):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= WIDTH_RTOL * max(abs(a), abs(b), 1e-300)


def check_steps(records, reference, ys, task, n_labels):
    """Problems found comparing every step's record with the reference."""
    problems = []
    for t, r in enumerate(records):
        err, size, wink = record(reference(t, r.eps_used), ys[t], r.eps_used, task, n_labels)
        if r.err != err:
            problems.append(f"step {t}: err {r.err}, reference {err}")
        elif task == CLASSIFICATION and r.set_size_or_width != size:
            problems.append(f"step {t}: set size {r.set_size_or_width}, reference {size}")
        elif task == REGRESSION and not (_close(r.set_size_or_width, size)
                                         and _close(r.winkler, wink)):
            problems.append(f"step {t}: width/winkler {r.set_size_or_width}/{r.winkler}, "
                            f"reference {size}/{wink}")
    return problems


def gamma_for(cfg, n_steps):
    if cfg.get("gamma") is not None:
        return float(cfg["gamma"])
    m = max(cfg["eps"], 1.0 - cfg["eps"])
    return m / (cfg["delta"] * n_steps - 1.0)


def check_control(result, cfg, n_steps):
    """Level recurrence, confinement and the telescoping bound, every step."""
    recs = result.records
    if len(recs) != n_steps:
        return [f"{len(recs)} steps, expected {n_steps}"]
    gamma, target = gamma_for(cfg, n_steps), float(cfg["eps"])
    problems = []
    if result.gamma != gamma:
        problems.append(f"gamma {result.gamma!r}, expected {gamma!r}")
    eps = lo = hi = target
    for t, r in enumerate(recs):
        if r.step != t or r.eps_used != eps:
            problems.append(f"step {t}: level {r.eps_used!r}, recurrence gives {eps!r}")
            break
        eps = eps + gamma * (target - r.err)
        lo, hi = min(lo, eps), max(hi, eps)
    if (result.eps_min, result.eps_max) != (lo, hi):
        problems.append(f"level range {result.eps_min}..{result.eps_max}, records give {lo}..{hi}")
    if not (-gamma <= lo and hi <= 1.0 + gamma):
        problems.append(f"level range {lo}..{hi} leaves [-{gamma}, 1 + {gamma}]")
    mean_err = sum(r.err for r in recs) / n_steps
    bound = (max(target, 1.0 - target) + gamma) / (gamma * n_steps)
    if not abs(target - mean_err) <= bound * (1.0 + 1e-12) + 1e-15:
        problems.append(f"|{target} - {mean_err}| exceeds bound {bound}")
    if not result.summary.bound_satisfied or result.summary.mean_err != mean_err:
        problems.append("summary disagrees with the records")
    return problems


def aggregate(values):
    """Mean and 95% normal half-width over trials (ddof 1)."""
    arr = np.asarray(values, dtype=float)
    return float(np.mean(arr)), 1.96 * float(np.std(arr, ddof=1)) / math.sqrt(len(arr))


def check_sweep_rows(rows, cells, predictor, twin, seeds, fractions):
    """The sweep's aggregated rows against the frozen aggregation of its cells."""
    expected = []
    for frac, method in [(f, predictor) for f in fractions] + [(None, twin)]:
        sums = [cells[(method, frac, s)] for s in seeds]
        for name in ("mean_err", "oe", "mean_winkler_finite", "mean_width_finite", "frac_inf"):
            vals = [getattr(s, name) for s in sums]
            if any(v is None for v in vals):
                continue
            expected.append((frac, method, name) + aggregate(vals) + (len(vals),))
    if len(rows) != len(expected):
        return [f"{len(rows)} sweep rows, expected {len(expected)}"]
    for got, want in zip(rows, expected):
        if got[:3] != want[:3] or got[5] != want[5] or not (
                _close(got[3], want[3]) and _close(got[4], want[4])):
            return [f"sweep row {got} differs from {want}"]
    return []
