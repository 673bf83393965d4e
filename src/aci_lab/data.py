"""Datasets, train/calibration splitting, and synthetic stream generators.

Two on-disk formats are understood:

* wine quality: semicolon-separated CSV with a header row, 11
  physicochemical feature columns followed by an integer quality score;
  shipped as separate white and red files which are concatenated in a
  chosen order (the boundary between them is a natural distribution
  shift for online experiments).
* usps digits: whitespace-separated rows of 257 numbers - the digit
  label first (sometimes written as a float), then 256 grey values.

The synthetic generators produce the controlled non-exchangeable
streams used by property tests: independent Gaussian features with a
coefficient change-point (regression) or Gaussian class clusters whose
means shift mid-stream (classification).
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .core import CLASSIFICATION, REGRESSION, derive_rng
from .numerics import floor_index

WINE_EXPECTED_WHITE = 4898
WINE_EXPECTED_RED = 1599
USPS_EXPECTED_TRAIN = 7291
USPS_EXPECTED_TEST = 2007
WINE_FEATURES = 11
USPS_FEATURES = 256


@dataclass
class Dataset:
    """Feature matrix plus labels; treat as immutable once built."""

    name: str
    task: str
    X: np.ndarray
    y: np.ndarray
    label_space: list = field(default_factory=list)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.task == CLASSIFICATION:
            self.y = np.asarray(self.y, dtype=int)
            if not self.label_space:
                self.label_space = sorted(int(c) for c in np.unique(self.y))
        else:
            self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise ValueError("feature matrix and labels do not line up")
        if not np.all(np.isfinite(self.X)) or not np.all(np.isfinite(self.y)):
            raise ValueError(f"dataset {self.name} contains non-finite values")

    def __len__(self) -> int:
        return self.X.shape[0]

    def subsample(self, n: int, seed: int) -> "Dataset":
        """First n examples of a seeded shuffle (order preserved otherwise
        not meaningful; use for desk-scale runs)."""
        if not 1 <= n <= len(self):
            raise ValueError(f"cannot subsample {n} of {len(self)}")
        idx = derive_rng(seed, "subsample", self.name).permutation(len(self))[:n]
        return replace(self, name=f"{self.name}[{n}]", X=self.X[idx], y=self.y[idx])


def _read_rows(path: str, width: int, sep: str | None = None,
               header: bool = False) -> tuple[np.ndarray, list]:
    """The rows of a text table of ``width`` numbers a row, as floats, and
    each row's line number.  Fields split on ``sep`` (whitespace when None)
    and may be double-quoted; blank lines are skipped; with ``header`` the
    first line names ``width`` columns.  A wrong field count, a field that
    is no number and a file without rows raise, naming the file and line."""
    rows, linenos = [], []
    with open(path, "r", encoding="utf-8") as fh:
        if header:
            n_cols = len(fh.readline().strip().split(sep))
            if n_cols != width:
                raise ValueError(f"{path}: expected {width} columns, header has {n_cols}")
        for lineno, line in enumerate(fh, start=1 + header):
            line = line.strip()
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(parts)}")
            try:
                rows.append([float(v.strip().strip('"')) for v in parts])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float), linenos


def load_wine(white_path: str, red_path: str, order: str = "white-then-red") -> Dataset:
    """Both wine files as one regression dataset, in the given file order
    (``"white-then-red"`` or ``"red-then-white"``).

    Row counts other than the canonical 4898 white / 1599 red are
    accepted with a warning so truncated copies are visible in reports.
    """
    white, red = (_read_rows(path, WINE_FEATURES + 1, ";", header=True)[0]
                  for path in (white_path, red_path))
    if white.shape[0] != WINE_EXPECTED_WHITE or red.shape[0] != WINE_EXPECTED_RED:
        warnings.warn(
            f"wine row counts {white.shape[0]} white / {red.shape[0]} red differ "
            f"from the canonical {WINE_EXPECTED_WHITE} / {WINE_EXPECTED_RED}",
            stacklevel=2)
    tables = {"white-then-red": (white, red), "red-then-white": (red, white)}
    if order not in tables:
        raise ValueError(f"unknown order {order!r}")
    return Dataset(name=f"wine[{order}]", task=REGRESSION,
                   X=np.vstack([t[:, :WINE_FEATURES] for t in tables[order]]),
                   y=np.concatenate([t[:, WINE_FEATURES] for t in tables[order]]))


def _read_usps(path: str) -> tuple[np.ndarray, np.ndarray]:
    """A digit file's grey values and labels.  A label, written as a float
    or not, must be an integer of magnitude below 2^53."""
    rows, linenos = _read_rows(path, USPS_FEATURES + 1)
    labels = rows[:, 0]
    bad = np.flatnonzero(~(np.abs(labels) < 2.0 ** 53) | (labels != np.floor(labels)))
    if bad.size:
        raise ValueError(f"{path}:{linenos[bad[0]]}: non-integer label "
                         f"{float(labels[bad[0]])!r} (labels are integers below 2^53)")
    return rows[:, 1:].copy(), labels.astype(int)


def load_usps(train_path: str, test_path: str) -> tuple[Dataset, Dataset]:
    """The digit files as (train, test) classification datasets.  Labels
    may be written as floats ("5.0000"); they are coerced to ints."""
    (Xtr, ytr), (Xte, yte) = _read_usps(train_path), _read_usps(test_path)
    if Xtr.shape[0] != USPS_EXPECTED_TRAIN or Xte.shape[0] != USPS_EXPECTED_TEST:
        warnings.warn(
            f"usps row counts {Xtr.shape[0]} train / {Xte.shape[0]} test differ "
            f"from the canonical {USPS_EXPECTED_TRAIN} / {USPS_EXPECTED_TEST}",
            stacklevel=2)
    labels = sorted(set(ytr.tolist()) | set(yte.tolist()))
    train = Dataset(name="usps-train", task=CLASSIFICATION, X=Xtr, y=ytr,
                    label_space=labels)
    test = Dataset(name="usps-test", task=CLASSIFICATION, X=Xte, y=yte,
                   label_space=labels)
    return train, test


@dataclass(frozen=True)
class SplitPlan:
    """Reproducible train/calibration split: which indices went where."""

    seed: int
    cal_fraction: float
    proper_train_idx: np.ndarray
    calibration_idx: np.ndarray


def split_train_calibration(n: int, cal_fraction: float, seed: int) -> SplitPlan:
    """Seeded uniform shuffle of range(n); the last floor(cal_fraction * n)
    indices become the calibration part.  Either part ending up empty is
    an error - there is nothing to fit or nothing to rank against."""
    if n < 2:
        raise ValueError("need at least two examples to split")
    if not 0.0 < cal_fraction < 1.0:
        raise ValueError(f"cal_fraction {cal_fraction} outside (0, 1)")
    n_cal = floor_index(cal_fraction * n)
    if n_cal == 0 or n_cal == n:
        raise ValueError(
            f"cal_fraction {cal_fraction} leaves an empty part for n={n}")
    perm = derive_rng(seed, "split").permutation(n)
    return SplitPlan(seed=seed, cal_fraction=cal_fraction,
                     proper_train_idx=np.sort(perm[:n - n_cal]),
                     calibration_idx=np.sort(perm[n - n_cal:]))


def standardize_features(X: np.ndarray, ref: np.ndarray | None = None):
    """Column-wise (x - mean) / sd, statistics taken from ``ref`` (defaults
    to X itself).  Constant columns pass through unscaled."""
    X = np.asarray(X, dtype=float)
    ref = X if ref is None else np.asarray(ref, dtype=float)
    mu = ref.mean(axis=0)
    sd = ref.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return (X - mu) / sd


@dataclass(frozen=True)
class StreamSpec:
    """Recipe for a synthetic stream; all randomness flows from the seed."""

    kind: str  # "changepoint-regression" | "cluster-classification"
    n: int
    p: int
    seed: int
    changepoint_frac: float = 0.5
    drift: float = 1.0
    noise_scale: float = 1.0
    n_classes: int = 3
    class_sep: float = 3.5


# Largest |drift|, |class_sep| and noise_scale: 1e6 already swamps the
# unit-variance features, and below it every value the predictors square
# and sum (distances, Gram entries, x'w, Winkler scores) stays far inside
# float64 for any stream that fits in memory.
SCALE_LIMIT = 1e6
# Largest n * p and n_classes * p: 2^28 float64 values (2 GiB) in one array.
SIZE_LIMIT = 1 << 28


def make_stream(spec: StreamSpec) -> Dataset:
    if spec.n < 2 or spec.p < 1:
        raise ValueError("stream needs n >= 2 and p >= 1")
    for name, rows in (("n", spec.n), ("n_classes", spec.n_classes)):
        if rows * spec.p > SIZE_LIMIT:
            raise ValueError(f"{name} * p = {rows} * {spec.p} above {SIZE_LIMIT}")
    if not 0.0 <= spec.changepoint_frac <= 1.0:
        raise ValueError("changepoint_frac outside [0, 1]")
    for name, lo in (("drift", -SCALE_LIMIT), ("noise_scale", 0.0), ("class_sep", -SCALE_LIMIT)):
        value = getattr(spec, name)
        if not lo <= value <= SCALE_LIMIT:
            raise ValueError(f"{name} {value} outside [{lo:g}, {SCALE_LIMIT:g}]")
    if spec.kind == "changepoint-regression":
        return _changepoint_regression(spec)
    if spec.kind == "cluster-classification":
        return _cluster_classification(spec)
    raise ValueError(f"unknown stream kind {spec.kind!r}")


def _changepoint_regression(spec: StreamSpec) -> Dataset:
    """y = x'w + noise, with w switching from w1 to w2 = w1 + drift * u at
    the change-point.  drift = 0 gives an exchangeable i.i.d. control."""
    rng = derive_rng(spec.seed, "stream", spec.kind, spec.n, spec.p)
    w1 = rng.normal(size=spec.p)
    u = rng.normal(size=spec.p)
    u /= max(float(np.linalg.norm(u)), 1e-12)
    w2 = w1 + spec.drift * u
    X = rng.normal(size=(spec.n, spec.p))
    cut = int(round(spec.changepoint_frac * spec.n))
    noise = rng.normal(scale=spec.noise_scale, size=spec.n)
    y = np.concatenate([X[:cut] @ w1, X[cut:] @ w2]) + noise
    return Dataset(name=f"synth-reg[{spec.seed}]", task=REGRESSION, X=X, y=y)


def _cluster_classification(spec: StreamSpec) -> Dataset:
    """Unit-variance Gaussian clusters on scaled coordinate axes; after the
    change-point every cluster mean moves by drift * class_sep / 4 in a
    common random direction (labels keep their meaning, the geometry
    shifts)."""
    if spec.n_classes < 2:
        raise ValueError(f"n_classes {spec.n_classes} below 2: need at least two classes")
    if spec.p < spec.n_classes:
        raise ValueError("need p >= n_classes for distinct cluster axes")
    rng = derive_rng(spec.seed, "stream", spec.kind, spec.n, spec.p)
    means = np.zeros((spec.n_classes, spec.p))
    for c in range(spec.n_classes):
        means[c, c] = spec.class_sep
    shift_dir = rng.normal(size=spec.p)
    shift_dir /= max(float(np.linalg.norm(shift_dir)), 1e-12)
    shift = spec.drift * spec.class_sep / 4.0 * shift_dir
    y = rng.integers(0, spec.n_classes, size=spec.n)
    X = rng.normal(size=(spec.n, spec.p)) + means[y]
    cut = int(round(spec.changepoint_frac * spec.n))
    X[cut:] += shift
    return Dataset(name=f"synth-class[{spec.seed}]", task=CLASSIFICATION,
                   X=X, y=y, label_space=list(range(spec.n_classes)))
