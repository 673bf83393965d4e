"""Set-valued predictors and the extended significance-level contract.

A set predictor maps (history, new object, significance level eps) to a
subset of the label space: a finite set of class labels for classification,
an interval for regression.  Everything here honours the *extended*
contract, which gives the boundary levels a definite meaning:

    eps <= 0  ->  the full label space (every candidate is included)
    eps >= 1  ->  the empty set

so that an adaptively controlled eps may wander outside (0, 1) without
breaking a run.  Confidence predictors additionally produce *nested*
outputs: eps1 >= eps2 implies predict(x, eps1) is a subset of
predict(x, eps2).  All predictors in this package are confidence
predictors except the two reference baselines (coin flip, random set),
which are deliberately valid-but-non-nested.
"""

import hashlib
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy, dger

from .numerics import _SINGLE_HI

CLASSIFICATION = "classification"
REGRESSION = "regression"

_KINDS = ("labels", "all", "interval", "empty")


@dataclass(frozen=True)
class PredictionSet:
    """One prediction: a label set, a closed interval, everything, or nothing.

    ``kind`` is one of ``"labels"`` (finite set of integer class labels),
    ``"all"`` (the whole label space, whatever it is), ``"interval"``
    (closed, possibly with infinite endpoints), ``"empty"``.
    """

    kind: str
    labels: frozenset = field(default=frozenset())
    lower: float = field(default=math.nan)
    upper: float = field(default=math.nan)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown prediction-set kind {self.kind!r}")
        if self.kind == "interval":
            if math.isnan(self.lower) or math.isnan(self.upper):
                raise ValueError("interval endpoints must be numbers")
            if self.lower > self.upper:
                raise ValueError(
                    f"interval lower bound {self.lower} exceeds upper {self.upper}"
                )

    @classmethod
    def label_set(cls, labels) -> "PredictionSet":
        labels = frozenset(int(c) for c in labels)
        return cls(kind="labels", labels=labels)

    @classmethod
    def all_labels(cls) -> "PredictionSet":
        return cls(kind="all")

    @classmethod
    def interval(cls, lower: float, upper: float) -> "PredictionSet":
        return cls(kind="interval", lower=float(lower), upper=float(upper))

    @classmethod
    def full_interval(cls) -> "PredictionSet":
        return cls.interval(-math.inf, math.inf)

    @classmethod
    def empty(cls) -> "PredictionSet":
        return cls(kind="empty")

    def contains(self, y) -> bool:
        """Membership of a label (classification) or value (regression)."""
        if self.kind == "empty":
            return False
        if self.kind == "all":
            return True
        if self.kind == "labels":
            yi = int(y)
            if yi != y:
                raise ValueError(f"label {y!r} is not an integer")
            return yi in self.labels
        y = float(y)
        return self.lower <= y <= self.upper

    def size(self, n_labels: int | None = None) -> float:
        """Number of labels, or interval width.  ``"all"`` needs ``n_labels``
        for classification; without it the size is infinite."""
        if self.kind == "empty":
            return 0.0
        if self.kind == "labels":
            return float(len(self.labels))
        if self.kind == "all":
            return float(n_labels) if n_labels is not None else math.inf
        return self.upper - self.lower

    @property
    def is_infinite(self) -> bool:
        """True for an interval with an infinite endpoint (or ``"all"``)."""
        if self.kind == "interval":
            return math.isinf(self.lower) or math.isinf(self.upper)
        return self.kind == "all"

    def issubset(self, other: "PredictionSet") -> bool:
        if self.kind == "empty" or other.kind == "all":
            return True
        if other.kind == "empty":
            return self.kind == "empty"
        if self.kind == "all":
            return False
        if self.kind == "labels" and other.kind == "labels":
            return self.labels <= other.labels
        if self.kind == "interval" and other.kind == "interval":
            return self.lower >= other.lower and self.upper <= other.upper
        raise ValueError(f"cannot compare {self.kind} set with {other.kind} set")


def labels_above(scores, labels, eps: float) -> PredictionSet:
    """The set of the ``labels`` whose score (same order) strictly exceeds
    eps; nested in eps by construction."""
    return PredictionSet.label_set(np.asarray(labels)[scores > eps].tolist())


def boundary_set(eps: float, task: str) -> PredictionSet | None:
    """The forced output at boundary significance levels, else None.

    eps <= 0 yields the full label space (an unbounded interval for
    regression); eps >= 1 yields the empty set.  Levels strictly inside
    (0, 1) are the predictor's business.
    """
    if task not in (CLASSIFICATION, REGRESSION):
        raise ValueError(f"unknown task {task!r}")
    if eps <= 0.0:
        return PredictionSet.all_labels() if task == CLASSIFICATION else PredictionSet.full_interval()
    if eps >= 1.0:
        return PredictionSet.empty()
    return None


class SetPredictor(ABC):
    """Online set predictor over a growing history (single-writer).

    Subclasses implement ``_predict`` for eps strictly inside (0, 1);
    the boundary behaviour is handled here once.  ``observe`` appends the
    revealed example to the history.  Confidence predictors (everything
    except the baselines) must make ``_predict`` nested in eps.
    """

    task: str = CLASSIFICATION

    def __init__(self):
        self._dim: int | None = None

    def predict(self, x, eps: float) -> PredictionSet:
        x = self._check_x(x)
        forced = boundary_set(float(eps), self.task)
        if forced is not None:
            return forced
        return self._predict(x, float(eps))

    def observe(self, x, y) -> None:
        x = self._check_x(x)
        if not math.isfinite(float(y)):
            raise ValueError(f"label {y!r} is not finite")
        self._observe(x, y)

    def observe_many(self, X, y) -> None:
        """``observe`` each row of X with its label, in order, after checking
        the block whole: the first bad row raises what ``observe`` raises
        for it, and no row is observed."""
        X, y = self._checked_block(X, y)
        for xi, yi in zip(X, y):
            self.observe(xi, yi)

    def _checked_block(self, X, y, ok=True):
        """X and y as arrays, refused as ``observe_many`` says if a row is
        bad or not ``ok`` (a mask a subclass adds for its own labels)."""
        X, y = np.asarray(X, dtype=float), np.asarray(y)
        if X.ndim != 2 or y.shape != X.shape[:1]:
            raise ValueError(f"expected a 2-D block and one label per row, got shapes "
                             f"{X.shape} and {y.shape}")
        ok = ok & np.isfinite(X).all(axis=1) & np.isfinite(y) & (self._dim in (None, X.shape[1]))
        for i in np.flatnonzero(~ok)[:1]:
            self.observe(X[i], y[i])  # a bad row: raises
        return X, y

    def reserve(self, rows: int) -> None:
        """Room for ``rows`` examples in the history, if the predictor keeps one."""
        if hasattr(self, "_hist"):
            self._hist.reserve(rows)

    @abstractmethod
    def _predict(self, x: np.ndarray, eps: float) -> PredictionSet: ...

    @abstractmethod
    def _observe(self, x: np.ndarray, y) -> None: ...

    def _check_x(self, x) -> np.ndarray:
        x = check_features(x, self._dim)
        self._dim = x.shape[0]
        return x


def check_features(x, dim: int | None = None) -> np.ndarray:
    """``x`` as a 1-D array of finite features (``dim`` of them if given)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"feature vector must be 1-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("feature vector contains non-finite values")
    if dim is not None and x.shape[0] != dim:
        raise ValueError(f"expected {dim} features, got {x.shape[0]}")
    return x


def history_inputs(hist_X, hist_y, x, k: int | None = None):
    """Check a one-shot route's inputs: a non-empty, finite 2-D history,
    labels that match its rows, k >= 1 if given, and x as features at the
    history's width; ``(hist_X, hist_y, x)`` as arrays."""
    hist_X = np.asarray(hist_X, dtype=float)
    hist_y = np.asarray(hist_y)
    if hist_X.ndim != 2 or hist_X.shape[0] == 0:
        raise ValueError(f"history must be a non-empty 2-D array, got shape {hist_X.shape}")
    if not np.isfinite(hist_X).all():
        raise ValueError("history contains non-finite values")
    if hist_y.shape != (hist_X.shape[0],):
        raise ValueError("history labels do not match history rows")
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return hist_X, hist_y, check_features(x, hist_X.shape[1])


def label_index(hist_y, label_space):
    """The sorted labels of ``label_space`` and each history label's index
    into them; a history label outside the space raises."""
    labels = np.unique(label_space)
    is_lab = hist_y == labels[:, None]
    outside = hist_y[~is_lab.any(axis=0)]
    if outside.size:
        raise ValueError(f"history label {outside[0]} outside the label space")
    return labels, is_lab.argmax(axis=0)


class ExampleBuffer:
    """Append-only history store with amortised-doubling growth.

    Every per-row array grows here, at one capacity: X, y and the
    ``columns`` named at construction (name -> row dtype, ``(float,
    shape)`` for a row of that shape), which their owners fill, and the
    ``wide`` ones (name -> dtype), whose rows have X's width and which,
    like X, are made when the first row fixes it.  The store hands out
    zero-copy views of the rows held, ``X``, ``y`` and ``buf[name]``,
    valid until the next ``append``, ``extend`` or ``reserve``.
    """

    def __init__(self, label_dtype=float, wide=None, **columns):
        self._rows = {"y": np.empty(8, dtype=label_dtype),
                      **{name: np.empty(8, dtype) for name, dtype in columns.items()}}
        self._wide = dict(wide or {})
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, name) -> np.ndarray:
        return self._rows[name][:self._n]

    @property
    def X(self) -> np.ndarray:
        if "X" not in self._rows:
            raise ValueError("history is empty")
        return self._rows["X"][:self._n]

    @property
    def y(self) -> np.ndarray:
        return self._rows["y"][:self._n]

    def append(self, x, y) -> None:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"feature vector must be 1-D, got shape {x.shape}")
        rows = self._rows  # reserve replaces the arrays, not the dict
        if "X" not in rows or rows["X"].shape[1] != x.shape[0]:
            self._fit_width(x.shape[0])
        if self._n == rows["y"].shape[0]:
            self.reserve(2 * self._n)
        rows["X"][self._n] = x
        rows["y"][self._n] = y
        self._n += 1

    def extend(self, X, y) -> None:
        """Append the rows of the 2-D X with their labels y in one write."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or np.shape(y) != X.shape[:1]:
            raise ValueError(f"expected a 2-D block and one label per row, got shapes "
                             f"{X.shape} and {np.shape(y)}")
        self._fit_width(X.shape[1])
        n = self._n + X.shape[0]
        self.reserve(n)
        self._rows["X"][self._n:n] = X
        self._rows["y"][self._n:n] = y
        self._n = n

    def _fit_width(self, p: int) -> None:
        """Make X and the wide columns p wide, or refuse a width other than theirs."""
        rows = self._rows
        if "X" not in rows:
            for name, dtype in {"X": float, **self._wide}.items():
                rows[name] = np.empty((rows["y"].shape[0], p), dtype)
        elif rows["X"].shape[1] != p:
            raise ValueError(f"expected {rows['X'].shape[1]} features, got {p}")

    def reserve(self, rows: int) -> None:
        """Room for ``rows`` examples in every per-row array, so appends copy nothing."""
        if rows > self._rows["y"].shape[0]:
            for name, a in self._rows.items():
                self._rows[name] = np.empty((rows, *a.shape[1:]), a.dtype)
                self._rows[name][:self._n] = a[:self._n]


class KnnHistoryPredictor(SetPredictor):
    """Online k-NN classifier plumbing: neighbour count, declared label
    space, an integer-labelled history with each row's index into the
    sorted labels ``_labels`` ("lab"), squared norm ("sq") and float32
    copy ("x32") for the Gram screen (``_row_norms``); ``observe_many``
    loads the warm-up in one write.  Subclasses supply ``_predict`` and
    name their own per-row ``columns`` of the history."""

    task = CLASSIFICATION

    def __init__(self, k: int, label_space, **columns):
        super().__init__()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self.label_space = [int(c) for c in label_space]
        if not self.label_space:
            raise ValueError("label space is empty")
        self._labels = np.unique(self.label_space)
        self._index = {int(c): i for i, c in enumerate(self._labels)}
        self._hist = ExampleBuffer(label_dtype=int, wide={"x32": np.float32},
                                   lab=np.intp, sq=float, **columns)
        # Rows [0, _normed) of the history's "sq" and "x32" are filled.
        self._normed = 0

    def _observe(self, x, y):
        yi, li = self._check_label(y)
        self._hist.append(x, yi)
        self._hist["lab"][-1] = li

    def observe_many(self, X, y) -> None:
        """``SetPredictor.observe_many`` in one write; label indices, norms
        and copies fill in bulk."""
        labels, y = self._labels, np.asarray(y)
        li = np.minimum(np.searchsorted(labels, y), labels.shape[0] - 1)
        # Equal to a label: an integer in the label space.
        X, y = self._checked_block(X, y, labels[li] == y)
        self._dim = X.shape[1]
        n = len(self._hist)
        self._hist.extend(X, labels[li])
        self._hist["lab"][n:] = li
        self._row_norms()

    def _row_norms(self) -> np.ndarray:
        """Squared norms of the history rows, filled with their float32
        copies for the rows appended since the last call only, so
        ``observe`` stays a plain append; rows the single route skips get
        no copy, whose cast could overflow."""
        sq, done = self._hist["sq"], self._normed
        if done < sq.shape[0]:
            X = self._hist.X[done:]
            sq[done:] = np.einsum("ij,ij->i", X, X)
            np.copyto(self._hist["x32"][done:], X, where=(sq[done:] < _SINGLE_HI)[:, None])
            self._normed = sq.shape[0]
        return sq

    def _check_label(self, y) -> tuple[int, int]:
        """The label as an integer and its index into ``_labels``."""
        yi = int(y)
        if yi != y:
            raise ValueError(f"label {y!r} is not an integer")
        if yi not in self._index:
            raise ValueError(f"label {yi} outside the declared label space")
        return yi, self._index[yi]


class RidgeHistoryPredictor(SetPredictor):
    """Online regression plumbing: ridge coefficient ``a`` >= 0, a real-labelled
    history and its normal equations ``_gram`` = X'X and ``_xty`` = X'y, kept
    up to date by ``observe``.  Subclasses supply ``_predict``."""

    task = REGRESSION

    def __init__(self, a: float = 0.0):
        super().__init__()
        if not 0.0 <= a < math.inf:
            raise ValueError(f"ridge coefficient must be finite and >= 0, got {a}")
        self.a = float(a)
        self._hist = ExampleBuffer()
        self._gram = self._xty = None

    def _observe(self, x, y):
        y = float(y)
        self._hist.append(x, y)
        if self._gram is None:
            self._gram = np.zeros((x.shape[0], x.shape[0]), order="F")
            self._xty = np.zeros(x.shape[0])
        # G += xx' and X'y += y*x in place: BLAS beats numpy's outer product.
        self._gram = dger(1.0, x, x, a=self._gram, overwrite_a=1)
        self._xty = daxpy(x, self._xty, a=y)


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Independent generator for a (seed, purpose...) pair.

    Each distinct label tuple gives a stream that is stable across runs
    and platforms, so trials and purposes never share randomness.
    """
    entropy = [int(seed) & 0xFFFFFFFF]
    for lab in labels:
        digest = hashlib.sha256(str(lab).encode("utf-8")).digest()
        entropy.append(int.from_bytes(digest[:4], "big"))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def coin_flip_predict(eps: float, rng: np.random.Generator,
                      task: str = CLASSIFICATION) -> PredictionSet:
    """Empty set with probability eps, else the full label space.

    Exactly valid at every fixed level and under adaptive control, but
    useless: the family is not nested across eps.
    """
    forced = boundary_set(eps, task)
    if forced is not None:
        return forced
    if rng.random() < eps:
        return PredictionSet.empty()
    return PredictionSet.all_labels() if task == CLASSIFICATION else PredictionSet.full_interval()


def random_set_predict(eps: float, label_space, rng: np.random.Generator) -> PredictionSet:
    """Independently keep each label with probability 1 - eps.

    Marginally valid (each label, the true one included, is dropped with
    probability eps) yet non-nested: a fresh draw at a smaller eps can
    easily fail to contain a draw at a larger one.
    """
    labels = [int(c) for c in label_space]
    if not labels:
        raise ValueError("label space is empty")
    forced = boundary_set(eps, CLASSIFICATION)
    if forced is not None:
        return forced
    keep = rng.random(len(labels)) >= eps
    return PredictionSet.label_set(c for c, k in zip(labels, keep) if k)


class CoinFlipPredictor(SetPredictor):
    """History-free baseline wrapping :func:`coin_flip_predict`."""

    def __init__(self, rng: np.random.Generator, task: str = CLASSIFICATION):
        super().__init__()
        self.task = task
        self._rng = rng

    def _predict(self, x, eps):
        return coin_flip_predict(eps, self._rng, self.task)

    def _observe(self, x, y):
        pass


class RandomSetPredictor(SetPredictor):
    """History-free baseline wrapping :func:`random_set_predict`."""

    task = CLASSIFICATION

    def __init__(self, label_space, rng: np.random.Generator):
        super().__init__()
        self._labels = [int(c) for c in label_space]
        self._rng = rng

    def _predict(self, x, eps):
        return random_set_predict(eps, self._labels, self._rng)

    def _observe(self, x, y):
        pass
