"""Binary threshold trees: the one tree class, grow loop and router shared by
the classification tree, the forest and boosting, plus the gini split search.

Split candidates are the midpoints of consecutive distinct sorted feature
values; rows with value <= threshold route left. A midpoint that does not
keep the lower value left and the upper value right (it rounds up onto the
upper of two adjacent doubles, or their sum overflows) is no candidate.
The candidate maximizing the weighted impurity decrease wins; ties break to
the lowest feature index, then the lowest threshold. The winner among
near-tied candidates is decided with exact integer arithmetic so the choice
matches a brute-force enumeration bit for bit at any sample size.

Cost: a fit sorts each feature once, with one stable argsort per feature,
into one buffer the fit owns. Each node then holds, per feature, its rows in
(value, row id) order, as one range of that buffer, and a split partitions
the range stably in place with one go-left mask, so a node never sorts
values and never holds its rows beside its children's. Its search reads
each feature's sorted rows in chunks of bounded size (_SCAN_CELLS), so a fit
allocates about its presort plus a few hundred KB at any table size, and
near-tied candidates are made one at a time. A chunk scores only the
boundaries that may be best (boundary points, below): one pass over the
rows' class ids finds the ends of the class runs, and the class counts left
of each kept boundary come from a running sum of the runs' lengths, so the
work after that pass grows with the number of runs, not of rows. A chunk of
at most _ALL_BOUNDARIES boundaries scores every one that can split, with
class counts from a running one-hot sum: that few rows cost fewer numpy
calls that way. The square sums of class counts are exact int64 integers.
While below 2**53, which holds for any node of fewer than about 9e7 rows,
they equal the float square sums a per-class count matrix gives, so the
near-tie window and the exact comparison see the same numbers and the search
stays exact.

Boundary points: the best cut never lies strictly inside a run of rows of
one class (Fayyad and Irani, Machine Learning 8, 1992, for entropy; Elomaa
and Rousu, Machine Learning 36, 1999, for gini). Take a maximal run of class
c in a node's sorted rows, and the boundaries from the one before its first
row through the one after its last: stepping along them moves k = 0, 1, ...
rows of class c to the left side and changes nothing else. With a rows and
class counts L on the left and b rows and R on the right at k = 0, and p = a
- L_c and q = b - R_c the rows of other classes on each side, (L_c + k)^2 /
(a + k) = (a + k) - 2p + p^2 / (a + k), and likewise on the right, so the
score L2 / nl + R2 / nr is

    S(k) = n - 2p - 2q + A / (a + k) + B / (b - k),

with A = p^2 + sum_{d != c} L_d^2 and B = q^2 + sum_{d != c} R_d^2. A node
that is searched holds a class other than c (a pure node is a leaf), so p >
0 or q > 0, and S is strictly convex in k. On any set of the run's
boundaries, such as those that can split and are legal, S is then strictly
below the larger of its values at the set's first and last member at every
member in between: no boundary in between can be best or tie the best. So
a chunk keeps, of each such range, the first and the last boundary that can
split and is legal, and its exact winner, ties and strict-improvement test
are those of a scan of every boundary; the near-tie window's proof
(``_window_floor``) holds for any set of boundaries that holds the exact
best.

Split cache: a node's split depends only on its rows and the leaf size, so
gini fits on one training set can share their node searches. Every such fit
grows from the same rows, so a node's split path from the root (its parent's
path plus the parent's feature, threshold and side) names its rows exactly.
A boundary is legal under leaf size l when its smaller side holds at least l
rows, so the windows of legal boundaries nest as l grows. The argmax over
the window of l, while legal under l', is then the exact argmax over the
narrower window too, exact ties included (the lowest (feature, threshold)
among the ties is already the one found); and where no split strictly
improves in the wider window, none does in the narrower one. So a search
under l whose split has smaller side m holds for every leaf size in [l, m]
(for every leaf size from l on when no split improves).

A ``SplitCache`` keeps, per path, each search with the leaf sizes [l, m] it
holds for, and searches a node again only under a leaf size that none of
them covers. A cache made with ``presort`` (the tuning fits) also sorts its
table once, for each fit to copy. A fit runs its own purity, depth and
split-gate checks before it looks a node up, so the cache changes how much a
fit searches, never the tree it grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..dataset import ColumnarTable
from ..errors import DataError


@dataclass(frozen=True)
class TreeHyperparams:
    """Growth limits and pruning strength.

    max_depth None means unbounded. min_samples_leaf may not exceed
    min_samples_split, otherwise the split-size gate would be unreachable.
    """

    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    ccp_alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.max_depth is not None and self.max_depth < 1:
            raise DataError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise DataError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.min_samples_leaf < 1:
            raise DataError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if self.min_samples_leaf > self.min_samples_split:
            raise DataError(
                "min_samples_leaf must not exceed min_samples_split "
                f"({self.min_samples_leaf} > {self.min_samples_split})"
            )
        if not self.ccp_alpha >= 0.0:
            raise DataError(f"ccp_alpha must be >= 0, got {self.ccp_alpha}")


class Tree:
    """Binary threshold tree as node arrays in preorder.

    ``value[i]`` is node i's payload: its class-count vector in a gini tree
    (a row of an int matrix), its additive leaf weight in a boosting tree.
    ``feature[i]`` is the split feature, -1 at a leaf; rows with value <=
    ``threshold[i]`` route left. Node 0 is the root, an internal node's left
    child is the next node and its right child follows the left subtree.
    ``right`` (-1 at a leaf) and ``node_depth`` are derived from that layout.
    """

    __slots__ = ("value", "feature", "threshold", "right", "node_depth")

    def __init__(self, value: np.ndarray, feature: np.ndarray, threshold: np.ndarray) -> None:
        self.value = np.asarray(value)
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        n = self.feature.size
        self.right = np.full(n, -1, dtype=np.int64)
        self.node_depth = np.zeros(n, dtype=np.int64)
        # open child slots (parent of a right child or -1, depth); the next
        # preorder node fills the top one
        slots: list[tuple[int, int]] = [(-1, 0)]
        for node in range(n):
            if not slots:
                raise DataError("tree arrays are not one preorder tree")
            parent, depth = slots.pop()
            if parent >= 0:
                self.right[parent] = node
            self.node_depth[node] = depth
            if self.feature[node] >= 0:
                slots.append((node, depth + 1))
                slots.append((-1, depth + 1))  # the left child is the next node
        if slots or len(self.value) != n or self.threshold.size != n:
            raise DataError("tree arrays are not one preorder tree")

    def depth(self) -> int:
        return int(self.node_depth.max())

    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))


@dataclass(frozen=True)
class DecisionTreeModel:
    root: Tree
    params: TreeHyperparams
    n_classes: int
    n_features: int

    def predict(self, data: "ColumnarTable | np.ndarray") -> np.ndarray:
        return predict_tree(self, data)


def gini_impurity(class_counts: Sequence[int] | np.ndarray) -> float:
    """1 - sum of squared class proportions."""
    counts = np.asarray(class_counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise DataError("class counts must be a non-empty vector")
    if np.any(counts < 0):
        raise DataError("class counts must be non-negative")
    total = int(counts.sum())
    if total == 0:
        raise DataError("all class counts are zero")
    sq = float((counts.astype(np.float64) ** 2).sum())
    return 1.0 - sq / (float(total) * float(total))


def _as_matrix(
    data: "ColumnarTable | np.ndarray", n_features: int | None = None
) -> np.ndarray:
    """Feature matrix of a table or a bare (n, d) matrix to predict on; a
    model passes the ``n_features`` it was fitted on."""
    if isinstance(data, np.ndarray):
        if data.ndim != 2:
            raise DataError("feature matrix must be 2-D")
        X = np.ascontiguousarray(data, dtype=np.float64)
    else:
        X = data.feature_matrix()
    if n_features is not None and X.shape[1] != n_features:
        raise DataError(f"model expects {n_features} features, got {X.shape[1]}")
    return X


def _presort(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row ids of each feature column in (value, row id) order, as an
    (n_features, n_rows) array: the one sort a fit makes. The sort fills
    ``out``, or a new array, one feature at a time, so it holds one
    feature's row ids beside the result, not a second copy of it."""
    if out is None:
        out = np.empty((X.shape[1], X.shape[0]), dtype=np.int64)
    for f in range(X.shape[1]):
        out[f] = np.argsort(X[:, f], kind="stable")
    return out


def _class_ids(y: np.ndarray, n_classes: int) -> np.ndarray:
    """Labels in the smallest unsigned dtype holding every class id, which
    the scans gather and compare a chunk of sorted rows at a time."""
    return y.astype(np.min_scalar_type(max(n_classes - 1, 0)))


class _Candidate(NamedTuple):
    feature: int
    threshold: float
    n_left: int
    sum_left_sq: int
    sum_right_sq: int


# A node's split search scans chunks of up to this many sorted rows: several
# whole features of a node of at most this many rows, with one set of numpy
# calls for all of them, and one feature at a time, in pieces of this many
# rows, of a bigger node. A scan holds a few arrays of a chunk's size at once
# (row ids, values, midpoints, class ids, run flags; the run counts of a
# chunk whose class changes at most rows), so at 2^13 cells its temporaries
# stay near half a MB at any node size and a fit allocates little beyond its
# presort buffer: on gate 6, 1.59x its training matrix for the configured
# tree and 1.59x for a tuning tree (2^14: 1.59x and 1.83x; 2^16: 2.17x and
# 3.15x).
_SCAN_CELLS = 1 << 13

# A chunk of at most this many boundaries keeps every one that can split and
# counts classes with a running one-hot sum: below this size, finding the
# ends of the class runs costs more numpy calls than it saves. Timed at 1
# worker (fits on the overlap config, on a 6k x 12 ensemble and on gate 6):
# run ends on every chunk (0) made the overlap forest 18% and the ensemble
# 11% slower, 2^12 tied 2^10, and one-hot sums on every chunk of a node
# below 8,192 rows (2^14) made gate 6's configured and tuning trees 44-45%
# slower.
_ALL_BOUNDARIES = 1 << 10


def _candidates(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The candidate thresholds between consecutive sorted ``values``, along
    the last axis: each boundary's midpoint, and whether it can split, which
    holds where the midpoint keeps the lower value left and the upper value
    right. Equal values and adjacent doubles cannot split, nor can two values
    whose sum overflows: their midpoint is +inf, or -inf below both."""
    lower, upper = values[..., :-1], values[..., 1:]
    with np.errstate(over="ignore"):
        mid = (lower + upper) / 2.0
    return mid, (lower <= mid) & (mid < upper)


def _gini_scans(
    X: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    sum_sq: int,
    order: np.ndarray,
    features: np.ndarray,
    lo: int,
    hi: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Feature, left size, score, midpoint and left/right square sums of the
    class counts at the boundaries among lo..hi-1 of each feature in
    ``features`` that may be best, chunk by chunk of at most _SCAN_CELLS
    sorted rows: yields one array of each, with one entry per boundary kept
    (by feature, then boundary), for each chunk that keeps any. Boundary j
    splits off sorted rows 0..j; ``sum_sq`` is the square sum of the node's
    class ``counts``.
    """
    n = order.shape[1]
    piece = min(n, _SCAN_CELLS)
    per_scan = max(1, _SCAN_CELLS // n)
    for first in range(0, features.size, per_scan):
        scanned = features[first : first + per_scan]
        below = None  # class counts of the sorted rows before the piece
        for start in range(0, hi, piece):
            stop = min(start + piece, n)
            begin, end = max(lo, start), min(hi, stop)  # the piece's boundaries
            # one row more: the upper value of the piece's last boundary
            rows = order[scanned, start : stop + 1]
            classes = y.take(rows[:, : stop - start])
            if begin < end:
                values = X[rows[:, begin - start : end - start + 1], scanned[:, np.newaxis]]
                mid, can_split = _candidates(values)
                del rows, values
                kept = _boundary_sums(classes, can_split, begin - start, counts, below)
                del can_split
                if kept is not None:
                    at, feature, left = kept
                    n_left = at - feature * (end - begin) + (begin + 1)
                    sum_left = np.einsum("ij,ij->i", left, left, dtype=np.int64)
                    # sum_c (N_c - L_c)^2 = sum N^2 - 2 sum_c N_c L_c + sum L^2
                    sum_right = sum_left - 2 * (left @ counts)
                    sum_right += sum_sq
                    del left
                    scores = sum_left / n_left
                    scores += sum_right / (n - n_left)
                    yield scanned[feature], n_left, scores, mid.ravel()[at], sum_left, sum_right
                    del at, feature, sum_left, sum_right, scores
                del mid
            if stop < n:  # a piece of a big node, which holds one feature
                in_piece = np.bincount(classes[0], minlength=counts.size)
                below = in_piece if below is None else below + in_piece


def _boundary_sums(
    classes: np.ndarray,
    can_split: np.ndarray,
    first: int,
    counts: np.ndarray,
    below: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The boundaries of one chunk that may be best, with the class counts
    left of them: (their flat places in ``can_split``, their features'
    places in the chunk, one row of counts each), or None when none can
    split.

    ``classes`` holds the chunk's sorted class ids, one row per feature, and
    ``can_split`` whether each of a window of boundaries can split, the first
    of which follows a feature's row ``first``. The window is cut into
    ranges at its ends and at each boundary between two runs of one class;
    the first and the last splittable boundary of each range are kept.
    ``below`` holds the class counts of the rows before a one-feature piece
    of a big node.
    """
    n_features, m = classes.shape
    width = can_split.shape[1]
    if below is None and can_split.size <= _ALL_BOUNDARIES:
        at = can_split.ravel().nonzero()[0]
        if at.size == 0:
            return None
        feature = at // width
        running = np.eye(counts.size, dtype=np.int64).take(classes, axis=0)
        np.add.accumulate(running, axis=1, out=running)
        return at, feature, running.reshape(-1, counts.size).take(at + feature * (m - width) + first, axis=0)
    flat = classes.ravel()
    # the rows laid end to end, cut into parts of one class and one feature;
    # the last entry closes the last part
    part = np.empty(flat.size + 1, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=part[1:-1])
    part[::m] = True
    # the places that end ranges: the window's ends, and the boundaries whose
    # next row starts a part
    limit = np.ones((n_features, width), dtype=bool)
    limit[:, 1:-1] = part[:-1].reshape(n_features, m)[:, first + 2 : first + width]
    limit = limit.ravel().nonzero()[0]
    can_split = can_split.ravel()
    at = limit[can_split[limit]]
    if at.size < limit.size:
        # the first splittable boundary at or after each limit that cannot
        # split and the last at or before it; a miss marks the spare slot
        splittable = can_split.nonzero()[0]
        if splittable.size == 0:
            return None
        stuck = limit[~can_split[limit]]
        keep = np.zeros(splittable.size + 1, dtype=bool)
        keep[splittable.searchsorted(stuck)] = True
        keep[splittable.searchsorted(stuck, side="right") - 1] = True
        keep[splittable.searchsorted(at)] = True
        at = splittable[keep[:-1]]
        del splittable, stuck, keep
    del limit
    feature = at // width
    after = at + feature * (m - width) + (first + 1)  # the row after each kept boundary, flat

    # Class counts left of the kept boundaries from the lengths of the
    # parts, cut also at those boundaries: a running sum of each part's
    # length on its class, restarted at each feature (or from the rows below
    # a piece).
    part[after] = True
    start = part.nonzero()[0]  # each part's first row, then the closing entry
    del part
    left = np.zeros((start.size - 1, counts.size), dtype=np.int32)  # a node holds < 2**31 rows
    left[np.arange(start.size - 1), flat[start[:-1]]] = start[1:] - start[:-1]
    if n_features > 1:
        left[start.searchsorted(np.arange(m, flat.size, m))] -= counts
    elif below is not None:
        left[0] += below
    np.add.accumulate(left, axis=0, out=left)
    # at the parts that end at a kept boundary
    return at, feature, left.take(start.searchsorted(after) - 1, axis=0)


_WINDOW = 2.0**-40  # the near-tie window's width relative to the best float score


def _window_floor(scan_best: float) -> float:
    """Lowest float score that may be exactly best when the best float score
    of a scan is ``scan_best``: float scores round the exact ones, so every
    boundary that may be exactly best lies within this window.

    A float score is fl(fl(L2 / nl) + fl(R2 / nr)) of integers that floats
    hold exactly below 2**53 (see the module docstring): each non-negative
    term is rounded by its division and again by the sum, so it lies within
    a factor (1 +- u)**2 of the exact score, u = 2**-53, a relative error
    below 2.01u (about 2.2e-16). When boundary b is exactly best and a has
    the best float score, their exact scores A <= B give fl(a) <= (1 +
    2.01u) A <= (1 + 2.01u) B <= fl(b) (1 + 2.01u) / (1 - 2.01u): fl(b)
    falls short of fl(a) by less than 4.1u of fl(a). ``_WINDOW``, 2**-40 =
    2**13 u, is about 4000 times the error and 2000 times that gap, and
    rounding the floor's subtraction moves it by at most u of the best.
    tests/reference_tree.py keeps its own, wider window.
    """
    return scan_best - _WINDOW * max(1.0, scan_best)


def _exact_best(candidates: Iterable[_Candidate], n: int, sum_sq_parent: int) -> _Candidate | None:
    """The candidate of the highest exact score, the lowest (feature,
    threshold) among exact ties, or None when there is none or it does not
    strictly improve on its node of ``n`` rows and class-count square sum
    ``sum_sq_parent``.

    score(c) = L2/nl + R2/nr; a/b and c/d compare exactly by
    cross-multiplying Python ints.
    """
    best: _Candidate | None = None
    best_num = best_den = 0
    for cand in candidates:
        feature, threshold, nl, sum_left_sq, sum_right_sq = cand
        nr = n - nl
        num, den = sum_left_sq * nr + sum_right_sq * nl, nl * nr
        if best is not None:
            lhs = num * best_den
            rhs = best_num * den
            if lhs < rhs or (lhs == rhs and (feature, threshold) >= best[:2]):
                continue
        best, best_num, best_den = cand, num, den
    # strict improvement: score > sum_sq_parent / n, exactly
    if best is None or best_num * n <= sum_sq_parent * best_den:
        return None
    return best


def _node_split(
    X: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    order: np.ndarray,
    min_samples_leaf: int,
    feature_ids: np.ndarray,
) -> _Candidate | None:
    """Best legal split of a node, or None when no split strictly improves.

    ``counts`` is the node's class-count vector and ``order[f]`` its rows
    sorted by (value of feature f, row id); ``y`` holds class ids as
    ``_class_ids`` gives them. ``feature_ids`` may come in any order: ties
    break on (feature, threshold) whatever order they are scanned in.
    """
    n = int(order.shape[1])
    # a boundary after sorted row i splits off rows 0..i; rows lo..hi-1 end
    # a left side of legal size
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    if lo >= hi:
        return None
    counts = counts.astype(np.int64)
    sum_sq_parent = int(counts @ counts)
    scans = _gini_scans(X, y, counts, sum_sq_parent, order, feature_ids, lo, hi)
    return _exact_best(_near_ties(scans), n, sum_sq_parent)


def _near_ties(scans: Iterable[tuple]) -> Iterator[_Candidate]:
    """The boundaries of each ``_gini_scans`` chunk whose float score lies
    in the window of the best float score so far, as candidates. The
    window's floor only rises, so every boundary in the window of the
    node's best is among them. They are made one at a time, and a chunk is
    dropped before the scan makes the next one."""
    node_best = -np.inf
    for features, n_left, scores, mid, sum_left_sq, sum_right_sq in scans:
        node_best = max(node_best, float(scores.max()))
        for i in np.flatnonzero(scores >= _window_floor(node_best)):
            yield _Candidate(
                feature=int(features[i]),
                threshold=float(mid[i]),
                n_left=int(n_left[i]),
                sum_left_sq=int(sum_left_sq[i]),
                sum_right_sq=int(sum_right_sq[i]),
            )
        del scores, mid, sum_left_sq, sum_right_sq


class SplitCache:
    """Node searches of gini fits on one training set, keyed by split path
    (see the module docstring). A cache is made for one ``train`` table, and
    ``fit_tree`` takes it only with that same object: an equal copy counts
    as another training set. Forests never use a cache: they search sampled
    features.

    Each lookup that no held search covers makes one ``_node_split`` under
    its leaf size and records it with the leaf sizes [l, m] it holds for. A
    cache made with ``presort`` owns ``order``, its table's ``_presort``, for
    its fits to copy into their buffers; without it, ``order`` is None and
    fits sort their own rows. A forked worker's fits fill the worker's copy
    of the cache, which ends with the worker.

    This one mode replaced a staircase for the tuning fits, which scanned a
    path's widest window once for every leaf size up to the box's 50, and a
    hand-back of each worker's searches to the caller. Against them, with
    byte-identical reports, on a 2-core machine (Python 3.11, numpy 2.4;
    alternated runs, on a host where the unchanged configured DT of the
    overlap config took 0.59-0.97 s from run to run):
    - ``tune-gate6``'s wall time over 10 benchmark pairs: median 0.712 s
      (quartiles 0.682-0.749) against 0.691 s (0.662-0.704); peak RSS 47.8
      against 47.2 MB. Gate 6's report makes 526 searches where it made 77
      and 214 staircases (the overlap config: 13,153 against 4,868 and
      5,332);
    - the overlap config's ``tune``, 3 rounds: 2.07-2.15 s against 1.78-2.37
      s at 1 worker, 1.71-2.13 s against 1.24-1.62 s at 2 workers;
    - the hard config's ``tune``, 2 rounds: 45.6 and 48.9 s against 43.7
      and 46.2 s at 1 worker, 29.4 and 37.4 s against 31.3 and 31.9 s at 2;
      peak RSS 174.3 against 167.6 MB.
    Handing the workers' searches back made the overlap ``tune`` at 2
    workers 1.26-1.76 s against 1.24-1.62 s, with 1.5 MB more RSS, so they
    end with the worker.
    """

    def __init__(self, train: ColumnarTable, presort: bool = False) -> None:
        self.train = train
        X = train.feature_matrix()
        self._X, self._class_ids = X, _class_ids(train.labels, train.n_classes)
        self.order = _presort(X) if presort else None
        # path -> entries (leaf size searched under, largest leaf size it
        # holds for, feature or -1 when no split strictly improves, threshold)
        self._found: dict[tuple, tuple[tuple[int, float, int, float], ...]] = {}

    def split(
        self, path: tuple, leaf: int, counts: np.ndarray, order: np.ndarray
    ) -> tuple[int, float] | None:
        """The split under leaf size ``leaf`` of the node at ``path``, which
        has class ``counts`` and presorted rows ``order`` (as ``_node_split``
        takes them). A node of fewer than 2 * ``leaf`` rows has no legal
        split."""
        n = order.shape[1]
        if n < 2 * leaf:
            return None
        for low, high, feature, threshold in self._found.get(path, ()):
            if low <= leaf <= high:
                return None if feature < 0 else (feature, threshold)
        X = self._X
        best = _node_split(X, self._class_ids, counts, order, leaf, np.arange(X.shape[1]))
        if best is None:
            entry, found = (leaf, math.inf, -1, math.nan), None
        else:
            found = (best.feature, best.threshold)
            entry = (leaf, min(best.n_left, n - best.n_left), *found)
        self._found[path] = self._found.get(path, ()) + (entry,)
        return found


def _subtree_end(tree: Tree) -> np.ndarray:
    """One past the last node of each node's subtree."""
    end = np.arange(1, tree.feature.size + 1)
    for node in np.flatnonzero(tree.feature >= 0)[::-1]:
        end[node] = end[tree.right[node]]
    return end


def _grow(
    X: np.ndarray,
    order: np.ndarray | None,
    payload: Callable[[np.ndarray], Any],
    find_split: Callable[[Any, np.ndarray, np.ndarray, int, tuple], tuple[int, float] | None],
) -> Tree:
    """Grow a threshold tree over all rows of ``X``, given ``_presort(X)``
    (None sorts here).

    The fit owns one (n_features + 1, n_rows) buffer: the presort, copied or
    sorted into it, over one row of row ids. A node is one range of its
    columns, where row f < n_features holds the node's rows sorted by (value
    of feature f, row id) and the last row holds them in row-id order. A
    split partitions the range stably, in place, with one go-left mask over
    row ids, left side first, so both children's ranges keep both orders,
    no node sorts again and the children's rows take the parent's place.
    The partition moves up to _SCAN_CELLS cells of the buffer per set of
    numpy calls, and a row of the buffer at a time in a bigger node.
    ``payload(rows)`` gives a node's value; ``find_split(value, rows, order,
    depth, path)`` gives the node's (feature, threshold), or None to leave
    it a leaf; ``rows`` and ``order`` are views of the buffer that hold only
    until the call returns. ``path`` is the node's split path: () at the
    root, (parent's path, feature, threshold, True on the left side) below
    it. Nodes are appended and split in preorder, left child first, which
    pins down the order of any random draws ``find_split`` makes.
    """
    n_rows, n_features = X.shape
    buffer = np.empty((n_features + 1, n_rows), dtype=np.int64)
    if order is None:
        _presort(X, out=buffer[:n_features])
    else:
        buffer[:n_features] = order
    buffer[n_features] = np.arange(n_rows)
    go_left = np.zeros(n_rows, dtype=bool)
    nodes: list[tuple[Any, int, float]] = []
    stack = [(0, n_rows, 0, ())]
    while stack:
        start, stop, depth, path = stack.pop()
        rows = buffer[n_features, start:stop]
        value = payload(rows)
        found = find_split(value, rows, buffer[:n_features, start:stop], depth, path)
        feature, threshold = (-1, np.nan) if found is None else found
        nodes.append((value, feature, threshold))
        if found is not None:
            go_left[rows] = X[rows, feature] <= threshold
            middle = start + _partition(buffer[:, start:stop], go_left)
            # LIFO: push right first so the left child is split first
            stack.append((middle, stop, depth + 1, (path, feature, threshold, False)))
            stack.append((start, middle, depth + 1, (path, feature, threshold, True)))
    values, features, thresholds = zip(*nodes)
    return Tree(np.asarray(values), features, thresholds)


def _partition(segments: np.ndarray, go_left: np.ndarray) -> int:
    """Partition each row of ``segments`` stably, in place, into its row ids
    where ``go_left`` holds, then the others; returns the left side's size.
    Rows are moved in parts of up to _SCAN_CELLS cells (one row in a bigger
    node), so the moves' temporaries stay the size of a part."""
    per_part = max(1, _SCAN_CELLS // segments.shape[1])
    for first in range(0, segments.shape[0], per_part):
        part = segments[first : first + per_part]
        in_left = go_left[part]
        left, right = part[in_left], part[~in_left]
        n_left = left.size // part.shape[0]
        part[:, :n_left] = left.reshape(part.shape[0], n_left)
        part[:, n_left:] = right.reshape(part.shape[0], -1)
    return n_left


def _grow_gini(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    params: TreeHyperparams,
    rng: np.random.Generator | None = None,
    features_per_split: int | None = None,
    splits: SplitCache | None = None,
) -> Tree:
    """Grow a classification tree, then prune it when ``params.ccp_alpha`` >
    0; with ``features_per_split`` below the feature count, each split
    searches a fresh ``rng`` sample of features; otherwise a ``splits``
    cache of these rows may serve its searches and its presort."""
    n_features = X.shape[1]
    sample_features = (
        features_per_split is not None and features_per_split < n_features
    )
    class_ids = _class_ids(y, n_classes)
    leaf = params.min_samples_leaf

    def class_counts(rows: np.ndarray) -> np.ndarray:
        return np.bincount(y[rows], minlength=n_classes)

    def find_split(
        counts: np.ndarray, rows: np.ndarray, order: np.ndarray, depth: int, path: tuple
    ) -> tuple[int, float] | None:
        if (
            int(np.count_nonzero(counts)) <= 1
            or (params.max_depth is not None and depth >= params.max_depth)
            or rows.size < params.min_samples_split
        ):
            return None
        if splits is not None:
            return splits.split(path, leaf, counts, order)
        if sample_features:
            feature_ids = rng.choice(n_features, size=features_per_split, replace=False)
        else:
            feature_ids = np.arange(n_features)
        best = _node_split(X, class_ids, counts, order, leaf, feature_ids)
        return None if best is None else (best.feature, best.threshold)

    tree = _grow(X, None if splits is None else splits.order, class_counts, find_split)
    return _prune(tree, params.ccp_alpha) if params.ccp_alpha > 0.0 else tree


def _prune(tree: Tree, ccp_alpha: float) -> Tree:
    """Minimal cost-complexity pruning: repeatedly collapse the weakest links
    (every internal node tied at the lowest impurity improvement per removed
    leaf) while that improvement is <= ccp_alpha."""
    n = tree.feature.size
    n_total = int(tree.value[0].sum())
    # risk of node i as a leaf: its gini weighted by its share of the rows
    risk = [gini_impurity(v) * (int(v.sum()) / n_total) for v in tree.value]
    feature = tree.feature.copy()
    right = tree.right
    end = _subtree_end(tree)
    live = np.ones(n, dtype=bool)
    while feature[0] >= 0:
        # leaf risk sums and leaf counts of every live subtree, leaves up
        subtree_risk = list(risk)
        leaves = [1] * n
        g = np.full(n, np.inf)
        for node in range(n - 1, -1, -1):
            if live[node] and feature[node] >= 0:
                left, other = node + 1, right[node]
                subtree_risk[node] = subtree_risk[left] + subtree_risk[other]
                leaves[node] = leaves[left] + leaves[other]
                g[node] = (risk[node] - subtree_risk[node]) / (leaves[node] - 1)
        weakest_g = g.min()
        if weakest_g > ccp_alpha:
            break
        for node in np.flatnonzero(g == weakest_g):
            feature[node] = -1
            live[node + 1 : end[node]] = False
    threshold = np.where(feature < 0, np.nan, tree.threshold)
    return Tree(tree.value[live], feature[live], threshold[live])


def fit_tree(
    train: ColumnarTable,
    params: TreeHyperparams = TreeHyperparams(),
    splits: SplitCache | None = None,
) -> DecisionTreeModel:
    """Grow (and optionally prune) a classification tree.

    Growth stops at a node when it is pure, max_depth is reached, it holds
    fewer than min_samples_split rows, or no legal split strictly improves
    impurity. With ccp_alpha > 0 the fitted tree is post-pruned. Fits on one
    training set can share node searches, and with ``presort`` its presort:
    pass as ``splits`` one ``SplitCache`` made for this ``train`` object
    (see the module docstring); a cache made for another, an equal copy
    included, raises. The fitted tree is the same either way.
    """
    if splits is not None and splits.train is not train:
        raise DataError("split cache was made for another training set")
    X = train.feature_matrix()
    if X.shape[0] == 0:
        raise DataError("cannot fit a tree on zero rows")
    if X.shape[1] == 0:
        raise DataError("cannot fit a tree without features")
    root = _grow_gini(X, train.labels, train.n_classes, params, splits=splits)
    return DecisionTreeModel(root, params, train.n_classes, X.shape[1])


def _route(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Id of the leaf where each row of ``X`` stops."""
    stop = tree.feature < 0
    node = np.zeros(X.shape[0], dtype=np.int64)
    moving = np.flatnonzero(~stop[node])
    while moving.size:
        # advance every row still moving one level down
        at = node[moving]
        go_left = X[moving, tree.feature[at]] <= tree.threshold[at]
        node[moving] = np.where(go_left, at + 1, tree.right[at])
        moving = moving[~stop[node[moving]]]
    return node


def _classify(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Class of each row of ``X``: the class-count argmax (lowest class id on
    ties) of the leaf where ``_route`` stops it."""
    return np.argmax(tree.value, axis=1)[_route(tree, X)]


class CutAccuracy:
    """Accuracy on labelled rows of a gini tree cut at any depth limit and
    split gate, from one route of the rows through the uncut tree.

    Cut at (d, s), a row stops at the first node on its path that is a leaf,
    lies at depth >= d or holds fewer than s training rows, and takes that
    node's class-count argmax (lowest class id on ties). Split choice depends
    only on a node's rows and min_samples_leaf, so an unpruned tree grown
    with no depth limit and a split gate no larger than s, cut this way,
    predicts exactly like the tree grown with these limits and the same
    min_samples_leaf.

    Each node keeps ``correct``, the rows through it whose label is its
    class, summed from the leaves up. A child is deeper than its parent and
    holds no more training rows, so every descendant of a stopping node
    stops too, and each row stops at the one stopping node on its path whose
    parent does not stop (the root counts when it stops). The cut's accuracy
    is the sum of ``correct`` over those nodes, over the row count.
    """

    def __init__(self, tree: Tree, X: np.ndarray, labels: np.ndarray) -> None:
        n_nodes, n_classes = tree.value.shape
        labels = np.asarray(labels, dtype=np.int64)
        hits = np.bincount(
            _route(tree, X) * n_classes + labels, minlength=n_nodes * n_classes
        ).reshape(n_nodes, n_classes)
        internal = tree.feature >= 0
        # sum children into parents, deepest parents first
        for depth in range(tree.depth() - 1, -1, -1):
            level = np.flatnonzero(internal & (tree.node_depth == depth))
            hits[level] = hits[level + 1] + hits[tree.right[level]]
        self.correct = hits[np.arange(n_nodes), np.argmax(tree.value, axis=1)]
        self.leaf = ~internal
        self.depth = tree.node_depth
        self.rows = tree.value.sum(axis=1)
        self.parent = np.zeros(n_nodes, dtype=np.int64)
        split = np.flatnonzero(internal)
        self.parent[split + 1] = split
        self.parent[tree.right[split]] = split
        self.n_rows = labels.size

    def accuracy(self, max_depth: int, min_samples_split: int) -> float:
        """Accuracy of the tree cut at ``max_depth`` and ``min_samples_split``."""
        stop = self.leaf | (self.depth >= max_depth) | (self.rows < min_samples_split)
        first = stop & ~stop[self.parent]
        first[0] = stop[0]
        return int(self.correct[first].sum()) / self.n_rows


def predict_tree(model: DecisionTreeModel, data: "ColumnarTable | np.ndarray") -> np.ndarray:
    """Route rows to leaves; each leaf votes its class-count argmax (lowest
    class id on ties)."""
    return _classify(model.root, _as_matrix(data, model.n_features))
