"""Binary threshold trees: the one tree class, grow loop and router shared by
the classification tree, the forest and boosting, plus the gini split search.

Split candidates are the midpoints of consecutive distinct sorted feature
values; rows with value <= threshold route left. A midpoint that rounds up
onto the upper value (two adjacent doubles) cannot split and is no candidate.
The candidate maximizing the weighted impurity decrease wins; ties break to
the lowest feature index, then the lowest threshold. The winner among
near-tied candidates is decided with exact integer arithmetic so the choice
matches a brute-force enumeration bit for bit at any sample size.

Cost: a fit sorts each feature once, with one stable argsort per feature,
into one buffer the fit owns. Each node then holds, per feature, its rows in
(value, row id) order, as one range of that buffer, and a split partitions
the range stably in place with one go-left mask, so a node costs a stable
partition and one O(n) scan per feature, never sorts values and never holds
its rows beside its children's. The scan runs in chunks of bounded size
(_SCAN_CELLS), so a fit allocates about its presort plus a few hundred KB at
any table size; near-tied candidates are made one at a time. The gini scan
keeps each side's sum of squared class counts as running int64
sums: a row whose class already has r rows on the left adds 2r + 1 to the
left sum, and the right sum follows from the left one and a running sum of
the rows' class totals (r comes from a stable sort of the small class ids,
a linear-time radix sort). While below 2**53, which holds for any node of
fewer than about 9e7 rows, these integers equal the float square sums a
per-class count matrix gives, so the near-tie window and the exact
comparison see the same numbers and the search stays exact.

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

A ``SplitCache`` made with a largest leaf size L (the tuning fits) makes one
search per path: a staircase (``_node_staircase``) scans the widest window
once and walks the leaf size up from 1, each step taking the best split
under its leaf size and the next step starting one past that split's
smaller side. Of the scan it keeps only the boundaries some step can take
as near-tie candidates, so a step costs a few list operations, not a pass
over the scan. It also sorts its table once, for each fit to copy. A cache
without L (the configured tree and its refit) holds no presort and keeps,
per path, each one-leaf search with the leaf sizes [l, m] it holds for. A
fit runs its own purity, depth and split-gate checks before it looks a node
up, so the cache changes how much a fit searches, never the tree it grows.
"""

from __future__ import annotations

import math
import struct
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
    """Labels in the smallest unsigned dtype holding every class id, on which
    numpy's stable sort is a linear-time radix sort."""
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
# rows, of a bigger node. A scan holds about seven arrays of a chunk's size
# at once, so at 2^13 cells (64 KB an array) its temporaries stay near half
# a MB at any node size and a fit allocates little beyond its presort
# buffer: on gate 6, 1.6x its training matrix for the configured tree
# (2^14 gave 1.9x) and 1.8x for a tuning tree (2.3x).
_SCAN_CELLS = 1 << 13


def _candidates(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The candidate thresholds between consecutive sorted ``values``, along
    the last axis: each boundary's midpoint, and whether it can split, which
    holds where the midpoint lies below the upper value (equal values and
    adjacent doubles cannot split)."""
    upper = values[..., 1:]
    mid = (values[..., :-1] + upper) / 2.0
    return mid, mid < upper


def _gini_scans(
    X: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    sum_sq: int,
    order: np.ndarray,
    features: np.ndarray,
    lo: int,
    hi: int,
) -> Iterator[tuple[np.ndarray, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Score, midpoint and left/right square sums of the class counts at the
    boundaries lo..hi-1 of each feature in ``features``, chunk by chunk of
    at most _SCAN_CELLS sorted rows: yields (the features scanned, the
    chunk's first boundary, scores, midpoints, left sums, right sums), one
    row per scanned feature and one column per boundary. Boundary j splits
    off sorted rows 0..j; its score is -inf where it cannot split.
    ``sum_sq`` is the square sum of the node's class ``counts``.
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
            classes = y[rows[:, : stop - start]]
            values = X[rows[:, begin - start : end - start + 1], scanned[:, np.newaxis]]
            del rows  # the chunk-sized arrays die as soon as they are used
            # Square sums in exact integers. Adding a row whose class already
            # has r rows on the left raises the left sum by 2r + 1; r is the
            # row's place among its class in a stable class sort of the
            # piece, after the rows of its class below the piece. The right
            # sum is sum_c (N_c - L_c)^2 = sum N^2 - 2 sum_c N_c L_c + sum L^2,
            # where sum_c N_c L_c runs over the rows as a sum of N of each
            # class. A piece of a big node holds one feature.
            if stop == n:
                in_piece = counts if below is None else counts - below
            else:
                in_piece = np.bincount(classes[0], minlength=counts.size)
            offset = in_piece.cumsum() - in_piece
            if below is not None:
                offset -= below
            class_rank = np.arange(stop - start) - offset.repeat(in_piece)
            sum_left_sq = np.empty_like(classes, dtype=np.int64)
            np.put_along_axis(
                sum_left_sq,
                classes.argsort(axis=1, kind="stable"),
                2 * class_rank + 1,
                axis=1,
            )
            del class_rank
            sum_left_sq.cumsum(axis=1, out=sum_left_sq)
            cross = counts[classes]
            del classes
            cross.cumsum(axis=1, out=cross)
            if below is not None:
                sum_left_sq += int((below**2).sum())
                cross += int((counts * below).sum())
            if begin < end:
                window = slice(begin - start, end - start)
                mid, can_split = _candidates(values)
                del values
                sum_left = sum_left_sq[:, window]
                sum_right = cross[:, window]
                sum_right *= -2
                sum_right += sum_sq
                sum_right += sum_left
                nl = np.arange(begin + 1, end + 1, dtype=np.float64)
                scores = sum_left / nl
                scores += sum_right / (float(n) - nl)
                scores[~can_split] = -np.inf
                del can_split, nl
                yield scanned, begin, scores, mid, sum_left, sum_right
                del scores, mid, sum_left, sum_right
            del sum_left_sq, cross
            below = in_piece if below is None else below + in_piece


def _window_floor(scan_best: float) -> float:
    """Lowest float score that may be exactly best when the best float score
    of a scan is ``scan_best``: float scores round the exact ones, so every
    boundary that may be exactly best lies within this window."""
    return scan_best - 1e-9 * max(1.0, scan_best)


def _window_floors(best: np.ndarray) -> np.ndarray:
    """``_window_floor`` of each float best, in the same float operations;
    +inf where there is no best."""
    return np.where(best > -np.inf, best - 1e-9 * np.maximum(1.0, best), np.inf)


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
    ``_class_ids`` gives them.
    """
    n = int(order.shape[1])
    # a boundary after sorted row i splits off rows 0..i; rows lo..hi-1 end
    # a left side of legal size
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    if lo >= hi:
        return None
    counts = counts.astype(np.int64)
    sum_sq_parent = int((counts**2).sum())
    scans = _gini_scans(X, y, counts, sum_sq_parent, order, np.sort(feature_ids), lo, hi)
    return _exact_best(_near_ties(scans), n, sum_sq_parent)


def _near_ties(scans: Iterable[tuple]) -> Iterator[_Candidate]:
    """The boundaries of each ``_gini_scans`` chunk whose float score lies
    in the window of the best float score so far, as candidates. The
    window's floor only rises, so every boundary in the window of the
    node's best is among them. They are made one at a time, and a chunk is
    dropped before the scan makes the next one: a node where many
    boundaries nearly tie (say one row of a minority class among
    thousands) never holds them all."""
    node_best = -np.inf
    for scanned, first, scores, mid, sum_left_sq, sum_right_sq in scans:
        node_best = max(node_best, float(scores.max()))
        if node_best > -np.inf:
            for f, j in zip(*(scores >= _window_floor(node_best)).nonzero()):
                yield _Candidate(
                    feature=int(scanned[f]),
                    threshold=float(mid[f, j]),
                    n_left=first + int(j) + 1,
                    sum_left_sq=int(sum_left_sq[f, j]),
                    sum_right_sq=int(sum_right_sq[f, j]),
                )
        del scores, mid, sum_left_sq, sum_right_sq


def _stair_ties(chunk: tuple, n: int, max_leaf: int, node_best: np.ndarray) -> list[np.ndarray]:
    """The boundaries of one ``_gini_scans`` chunk of a node of n >= 2 rows
    that a step of ``_node_staircase`` may take, as arrays (score, capped
    smaller side, feature, threshold, left size, left and right square
    sums). ``node_best`` is the float best under each leaf size of the
    node's chunks so far, and this chunk's raises it in place.

    Boundary j splits off sorted rows 0..j, so its smaller side holds m =
    min(j + 1, n - 1 - j) rows and it is legal under leaf sizes 1..m. The
    chunk's float best under leaf size l is the best of its boundaries with
    m >= l: a running maximum over m, from the largest m down, gives it for
    every l at once (with m capped at ``max_leaf``, only the boundaries
    near the node's two ends have m below the cap). A boundary with smaller
    side m (capped) is legal only up to leaf size m, where the window floor
    is lowest, so one that lies below the floor of the node's best there is
    never a candidate and is dropped.
    """
    scanned, first, scores, mid, sum_left_sq, sum_right_sq = chunk
    width = scores.shape[1]
    top = node_best.size  # largest leaf size with a legal boundary
    side = np.arange(first + 1, first + width + 1)  # left sizes, then smaller sides
    np.minimum(side, n - side, out=side)
    np.minimum(side, max_leaf, out=side)
    column_best = scores.max(axis=0)
    # boundaries top-1..n-1-top have side top; the others lie at the ends
    middle_lo = min(max(top - 1 - first, 0), width)
    middle_hi = min(max(n - top - first, middle_lo), width)
    best = np.full(top, -np.inf)  # best under leaf size l, at index l - 1
    best[top - 1] = column_best[middle_lo:middle_hi].max(initial=-np.inf)
    for ends in (slice(0, middle_lo), slice(middle_hi, width)):
        np.maximum.at(best, side[ends] - 1, column_best[ends])
    np.maximum(node_best, np.maximum.accumulate(best[::-1])[::-1], out=node_best)
    del column_best
    f, j = (scores >= _window_floors(node_best)[side - 1]).nonzero()
    return [
        scores[f, j],
        side[j],
        scanned[f],
        mid[f, j],
        first + 1 + j,
        sum_left_sq[f, j],
        sum_right_sq[f, j],
    ]


class _Stairs:
    """The near-tie candidates of a node's staircase under a rising leaf
    size: the ``_stair_ties`` of all its chunks that lie within the window
    of the node's best at their side, sorted by float score with their
    capped smaller sides. A pointer skips the leading ones that the rising
    leaf size has made illegal, so the first one left is the node's float
    best under the leaf size.
    """

    __slots__ = ("scores", "sides", "candidates", "skip")

    def __init__(self, ties: list[list[np.ndarray]], node_best: np.ndarray) -> None:
        if len(ties) == 1:
            scores, sides, *cells = ties[0]
        else:
            scores, sides, *cells = (np.concatenate(parts) for parts in zip(*ties))
            # a boundary below the floor at its side lies below it under
            # every smaller leaf size too, so no step takes it
            keep = scores >= _window_floors(node_best)[sides - 1]
            scores, sides, cells = scores[keep], sides[keep], [cell[keep] for cell in cells]
        by_score = np.argsort(-scores, kind="stable")
        self.scores = scores[by_score].tolist()
        self.sides = sides[by_score].tolist()
        # nearly every kept boundary is some step's candidate: build them all
        # with a few whole-array conversions rather than cell by cell
        columns = (cell[by_score].tolist() for cell in cells)
        self.candidates = list(map(_Candidate._make, zip(*columns)))
        self.skip = 0

    def near(self, leaf: int) -> list[_Candidate]:
        """The candidates ``_node_split`` takes under ``leaf``; leaf sizes
        must not fall from call to call."""
        scores, sides = self.scores, self.sides
        i, size = self.skip, len(sides)
        while i < size and sides[i] < leaf:
            i += 1
        self.skip = i
        if i == size:
            return []
        floor = _window_floor(scores[i])
        near = []
        while i < size and scores[i] >= floor:
            if sides[i] >= leaf:
                near.append(self.candidates[i])
            i += 1
        return near


def _node_staircase(
    X: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    order: np.ndarray,
    max_leaf: int,
) -> list[tuple[int, int, float]]:
    """``_node_split`` of a node, over every feature, under every leaf size
    1..``max_leaf`` from one scan, as steps (high, feature, threshold): a
    step holds from one past the previous step's high (from 1) through its
    high, and feature -1 means no split strictly improves. Steps cover every
    leaf size up to ``max_leaf`` that leaves a legal boundary, and no high
    exceeds ``max_leaf``.

    A boundary whose smaller side holds m rows is legal for leaf sizes
    1..m. Each step takes the near-tie candidates under its leaf size
    (``_Stairs``) and selects among them as ``_node_split`` does. The
    winner, with smaller side m, stays the winner through leaf size m (see
    the module docstring), so the next step starts at m + 1.
    """
    n = int(order.shape[1])
    counts = counts.astype(np.int64)
    sum_sq_parent = int((counts**2).sum())
    node_best = np.full(min(max_leaf, n // 2), -np.inf)
    ties = []
    features = np.arange(order.shape[0])
    for chunk in _gini_scans(X, y, counts, sum_sq_parent, order, features, 0, n - 1):
        ties.append(_stair_ties(chunk, n, max_leaf, node_best))
        del chunk  # let the scan free this chunk before it makes the next one
    stairs = _Stairs(ties, node_best)
    del ties

    steps: list[tuple[int, int, float]] = []
    leaf = 1
    while 2 * leaf <= n and leaf <= max_leaf:
        best = _exact_best(stairs.near(leaf), n, sum_sq_parent)
        if best is None:
            steps.append((max_leaf, -1, math.nan))
            break
        side = min(best.n_left, n - best.n_left)
        steps.append((min(side, max_leaf), best.feature, best.threshold))
        leaf = side + 1
    return steps


def best_split(
    rows: np.ndarray,
    table: ColumnarTable,
    params: TreeHyperparams = TreeHyperparams(),
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, impurity decrease) over the given row ids of
    ``table``: the root split of a one-level ``fit_tree`` on those rows
    (``max_depth`` 1, split gate max(2, leaf)), whose decrease is taken from
    the children's class counts. Returns None when no legal split strictly
    improves impurity.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise DataError("cannot split an empty row set")
    leaf = params.min_samples_leaf
    stump = TreeHyperparams(max_depth=1, min_samples_split=max(2, leaf), min_samples_leaf=leaf)
    tree = fit_tree(table.take_rows(rows), stump).root
    if tree.feature[0] < 0:
        return None
    n = rows.size
    parent, left, right = tree.value
    nl, nr = int(left.sum()), int(right.sum())
    decrease = gini_impurity(parent) - nl / n * gini_impurity(left) - nr / n * gini_impurity(right)
    return int(tree.feature[0]), float(tree.threshold[0]), float(decrease)


class SplitCache:
    """Node searches of gini fits on one training set, keyed by split path
    (see the module docstring). A cache is made for one ``train`` table, and
    ``fit_tree`` takes it only with that same object: an equal copy counts
    as another training set. Forests never use a cache: they search sampled
    features.

    A cache made with ``max_leaf`` L answers leaf sizes 1..L from one
    staircase per path (``_node_staircase``), searched on the path's first
    lookup, and stored as one bytes string of (high, feature + 1, threshold)
    records in the narrowest integers that hold L and the feature count.
    Larger leaf sizes, and every leaf size of a cache without L, take one
    search per leaf size, recorded with the leaf sizes it holds for. A cache
    with L owns ``order``, its table's ``_presort``, for its fits to copy
    into their buffers; without L, ``order`` is None and fits sort their own.

    The two modes stay because each wins where it is used. Measured in
    alternated single-process runs at 1 worker (2-core machine, Python 3.11,
    numpy 2.4):
    - the swarm's fits ask for many leaf sizes of one table. A one-leaf
      tuning cache (presort still shared) made gate 6's ``tune`` 0.587-0.600 s
      against the staircase's 0.469-0.481 s (4 pairs; 573 against 291
      searches), tied on the overlap config (1.89-2.07 s against 1.85-1.93 s,
      4 pairs) and took 41.97 s against 40.18 s on the hard config (1 pair);
    - the configured DT and the tuned refit ask for one leaf size each. A
      staircase cache for them made the overlap config's two fits 0.92-1.05 s
      against 0.66-0.67 s (3 pairs); on gate 6 it made them 0.17-0.18 s
      against 0.20-0.21 s.
    """

    def __init__(self, train: ColumnarTable, max_leaf: int = 0) -> None:
        self.train, self.max_leaf = train, max_leaf
        X = train.feature_matrix()
        self._X, self._class_ids = X, _class_ids(train.labels, train.n_classes)
        self.order = _presort(X) if max_leaf else None
        integer = np.min_scalar_type
        self._record = struct.Struct(f"<{integer(max_leaf).char}{integer(X.shape[1]).char}d")
        self._stairs: dict[tuple, bytes] = {}
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
        X, y = self._X, self._class_ids
        n = order.shape[1]
        if n < 2 * leaf:
            return None
        if leaf <= self.max_leaf:
            stairs = self._stairs.get(path)
            if stairs is None:
                steps = _node_staircase(X, y, counts, order, self.max_leaf)
                stairs = b"".join(self._record.pack(h, f + 1, t) for h, f, t in steps)
                self._stairs[path] = stairs
            for high, code, threshold in self._record.iter_unpack(stairs):
                if leaf <= high:
                    return None if code == 0 else (code - 1, threshold)
        for low, high, feature, threshold in self._found.get(path, ()):
            if low <= leaf <= high:
                return None if feature < 0 else (feature, threshold)
        best = _node_split(X, y, counts, order, leaf, np.arange(X.shape[1]))
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
    training set can share node searches, and with ``max_leaf`` its presort:
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
