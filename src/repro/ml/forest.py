"""Random forest: bagged CART trees with feature subsampling.

The paper's best predictor (Table 6, Figures 12-16).  Each tree is fit on a
bootstrap resample with ``sqrt(d)`` features considered per split; the
ensemble probability is the mean of tree leaf frequencies, and feature
importances are the mean of per-tree impurity importances (Section 5.4).
"""

from __future__ import annotations

import weakref

import numpy as np

from .base import BinaryClassifier, check_X, check_Xy
from .tree import DecisionTreeClassifier

__all__ = ["RandomForestClassifier"]

#: Rows evaluated per batched pass; bounds peak memory to a handful of
#: ``n_trees x chunk`` temporaries instead of ``n_trees x n_rows``, and
#: keeps the traversal working set (``n_trees x chunk x 33`` bytes: 1.35 MB
#: for 160 trees) inside a 2 MB per-core L2.  Interleaved sweep, 160-tree
#: depth-13 forest, 2-vCPU Xeon VM, 4096-row replay chunks (median
#: events/s of 4 runs): 256 -> 71.3k, 512 -> 57.8k, 1024 -> 58.9k,
#: 2048 -> 52.1k; peak RSS 50.4 / 52.3 / 56.0 / 64.1 MB.
_PREDICT_CHUNK_ROWS = 256

#: One packed node: split threshold, index of the left child (the right
#: child is ``child + 1``) and split feature.
_NODE = np.dtype([("thr", "<f8"), ("child", "<i4"), ("feat", "<i4")])


class _FlatForest:
    """All trees of an ensemble packed into one flat array of 16-byte nodes.

    Nodes are renumbered breadth-first with each internal node's children
    adjacent (``right == left + 1``), so one traversal step for every
    (row, tree) pair is ``idx = child[idx] + (x > thr[idx])``.  Leaves
    self-loop: their threshold is ``+inf`` (the comparison is always
    False), their feature is 0 and their child slot points back at
    themselves, so finished rows idle in place while deeper rows keep
    stepping.  Threshold, child and feature share one :data:`_NODE`
    record, so a step gathers each node once.

    The traversal state is laid out ``(n_trees, chunk_rows)`` with trees
    sorted deepest-first: a tree of depth ``k`` has every row on a leaf
    after ``k`` steps, so step ``s`` only touches the contiguous prefix of
    trees whose depth exceeds ``s``.  Shallow trees drop out of the hot
    loop early instead of self-looping to the ensemble's maximum depth.
    """

    __slots__ = ("nodes", "value", "roots", "active_per_step", "accum_order")

    def __init__(self, trees: list[DecisionTreeClassifier]):
        depths = np.asarray([t.max_depth_ for t in trees], dtype=np.int64)
        order = np.argsort(-depths, kind="stable")
        sorted_depths = depths[order]

        nodes, vals, roots = [], [], []
        base = 0
        for tree_pos in order:
            tree = trees[tree_pos]
            f, left, right = tree.feature_, tree.left_, tree.right_
            n = f.shape[0]
            # Breadth-first renumbering with sibling-adjacent children.
            bfs = np.empty(n, dtype=np.int64)
            bfs[0] = 0
            count = 1
            pos = 0
            while pos < count:
                old = bfs[pos]
                if f[old] >= 0:
                    bfs[count] = left[old]
                    bfs[count + 1] = right[old]
                    count += 2
                pos += 1
            new_id = np.empty(n, dtype=np.int64)
            new_id[bfs] = np.arange(n)

            nf = f[bfs]
            leaf = nf < 0
            rec = np.empty(n, dtype=_NODE)
            rec["thr"] = np.where(leaf, np.inf, tree.threshold_[bfs])
            # new_id[-1] for leaves is junk but masked out by ``where``.
            rec["child"] = np.where(leaf, np.arange(n), new_id[left[bfs]]) + base
            rec["feat"] = np.where(leaf, 0, nf)
            nodes.append(rec)
            vals.append(tree.value_[bfs])
            roots.append(base)
            base += n
        self.nodes = np.concatenate(nodes)
        self.value = np.concatenate(vals)
        self.roots = np.asarray(roots, dtype=np.int32)
        #: Trees still traversing at step s: prefix length of the
        #: deepest-first ordering whose depth exceeds s.
        self.active_per_step = tuple(
            int(np.count_nonzero(sorted_depths > s))
            for s in range(int(sorted_depths.max(initial=0)))
        )
        #: Sorted-row position of each original tree: accumulation must
        #: visit trees in *fit* order to keep the float64 sum bit-identical
        #: to the original sequential ``acc += tree.predict_proba(X)`` loop.
        accum = np.empty(len(trees), dtype=np.int64)
        accum[order] = np.arange(len(trees))
        self.accum_order = accum

    def predict_mean(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf frequency across trees, one value per row of ``X``.

        Bit-identical to averaging per-tree ``predict_proba`` calls: the
        traversal is exact integer index arithmetic, leaf values are the
        same float64 entries, and they are summed with
        ``np.add.accumulate`` over the trees in *fit* order — a left fold
        by definition, so exactly the sequential ``acc += leaf`` loop
        (``np.sum`` may sum pairwise, which can differ in the last
        ulp).
        """
        n, d = X.shape
        n_trees = self.roots.shape[0]
        out = np.empty(n)
        m = min(_PREDICT_CHUNK_ROWS, n)
        # One set of flat traversal buffers per call, viewed as a
        # contiguous ``(n_trees, k)`` block per chunk; ``np.take(...,
        # out=...)`` keeps the hot loop allocation-free.
        bufs = (
            np.empty(n_trees * m, dtype=np.int32),  # node index per (tree, row)
            np.empty(n_trees * m, dtype=_NODE),  # gathered node records
            np.empty(n_trees * m, dtype=np.int32),  # flat index into the chunk
            np.empty(n_trees * m, dtype=np.float64),  # feature / leaf values
            np.empty(n_trees * m, dtype=np.bool_),  # go-right flags
        )
        row_base = np.arange(m, dtype=np.int32) * d
        for lo in range(0, n, _PREDICT_CHUNK_ROWS):
            hi = min(lo + _PREDICT_CHUNK_ROWS, n)
            k = hi - lo
            x_flat = X[lo:hi].ravel()
            rb = row_base[:k]
            idx, rec, fidx, xv, go = (
                b[: n_trees * k].reshape(n_trees, k) for b in bufs
            )
            idx[:] = self.roots[:, None]
            for a in self.active_per_step:
                ia, ra, fa, xa, ga = idx[:a], rec[:a], fidx[:a], xv[:a], go[:a]
                np.take(self.nodes, ia, out=ra, mode="clip")
                np.add(ra["feat"], rb, out=fa)
                np.take(x_flat, fa, out=xa, mode="clip")
                np.greater(xa, ra["thr"], out=ga)
                np.add(ra["child"], ga, out=ia)
            np.take(self.value, idx[self.accum_order], out=xv, mode="clip")
            out[lo:hi] = np.add.accumulate(xv, axis=0, out=xv)[-1]
        out /= n_trees
        return out


#: Packed-forest cache keyed by ensemble instance.  Kept outside the
#: instances so pickles (model registry digests, snapshots) are unchanged;
#: each process rebuilds the pack lazily on first predict.
_FLAT_CACHE: "weakref.WeakKeyDictionary[RandomForestClassifier, _FlatForest]" = (
    weakref.WeakKeyDictionary()
)


class RandomForestClassifier(BinaryClassifier):
    """Bootstrap-aggregated decision trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf:
        Passed to each tree; ``max_depth`` is the paper's main
        regularization hyperparameter for this model.
    max_features:
        Features considered per split (default ``"sqrt"``, the standard
        choice for classification forests).
    bootstrap:
        Resample the training set per tree (with replacement) when True.
    random_state:
        Seed for the whole ensemble; trees get independent spawned streams.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int | None = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.trees_: list[DecisionTreeClassifier] = []
        self.feature_importances_: np.ndarray | None = None
        self.n_features_: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X, y = check_Xy(X, y)
        n, d = X.shape
        self.n_features_ = d
        seeds = np.random.SeedSequence(self.random_state).spawn(self.n_estimators)
        self.trees_ = []
        importance = np.zeros(d)
        for seq in seeds:
            rng = np.random.default_rng(seq)
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
                Xb, yb = X[idx], y[idx]
                if yb.min() == yb.max():
                    # Degenerate resample (possible on tiny training sets):
                    # fall back to the full sample so the tree stays valid.
                    Xb, yb = X, y
            else:
                Xb, yb = X, y
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(Xb, yb)
            self.trees_.append(tree)
            importance += tree.feature_importances_
        importance /= self.n_estimators
        total = importance.sum()
        self.feature_importances_ = importance / total if total > 0 else importance
        _FLAT_CACHE.pop(self, None)  # refit invalidates the packed form
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("RandomForestClassifier used before fit")
        X = check_X(X)
        if X.shape[1] != self.n_features_:
            raise ValueError("feature-count mismatch with fitted tree")
        flat = _FLAT_CACHE.get(self)
        if flat is None:
            flat = _FlatForest(self.trees_)
            _FLAT_CACHE[self] = flat
        return flat.predict_mean(X)
