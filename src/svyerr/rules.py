"""Design-weighted k-nearest-neighbour classification under 0-1 loss.

The classifier standardizes covariates with weighted means and standard
deviations from the sample and votes with the survey weights of the k
nearest points (self included, so the optimism is nonzero).  As a
bootstrap rule, ``knn_rule(X, design, k)(Y)`` returns the in-sample votes
on outcome rows Y; the bootstrap maps them to the 0-1 loss's lambda-hat.
``_vote_rules`` is the one construction path: ``knn_rule`` and
``knn_error_report`` both build their rules through it.  Votes at
off-sample points are internal: standardize the query with
``_standardize``'s center and scale and pass it to ``_neighbour_weights``.

Working set, in bytes per sample unit, for neighbour counts summing to
sum(k): the neighbour weights keep 12 per neighbour, a double weight and
an int32 column (scipy's index dtype below 2**31), so 12 sum(k) while
the rules live; ties at the k-th distance add neighbours.  Their build
holds 12 K beside them, K = k_max + 1 candidates and their exact squared
distances, and the bootstrap holds 25 m per block of m replicates
(``penalty._rule_sums``).  At n = 20,000, k = 10, 20, 30, 40 and one
block of 32 that is about 2,240 bytes per unit, 43 MiB.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from typing import TYPE_CHECKING

import numpy as np

from . import penalty as pen
from .design import SurveyDesign
from .families import Family, FamilyKind, Loss, LossKind
from .fit import fit_weighted_glm

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["knn_rule", "knn_error_report"]


def _standardize(X, weights):
    """Weighted z-scores of X's non-constant columns: (Z, center, scale, kept columns)."""
    wsum = weights.sum()
    center = (weights[:, None] * X).sum(axis=0) / wsum
    var = (weights[:, None] * (X - center) ** 2).sum(axis=0) / wsum
    scale = np.sqrt(var)
    # a constant column keeps a rounding-level SD when its weighted mean is inexact
    kept = scale > 1e-12 * np.maximum(np.abs(center), 1.0)
    if not np.all(kept):
        warnings.warn(f"dropping {int((~kept).sum())} zero-variance column(s)")
    kept = np.flatnonzero(kept)
    return (X[:, kept] - center[kept]) / scale[kept], center, scale, kept


def _squared_distances(Z_query, Z, rows, cols):
    """Exact squared distances between Z_query[rows] and Z[cols], summed column by column.

    The result has the shape of ``cols``, which ``rows`` broadcasts against;
    each column's differences are squared in the one buffer Z[cols, c].
    """
    d2 = np.zeros(np.shape(cols))
    for c in range(Z.shape[1]):
        diff = Z[cols, c]
        np.subtract(Z_query[rows, c], diff, out=diff)
        diff *= diff
        d2 += diff
    return d2


def _neighbour_weights(Z, weights, k_list, Z_query=None) -> dict[int, sparse.csr_array]:
    """Survey weights of each query row's neighbour set: one (query, training) matrix per k.

    The set holds the k nearest training rows of Z to each row of
    ``Z_query`` (Z itself by default); ties at the k-th distance expand it,
    so permuting the training rows leaves predictions unchanged and every
    vote is (W @ y) / W.sum(axis=1).

    One k-d tree query for the k_max + 1 nearest candidates serves every
    k.  The tie threshold kth + 1e-12 (1 + kth) comes from exact squared
    distances, not the tree's.  A row whose farthest candidate lies
    clearly beyond it is decided by its candidates; the remaining rows,
    whose ties may reach past the candidates, share one radius query
    filtered by the same exact distances.  Column indices come out sorted:
    each row's candidates are put in column order once, so a k whose rows
    are all decided reads its CSR straight off the row-major mask
    d2 <= thr, and only a k with tied rows sorts its (row, column) keys.
    This is the only user of scipy's k-d tree and CSR arrays, so the
    rest of the package loads without scipy.

    Working set per query row, with K = k_max + 1: the tree's answer is
    K int64 candidates and K distances (16 K bytes, the distances dropped
    at once); the candidates are then held in the CSR index dtype (int32
    below 2**31) beside their exact squared distances, 12 K.  A sorted
    copy of the distances (8 K) lives until each k's threshold column and
    the last column are read.  Each k's CSR takes 12 bytes per neighbour:
    its weights, and the candidates its (row, candidate) mask picks (K
    bytes), which are its column indices without a copy; a k with tied
    rows keeps int64 indices.
    """
    from scipy import sparse, spatial

    Zq = Z if Z_query is None else Z_query
    (n, p), q = Z.shape, Zq.shape[0]
    if p == 0:  # no coordinates left: all distances are 0, so all n points tie
        full = sparse.csr_array(
            (np.tile(weights, q), np.tile(np.arange(n), q), np.arange(0, q * n + 1, n)),
            shape=(q, n),
        )
        return {k: full for k in k_list}
    tree = spatial.cKDTree(Z)
    K = min(max(k_list, default=0) + 1, n)
    # csr_array keeps the index dtype it is given, so holding the candidates
    # in the one scipy picks for this size lets cand[mask] be a CSR's indices
    idx = sparse.get_index_dtype(maxval=max(n, q * K))
    cand = tree.query(Zq, k=np.arange(1, K + 1))[1]
    cand.sort(axis=1)  # column order; the candidates are distinct
    cand = cand.astype(idx, copy=False)
    d2 = _squared_distances(Zq, Z, np.arange(q)[:, None], cand)
    # each k's threshold and the farthest candidate are all the loop reads
    ranked = np.sort(d2, axis=1)[:, [k - 1 for k in k_list] + [K - 1]]
    out = {}
    for i, k in enumerate(k_list):
        kth = ranked[:, i]
        thr = kth + 1e-12 * (1.0 + kth)
        # 1e-9 covers the tree's own rounding of the distances it ranks by
        decided = (K == n) | (ranked[:, -1] > thr * (1.0 + 1e-9))
        mask = (d2 <= thr[:, None]) & decided[:, None]
        cols = cand[mask]  # row-major, and columns ascending within each row
        counts = mask.sum(axis=1)
        tied = np.flatnonzero(~decided)
        if tied.size:
            hits = tree.query_ball_point(Zq[tied], np.sqrt(thr[tied]) * (1.0 + 1e-9))
            t_counts = np.fromiter(map(len, hits), dtype=np.intp, count=tied.size)
            t_rows = np.repeat(tied, t_counts)
            t_cols = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp,
                                 count=int(t_counts.sum()))
            keep = _squared_distances(Zq, Z, t_rows, t_cols) <= thr[t_rows]
            # the tied rows' neighbours go back into row order by one key sort
            rows = np.repeat(np.arange(q), counts)
            key = np.sort(np.concatenate([rows * n + cols, t_rows[keep] * n + t_cols[keep]]))
            counts = np.bincount(key // n, minlength=q)
            cols = key % n  # int64, as ties may take more than q K neighbours
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(cols.dtype)
        out[k] = sparse.csr_array((weights[cols], cols, indptr), shape=(q, n))
    return out


def _vote_rule(W: sparse.csr_array) -> pen.PredictionRule:
    """The in-sample vote through neighbour weights W, as a prediction rule."""
    wsums = W.sum(axis=1)

    def train(Y):
        votes = W @ np.asarray(Y, dtype=float).T
        votes /= wsums[:, None]
        return votes.T

    return train


def _vote_rules(X, design: SurveyDesign, k_list) -> list[pen.PredictionRule]:
    """One in-sample vote rule per neighbour count, in the order of ``k_list``.

    X must be 2-D with one row per unit of the design, each k an integer
    in [1, n], and no k may repeat; the checks run before any work.  X is
    standardized once and one neighbour query serves every k.  The
    neighbour structure depends only on X, so each rule reuses it when the
    bootstrap retrains on blocks of outcome rows.
    """
    X = np.asarray(X, dtype=float)
    n = design.n
    if X.ndim != 2 or X.shape[0] != n:
        raise ValueError(f"X must be 2-D with the design's n={n} rows, got shape {X.shape}")
    for k in k_list:
        try:
            operator.index(k)
        except TypeError:
            raise ValueError(f"k must be an integer, got {k}") from None
        if k < 1 or k > n:
            raise ValueError(f"k must lie in [1, n={n}], got {k}")
    if len(set(k_list)) != len(k_list):
        raise ValueError(f"repeated neighbour count in {list(k_list)}")
    W = _neighbour_weights(_standardize(X, design.weights)[0], design.weights, k_list)
    return [_vote_rule(W[k]) for k in k_list]


def knn_rule(X, design: SurveyDesign, k: int) -> pen.PredictionRule:
    """In-sample kNN as a bootstrap-ready prediction rule."""
    return _vote_rules(X, design, [k])[0]


def knn_error_report(
    X, y, design: SurveyDesign, k_list, B: int, seed: int
) -> list[tuple[int, pen.PenaltyReport]]:
    """Bootstrap HTE error table for a list of neighbour counts.

    One weighted logistic fit generates the bootstrap outcomes for every k;
    it needs an intercept the distance-based rule itself does not carry.
    The k list is checked before that fit.  One neighbour query serves
    every k, and each bootstrap block is drawn once and voted through every
    k's neighbour weights; each k's report equals ``penalty.hte_bootstrap``
    on ``knn_rule(X, design, k)`` bit for bit.
    """
    X = np.asarray(X, dtype=float)
    rules = _vote_rules(X, design, k_list)
    gen = fit_weighted_glm(
        np.column_stack([np.ones(X.shape[0]), X]), y, Family(FamilyKind.BERNOULLI), design
    )
    if not k_list:
        return []
    reports = pen._bootstrap_reports(rules, gen, B, [seed], Loss(LossKind.ZERO_ONE))[0]
    return [(int(k), r) for k, r in zip(k_list, reports)]
