"""Design-weighted k-nearest-neighbour classification under 0-1 loss.

The classifier standardizes covariates with weighted means and standard
deviations from the training data, votes with the survey weights of the
k nearest points (self included, so the optimism is nonzero), and maps
the vote to the +-1 penalty parameter of the 0-1 loss.  As a bootstrap
rule, ``knn_rule(X, design, k)(Y)`` returns the RuleFit of outcome rows Y.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse, spatial

from . import families as fam
from . import penalty as pen
from .design import SurveyDesign
from .families import Family, FamilyKind, Loss, LossKind
from .fit import fit_weighted_glm

__all__ = ["KnnModel", "knn_train", "knn_predict", "knn_rule", "knn_error_report"]


@dataclass(frozen=True)
class KnnModel:
    k: int
    X: np.ndarray  # standardized training covariates
    y: np.ndarray
    weights: np.ndarray
    center: np.ndarray
    scale: np.ndarray
    kept_columns: np.ndarray


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


def _check_k(k, n) -> None:
    if k < 1 or k > n:
        raise ValueError(f"k must lie in [1, n={n}], got {k}")


def knn_train(X, y, design: SurveyDesign, k: int) -> KnnModel:
    """Store standardized covariates and outcomes; kNN has no fitting step."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    _check_k(k, X.shape[0])
    fam.check_outcomes(Family(FamilyKind.BERNOULLI), y)
    Z, center, scale, kept = _standardize(X, design.weights)
    return KnnModel(
        k=k, X=Z, y=y, weights=design.weights,
        center=center, scale=scale, kept_columns=kept,
    )


def _squared_distances(Z_query, Z, rows, cols):
    """Exact squared distances between Z_query[rows] and Z[cols], summed column by column."""
    d2 = np.zeros(np.broadcast_shapes(np.shape(rows), np.shape(cols)))
    for c in range(Z.shape[1]):
        d2 += (Z_query[rows, c] - Z[cols, c]) ** 2
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
    filtered by the same exact distances.  Column indices come out sorted.
    """
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
    _, cand = tree.query(Zq, k=np.arange(1, K + 1))
    d2 = _squared_distances(Zq, Z, np.arange(q)[:, None], cand)
    d2_sorted = np.sort(d2, axis=1)
    out = {}
    for k in k_list:
        kth = d2_sorted[:, k - 1]
        thr = kth + 1e-12 * (1.0 + kth)
        # 1e-9 covers the tree's own rounding of the distances it ranks by
        decided = (K == n) | (d2_sorted[:, -1] > thr * (1.0 + 1e-9))
        rows, j = np.nonzero((d2 <= thr[:, None]) & decided[:, None])
        cols = cand[rows, j]
        tied = np.flatnonzero(~decided)
        if tied.size:
            hits = tree.query_ball_point(Zq[tied], np.sqrt(thr[tied]) * (1.0 + 1e-9))
            counts = np.fromiter(map(len, hits), dtype=np.intp, count=tied.size)
            t_rows = np.repeat(tied, counts)
            t_cols = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp,
                                 count=int(counts.sum()))
            keep = _squared_distances(Zq, Z, t_rows, t_cols) <= thr[t_rows]
            rows = np.concatenate([rows, t_rows[keep]])
            cols = np.concatenate([cols, t_cols[keep]])
        key = np.sort(rows * n + cols)  # row-major, columns ascending
        cols = key % n
        indptr = np.concatenate([[0], np.cumsum(np.bincount(key // n, minlength=q))])
        out[k] = sparse.csr_array((weights[cols], cols, indptr), shape=(q, n))
    return out


def knn_predict(model: KnnModel, X_new) -> np.ndarray:
    """Weight-proportional class-1 vote of the k nearest neighbours."""
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    kc = model.kept_columns
    Z_new = (X_new[:, kc] - model.center[kc]) / model.scale[kc]
    W = _neighbour_weights(model.X, model.weights, [model.k], Z_new)[model.k]
    return (W @ model.y) / W.sum(axis=1)


def _vote_rule(W: sparse.csr_array) -> pen.PredictionRule:
    """The in-sample vote through neighbour weights W, as a prediction rule."""
    wsums = W.sum(axis=1)
    loss = Loss(LossKind.ZERO_ONE)

    def train(Y) -> pen.RuleFit:
        mu = (W @ np.asarray(Y, dtype=float).T).T / wsums
        return pen.RuleFit(mu=mu, lam=np.asarray(fam.lambda_hat(loss, mu)))

    return train


def knn_rule(X, design: SurveyDesign, k: int) -> pen.PredictionRule:
    """In-sample kNN as a bootstrap-ready prediction rule.

    The neighbour structure depends only on X, so it is computed once and
    reused when the bootstrap retrains on blocks of resampled outcome rows.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _check_k(k, X.shape[0])
    Z = _standardize(X, design.weights)[0]
    return _vote_rule(_neighbour_weights(Z, design.weights, [k])[k])


def knn_error_report(
    X, y, design: SurveyDesign, k_list, B: int, seed: int
) -> list[tuple[int, pen.PenaltyReport]]:
    """Bootstrap HTE error table for a list of neighbour counts.

    One weighted logistic fit generates the bootstrap outcomes for every k;
    it needs an intercept the distance-based rule itself does not carry.
    One neighbour query serves every k.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    for k in k_list:
        _check_k(k, X.shape[0])
    if len(set(k_list)) != len(k_list):
        raise ValueError(f"repeated neighbour count in {list(k_list)}")
    gen = fit_weighted_glm(
        np.column_stack([np.ones(X.shape[0]), X]), y, Family(FamilyKind.BERNOULLI), design
    )
    W = _neighbour_weights(_standardize(X, design.weights)[0], design.weights, k_list)
    loss = Loss(LossKind.ZERO_ONE)
    return [
        (int(k), pen.hte_bootstrap(_vote_rule(W[k]), gen, B=B, seed=seed, loss=loss))
        for k in k_list
    ]
