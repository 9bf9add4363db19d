"""Design-weighted k-nearest-neighbour classification under 0-1 loss.

The classifier standardizes covariates with weighted means and standard
deviations from the training data, votes with the survey weights of the
k nearest points (self included, so the optimism is nonzero), and maps
the vote to the +-1 penalty parameter of the 0-1 loss.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

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


def _standardize_params(X, weights):
    wsum = weights.sum()
    center = (weights[:, None] * X).sum(axis=0) / wsum
    var = (weights[:, None] * (X - center) ** 2).sum(axis=0) / wsum
    scale = np.sqrt(var)
    # a constant column keeps a rounding-level SD when its weighted mean is inexact
    kept = scale > 1e-12 * np.maximum(np.abs(center), 1.0)
    if not np.all(kept):
        warnings.warn(f"dropping {int((~kept).sum())} zero-variance column(s)")
    return center, scale, np.flatnonzero(kept)


def knn_train(X, y, design: SurveyDesign, k: int) -> KnnModel:
    """Store standardized covariates and outcomes; kNN has no fitting step."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k must lie in [1, n={n}], got {k}")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("kNN classification requires a binary 0/1 outcome")
    center, scale, kept = _standardize_params(X, design.weights)
    Z = (X[:, kept] - center[kept]) / scale[kept]
    return KnnModel(
        k=k, X=Z, y=y, weights=design.weights,
        center=center, scale=scale, kept_columns=kept,
    )


def _neighbour_weights(model: KnnModel, Z_query) -> sparse.csr_array:
    """Survey weights of each query row's neighbour set, as a (query, training) matrix.

    The set holds the k nearest training points; ties at the k-th distance
    expand it, so permuting the training rows leaves predictions unchanged
    and every vote is (W @ y) / W.sum(axis=1).
    """
    d2 = np.zeros((Z_query.shape[0], model.X.shape[0]))
    for c in range(model.X.shape[1]):  # no (query, training, column) temporary
        d2 += (Z_query[:, None, c] - model.X[None, :, c]) ** 2
    kth = np.partition(d2, model.k - 1, axis=1)[:, model.k - 1]
    rows, cols = np.nonzero(d2 <= (kth + 1e-12 * (1.0 + kth))[:, None])
    return sparse.csr_array((model.weights[cols], (rows, cols)), shape=d2.shape)


def knn_predict(model: KnnModel, X_new) -> np.ndarray:
    """Weight-proportional class-1 vote of the k nearest neighbours."""
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    kc = model.kept_columns
    W = _neighbour_weights(model, (X_new[:, kc] - model.center[kc]) / model.scale[kc])
    return (W @ model.y) / W.sum(axis=1)


def knn_rule(X, design: SurveyDesign, k: int) -> pen.PredictionRule:
    """In-sample kNN as a bootstrap-ready prediction rule.

    The neighbour structure depends only on X, so it is computed once and
    reused when the bootstrap retrains on blocks of resampled outcome rows.
    """
    probe = knn_train(X, np.zeros(len(X)), design, k)
    W = _neighbour_weights(probe, probe.X)
    wsums = W.sum(axis=1)
    loss = Loss(LossKind.ZERO_ONE)

    def train(X_train, Y, design_train) -> pen.RuleFit:
        mu = (W @ np.asarray(Y, dtype=float).T).T / wsums
        return pen.RuleFit(mu=mu, lam=np.asarray(fam.lambda_hat(loss, mu)))

    return train


def knn_error_report(
    X, y, design: SurveyDesign, k_list, B: int, seed: int
) -> list[tuple[int, pen.PenaltyReport]]:
    """Bootstrap HTE error table for a list of neighbour counts.

    One weighted logistic fit generates the bootstrap outcomes for every k;
    it needs an intercept the distance-based rule itself does not carry.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    gen = fit_weighted_glm(
        np.column_stack([np.ones(X.shape[0]), X]), y, Family(FamilyKind.BERNOULLI), design
    )
    loss = Loss(LossKind.ZERO_ONE)
    return [
        (int(k), pen.hte_bootstrap(knn_rule(X, design, k), X, gen, B=B, seed=seed, loss=loss))
        for k in k_list
    ]
