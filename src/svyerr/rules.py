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

from . import families as fam
from . import penalty as pen
from .design import SurveyDesign
from .families import Family, FamilyKind, Loss, LossKind

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
    kept = scale > 0.0
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


def _neighbour_sets(model: KnnModel, Z_query) -> list[np.ndarray]:
    """Indices of the k nearest training points per query row.

    Ties at the k-th distance expand the set; remaining ordering is by
    distance then original index, so permuting the training rows leaves
    predictions unchanged.
    """
    d2 = ((Z_query[:, None, :] - model.X[None, :, :]) ** 2).sum(axis=-1)
    out = []
    for row in d2:
        order = np.lexsort((np.arange(len(row)), row))
        kth = row[order[model.k - 1]]
        cut = np.searchsorted(row[order], kth + 1e-12 * (1.0 + kth), side="right")
        out.append(order[:cut])
    return out


def knn_predict(model: KnnModel, X_new) -> np.ndarray:
    """Weight-proportional class-1 vote of the k nearest neighbours."""
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    kc = model.kept_columns
    Z = (X_new[:, kc] - model.center[kc]) / model.scale[kc]
    votes = np.empty(Z.shape[0])
    for i, idx in enumerate(_neighbour_sets(model, Z)):
        wv = model.weights[idx]
        votes[i] = float(wv @ model.y[idx]) / float(wv.sum())
    return votes


def knn_rule(X, design: SurveyDesign, k: int) -> pen.PredictionRule:
    """In-sample kNN as a bootstrap-ready prediction rule.

    The neighbour structure depends only on X, so it is computed once and
    reused when the bootstrap retrains on resampled outcomes.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    probe = knn_train(X, np.zeros(X.shape[0]), design, k)
    w = probe.weights
    neigh = _neighbour_sets(probe, probe.X)
    wsums = np.array([w[idx].sum() for idx in neigh])
    loss = Loss(LossKind.ZERO_ONE)

    if all(len(idx) == k for idx in neigh):
        # no distance ties at the k-th neighbour: vectorized voting
        idx_mat = np.vstack(neigh)
        w_mat = w[idx_mat]

        def train(X_train, y, design_train) -> pen.RuleFit:
            y = np.asarray(y, dtype=float)
            mu = (w_mat * y[idx_mat]).sum(axis=1) / wsums
            return pen.RuleFit(mu=mu, lam=np.asarray(fam.lambda_hat(loss, mu)))
    else:

        def train(X_train, y, design_train) -> pen.RuleFit:
            y = np.asarray(y, dtype=float)
            mu = np.array([w[idx] @ y[idx] for idx in neigh]) / wsums
            return pen.RuleFit(mu=mu, lam=np.asarray(fam.lambda_hat(loss, mu)))

    return train


def knn_error_report(
    X,
    y,
    design: SurveyDesign,
    k_list,
    B: int,
    seed: int,
    phi_hat: float = 1.0,
) -> list[tuple[int, pen.PenaltyReport]]:
    """Bootstrap HTE error table for a list of neighbour counts."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    # the generating logistic model needs an intercept the distance-based
    # rule itself does not carry
    X_sim = np.column_stack([np.ones(X.shape[0]), X])
    out = []
    for k in k_list:
        rule = knn_rule(X, design, k)
        report = pen.hte_bootstrap(
            rule, X, y, design,
            family_for_sim=Family(FamilyKind.BERNOULLI),
            B=B, seed=seed, loss=Loss(LossKind.ZERO_ONE), phi_hat=phi_hat,
            X_sim=X_sim,
        )
        out.append((int(k), report))
    return out
