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

Covariates follow the generating GLM's rule: a non-finite or constant
column of X is rejected, not dropped, before any neighbour query or fit.

Working set, in bytes per sample unit, for a largest neighbour count
k_max: the neighbour sets are nested, so each neighbour is stored once,
in the shell of the smallest k that takes it (``_neighbour_weights``).
The shells keep 12 per neighbour of k_max, a double weight and an int32
column (scipy's index dtype below 2**31), and 4 per k for their row
pointers, so 12 k_max + 4 per k while the rules live; ties at the k-th
distance add neighbours.  Their build holds 12 K beside them,
K = k_max + 1 candidates and their exact squared distances, and the
bootstrap holds its block of m replicates, 8 m, and 25 m beside it
(``penalty._rule_sums``).  At n = 20,000, k = 10, 20, 30, 40 and one
block of 32 that is about 1,750 bytes per unit, 33 MiB; twenty k from 5
to 100 take about 3,170, 60 MiB.
"""

from __future__ import annotations

import itertools
import operator
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
    """Weighted z-scores of X's columns: (Z, center, scale).

    A column without weighted spread, whose SD is at most 1e-12 of its
    center's magnitude (or of 1), raises ValueError naming its index in X.
    """
    wsum = weights.sum()
    center = (weights[:, None] * X).sum(axis=0) / wsum
    var = (weights[:, None] * (X - center) ** 2).sum(axis=0) / wsum
    scale = np.sqrt(var)
    # a constant column keeps a rounding-level SD when its weighted mean is inexact
    flat = np.flatnonzero(scale <= 1e-12 * np.maximum(np.abs(center), 1.0))
    if flat.size:
        raise ValueError(f"X column {flat[0]} is constant: it has no weighted spread")
    return (X - center) / scale, center, scale


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


def _neighbour_weights(Z, weights, k_list, Z_query=None) -> list[sparse.csr_array]:
    """Survey weights of each query row's neighbours, in nested shells: one (query, training) CSR per k.

    k's neighbour set holds the k nearest training rows of Z to each row of
    ``Z_query`` (Z itself by default); ties at the k-th distance expand it,
    so permuting the training rows leaves predictions unchanged.  The sets
    are nested, {j : d2_ij <= thr_k(i)} with a threshold that grows with k,
    so each neighbour is kept once, in the shell of the smallest k that
    takes it: in ascending k, shell s holds the neighbours with
    thr_{s-1} < d2 <= thr_s.  The shells up to k sum to k's neighbour
    weights W_k, and k's vote is (sum of shell @ y) / (sum of shell row sums).

    One k-d tree query for the k_max + 1 nearest candidates serves every
    k.  The tie threshold kth + 1e-12 (1 + kth) comes from exact squared
    distances, not the tree's.  A row whose farthest candidate lies
    clearly beyond k_max's threshold is decided by its candidates; the
    remaining rows, whose ties may reach past the candidates, share one
    radius query at k_max's threshold, and each of their shells is cut
    from its answer by the same exact distances.  Column indices come out
    sorted: each row's candidates are put in column order once, so a shell
    without tied rows reads its CSR straight off the row-major mask, and
    only a shell with tied rows sorts its (row, column) keys.  This is the
    only user of scipy's k-d tree and CSR arrays, so the rest of the
    package loads without scipy.

    Working set per query row, with K = k_max + 1: the tree's answer is
    K int64 candidates and K distances (16 K bytes, the distances dropped
    at once); the candidates are then held in the CSR index dtype (int32
    below 2**31) beside their exact squared distances, 12 K.  A sorted
    copy of the distances (8 K) lives until each k's threshold column and
    the last column are read.  The shells take 12 bytes per neighbour of
    k_max: its weight, and its column index, which the shell's
    (row, candidate) mask picks from the candidates without a copy; each
    shell adds an indptr entry, 4 bytes per k.  A shell with tied rows
    keeps int64 indices.
    """
    from scipy import sparse, spatial

    if not k_list:
        return []
    ks = sorted(k_list)
    Zq = Z if Z_query is None else Z_query
    n, q = Z.shape[0], Zq.shape[0]
    tree = spatial.cKDTree(Z)
    K = min(ks[-1] + 1, n)
    # csr_array keeps the index dtype it is given, so holding the candidates
    # in the one scipy picks for this size lets cand[mask] be a CSR's indices
    idx = sparse.get_index_dtype(maxval=max(n, q * K))
    cand = tree.query(Zq, k=np.arange(1, K + 1))[1]
    cand.sort(axis=1)  # column order; the candidates are distinct
    cand = cand.astype(idx, copy=False)
    d2 = _squared_distances(Zq, Z, np.arange(q)[:, None], cand)
    # each k's threshold and the farthest candidate are all the loop reads
    ranked = np.sort(d2, axis=1)[:, [k - 1 for k in ks] + [K - 1]]
    thr = ranked[:, :-1]
    thr += 1e-12 * (1.0 + thr)
    # 1e-9 covers the tree's own rounding of the distances it ranks by;
    # a row decided at k_max is decided at every smaller k
    decided = (K == n) | (ranked[:, -1] > thr[:, -1] * (1.0 + 1e-9))
    tied = np.flatnonzero(~decided)
    if tied.size:
        hits = tree.query_ball_point(Zq[tied], np.sqrt(thr[tied, -1]) * (1.0 + 1e-9))
        t_counts = np.fromiter(map(len, hits), dtype=np.intp, count=tied.size)
        t_rows = np.repeat(tied, t_counts)
        t_cols = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp,
                             count=int(t_counts.sum()))
        t_d2 = _squared_distances(Zq, Z, t_rows, t_cols)
    shells = []
    lo = np.full(q, -np.inf)
    for hi in thr.T:
        mask = (d2 > lo[:, None]) & (d2 <= hi[:, None]) & decided[:, None]
        cols = cand[mask]  # row-major, and columns ascending within each row
        counts = mask.sum(axis=1)
        if tied.size:
            keep = (t_d2 > lo[t_rows]) & (t_d2 <= hi[t_rows])
            # the tied rows' neighbours go back into row order by one key sort
            rows = np.repeat(np.arange(q), counts)
            key = np.sort(np.concatenate([rows * n + cols, t_rows[keep] * n + t_cols[keep]]))
            counts = np.bincount(key // n, minlength=q)
            cols = key % n  # int64, as ties may take more than q K neighbours
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(cols.dtype)
        shells.append(sparse.csr_array((weights[cols], cols, indptr), shape=(q, n)))
        lo = hi
    return shells


def _vote_rule(shells: list[sparse.csr_array], wsums) -> pen.PredictionRule:
    """The in-sample vote through the shells of one neighbour count, as a prediction rule.

    ``wsums`` holds the rows' weight totals: the shells' row sums, added in
    shell order.
    """

    def train(Y):
        # one C-ordered copy of the outcomes serves every shell's product
        Yt = np.ascontiguousarray(np.asarray(Y, dtype=float).T)
        votes = shells[0] @ Yt
        for s in shells[1:]:
            votes += s @ Yt
        votes /= wsums[:, None]
        return votes.T

    return train


def _vote_rules(X, design: SurveyDesign, k_list) -> list[pen.PredictionRule]:
    """One in-sample vote rule per neighbour count, in the order of ``k_list``.

    X must be 2-D with one row per unit of the design, finite, and with
    weighted spread in every column; each k must be an integer in [1, n],
    and no k may repeat.  The checks run before any work.  X is
    standardized once and one neighbour query serves every k; k's rule
    votes through the shells up to k.  The neighbour structure depends
    only on X, so each rule reuses it when the bootstrap retrains on
    blocks of outcome rows.
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
    finite = np.isfinite(X).all(axis=0)
    if not finite.all():
        raise ValueError(f"X column {np.flatnonzero(~finite)[0]} holds a NaN or inf")
    # votes do not depend on the weights' scale; with the smallest weight 1,
    # equal weights sum exactly, so an exact half votes 1 as the tie rule says
    shells = _neighbour_weights(_standardize(X, design.weights)[0],
                                design.weights / design.weights.min(), k_list)
    # each k's weight totals add one shell's row sums to the previous k's
    wsums = list(itertools.accumulate(s.sum(axis=1) for s in shells))
    ks = sorted(k_list)
    return [_vote_rule(shells[:i + 1], wsums[i]) for i in map(ks.index, k_list)]


def knn_rule(X, design: SurveyDesign, k: int) -> pen.PredictionRule:
    """In-sample kNN as a bootstrap-ready prediction rule."""
    return _vote_rules(X, design, [k])[0]


def knn_error_report(
    X, y, design: SurveyDesign, k_list, B: int, seed: int
) -> list[tuple[int, pen.PenaltyReport]]:
    """Bootstrap HTE error table for a list of neighbour counts.

    One weighted logistic fit generates the bootstrap outcomes for every k;
    it needs an intercept the distance-based rule itself does not carry.
    X and the k list are checked before that fit and any neighbour query.
    One neighbour query serves every k, and each bootstrap block is drawn
    once and voted through every k's neighbour shells.  Each k's report
    equals ``penalty.hte_bootstrap`` on ``knn_rule(X, design, k)``, whose
    one shell adds k's neighbours in column order rather than shell by
    shell: the votes may differ in their last bits, which moves a report
    only where a vote lies within rounding of 1/2.
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
