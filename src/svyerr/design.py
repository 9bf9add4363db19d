"""Complex sampling designs and the score-covariance "meat" matrix.

A :class:`SurveyDesign` carries the sampling weights (given directly or as
inverse inclusion probabilities) and the stratum/PSU structure of the
sample, and owns the Horvitz-Thompson mean.  The meat builders return the
estimated covariance of the weighted score: a plain inverse-probability
outer-product sum for independent samples, or the stratified block form
with raw within-PSU blocks and mean-centered cross-PSU blocks.

Working set, in arrays of n numbers: :attr:`SurveyDesign.psu_cells` holds
about seven at once (the stratum codes, the (stratum, PSU label) keys and
np.unique's sort of them), and keeps one, the PSU cell of each unit.
Beside X, the residuals and the cells, ``meat_stratified_cluster`` holds at
most three, since it scales X one column at a time, and
``meat_independent`` p + 1 (the scaled copy of X, and w r).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "SurveyDesign",
    "MeatStructure",
    "DesignError",
    "meat_independent",
    "meat_stratified_cluster",
]


class DesignError(ValueError):
    """Invalid sampling-design specification."""


def _finite_positive(a) -> bool:
    return bool(np.all(np.isfinite(a) & (a > 0.0)))


class MeatStructure(str, Enum):
    INDEPENDENT = "independent"
    STRATIFIED_CLUSTER = "stratified_cluster"


@dataclass(frozen=True)
class SurveyDesign:
    """Sample-level description of a complex sampling design.

    Built from exactly one of ``pi``, inclusion probabilities in (0, 1]
    stored as 1/pi, and ``weights``, kept as given (calibrated weights
    below 1 included).  Its arrays are not to be mutated after
    construction: ``pop_size`` and :attr:`psu_cells` are derived from them.

    Attributes:
        weights: sampling weights, after any Hajek rescaling.
        strata: stratum label per unit (optional).
        psu: primary-sampling-unit label per unit (optional).  A PSU is the
            pair (stratum, label), so labels may repeat across strata.
        pop_size: population size N; defaults to round(sum of weights).
        hajek: rescale the weights to sum to ``pop_size``, which must be given.
    """

    pi: InitVar[np.ndarray | None] = None
    weights: np.ndarray = None  # type: ignore[assignment]
    strata: np.ndarray | None = None
    psu: np.ndarray | None = None
    pop_size: float = None  # type: ignore[assignment]
    hajek: bool = field(default=False)

    def __post_init__(self, pi) -> None:
        if (pi is None) == (self.weights is None):
            raise DesignError("give exactly one of pi and weights")
        if pi is None:
            w = np.asarray(self.weights, dtype=float)
        else:
            pi = np.asarray(pi, dtype=float)
            if not np.all((pi > 0.0) & (pi <= 1.0)):  # NaN fails too
                raise DesignError("inclusion probabilities must lie in (0, 1]")
            w = 1.0 / pi
        if not _finite_positive(w):
            raise DesignError("weights must be finite and positive")
        if self.hajek:
            if self.pop_size is None:
                raise DesignError("Hajek rescaling needs the population size pop_size")
            w = w * (float(self.pop_size) / w.sum())
        pop_size = float(np.round(w.sum()) if self.pop_size is None else self.pop_size)
        # after the Hajek rescaling, which a zero or negative N turns into
        # zero or negative weights
        if not (_finite_positive(pop_size) and _finite_positive(w)):
            raise DesignError(f"population size and weights must be finite and positive, N = {pop_size:g}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "pop_size", pop_size)
        for name in ("strata", "psu"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v)
                if v.shape != w.shape:
                    raise DesignError(f"{name} must have the same length as the weights")
                object.__setattr__(self, name, v)

    @property
    def n(self) -> int:
        return int(self.weights.shape[0])

    def mean(self, v) -> float:
        """Horvitz-Thompson mean (1/N) sum_i w_i v_i."""
        return float(self.weights @ v) / self.pop_size

    @classmethod
    def uniform(cls, n: int) -> "SurveyDesign":
        """A census of ``n`` units: every pi is 1, so N = n."""
        return cls(pi=np.ones(n))

    @cached_property
    def psu_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Key PSUs by (stratum, PSU label), as R survey's ``svydesign(nest=TRUE)``.

        Returns ``(cell, stratum_of_cell)``: the PSU cell of each unit, and the
        stratum of each cell as its index in sorted stratum-label order.
        Without stratum labels the whole sample is one stratum.  Cells are
        stratum-major, and within a stratum ordered by their first row, so
        the numbering (and every sum over cells) does not depend on how PSUs
        are labelled: unique and reused labels give the same cells.
        """
        if self.psu is None:
            raise DesignError("PSU labels are required")
        _, j = np.unique(self.psu, return_inverse=True)
        if self.strata is None:
            h = np.zeros_like(j)
        else:
            h = np.unique(self.strata, return_inverse=True)[1]
        key = h * (j.max() + 1)
        key += j
        del j  # the label codes go before the sort of the (stratum, label) keys
        _, first, cell = np.unique(key, return_index=True, return_inverse=True)
        order = np.lexsort((first, h[first]))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return rank[cell], h[first[order]]


del SurveyDesign.pi  # the InitVar default left behind: design.pi must fail, not read None


def meat_independent(X, residuals, design: SurveyDesign) -> np.ndarray:
    """Score covariance for an independently drawn unstratified sample.

    Returns (1/N^2) sum_i w_i^2 r_i^2 x_i x_i^T.
    """
    X = np.asarray(X, dtype=float)
    r = np.asarray(residuals, dtype=float)
    if X.shape[0] != r.shape[0] or r.shape != design.weights.shape:
        raise DesignError("X, residuals, and design must align")
    A = X * (design.weights * r)[:, None]
    V = A.T @ A / design.pop_size**2
    return (V + V.T) / 2.0


def _segment_sums(group, X, n_groups: int, scale=None) -> np.ndarray:
    """Column sums of ``X`` (n, p), each times ``scale`` if given, within each of ``n_groups`` groups.

    One scaled column of n is formed at a time, never the scaled (n, p) matrix.
    """
    return np.stack(
        [np.bincount(group, x if scale is None else x * scale, n_groups) for x in X.T], axis=1)


def meat_stratified_cluster(X, residuals, design: SurveyDesign) -> np.ndarray:
    """Score covariance with the stratified/PSU block structure.

    Within each stratum, same-PSU blocks use raw residual outer products;
    cross-PSU blocks use residuals centered at their within-PSU mean, so
    a stratum of singleton PSUs contributes no cross terms and the result
    collapses to :func:`meat_independent`.  Every stratum needs at least
    two PSUs.

    PSUs are the (stratum, label) cells of :attr:`SurveyDesign.psu_cells`;
    without stratum labels the whole sample is one stratum.  Cost O(n p),
    from segment sums: rows u_c and v_c of U and C sum x_i w_i r_i over
    PSU c, with r_i raw and centered at the PSU mean; row s_h of S sums
    the v_c of stratum h.  Then V_U = (U^T U + S^T S - C^T C) / N^2.
    """
    X = np.asarray(X, dtype=float)
    r = np.asarray(residuals, dtype=float)
    if X.shape[0] != r.shape[0] or r.shape != design.weights.shape:
        raise DesignError("X, residuals, and design must align")
    cell, stratum_of_cell = design.psu_cells
    n_cells, n_strata = len(stratum_of_cell), int(stratum_of_cell.max()) + 1
    lonely = np.bincount(stratum_of_cell, minlength=n_strata) < 2
    if lonely.any():
        if design.strata is None:
            where = "the sample has"
        else:
            h = stratum_of_cell[cell]
            label = design.strata.item(int(np.argmax(h == np.argmax(lonely))))
            where = f"stratum {label!r} has"
        raise DesignError(f"{where} a single PSU; variance within one cluster is unidentifiable")
    w = design.weights
    rbar = np.bincount(cell, r, n_cells) / np.bincount(cell, minlength=n_cells)
    U = _segment_sums(cell, X, n_cells, w * r)
    C = _segment_sums(cell, X, n_cells, w * (r - rbar[cell]))
    S = _segment_sums(stratum_of_cell, C, n_strata)
    # same-PSU blocks plus all cross-PSU centered blocks
    V = (U.T @ U + S.T @ S - C.T @ C) / design.pop_size**2
    return (V + V.T) / 2.0
