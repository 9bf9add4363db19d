"""Design-weighted kNN classification and its bootstrap error table."""

import gc
import tracemalloc

import numpy as np
import pytest
from scipy import sparse, spatial

from svyerr import families, penalty, rules
from svyerr.design import SurveyDesign
from svyerr.families import Family, FamilyKind, Loss, LossKind
from svyerr.fit import fit_weighted_glm
from svyerr.rules import _neighbour_weights, _standardize, knn_error_report, knn_rule


def _binary_data(rng, n=60, p=2):
    X = rng.normal(size=(n, p))
    prob = 1.0 / (1.0 + np.exp(-(X[:, 0] + 0.5 * X[:, 1])))
    y = (rng.random(n) < prob).astype(float)
    design = SurveyDesign(pi=rng.uniform(0.2, 1.0, size=n))
    return X, y, design


def _loop_neighbour_sets(Z, k, Z_query):
    """Reference neighbour sets: one sort by (distance, index) per query row.

    Ties at the k-th distance expand the set, with the same relative
    tolerance as the library.
    """
    d2 = ((Z_query[:, None, :] - Z[None, :, :]) ** 2).sum(axis=-1)
    out = []
    for row in d2:
        order = np.lexsort((np.arange(len(row)), row))
        kth = row[order[k - 1]]
        cut = np.searchsorted(row[order], kth + 1e-12 * (1.0 + kth), side="right")
        out.append(order[:cut])
    return out


def _dense_neighbour_weights(Z, weights, k, Z_query):
    """Reference neighbour weights from the full (query, training) squared-distance matrix.

    The k-th smallest squared distance of each row sets the tie threshold
    kth + 1e-12 (1 + kth), as in the library; memory is O(query x training).
    """
    d2 = np.zeros((Z_query.shape[0], Z.shape[0]))
    for c in range(Z.shape[1]):  # no (query, training, column) temporary
        d2 += (Z_query[:, None, c] - Z[None, :, c]) ** 2
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    rows, cols = np.nonzero(d2 <= (kth + 1e-12 * (1.0 + kth))[:, None])
    return sparse.csr_array((weights[cols], (rows, cols)), shape=d2.shape)


def _assert_same_csr(got, want):
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)


def _standardized_query(X, weights, query):
    """The sample's z-scores and the query in the same coordinates (the sample's center and scale)."""
    Z, center, scale = _standardize(X, weights)
    return Z, (query - center) / scale


def _neighbour_case(kind, n=40):
    """Training data and queries: tie-heavy grid, continuous, or off-sample queries."""
    rng = np.random.default_rng(["integer_grid", "continuous", "off_training"].index(kind))
    if kind == "integer_grid":
        X = rng.integers(0, 4, size=(n, 2)).astype(float)
        query = rng.integers(0, 7, size=(15, 2)) / 2.0  # on and between grid points
    else:
        X = rng.normal(size=(n, 3))
        query = X[:15] if kind == "continuous" else 2.0 * rng.normal(size=(15, 3)) + 0.3
    y = (rng.random(n) < 0.5).astype(float)
    return X, y, SurveyDesign(pi=rng.uniform(0.2, 1.0, size=n)), query


@pytest.mark.parametrize("k", [1, 13, 40])
@pytest.mark.parametrize("kind", ["integer_grid", "continuous", "off_training"])
def test_neighbour_weights_match_loop_oracle(kind, k):
    X, y, d, query = _neighbour_case(kind)
    Z, Z_query = _standardized_query(X, d.weights, query)
    for Zq in (Z, Z_query):  # in-sample, then off-sample query rows
        W = _neighbour_weights(Z, d.weights, [k], Zq)[k]
        sets = _loop_neighbour_sets(Z, k, Zq)
        for i, idx in enumerate(sets):
            cols = W.indices[W.indptr[i]:W.indptr[i + 1]]
            np.testing.assert_array_equal(np.sort(cols), np.sort(idx))
            np.testing.assert_array_equal(W.data[W.indptr[i]:W.indptr[i + 1]], d.weights[cols])
        if kind == "integer_grid" and k < len(y):
            assert any(len(idx) > k for idx in sets)  # ties expanded some sets
    sets = _loop_neighbour_sets(Z, k, Z)
    want = np.array([d.weights[idx] @ y[idx] / d.weights[idx].sum() for idx in sets])
    np.testing.assert_allclose(knn_rule(X, d, k)(y[None])[0], want, rtol=0, atol=1e-12)


TREE_CASES = ("continuous", "integer_grid", "duplicate_rows",
              "one_column", "one_column_grid")


def _tree_case(kind, rng):
    """Training covariates and off-sample queries for the tree-versus-dense comparison."""
    if kind == "continuous":
        X = rng.normal(size=(120, 3))
        return X, 2.0 * rng.normal(size=(25, 3)) + 0.3
    if kind == "integer_grid":  # ~5 copies of each of 25 grid points
        X = rng.integers(0, 5, size=(120, 2)).astype(float)
        return X, rng.integers(0, 9, size=(25, 2)) / 2.0
    if kind == "duplicate_rows":
        X = rng.normal(size=(80, 2))
        query = np.concatenate([X[:10], rng.normal(size=(15, 2))])
        return np.concatenate([X, X[:40], X[:10]]), query
    if kind == "one_column":
        return rng.normal(size=(120, 1)), rng.normal(size=(25, 1))
    X = rng.integers(0, 4, size=(120, 1)).astype(float)  # one_column_grid
    return X, rng.integers(0, 7, size=(25, 1)) / 2.0


@pytest.mark.parametrize("k_list", [[1, 7, 30], [1, 119], [1, 120], [60, 120]])
@pytest.mark.parametrize("kind", TREE_CASES)
def test_tree_neighbour_weights_equal_dense_oracle(kind, k_list):
    # k_list [1, 119] queries all n candidates (k_max + 1 = n); [1, 120] asks for n + 1
    rng = np.random.default_rng(TREE_CASES.index(kind))
    X, query = _tree_case(kind, rng)
    n = len(X)
    d = SurveyDesign(pi=rng.uniform(0.2, 1.0, size=n))
    y = (rng.random(n) < 0.5).astype(float)
    Z, Z_query = _standardized_query(X, d.weights, query)
    for Zq in (None, Z_query):
        W = _neighbour_weights(Z, d.weights, k_list, Zq)
        assert list(W) == k_list
        for k in k_list:
            _assert_same_csr(W[k], _dense_neighbour_weights(
                Z, d.weights, k, Z if Zq is None else Zq))
    for k in k_list:  # knn_rule, one tree per k, reaches the same matrices
        want = _dense_neighbour_weights(Z, d.weights, k, Z)
        np.testing.assert_array_equal(knn_rule(X, d, k)(y[None])[0], (want @ y) / want.sum(axis=1))


def test_knn_rule_memory_is_not_quadratic():
    # one dense n x n squared-distance matrix at n = 5,000 needs 190 MiB
    rng = np.random.default_rng(14)
    n = 5_000
    X = rng.normal(size=(n, 2))
    d = SurveyDesign(pi=rng.uniform(0.1, 1.0, size=n))
    tracemalloc.start()
    try:
        knn_rule(X, d, k=40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


class TestWorkingSet:
    def test_knn_error_report_peak(self):
        # bound from the rules and penalty docstrings, in bytes per unit: the
        # neighbour weights keep 12 per neighbour, 12 sum(k); a block of m
        # replicates adds three (m, n) doubles and an (m, n) mask, 25 m; each
        # rule keeps its running sums, base fit and vote totals, 40 per rule;
        # 32 doubles more cover the covariates, the generating fit and the
        # rest.  The neighbour build's own peak, 12 K + 12 sum(k) + K with
        # K = k_max + 1, stays below that here.
        n, ks, B = 20_000, [10, 20, 30, 40], 32  # one block of 32 replicates
        rng = np.random.default_rng(7)
        X = rng.normal(size=(n, 2))
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X[:, 0] + 0.5 * X[:, 1])))).astype(float)
        d = SurveyDesign(weights=1.0 / rng.uniform(0.1, 1.0, size=n))
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reports = knn_error_report(X, y, d, ks, B=B, seed=3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert [k for k, _ in reports] == ks
        assert peak / n <= 12 * sum(ks) + 25 * min(B, penalty._BLOCK) + 40 * len(ks) + 8 * 32

    def test_constant_covariate_rejected_in_constant_memory(self):
        # with X's one column constant every distance is 0, so every unit ties
        # with every other: a neighbour build would hold n^2 weights before the
        # generating fit failed as rank deficient.  The check fails first.
        n = 4_000
        rng = np.random.default_rng(21)
        X = np.full((n, 1), 1.0)
        y = (rng.random(n) < 0.5).astype(float)
        d = SurveyDesign(weights=1.0 / rng.uniform(0.1, 1.0, size=n))
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="X column 0 is constant"):
                knn_error_report(X, y, d, [10, 20, 30, 40], B=32, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestKnnTrain:
    """Building the in-sample vote rule: k checks, standardization, neighbour sets."""

    def test_k_equals_n_gives_weighted_majority(self):
        rng = np.random.default_rng(0)
        X, y, d = _binary_data(rng, n=30)
        votes = knn_rule(X, d, k=30)(y[None])[0]
        majority = float(d.weights @ y) / d.weights.sum()
        np.testing.assert_allclose(votes, majority, atol=1e-12)

    def test_k1_self_inclusive_reproduces_outcomes(self):
        rng = np.random.default_rng(1)
        X, y, d = _binary_data(rng, n=40)
        np.testing.assert_array_equal(knn_rule(X, d, k=1)(y[None])[0], y)

    def test_duplicate_points_co_vote(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [-5.0, 2.0]])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        d = SurveyDesign.uniform(4)
        # both duplicates are each other's neighbour set; equal weights
        votes = knn_rule(X, d, k=2)(y[None])[0]
        np.testing.assert_allclose(votes[:2], 0.5)

    def test_k_above_n_rejected(self):
        rng = np.random.default_rng(2)
        X, y, d = _binary_data(rng, n=10)
        with pytest.raises(ValueError, match=r"k must lie in \[1, n=10\], got 11"):
            knn_rule(X, d, k=11)

    def test_nonbinary_outcome_rejected(self):
        with pytest.raises(ValueError, match="bernoulli outcomes must be 0/1"):
            knn_error_report(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 0.5, 1.0]),
                             SurveyDesign.uniform(3), [1], B=5, seed=0)

    def test_zero_variance_column_rejected(self):
        rng = np.random.default_rng(3)
        X, y, d = _binary_data(rng, n=20)
        X_aug = np.column_stack([X, np.full(20, 7.0)])
        with pytest.raises(ValueError, match="X column 2 is constant"):
            knn_rule(X_aug, d, k=3)

    def test_constant_column_with_inexact_weighted_mean_rejected(self):
        # random weights leave the weighted mean of 7.0 a rounding error off
        # 7.0, so the column's SD is tiny but not zero; it must still count
        # as constant
        rng = np.random.default_rng(13)
        X, y, d = _binary_data(rng, n=20)
        X_aug = np.column_stack([np.full(20, 7.0), X])
        w = d.weights
        center = (w * X_aug[:, 0]).sum() / w.sum()
        assert 0.0 < (w * (X_aug[:, 0] - center) ** 2).sum() / w.sum() < 1e-24
        with pytest.raises(ValueError, match="X column 0 is constant"):
            _standardize(X_aug, w)
        with pytest.raises(ValueError, match="X column 0 is constant"):
            knn_rule(X_aug, d, k=3)

    def test_all_columns_constant_rejected(self):
        # the GLM that generates the bootstrap outcomes cannot fit a constant
        # covariate beside its intercept, so kNN rejects it too
        rng = np.random.default_rng(11)
        _, y, d = _binary_data(rng, n=20)
        with pytest.raises(ValueError, match="X column 0 is constant"):
            knn_rule(np.zeros((20, 2)), d, k=3)
        with pytest.raises(ValueError, match="X column 0 is constant"):
            knn_error_report(np.zeros((20, 2)), y, d, [3], B=5, seed=0)


class TestKnnPredict:
    """The weighted vote of each point's neighbour set, and its invariances."""

    def test_unanimous_neighbours(self):
        X = np.array([[0.0], [0.1], [-0.1], [9.0]])
        y = np.array([1.0, 1.0, 1.0, 0.0])
        votes = knn_rule(X, SurveyDesign.uniform(4), k=3)(y[None])[0]
        np.testing.assert_array_equal(votes[:3], 1.0)

    def test_split_vote_probability(self):
        rng = np.random.default_rng(4)
        X = np.concatenate([rng.normal(0, 0.01, size=(10, 1)),
                            rng.normal(50, 0.01, size=(5, 1))])
        y = np.concatenate([np.ones(3), np.zeros(7), np.ones(5)])
        votes = knn_rule(X, SurveyDesign.uniform(15), k=10)(y[None])[0]
        np.testing.assert_allclose(votes[:10], 0.3)

    def test_weighted_vote(self):
        X = np.array([[0.0], [0.2], [40.0]])
        y = np.array([1.0, 0.0, 1.0])
        d = SurveyDesign(weights=[3.0, 1.0, 1.0])
        votes = knn_rule(X, d, k=2)(y[None])[0]
        np.testing.assert_allclose(votes[:2], 0.75)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        X, y, d = _binary_data(rng, n=35)
        perm = rng.permutation(35)
        d_perm = SurveyDesign(weights=d.weights[perm])
        votes = knn_rule(X, d, k=5)(y[None])[0]
        votes_perm = knn_rule(X[perm], d_perm, k=5)(y[perm][None])[0]
        np.testing.assert_allclose(votes_perm, votes[perm], atol=1e-12)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(6)
        X, y, d = _binary_data(rng, n=35)
        X_scaled = X * np.array([100.0, 0.01]) + np.array([-7.0, 3.0])
        np.testing.assert_allclose(knn_rule(X, d, k=5)(y[None]),
                                   knn_rule(X_scaled, d, k=5)(y[None]), atol=1e-12)


class TestKnnRule:
    def test_matches_train_predict_in_sample(self):
        # the in-sample rule equals the off-sample query path run on the sample itself
        rng = np.random.default_rng(7)
        X, y, d = _binary_data(rng, n=50)
        Z, Z_query = _standardized_query(X, d.weights, X)
        W = _neighbour_weights(Z, d.weights, [7], Z_query)[7]
        np.testing.assert_allclose(knn_rule(X, d, k=7)(y[None])[0], (W @ y) / W.sum(axis=1),
                                   atol=1e-12)

    @pytest.mark.parametrize("kind", ["integer_grid", "continuous"])
    def test_block_votes_bit_identical_to_per_row_votes(self, kind):
        X, _, d, _ = _neighbour_case(kind, n=60)
        rng = np.random.default_rng(12)
        Y = (rng.random((37, 60)) < 0.5).astype(float)
        mu = knn_rule(X, d, k=9)(Y)
        W = _neighbour_weights(_standardize(X, d.weights)[0], d.weights, [9])[9]
        want = np.stack([(W @ y) / W.sum(axis=1) for y in Y])
        np.testing.assert_array_equal(mu, want)


class TestKnnErrorReport:
    def test_k1_error_zero_and_decomposition(self):
        rng = np.random.default_rng(8)
        X, y, d = _binary_data(rng, n=40)
        [(k, report)] = knn_error_report(X, y, d, [1], B=30, seed=0)
        assert report.err_weighted == pytest.approx(0.0)
        assert report.err_hat == pytest.approx(report.omega_hat)

    def test_k_equals_n_near_zero_omega(self):
        # with a clear majority the all-neighbour vote almost never flips,
        # so the rule is effectively constant and the optimism is noise
        rng = np.random.default_rng(9)
        n = 60
        X = rng.normal(size=(n, 2))
        y = (rng.random(n) < 0.75).astype(float)
        d = SurveyDesign(pi=rng.uniform(0.4, 1.0, size=n))
        [(k, report)] = knn_error_report(X, y, d, [n], B=400, seed=1)
        assert abs(report.omega_hat) < 0.02

    def test_empty_k_list_gives_empty_table(self):
        rng = np.random.default_rng(16)
        X, y, d = _binary_data(rng, n=30)
        assert knn_error_report(X, y, d, [], B=5, seed=0) == []

    def test_repeated_k_rejected(self):
        rng = np.random.default_rng(17)
        X, y, d = _binary_data(rng, n=30)
        with pytest.raises(ValueError, match="repeated neighbour count"):
            knn_error_report(X, y, d, [5, 3, 5], B=5, seed=0)

    @pytest.mark.parametrize("k_list, match", [
        ([0], r"\[1, n=30\], got 0"), ([3, 31], r"\[1, n=30\], got 31"),
        ([3.0], "k must be an integer, got 3.0"), ([5, np.float64(2.0)], "integer, got 2.0"),
        ([5, 3, 5], "repeated neighbour count"),
    ], ids=["zero", "above_n", "float", "numpy_float", "repeated"])
    def test_bad_k_rejected_before_the_fit(self, monkeypatch, k_list, match):
        def no_fit(*args, **kwargs):
            raise AssertionError("the generating model was fitted")

        monkeypatch.setattr(rules, "fit_weighted_glm", no_fit)
        rng = np.random.default_rng(18)
        X, y, d = _binary_data(rng, n=30)
        with pytest.raises(ValueError, match=match):
            knn_error_report(X, y, d, k_list, B=5, seed=0)
        if len(k_list) == 1:
            with pytest.raises(ValueError, match=match):
                knn_rule(X, d, k_list[0])

    @pytest.mark.parametrize("value, match", [
        (7.0, "X column 1 is constant"), (np.nan, "X column 1 holds a NaN or inf"),
        (np.inf, "X column 1 holds a NaN or inf"), (-np.inf, "X column 1 holds a NaN or inf"),
    ], ids=["constant", "nan", "inf", "minus_inf"])
    @pytest.mark.parametrize("entry", ["knn_rule", "knn_error_report"])
    def test_bad_covariate_rejected_before_any_work(self, monkeypatch, entry, value, match):
        def no_work(*args, **kwargs):
            raise AssertionError("neighbours were queried or the generating model was fitted")

        monkeypatch.setattr(rules, "_neighbour_weights", no_work)
        monkeypatch.setattr(rules, "fit_weighted_glm", no_work)
        rng = np.random.default_rng(20)
        X, y, d = _binary_data(rng, n=30, p=3)
        if np.isfinite(value):
            X[:, 1] = value
        else:
            X[4, 1] = value
        with pytest.raises(ValueError, match=match):
            if entry == "knn_rule":
                knn_rule(X, d, 3)
            else:
                knn_error_report(X, y, d, [3, 5], B=5, seed=0)

    @pytest.mark.parametrize("shape, k", [((20,), 3), ((20,), 1), ((25, 2), 3)],
                             ids=["1d", "1d_k1", "extra_rows"])
    @pytest.mark.parametrize("entry", ["knn_rule", "knn_error_report"])
    def test_x_shape_checked_against_design_before_any_work(self, monkeypatch, entry, shape, k):
        def no_work(*args, **kwargs):
            raise AssertionError("X was standardized before its shape was checked")

        monkeypatch.setattr(rules, "_standardize", no_work)
        rng = np.random.default_rng(19)
        X, d = rng.normal(size=shape), SurveyDesign.uniform(20)
        y = (rng.random(20) < 0.5).astype(float)
        with pytest.raises(ValueError, match=r"design's n=20 rows, got shape \(" + str(shape[0])):
            if entry == "knn_rule":
                knn_rule(X, d, k)
            else:
                knn_error_report(X, y, d, [k], B=5, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        X, y, d = _binary_data(rng, n=30)
        r1 = knn_error_report(X, y, d, [3, 5], B=25, seed=2)
        r2 = knn_error_report(X, y, d, [3, 5], B=25, seed=2)
        assert [(k, r.omega_hat) for k, r in r1] == [(k, r.omega_hat) for k, r in r2]


def _report_bits(report):
    return {k: v.hex() if isinstance(v, float) else v for k, v in report.to_dict().items()}


def _per_k_oracle(X, y, d, k_list, B, seed):
    """One public ``hte_bootstrap`` per k on its own ``knn_rule``: one tree and one draw per k."""
    gen = fit_weighted_glm(np.column_stack([np.ones(len(y)), X]), y, Family(FamilyKind.BERNOULLI), d)
    loss = Loss(LossKind.ZERO_ONE)
    return [(k, penalty.hte_bootstrap(knn_rule(X, d, k), gen, B, seed, loss)) for k in k_list]


class _CountingTree(spatial.cKDTree):
    """A k-d tree that counts its radius queries, i.e. the rows that reach the tie path."""

    ball_queries = 0

    def query_ball_point(self, *args, **kwargs):
        type(self).ball_queries += 1
        return super().query_ball_point(*args, **kwargs)


class TestKnnErrorReportSharesReplicates:
    @pytest.mark.parametrize("case, k_list", [
        ("plain", [1]), ("plain", [3, 5, 9]), ("psu", [3, 5, 9]), ("tied", [3, 5, 9]),
    ])
    def test_equals_per_k_hte_bootstrap_bit_for_bit(self, monkeypatch, case, k_list):
        rng = np.random.default_rng(31)
        n = 80
        X = rng.normal(size=(n, 2))
        if case == "tied":  # a coarse grid: many k-th distances are shared
            X = np.round(X)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X[:, 0]))).astype(float)
        psu = np.arange(n) % 8 if case == "psu" else None
        d = SurveyDesign(pi=rng.uniform(0.2, 1.0, size=n), psu=psu)
        monkeypatch.setattr(spatial, "cKDTree", _CountingTree)
        monkeypatch.setattr(_CountingTree, "ball_queries", 0)
        got = knn_error_report(X, y, d, k_list, B=40, seed=4)
        assert (_CountingTree.ball_queries > 0) == (case == "tied")
        want = _per_k_oracle(X, y, d, k_list, B=40, seed=4)
        assert [(k, _report_bits(r)) for k, r in got] == [(k, _report_bits(r)) for k, r in want]
        if case == "psu":
            assert got[0][1].phi_hat != 1.0

    def _count_draws(self, monkeypatch):
        calls = []
        draw = families._draw_responses

        def counted(*args):
            calls.append(None)
            return draw(*args)

        monkeypatch.setattr(families, "_draw_responses", counted)
        return calls

    def test_each_replicate_drawn_once_for_every_k(self, monkeypatch):
        rng = np.random.default_rng(32)
        X, y, d = _binary_data(rng, n=60)
        calls = self._count_draws(monkeypatch)
        table = knn_error_report(X, y, d, [3, 5, 9, 15], B=40, seed=0)
        assert [k for k, _ in table] == [3, 5, 9, 15]
        assert len(calls) == 40

    def test_empty_k_list_draws_nothing(self, monkeypatch):
        rng = np.random.default_rng(33)
        X, y, d = _binary_data(rng, n=30)
        calls = self._count_draws(monkeypatch)
        assert knn_error_report(X, y, d, [], B=5, seed=0) == []
        assert calls == []


class TestLinearVoteOracle:
    """Under squared-error loss the vote is linear in the outcomes, mu-hat = S y,
    with S the row-normalised neighbour weights.  Independent Bernoulli draws
    at the generating means mu then give the HT covariance penalty in closed
    form, omega = (2/N) sum_i w_i S_ii mu_i (1 - mu_i): Efron's (2004)
    covariance penalty of a linear smoother.  The bootstrap must meet it
    within its Monte Carlo error, estimated across seeds.
    """

    def test_bootstrap_mean_within_3_se_of_closed_form(self):
        n, ks, B, R = 2_000, (10, 40), 200, 30
        # the benchmark's knn data (data seed 3)
        rng = np.random.default_rng([3, 11])
        X = rng.normal(size=(n, 2))
        prob = 1.0 / (1.0 + np.exp(-0.3 * (0.2 + X[:, 0] + X[:, 1])))
        y = (rng.random(n) < prob).astype(float)
        d = SurveyDesign(weights=1.0 / rng.uniform(0.1, 1.0, size=n))
        gen = fit_weighted_glm(np.column_stack([np.ones(n), X]), y, Family(FamilyKind.BERNOULLI), d)
        W = _neighbour_weights(_standardize(X, d.weights)[0], d.weights, ks)
        vote_rules = [rules._vote_rule(W[k]) for k in ks]
        loss = Loss(LossKind.SQUARED_ERROR)
        omega_hat = np.array([
            [r.omega_hat for r in reports]
            for reports in penalty._bootstrap_reports(vote_rules, gen, B, range(R), loss)
        ])
        for j, k in enumerate(ks):
            s_ii = W[k].diagonal() / W[k].sum(axis=1)
            omega = 2.0 * d.mean(s_ii * gen.mu * (1.0 - gen.mu))
            se = omega_hat[:, j].std(ddof=1) / np.sqrt(R)
            z = (omega_hat[:, j].mean() - omega) / se
            assert abs(z) <= 3.0, f"k={k}: bootstrap mean {omega_hat[:, j].mean():.6f}, closed form {omega:.6f}, z={z:+.2f}"
