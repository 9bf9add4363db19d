"""Design-weighted kNN classification and its bootstrap error table."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from svyerr.design import SurveyDesign
from svyerr.rules import _neighbour_weights, knn_error_report, knn_predict, knn_rule, knn_train


def _binary_data(rng, n=60, p=2):
    X = rng.normal(size=(n, p))
    prob = 1.0 / (1.0 + np.exp(-(X[:, 0] + 0.5 * X[:, 1])))
    y = (rng.random(n) < prob).astype(float)
    design = SurveyDesign(pi=rng.uniform(0.2, 1.0, size=n))
    return X, y, design


def _loop_neighbour_sets(model, Z_query):
    """Reference neighbour sets: one sort by (distance, index) per query row.

    Ties at the k-th distance expand the set, with the same relative
    tolerance as the library.
    """
    d2 = ((Z_query[:, None, :] - model.X[None, :, :]) ** 2).sum(axis=-1)
    out = []
    for row in d2:
        order = np.lexsort((np.arange(len(row)), row))
        kth = row[order[model.k - 1]]
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
    model = knn_train(X, y, d, k)
    kc = model.kept_columns
    paths = (
        (model.X, knn_rule(X, d, k)(y[None]).mu[0]),  # in-sample rule
        ((query[:, kc] - model.center[kc]) / model.scale[kc], knn_predict(model, query)),
    )
    for Z, votes in paths:
        W = _neighbour_weights(model.X, model.weights, [k], Z)[k]
        sets = _loop_neighbour_sets(model, Z)
        for i, idx in enumerate(sets):
            cols = W.indices[W.indptr[i]:W.indptr[i + 1]]
            np.testing.assert_array_equal(np.sort(cols), np.sort(idx))
            np.testing.assert_array_equal(W.data[W.indptr[i]:W.indptr[i + 1]], d.weights[cols])
        want = np.array([d.weights[idx] @ y[idx] / d.weights[idx].sum() for idx in sets])
        np.testing.assert_allclose(votes, want, rtol=0, atol=1e-12)
        if kind == "integer_grid" and k < len(y):
            assert any(len(idx) > k for idx in sets)  # ties expanded some sets


TREE_CASES = ("continuous", "integer_grid", "duplicate_rows",
              "one_column", "one_column_grid", "zero_columns")


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
    if kind == "one_column_grid":
        X = rng.integers(0, 4, size=(120, 1)).astype(float)
        return X, rng.integers(0, 7, size=(25, 1)) / 2.0
    X = np.zeros((120, 2))  # zero_columns: every column has zero variance
    return X, rng.normal(size=(25, 2))


@pytest.mark.parametrize("k_list", [[1, 7, 30], [1, 119], [1, 120], [60, 120]])
@pytest.mark.parametrize("kind", TREE_CASES)
@pytest.mark.filterwarnings("ignore:dropping")
def test_tree_neighbour_weights_equal_dense_oracle(kind, k_list):
    # k_list [1, 119] queries all n candidates (k_max + 1 = n); [1, 120] asks for n + 1
    rng = np.random.default_rng(TREE_CASES.index(kind))
    X, query = _tree_case(kind, rng)
    n = len(X)
    d = SurveyDesign(pi=rng.uniform(0.2, 1.0, size=n))
    model = knn_train(X, (rng.random(n) < 0.5).astype(float), d, max(k_list))
    kept = {"one_column": 1, "one_column_grid": 1, "zero_columns": 0}.get(kind, X.shape[1])
    assert model.X.shape[1] == kept
    kc = model.kept_columns
    Z_query = (query[:, kc] - model.center[kc]) / model.scale[kc]
    for Zq in (None, Z_query):
        W = _neighbour_weights(model.X, model.weights, k_list, Zq)
        assert list(W) == k_list
        for k in k_list:
            _assert_same_csr(W[k], _dense_neighbour_weights(
                model.X, model.weights, k, model.X if Zq is None else Zq))
    for k in k_list:  # knn_predict and knn_rule reach the same matrices
        m = knn_train(X, model.y, d, k)
        want = _dense_neighbour_weights(model.X, model.weights, k, Z_query)
        np.testing.assert_array_equal(knn_predict(m, query), (want @ m.y) / want.sum(axis=1))
        want = _dense_neighbour_weights(model.X, model.weights, k, model.X)
        np.testing.assert_array_equal(knn_rule(X, d, k)(m.y[None]).mu[0],
                                      (want @ m.y) / want.sum(axis=1))


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


class TestKnnTrain:
    def test_k_equals_n_gives_weighted_majority(self):
        rng = np.random.default_rng(0)
        X, y, d = _binary_data(rng, n=30)
        model = knn_train(X, y, d, k=30)
        votes = knn_predict(model, X)
        majority = float(d.weights @ y) / d.weights.sum()
        np.testing.assert_allclose(votes, majority, atol=1e-12)

    def test_k1_self_inclusive_reproduces_outcomes(self):
        rng = np.random.default_rng(1)
        X, y, d = _binary_data(rng, n=40)
        model = knn_train(X, y, d, k=1)
        np.testing.assert_array_equal(knn_predict(model, X), y)

    def test_duplicate_points_co_vote(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [-5.0, 2.0]])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        d = SurveyDesign.uniform(4)
        model = knn_train(X, y, d, k=2)
        # both duplicates are each other's neighbour set; equal weights
        votes = knn_predict(model, X[:2])
        np.testing.assert_allclose(votes, 0.5)

    def test_k_above_n_rejected(self):
        rng = np.random.default_rng(2)
        X, y, d = _binary_data(rng, n=10)
        with pytest.raises(ValueError):
            knn_train(X, y, d, k=11)

    def test_nonbinary_outcome_rejected(self):
        with pytest.raises(ValueError):
            knn_train(np.zeros((3, 1)), np.array([0.0, 0.5, 1.0]),
                      SurveyDesign.uniform(3), k=1)

    def test_zero_variance_column_dropped(self):
        rng = np.random.default_rng(3)
        X, y, d = _binary_data(rng, n=20)
        X_aug = np.column_stack([X, np.full(20, 7.0)])
        with pytest.warns(UserWarning, match="zero-variance"):
            model = knn_train(X_aug, y, d, k=3)
        base = knn_train(X, y, d, k=3)
        np.testing.assert_allclose(knn_predict(model, X_aug), knn_predict(base, X))

    def test_constant_column_with_inexact_weighted_mean_dropped(self):
        # random weights leave the weighted mean of 7.0 a rounding error off
        # 7.0, so the column's SD is tiny but not zero; it must still drop
        rng = np.random.default_rng(13)
        X, y, d = _binary_data(rng, n=20)
        X_aug = np.column_stack([X, np.full(20, 7.0)])
        with pytest.warns(UserWarning, match="dropping 1 zero-variance"):
            model = knn_train(X_aug, y, d, k=3)
        np.testing.assert_array_equal(model.kept_columns, [0, 1])
        query = np.array([[0.3, -0.2, 7.5], [-1.0, 0.8, 7.5]])
        np.testing.assert_array_equal(knn_predict(model, query),
                                      knn_predict(knn_train(X, y, d, k=3), query[:, :2]))

    def test_all_columns_dropped_every_point_is_a_neighbour(self):
        # with no column left every distance is zero, so all n points tie
        # at the k-th distance and each vote is the weighted mean outcome
        rng = np.random.default_rng(11)
        _, y, d = _binary_data(rng, n=20)
        X = np.zeros((20, 2))  # weighted mean exactly 0, so variance exactly 0
        majority = float(d.weights @ y) / d.weights.sum()
        with pytest.warns(UserWarning, match="dropping 2 zero-variance"):
            model = knn_train(X, y, d, k=3)
        assert model.kept_columns.size == 0
        np.testing.assert_allclose(knn_predict(model, [[0.0, 1.0], [0.0, 0.0]]), majority,
                                   rtol=0, atol=1e-12)
        with pytest.warns(UserWarning, match="zero-variance"):
            rule = knn_rule(X, d, k=3)
        np.testing.assert_allclose(rule(y[None]).mu[0], majority, rtol=0, atol=1e-12)


class TestKnnPredict:
    def test_unanimous_neighbours(self):
        X = np.array([[0.0], [0.1], [-0.1], [9.0]])
        y = np.array([1.0, 1.0, 1.0, 0.0])
        model = knn_train(X, y, SurveyDesign.uniform(4), k=3)
        assert knn_predict(model, [[0.0]])[0] == pytest.approx(1.0)

    def test_split_vote_probability(self):
        rng = np.random.default_rng(4)
        X = np.concatenate([rng.normal(0, 0.01, size=(10, 1)),
                            rng.normal(50, 0.01, size=(5, 1))])
        y = np.concatenate([np.ones(3), np.zeros(7), np.ones(5)])
        model = knn_train(X, y, SurveyDesign.uniform(15), k=10)
        assert knn_predict(model, [[0.0]])[0] == pytest.approx(0.3)

    def test_weighted_vote(self):
        X = np.array([[0.0], [0.2], [40.0]])
        y = np.array([1.0, 0.0, 1.0])
        d = SurveyDesign.from_weights([3.0, 1.0, 1.0])
        model = knn_train(X, y, d, k=2)
        assert knn_predict(model, [[0.1]])[0] == pytest.approx(0.75)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        X, y, d = _binary_data(rng, n=35)
        perm = rng.permutation(35)
        d_perm = SurveyDesign(pi=d.pi[perm])
        m1 = knn_train(X, y, d, k=5)
        m2 = knn_train(X[perm], y[perm], d_perm, k=5)
        query = rng.normal(size=(8, 2))
        np.testing.assert_allclose(knn_predict(m1, query), knn_predict(m2, query), atol=1e-12)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(6)
        X, y, d = _binary_data(rng, n=35)
        X_scaled = X * np.array([100.0, 0.01]) + np.array([-7.0, 3.0])
        m1 = knn_train(X, y, d, k=5)
        m2 = knn_train(X_scaled, y, d, k=5)
        query = rng.normal(size=(8, 2))
        np.testing.assert_allclose(
            knn_predict(m1, query),
            knn_predict(m2, query * np.array([100.0, 0.01]) + np.array([-7.0, 3.0])),
            atol=1e-12,
        )


class TestKnnRule:
    def test_matches_train_predict_in_sample(self):
        rng = np.random.default_rng(7)
        X, y, d = _binary_data(rng, n=50)
        rule = knn_rule(X, d, k=7)
        fit = rule(y[None])
        model = knn_train(X, y, d, k=7)
        np.testing.assert_allclose(fit.mu[0], knn_predict(model, X), atol=1e-12)
        assert set(np.unique(fit.lam)) <= {-1.0, 1.0}


    @pytest.mark.parametrize("kind", ["integer_grid", "continuous"])
    def test_block_votes_bit_identical_to_per_row_votes(self, kind):
        X, _, d, _ = _neighbour_case(kind, n=60)
        rng = np.random.default_rng(12)
        Y = (rng.random((37, 60)) < 0.5).astype(float)
        rule = knn_rule(X, d, k=9)
        fit = rule(Y)
        model = knn_train(X, Y[0], d, k=9)
        W = _neighbour_weights(model.X, model.weights, [9])[9]
        want = np.stack([(W @ y) / W.sum(axis=1) for y in Y])
        np.testing.assert_array_equal(fit.mu, want)
        np.testing.assert_array_equal(fit.lam, np.where(want < 0.5, -1.0, 1.0))


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

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        X, y, d = _binary_data(rng, n=30)
        r1 = knn_error_report(X, y, d, [3, 5], B=25, seed=2)
        r2 = knn_error_report(X, y, d, [3, 5], B=25, seed=2)
        assert [(k, r.omega_hat) for k, r in r1] == [(k, r.omega_hat) for k, r in r2]
