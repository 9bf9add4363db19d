"""Survey designs, HT totals, PSU cells, and the score-covariance meat matrices."""

import itertools

import numpy as np
import pytest

from svyerr.design import (
    DesignError,
    SurveyDesign,
    meat_independent,
    meat_stratified_cluster,
    psu_cells,
)
from svyerr.families import Family, FamilyKind
from svyerr.fit import fit_weighted_glm
from svyerr.penalty import estimate_dispersion


def _loop_meat_stratified_cluster(X, r, design):
    """Reference stratified/PSU meat: one full-sample mask per stratum and PSU."""
    w = design.weights
    V = np.zeros((X.shape[1], X.shape[1]))
    for h in np.unique(design.strata):
        in_h = design.strata == h
        psus = np.unique(design.psu[in_h])
        assert len(psus) >= 2
        raw_terms = []
        cen_terms = []
        for j in psus:
            in_j = in_h & (design.psu == j)
            raw_terms.append(X[in_j].T @ (w[in_j] * r[in_j]))
            cen_terms.append(X[in_j].T @ (w[in_j] * (r[in_j] - r[in_j].mean())))
        U = np.array(raw_terms)
        C = np.array(cen_terms)
        s = C.sum(axis=0)
        V += U.T @ U + np.outer(s, s) - C.T @ C
    V /= design.pop_size**2
    return (V + V.T) / 2.0


class TestSurveyDesign:
    def test_weights_default_to_inverse_pi(self):
        d = SurveyDesign(pi=np.array([0.25, 0.5]))
        np.testing.assert_allclose(d.weights, [4.0, 2.0])

    def test_pop_size_defaults_to_weight_sum(self):
        d = SurveyDesign(pi=np.array([0.25, 0.5]))
        assert d.pop_size == 6.0

    def test_hajek_rescaling(self):
        d = SurveyDesign(pi=np.array([0.5, 0.5]), pop_size=10.0, hajek=True)
        assert d.weights.sum() == pytest.approx(10.0)

    def test_pi_zero_rejected(self):
        with pytest.raises(DesignError):
            SurveyDesign(pi=np.array([0.0, 0.5]))

    def test_pi_above_one_rejected(self):
        with pytest.raises(DesignError):
            SurveyDesign(pi=np.array([1.5, 0.5]))

    def test_negative_weight_rejected(self):
        with pytest.raises(DesignError):
            SurveyDesign(pi=np.array([0.5, 0.5]), weights=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("kwargs", [
        {"pi": np.array([np.nan, 0.5])},
        {"pi": np.array([0.5, 0.5]), "weights": np.array([np.nan, 2.0])},
        {"pi": np.array([0.5, 0.5]), "weights": np.array([np.inf, 2.0])},
        {"pi": np.array([0.5, 0.5]), "pop_size": np.nan},
        {"pi": np.array([0.5, 0.5]), "pop_size": -4.0},
        {"pi": np.array([0.5, 0.5]), "pop_size": 0.0, "hajek": True},
        {"pi": np.array([0.5, 0.5]), "pop_size": -1.0, "hajek": True},
        # raw weights that a negative rescaling would make positive
        {"pi": np.array([0.5, 0.5]), "weights": np.array([-2.0, -2.0]),
         "pop_size": 8.0, "hajek": True},
    ])
    def test_non_finite_or_non_positive_numbers_rejected(self, kwargs):
        with pytest.raises(DesignError, match="must"):
            SurveyDesign(**kwargs)

    def test_from_weights(self):
        d = SurveyDesign.from_weights([4.0, 2.0])
        np.testing.assert_allclose(d.pi, [0.25, 0.5])

    def test_uniform(self):
        d = SurveyDesign.uniform(5, pop_size=20)
        np.testing.assert_allclose(d.pi, 0.25)
        assert d.pop_size == 20.0


class TestHtTotal:
    # the Horvitz-Thompson total of y is design.weights @ y

    def test_hand_example(self):
        d = SurveyDesign(pi=np.array([0.5, 0.5]))
        assert d.weights @ np.array([1.0, 3.0]) == pytest.approx(8.0)

    def test_census(self):
        d = SurveyDesign(pi=np.ones(3))
        assert d.weights @ np.array([2.0, 2.0, 2.0]) == pytest.approx(6.0)

    def test_design_unbiased_srs_enumeration(self):
        # population {1,2,3,4}, all size-2 samples equally likely, pi = 0.5
        values = np.array([1.0, 2.0, 3.0, 4.0])
        totals = [
            SurveyDesign(pi=np.array([0.5, 0.5])).weights @ values[list(s)]
            for s in itertools.combinations(range(4), 2)
        ]
        assert np.mean(totals) == pytest.approx(10.0)

    def test_design_unbiased_pps_enumeration(self):
        # fixed-size design with sample probability proportional to the
        # product of size measures; pi computed exactly by enumeration
        rng = np.random.default_rng(5)
        N, n = 7, 3
        m = rng.uniform(0.5, 1.5, size=N)
        values = rng.normal(size=N)
        samples = list(itertools.combinations(range(N), n))
        p_s = np.array([np.prod(m[list(s)]) for s in samples])
        p_s /= p_s.sum()
        pi = np.zeros(N)
        for prob, s in zip(p_s, samples):
            pi[list(s)] += prob
        est = sum(
            prob * (SurveyDesign(pi=pi[list(s)]).weights @ values[list(s)])
            for prob, s in zip(p_s, samples)
        )
        assert est == pytest.approx(values.sum(), abs=1e-10)

    def test_length_mismatch(self):
        # weights that do not align with pi never reach a total
        with pytest.raises(DesignError, match="same length"):
            SurveyDesign(pi=np.array([0.5, 0.5]), weights=np.array([2.0]))


class TestPsuCells:
    def test_strata_psu_counts(self):
        strata = np.repeat(["a", "b", "c"], 2)
        # unique PSU labels, and labels 1, 2 reused in every stratum
        for psu in (np.arange(6), np.tile([1, 2], 3)):
            d = SurveyDesign(pi=np.full(6, 0.5), strata=strata, psu=psu)
            cell, stratum_of_cell = psu_cells(d)
            np.testing.assert_array_equal(cell, np.arange(6))
            np.testing.assert_array_equal(stratum_of_cell, [0, 0, 1, 1, 2, 2])

    def test_no_strata_is_one_stratum(self):
        d = SurveyDesign(pi=np.full(5, 0.5), psu=np.array([7, 3, 7, 9, 3]))
        cell, stratum_of_cell = psu_cells(d)
        np.testing.assert_array_equal(cell, [0, 1, 0, 2, 1])
        np.testing.assert_array_equal(stratum_of_cell, [0, 0, 0])


class TestMeatIndependent:
    def test_zero_residuals(self):
        d = SurveyDesign.uniform(4)
        X = np.ones((4, 2))
        M = meat_independent(X, np.zeros(4), d)
        np.testing.assert_array_equal(M, np.zeros((2, 2)))

    def test_hand_example(self):
        d = SurveyDesign(pi=np.ones(2))
        M = meat_independent(np.ones((2, 1)), np.array([1.0, -1.0]), d)
        assert M[0, 0] == pytest.approx(0.5)

    def test_uniform_pi_simplification(self):
        rng = np.random.default_rng(2)
        n, N, p = 12, 48, 3
        X = rng.normal(size=(n, p))
        r = rng.normal(size=n)
        d = SurveyDesign.uniform(n, pop_size=N)
        expected = (X * r[:, None]).T @ (X * r[:, None]) / n**2
        np.testing.assert_allclose(meat_independent(X, r, d), expected, atol=1e-12)

    def test_symmetric_psd_random(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            n = rng.integers(3, 15)
            p = rng.integers(1, 4)
            X = rng.normal(size=(n, p))
            r = rng.normal(size=n)
            d = SurveyDesign(pi=rng.uniform(0.1, 1.0, size=n))
            M = meat_independent(X, r, d)
            np.testing.assert_array_equal(M, M.T)
            eig = np.linalg.eigvalsh(M)
            assert eig.min() >= -1e-8 * max(np.trace(M), 1e-30)


class TestMeatStratifiedCluster:
    @staticmethod
    def _singleton_design(n, rng):
        return SurveyDesign(
            pi=rng.uniform(0.2, 1.0, size=n),
            strata=np.zeros(n, dtype=int),
            psu=np.arange(n),
        )

    def test_singleton_psus_reduce_to_independent(self):
        rng = np.random.default_rng(4)
        n = 20
        X = rng.normal(size=(n, 3))
        r = rng.normal(size=n)
        d = self._singleton_design(n, rng)
        got = meat_stratified_cluster(X, r, d)
        want = meat_independent(X, r, d)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_zero_residuals(self):
        rng = np.random.default_rng(6)
        d = self._singleton_design(5, rng)
        M = meat_stratified_cluster(np.ones((5, 2)), np.zeros(5), d)
        np.testing.assert_array_equal(M, np.zeros((2, 2)))

    def test_hand_example_two_singleton_psus(self):
        d = SurveyDesign(
            pi=np.ones(2), strata=np.zeros(2, dtype=int), psu=np.array([0, 1])
        )
        M = meat_stratified_cluster(np.ones((2, 1)), np.array([2.0, 4.0]), d)
        # same-PSU blocks (4+16)/N^2 = 5; centered cross blocks vanish
        assert M[0, 0] == pytest.approx(5.0)

    def test_single_psu_stratum_rejected(self):
        d = SurveyDesign(
            pi=np.full(3, 0.5), strata=np.zeros(3, dtype=int), psu=np.zeros(3, dtype=int)
        )
        with pytest.raises(DesignError, match="single PSU"):
            meat_stratified_cluster(np.ones((3, 1)), np.ones(3), d)

    def test_single_psu_error_names_first_stratum_in_label_order(self):
        # strata c and b each hold one PSU; b comes first in sorted order
        strata = np.array(["c", "a", "b", "a", "b"])
        psu = np.array([5, 1, 4, 2, 4])
        d = SurveyDesign(pi=np.full(5, 0.5), strata=strata, psu=psu)
        with pytest.raises(DesignError, match=r"^stratum 'b' has a single PSU; "):
            meat_stratified_cluster(np.ones((5, 1)), np.ones(5), d)

    @pytest.mark.parametrize("labels", [np.array([3, 1, 1]), np.array(["s3", "s1", "s1"]),
                                        np.array([3.5, 1.0, 1.0])])
    def test_single_psu_error_prints_plain_labels(self, labels):
        d = SurveyDesign(pi=np.full(3, 0.5), strata=labels, psu=np.array([0, 1, 2]))
        with pytest.raises(DesignError) as exc:
            meat_stratified_cluster(np.ones((3, 1)), np.ones(3), d)
        assert str(exc.value).startswith(f"stratum {labels[0].item()!r} has a single PSU")
        assert "np." not in str(exc.value)

    def test_single_psu_without_strata_rejected(self):
        d = SurveyDesign(pi=np.full(3, 0.5), psu=np.zeros(3, dtype=int))
        with pytest.raises(DesignError, match=r"^the sample has a single PSU; "):
            meat_stratified_cluster(np.ones((3, 1)), np.ones(3), d)

    def test_psu_without_strata_is_one_stratum(self):
        rng = np.random.default_rng(8)
        n = 12
        X = rng.normal(size=(n, 2))
        r = rng.normal(size=n)
        pi, psu = rng.uniform(0.2, 1.0, size=n), rng.integers(0, 4, size=n)
        got = meat_stratified_cluster(X, r, SurveyDesign(pi=pi, psu=psu))
        want = _loop_meat_stratified_cluster(
            X, r, SurveyDesign(pi=pi, psu=psu, strata=np.full(n, "all")))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_labels_required(self):
        with pytest.raises(DesignError):
            meat_stratified_cluster(np.ones((2, 1)), np.ones(2), SurveyDesign(pi=np.ones(2)))

    def test_symmetric_random_clustered(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n_psu = int(rng.integers(2, 5))
            sizes = rng.integers(1, 4, size=n_psu)
            n = int(sizes.sum())
            psu = np.repeat(np.arange(n_psu), sizes)
            d = SurveyDesign(
                pi=rng.uniform(0.2, 1.0, size=n), strata=np.zeros(n, dtype=int), psu=psu
            )
            X = rng.normal(size=(n, 2))
            r = rng.normal(size=n)
            M = meat_stratified_cluster(X, r, d)
            np.testing.assert_allclose(M, M.T, atol=1e-15)

    def test_matches_loop_oracle_random_designs(self):
        rng = np.random.default_rng(16)
        for trial in range(300):
            n_strata = int(rng.integers(1, 5))
            psus_per_stratum = rng.integers(1, 5, size=n_strata)
            lonely = bool(np.any(psus_per_stratum == 1))
            if lonely and rng.random() < 0.3:
                psus_per_stratum[psus_per_stratum == 1] = 2
                lonely = False
            n_psu = int(psus_per_stratum.sum())
            psu_stratum = np.repeat(np.arange(n_strata), psus_per_stratum)
            sizes = rng.integers(1, 5, size=n_psu)  # singleton PSUs included
            cell = np.repeat(np.arange(n_psu), sizes)
            n = int(sizes.sum())
            # non-contiguous integer or string labels, rows shuffled
            psu_labels = rng.choice(1000, size=n_psu, replace=False) * 3 + 7
            stratum_labels = rng.choice(50, size=n_strata, replace=False) * 5 - 40
            if trial % 3 == 2:  # NHANES-style: PSU labels restart in each stratum
                psu_labels = np.concatenate([np.arange(m) for m in psus_per_stratum]) * 3 + 7
            if trial % 2:
                psu_labels = np.array([f"psu-{v}" for v in psu_labels])
                stratum_labels = np.array([f"s{v}" for v in stratum_labels])
            order = rng.permutation(n)
            psu = psu_labels[cell][order]
            strata = stratum_labels[psu_stratum[cell]][order]
            d = SurveyDesign(pi=rng.uniform(0.1, 1.0, size=n), strata=strata, psu=psu)
            X = rng.normal(size=(n, int(rng.integers(1, 4))))
            r = rng.normal(size=n)
            if lonely:
                with pytest.raises(DesignError, match="has a single PSU"):
                    meat_stratified_cluster(X, r, d)
                continue
            got = meat_stratified_cluster(X, r, d)
            want = _loop_meat_stratified_cluster(X, r, d)
            np.testing.assert_allclose(
                got, want, rtol=0, atol=1e-12 * max(np.abs(want).max(), 1e-300)
            )

    def test_matches_loop_oracle_large_design(self):
        # n = 100,000 units in 50 strata x 100 PSUs, rows shuffled
        rng = np.random.default_rng(17)
        n_strata, psus_per_stratum, size = 50, 100, 20
        n_psu = n_strata * psus_per_stratum
        cell = np.repeat(np.arange(n_psu), size)
        order = rng.permutation(n_psu * size)
        psu = (cell * 3 + 11)[order]
        strata = (cell // psus_per_stratum)[order]
        d = SurveyDesign(pi=rng.uniform(0.02, 0.2, size=n_psu)[cell][order],
                         strata=strata, psu=psu)
        X = np.column_stack([np.ones(d.n), rng.normal(size=(d.n, 3))])
        r = rng.normal(size=d.n) + rng.normal(size=n_psu)[cell][order]
        got = meat_stratified_cluster(X, r, d)
        want = _loop_meat_stratified_cluster(X, r, d)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_psu_labels_reused_across_strata_match_unique_labels(self):
        # strata 0..3 with PSU labels 1, 2, 3 in each, versus unique labels
        rng = np.random.default_rng(20)
        strata = np.repeat(np.arange(4), 3 * 5)
        local = np.tile(np.repeat([1, 2, 3], 5), 4)
        order = rng.permutation(strata.size)
        strata, local = strata[order], local[order]
        pi = rng.uniform(0.1, 0.9, size=strata.size)
        X = rng.normal(size=(strata.size, 2))
        r = rng.normal(size=strata.size)
        reused = SurveyDesign(pi=pi, strata=strata, psu=local)
        unique = SurveyDesign(pi=pi, strata=strata, psu=strata * 10 + local)
        got = meat_stratified_cluster(X, r, reused)
        np.testing.assert_allclose(got, meat_stratified_cluster(X, r, unique), rtol=1e-12, atol=0)
        np.testing.assert_allclose(got, _loop_meat_stratified_cluster(X, r, reused),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_psu_relabelling_within_strata_is_bit_identical(self, seed):
        # a random bijection of the PSU labels inside each stratum (also to
        # strings) changes neither the meat nor phi-hat in the last bit
        rng = np.random.default_rng([21, seed])
        n_strata, psus, size = 6, 9, 7
        strata = np.repeat(np.arange(n_strata), psus * size)
        label = np.tile(np.repeat(np.arange(psus), size), n_strata)
        order = rng.permutation(strata.size)
        strata, label = strata[order], label[order]
        relabelled = np.empty(strata.size, dtype=object)
        for h in range(n_strata):
            new = rng.permutation(psus) * 7 + 3 if seed % 2 else rng.permutation(
                [f"c{h}-{j}" for j in range(psus)])
            in_h = strata == h
            relabelled[in_h] = np.asarray(new, dtype=object)[label[in_h]]
        relabelled = relabelled.astype(int if seed % 2 else str)
        pi = rng.uniform(0.1, 0.9, size=strata.size)
        X = np.column_stack([np.ones(strata.size), rng.normal(size=(strata.size, 2))])
        y = (rng.random(strata.size) < 0.4).astype(float)
        outs = []
        for psu in (label, relabelled):
            d = SurveyDesign(pi=pi, strata=strata, psu=psu)
            f = fit_weighted_glm(X, y, Family(FamilyKind.BERNOULLI), d)
            outs.append((meat_stratified_cluster(X, y - f.mu, d), estimate_dispersion(f)))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1]
