"""Command-line interface: ingestion, subcommands, exit codes."""

import csv
import errno
import json
import os
import warnings

import numpy as np
import pytest

from svyerr import cli, fit, penalty, rules
from svyerr import simulate as sim
from svyerr.cli import load_dataset, main, SchemaError
from svyerr.families import Family, FamilyKind
from svyerr.fit import fit_weighted_glm
from svyerr.penalty import estimate_dispersion


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def gaussian_csv(tmp_path):
    rng = np.random.default_rng(0)
    n = 120
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    y = 1.0 + 0.8 * x1 - 0.5 * x2 + rng.normal(size=n)
    w = rng.uniform(1.0, 4.0, size=n)
    path = tmp_path / "gauss.csv"
    _write_csv(path, ["y", "x1", "x2", "w"], np.column_stack([y, x1, x2, w]).tolist())
    return str(path)


@pytest.fixture
def logistic_csv(tmp_path):
    rng = np.random.default_rng(1)
    n = 300
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    prob = 1.0 / (1.0 + np.exp(-(0.2 + x1 - 0.5 * x2)))
    y = (rng.random(n) < prob).astype(float)
    w = rng.uniform(1.0, 3.0, size=n)
    path = tmp_path / "logit.csv"
    _write_csv(path, ["y", "x1", "x2", "w"], np.column_stack([y, x1, x2, w]).tolist())
    return str(path)


class TestLoadDataset:
    def test_round_trips_numeric_precision(self, tmp_path):
        path = tmp_path / "d.csv"
        val = 0.12345678901234567
        _write_csv(path, ["y", "x", "w"], [[val, 1.0, 2.0], [1.0, 2.0, 2.0], [2.0, 3.0, 2.0]])
        X, y, design = load_dataset(str(path), "y", ["x"], "w", None)
        assert y[0] == val

    def test_utf8_byte_order_mark_read_like_plain_file(self, gaussian_csv, tmp_path, capsys):
        bom = tmp_path / "bom.csv"
        with open(gaussian_csv, "rb") as fh:
            bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
        outs = []
        for path in (gaussian_csv, str(bom)):
            assert main([
                "fit", "--data", path, "--outcome", "y", "--covariates", "x1", "x2",
                "--weights", "w", "--family", "gaussian", "--seed", "1",
            ]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_requires_exactly_one_weight_source(self, gaussian_csv):
        with pytest.raises(SchemaError):
            load_dataset(gaussian_csv, "y", ["x1"], "w", "w")
        with pytest.raises(SchemaError):
            load_dataset(gaussian_csv, "y", ["x1"], None, None)

    def test_missing_column_rejected(self, gaussian_csv):
        with pytest.raises(SchemaError, match="missing column"):
            load_dataset(gaussian_csv, "y", ["nope"], "w", None)

    def test_rows_with_gaps_dropped(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        _write_csv(path, ["y", "x", "w"],
                   [[1.0, 1.0, 2.0], [2.0, "", 2.0], [3.0, 3.0, 2.0], [4.0, 4.0, 2.0]])
        X, y, design = load_dataset(str(path), "y", ["x"], "w", None)
        assert len(y) == 3
        assert "dropped 1 row" in capsys.readouterr().err

    def test_no_complete_row_schema_exit(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        _write_csv(path, ["y", "x", "w"], [[1.0, "", 2.0], ["", 2.0, 2.0]])
        code = main([
            "fit", "--data", str(path), "--outcome", "y", "--covariates", "x",
            "--weights", "w", "--family", "gaussian", "--seed", "1",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "dropped 2 row(s) with missing values\n"
            "schema error: no complete rows in the input\n"
        )

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, ["y", "x", "w"], [[1.0, "abc", 2.0]])
        with pytest.raises(SchemaError, match="non-numeric"):
            load_dataset(str(path), "y", ["x"], "w", None)

    def test_pi_column_converted_to_weights(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, ["y", "x", "p"], [[1.0, 1.0, 0.25], [2.0, 2.0, 0.5]])
        X, y, design = load_dataset(str(path), "y", ["x"], None, "p")
        np.testing.assert_allclose(design.weights, [4.0, 2.0])

    def test_hajek_rescaling(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, ["y", "x", "w"], [[1.0, 1.0, 2.0], [2.0, 2.0, 2.0]])
        _, _, design = load_dataset(str(path), "y", ["x"], "w", None, hajek_n=10.0)
        assert design.weights.sum() == pytest.approx(10.0)

    @pytest.mark.parametrize("bad, message", [
        ("nan_weight", "non-finite value in column 'w'"),
        ("inf_covariate", "non-finite value in column 'x'"),
        ("hajek_zero", "population size and weights must be finite and positive"),
        ("hajek_negative", "population size and weights must be finite and positive"),
    ])
    def test_invalid_numbers_schema_exit(self, tmp_path, capsys, bad, message):
        rng = np.random.default_rng(7)
        n = 60
        x = rng.normal(size=n)
        y = x + rng.normal(size=n)
        w = rng.uniform(1.0, 3.0, size=n)
        hajek = {"hajek_zero": ["--hajek", "0"], "hajek_negative": ["--hajek", "-1"]}
        if bad == "nan_weight":
            w[5] = np.nan
        elif bad == "inf_covariate":
            x[5] = np.inf
        path = tmp_path / "d.csv"
        _write_csv(path, ["y", "x", "w"], np.column_stack([y, x, w]).tolist())
        code = main([
            "fit", "--data", str(path), "--outcome", "y", "--covariates", "x",
            "--weights", "w", "--family", "gaussian", "--seed", "1", *hajek.get(bad, []),
        ])
        assert code == 2
        assert message in capsys.readouterr().err


def _dictreader_rows(path, needed):
    """Oracle: the header, kept rows and dropped-row count of a ``csv.DictReader`` read."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        rows = list(reader) if header is not None else []
    kept = [r for r in rows if all(r.get(c) not in (None, "") for c in needed)]
    return header, kept, len(rows) - len(kept)


# (name, file text): each is read as csv.DictReader would read it
_CSV_CASES = [
    ("blank_lines", "y,x,w,c\n1,0.5,2,a\n\n2,1.5,3,b\r\n\r\n3,2.5,4,a\n4,3.5,5,b\n\n"),
    ("short_and_long_rows",
     "y,x,w,c\n1,0.5,2,a\n2,1.5\n3,2.5,4,b,extra,more\n4,3.5,5\n5,4.5,6,a\n6,5.5,7,b,\n"),
    ("repeated_header", "y,x,w,x\n1,0.5,2,9.5\n2,1.5,3,8.5\n3,2.5,4\n4,3.5,5,7.5\n5,4.5,6,\n"),
    ("quoted_comma", 'y,x,w,c\n1,0.5,2,"a,b"\n"2","1.5","3",b\n3,2.5,4,"a,b"\n4,"",5,b\n'),
    ("byte_order_mark", "\ufeffy,x,w,c\n1,0.5,2,a\n2,1.5,3,b\n3,2.5,4,a\n"),
    ("leading_blank_line", "\ny,x,w,c\n1,0.5,2,a\n2,1.5,3,b\n"),
    ("empty_file", ""),
]


class TestLoadDatasetMatchesDictReader:
    @pytest.mark.parametrize("psu_col", [None, "c"])
    @pytest.mark.parametrize("name, text", _CSV_CASES, ids=[c[0] for c in _CSV_CASES])
    def test_same_rows_and_message(self, tmp_path, capsys, name, text, psu_col):
        path = tmp_path / f"{name}.csv"
        path.write_text(text, encoding="utf-8", newline="")
        if name == "repeated_header" and psu_col:
            psu_col = "x"  # the repeated name, read from its last column
        needed = ["y", "x", "w"] + ([psu_col] if psu_col else [])
        header, kept, dropped = _dictreader_rows(path, needed)
        if header is None:
            with pytest.raises(SchemaError, match="no header row"):
                load_dataset(str(path), "y", ["x"], "w", None, psu_col=psu_col)
            return
        if any(c not in header for c in needed):
            with pytest.raises(SchemaError, match="missing column"):
                load_dataset(str(path), "y", ["x"], "w", None, psu_col=psu_col)
            return
        X, y, design = load_dataset(str(path), "y", ["x"], "w", None, psu_col=psu_col)
        err = capsys.readouterr().err
        assert err == (f"dropped {dropped} row(s) with missing values\n" if dropped else "")
        assert y.tolist() == [float(r["y"]) for r in kept]
        assert X.tolist() == [[1.0, float(r["x"])] for r in kept]
        assert design.weights.tolist() == [float(r["w"]) for r in kept]
        if psu_col:
            assert design.psu.tolist() == [r[psu_col] for r in kept]
        else:
            assert design.psu is None


class TestCmdFit:
    def test_uniform_gaussian_effective_parameters_near_p(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        n = 400
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        y = 0.5 + x1 - x2 + rng.normal(size=n)
        path = tmp_path / "d.csv"
        _write_csv(path, ["y", "x1", "x2", "w"],
                   np.column_stack([y, x1, x2, np.ones(n)]).tolist())
        code = main([
            "fit", "--data", str(path), "--outcome", "y",
            "--covariates", "x1", "x2", "--weights", "w",
            "--family", "gaussian", "--seed", "1",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["p_hat"] == pytest.approx(3.0, rel=0.30)

    def test_penalty_grows_with_nested_covariates(self, logistic_csv, capsys):
        phats = []
        for covs in (["x1"], ["x1", "x2"]):
            code = main([
                "fit", "--data", logistic_csv, "--outcome", "y",
                "--covariates", *covs, "--weights", "w",
                "--family", "bernoulli", "--seed", "1",
            ])
            assert code == 0
            phats.append(json.loads(capsys.readouterr().out)["p_hat"])
        assert phats[1] > phats[0]

    def test_bootstrap_method_reports_interval(self, gaussian_csv, tmp_path, capsys):
        out_json = tmp_path / "fit.json"
        code = main([
            "fit", "--data", gaussian_csv, "--outcome", "y",
            "--covariates", "x1", "x2", "--weights", "w",
            "--family", "gaussian", "--method", "hte-bootstrap",
            "--B", "40", "--interval-runs", "10",
            "--seed", "5", "--out-json", str(out_json),
        ])
        assert code == 0
        saved = json.loads(out_json.read_text())
        assert saved["method"] == "bootstrap"
        pb = saved["p_hat_bootstrap"]
        assert pb["q025"] <= pb["median"] <= pb["q975"]

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_interval_runs_below_one_usage_exit(self, gaussian_csv, capsys, runs):
        with pytest.raises(SystemExit) as exc:
            main([
                "fit", "--data", gaussian_csv, "--outcome", "y",
                "--covariates", "x1", "--weights", "w", "--family", "gaussian",
                "--method", "hte-bootstrap", "--B", "10", "--interval-runs", runs,
                "--seed", "5",
            ])
        assert exc.value.code == 2
        assert (f"argument --interval-runs: must be an integer of at least 1, got '{runs}'"
                in capsys.readouterr().err)

    def test_one_bootstrap_replicate_usage_exit(self, gaussian_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "fit", "--data", gaussian_csv, "--outcome", "y",
                "--covariates", "x1", "--weights", "w", "--family", "gaussian",
                "--method", "hte-bootstrap", "--B", "1", "--seed", "5",
            ])
        assert exc.value.code == 2
        assert "argument --B: must be an integer of at least 2, got '1'" in capsys.readouterr().err

    def test_negative_seed_rejected_at_parse_time(self, logistic_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "fit", "--data", logistic_csv, "--outcome", "y", "--covariates", "x1",
                "--weights", "w", "--family", "bernoulli", "--method", "hte-bootstrap",
                "--seed", "-5",
            ])
        assert exc.value.code == 2
        assert "argument --seed: must be a non-negative integer, got '-5'" in capsys.readouterr().err

    @staticmethod
    def _clustered_csv(path, psu_per_stratum=(4, 4, 4), reuse_labels=False):
        # string labels as the CLI reads them; PSU labels unique across
        # strata, or (NHANES-style) the same labels in every stratum
        rng = np.random.default_rng(6)
        rows = []
        for h, n_psu in enumerate(psu_per_stratum):
            for j in range(n_psu):
                effect = rng.normal(scale=1.0)
                for _ in range(15):
                    x1 = rng.normal()
                    prob = 1.0 / (1.0 + np.exp(-(0.2 + x1 + effect)))
                    y = float(rng.random() < prob)
                    psu = f"p{j}" if reuse_labels else f"s{h}-p{j}"
                    rows.append([y, x1, rng.uniform(1.0, 3.0), f"s{h}", psu])
        _write_csv(path, ["y", "x1", "w", "stratum", "cluster"], rows)
        return str(path)

    def test_strata_psu_select_stratified_meat(self, tmp_path, capsys):
        path = self._clustered_csv(tmp_path / "clustered.csv")
        base = ["fit", "--data", path, "--outcome", "y", "--covariates", "x1",
                "--weights", "w", "--family", "bernoulli", "--seed", "1"]
        outs = []
        for extra in ([], ["--strata", "stratum", "--psu", "cluster"]):
            assert main(base + extra) == 0
            outs.append(json.loads(capsys.readouterr().out))
        independent, clustered = outs
        assert clustered["theta"] == independent["theta"]
        assert not np.allclose(clustered["v_diagonal"], independent["v_diagonal"], rtol=1e-3)
        assert clustered["omega_hat"] != pytest.approx(independent["omega_hat"], rel=1e-3)

    @pytest.mark.parametrize("method", ["hte-analytic", "hte-bootstrap"])
    def test_psu_without_strata_is_one_stratum(self, tmp_path, capsys, method):
        path = self._clustered_csv(tmp_path / "clustered.csv")
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        _write_csv(path, header + ["everyone"], [r + ["all"] for r in rows])
        base = ["fit", "--data", path, "--outcome", "y", "--covariates", "x1",
                "--weights", "w", "--family", "bernoulli", "--seed", "1",
                "--method", method, "--B", "20", "--interval-runs", "3"]
        outs = []
        for extra in ([], ["--strata", "stratum"], ["--psu", "cluster"],
                      ["--strata", "everyone", "--psu", "cluster"]):
            assert main(base + extra) == 0
            outs.append(json.loads(capsys.readouterr().out))
        independent, strata_only, psu_only, one_stratum = outs
        assert strata_only == independent
        assert psu_only == one_stratum
        assert not np.allclose(psu_only["v_diagonal"], independent["v_diagonal"], rtol=1e-3)

    @pytest.mark.parametrize("method", ["hte-analytic", "hte-bootstrap"])
    @pytest.mark.parametrize("extra", [[], ["--strata", "stratum", "--psu", "cluster"]])
    def test_one_sandwich_per_fit(self, tmp_path, monkeypatch, capsys, method, extra):
        calls = []
        inner = fit.sandwich_variance

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        for module in (fit, penalty, cli):
            monkeypatch.setattr(module, "sandwich_variance", counted)
        path = self._clustered_csv(tmp_path / "clustered.csv")
        assert main(["fit", "--data", path, "--outcome", "y", "--covariates", "x1",
                     "--weights", "w", "--family", "bernoulli", "--seed", "1",
                     "--method", method, "--B", "20", "--interval-runs", "3", *extra]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("method", ["hte-analytic", "hte-bootstrap"])
    def test_exact_gaussian_fit_numeric_exit(self, tmp_path, capsys, method):
        # y = 1 - 2x is fitted exactly, so the dispersion estimate is 0
        path = tmp_path / "exact.csv"
        _write_csv(path, ["x", "y", "w"], [[i % 2, 1 - 2 * (i % 2), 1] for i in range(20)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--data", str(path), "--outcome", "y", "--covariates", "x",
                         "--weights", "w", "--family", "gaussian", "--seed", "1", "--method", method])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("numerical error: zero residual variance: the gaussian fit is exact, "
                       "so its dispersion cannot be estimated\n")

    def test_single_psu_stratum_numeric_exit(self, tmp_path, capsys):
        path = self._clustered_csv(tmp_path / "lonely.csv", psu_per_stratum=(3, 1, 3))
        code = main([
            "fit", "--data", path, "--outcome", "y", "--covariates", "x1",
            "--weights", "w", "--family", "bernoulli", "--seed", "1",
            "--strata", "stratum", "--psu", "cluster",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "stratum 's1' has a single PSU" in err
        assert "np." not in err

    def test_single_psu_stratum_fails_before_bootstrap(self, tmp_path, monkeypatch, capsys):
        # the stratified meat rejects the design before a single refit
        def never(*args, **kwargs):
            raise AssertionError("the bootstrap ran on a design the meat rejects")

        monkeypatch.setattr(penalty, "_bootstrap_reports", never)
        path = self._clustered_csv(tmp_path / "lonely.csv", psu_per_stratum=(3, 1, 3))
        code = main([
            "fit", "--data", path, "--outcome", "y", "--covariates", "x1",
            "--weights", "w", "--family", "bernoulli", "--seed", "1",
            "--strata", "stratum", "--psu", "cluster", "--method", "hte-bootstrap",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "stratum 's1' has a single PSU" in err
        assert "np." not in err

    @pytest.mark.parametrize("method", ["hte-analytic", "hte-bootstrap"])
    def test_psu_labels_reused_across_strata_match_unique_labels(self, tmp_path, capsys,
                                                                 method):
        outs = []
        for reuse in (False, True):
            path = self._clustered_csv(tmp_path / f"c{reuse}.csv", reuse_labels=reuse)
            assert main([
                "fit", "--data", path, "--outcome", "y", "--covariates", "x1",
                "--weights", "w", "--family", "bernoulli", "--seed", "1",
                "--strata", "stratum", "--psu", "cluster", "--method", method,
                "--B", "20", "--interval-runs", "3",
            ]) == 0
            outs.append(json.loads(capsys.readouterr().out))
        assert outs[0] == outs[1]

    def test_bootstrap_scales_penalty_by_design_effect(self, tmp_path, capsys):
        path = self._clustered_csv(tmp_path / "clustered.csv")
        base = ["fit", "--data", path, "--outcome", "y", "--covariates", "x1",
                "--weights", "w", "--family", "bernoulli", "--seed", "1",
                "--method", "hte-bootstrap", "--B", "30", "--interval-runs", "3"]
        outs = []
        for extra in ([], ["--strata", "stratum", "--psu", "cluster"]):
            assert main(base + extra) == 0
            outs.append(json.loads(capsys.readouterr().out))
        plain, clustered = outs
        X, y, d = load_dataset(path, "y", ["x1"], "w", None, "stratum", "cluster")
        rho, phi = estimate_dispersion(
            fit_weighted_glm(X, y, Family(FamilyKind.BERNOULLI), d))
        assert phi > 1.1
        assert (plain["rho_hat"], plain["phi_hat"]) == (None, 1.0)
        assert (clustered["rho_hat"], clustered["phi_hat"]) == (rho, phi)
        assert clustered["omega_hat"] == pytest.approx(phi * plain["omega_hat"], rel=1e-12)
        for q in ("q025", "median", "q975"):
            assert clustered["p_hat_bootstrap"][q] == pytest.approx(
                phi * plain["p_hat_bootstrap"][q], rel=1e-12)

    @pytest.mark.parametrize("family", ["bernoulli", "poisson"])
    def test_outcome_outside_family_schema_exit(self, gaussian_csv, capsys, family):
        # the gaussian fixture's outcome is neither 0/1 nor non-negative
        code = main([
            "fit", "--data", gaussian_csv, "--outcome", "y",
            "--covariates", "x1", "--weights", "w",
            "--family", family, "--seed", "1",
        ])
        assert code == 2
        assert f"schema error: outcome column: {family} outcomes" in capsys.readouterr().err

    def test_missing_weight_column_schema_exit(self, gaussian_csv):
        code = main([
            "fit", "--data", gaussian_csv, "--outcome", "y",
            "--covariates", "x1", "--weights", "missing",
            "--family", "gaussian", "--seed", "1",
        ])
        assert code == 2

    def test_missing_file_io_exit(self, tmp_path):
        code = main([
            "fit", "--data", str(tmp_path / "absent.csv"), "--outcome", "y",
            "--covariates", "x1", "--weights", "w",
            "--family", "gaussian", "--seed", "1",
        ])
        assert code == 4

    def test_collinear_covariates_numeric_exit(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 30
        x = rng.normal(size=n)
        y = x + rng.normal(size=n)
        path = tmp_path / "d.csv"
        _write_csv(path, ["y", "x1", "x2", "w"],
                   np.column_stack([y, x, 2 * x, np.ones(n)]).tolist())
        code = main([
            "fit", "--data", str(path), "--outcome", "y",
            "--covariates", "x1", "x2", "--weights", "w",
            "--family", "gaussian", "--seed", "1",
        ])
        assert code == 3


class TestCmdSimulate:
    def test_single_replicate_aggregates_match_record(self, tmp_path, capsys):
        out_csv = tmp_path / "r.csv"
        out_json = tmp_path / "a.json"
        code = main([
            "simulate", "--scenario", "s1", "--pop", "4000", "--n", "150",
            "--reps", "1", "--seed", "3",
            "--out-csv", str(out_csv), "--out-json", str(out_json),
        ])
        assert code == 0
        agg = json.loads(out_json.read_text())
        with open(out_csv) as fh:
            (row,) = list(csv.DictReader(fh))
        assert agg["replicates"] == 1
        assert agg["optimism"]["mean"] == pytest.approx(float(row["optimism"]))

    def test_every_replicate_failing_numeric_exit(self, capsys, monkeypatch):
        # every sample that ScenarioSpec admits fits [1, x], so the fit is made to fail
        def failing_fit(*args):
            raise fit.FitError("forced failure")

        monkeypatch.setattr(sim, "_fit_replicate", failing_fit)
        code = main([
            "simulate", "--scenario", "s1", "--pop", "10", "--n", "3",
            "--reps", "1", "--seed", "1",
        ])
        assert code == 3
        assert "numerical error: 1/1 replicates failed to fit" in capsys.readouterr().err

    def test_negative_seed_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "s1", "--pop", "1000", "--n", "50",
                  "--reps", "2", "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err

    def test_zero_reps_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "s1", "--pop", "1000", "--n", "50",
                  "--reps", "0", "--seed", "1"])
        assert exc.value.code == 2
        assert "argument --reps: must be an integer of at least 1, got '0'" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["-3", "0", "2"])
    def test_sample_size_below_three_numeric_exit(self, capsys, n):
        code = main([
            "simulate", "--scenario", "s1", "--pop", "1000", "--n", n,
            "--reps", "2", "--seed", "1",
        ])
        assert code == 3
        assert f"numerical error: sample size must be at least 3, got {n}" in capsys.readouterr().err

    def test_csv_reaggregates_to_json(self, tmp_path):
        out_csv = tmp_path / "r.csv"
        out_json = tmp_path / "a.json"
        main([
            "simulate", "--scenario", "s1", "--pop", "4000", "--n", "150",
            "--reps", "8", "--seed", "4",
            "--out-csv", str(out_csv), "--out-json", str(out_json),
        ])
        agg = json.loads(out_json.read_text())
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        for name in ("optimism", "omega_hat"):
            col = np.sort([float(r[name]) for r in rows])
            assert agg[name]["mean"] == pytest.approx(col.mean())
            assert agg[name]["q025"] == pytest.approx(np.quantile(col, 0.025))

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            out_csv = tmp_path / f"{tag}.csv"
            out_json = tmp_path / f"{tag}.json"
            code = main([
                "simulate", "--scenario", "s2_bern", "--pop", "4000", "--n", "150",
                "--reps", "4", "--seed", "99",
                "--out-csv", str(out_csv), "--out-json", str(out_json),
            ])
            assert code == 0
            paths.append((out_csv.read_bytes(), out_json.read_bytes()))
        assert paths[0] == paths[1]


    def test_forked_workers_byte_identical_outputs(self, tmp_path, capsys, fan_out):
        outputs = []
        for workers in (1, 2, 3):
            forks = fan_out(workers)
            out_csv = tmp_path / f"{workers}.csv"
            out_json = tmp_path / f"{workers}.json"
            code = main([
                "simulate", "--scenario", "s2_bern", "--pop", "4000", "--n", "150",
                "--reps", "5", "--seed", "99",
                "--out-csv", str(out_csv), "--out-json", str(out_json),
            ])
            assert code == 0
            assert len(forks) == workers - 1
            outputs.append((capsys.readouterr().out, out_csv.read_bytes(), out_json.read_bytes()))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_failed_fork_runs_its_chunk_here(self, monkeypatch, capsys, fan_out):
        argv = ["simulate", "--scenario", "s1", "--pop", "2000", "--n", "50",
                "--reps", "6", "--seed", "1"]
        fan_out(1)
        assert main(argv) == 0
        serial = capsys.readouterr()
        forks, fork = fan_out(3), os.fork
        tries = []

        def second_fork_fails():
            tries.append(None)
            if len(tries) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        assert main(argv) == 0
        assert capsys.readouterr() == serial
        assert (len(tries), len(forks)) == (2, 1)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestCmdKnn:
    def test_table_shape_and_k_equals_n(self, logistic_csv, tmp_path):
        out_csv = tmp_path / "knn.csv"
        code = main([
            "knn", "--data", logistic_csv, "--outcome", "y",
            "--covariates", "x1", "x2", "--weights", "w",
            "--k", "5", "300", "--B", "60", "--seed", "2",
            "--out-csv", str(out_csv),
        ])
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["k"]) for r in rows] == [5, 300]
        for r in rows:
            assert float(r["err_hat"]) == pytest.approx(
                float(r["err"]) + 2.0 * float(r["omega_half"])
            )
        # k = n: essentially constant rule, near-zero optimism
        assert abs(float(rows[1]["omega_half"])) < 0.05

    def test_psu_scales_penalty_by_design_effect(self, tmp_path):
        path = TestCmdFit._clustered_csv(tmp_path / "clustered.csv")
        X, y, d = load_dataset(path, "y", ["x1"], "w", None, None, "cluster")
        _, phi = estimate_dispersion(fit_weighted_glm(X, y, Family(FamilyKind.BERNOULLI), d))
        tables = []
        for extra in ([], ["--psu", "cluster"]):
            out_csv = tmp_path / f"knn{len(extra)}.csv"
            assert main([
                "knn", "--data", path, "--outcome", "y", "--covariates", "x1",
                "--weights", "w", "--k", "5", "--B", "30", "--seed", "2",
                "--out-csv", str(out_csv), *extra,
            ]) == 0
            with open(out_csv) as fh:
                (row,) = list(csv.DictReader(fh))
            tables.append(row)
        plain, clustered = tables
        assert phi > 1.1
        assert clustered["err"] == plain["err"]
        assert float(clustered["omega_half"]) == pytest.approx(
            phi * float(plain["omega_half"]), rel=1e-12)

    @pytest.mark.parametrize("k", ["0", "31"])
    def test_k_outside_one_to_n_numeric_exit(self, tmp_path, capsys, k):
        rng = np.random.default_rng(5)
        x = rng.normal(size=30)
        y = (rng.random(30) < 0.5).astype(float)
        path = tmp_path / "d.csv"
        _write_csv(path, ["y", "x", "w"], np.column_stack([y, x, np.ones(30)]).tolist())
        code = main([
            "knn", "--data", str(path), "--outcome", "y", "--covariates", "x",
            "--weights", "w", "--k", k, "--B", "10", "--seed", "2",
        ])
        assert code == 3
        assert f"k must lie in [1, n=30], got {k}" in capsys.readouterr().err

    def test_constant_covariate_numeric_exit(self, tmp_path, capsys):
        # the constant covariate is the second named, so X's column 1
        rng = np.random.default_rng(6)
        x = rng.normal(size=30)
        y = (rng.random(30) < 0.5).astype(float)
        path = tmp_path / "d.csv"
        _write_csv(path, ["y", "x", "c", "w"],
                   np.column_stack([y, x, np.full(30, 2.0), np.ones(30)]).tolist())
        code = main([
            "knn", "--data", str(path), "--outcome", "y", "--covariates", "x", "c",
            "--weights", "w", "--k", "5", "--B", "10", "--seed", "2",
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == "numerical error: X column 1 is constant: it has no weighted spread\n"
        assert captured.out == ""

    def test_repeated_k_schema_exit(self, logistic_csv, capsys):
        code = main([
            "knn", "--data", logistic_csv, "--outcome", "y", "--covariates", "x1",
            "--weights", "w", "--k", "5", "5", "--B", "10", "--seed", "2",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "schema error: --k repeats a neighbour count: 5 5" in captured.err
        assert captured.out == ""

    def test_negative_seed_rejected_at_parse_time(self, logistic_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "knn", "--data", logistic_csv, "--outcome", "y", "--covariates", "x1",
                "--weights", "w", "--k", "5", "--B", "10", "--seed", "-1",
            ])
        assert exc.value.code == 2
        assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err

    def test_one_bootstrap_replicate_usage_exit(self, logistic_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "knn", "--data", logistic_csv, "--outcome", "y", "--covariates", "x1",
                "--weights", "w", "--k", "5", "--B", "1", "--seed", "2",
            ])
        assert exc.value.code == 2
        assert "argument --B: must be an integer of at least 2, got '1'" in capsys.readouterr().err

    def test_non_binary_outcome_schema_exit(self, gaussian_csv):
        code = main([
            "knn", "--data", gaussian_csv, "--outcome", "y",
            "--covariates", "x1", "--weights", "w", "--seed", "2",
        ])
        assert code == 2


class TestBootstrapChildFailure:
    """A rule that fails in a forked bootstrap worker still exits 3, and leaves no process."""

    @staticmethod
    def _failing_on_short_blocks(build, parent, fail):
        """``build``'s rules, calling ``fail()`` on the short last block of a seed in a child."""

        def failing(*args):
            rule = build(*args)

            def train(Y):
                if 1 < len(Y) < penalty._BLOCK:
                    if os.getpid() == parent:
                        raise AssertionError("short block in the parent")
                    fail()
                return rule(Y)

            return train

        return failing

    def _run(self, command, logistic_csv, monkeypatch, fan_out, fail):
        # B = 100 is blocks of 32, 32, 32 and 4.  fit's two seeds over three
        # workers and knn's one seed over two both give the first short
        # block to a child.
        workers = 3 if command == "fit" else 2
        forks = fan_out(workers)
        if command == "fit":
            module, name, extra = penalty, "glm_rule", ["--family", "bernoulli",
                                                        "--method", "hte-bootstrap",
                                                        "--interval-runs", "1"]
        else:
            module, name, extra = rules, "_vote_rule", ["--k", "5", "9"]
        failing = self._failing_on_short_blocks(getattr(module, name), os.getpid(), fail)
        monkeypatch.setattr(module, name, failing)
        code = main([
            command, "--data", logistic_csv, "--outcome", "y", "--covariates", "x1", "x2",
            "--weights", "w", "--B", "100", "--seed", "2", *extra,
        ])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(forks) == workers - 1
        return code

    @pytest.mark.parametrize("command", ["fit", "knn"])
    def test_exit_3_with_the_child_message(self, logistic_csv, monkeypatch, fan_out, capsys, command):
        def boom():
            raise ValueError("boom")

        assert self._run(command, logistic_csv, monkeypatch, fan_out, boom) == 3
        assert capsys.readouterr().err == "numerical error: boom\n"

    @pytest.mark.parametrize("command", ["fit", "knn"])
    def test_exit_3_when_a_child_dies(self, logistic_csv, monkeypatch, fan_out, capsys, command):
        assert self._run(command, logistic_csv, monkeypatch, fan_out, lambda: os._exit(7)) == 3
        err = capsys.readouterr().err
        assert err.startswith("worker error: forked worker ")
        assert err.endswith("ended without returning its results (exit code 7)\n")
