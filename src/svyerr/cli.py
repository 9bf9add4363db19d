"""Command-line front end: fit, simulate and knn subcommands.

Exit codes are a stable contract: 0 success, 2 schema or usage error,
3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import families as fam
from . import penalty as pen
from . import rules
from . import simulate as sim
from .design import DesignError, MeatStructure, SurveyDesign
from .families import Family, FamilyKind, Loss, LossKind
from .fit import FitError, fit_weighted_glm, sandwich_variance

__all__ = ["main", "SchemaError"]

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class SchemaError(ValueError):
    """Input data does not match the declared column schema."""


# --------------------------------------------------------------------- #
# CSV ingestion
# --------------------------------------------------------------------- #


def load_dataset(
    path: str,
    outcome: str,
    covariates: list[str],
    weight_col: str | None,
    pi_col: str | None,
    strata_col: str | None = None,
    psu_col: str | None = None,
    hajek_n: float | None = None,
):
    """Read an RFC-4180 CSV into (X, y, design), rejecting rows with gaps.

    One pass of ``csv.reader`` keeps the needed cells of each row; rows are
    read as ``csv.DictReader`` reads them.  Blank lines are skipped, a row
    too short to hold every needed column counts as a row with gaps, extra
    cells are ignored, and a header name given twice means its last column.
    """
    if (weight_col is None) == (pi_col is None):
        raise SchemaError("exactly one of a weight column or a pi column is required")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError("CSV file has no header row")
        design_col = weight_col if weight_col is not None else pi_col
        needed = [c for c in (outcome, *covariates, design_col, strata_col, psu_col) if c is not None]
        index = {name: i for i, name in enumerate(header)}  # a repeated name: the last column
        missing = [c for c in needed if c not in index]
        if missing:
            raise SchemaError(f"missing column(s): {', '.join(missing)}")
        cells = [index[c] for c in needed]
        width = max(cells) + 1
        kept, dropped = [], 0
        for row in reader:
            if not row:
                continue
            values = [row[i] for i in cells] if len(row) >= width else None
            if values is None or "" in values:
                dropped += 1
            else:
                kept.append(values)
    if dropped:
        print(f"dropped {dropped} row(s) with missing values", file=sys.stderr)
    if not kept:
        raise SchemaError("no complete rows in the input")
    column = dict(zip(needed, zip(*kept)))

    def numeric(col):
        try:
            v = np.array([float(x) for x in column[col]])
        except ValueError as exc:
            raise SchemaError(f"non-numeric value in column {col!r}: {exc}") from exc
        if not np.all(np.isfinite(v)):
            raise SchemaError(f"non-finite value in column {col!r}")
        return v

    y = numeric(outcome)
    X = np.column_stack([np.ones(len(kept))] + [numeric(c) for c in covariates])
    strata = np.array(column[strata_col]) if strata_col else None
    psu = np.array(column[psu_col]) if psu_col else None
    try:
        design = SurveyDesign(
            **{"weights" if pi_col is None else "pi": numeric(design_col)},
            strata=strata, psu=psu, pop_size=hajek_n, hajek=hajek_n is not None,
        )
    except DesignError as exc:
        raise SchemaError(str(exc)) from exc
    return X, y, design


def _fmt(v):
    return f"{v:.17g}" if isinstance(v, float) else v


def write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row[k]) for k in fieldnames})


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------- #


def _check_outcome_column(family: Family, y) -> None:
    """The family's outcome-domain check, failing as a schema error."""
    try:
        fam.check_outcomes(family, y)
    except fam.DomainError as exc:
        raise SchemaError(f"outcome column: {exc}") from exc


def cmd_fit(args) -> int:
    X, y, design = load_dataset(
        args.data, args.outcome, args.covariates,
        args.weights, args.pi, args.strata, args.psu, args.hajek,
    )
    family = Family(FamilyKind(args.family))
    _check_outcome_column(family, y)
    f = fit_weighted_glm(X, y, family, design)
    loss = Loss(LossKind.DEVIANCE, f.family)
    # PSU labels without strata make the whole sample one stratum
    structure = MeatStructure.STRATIFIED_CLUSTER if args.psu else MeatStructure.INDEPENDENT
    interval = {}
    if args.method == "hte-bootstrap":
        # the sandwich first: a design its meat rejects fails before any refit
        sw = sandwich_variance(f, structure)
        # seed gives the reported penalty; seed + 1, ... re-run it under
        # independent seeds for an empirical interval on the estimate
        rule = pen.glm_rule(X, design, family)
        report, *reruns = [
            pen.hte_bootstrap(rule, f, B=args.B, seed=args.seed + s, loss=loss)
            for s in range(1 + args.interval_runs)
        ]
        phats = [len(y) * r.omega_hat / 2.0 for r in reruns]
        interval["p_hat_bootstrap"] = {
            "median": float(np.median(phats)),
            "q025": float(np.quantile(phats, 0.025)),
            "q975": float(np.quantile(phats, 0.975)),
        }
    else:
        report = pen.hte_analytic(f, loss=loss, structure=structure)
        sw = report.sandwich
    out = {
        "theta": list(f.theta),
        "v_diagonal": list(np.diag(sw.V)),
        "weighted_deviance": f.deviance_weighted,
        **report.to_dict(),
        **interval,
    }
    if args.out_json:
        write_json(args.out_json, out)
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = sim.ScenarioSpec(id=args.scenario, pop_size=args.pop, sample_size=args.n)
    summary = sim.run_optimism_experiment(spec, reps=args.reps, seed=args.seed)
    agg = summary.aggregates()
    if args.out_csv:
        write_csv(args.out_csv, list(sim.RECORD_FIELDS), summary.records)
    if args.out_json:
        write_json(args.out_json, agg)
    o, w = agg["optimism"], agg["omega_hat"]
    print(
        f"{spec.id}: optimism mean {o['mean']:.4f} {{{o['median']:.4f}}} "
        f"({o['q025']:.4f}, {o['q975']:.4f}); "
        f"omega_hat mean {w['mean']:.4f} {{{w['median']:.4f}}} "
        f"({w['q025']:.4f}, {w['q975']:.4f})"
    )
    return EXIT_OK


def cmd_knn(args) -> int:
    if len(set(args.k)) != len(args.k):
        raise SchemaError(f"--k repeats a neighbour count: {' '.join(map(str, args.k))}")
    X, y, design = load_dataset(
        args.data, args.outcome, args.covariates,
        args.weights, args.pi, args.strata, args.psu, args.hajek,
    )
    _check_outcome_column(Family(FamilyKind.BERNOULLI), y)
    # no intercept column for a distance-based rule
    reports = rules.knn_error_report(X[:, 1:], y, design, args.k, B=args.B, seed=args.seed)
    rows = [
        {
            "k": k,
            "err": r.err_weighted,
            "omega_half": r.omega_hat / 2.0,
            "err_hat": r.err_hat,
        }
        for k, r in reports
    ]
    if args.out_csv:
        write_csv(args.out_csv, ["k", "err", "omega_half", "err_hat"], rows)
    print(f"{'k':>6} {'err':>10} {'omega/2':>10} {'err_hat':>10}")
    for row in rows:
        print(f"{row['k']:>6} {row['err']:>10.4f} {row['omega_half']:>10.4f} {row['err_hat']:>10.4f}")
    return EXIT_OK


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy seeds are non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _count(minimum: int):
    """An argparse type for a count of at least ``minimum`` (replicates, runs)."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer of at least {minimum}, got {text!r}")
        return int(text)

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svyerr",
        description="Prediction error estimation for complex survey samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p):
        p.add_argument("--data", required=True)
        p.add_argument("--outcome", required=True)
        p.add_argument("--covariates", nargs="+", required=True)
        p.add_argument("--weights")
        p.add_argument("--pi")
        p.add_argument("--strata")
        p.add_argument("--psu")
        p.add_argument("--hajek", type=float, default=None,
                       help="rescale weights to sum to this population size")

    p_fit = sub.add_parser("fit", help="weighted GLM with dAIC/HTE report")
    add_data_args(p_fit)
    p_fit.add_argument("--family", choices=[k.value for k in FamilyKind], required=True)
    p_fit.add_argument("--method", choices=["hte-analytic", "hte-bootstrap"],
                       default="hte-analytic")
    p_fit.add_argument("--B", type=_count(2), default=200)
    p_fit.add_argument("--interval-runs", type=_count(1), default=100)
    p_fit.add_argument("--seed", type=_seed, required=True)
    p_fit.add_argument("--out-json")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="optimism Monte Carlo experiment")
    p_sim.add_argument("--scenario", choices=list(sim.SCENARIO_IDS), required=True)
    p_sim.add_argument("--pop", type=int, default=100_000)
    p_sim.add_argument("--n", type=int, default=1_000)
    p_sim.add_argument("--reps", type=_count(1), default=1_000)
    p_sim.add_argument("--seed", type=_seed, required=True)
    p_sim.add_argument("--out-csv")
    p_sim.add_argument("--out-json")
    p_sim.set_defaults(func=cmd_simulate)

    p_knn = sub.add_parser("knn", help="kNN error table under 0-1 loss")
    add_data_args(p_knn)
    p_knn.add_argument("--k", type=int, nargs="+", default=[10, 20, 30, 40])
    p_knn.add_argument("--B", type=_count(2), default=200)
    p_knn.add_argument("--seed", type=_seed, required=True)
    p_knn.add_argument("--out-csv")
    p_knn.set_defaults(func=cmd_knn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (FitError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
