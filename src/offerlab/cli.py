"""Command-line front end: simulate, fit, tune, predict, evaluate, segment,
optimize, ingest-retail, and report, each writing CSV/JSON artifacts plus a
manifest that records the resolved config, seed, and artifact hashes."""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .choice import first_repeat, join
from .config import PipelineConfig
from .datasets import (
    OCCASION_KEY,
    ingest_retail_csv,
    read_customers_csv,
    read_offer_csv,
    read_scores_csv,
    write_customers_csv,
    write_multinomial_csv,
    write_offer_csv,
    write_scores_csv,
    write_truth_csv,
)
from .errors import DataIntegrityError, MissingArtifactError, OfferLabError
from .evaluate import (
    ScoredLabels,
    accuracy_at_base_rate,
    auc,
    delong_test,
    lift_curve,
    tune_ncomp,
)
from .hb import PosteriorDraws, fit_hb_mixed_logit, predict_panel_probabilities
from .profit import optimize_policy, segment_data_from_assignments
from .segments import SEGMENTS, SegmentAssignment, assign_segments, segment_distribution
from .simulate import simulate_dataset, summarize_dataset
from .storage import (
    canonical_json,
    read_csv,
    sha256_file,
    sha256_text,
    write_csv_atomic,
    write_json_atomic,
    write_text_atomic,
)

SUBCOMMANDS = (
    "simulate",
    "fit",
    "tune",
    "predict",
    "evaluate",
    "segment",
    "optimize",
    "ingest-retail",
    "report",
)

# the schemas of the CSV artifacts the CLI writes itself; a stage that
# reads one of them back refuses any other header
SEGMENT_COLUMNS = ("customer_id", "elasticity", "loyalty", "segment")
DISTRIBUTION_COLUMNS = ("segment", "percent")
TUNING_COLUMNS = ("ncomp", "mean_auc", "mean_accuracy", "selected")
LIFT_COLUMNS = ("fraction", "capture")
POLICY_COLUMNS = ("segment", "r", "M_months", "nop", "n_customers", "degenerate", "at_bound")


def _out(config: PipelineConfig) -> Path:
    path = Path(config.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require(path: Path) -> Path:
    if not path.exists():
        raise MissingArtifactError(str(path))
    return path


def _write_manifest(out: Path, subcommand: str, config: PipelineConfig, artifacts) -> Path:
    config_dict = asdict(config)
    manifest = {
        "subcommand": subcommand,
        "seed": config.seed,
        "version": __version__,
        "config": config_dict,
        "config_sha256": sha256_text(canonical_json(config_dict)),
        "artifacts": {name: sha256_file(out / name) for name in sorted(artifacts)},
    }
    path = out / f"manifest-{subcommand}.json"
    write_json_atomic(path, manifest)
    return path


def _segment(cell: str) -> str:
    if cell not in SEGMENTS:
        raise ValueError(f"unknown segment {cell!r}")
    return cell


def _flag(cell: str) -> bool:
    return {"0": False, "1": True}[cell]


def _cells(*types):
    """A row parser that converts the i-th cell with ``types[i]``."""
    return lambda row: tuple(convert(cell) for convert, cell in zip(types, row))


def _aligned_scores(path, offers) -> np.ndarray:
    """The scores of ``path`` in the row order of ``offers``, joined on
    (customer_id, occasion)."""
    rows = read_scores_csv(path)
    cid, occ, _, scores = (np.array(column) for column in zip(*rows)) if rows else [[]] * 4
    repeat = first_repeat(cid, occ)
    if repeat >= 0:
        key = (int(cid[repeat]), int(occ[repeat]))
        raise DataIntegrityError(f"{path} repeats {OCCASION_KEY} = {key}")
    at = join(
        (cid, occ), (offers.customer_id, offers.occasion),
        lambda key: MissingArtifactError(f"{path} has no score for row {key}"),
    )
    return np.asarray(scores, dtype=float)[at]


def run_pipeline(subcommand: str, config: PipelineConfig, args: argparse.Namespace | None = None):
    """Execute one stage; returns the list of artifact names written."""
    out = _out(config)
    artifacts: list[str] = []

    if subcommand == "simulate":
        dataset = simulate_dataset(config.ground_truth)
        write_offer_csv(out / "train.csv", dataset.train)
        write_offer_csv(out / "test.csv", dataset.test)
        write_customers_csv(out / "customers.csv", dataset.customers)
        write_truth_csv(out / "truth.csv", dataset.true_coefficients)
        summary = summarize_dataset(dataset.train, dataset.customers).to_text()
        summary += "\n" + summarize_dataset(dataset.test, dataset.customers).to_text()
        write_text_atomic(out / "summary.txt", summary)
        artifacts += ["train.csv", "test.csv", "customers.csv", "truth.csv", "summary.txt"]

    elif subcommand == "fit":
        offers = read_offer_csv(out / "train.csv")
        customers, _ = read_customers_csv(out / "customers.csv")
        covariates = customers.covariates(config.include_demographic)
        draws = fit_hb_mixed_logit(offers, covariates, ncomp=config.ncomp, config=config.mcmc)
        draws.save(out / "posterior")
        artifacts += [
            f"posterior/{name}"
            for name in ["header.json"] + [f"{a}.npy" for a in PosteriorDraws._ARRAYS]
        ]

    elif subcommand == "tune":
        offers = read_offer_csv(out / "train.csv")
        customers, _ = read_customers_csv(out / "customers.csv")
        covariates = customers.covariates(config.include_demographic)
        report = tune_ncomp(
            offers, covariates, config.ncomp_candidates, config.resampling, config.mcmc
        )
        rows = [
            (r.ncomp, r.mean_auc, r.mean_accuracy, int(r.ncomp == report.selected_ncomp))
            for r in report.rows
        ]
        write_csv_atomic(out / "tuning.csv", TUNING_COLUMNS, rows)
        artifacts += ["tuning.csv"]

    elif subcommand == "predict":
        draws = PosteriorDraws.load(out / "posterior")
        offers = read_offer_csv(out / "test.csv")
        scores = predict_panel_probabilities(
            draws, offers.X, offers.customer_id, mode=config.predict_mode,
            fallback_population_mean=True,
        )
        rows = zip(offers.customer_id.tolist(), offers.occasion.tolist(), scores.tolist())
        write_scores_csv(out / "scores.csv", [(cid, occ, 1, s) for cid, occ, s in rows])
        artifacts += ["scores.csv"]

    elif subcommand == "evaluate":
        offers = read_offer_csv(out / "test.csv")
        base_rate = float(np.mean(read_offer_csv(out / "train.csv").labels()))
        scores = _aligned_scores(out / "scores.csv", offers)
        labels = offers.labels()
        data = ScoredLabels(scores, labels)
        metrics = {
            "auc": auc(data),
            "accuracy": accuracy_at_base_rate(data, base_rate),
            "base_rate": base_rate,
            "n_rows": len(labels),
        }
        if args is not None and getattr(args, "compare", None):
            # imported benchmark scores (e.g. an external model) aligned on
            # (customer_id, occasion); compared via the DeLong ROC test
            other = _aligned_scores(Path(args.compare), offers)
            result = delong_test(scores, other, labels)
            metrics["delong"] = {
                "auc_model": result.auc_a,
                "auc_compare": result.auc_b,
                "z": result.z,
                "p_value": result.p_value,
            }
        write_json_atomic(out / "metrics.json", metrics)
        points = lift_curve(data)
        write_csv_atomic(out / "lift.csv", LIFT_COLUMNS, points)
        artifacts += ["metrics.json", "lift.csv"]

    elif subcommand == "segment":
        draws = PosteriorDraws.load(out / "posterior")
        offers = read_offer_csv(out / "test.csv")
        customers, _ = read_customers_csv(out / "customers.csv")
        assignments = assign_segments(draws, offers, customers, delta=config.elasticity_delta)
        write_csv_atomic(
            out / "segments.csv",
            SEGMENT_COLUMNS,
            [(a.customer_id, a.elasticity, a.loyalty, a.segment) for a in assignments],
        )
        shares = segment_distribution(assignments)
        write_csv_atomic(
            out / "segment_distribution.csv",
            DISTRIBUTION_COLUMNS,
            [(segment, shares[segment]) for segment in SEGMENTS],
        )
        artifacts += ["segments.csv", "segment_distribution.csv"]

    elif subcommand == "optimize":
        draws = PosteriorDraws.load(out / "posterior")
        parse = _cells(int, float, float, _segment)
        rows = read_csv(out / "segments.csv", SEGMENT_COLUMNS, parse)
        assignments = [SegmentAssignment(*row) for row in rows]
        _, mrp = read_customers_csv(out / "customers.csv")
        segments = segment_data_from_assignments(assignments, config.nop, mrp)
        rows = []
        for segment in SEGMENTS:
            seg = segments[segment]
            if seg.n_customers == 0:
                continue
            policy = optimize_policy(seg, draws, config.nop, mode=config.predict_mode)
            rows.append(
                (
                    policy.segment,
                    policy.r,
                    policy.months,
                    policy.nop_value,
                    policy.n_customers,
                    int(policy.degenerate),
                    int(policy.at_bound),
                )
            )
        write_csv_atomic(out / "policy.csv", POLICY_COLUMNS, rows)
        artifacts += ["policy.csv"]

    elif subcommand == "ingest-retail":
        if args is None or not args.input:
            raise MissingArtifactError("ingest-retail requires --input <retail csv>")
        product_filter = None
        if args.products:
            lines = _require(Path(args.products)).read_text().split()
            product_filter = {line.strip() for line in lines if line.strip()}
        dataset = ingest_retail_csv(args.input, product_filter=product_filter)
        write_multinomial_csv(out / "multinomial.csv", dataset)
        artifacts += ["multinomial.csv"]

    elif subcommand == "report":
        sections = []
        dist_path = out / "segment_distribution.csv"
        if dist_path.exists():
            shares = dict(read_csv(dist_path, DISTRIBUTION_COLUMNS, _cells(_segment, float)))
            lines = ["Customer segments (percent of customers)", "-" * 44]
            for segment in SEGMENTS:
                lines.append(f"{segment:<24}{shares.get(segment, 0.0):>8.1f}")
            sections.append("\n".join(lines))
        tuning_path = out / "tuning.csv"
        if tuning_path.exists():
            rows = read_csv(tuning_path, TUNING_COLUMNS, _cells(int, float, float, _flag))
            lines = ["Mixture-size tuning (mean validation AUC)", "-" * 44]
            lines.append(f"{'ncomp':<8}{'AUC':>10}{'accuracy':>12}{'selected':>10}")
            for ncomp, mean_auc, mean_accuracy, selected in rows:
                mark = "*" if selected else ""
                lines.append(f"{ncomp:<8}{mean_auc:>10.4f}{mean_accuracy:>12.4f}{mark:>10}")
            sections.append("\n".join(lines))
        policy_path = out / "policy.csv"
        if policy_path.exists():
            parse = _cells(_segment, float, int, float, int, _flag, _flag)
            policies = {row[0]: row for row in read_csv(policy_path, POLICY_COLUMNS, parse)}

            def _cell(segment):
                if segment not in policies:
                    return "(no customers)"
                _, r, months, _, _, degenerate, at_bound = policies[segment]
                marks = "!" * degenerate + "^" * at_bound
                return f"r = {100 * r:+.1f}%  m = {months} months {marks}".rstrip()

            lines = ["Optimal discount rate (r) and contract length (m)", "-" * 60]
            lines.append(f"{'':<22}{'Not Loyal':<30}{'Loyal':<30}")
            lines.append(
                f"{'Discount Inelastic':<22}{_cell('inelastic-not-loyal'):<30}{_cell('inelastic-loyal'):<30}"
            )
            lines.append(
                f"{'Discount Elastic':<22}{_cell('elastic-not-loyal'):<30}{_cell('elastic-loyal'):<30}"
            )
            lines.append("^ r at a bound of the segment's discount range")
            lines.append("! degenerate: no customer adds profit, r and m are defaults")
            sections.append("\n".join(lines))
        if not sections:
            raise MissingArtifactError(
                "report needs at least one of segment_distribution.csv, tuning.csv, policy.csv"
            )
        write_text_atomic(out / "report.txt", "\n\n".join(sections) + "\n")
        artifacts += ["report.txt"]

    else:
        raise OfferLabError(f"unknown subcommand {subcommand!r}")

    manifest = _write_manifest(out, subcommand, config, artifacts)
    return artifacts + [manifest.name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="offerlab",
        description="Offer-response modeling, segmentation, and next-offer profit optimization",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the pipeline JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--input", default=None, help="retail transactions CSV (ingest-retail)")
    parser.add_argument(
        "--products", default=None, help="file of stock codes to keep (ingest-retail)"
    )
    parser.add_argument(
        "--compare", default=None, help="benchmark scores CSV for the DeLong test (evaluate)"
    )
    args = parser.parse_args(argv)

    try:
        config = PipelineConfig.from_json(args.config, seed_override=args.seed, out_override=args.out)
        artifacts = run_pipeline(args.subcommand, config, args)
    except MissingArtifactError as exc:
        print(f"offerlab {args.subcommand}: missing prerequisite artifact: {exc}", file=sys.stderr)
        return 2
    except OfferLabError as exc:
        print(f"offerlab {args.subcommand}: {exc}", file=sys.stderr)
        return 1
    for name in artifacts:
        print(f"wrote {Path(config.out_dir) / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
