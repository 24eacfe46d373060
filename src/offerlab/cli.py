"""Command-line front end.  ``STAGES`` maps each subcommand, in pipeline
order, to one stage function that writes CSV/JSON artifacts; ``run_pipeline``
adds a manifest recording the resolved config, seed, and artifact hashes.
``report`` renders one section per artifact of ``REPORT_SECTIONS`` present,
and refuses one whose first column repeats a key."""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .choice import first_repeat, join
from .config import PipelineConfig
from .datasets import (
    OCCASION_KEY,
    read_customers_csv,
    read_offer_csv,
    read_scores_csv,
    write_customers_csv,
    write_offer_csv,
    write_scores_csv,
    write_truth_csv,
)
from .errors import ConfigurationError, DataIntegrityError, MissingArtifactError, OfferLabError
from .evaluate import (
    ScoredLabels,
    TuningRow,
    accuracy_at_base_rate,
    auc,
    delong_test,
    lift_curve,
    tune_ncomp,
)
from .hb import PosteriorDraws, fit_hb_mixed_logit, predict_panel_probabilities
from .profit import OfferPolicy, optimize_policy, segment_data_from_assignments
from .segments import SEGMENTS, SegmentAssignment, assign_segments, segment_distribution
from .simulate import simulate_dataset, summarize_dataset
from .storage import (
    FLAG,
    FLOAT,
    INT,
    artifact_file,
    canonical_json,
    enum_cell,
    load_dataclass,
    read_csv,
    read_json_artifact,
    sha256_file,
    sha256_text,
    write_csv_atomic,
    write_json_atomic,
    write_text_atomic,
)

# the segment cell and the schemas of the CSV artifacts the CLI writes
# itself; a stage that reads one of them back refuses any other header
SEGMENT = enum_cell("segment", {segment: segment for segment in SEGMENTS})
SEGMENT_CSV = {"customer_id": INT, "elasticity": FLOAT, "loyalty": FLOAT, "segment": SEGMENT}
DISTRIBUTION_CSV = {"segment": SEGMENT, "percent": FLOAT}
TUNING_CSV = {"ncomp": INT, "mean_auc": FLOAT, "mean_accuracy": FLOAT, "selected": FLAG}
LIFT_CSV = {"fraction": FLOAT, "capture": FLOAT}
POLICY_CSV = {
    "segment": SEGMENT, "r": FLOAT, "M_months": INT, "nop": FLOAT, "n_customers": INT,
    "degenerate": FLAG, "at_bound": FLAG,
}


def _fields(records, cls) -> list:
    """The columns of ``records``, one per field of the dataclass ``cls``, in field order."""
    return [[getattr(record, f.name) for record in records] for f in fields(cls)]


def _aligned_scores(path, offers) -> np.ndarray:
    """The scores of ``path`` in the row order of ``offers``, joined on
    (customer_id, occasion)."""
    cid, occ, _, scores = (np.asarray(column) for column in read_scores_csv(path))
    repeat = first_repeat(cid, occ)
    if repeat >= 0:
        key = (int(cid[repeat]), int(occ[repeat]))
        raise DataIntegrityError(f"{path} repeats {OCCASION_KEY} = {key}")
    at = join(
        (cid, occ), (offers.customer_id, offers.occasion),
        lambda key: MissingArtifactError(f"{path} has no score for row {key}"),
    )
    return np.asarray(scores, dtype=float)[at]


def _simulate(out: Path, config: PipelineConfig, args) -> list[str]:
    dataset = simulate_dataset(config.ground_truth)
    write_offer_csv(out / "train.csv", dataset.train)
    write_offer_csv(out / "test.csv", dataset.test)
    write_customers_csv(out / "customers.csv", dataset.customers)
    write_truth_csv(out / "truth.csv", dataset.true_coefficients)
    summary = summarize_dataset(dataset.train, dataset.customers)
    summary += "\n" + summarize_dataset(dataset.test, dataset.customers)
    write_text_atomic(out / "summary.txt", summary)
    return ["train.csv", "test.csv", "customers.csv", "truth.csv", "summary.txt"]


@dataclass(frozen=True)
class BaseRate:
    """The training base rate, recorded by ``fit`` in ``BASE_RATE_JSON``
    with the sha256 of the ``train.csv`` it was taken from, so that
    ``evaluate`` need not parse that file again."""

    base_rate: float
    train_sha256: str


BASE_RATE_JSON = "base_rate.json"


def _fit(out: Path, config: PipelineConfig, args) -> list[str]:
    # hashed before it is read: a train.csv rewritten during the fit then
    # fails evaluate's check instead of passing under the old data's rate
    train = artifact_file(out / "train.csv")
    train_sha256 = sha256_file(train)
    offers = read_offer_csv(train)
    customers, _ = read_customers_csv(out / "customers.csv")
    covariates = customers.covariates(config.include_demographic)
    draws = fit_hb_mixed_logit(offers, covariates, ncomp=config.ncomp, config=config.mcmc)
    record = BaseRate(float(np.mean(offers.labels())), train_sha256)
    write_json_atomic(out / BASE_RATE_JSON, asdict(record))
    return [f"posterior/{name}" for name in draws.save(out / "posterior")] + [BASE_RATE_JSON]


def _training_base_rate(out: Path) -> float:
    """The base rate ``fit`` recorded, once the current ``train.csv`` is
    checked against the hash recorded with it.  A missing record is a
    ``MissingArtifactError``; a malformed one, or a ``train.csv`` that has
    changed since, is a ``DataIntegrityError`` naming the file."""
    path = out / BASE_RATE_JSON
    obj = read_json_artifact(path)
    train = artifact_file(out / "train.csv")
    try:
        record = load_dataclass(BaseRate, obj, str(path))
    except ConfigurationError as exc:
        raise DataIntegrityError(str(exc)) from None
    if sha256_file(train) != record.train_sha256:
        raise DataIntegrityError(
            f"{train} has changed since fit recorded its base rate in {path}; run fit again"
        )
    return record.base_rate


def _tune(out: Path, config: PipelineConfig, args) -> list[str]:
    offers = read_offer_csv(out / "train.csv")
    customers, _ = read_customers_csv(out / "customers.csv")
    covariates = customers.covariates(config.include_demographic)
    report = tune_ncomp(
        offers, covariates, config.ncomp_candidates, config.resampling, config.mcmc
    )
    columns = _fields(report.rows, TuningRow)
    columns.append([ncomp == report.selected_ncomp for ncomp in columns[0]])
    write_csv_atomic(out / "tuning.csv", TUNING_CSV, columns)
    return ["tuning.csv"]


def _predict(out: Path, config: PipelineConfig, args) -> list[str]:
    draws = PosteriorDraws.load(out / "posterior")
    offers = read_offer_csv(out / "test.csv")
    scores = predict_panel_probabilities(
        draws, offers.X, offers.customer_id, mode=config.predict_mode,
        fallback_population_mean=True,
    )
    columns = [offers.customer_id, offers.occasion, [1] * len(offers), scores]
    write_scores_csv(out / "scores.csv", columns)
    return ["scores.csv"]


def _evaluate(out: Path, config: PipelineConfig, args) -> list[str]:
    offers = read_offer_csv(out / "test.csv")
    base_rate = _training_base_rate(out)
    scores = _aligned_scores(out / "scores.csv", offers)
    labels = offers.labels()
    data = ScoredLabels(scores, labels)
    metrics = {
        "auc": auc(data),
        "accuracy": accuracy_at_base_rate(data, base_rate),
        "base_rate": base_rate,
        "n_rows": len(labels),
    }
    if args.compare:
        # imported benchmark scores (e.g. an external model) aligned on
        # (customer_id, occasion); compared via the DeLong ROC test
        result = delong_test(scores, _aligned_scores(Path(args.compare), offers), labels)
        metrics["delong"] = {
            "auc_model": result.auc_a,
            "auc_compare": result.auc_b,
            "z": result.z,
            "p_value": result.p_value,
        }
    write_json_atomic(out / "metrics.json", metrics)
    write_csv_atomic(out / "lift.csv", LIFT_CSV, list(zip(*lift_curve(data))))
    return ["metrics.json", "lift.csv"]


def _segment(out: Path, config: PipelineConfig, args) -> list[str]:
    draws = PosteriorDraws.load(out / "posterior")
    offers = read_offer_csv(out / "test.csv")
    customers, _ = read_customers_csv(out / "customers.csv")
    assignments = assign_segments(draws, offers, customers, delta=config.elasticity_delta)
    write_csv_atomic(out / "segments.csv", SEGMENT_CSV, _fields(assignments, SegmentAssignment))
    shares = segment_distribution(assignments)
    columns = [SEGMENTS, [shares[segment] for segment in SEGMENTS]]
    write_csv_atomic(out / "segment_distribution.csv", DISTRIBUTION_CSV, columns)
    return ["segments.csv", "segment_distribution.csv"]


def _optimize(out: Path, config: PipelineConfig, args) -> list[str]:
    draws = PosteriorDraws.load(out / "posterior")
    assignments = list(map(SegmentAssignment, *read_csv(out / "segments.csv", SEGMENT_CSV)))
    _, mrp = read_customers_csv(out / "customers.csv")
    segments = segment_data_from_assignments(assignments, config.nop, mrp)
    policies = [
        optimize_policy(segments[segment], draws, config.nop, mode=config.predict_mode)
        for segment in SEGMENTS if segments[segment].n_customers > 0
    ]
    write_csv_atomic(out / "policy.csv", POLICY_CSV, _fields(policies, OfferPolicy))
    return ["policy.csv"]


def _distribution_section(segments, percents) -> str:
    shares = dict(zip(segments, percents))
    lines = ["Customer segments (percent of customers)", "-" * 44]
    lines += [f"{segment:<24}{shares.get(segment, 0.0):>8.1f}" for segment in SEGMENTS]
    return "\n".join(lines)


def _tuning_section(*columns) -> str:
    lines = ["Mixture-size tuning (mean validation AUC)", "-" * 44]
    lines.append(f"{'ncomp':<8}{'AUC':>10}{'accuracy':>12}{'selected':>10}")
    for ncomp, mean_auc, mean_accuracy, selected in zip(*columns):
        mark = "*" if selected else ""
        lines.append(f"{ncomp:<8}{mean_auc:>10.4f}{mean_accuracy:>12.4f}{mark:>10}")
    return "\n".join(lines)


def _policy_section(*columns) -> str:
    cells = {}
    for segment, r, months, _, _, degenerate, at_bound in zip(*columns):
        marks = "!" * degenerate + "^" * at_bound
        cells[segment] = f"r = {100 * r:+.1f}%  m = {months} months {marks}".rstrip()
    lines = ["Optimal discount rate (r) and contract length (m)", "-" * 60]
    lines.append(f"{'':<22}{'Not Loyal':<30}{'Loyal':<30}")
    # SEGMENTS is ordered as assign_segment indexes it: 2 * elastic + loyal
    for elastic, label in enumerate(("Discount Inelastic", "Discount Elastic")):
        row = [cells.get(SEGMENTS[2 * elastic + loyal], "(no customers)") for loyal in (0, 1)]
        lines.append(f"{label:<22}{row[0]:<30}{row[1]:<30}")
    lines.append("^ r at a bound of the segment's discount range")
    lines.append("! degenerate: no customer adds profit, r and m are defaults")
    return "\n".join(lines)


# the report's sections in order: (artifact, schema, renderer of its
# columns); a missing artifact leaves its section out
REPORT_SECTIONS = (
    ("segment_distribution.csv", DISTRIBUTION_CSV, _distribution_section),
    ("tuning.csv", TUNING_CSV, _tuning_section),
    ("policy.csv", POLICY_CSV, _policy_section),
)


def _report(out: Path, config: PipelineConfig, args) -> list[str]:
    sections = []
    for name, schema, render in REPORT_SECTIONS:
        path = out / name
        if path.exists():
            columns = read_csv(path, schema)
            repeat = first_repeat(columns[0])
            if repeat >= 0:
                key = next(iter(schema))
                raise DataIntegrityError(f"{path} repeats {key} = {columns[0][repeat]}")
            sections.append(render(*columns))
    if not sections:
        names = ", ".join(name for name, _, _ in REPORT_SECTIONS)
        raise MissingArtifactError(f"report needs at least one of {names}")
    write_text_atomic(out / "report.txt", "\n\n".join(sections) + "\n")
    return ["report.txt"]


# the subcommands in pipeline order, each to its stage function
# ``(out, config, args) -> artifact names``
STAGES = {
    "simulate": _simulate,
    "fit": _fit,
    "tune": _tune,
    "predict": _predict,
    "evaluate": _evaluate,
    "segment": _segment,
    "optimize": _optimize,
    "report": _report,
}

# the options a stage reads when ``run_pipeline`` is called without ``args``
_NO_ARGS = argparse.Namespace(compare=None)


def run_pipeline(subcommand: str, config: PipelineConfig, args: argparse.Namespace | None = None):
    """Run one stage and write its manifest; returns the artifact names, the manifest last."""
    if subcommand not in STAGES:
        raise OfferLabError(f"unknown subcommand {subcommand!r}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = STAGES[subcommand](out, config, _NO_ARGS if args is None else args)
    config_dict = asdict(config)
    manifest = {
        "subcommand": subcommand,
        "seed": config.seed,
        "version": __version__,
        "config": config_dict,
        "config_sha256": sha256_text(canonical_json(config_dict)),
        "artifacts": {name: sha256_file(out / name) for name in sorted(artifacts)},
    }
    name = f"manifest-{subcommand}.json"
    write_json_atomic(out / name, manifest)
    return artifacts + [name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="offerlab",
        description="Offer-response modeling, segmentation, and next-offer profit optimization",
    )
    parser.add_argument("subcommand", choices=STAGES)
    parser.add_argument("--config", required=True, help="path to the pipeline JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="override the output directory")
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
