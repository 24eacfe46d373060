"""Correctness gate over the artifacts one repeat of a workload leaves.

Each check reads the files the CLI stages wrote and returns
``(name, passed, detail)``.  The checks do not trust the program's own
validation: scores are tested for finiteness before the AUC computed from
them is believed, posterior arrays are compared with the shapes their
header records, and each policy is compared with the bound corners of its
own objective.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# criterion 1 floors of the acceptance gate
AUC_FLOOR = 0.75
ACCURACY_FLOOR = 0.70


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_scores(out: Path):
    scores = np.array([float(r["score"]) for r in _rows(out / "scores.csv")])
    bad = int(np.sum(~np.isfinite(scores)))
    return "scores_finite", bad == 0 and scores.size > 0, f"{bad} of {scores.size} scores not finite"


def check_metrics(out: Path, floors: bool):
    metrics = json.loads((out / "metrics.json").read_text())
    auc, accuracy = metrics["auc"], metrics["accuracy"]
    passed = math.isfinite(auc) and math.isfinite(accuracy)
    if floors:
        passed = passed and auc >= AUC_FLOOR and accuracy >= ACCURACY_FLOOR
    return "test_auc_accuracy", passed, f"auc={auc!r} accuracy={accuracy!r} floors={floors}"


def check_segment_shares(out: Path):
    total = sum(float(r["percent"]) for r in _rows(out / "segment_distribution.csv"))
    return "segment_shares", abs(total - 100.0) <= 1e-9, f"shares sum to {total!r}"


def check_posterior_shapes(out: Path):
    posterior = out / "posterior"
    header = json.loads((posterior / "header.json").read_text())
    problems = []
    for name, shape in header["shapes"].items():
        actual = list(np.load(posterior / f"{name}.npy", mmap_mode="r").shape)
        if actual != shape:
            problems.append(f"{name} {actual} != header {shape}")
    n_customers = len(header["customer_ids"])
    for name, axis in (("betas", 1), ("acceptance_rates", 0)):
        if header["shapes"][name][axis] != n_customers:
            problems.append(f"{name} axis {axis} != {n_customers} customer ids")
    return "posterior_shapes", not problems, "; ".join(problems) or "shapes match header"


def check_policies(out: Path, config):
    """Each policy lies within its segment's bounds and contract options, and
    no bound corner (lo|hi, months) of its objective beats its nop."""
    from offerlab.datasets import read_customers_csv
    from offerlab.hb import PosteriorDraws
    from offerlab.profit import segment_data_from_assignments, segment_objective
    from offerlab.segments import SegmentAssignment

    draws = PosteriorDraws.load(out / "posterior")
    assignments = [
        SegmentAssignment(int(r["customer_id"]), float(r["elasticity"]), float(r["loyalty"]),
                          r["segment"])
        for r in _rows(out / "segments.csv")
    ]
    _, mrp = read_customers_csv(out / "customers.csv")
    segments = segment_data_from_assignments(assignments, config.nop, mrp)
    policies = _rows(out / "policy.csv")
    problems = []
    if not policies:
        problems.append("policy.csv holds no policy")
    for row in policies:
        segment, r, months, value = row["segment"], float(row["r"]), int(row["M_months"]), float(row["nop"])
        lo, hi = config.nop.bounds_for(segment)
        if not (lo <= r <= hi and months in config.nop.contract_options and math.isfinite(value)):
            problems.append(f"{segment}: r={r} months={months} nop={value} outside the bounds")
            continue
        for corner_r in (lo, hi):
            for corner_m in config.nop.contract_options:
                corner = segment_objective(
                    corner_r, corner_m, segments[segment], draws, config.nop, mode=config.predict_mode
                )
                if corner > value + 1e-9 * max(1.0, abs(value)):
                    problems.append(f"{segment}: corner ({corner_r}, {corner_m}) {corner} > nop {value}")
    return "policies", not problems, "; ".join(problems) or f"{len(policies)} policies"


def check_tuning(out: Path, config):
    rows = _rows(out / "tuning.csv")
    selected = [r for r in rows if r["selected"] == "1"]
    listed = {int(r["ncomp"]) for r in rows}
    passed = (
        len(selected) == 1
        and int(selected[0]["ncomp"]) in set(config.ncomp_candidates)
        and listed == set(config.ncomp_candidates)
        and all(math.isfinite(float(r["mean_auc"])) for r in rows)
    )
    return "tuning", passed, f"selected {[r['ncomp'] for r in selected]} of {sorted(listed)}"


def read_outputs(out: Path) -> dict:
    """End-to-end result metrics read from the artifacts of one repeat."""
    metrics = json.loads((out / "metrics.json").read_text())
    return {
        "posterior_mb": sum(p.stat().st_size for p in (out / "posterior").iterdir()) / 1e6,
        "test_auc": metrics["auc"],
        "test_accuracy": metrics["accuracy"],
    }


def run_gate(out: Path, config, stages, floors: bool):
    checks = [
        ("scores_finite", lambda: check_scores(out)),
        ("test_auc_accuracy", lambda: check_metrics(out, floors)),
        ("segment_shares", lambda: check_segment_shares(out)),
        ("posterior_shapes", lambda: check_posterior_shapes(out)),
        ("policies", lambda: check_policies(out, config)),
    ]
    if "tune" in stages:
        checks.append(("tuning", lambda: check_tuning(out, config)))
    results = []
    for name, check in checks:
        # a missing or malformed artifact fails its check; the gate goes on
        try:
            results.append(check())
        except Exception as exc:  # noqa: BLE001
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
