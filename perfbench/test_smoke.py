"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json
is emitted for every workload, that the gate refuses a NaN score, and that
the benchmark exits non-zero without a result where the sources are missing.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

from gate import check_scores, run_gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(workload):
    config = json.loads(json.dumps(workload.config))
    config["ground_truth"]["n_customers"] = 60
    config["mcmc"] = {"total_draws": 60, "burn_in": 20, "keep": 1}
    if "resampling" in config:
        config["resampling"] = {"kind": "k-fold-by-occasion", "folds": 2, "repeats": 1}
        config["ncomp_candidates"] = [1, 2]
    # the tiny fit cannot reach criterion 1's floors
    return replace(workload, config=config, auc_floors=False)


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(name, trace):
    result = run.run_workload(tiny(WORKLOADS[name]), seed=3, seconds=0.0, trace=trace)["result"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0, m["name"]
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 1


def test_gate_fails_on_a_nan_score(tmp_path):
    from offerlab.cli import run_pipeline

    workload = tiny(WORKLOADS["desk"])
    config = workload.pipeline_config(3, str(tmp_path))
    cut = workload.stages.index("predict") + 1
    for stage in workload.stages[:cut]:
        run_pipeline(stage, config)
    scores = tmp_path / "scores.csv"
    lines = scores.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:-1] + ["nan"])
    scores.write_text("\n".join(lines) + "\n")
    # evaluate accepts the NaN and reports a finite AUC; only the gate objects
    for stage in workload.stages[cut:]:
        run_pipeline(stage, config)

    name, passed, detail = check_scores(tmp_path)
    assert not passed and detail.startswith("1 of")
    failed = [name for name, ok, _ in run_gate(tmp_path, config, workload.stages, floors=False) if not ok]
    assert failed == ["scores_finite"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
