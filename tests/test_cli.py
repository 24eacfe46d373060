import csv
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from offerlab import cli
from offerlab.cli import (
    BASE_RATE_JSON,
    DISTRIBUTION_CSV,
    POLICY_CSV,
    TUNING_CSV,
    main,
    run_pipeline,
)
from offerlab.config import PipelineConfig
from offerlab.datasets import read_offer_csv
from offerlab.errors import ConfigurationError, DataIntegrityError, OfferLabError
from offerlab.hb import McmcConfig
from offerlab.storage import sha256_file, write_csv_atomic

SMALL_CONFIG = {
    "seed": 424242,
    "ground_truth": {"n_customers": 50},
    "mcmc": {"total_draws": 300, "burn_in": 60},
    "ncomp": 1,
    "ncomp_candidates": [1, 2],
    "resampling": {"kind": "k-fold-by-occasion", "folds": 3, "repeats": 1},
}


def write_config(tmp_path, overrides=None, out_name="run"):
    raw = dict(SMALL_CONFIG)
    raw.update(overrides or {})
    raw["out_dir"] = str(tmp_path / out_name)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def rewrite_rows(path, edit):
    """Apply ``edit`` to the rows (header first) of a CSV and write them back."""
    rows = read_rows(path)
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def copy_run(pipeline, tmp_path):
    """A copy of a finished run plus a config that points at it."""
    out = tmp_path / "copy"
    shutil.copytree(pipeline, out)
    raw = dict(SMALL_CONFIG)
    raw["out_dir"] = str(out)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(raw))
    return out, config_path


PIPELINE_STAGES = ("simulate", "fit", "predict", "evaluate", "segment", "optimize", "report")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small simulate -> fit -> ... -> report run shared by checks."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    config_path = write_config(tmp_path)
    out = tmp_path / "run"
    for subcommand in PIPELINE_STAGES:
        assert main([subcommand, "--config", str(config_path)]) == 0
    return out


def load_perfbench(name):
    """The benchmark's module ``perfbench/<name>.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_gate_passes_on_the_pipeline(pipeline):
    """The benchmark's correctness gate (``perfbench/gate.py``) reads the
    artifacts and calls offerlab's readers and objective by name; a change
    that breaks one of those calls fails here."""
    gate = load_perfbench("gate")
    config = PipelineConfig.from_dict({**SMALL_CONFIG, "out_dir": str(pipeline)})
    results = gate.run_gate(pipeline, config, PIPELINE_STAGES, floors=False)
    assert [name for name, passed, _ in results if not passed] == [], results
    assert len(results) == 5


def test_importing_the_cli_leaves_multiprocessing_unimported():
    # only a call that forks imports multiprocessing, so that every stage's
    # start-up, forking or not, skips it
    import offerlab

    env = {**os.environ, "PYTHONPATH": str(Path(offerlab.__file__).resolve().parents[1])}
    code = "import sys, offerlab.cli; print('multiprocessing' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "False\n"


# the wraps of ``perfbench/spans.py`` that name a function its module no
# longer has; each per-layer metric built on one reads 0
DEAD_WRAPS = {("segments", "predict_probability"), ("evaluate", "fit_hb_panel")}


def test_benchmark_spans_wrap_only_names_that_exist():
    """Every (owner, name) the benchmark's tracer wraps resolves, except the
    known dead wraps, which must still be dead: a rename in offerlab that
    leaves a wrap pointing at nothing fails here, and so does mending them
    in ``perfbench/`` without updating ``DEAD_WRAPS``."""
    tracer = load_perfbench("spans").Tracer()
    wrap, wrapped = tracer.wrap, []

    def record(owner, attr, *args):
        wrapped.append((owner, attr, vars(owner).get(attr)))
        wrap(owner, attr, *args)

    tracer.wrap = record
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert len(wrapped) > len(DEAD_WRAPS)
    missing = {
        (owner.__name__.rpartition(".")[2], attr) for owner, attr, raw in wrapped if raw is None
    }
    assert missing == DEAD_WRAPS
    # uninstall put every original back
    assert all(vars(owner).get(attr) is raw for owner, attr, raw in wrapped)


def test_benchmark_spans_see_every_cli_call(tmp_path):
    """Every name the benchmark's tracer wraps on ``cli`` records a span over
    the whole chain.  A stage that held one of those functions from import
    time, instead of looking it up in ``cli``'s globals when it runs, would
    bypass the tracer's patch, and the per-layer metrics built on it would
    read 0 without any error."""
    from offerlab import cli

    tracer = load_perfbench("spans").Tracer()
    wrap, wrapped = tracer.wrap, set()

    def by_name(owner, attr, name, describe=None):
        # a span name of its own for each name wrapped on cli, which the
        # tracer otherwise shares between, e.g., the four offer/score writers
        if owner is cli:
            wrapped.add(attr)
            name = f"cli:{attr}"
        wrap(owner, attr, name, describe)

    tracer.wrap = by_name
    config = PipelineConfig.from_dict({**SMALL_CONFIG, "out_dir": str(tmp_path / "run")})
    tracer.install()
    try:
        for stage in ("simulate", "tune") + PIPELINE_STAGES[1:]:
            run_pipeline(stage, config)
    finally:
        tracer.uninstall()
    seen = {span.name.removeprefix("cli:") for span in tracer.spans}
    assert wrapped and sorted(wrapped - seen) == []


COMPONENT = {"weight": 1.0, "mean": [1.0, 0.2, -2.0], "cov": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}

# per config section: a misspelt key, a mistyped value and a value out of
# range (and for nop, an integer beyond the float range; for a mixture
# component, a left-out key that has no default), each with the message
# that names it
CONFIG_FAULTS = {
    "top": {
        "unknown-key": ({"sede": 1}, "config has unknown keys ['sede']"),
        "wrong-type": ({"ncomp": "2"}, "config.ncomp must be int, got '2'"),
        "out-of-range": ({"ncomp": 0}, "config: ncomp must be >= 1"),
    },
    "ground_truth": {
        "unknown-key": (
            {"ground_truth": {"n_customer": 50}},
            "config.ground_truth has unknown keys ['n_customer']",
        ),
        "wrong-type": (
            {"ground_truth": {"n_customers": 50.7}},
            "config.ground_truth.n_customers must be int, got 50.7",
        ),
        "out-of-range": (
            {"ground_truth": {"n_customers": 0}},
            "config.ground_truth: n_customers must be >= 1",
        ),
    },
    "mixture": {
        "unknown-key": (
            {"ground_truth": {"mixture": [{**COMPONENT, "wieght": 1.0}]}},
            "config.ground_truth.mixture[0] has unknown keys ['wieght']",
        ),
        "missing-key": (
            {"ground_truth": {"mixture": [{"weight": 1.0, "mean": [0, 0, 0]}]}},
            "config.ground_truth.mixture[0] lacks keys ['cov']",
        ),
        "wrong-type": (
            {"ground_truth": {"mixture": [{**COMPONENT, "mean": [1.0, 0.2]}]}},
            "config.ground_truth.mixture[0].mean must be a list of 3, got [1.0, 0.2]",
        ),
        "out-of-range": (
            {"ground_truth": {"mixture": [
                {**COMPONENT, "weight": 0.5},
                {**COMPONENT, "weight": 0.5, "cov": [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]},
            ]}},
            "config.ground_truth.mixture[1]: cov must be symmetric",
        ),
    },
    "mcmc": {
        "unknown-key": (
            {"mcmc": {"total_draw": 700}}, "config.mcmc has unknown keys ['total_draw']"
        ),
        "wrong-type": (
            {"mcmc": {"total_draws": "700"}}, "config.mcmc.total_draws must be int, got '700'"
        ),
        "out-of-range": (
            {"mcmc": {"total_draws": 100, "burn_in": 200}},
            "config.mcmc: need 0 < burn_in < total_draws",
        ),
        # the floor on iw_dof depends on K, which the offer model fixes at 3
        "iw-dof": (
            {"mcmc": {"iw_dof": 4}}, "config: mcmc.iw_dof = 4 must exceed n_params + 1 = 4"
        ),
    },
    "nop": {
        "unknown-key": (
            {"nop": {"anual_rate": 0.5}}, "config.nop has unknown keys ['anual_rate']"
        ),
        "wrong-type": (
            {"nop": {"annual_rate": True}}, "config.nop.annual_rate must be float, got True"
        ),
        "overflow": (
            {"nop": {"annual_rate": 10**400}},
            "config.nop.annual_rate must be a finite float, got an integer beyond the float range",
        ),
        "out-of-range": ({"nop": {"annual_rate": -0.1}}, "config.nop: annual_rate must be >= 0"),
    },
    "resampling": {
        "unknown-key": ({"resampling": {"fold": 3}}, "config.resampling has unknown keys ['fold']"),
        "wrong-type": (
            {"resampling": {"folds": [3]}}, "config.resampling.folds must be int, got [3]"
        ),
        "out-of-range": ({"resampling": {"repeats": 0}}, "config.resampling: repeats must be >= 1"),
    },
}
CONFIG_FAULT_CASES = [
    pytest.param(overrides, message, id=f"{section}-{kind}")
    for section, faults in CONFIG_FAULTS.items()
    for kind, (overrides, message) in faults.items()
]

class TestConfig:
    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sede": 1}))
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_json(path)

    def test_defaults_validate(self):
        # a config is checked when it is built, and it cannot change after
        config = PipelineConfig()
        with pytest.raises(FrozenInstanceError):
            config.ncomp = 0
        with pytest.raises(ConfigurationError, match="^ncomp must be >= 1$"):
            replace(config, ncomp=0)
        with pytest.raises(ConfigurationError, match=r"^mcmc\.iw_dof = 4 must exceed"):
            replace(config, mcmc=McmcConfig(iw_dof=4))

    def test_seed_override_rederives_subseeds(self, tmp_path):
        path = write_config(tmp_path)
        base = PipelineConfig.from_json(path)
        overridden = PipelineConfig.from_json(path, seed_override=7)
        assert overridden.seed == 7
        assert overridden.ground_truth.seed != base.ground_truth.seed
        assert overridden.mcmc.seed != base.mcmc.seed

    def test_explicit_subseed_honored(self, tmp_path):
        path = write_config(tmp_path, overrides={"ground_truth": {"n_customers": 50, "seed": 99}})
        config = PipelineConfig.from_json(path)
        assert config.ground_truth.seed == 99

    @pytest.mark.parametrize("name", ["iw_scale", "rw_scale"])
    def test_fit_refuses_zero_mcmc_scale_by_name(self, pipeline, tmp_path, capsys, name):
        copy_run(pipeline, tmp_path)
        mcmc = {**SMALL_CONFIG["mcmc"], name: 0.0}
        config_path = write_config(tmp_path, overrides={"mcmc": mcmc}, out_name="copy")
        assert main(["fit", "--config", str(config_path)]) == 1
        assert f"{name} must be > 0, got 0.0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, overrides, message",
        [
            ("tune", {"ncomp_candidates": [0, 1]},
             "ncomp_candidates must be non-empty, each >= 1, got (0, 1)"),
            ("optimize", {"nop": {"r_bounds": {"elastic_loyal": [-0.2, 0.3]}}},
             "r_bounds has unknown segments ['elastic_loyal']; the segments are "
             "['inelastic-not-loyal', 'inelastic-loyal', 'elastic-not-loyal', 'elastic-loyal']"),
        ],
        ids=["ncomp-candidate-0", "r-bounds-unknown-segment"],
    )
    def test_config_a_later_stage_cannot_use_is_refused_up_front(
        self, pipeline, tmp_path, capsys, stage, overrides, message
    ):
        out, _ = copy_run(pipeline, tmp_path)
        (out / "policy.csv").unlink()
        config_path = write_config(tmp_path, overrides=overrides, out_name="copy")
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        assert main([stage, "--config", str(config_path)]) == 1
        assert message in capsys.readouterr().err
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before

    @pytest.mark.parametrize(
        "case, message",
        [("directory", "cannot be read: Is a directory"), ("not-utf8", "is not UTF-8: invalid")],
        ids=["directory", "not-utf8"],
    )
    def test_unreadable_config_is_refused_by_path(self, tmp_path, capsys, case, message):
        path = tmp_path / "config.json"
        if case == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"out_dir": "r\xffn"}')
        assert main(["simulate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"offerlab simulate: config file {path} {message}")

    @pytest.mark.parametrize("overrides, message", CONFIG_FAULT_CASES)
    def test_config_fault_named_by_dotted_path(self, tmp_path, capsys, overrides, message):
        path = write_config(tmp_path, overrides=overrides)
        assert main(["simulate", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestArtifacts:
    def test_simulate_outputs(self, pipeline):
        for name in ("train.csv", "test.csv", "customers.csv", "truth.csv", "summary.txt"):
            assert (pipeline / name).exists()
        rows = read_rows(pipeline / "test.csv")
        assert len(rows) - 1 == 50  # one test offer per customer

    def test_posterior_store(self, pipeline):
        header = json.loads((pipeline / "posterior" / "header.json").read_text())
        assert header["format"] == "hb-posterior-v1"
        assert header["config"]["total_draws"] == 300

    def test_scores_schema(self, pipeline):
        rows = read_rows(pipeline / "scores.csv")
        assert rows[0] == ["customer_id", "occasion", "alternative", "score"]
        assert len(rows) - 1 == 50
        assert all(0.0 <= float(r[3]) <= 1.0 for r in rows[1:])

    def test_metrics_and_lift(self, pipeline):
        metrics = json.loads((pipeline / "metrics.json").read_text())
        assert set(metrics) == {"auc", "accuracy", "base_rate", "n_rows"}
        assert 0.0 <= metrics["auc"] <= 1.0
        lift = read_rows(pipeline / "lift.csv")
        assert lift[0] == ["fraction", "capture"]
        assert float(lift[-1][1]) == 1.0

    def test_segment_outputs(self, pipeline):
        rows = read_rows(pipeline / "segments.csv")
        assert len(rows) - 1 == 50
        shares = read_rows(pipeline / "segment_distribution.csv")
        total = sum(float(r[1]) for r in shares[1:])
        assert total == pytest.approx(100.0, abs=0.1)

    def test_policy_schema(self, pipeline):
        rows = read_rows(pipeline / "policy.csv")
        assert rows[0] == [
            "segment", "r", "M_months", "nop", "n_customers", "degenerate", "at_bound"
        ]
        for row in rows[1:]:
            assert -0.5 <= float(row[1]) <= 0.5
            assert int(row[2]) in (1, 12, 24, 36, 60)

    def test_policy_flags(self, pipeline):
        rows = read_rows(pipeline / "policy.csv")[1:]
        assert rows
        for row in rows:
            assert row[5] in ("0", "1") and row[6] in ("0", "1")
            # default bounds are (-0.5, 0.5) for every segment
            assert row[6] == str(int(float(row[1]) in (-0.5, 0.5)))

    def test_report_marks_policy_flags(self, tmp_path):
        out = tmp_path / "flags"
        out.mkdir()
        (out / "policy.csv").write_text(
            "segment,r,M_months,nop,n_customers,degenerate,at_bound\n"
            "inelastic-not-loyal,0.5,60,0.0,3,1,1\n"
            "inelastic-loyal,0.5,60,10.0,4,0,1\n"
            "elastic-not-loyal,0.125,24,5.0,2,0,0\n"
        )
        run_pipeline("report", PipelineConfig.from_dict({}, out_override=str(out)))
        text = (out / "report.txt").read_text()
        assert "r = +50.0%  m = 60 months !^" in text
        assert "r = +50.0%  m = 60 months ^" in text
        assert "r = +12.5%  m = 24 months   " in text
        assert "(no customers)" in text
        assert "^ r at a bound" in text and "! degenerate" in text

    def test_report_refuses_policy_without_flag_columns(self, tmp_path):
        out = tmp_path / "old"
        out.mkdir()
        (out / "policy.csv").write_text("segment,r,M_months,nop,n_customers\ninelastic-loyal,0.5,60,1.0,4\n")
        with pytest.raises(DataIntegrityError, match="policy.csv has columns"):
            run_pipeline("report", PipelineConfig.from_dict({}, out_override=str(out)))

    def test_report_contains_tables(self, pipeline):
        text = (pipeline / "report.txt").read_text()
        assert "Customer segments" in text
        assert "Optimal discount rate" in text
        assert "Not Loyal" in text and "Loyal" in text

    def test_manifests_written(self, pipeline):
        manifest = json.loads((pipeline / "manifest-simulate.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["seed"] == 424242
        assert "train.csv" in manifest["artifacts"]
        assert manifest["config"]["mcmc"]["total_draws"] == 300

    def test_artifacts_regenerable_from_manifest_alone(self, pipeline, tmp_path):
        manifest = json.loads((pipeline / "manifest-simulate.json").read_text())
        config = PipelineConfig.from_dict(
            manifest["config"], out_override=str(tmp_path / "regen")
        )
        run_pipeline(manifest["subcommand"], config)
        regenerated = (tmp_path / "regen" / "train.csv").read_bytes()
        assert regenerated == (pipeline / "train.csv").read_bytes()

    def test_fit_records_the_training_base_rate(self, pipeline):
        """``fit`` records the mean training label and the hash of the
        train.csv it read, outside posterior/, and its manifest lists the
        record; ``evaluate`` reports that rate."""
        record = json.loads((pipeline / BASE_RATE_JSON).read_text())
        labels = read_offer_csv(pipeline / "train.csv").labels()
        train_sha256 = sha256_file(pipeline / "train.csv")
        assert record == {"base_rate": float(np.mean(labels)), "train_sha256": train_sha256}
        manifest = json.loads((pipeline / "manifest-fit.json").read_text())
        assert manifest["artifacts"][BASE_RATE_JSON] == sha256_file(pipeline / BASE_RATE_JSON)
        assert not (pipeline / "posterior" / BASE_RATE_JSON).exists()
        metrics = json.loads((pipeline / "metrics.json").read_text())
        assert metrics["base_rate"] == record["base_rate"]

    def test_evaluate_compare_runs_delong(self, pipeline, tmp_path):
        out, config_path = copy_run(pipeline, tmp_path)
        # a benchmark score file: the model's own scores, perturbed
        rows = read_rows(out / "scores.csv")
        bench = tmp_path / "benchmark.csv"
        with open(bench, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0])
            for cid, occ, alt, score in rows[1:]:
                writer.writerow([cid, occ, alt, min(float(score) + 0.05, 1.0)])
        assert main(["evaluate", "--config", str(config_path), "--compare", str(bench)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert "delong" in metrics
        assert 0.0 < metrics["delong"]["p_value"] <= 1.0


class TestDependencies:
    def test_fit_before_simulate_fails_with_named_file(self, tmp_path, capsys):
        config_path = write_config(tmp_path, out_name="empty")
        code = main(["fit", "--config", str(config_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "train.csv" in err

    def test_optimize_before_segment(self, tmp_path, capsys):
        config_path = write_config(tmp_path, out_name="half")
        assert main(["simulate", "--config", str(config_path)]) == 0
        assert main(["fit", "--config", str(config_path)]) == 0
        assert main(["optimize", "--config", str(config_path)]) == 2
        assert "segments.csv" in capsys.readouterr().err

    def test_report_needs_some_artifact(self, tmp_path, capsys):
        config_path = write_config(tmp_path, out_name="bare")
        assert main(["report", "--config", str(config_path)]) == 2

    def test_unknown_subcommand_creates_nothing(self, tmp_path):
        config = PipelineConfig.from_dict({}, out_override=str(tmp_path / "run"))
        with pytest.raises(OfferLabError, match="unknown subcommand 'bogus'"):
            run_pipeline("bogus", config)
        assert not (tmp_path / "run").exists()


# the offer files, a stage that reads each, and what that stage writes
OFFER_INPUTS = [
    ("train.csv", "fit", "posterior/header.json"),
    ("test.csv", "predict", "scores.csv"),
]

# every CSV a stage reads: (file, a stage that reads it, two columns to
# swap, a column to spoil)
STAGE_INPUTS = [
    ("train.csv", "fit", (3, 4), 3),
    ("test.csv", "predict", (3, 4), 4),
    ("customers.csv", "segment", (1, 2), 1),
    ("scores.csv", "evaluate", (2, 3), 3),
    ("segments.csv", "optimize", (1, 2), 1),
    ("segment_distribution.csv", "report", (0, 1), 1),
    ("tuning.csv", "report", (1, 2), 1),
    ("policy.csv", "report", (1, 3), 1),
]


# a report input whose key column repeats a value, which the report
# would otherwise print twice or silently keep once: (file, schema,
# columns, the repeated key)
REPEATED_REPORT_KEYS = [
    ("segment_distribution.csv", DISTRIBUTION_CSV,
     [("inelastic-loyal", "inelastic-loyal"), (20.0, 20.0)], "segment = inelastic-loyal"),
    ("tuning.csv", TUNING_CSV, [(1, 2, 1), (0.8, 0.75, 0.7), (0.7, 0.7, 0.7), (1, 0, 0)],
     "ncomp = 1"),
    ("policy.csv", POLICY_CSV,
     [("elastic-loyal",) * 2, (0.1, 0.2), (12, 24), (1.0, 2.0), (3, 4), (0, 0), (0, 0)],
     "segment = elastic-loyal"),
]


class TestStageInputs:
    @pytest.mark.parametrize(
        "name, schema, columns, key", REPEATED_REPORT_KEYS,
        ids=[case[0] for case in REPEATED_REPORT_KEYS],
    )
    def test_report_refuses_a_repeated_key(self, tmp_path, capsys, name, schema, columns, key):
        config_path = write_config(tmp_path, out_name="repeated")
        out = tmp_path / "repeated"
        out.mkdir()
        write_csv_atomic(out / name, schema, columns)
        assert main(["report", "--config", str(config_path)]) == 1
        assert f"{out / name} repeats {key}" in capsys.readouterr().err
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("fault", ["swapped-columns", "malformed-cell", "not-utf8"])
    @pytest.mark.parametrize(
        "name, stage, swap, spoil", STAGE_INPUTS, ids=[case[0] for case in STAGE_INPUTS]
    )
    def test_stage_refuses_faulty_input(
        self, pipeline, tmp_path, capsys, name, stage, swap, spoil, fault
    ):
        out, config_path = copy_run(pipeline, tmp_path)
        if name == "tuning.csv":
            write_csv_atomic(out / name, TUNING_CSV, [(1, 2), (0.8, 0.75), (0.7, 0.7), (1, 0)])

        def edit(rows):
            if fault == "swapped-columns":
                i, j = swap
                for row in rows:
                    row[i], row[j] = row[j], row[i]
            else:
                rows[1][spoil] = "oops"

        if fault == "not-utf8":  # a byte that is not UTF-8 on the last line
            (out / name).write_bytes((out / name).read_bytes()[:-1] + b"\xff\n")
        else:
            rewrite_rows(out / name, edit)
        assert main([stage, "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert name in err
        if fault == "swapped-columns":
            assert "has columns" in err and "expected" in err
        elif fault == "not-utf8":
            assert err == f"offerlab {stage}: {out / name} is not UTF-8: invalid start byte\n"
        else:
            assert "line 2: " in err

    @pytest.mark.parametrize(
        "column, cell",
        [("offer_discount", "0.9"), ("contract_length_years", "9.0"),
         ("contract_length_years", "2.5"), ("X1", "2.0")],
    )
    @pytest.mark.parametrize("name, stage, output", OFFER_INPUTS, ids=[c[0] for c in OFFER_INPUTS])
    def test_stage_refuses_offer_outside_the_model_domain(
        self, pipeline, tmp_path, capsys, name, stage, output, column, cell
    ):
        out, config_path = copy_run(pipeline, tmp_path)
        (out / output).unlink()
        rows = read_rows(out / name)
        j = rows[0].index(column)

        def spoil(rows):
            rows[2][j] = cell

        rewrite_rows(out / name, spoil)
        assert main([stage, "--config", str(config_path)]) == 1
        cid, occ = rows[2][:2]
        assert (
            f"{name}: {column} = {float(cell)!r} at (customer_id, occasion) = ({cid}, {occ})"
            in capsys.readouterr().err
        )
        assert not (out / output).exists()

    def test_optimize_refuses_swapped_elasticity_and_loyalty(self, pipeline, tmp_path, capsys):
        out, config_path = copy_run(pipeline, tmp_path)
        (out / "policy.csv").unlink()

        def swap(rows):
            for row in rows:
                row[1], row[2] = row[2], row[1]

        rewrite_rows(out / "segments.csv", swap)
        assert main(["optimize", "--config", str(config_path)]) == 1
        assert "segments.csv has columns ['customer_id', 'loyalty', 'elasticity'" in (
            capsys.readouterr().err
        )
        assert not (out / "policy.csv").exists()

    def test_optimize_refuses_unknown_segment(self, pipeline, tmp_path, capsys):
        out, config_path = copy_run(pipeline, tmp_path)

        def rename(rows):
            rows[3][3] = "loyal-ish"

        rewrite_rows(out / "segments.csv", rename)
        assert main(["optimize", "--config", str(config_path)]) == 1
        assert "segments.csv: line 4: unknown segment 'loyal-ish'" in capsys.readouterr().err

    def test_evaluate_refuses_repeated_score_rows(self, pipeline, tmp_path, capsys):
        out, config_path = copy_run(pipeline, tmp_path)
        rewrite_rows(out / "scores.csv", lambda rows: rows.append(rows[1][:3] + ["0.5"]))
        assert main(["evaluate", "--config", str(config_path)]) == 1
        cid, occ = read_rows(out / "scores.csv")[1][:2]
        assert f"scores.csv repeats (customer_id, occasion) = ({cid}, {occ})" in (
            capsys.readouterr().err
        )

    def test_evaluate_refuses_repeated_compare_rows(self, pipeline, tmp_path, capsys):
        out, config_path = copy_run(pipeline, tmp_path)
        bench = tmp_path / "benchmark.csv"
        shutil.copy(out / "scores.csv", bench)
        rewrite_rows(bench, lambda rows: rows.insert(2, rows[1]))
        code = main(["evaluate", "--config", str(config_path), "--compare", str(bench)])
        assert code == 1
        assert "benchmark.csv repeats (customer_id, occasion)" in capsys.readouterr().err

    def test_evaluate_names_a_missing_score_row(self, pipeline, tmp_path, capsys):
        out, config_path = copy_run(pipeline, tmp_path)
        rewrite_rows(out / "scores.csv", lambda rows: rows.pop(1))
        assert main(["evaluate", "--config", str(config_path)]) == 2
        assert "scores.csv has no score for row" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["fit", "segment", "optimize"])
    def test_stage_refuses_repeated_customer_ids(self, pipeline, tmp_path, capsys, stage):
        out, config_path = copy_run(pipeline, tmp_path)

        def repeat_first(rows):
            # the repeated customer comes back with another loyalty
            rows.append(rows[1][:1] + ["0.99"] + rows[1][2:])

        rewrite_rows(out / "customers.csv", repeat_first)
        assert main([stage, "--config", str(config_path)]) == 1
        cid = read_rows(out / "customers.csv")[1][0]
        assert f"customers.csv repeats id = {cid}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [{"predict_mode": "population-mean"}, {"nop": {"r_bounds": {"elastic-loyal": [-0.2, 0.3]}}}],
        ids=["population-mean", "partial-r-bounds"],
    )
    def test_every_stage_serves_a_config_that_loads(self, tmp_path, overrides):
        # every prediction mode, and r_bounds that leave segments out
        config_path = write_config(tmp_path, overrides)
        for subcommand in PIPELINE_STAGES:
            assert main([subcommand, "--config", str(config_path)]) == 0, subcommand
        policies = read_rows(tmp_path / "run" / "policy.csv")
        assert len(policies) > 1
        if "nop" in overrides:
            for segment, r, *_ in policies[1:]:
                lo, hi = (-0.2, 0.3) if segment == "elastic-loyal" else (-0.5, 0.5)
                assert lo <= float(r) <= hi

    @pytest.mark.parametrize("cell", ["nan", "inf", "0.0", "-5.0"])
    def test_optimize_refuses_an_mrp_that_is_not_finite_and_positive(
        self, pipeline, tmp_path, capsys, cell
    ):
        out, config_path = copy_run(pipeline, tmp_path)
        (out / "policy.csv").unlink()

        def spoil(rows):
            rows[2][4] = cell

        rewrite_rows(out / "customers.csv", spoil)
        assert main(["optimize", "--config", str(config_path)]) == 1
        cid = read_rows(out / "customers.csv")[2][0]
        expected = f"customers.csv: mrp = {float(cell)!r} at id = {cid} must be finite and > 0"
        assert expected in capsys.readouterr().err
        assert not (out / "policy.csv").exists()

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            (2, "nan", "loyalty must lie in [0, 1], got nan"),
            (2, "40.0", "loyalty must lie in [0, 1], got 40.0"),
            (1, "nan", "elasticity must be finite, got nan"),
            (1, "inf", "elasticity must be finite, got inf"),
            (2, "flip", "is assigned to"),
        ],
    )
    def test_optimize_refuses_a_segment_row_the_rule_does_not_give(
        self, pipeline, tmp_path, capsys, column, cell, message
    ):
        out, config_path = copy_run(pipeline, tmp_path)
        (out / "policy.csv").unlink()

        def spoil(rows):
            # "flip" moves the loyalty across 0.5 and keeps the segment
            flipped = "0.1" if float(rows[2][2]) > 0.5 else "0.9"
            rows[2][column] = flipped if cell == "flip" else cell

        rewrite_rows(out / "segments.csv", spoil)
        assert main(["optimize", "--config", str(config_path)]) == 1
        cid = read_rows(out / "segments.csv")[2][0]
        err = capsys.readouterr().err
        assert f"customer {cid}" in err and message in err
        assert not (out / "policy.csv").exists()

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("nan-in-betas", "posterior array betas holds nan at index (0, 0, 1)"),
            ("truncated-weights", "weights.npy is not a readable float array"),
            ("header-not-utf8", "header.json is not UTF-8: invalid start byte"),
        ],
    )
    @pytest.mark.parametrize(
        "stage, output",
        [("predict", "scores.csv"), ("segment", "segments.csv"), ("optimize", "policy.csv")],
    )
    def test_stage_refuses_a_damaged_posterior(
        self, pipeline, tmp_path, capsys, stage, output, damage, message
    ):
        out, config_path = copy_run(pipeline, tmp_path)
        (out / output).unlink()
        if damage == "nan-in-betas":
            betas = np.load(out / "posterior" / "betas.npy")
            betas[0, 0, 1] = np.nan
            np.save(out / "posterior" / "betas.npy", betas)
        elif damage == "header-not-utf8":
            header = out / "posterior" / "header.json"
            header.write_bytes(header.read_bytes()[:-1] + b"\xff\n")
        else:
            weights = out / "posterior" / "weights.npy"
            weights.write_bytes(weights.read_bytes()[:-8])
        assert main([stage, "--config", str(config_path)]) == 1
        assert message in capsys.readouterr().err
        assert not (out / output).exists()

    def test_fit_refuses_repeated_offer_rows(self, pipeline, tmp_path, capsys):
        out, config_path = copy_run(pipeline, tmp_path)
        rewrite_rows(out / "train.csv", lambda rows: rows.append(rows[1]))
        assert main(["fit", "--config", str(config_path)]) == 1
        assert "train.csv repeats (customer_id, occasion)" in capsys.readouterr().err


# base_rate.json as evaluate must refuse it: (case, file text or None for
# no file, exit code, message after the file's path)
BASE_RATE_FAULTS = [
    ("missing", None, 2, ""),
    ("not-json", "{", 1, " is not valid JSON"),
    ("not-an-object", "[0.25]", 1, " must be an object, got [0.25]"),
    ("no-hash", '{"base_rate": 0.25}', 1, " lacks keys ['train_sha256']"),
    ("text-rate", '{"base_rate": "0.25", "train_sha256": "0"}', 1, ".base_rate must be float"),
    ("nan-rate", '{"base_rate": NaN, "train_sha256": "0"}', 1, ".base_rate must be a finite"),
    ("extra-key", '{"base_rate": 0.25, "train_sha256": "0", "n": 1}', 1, " has unknown keys"),
]


class TestBaseRateRecord:
    @pytest.mark.parametrize(
        "case, text, code, message", BASE_RATE_FAULTS, ids=[c[0] for c in BASE_RATE_FAULTS]
    )
    def test_evaluate_refuses_a_missing_or_malformed_record(
        self, pipeline, tmp_path, capsys, case, text, code, message
    ):
        out, config_path = copy_run(pipeline, tmp_path)
        (out / "metrics.json").unlink()
        record = out / BASE_RATE_JSON
        record.unlink() if text is None else record.write_text(text)
        assert main(["evaluate", "--config", str(config_path)]) == code
        assert f"{record}{message}" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()

    def test_evaluate_refuses_a_train_csv_changed_since_fit(self, pipeline, tmp_path, capsys):
        out, config_path = copy_run(pipeline, tmp_path)
        (out / "metrics.json").unlink()
        rewrite_rows(out / "train.csv", lambda rows: rows.pop())
        assert main(["evaluate", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert f"{out / 'train.csv'} has changed since fit recorded its base rate" in err
        assert not (out / "metrics.json").exists()

    def test_evaluate_refuses_a_train_csv_rewritten_during_fit(
        self, pipeline, tmp_path, capsys, monkeypatch
    ):
        """fit records the hash of the train.csv it read, so a file
        rewritten while the sampler runs does not pass under that rate."""
        out, config_path = copy_run(pipeline, tmp_path)
        fit = cli.fit_hb_mixed_logit

        def fit_while_rewriting(*args, **kwargs):
            rewrite_rows(out / "train.csv", lambda rows: rows.pop())
            return fit(*args, **kwargs)

        monkeypatch.setattr(cli, "fit_hb_mixed_logit", fit_while_rewriting)
        assert main(["fit", "--config", str(config_path)]) == 0
        assert main(["evaluate", "--config", str(config_path)]) == 1
        assert "has changed since fit recorded its base rate" in capsys.readouterr().err


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        config_path = write_config(tmp_path, out_name="det")
        out = tmp_path / "det"
        subcommands = ("simulate", "fit", "predict", "evaluate", "segment", "optimize", "report")
        for subcommand in subcommands:
            assert main([subcommand, "--config", str(config_path)]) == 0
        first = {
            p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }
        for subcommand in subcommands:
            assert main([subcommand, "--config", str(config_path)]) == 0
        second = {
            p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }
        assert first == second

    def test_different_seed_changes_artifacts(self, tmp_path):
        config_path = write_config(tmp_path, out_name="s1")
        assert main(["simulate", "--config", str(config_path)]) == 0
        train1 = (tmp_path / "s1" / "train.csv").read_bytes()
        assert main(["simulate", "--config", str(config_path), "--seed", "5", "--out", str(tmp_path / "s2")]) == 0
        train2 = (tmp_path / "s2" / "train.csv").read_bytes()
        assert train1 != train2


class TestTuneAndIngest:
    def test_tune_writes_report(self, tmp_path):
        config_path = write_config(
            tmp_path,
            overrides={
                "ground_truth": {"n_customers": 25},
                "mcmc": {"total_draws": 120, "burn_in": 30},
                "ncomp_candidates": [1, 2],
                "resampling": {"kind": "k-fold-by-occasion", "folds": 2, "repeats": 1},
            },
            out_name="tune",
        )
        assert main(["simulate", "--config", str(config_path)]) == 0
        assert main(["tune", "--config", str(config_path)]) == 0
        rows = read_rows(tmp_path / "tune" / "tuning.csv")
        assert rows[0] == ["ncomp", "mean_auc", "mean_accuracy", "selected"]
        assert len(rows) == 3
        assert sum(int(r[3]) for r in rows[1:]) == 1

    def test_ingest_retail_is_refused(self, tmp_path, capsys):
        """Retail ingestion has no subcommand; it runs in-process through
        ``datasets.ingest_retail_csv``."""
        config_path = write_config(tmp_path, out_name="retail_out")
        with pytest.raises(SystemExit) as info:
            main(["ingest-retail", "--config", str(config_path)])
        assert info.value.code == 2
        assert "invalid choice: 'ingest-retail'" in capsys.readouterr().err
        config = PipelineConfig.from_json(config_path)
        with pytest.raises(OfferLabError, match="unknown subcommand 'ingest-retail'"):
            run_pipeline("ingest-retail", config)
        assert not (tmp_path / "retail_out").exists()
