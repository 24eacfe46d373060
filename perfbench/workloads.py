"""The benchmark's workloads: a pipeline config and the stages it runs.

Every workload is one closed loop: a single caller runs the stages in
sequence through ``offerlab.cli.run_pipeline`` and waits for each.  Chain
lengths are shorter than the package defaults so that at least three
repeats of the slowest chain fit in one measured run; the customer counts
and the split of work between layers follow the workload's reason.
"""

from __future__ import annotations

from dataclasses import dataclass

CHAIN = ("simulate", "fit", "predict", "evaluate", "segment", "optimize", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # pipeline config JSON; the run's seed is applied on top
    stages: tuple  # the measured chain
    setup_stages: tuple = ()  # stages run as part of set-up
    auc_floors: bool = True  # apply criterion 1's AUC and accuracy floors

    def pipeline_config(self, seed: int, out_dir: str):
        from offerlab.config import PipelineConfig

        return PipelineConfig.from_dict(self.config, seed_override=seed, out_override=out_dir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            config={
                "ground_truth": {"n_customers": 1000},
                "mcmc": {"total_draws": 700, "burn_in": 100, "keep": 1},
            },
            stages=CHAIN,
        ),
        Workload(
            name="wide",
            config={
                "ground_truth": {"n_customers": 5000},
                "mcmc": {"total_draws": 700, "burn_in": 100, "keep": 30},
            },
            stages=CHAIN,
        ),
        Workload(
            name="tune",
            config={
                "ground_truth": {"n_customers": 200},
                "mcmc": {"total_draws": 250, "burn_in": 50, "keep": 1},
                "ncomp_candidates": [1, 2, 3],
                "resampling": {"kind": "k-fold-by-occasion", "folds": 5, "repeats": 2},
            },
            stages=("tune",) + CHAIN[1:],
            setup_stages=("simulate",),
            # 200 test rows put the criterion 1 floors within sampling noise
            auc_floors=False,
        ),
    )
}
