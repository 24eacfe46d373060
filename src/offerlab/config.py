"""Pipeline configuration: one JSON file drives every subcommand.

A single master seed feeds the simulator and the sampler unless the JSON
sets their seeds explicitly; a --seed flag replaces the master seed and
re-derives the unset ones, so one integer reproduces a whole run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .datasets import KFOLD_BY_OCCASION, ResamplingScheme
from .errors import ConfigurationError
from .hb import DRAW_AVERAGED, PREDICTION_MODES, McmcConfig
from .profit import NopConfig
from .segments import DEFAULT_DISCOUNT_SHIFT
from .simulate import GroundTruthConfig
from .storage import derive_seed, load_dataclass


@dataclass
class PipelineConfig:
    seed: int = 20260809
    out_dir: str = "out"
    ground_truth: GroundTruthConfig = field(default_factory=GroundTruthConfig)
    mcmc: McmcConfig = field(default_factory=McmcConfig)
    nop: NopConfig = field(default_factory=NopConfig)
    ncomp: int = 1
    ncomp_candidates: tuple[int, ...] = (1, 2, 3)
    resampling: ResamplingScheme = field(
        default_factory=lambda: ResamplingScheme(kind=KFOLD_BY_OCCASION, folds=10, repeats=1)
    )
    include_demographic: bool = False
    elasticity_delta: float = DEFAULT_DISCOUNT_SHIFT
    predict_mode: str = DRAW_AVERAGED

    def validate(self) -> "PipelineConfig":
        if self.ncomp < 1:
            raise ConfigurationError("ncomp must be >= 1")
        if not self.ncomp_candidates or min(self.ncomp_candidates) < 1:
            raise ConfigurationError(
                f"ncomp_candidates must be non-empty, each >= 1, got {self.ncomp_candidates}"
            )
        if self.predict_mode not in PREDICTION_MODES:
            raise ConfigurationError(f"predict_mode must be one of {PREDICTION_MODES}")
        if self.elasticity_delta <= 0:
            raise ConfigurationError("elasticity_delta must be > 0")
        self.ground_truth.validate()
        self.nop.validate()
        self.resampling.validate()
        return self

    @classmethod
    def from_dict(
        cls, raw: dict, seed_override: int | None = None, out_override: str | None = None
    ) -> "PipelineConfig":
        config = load_dataclass(cls, raw, "config")
        if seed_override is not None:
            config.seed = int(seed_override)
        if out_override is not None:
            config.out_dir = str(out_override)
        # sub-seeds the JSON leaves out, or all of them under --seed, derive
        # from the master seed
        if seed_override is not None or "seed" not in raw.get("ground_truth", {}):
            config.ground_truth = replace(config.ground_truth, seed=derive_seed(config.seed, 11))
        if seed_override is not None or "seed" not in raw.get("mcmc", {}):
            config.mcmc = replace(config.mcmc, seed=derive_seed(config.seed, 13))
        return config.validate()

    @classmethod
    def from_json(
        cls, path, seed_override: int | None = None, out_override: str | None = None
    ) -> "PipelineConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config file {path} must hold a JSON object")
        return cls.from_dict(raw, seed_override=seed_override, out_override=out_override)
