"""Pipeline configuration: one JSON file drives every subcommand.

A single master seed feeds the simulator and the sampler unless the JSON
sets their seeds explicitly; a --seed flag replaces the master seed and
re-derives the unset ones, so one integer reproduces a whole run.

Every section checks its ranges when it is built or replaced, and loading
names a refused value by its section's path: ``config.nop: annual_rate must be >= 0``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .choice import DESIGN_NAMES
from .datasets import ResamplingScheme
from .errors import ConfigurationError
from .hb import DRAW_AVERAGED, PREDICTION_MODES, McmcConfig
from .profit import NopConfig
from .segments import DEFAULT_DISCOUNT_SHIFT
from .simulate import GroundTruthConfig
from .storage import check_finite_fields, derive_seed, load_dataclass


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 20260809
    out_dir: str = "out"
    ground_truth: GroundTruthConfig = field(default_factory=GroundTruthConfig)
    mcmc: McmcConfig = field(default_factory=McmcConfig)
    nop: NopConfig = field(default_factory=NopConfig)
    ncomp: int = 1
    ncomp_candidates: tuple[int, ...] = (1, 2, 3)
    resampling: ResamplingScheme = field(default_factory=ResamplingScheme)
    include_demographic: bool = False
    elasticity_delta: float = DEFAULT_DISCOUNT_SHIFT
    predict_mode: str = DRAW_AVERAGED

    def __post_init__(self):
        check_finite_fields(self)
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
        try:  # every fit of the pipeline is of the offer model
            self.mcmc.resolved_iw_dof(len(DESIGN_NAMES))
        except ConfigurationError as exc:
            raise ConfigurationError(f"mcmc.{exc}") from None

    @classmethod
    def from_dict(
        cls, raw: dict, seed_override: int | None = None, out_override: str | None = None
    ) -> "PipelineConfig":
        config = load_dataclass(cls, raw, "config")
        seed = config.seed if seed_override is None else int(seed_override)
        out_dir = config.out_dir if out_override is None else str(out_override)
        changes = {"seed": seed, "out_dir": out_dir}
        # sub-seeds the JSON leaves out, or all of them under --seed, derive
        # from the master seed
        if seed_override is not None or "seed" not in raw.get("ground_truth", {}):
            changes["ground_truth"] = replace(config.ground_truth, seed=derive_seed(seed, 11))
        if seed_override is not None or "seed" not in raw.get("mcmc", {}):
            changes["mcmc"] = replace(config.mcmc, seed=derive_seed(seed, 13))
        return replace(config, **changes)

    @classmethod
    def from_json(
        cls, path, seed_override: int | None = None, out_override: str | None = None
    ) -> "PipelineConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {path}")
        except OSError as exc:  # a directory, say, or no permission to read
            raise ConfigurationError(f"config file {path} cannot be read: {exc.strerror}")
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not UTF-8: {exc.reason}")
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
        return cls.from_dict(raw, seed_override=seed_override, out_override=out_override)
