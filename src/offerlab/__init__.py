"""offerlab: fabricate offer-response data, fit a hierarchical Bayes mixed
logit with customer-level coefficients, evaluate predictive accuracy,
segment customers by discount elasticity and loyalty, and optimize
next-offer profit per segment."""

__version__ = "0.1.0"

from .choice import Customers, Offers
from .evaluate import ScoredLabels, accuracy_at_base_rate, auc, delong_test, lift_curve, tune_ncomp
from .hb import McmcConfig, PosteriorDraws, fit_hb_mixed_logit, predict_panel_probabilities
from .profit import NopConfig, OfferPolicy, optimize_policy, segment_objective
from .segments import arc_elasticity, assign_segment, segment_distribution
from .simulate import (
    GroundTruthConfig,
    SimulatedDataset,
    generate_offers,
    simulate_dataset,
    simulate_responses,
    summarize_dataset,
)

__all__ = [name for name in dir() if not name.startswith("_")]
