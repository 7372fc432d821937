"""Explanation stack: ablation, Shapley attributions, accumulated local
effects, and MCMC posterior risk."""

from .ablation import AblationReport, ablation
from .ale import AleCurve, ale
from .dream import (DreamConfig, DreamResult, dream_sample, metropolis_accept,
                    split_rhat)
from .posterior import (REFERENCE_INPUTS_POSTERIOR, PosteriorDraws,
                        PosteriorRisk, posterior_draws, posterior_risk_inputs)
from .shapley import ShapMatrix, shap_exhaustive, shap_tree

__all__ = [
    "AblationReport", "ablation",
    "AleCurve", "ale",
    "DreamConfig", "DreamResult", "dream_sample", "metropolis_accept",
    "split_rhat",
    "PosteriorDraws", "posterior_draws", "PosteriorRisk",
    "posterior_risk_inputs",
    "REFERENCE_INPUTS_POSTERIOR",
    "ShapMatrix", "shap_exhaustive", "shap_tree",
]
