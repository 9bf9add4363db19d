"""Prediction error estimation for models trained on complex survey samples."""

from .design import MeatStructure, SurveyDesign, meat_independent, meat_stratified_cluster
from .families import Family, FamilyKind, Loss, LossKind, lambda_hat, loss_q, mean_to_natural, natural_to_mean, variance
from .fit import GlmFit, SandwichVariance, fit_weighted_glm, information_J, sandwich_variance
from .penalty import PenaltyReport, aic_naive, estimate_dispersion, hte_analytic, hte_bootstrap, in_sample_error
from .rules import knn_error_report, knn_predict, knn_train
from .simulate import CaseControlSpec, ScenarioSpec, draw_sample, generate_population, run_optimism_experiment, run_relative_error_experiment

__version__ = "0.1.0"
