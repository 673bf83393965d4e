"""Adaptive significance-level control for online set prediction.

The package pairs set-valued predictors (full conformal, split
conformal, and their cheaper non-conformal counterparts) with an online
controller that retunes the significance level after every outcome, so
the realised error rate tracks a target on arbitrary data streams - no
exchangeability needed.  A harness reproduces the standard online and
train/test experiments with deterministic, seedable outputs.
"""

__version__ = "0.1.0"

from .aci import (AciState, GuaranteeReport, aci_init, aci_update,
                  check_guarantee, confinement_interval, deviation_bound,
                  gamma_for_bound)
from .core import (CLASSIFICATION, REGRESSION, CoinFlipPredictor,
                   ExampleBuffer, PredictionSet, RandomSetPredictor,
                   SetPredictor, boundary_set, coin_flip_predict, derive_rng,
                   random_set_predict)
from .cp_online import (CachedKnnConformalClassifier, CrrPredictor,
                        KnnConformalClassifier, crr_predict, knn_cp_predict)
from .inductive import (KnnClassScorer, KnnQuantileScorer,
                        calibration_residuals, calibration_scores,
                        icp_classify_predict, icp_regress_predict,
                        inccp_classify_predict, inccp_regress_predict)
from .metrics import (RunSummary, StepRecord, aggregate_trials,
                      classification_record, lag1_autocorrelation,
                      observed_excess, regression_record, summarize_run,
                      winkler_score, winkler_score_set)
from .nccp_online import (KnnThresholdClassifier, OlsIntervalPredictor,
                          knn_threshold_predict, knn_vote_shares,
                          ols_interval_predict)
from .numerics import NumericError, empirical_quantile, student_t_quantile
from .data import (Dataset, SplitPlan, StreamSpec, load_usps, load_wine,
                   make_stream, split_train_calibration, standardize_features)
from .harness import (ConfigError, ExperimentConfig, RunResult, SweepResult,
                      build_config, emit_sweep, emit_trace, lemma_stress_matrix,
                      parse_config_file, parse_trace, run_offline, run_online,
                      run_sweep, write_run_outputs)

