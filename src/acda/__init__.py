"""Active adversarial domain adaptation with exact transport diagnostics.

The package couples a from-scratch reverse-mode autodiff engine (including
gradients of gradient norms, as the critic penalty requires) with an exact
Wasserstein-1 oracle, a three-stage adversarial train/query/retrain
algorithm, synthetic shifted-domain generators, and a CLI harness whose
outputs are byte-reproducible for a fixed seed.
"""

from .acda import (QueryResult, RunRecord, TrainConfig, WeightVector, lambda_w,
                   query_scores, random_queries, run_algorithm_1, select_queries,
                   stage1_train, stage3_train, uncertainty_weights, update_pools,
                   weighted_query_loss)
from .autodiff import Graph, finite_difference_check, forward_eval, gradient
from .data import (Dataset, DomainPair, LabelingFunction, batch_iterator,
                   export_csv, gen_gaussian_shift_pair, gen_two_moons_pair,
                   load_csv, load_idx, standardize_features)
from .errors import (AcdaError, CapacityError, CheckpointError, ConfigError,
                     DataError, GraphError, TrainingDivergedError, TransportError)
from .experiments import ExperimentConfig, parse_config, run_experiment
from .nets import (NetworkParams, NetworkSpec, cross_entropy, forward,
                   init_network, load_checkpoint, predictive_entropy,
                   save_checkpoint)
from .transport import (BoundReport, TransportPlan, bound_rhs, critic_w1_estimate,
                        exact_w1, fit_critic, gradient_penalty, lipschitz_normalize)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
