"""Bloom embeddings for sparse binary inputs and outputs.

Compress sets of active item positions into compact binary embeddings by
multi-way hashing, recover probability-ranked item lists from model
outputs, steer hash collisions with co-occurrence statistics, and measure
score/dimensionality/time trade-offs with a built-in feed-forward trainer
and sweep harness.
"""

from .cbe import (CooccurrenceStats, CooccurrenceTable, cooccurrence_stats,
                  count_cooccurrences, rebuild_hash_matrix, threshold_and_order)
from .codec import (ScoreOrder, SparseInstance, decode_likelihood_batch,
                    decode_nll_batch, encode_batch, matrix_from_bytes, rank_batch)
from .data import (DataError, ProfileDataset, SyntheticSpec, generate_synthetic,
                   load_profiles)
from .experiment import (ExperimentConfig, ExperimentOutcome, evaluate_model,
                         fit, run_experiment, run_sweep)
from .hashing import HashMatrix, build_hash_matrix, identity_hash_matrix
from .metrics import EvaluationResult, average_precision
from .trainer import (Network, NetworkSpec, OptimizerSpec, TrainReport,
                      backward_and_step, forward_batch, init_network, multi_hot,
                      network_from_bytes, network_to_bytes, train)

__version__ = "0.1.0"
