"""Streaming out-of-distribution detection with online test-time adaptation.

The package pretrains a small MLP classifier on in-distribution data, then
replays an unlabeled contaminated stream one sample at a time: each arrival
is confidence-scored, filtered by adaptive margins into pseudo-ID /
pseudo-OOD / abstain, and pseudo-OOD arrivals drive a few SGD iterations on
an outlier-uniformity loss regularized by an ID memory bank and a
prediction-consistency hinge against the frozen initial model.
"""

from .data import (GaussianSource, LabeledSet, Stream, compose_mixed, compose_stream,
                   compose_timeseries, make_scenario)
from .engine import AutoState, EventLog, StreamEvent, init_state, run_posthoc, run_stream, step
from .filtering import (FilterDecision, Margins, classify, estimate_id_stats, init_margins,
                        update_outlier_margin)
from .memory import init_random, replace
from .metrics import MetricsReport, auroc, fpr_at_tpr, id_accuracy, report
from .nn import (EpisodeBatch, Gradients, LossSpec, MlpModel, clone_frozen, forward_logits,
                 init_mlp, load_checkpoint, prepare_episode, save_checkpoint, sgd_step,
                 total_loss, train_offline)
from .runconfig import ConfigError, RunConfig, config_hash, from_text, to_text
from .scoring import predict, score

__version__ = "0.1.0"
