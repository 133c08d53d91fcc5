"""Streaming out-of-distribution detection with online test-time adaptation.

The package pretrains a small MLP classifier on in-distribution data, then
replays an unlabeled contaminated stream one sample at a time: each arrival
is confidence-scored, filtered by adaptive margins into pseudo-ID /
pseudo-OOD / abstain, and pseudo-OOD arrivals drive a few SGD iterations on
an outlier-uniformity loss regularized by an ID memory bank and a
prediction-consistency hinge against the frozen initial model.
"""

# The names of the library example in README.md, the types they take or
# return, and ConfigError; every other name is imported from its module.
from .data import GaussianSource, LabeledSet, Stream, compose_stream, make_scenario
from .engine import AutoState, EventLog, init_state, run_stream
from .metrics import MetricsReport, report
from .nn import MlpModel, init_mlp, train_offline
from .runconfig import ConfigError, RunConfig

__version__ = "0.1.0"
