"""Peak allocations of the checkpoint writer and loader, the adaptive
replay on the 512-wide net and the events CSV writer, measured with
tracemalloc (numpy reports its array data to it). None holds a tensor
twice, the file text or a full-size weight gradient."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from helpers import checkpoint_header, events_csv_reference, log_from_columns
from oodstream import cli, engine, nn
from oodstream.data import LabeledSet, Stream
from oodstream.runconfig import RunConfig

WIDE = [8, 512, 512, 4]
MB = 2**20
HASH = "0123456789ab"


def traced_peak(fn, *args):
    """(result, peak bytes allocated while ``fn(*args)`` ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wide_model():
    rng = np.random.default_rng(31)
    model = nn.init_mlp(WIDE, seed=31)
    for b in model.biases:
        b[:] = rng.normal(0.0, 0.1, size=b.shape)
    return model


def test_checkpoint_save_holds_no_file_text(tmp_path, wide_model):
    """Building the file text first peaked at 12.35 MiB for 2.05 MiB of tensors."""
    path = tmp_path / "model.ckpt"
    _, peak = traced_peak(nn.save_checkpoint, wide_model, path, HASH)
    tensor_bytes = sum(t.nbytes for t in wide_model.weights + wide_model.biases)
    assert tensor_bytes > 2 * MB
    assert peak <= tensor_bytes + MB // 2
    assert path.stat().st_size == len(checkpoint_header(WIDE, HASH)) + tensor_bytes


def test_checkpoint_load_holds_each_tensor_once(tmp_path, wide_model):
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(wide_model, path, HASH)
    (loaded, _), peak = traced_peak(nn.load_checkpoint, path)
    tensor_bytes = sum(t.nbytes for t in loaded.weights + loaded.biases)
    assert tensor_bytes > 2 * MB
    assert peak <= tensor_bytes + MB // 2
    for a, b in zip(wide_model.weights + wide_model.biases, loaded.weights + loaded.biases):
        assert a.tobytes() == b.tobytes()


def test_wide_replay_allocates_less_than_one_weight(wide_model):
    rng = np.random.default_rng(32)
    train = LabeledSet(rng.normal(size=(40, 8)), np.arange(40) % 4, 4)
    n = 300
    is_ood = rng.random(n) < 0.5
    stream = Stream(features=rng.normal(0.0, 2.0, size=(n, 8)), is_ood=is_ood,
                    labels=np.where(is_ood, -1, rng.integers(0, 4, n)))
    config = RunConfig(k2=0.0)
    state = engine.init_state(nn.clone_frozen(wide_model), train, config)
    log, peak = traced_peak(engine.run_stream, state, config, stream)
    assert log.counts.updates >= 10
    assert peak < wide_model.weights[1].nbytes  # 512 x 512 float64: 2 MiB


def test_events_csv_writer_holds_no_file_text(tmp_path):
    """Building the whole file text first peaked at 2,079 KiB on the
    canonical auto log (7,986 rows, a 470 KiB file) and 2,114 KiB on this one."""
    rng = np.random.default_rng(34)
    n = 8000
    is_ood = rng.random(n) < 0.5
    # m_out moves at about 300 episodes, as on the canonical auto stream
    m_out = np.repeat(np.linspace(0.6, 0.4, 300), np.diff(np.linspace(0, n, 301).astype(int)))
    log = log_from_columns(rng.uniform(1 / 3, 1.0, n), is_ood, prediction=rng.integers(0, 3, n),
                           label=np.where(is_ood, -1, rng.integers(0, 3, n)),
                           decision=rng.integers(0, len(engine.DECISIONS), n), m_out=m_out)
    path = tmp_path / "auto_events.csv"
    _, peak = traced_peak(cli._write_events_csv, path, log, HASH)
    assert peak < MB
    assert path.read_bytes() == events_csv_reference(log, HASH).encode("ascii")
