"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Golden values were recorded from the first reference run of the pinned
canonical configuration (scenario seed 20240611, stream seed 77, model seeds
1/2) and guard against regression at +/-0.5 percentage points.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import (assert_columns_equal, auroc_bruteforce, fpr_at_tpr_bruteforce,
                     max_grad_rel_err, random_log, run_posthoc_reference, to_text)
from oodstream import cli, engine, filtering, metrics, nn
from oodstream.cli import main as cli_main
from oodstream.nn import LossSpec
from oodstream.runconfig import RunConfig, trainable_layers

TOL = 0.005  # +/- 0.5 percentage points on pinned golden values

GOLDEN = {
    "frozen": {"fpr95": 0.51700, "auroc": 0.78199, "id_acc": 0.99875},
    "full": {"fpr95": 0.44125, "auroc": 0.84790, "id_acc": 0.99875},
    "id_ood": {"fpr95": 0.45325, "auroc": 0.84101, "id_acc": 0.99849},
    "ood_only": {"fpr95": 0.45325, "auroc": 0.84109, "id_acc": 0.99849},
    "t1": {"fpr95": 0.50150},
    "t0": {"fpr95": 0.51700},
}

# Criterion 11: ``ablate``'s four combos at ``sgd.lr = 0.1``. The learning rate
# is not a pretraining key, so the canonical checkpoint serves.
GOLDEN_LR01 = {
    "id_only": {"fpr95": 0.52100, "auroc": 0.77939, "id_acc": 0.99875},
    "ood_only": {"fpr95": 1.00000, "auroc": 0.62151, "id_acc": 0.71099},
    "id_ood": {"fpr95": 0.04025, "auroc": 0.99135, "id_acc": 0.99498},
    "full": {"fpr95": 0.03475, "auroc": 0.99245, "id_acc": 0.99849},
}


def ok(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


# ---------------------------------------------------------------------------
# shared canonical runs

# The adaptive canonical runs the trend criteria read, from the session's
# ``canonical_replay`` memo; ``id_ood`` and ``ood_only`` are ``ablate``'s combos.
RUNS = {"full": RunConfig(),
        "id_ood": cli._ablation_overrides(RunConfig(), "id_ood"),
        "ood_only": cli._ablation_overrides(RunConfig(), "ood_only"),
        "t1": RunConfig(iters_t=1),
        "t0": RunConfig(iters_t=0)}


def canonical_run(canonical_replay, cfg: RunConfig):
    """(report, log, final state) of the canonical replay under ``cfg``."""
    log, state = canonical_replay[cfg]
    return metrics.report(log), log, state


def assert_structural_invariants(canonical, log, state):
    """Criterion 8 checks, applied to every end-to-end run."""
    cfg = canonical["run_config"]
    initial_model = canonical["model"]
    # bank cardinality
    assert state.bank.shape == (cfg.classes, cfg.dim)
    # frozen layers bitwise constant
    trainable = trainable_layers(cfg.trainable_groups, state.model_t.num_layers)
    for i, kept in enumerate(trainable):
        if not kept:
            assert np.array_equal(state.model_t.weights[i], initial_model.weights[i])
            assert np.array_equal(state.model_t.biases[i], initial_model.biases[i])
    # m_in bitwise constant (re-derive the initialization)
    st_ref = engine.init_state(nn.clone_frozen(initial_model), canonical["train"], cfg)
    assert state.margins.m_in == st_ref.margins.m_in
    # frozen reference model: probe outputs equal the pretrained model's
    probe = canonical["stream"].features[0]
    assert np.array_equal(nn.forward_logits(state.model_0, probe),
                          nn.forward_logits(initial_model, probe))
    # event partition
    c = log.counts
    assert c.pseudo_id + c.pseudo_ood + c.abstain == len(log)


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def test_criterion_1_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(20240601)
    worst = 0.0
    cases = 0
    for case in range(20):
        n_hidden = 1 + case % 3
        dims = [3] + [int(rng.integers(3, 7)) for _ in range(n_hidden)] + [4]
        model = nn.init_mlp(dims, seed=case)
        for b in model.biases:
            b[:] = rng.normal(0, 0.4, size=b.shape)
        x = rng.normal(0, 1.5, size=3)
        bank = rng.normal(0, 1, size=(4, 3))
        ref = int(rng.integers(0, 4))
        specs = [
            LossSpec(bank_inputs=bank, bank_weight=1.0),
            LossSpec(uniform_weight=1.0),
            LossSpec(sc_weight=0.1, sc_ref_pred=ref, sc_phi=0.2),
            LossSpec(uniform_weight=1.0, sc_weight=0.1, sc_ref_pred=ref, sc_phi=0.2,
                     bank_inputs=bank, bank_weight=1.0),
        ]
        for spec in specs:
            worst = max(worst, max_grad_rel_err(model, x, spec, step=1e-5))
            cases += 1
    elapsed = time.time() - started
    assert worst < 1e-5, f"max relative error {worst}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    ok("criterion 1", f"{cases} gradient cases, max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: metric oracle equivalence


def test_criterion_2_metric_oracles():
    started = time.time()
    rng = np.random.default_rng(20240602)
    worst_fpr = worst_auroc = 0.0
    for trial in range(200):
        n_id = int(rng.integers(1, 251))
        n_ood = int(rng.integers(1, 251))
        log = random_log(rng, n_id, n_ood, with_ties=trial % 2 == 0)
        worst_fpr = max(worst_fpr, abs(metrics.fpr_at_tpr(log)
                                       - fpr_at_tpr_bruteforce(log)))
        worst_auroc = max(worst_auroc, abs(metrics.auroc(log)
                                           - auroc_bruteforce(log)))
    elapsed = time.time() - started
    assert worst_fpr <= 1e-12 and worst_auroc <= 1e-12
    assert elapsed < 30.0
    ok("criterion 2", f"200 logs, max |fpr diff| {worst_fpr:.1e}, "
                      f"max |auroc diff| {worst_auroc:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: margin replay


def test_criterion_3_margin_replay():
    rng = np.random.default_rng(20240603)
    for _ in range(50):
        mu, sigma = float(rng.uniform(0.6, 1.0)), float(rng.uniform(0.0, 0.1))
        margins = filtering.init_margins(mu, sigma, k1=0.0, k2=float(rng.uniform(0.0, 3.0)))
        accepted = [margins.m_out]
        prev_out = margins.m_out
        for s in rng.uniform(0.0, 1.2, size=400):
            if s < sum(accepted) / len(accepted):
                accepted.append(float(s))
            margins = filtering.update_outlier_margin(margins, float(s))
            assert abs(margins.m_out - sum(accepted) / len(accepted)) <= 1e-12
            assert margins.m_out <= prev_out
            prev_out = margins.m_out
    ok("criterion 3", "50 streams match the running-mean oracle; m_out monotone")


# ---------------------------------------------------------------------------
# criterion 4: frozen-baseline degeneracy


def test_criterion_4_frozen_degeneracy(canonical, canonical_replay):
    cfg = replace(canonical["run_config"], lambda1=0.0, lambda2=0.0, trainable_groups="none")
    log, _ = canonical_replay[cfg]
    # no changed key reaches the margins, so the run starts from the default's
    baseline = run_posthoc_reference(canonical["model"], canonical_replay.margins0,
                                     canonical["stream"], update_margins=True)
    assert_columns_equal(log, baseline)
    ok("criterion 4", f"degenerate run log identical over {len(log)} events")


# ---------------------------------------------------------------------------
# criteria 5-8, 10, 11: canonical trends


def test_criterion_5_canonical_improvement(canonical, canonical_replay):
    started = time.time()
    fr = metrics.report(canonical_replay.frozen)
    full, flog, fstate = canonical_run(canonical_replay, RUNS["full"])
    assert full.fpr95 < fr.fpr95
    assert full.auroc > fr.auroc
    for name, rep in (("frozen", fr), ("full", full)):
        for key in ("fpr95", "auroc", "id_acc"):
            assert getattr(rep, key) == pytest.approx(GOLDEN[name][key], abs=TOL), \
                f"{name}.{key} drifted from golden value"
    assert_structural_invariants(canonical, flog, fstate)
    elapsed = time.time() - started
    assert elapsed < 60.0
    ok("criterion 5", f"fpr95 {fr.fpr95:.4f}->{full.fpr95:.4f}, "
                      f"auroc {fr.auroc:.4f}->{full.auroc:.4f} (golden +/-0.5pp)")


def test_criterion_6_anti_forgetting_ordering(canonical, canonical_replay):
    full, _, _ = canonical_run(canonical_replay, RUNS["full"])
    idood, ilog, istate = canonical_run(canonical_replay, RUNS["id_ood"])
    oodonly, olog, ostate = canonical_run(canonical_replay, RUNS["ood_only"])
    assert full.id_acc >= idood.id_acc >= oodonly.id_acc
    assert full.fpr95 <= oodonly.fpr95
    for name, rep in (("id_ood", idood), ("ood_only", oodonly)):
        for key in ("fpr95", "auroc", "id_acc"):
            assert getattr(rep, key) == pytest.approx(GOLDEN[name][key], abs=TOL)
    assert_structural_invariants(canonical, ilog, istate)
    assert_structural_invariants(canonical, olog, ostate)
    ok("criterion 6", f"id_acc {full.id_acc:.4f} >= {idood.id_acc:.4f} >= "
                      f"{oodonly.id_acc:.4f}; fpr95 {full.fpr95:.4f} <= {oodonly.fpr95:.4f}")


def test_criterion_7_descent_property(canonical_replay):
    flog, _ = canonical_replay[RUNS["full"]]
    assert len(flog.update_traces) > 0
    good = total = 0
    for trace in flog.update_traces:
        for before, after in zip(trace.losses, trace.losses[1:]):
            total += 1
            good += after <= before
    fraction = good / total
    assert fraction >= 0.95
    ok("criterion 7", f"{good}/{total} inner steps decreased the total loss "
                      f"({fraction:.1%})")


def test_criterion_8_structural_invariants(canonical, canonical_replay):
    # post-run checks on every canonical run
    for cfg in RUNS.values():
        log, state = canonical_replay[cfg]
        assert_structural_invariants(canonical, log, state)
        assert len(log) == len(canonical["stream"])
    # per-step checks on a short instrumented replay
    cfg = canonical["run_config"]
    model = nn.clone_frozen(canonical["model"])
    state = engine.init_state(model, canonical["train"], cfg)
    m_in0 = state.margins.m_in
    probe = canonical["stream"].features[0]
    probe_ref = nn.forward_logits(state.model_0, probe).copy()
    stream = canonical["stream"]
    prev_m_out = state.margins.m_out
    for i in range(400):
        event, _ = engine.step(state, cfg, stream.features[i],
                               (bool(stream.is_ood[i]), int(stream.labels[i])))
        assert len(state.bank) == cfg.classes
        assert state.margins.m_in == m_in0
        assert state.margins.m_out <= prev_m_out
        prev_m_out = state.margins.m_out
        assert np.array_equal(nn.forward_logits(state.model_0, probe), probe_ref)
    ok("criterion 8", "bank size, frozen groups, margins, reference model, "
                      "and partition counts verified")


def test_criterion_10_t_sweep(canonical_replay):
    t0, _, _ = canonical_run(canonical_replay, RUNS["t0"])
    t1, _, _ = canonical_run(canonical_replay, RUNS["t1"])
    full, _, _ = canonical_run(canonical_replay, RUNS["full"])  # T=2
    assert t1.fpr95 < t0.fpr95
    assert full.fpr95 < t0.fpr95
    assert t0.fpr95 == pytest.approx(GOLDEN["t0"]["fpr95"], abs=TOL)
    assert t1.fpr95 == pytest.approx(GOLDEN["t1"]["fpr95"], abs=TOL)
    ok("criterion 10", f"fpr95: T=0 {t0.fpr95:.4f}, T=1 {t1.fpr95:.4f}, "
                       f"T=2 {full.fpr95:.4f}")


def test_criterion_11_anti_forgetting_at_a_larger_step(canonical, canonical_replay):
    """At the canonical ``sgd.lr`` the memory bank barely shows: ``id_ood``
    and ``ood_only`` reach the same ID accuracy. At 0.1 dropping the bank's
    ID term costs about 29 pp of it."""
    reps = {}
    for combo in cli.ABLATION_COMBOS:
        cfg = cli._ablation_overrides(replace(canonical["run_config"], lr=0.1), combo)
        reps[combo], log, state = canonical_run(canonical_replay, cfg)
        assert_structural_invariants(canonical, log, state)
        for key in ("fpr95", "auroc", "id_acc"):
            assert getattr(reps[combo], key) == pytest.approx(GOLDEN_LR01[combo][key], abs=TOL), \
                f"lr=0.1 {combo}.{key} drifted from golden value"
    full, idood, oodonly = reps["full"], reps["id_ood"], reps["ood_only"]
    assert full.id_acc >= idood.id_acc >= oodonly.id_acc
    assert oodonly.id_acc <= full.id_acc - 0.25
    frozen = metrics.report(canonical_replay.frozen)
    assert full.fpr95 < frozen.fpr95
    ok("criterion 11", f"lr=0.1: id_acc {full.id_acc:.4f} >= {idood.id_acc:.4f} >= "
                       f"{oodonly.id_acc:.4f}; fpr95 {frozen.fpr95:.4f} (frozen) -> "
                       f"{full.fpr95:.4f}")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reruns


def test_cli_canonical_metrics_match_golden(canonical_cli):
    # the command-line pipeline on the pinned default config reproduces the
    # golden reference metrics end to end: `run` reads the checkpoint of the
    # session's `pretrain`
    rep = json.loads((canonical_cli["out"] / "auto_metrics.json").read_text())
    for key in ("fpr95", "auroc", "id_acc"):
        assert rep[key] == pytest.approx(GOLDEN["full"][key], abs=TOL)
    ok("cli golden", "auto metrics JSON within +/-0.5pp of golden values")


def test_cli_ablation_rows_equal_library_reports(canonical_cli, canonical_replay):
    """``ablate``'s rows for the combos that criterion 6 reads are the
    ``metrics.report`` of the same replays run in process, to the last bit."""
    rows = (canonical_cli["out"] / "ablation.csv").read_text().splitlines()[2:]
    rows = {row.partition(",")[0]: row for row in rows}
    for combo in ("full", "id_ood", "ood_only"):
        rep, _, _ = canonical_run(canonical_replay, RUNS[combo])
        assert rows[combo] == f"{combo},{rep.fpr95:.17g},{rep.auroc:.17g},{rep.id_acc:.17g}"


def test_criterion_9_determinism(tmp_path):
    cfg = RunConfig(test_id_n=300, ood_n=300, train_n=150, hidden=(16, 16),
                    epochs=60, out_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(to_text(cfg), encoding="ascii")
    assert cli_main(["--config", str(cfg_path), "pretrain"]) == 0
    assert cli_main(["--config", str(cfg_path), "run", "--mode", "auto"]) == 0
    out = tmp_path / "out"
    csv1 = (out / "auto_events.csv").read_bytes()
    json1 = (out / "auto_metrics.json").read_bytes()
    assert cli_main(["--config", str(cfg_path), "run", "--mode", "auto"]) == 0
    assert (out / "auto_events.csv").read_bytes() == csv1
    assert (out / "auto_metrics.json").read_bytes() == json1
    ok("criterion 9", "two consecutive runs produced byte-identical CSV and JSON")
