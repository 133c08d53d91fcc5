"""The canonical replays produce pinned bytes, so "output bytes unchanged" is
checked rather than claimed.

The digests are sha256 of each ``EventLog`` column's ``tobytes()`` (and of
the episode loss traces) for the canonical stream, replayed in frozen mode,
in auto mode and in auto mode with ``auto.iters_T = 0`` from the session
``canonical`` fixture, of the canonical ``model.ckpt`` and of its tensor
bytes after the header, and of the files the canonical CLI commands write.
The forward kernel's logits on both benchmark widths are pinned too.
Row bits depend on the BLAS build and on the CPU kernel it picks, so the
digests hold only on the platform recorded next to them; on any other BLAS
they are not checked.
"""

from __future__ import annotations

import hashlib
import platform
from dataclasses import replace

import numpy as np
import pytest

from helpers import COLUMNS, SMALL_OVERRIDES, split_checkpoint
from oodstream import data, engine, nn
from oodstream.cli import CHECKPOINT_NAME
from oodstream.runconfig import RunConfig, pretrain_hash

# Where the digests were recorded.
PINNED_NUMPY = "2.4.6"
PINNED_BLAS = ("scipy-openblas", "0.3.31.188.0")
PINNED_MACHINE = "x86_64"

PINNED_CHECKPOINT = "6035c790c7220a8221b22431390bea975e397bf4f1cb87f17a59fefa39b05da6"
# sha256 of the checkpoint's tensor bytes alone, so a header change shows
# that no weight moved
PINNED_CHECKPOINT_TENSORS = "4002a3814640bf0740442c4466dcbc37c992cab4f16413f904a3fd483c2d524c"

# sha256 of each file the canonical CLI commands write
PINNED_FILES = {
    "auto_events.csv": "c076d07459082c6b753d52e6ab2f343eb13ec320a6eb255dab09ec2e54e83403",
    "frozen_events.csv": "bcb8aa81ee1000861dfc3c939f33a6a4c4dd957a8ad4a326ea9240f8bbbeef83",
    "auto_metrics.json": "8a2580f0f308c552434296f5449bbaa62ee2a3df0a3eec5f04d371a1973cca07",
    "frozen_metrics.json": "b9380d4d232bdb1f3442538d9fd7040bda2f3a246292dd593031a82fd8c3a47e",
    "ablation.csv": "a5428c7082fb2969e17986ad5cc798b898fd5351ca8f408a54f130c4491747ee",
    "sweep_k2.csv": "8f5a60cbbe772b5f2bcc742a2591ee767c5aa99f698e3b20417fd16db20f47f9",
    "pretrain_summary.json": "a31e142543a80c292aa1c75fe119cb480d30f2c576fcb4502f0c22e7e66ae4aa",
}

PINNED = {
    "frozen": {
        "score": "a439aad5368106fe877559a5e22d56fe63ead2dbd15bf1a104e413decd33d888",
        "prediction": "93ca150b42194db9165cd21704a39609e32c314975c10cd26f9dcf19260be095",
        "decision": "a7c5ea42c3eda565347921d9615f1da1b5cb2c34277c60c93fc6fce794559f59",
        "is_ood": "f7332a4ecce710ed9045f0dc90b284c86750689c58fa80c0f625b85fcaca4f28",
        "label": "d239210f1f7958adc7723aea2fa9f58c494d973c1a57e64c527d426171b15863",
        "m_out": "0742db51f042de27e1e25a7d646ffb86586944f075723f3a3753f90538cf83a3",
        "traces": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "auto": {
        "score": "46ad0c1f446e81b43c112be36e678c1a5e9cd1acff32d81e899bfa2f9bb9ac9c",
        "prediction": "f855cd9e955b90c21cd06e46b91a6ab42097e3173ae3f1baec19b53a7f336f11",
        "decision": "505213c69960d95ce8f14f0abc9d73a18a8640708b89d069f5c0a476483567b9",
        "is_ood": "f7332a4ecce710ed9045f0dc90b284c86750689c58fa80c0f625b85fcaca4f28",
        "label": "d239210f1f7958adc7723aea2fa9f58c494d973c1a57e64c527d426171b15863",
        "m_out": "6b7d6639a583a09e70a55881cba3850d59dba491d58bb4629f4f9f0a53eb9d79",
        "traces": "b6ca617453dadab7f3d57bb209b503c5a0810d077d5105b23ae20d69f8b27429",
    },
    # pinned while each pseudo-OOD arrival still ran the unused model_0 forward
    "auto_t0": {
        "score": "a439aad5368106fe877559a5e22d56fe63ead2dbd15bf1a104e413decd33d888",
        "prediction": "93ca150b42194db9165cd21704a39609e32c314975c10cd26f9dcf19260be095",
        "decision": "09db0cfe08f2932e8b01578486d0147582bf9762a6ffb136929302018ea3caa2",
        "is_ood": "f7332a4ecce710ed9045f0dc90b284c86750689c58fa80c0f625b85fcaca4f28",
        "label": "d239210f1f7958adc7723aea2fa9f58c494d973c1a57e64c527d426171b15863",
        "m_out": "824d2431de439ba49edc16bcaad7ad4c0a96ec085292feac6e9f0f57dd11b070",
        "traces": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}


def platform_blas() -> tuple[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return str(blas.get("name")), str(blas.get("version"))


def on_pinned_platform() -> bool:
    return (*platform_blas(), platform.machine()) == (*PINNED_BLAS, PINNED_MACHINE)


def skip_off_the_pinned_platform() -> None:
    if not on_pinned_platform():
        pytest.skip(f"digests pinned on BLAS {PINNED_BLAS} ({PINNED_MACHINE}), "
                    f"this is {(*platform_blas(), platform.machine())}")


def test_cli_checkpoint_is_pinned(canonical_out):
    """The session's canonical model is loaded from the command-line
    ``pretrain``'s checkpoint, whose bytes are pinned. No pretrain runs here."""
    skip_off_the_pinned_platform()
    written = (canonical_out / CHECKPOINT_NAME).read_bytes()
    assert hashlib.sha256(split_checkpoint(written)[1]).hexdigest() == PINNED_CHECKPOINT_TENSORS
    assert hashlib.sha256(written).hexdigest() == PINNED_CHECKPOINT


def test_in_process_pretrain_writes_the_cli_checkpoint(small_pretrain, tmp_path):
    """``train_offline`` and ``save_checkpoint`` run in process write the
    bytes of the command-line ``pretrain``, here on the small scenario that
    the CLI tests pretrain once a session."""
    cfg = RunConfig(**SMALL_OVERRIDES)
    train, _, _ = data.make_scenario(cfg)
    model = nn.init_mlp(cfg.layer_dims(), seed=cfg.init_seed)
    nn.train_offline(model, train, epochs=cfg.epochs, batch_size=cfg.batch_size,
                     lr=cfg.pretrain_lr, seed=cfg.shuffle_seed)
    path = tmp_path / CHECKPOINT_NAME
    nn.save_checkpoint(model, path, pretrain_hash(cfg))
    assert path.read_bytes() == (small_pretrain / CHECKPOINT_NAME).read_bytes()


def digests(log: engine.EventLog) -> dict[str, str]:
    arrays = {name: getattr(log, name) for name in COLUMNS}
    arrays["traces"] = np.array([t.losses for t in log.update_traces])
    return {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in arrays.items()}


@pytest.mark.parametrize("mode", ["frozen", "auto", "auto_t0"])
def test_canonical_replay_bytes_are_pinned(canonical, canonical_replay, mode):
    skip_off_the_pinned_platform()
    cfg = canonical["run_config"]
    if mode == "frozen":
        log = canonical_replay.frozen
    else:
        log, _ = canonical_replay[replace(cfg, iters_t=0) if mode == "auto_t0" else cfg]
    got = digests(log)
    assert got == PINNED[mode], (
        f"{mode} replay bytes moved (pinned with numpy {PINNED_NUMPY}, "
        f"running numpy {np.__version__}):\n" + digest_table(PINNED[mode], got))


def digest_table(pinned: dict[str, str], got: dict[str, str]) -> str:
    """One line per column: the pinned sha256, the new one, and whether it moved,
    so a re-pin can be reviewed from the test log."""
    return "\n".join(f"  {name:<10} pinned {pinned[name]}  now {got[name]}"
                     f"{'' if got[name] == pinned[name] else '  MOVED'}" for name in pinned)


def test_canonical_cli_files_are_pinned(canonical_cli):
    """``run --mode auto``, ``run --mode frozen``, ``ablate`` and ``sweep`` on
    the canonical config, from a copy of the session's checkpoint, write the
    pinned bytes; so does the session's ``pretrain`` summary."""
    skip_off_the_pinned_platform()
    out = canonical_cli["out"]
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in PINNED_FILES}
    assert got == PINNED_FILES, "CLI output bytes moved:\n" + digest_table(PINNED_FILES, got)


def test_output_digest_table_names_every_command_file():
    """``tests/output_digests.py`` pins the eleven files that its six commands
    write for each of its two configs, and its canonical entries are this
    module's. No command runs here."""
    import output_digests

    names = {CHECKPOINT_NAME, "pretrain_summary.json", "ablation.csv", "sweep_k2.csv",
             "sweep_trainable_groups.csv"} | {
        f"{mode}_{kind}" for mode in ("auto", "frozen")
        for kind in ("events.csv", "metrics.json", "scores.svg")}
    assert len(names) == 11
    assert set(output_digests.PINNED) == set(output_digests.CONFIGS) == {"canonical",
                                                                         "wide_drift"}
    for table in output_digests.PINNED.values():
        assert set(table) == names
    canonical = output_digests.PINNED["canonical"]
    assert canonical[CHECKPOINT_NAME] == PINNED_CHECKPOINT
    assert set(output_digests.PINNED_TENSORS) == set(output_digests.CONFIGS)
    assert output_digests.PINNED_TENSORS["canonical"] == PINNED_CHECKPOINT_TENSORS
    assert {name: canonical[name] for name in PINNED_FILES} == PINNED_FILES


# sha256 of the forward kernel's logits on 64 rows: one row at a time through
# ``forward_logits``, then rows[:5] (an episode's shape) and rows[:32] (a
# pretraining batch's) through ``_forward_from``
PINNED_KERNEL = {
    (2, 128, 128, 3): ("795390e53d1f706a7597609e7cd97e84039e216a591be5930cf72ff124fdac1d",
                       "e74ab043e9de772918a1341831b47e546f137410d229884ba873cef51b390a6b",
                       "d528a1b0ae735d5a246bc1aae53846cb191e0d2af153c510d2a43b319e23f1be"),
    (8, 512, 512, 4): ("0c9212b7ac75f4db6dccdbd1e4ab04b3e8a00bf4fbf24115b32a18c5d9658abe",
                       "d2de0c917ac20597e602f4d02f5ba3cb2f81a908f72506229f6d6eb63ba2fd64",
                       "98c810be4c480de4785f338bafde0bc7e71ac76586cf13f59916217befc7e90a"),
}


@pytest.mark.parametrize("dims", list(PINNED_KERNEL), ids=["canonical", "wide"])
def test_forward_kernel_bytes_are_pinned(dims):
    """The forward kernel's bits on both benchmark widths, for one row and
    for the episode and pretraining batch shapes."""
    skip_off_the_pinned_platform()
    model = nn.init_mlp(list(dims), seed=11)
    rng = np.random.default_rng(12)
    for b in model.biases:
        b[:] = rng.normal(0, 0.5, size=b.shape)
    rows = rng.normal(0, 2, size=(64, dims[0]))
    got = (b"".join(nn.forward_logits(model, x).tobytes() for x in rows),
           nn._forward_from(model, rows[:5])[-1].tobytes(),
           nn._forward_from(model, rows[:32])[-1].tobytes())
    assert tuple(hashlib.sha256(g).hexdigest() for g in got) == PINNED_KERNEL[dims]
