"""sha256 of every file the canonical and wide commands write, against a
pinned table.

Run as ``python tests/output_digests.py``; pytest does not collect it. In a
temporary directory it runs ``pretrain``, ``--plot run --mode auto``,
``--plot run --mode frozen``, ``ablate``, ``sweep --param k2 --values 1,2``
and a ``sweep --param trainable_groups`` over each form of the key's value
on ``configs/canonical.cfg`` and on ``perfbench/wide_drift.cfg``. It prints
one line per file (the pinned sha256, the new one, and ``MOVED`` where they
differ), then the same for each checkpoint's tensor bytes after its
header, and exits 1 if any file or tensor digest moved. The canonical
entries are ``test_pinned_bytes``' own. Like that module, it compares only
on the BLAS build and machine the digests were recorded on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from helpers import split_checkpoint  # noqa: E402
from oodstream.cli import CHECKPOINT_NAME, main  # noqa: E402
from test_pinned_bytes import (PINNED_BLAS, PINNED_CHECKPOINT,  # noqa: E402
                               PINNED_CHECKPOINT_TENSORS, PINNED_FILES, PINNED_MACHINE,
                               digest_table, on_pinned_platform)

CONFIGS = {"canonical": ROOT / "configs" / "canonical.cfg",
           "wide_drift": ROOT / "perfbench" / "wide_drift.cfg"}
COMMANDS = (["pretrain"], ["--plot", "run", "--mode", "auto"],
            ["--plot", "run", "--mode", "frozen"], ["ablate"],
            ["sweep", "--param", "k2", "--values", "1,2"],
            ["sweep", "--param", "trainable_groups", "--values", "none,all,last_block,block1+fc"])

# config name -> file name -> sha256 of the file
PINNED = {
    "canonical": {
        CHECKPOINT_NAME: PINNED_CHECKPOINT,
        **PINNED_FILES,
        "auto_scores.svg": "c87db4df1bba6761b7f16d3a41284e5012ab48271f3d1f787485fc5f13ce5824",
        "frozen_scores.svg": "ab684059223e8c511a1c0e8712307c7ded4a746b8d3810d43b386bf06fe7bd69",
        "sweep_trainable_groups.csv":
            "e81bcf323639be945cba07e87d7b33e472230f8f502a4d847531e945790ec853",
    },
    "wide_drift": {
        CHECKPOINT_NAME: "a3c6616c0fe39438bbd626335866fdc839eef4888399e68a680733a7ecc59170",
        "pretrain_summary.json":
            "26e5699a7474fda6cac5b16127a290da7c00dc305d5218b62ca01e9e245f8f69",
        "auto_events.csv": "520af89c40c705b5d5519d5116429efee42072beb4d3cfadaa1de81ed4b297fc",
        "auto_metrics.json": "399681d3d7b8cdce6fa0f157a267a12108f4b12a47fe227191e2132c94e506cf",
        "auto_scores.svg": "62d63ec4722ad40517865c3d5bb6c6fec45cbf11d1a0e3a1ac848961a50655c7",
        "frozen_events.csv": "24dba42b2b6522f853ad5794da49d53e67921fab1d671da4989d9cf47ef29302",
        "frozen_metrics.json": "711d1ef6ec1d1d9552d2c552d24c5c76986c40291aa141e6dd5fb39966477cfa",
        "frozen_scores.svg": "d5f1e09845fd557e4cc14a2cd4b13579852a1f10855c488044ac71064d386726",
        "ablation.csv": "066d93827279124cbc56c9b4484fbfff45f076d6fbf894e2e84911c917ca34c4",
        "sweep_k2.csv": "88f9a3158d41d54feb64ebbaa5d8c136fe9e8dfb5121012fbaf0b4d31119bdae",
        "sweep_trainable_groups.csv":
            "6cb02fb054d095625ac8c871cb0de0b23a8b802c616260327ad02dbd05c71448",
    },
}

# config name -> sha256 of its checkpoint's tensor bytes, after the header
PINNED_TENSORS = {
    "canonical": PINNED_CHECKPOINT_TENSORS,
    "wide_drift": "702e2896728d5dc0f7e4eeb983baebebc8426d63c578215a6160f3e62c5f62cd",
}


def written_digests(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Run every command on every config under ``root``; the sha256 of each
    file written, keyed ``<config>/<file>``, and of each checkpoint's tensor
    bytes, keyed ``<config>``."""
    got, tensors = {}, {}
    for name, config in CONFIGS.items():
        out = root / name
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                status = main(["--config", str(config), "--out", str(out), *command])
            if status != 0:
                sys.exit(f"{name}: `{' '.join(command)}` exited {status}")
        got.update({f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in sorted(out.iterdir())})
        ckpt = (out / CHECKPOINT_NAME).read_bytes()
        tensors[name] = hashlib.sha256(split_checkpoint(ckpt)[1]).hexdigest()
    return got, tensors


def main_digests() -> int:
    if not on_pinned_platform():
        print(f"digests pinned on BLAS {PINNED_BLAS} ({PINNED_MACHINE}); not compared here")
        return 0
    pinned = {f"{name}/{file}": digest for name, table in PINNED.items()
              for file, digest in table.items()}
    with tempfile.TemporaryDirectory() as root:
        got, tensors = written_digests(Path(root))
    print(digest_table(pinned, {name: got.get(name, "(not written)") for name in pinned}))
    unpinned = sorted(set(got) - set(pinned))
    for name in unpinned:
        print(f"  {name} is written but not pinned")
    moved = [name for name in pinned if got.get(name) != pinned[name]]
    print(f"{len(moved)} of {len(pinned)} pinned files moved")
    print(digest_table(PINNED_TENSORS, tensors))
    moved_tensors = [name for name in PINNED_TENSORS if tensors[name] != PINNED_TENSORS[name]]
    print(f"{len(moved_tensors)} of {len(PINNED_TENSORS)} pinned checkpoint tensor digests moved")
    return 1 if moved or unpinned or moved_tensors else 0


if __name__ == "__main__":
    sys.exit(main_digests())
