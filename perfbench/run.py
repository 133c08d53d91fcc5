"""oodstream benchmark: replay workloads through the real CLI and check them.

Usage (from the repository root):

    python3 perfbench/run.py --workload canonical_auto --seed 77 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run and reports per-layer metrics.
Every metric is printed by name with its unit, then the environment, and
the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Each CLI command the benchmark issues is one operation. An operation fails
when it exits nonzero, when its decision counts do not add up to its
arrivals, when its outputs differ byte for byte from an earlier run of the
same workload, when a traced count differs from the program's own count,
or, on the default seed, when its detection quality misses the pinned
reference values in ``reference.json``.

The work happens in fresh worker processes (``worker.py``): several
set-up processes (package import plus ``pretrain``, median reported), then
one process that replays the workload's streams back to back for
``--seconds``, or for one pass over the streams if that takes longer. The
closed loop has one client; BLAS threads are left at their default. The
end-to-end times are in reference seconds: each wall time is scaled by the
calibration loop of ``calib.py``, timed next to it, so that the host's
swings in speed cancel out. Metric names and units are those of
``BENCHMARK.json``; README.md explains the workloads, seeds and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calib

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "work"
TIME_LIMIT_S = 170.0
SETUP_REPEATS = 3
CAL_S = 0.1  # calibration next to each set-up process, in seconds
MIN_TRACED_RUNS = 2

# name -> (config file relative to the repository root, run mode, streams).
# One run replays several streams drawn from its seed: how many episodes a
# stream triggers, and so its replay time and fpr95, varies from stream to
# stream, and the mean over several streams varies less from seed to seed.
WORKLOADS = {
    "canonical_auto": ("configs/canonical.cfg", "auto", 24),
    "canonical_frozen": ("configs/canonical.cfg", "frozen", 24),
    "wide_drift_auto": ("perfbench/wide_drift.cfg", "auto", 9),
}
STREAM_STRIDE = 1_000_003  # stream k of seed s draws with seed s + k * STREAM_STRIDE

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result; message goes to stderr."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ref = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=ref["default_seed"],
                        help="stream seed; the default reproduces the pinned goldens")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the replay loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    args.reference = ref
    return args


def read_config(text: str) -> dict[str, str]:
    """Flat ``key = value`` pairs; ``#`` starts a comment line."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#") and "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def with_stream_seed(text: str, seed: int) -> str:
    """The workload's config with ``scenario.stream_seed`` set to ``seed``.

    Only the stream is drawn from the benchmark seed. The training data,
    and so the pretrained model, stay those of the config file (see
    README.md, "Seeds", for why the CLI's ``--seed`` is not used).
    """
    line = f"scenario.stream_seed = {seed}"
    new, n = re.subn(r"(?m)^\s*scenario\.stream_seed\s*=.*$", line, text)
    return new if n else text.rstrip("\n") + "\n" + line + "\n"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": list(os.getloadavg()),
    }


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))


def run_problems(rec: dict, first: dict, reference: dict | None, tol: float) -> list[str]:
    """Checks on one ``run`` command's outputs."""
    if rec["rc"] != 0:
        return [f"exit status {rec['rc']}"]
    problems = []
    counts = rec["metrics"]["counts"]
    decided = counts["pseudo_id"] + counts["pseudo_ood"] + counts["abstain"]
    if decided != rec["event_rows"]:
        problems.append(f"decision counts add up to {decided}, "
                        f"events CSV has {rec['event_rows']} arrivals")
    if first.get("rc") == 0:
        for key in ("events_sha256", "metrics_sha256"):
            if rec[key] != first[key]:
                problems.append(f"{key.split('_')[0]} output differs from the first run")
    if reference is not None:
        for key, want in reference.items():
            got = rec["metrics"][key]
            if abs(got - want) > tol:
                problems.append(f"{key} {got:.5f} misses reference {want:.5f} (+/-{tol})")
    return problems


def trace_count_problems(counts: dict, prog: dict, cfg: dict, mode: str) -> list[str]:
    """Traced counts against the program's own counts, exactly."""
    arrivals = prog["pseudo_id"] + prog["pseudo_ood"] + prog["abstain"]
    updates = prog["updates"]
    train_n, subsample = int(cfg["scenario.train_n"]), int(cfg["auto.stats_subsample_n"])
    init_rows = min(subsample, train_n) if subsample > 0 else train_n
    auto = mode == "auto"
    expected = {
        "data.arrivals": arrivals,
        "engine.step.pseudo_ood.calls": updates,
        "engine.step.pseudo_id.calls": prog["pseudo_id"] if auto else 0,
        "engine.step.abstain.calls": prog["abstain"] if auto else 0,
        "memory.replace.calls": prog["pseudo_id"] if auto else 0,
        "memory.contaminated_writes": prog["contaminated_replacements"],
        "nn.sgd_step.calls": updates * int(cfg["auto.iters_T"]),
        "nn.forward_logits.calls": arrivals + init_rows + updates,
    }
    return [f"trace {key} = {counts[key]}, program says {want}"
            for key, want in expected.items() if counts[key] != want]


@dataclass
class Context:
    """What one benchmark run works on."""

    src: str
    configs: list[str]  # one derived config per stream; the first is the seed's own
    mode: str
    work: Path
    reference: dict | None  # pinned quality of the first stream, default seed only
    tolerance: float
    deadline: float

    def spawn(self, kind: str, out: str, result: str, **extra) -> dict:
        """Run one worker process to completion and return its result."""
        job = {"kind": kind, "src": self.src, "configs": self.configs, "mode": self.mode,
               "out": str(self.work / out), "result": str(self.work / f"{result}.json"),
               **extra}
        job_path = self.work / f"{result}.job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached before the next worker could start")
        try:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
                                  capture_output=True, text=True, timeout=timeout,
                                  cwd=ROOT, check=False)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{kind} worker exceeded the time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{kind} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


def setup_problems(rec: dict, first_sha: str | None) -> list[str]:
    if rec["rc"] != 0:
        return [f"exit status {rec['rc']}"]
    if first_sha is not None and rec["checkpoint_sha256"] != first_sha:
        return ["checkpoint differs from the first set-up"]
    return []


def calibrated_setup(ctx: Context, i: int) -> dict:
    """One set-up process, with calibration readings just before and after it."""
    before = calib.rep_seconds(CAL_S)
    rec = ctx.spawn("setup", f"setup{i}", f"setup{i}")
    rec["rep_s"] = (before + calib.rep_seconds(CAL_S)) / 2
    return rec


def measure_end_to_end(ctx: Context, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """The end-to-end metrics, and the unscaled times next to them."""
    setups = [calibrated_setup(ctx, i) for i in range(SETUP_REPEATS)]
    for i, rec in enumerate(setups):
        ledger.record(f"setup {i}", setup_problems(rec, setups[0]["checkpoint_sha256"]))

    res = ctx.spawn("measure", "setup0", "measure", seconds=seconds)
    runs = res["runs"]
    first = {}
    for i, rec in enumerate(runs):
        first.setdefault(rec["stream"], rec)
        reference = ctx.reference if rec["stream"] == 0 else None
        ledger.record(f"run {i} (stream {rec['stream']})",
                      run_problems(rec, first[rec["stream"]], reference, ctx.tolerance))
    if any(r["rc"] != 0 for r in runs):
        raise BenchError("a run command failed")
    # Replay throughput of the set of streams: every stream once, each at
    # the median of its own replay times in reference seconds. runs[0] is
    # the untimed warm-up.
    timed = runs[1:]
    ref_walls = [statistics.median(calib.to_reference(r["wall_s"], r["rep_s"])
                                   for r in timed if r["stream"] == k) for k in first]
    walls = [statistics.median(r["wall_s"] for r in timed if r["stream"] == k) for k in first]
    arrivals = sum(first[k]["event_rows"] for k in first)
    quality = [first[k]["metrics"] for k in first]
    metrics = {
        "setup_s": statistics.median(calib.to_reference(s["setup_s"], s["rep_s"])
                                     for s in setups),
        "arrivals_per_s": arrivals / sum(ref_walls),
        "peak_rss_mb": res["peak_rss_mb"],
        **{key: statistics.fmean(q[key] for q in quality)
           for key in ("fpr95", "auroc", "id_acc")},
    }
    raw = {
        "wall_setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_arrivals_per_s": arrivals / sum(walls),
        "calib_rep_us": statistics.median(r["rep_s"] for r in setups + timed) * 1e6,
    }
    return metrics, raw


def measure_per_layer(ctx: Context, seconds: float, ledger: Ledger, names) -> dict:
    cfg = read_config(Path(ctx.configs[0]).read_text(encoding="ascii"))
    base = ctx.spawn("setup", "setup0", "setup0")
    ledger.record("setup", setup_problems(base, None))
    before = calib.rep_seconds(CAL_S)
    res = ctx.spawn("trace", "trace", "trace", seconds=seconds, min_runs=MIN_TRACED_RUNS)
    rep_s = (before + calib.rep_seconds(CAL_S)) / 2

    pre = res["pretrain"]
    problems = setup_problems(pre, base["checkpoint_sha256"])
    steps = int(cfg["pretrain.epochs"]) * math.ceil(
        int(cfg["scenario.train_n"]) / int(cfg["pretrain.batch_size"]))
    if pre["rc"] == 0 and pre["nn.train_offline.sgd_steps"] != steps:
        problems.append(f"trace counts {pre['nn.train_offline.sgd_steps']} pretrain "
                        f"SGD steps, expected {steps}")
    ledger.record("traced pretrain", problems)
    if pre["rc"] != 0:
        raise BenchError("traced pretrain failed")

    untraced, traced = res["untraced"], res["traced"]
    first = untraced[0]
    for i, rec in enumerate(untraced):
        ledger.record(f"untraced run {i}",
                      run_problems(rec, first, ctx.reference, ctx.tolerance))
    for i, rec in enumerate(traced):
        problems = run_problems(rec, first, ctx.reference, ctx.tolerance)
        if rec["rc"] == 0:
            problems += trace_count_problems(rec["counts"], rec["metrics"]["counts"],
                                             cfg, ctx.mode)
            if rec["counts"] != traced[0]["counts"]:
                problems.append("traced counts differ from the first traced run")
        ledger.record(f"traced run {i}", problems)
    if any(r["rc"] != 0 for r in traced + untraced):
        raise BenchError("a run command failed")

    counts, ms, pct = traced[0]["counts"], res["ms"], res["percentiles"]
    writes, episodes = counts["memory.replace.calls"], counts["engine.step.pseudo_ood.calls"]
    untraced_s = statistics.median(r["wall_s"] for r in untraced)
    out = {
        "nn.train_offline.s": pre["nn.train_offline.s"],
        "nn.train_offline.sgd_steps": pre["nn.train_offline.sgd_steps"],
        "nn.save_checkpoint.ms": pre["nn.save_checkpoint.ms"],
        "nn.checkpoint_bytes": pre["nn.checkpoint_bytes"],
        "memory.clean_write_ratio":
            (writes - counts["memory.contaminated_writes"]) / writes if writes else 0.0,
        "engine.episode_share":
            ms["engine.step.pseudo_ood.total_ms"] / ms["engine.step.total_ms"]
            if ms["engine.step.total_ms"] else 0.0,
        "engine.episode.descent_ratio":
            counts["engine.episode.descended"] / episodes if episodes else 0.0,
        "engine.step.self_us_p50": pct["engine.step.self.us_p50"],
        "cli.bytes_written": traced[0]["bytes_written"],
        "trace.overhead_ratio": statistics.median(r["wall_s"] for r in traced) / untraced_s,
        "trace.untraced_run_ms": untraced_s * 1000.0,
        "calib.rep_us": rep_s * 1e6,
    }
    for name in names:
        if name not in out:
            out[name] = next(src[name] for src in (counts, ms, pct) if name in src)
    return out


def main(argv: list[str] | None = None) -> int:
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    config_rel, mode, streams = WORKLOADS[args.workload]
    src, config = ROOT / "src", ROOT / config_rel
    if not (src / "oodstream" / "cli.py").is_file() or not config.is_file():
        print(f"error: {ROOT} holds no oodstream checkout (need src/oodstream and "
              f"{config_rel})", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = environment()
    work = WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    text = config.read_text(encoding="ascii")
    configs = []
    for k in range(streams):
        path = work / f"stream{k}.cfg"
        path.write_text(with_stream_seed(text, args.seed + k * STREAM_STRIDE), encoding="ascii")
        configs.append(str(path))
    ref = args.reference
    ctx = Context(src=str(src), configs=configs, mode=mode, work=work,
                  reference=ref["workloads"][args.workload]
                  if args.seed == ref["default_seed"] else None,
                  tolerance=ref["tolerance"], deadline=deadline)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    ledger = Ledger()
    raw = {}
    try:
        if args.trace:
            metrics = measure_per_layer(ctx, args.seconds, ledger, units)
        else:
            metrics, raw = measure_end_to_end(ctx, args.seconds, ledger)
    except BenchError as exc:
        for failure in ledger.failures:
            print(f"failed: {failure}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = list(os.getloadavg())

    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for name, value in raw.items():
        print(f"info {name} = {value:.6g}")
    for failure in ledger.failures:
        print(f"failed: {failure}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (work / "result.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "env": env, "unscaled": raw, **result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
