"""One fresh process of the benchmark: set up, measure, or trace.

Usage: python3 perfbench/worker.py JOB.json

The job file names the kind of work and its inputs; the worker writes its
raw measurements to ``job["result"]`` as JSON and exits 0. All checks on
the outputs are made by ``run.py``. The program is driven through its real
command line entry point, ``oodstream.cli.main``, in this process.
"""

import time

_T0 = time.perf_counter()  # set-up time starts before the package import

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

CAL_SHARE = 0.1  # calibration time per replay, as a share of the replay's


def _cli(config: str, out: str, *command: str) -> int:
    """Run one CLI command with its console chatter captured."""
    from oodstream import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["--config", config, "--out", out, *command])


def _run_outputs(out: str, mode: str, rc: int, wall_s: float) -> dict:
    """What one ``run`` command produced: hashes, row count, metrics JSON."""
    rec = {"rc": rc, "wall_s": wall_s}
    if rc != 0:
        return rec
    events = (Path(out) / f"{mode}_events.csv").read_bytes()
    metrics = (Path(out) / f"{mode}_metrics.json").read_bytes()
    rec.update(
        events_sha256=hashlib.sha256(events).hexdigest(),
        metrics_sha256=hashlib.sha256(metrics).hexdigest(),
        event_rows=events.count(b"\n") - 2,  # config-hash comment and header
        bytes_written=len(events) + len(metrics),
        metrics=json.loads(metrics),
    )
    return rec


def _timed_run(config: str, out: str, mode: str) -> dict:
    start = time.perf_counter()
    rc = _cli(config, out, "run", "--mode", mode)
    return _run_outputs(out, mode, rc, time.perf_counter() - start)


def _checkpoint_sha256(out: str) -> str:
    return hashlib.sha256((Path(out) / "model.ckpt").read_bytes()).hexdigest()


def setup(job: dict) -> dict:
    """Import the package and pretrain; the time covers both."""
    from oodstream import cli  # noqa: F401  (the import is part of set-up)

    rc = _cli(job["configs"][0], job["out"], "pretrain")
    setup_s = time.perf_counter() - _T0
    return {"rc": rc, "setup_s": setup_s,
            "checkpoint_sha256": _checkpoint_sha256(job["out"]) if rc == 0 else None}


def measure(job: dict) -> dict:
    """Replay the streams in turn, back to back, until the time is up.

    The first run replays stream 0 to warm the process up; it is checked
    but not timed. Then every stream runs at least once, so stream 0 runs
    at least twice and its outputs can be compared byte for byte. The
    calibration loop runs before the first replay and after each one, for
    ``CAL_SHARE`` of the replay's time; a replay's ``rep_s`` is the mean of
    the readings on either side of it.
    """
    import calib

    configs = job["configs"]
    deadline = time.perf_counter() + job["seconds"]
    runs = []
    rep_s = calib.rep_seconds(0.0)
    while len(runs) <= len(configs) or time.perf_counter() < deadline:
        stream = (len(runs) - 1) % len(configs) if runs else 0
        rec = _timed_run(configs[stream], job["out"], job["mode"])
        after = calib.rep_seconds(CAL_SHARE * rec["wall_s"])
        rec.update(stream=stream, rep_s=(rep_s + after) / 2)
        rep_s = after
        runs.append(rec)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"runs": runs, "peak_rss_mb": peak_kib / 1024.0}


def trace(job: dict) -> dict:
    """Traced pretrain, then untraced and traced replays of the first stream."""
    from oodstream import data, engine, filtering, memory, metrics, nn, scoring

    import tracer

    config, out, mode = job["configs"][0], job["out"], job["mode"]
    modules = {"data": data, "engine": engine, "filtering": filtering,
               "memory": memory, "metrics": metrics, "nn": nn, "scoring": scoring}
    pre = tracer.Tracer()
    with pre.installed(modules), pre.span("cli.pretrain"):
        rc = _cli(config, out, "pretrain")
    pretrain = {"rc": rc, **tracer.pretrain_breakdown(pre.spans)}
    if rc != 0:
        return {"pretrain": pretrain}
    pretrain["checkpoint_sha256"] = _checkpoint_sha256(out)
    pretrain["nn.checkpoint_bytes"] = (Path(out) / "model.ckpt").stat().st_size

    deadline = time.perf_counter() + job["seconds"]
    untraced, traced, ms_runs = [], [], []
    samples: dict[str, list[int]] = {}
    while len(traced) < job["min_runs"] or time.perf_counter() < deadline:
        untraced.append(_timed_run(config, out, mode))
        tr = tracer.Tracer()
        start = time.perf_counter()
        with tr.installed(modules), tr.span("cli.run"):
            rc = _cli(config, out, "run", "--mode", mode)
        rec = _run_outputs(out, mode, rc, time.perf_counter() - start)
        counts, per_run_ms, run_samples = tracer.run_breakdown(tr.spans)
        rec["counts"] = counts
        traced.append(rec)
        ms_runs.append(per_run_ms)
        for key, values in run_samples.items():
            samples.setdefault(key, []).extend(values)

    pre.write_csv(Path(out) / "spans_pretrain.csv")
    tr.write_csv(Path(out) / "spans_run.csv")
    pct = {}
    for key, values in samples.items():
        pct[f"{key}.us_p50"] = tracer.percentile(values, 50) / tracer.NS_PER_US
        pct[f"{key}.us_p99"] = tracer.percentile(values, 99) / tracer.NS_PER_US
        pct[f"{key}.samples"] = len(values)
    return {"pretrain": pretrain, "untraced": untraced, "traced": traced,
            "ms": {k: statistics.median(r[k] for r in ms_runs) for k in ms_runs[0]},
            "percentiles": pct}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    result = {"setup": setup, "measure": measure, "trace": trace}[job["kind"]](job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
