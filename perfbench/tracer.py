"""Span tracer that wraps the program's module functions from outside.

Nothing under ``src/`` is edited: while a ``Tracer`` is installed, selected
module attributes (``engine.step``, ``nn.forward_logits``, ...) are replaced
by wrappers that record one span per call. The program resolves these names
through the module at call time, so every call it makes goes through the
wrapper. The private ``nn._loss_and_grad`` is deliberately left unwrapped:
the gradient evaluation of an update episode is measured as the self time
of its ``engine.step`` span instead.

Spans are kept in memory as ``[name, parent, arrival, start_ns, end_ns,
tag]`` lists, where ``parent`` is the index of the enclosing span (-1 for
a root) and ``arrival`` is the stream index of the enclosing
``engine.step`` call (-1 outside the replay). They are summarised, and
optionally written out, after the traced command returns.
"""

from __future__ import annotations

import csv
import math
import time
from contextlib import contextmanager

NS_PER_US = 1_000
NS_PER_MS = 1_000_000

# (module, attribute, span name). The three composers share one span name.
TARGETS = (
    ("data", "make_scenario", "data.make_scenario"),
    ("data", "compose_stream", "data.compose"),
    ("data", "compose_mixed", "data.compose"),
    ("data", "compose_timeseries", "data.compose"),
    ("nn", "train_offline", "nn.train_offline"),
    ("nn", "save_checkpoint", "nn.save_checkpoint"),
    ("nn", "load_checkpoint", "nn.load_checkpoint"),
    ("nn", "forward_logits", "nn.forward_logits"),
    ("nn", "sgd_step", "nn.sgd_step"),
    ("nn", "total_loss", "nn.total_loss"),
    ("scoring", "score", "scoring.score"),
    ("scoring", "predict", "scoring.predict"),
    ("filtering", "classify", "filtering.classify"),
    ("filtering", "update_outlier_margin", "filtering.update_outlier_margin"),
    ("memory", "replace", "memory.replace"),
    ("engine", "init_state", "engine.init_state"),
    ("engine", "step", "engine.step"),
    ("engine", "run_stream", "engine.run_stream"),
    ("engine", "run_posthoc", "engine.run_posthoc"),
    ("metrics", "report", "metrics.report"),
)


def _step_tag(args, result):
    """(decision, contaminated bank write, episode loss decreased)."""
    event, trace = result
    contaminated = event.decision.value == "pseudo_id" and bool(args[3][0])
    descended = trace is not None and trace.losses[-1] < trace.losses[0]
    return event.decision.value, contaminated, descended


def _compose_tag(args, result):
    return len(result)


TAGS = {"engine.step": _step_tag, "data.compose": _compose_tag}


class Tracer:
    """Records nested spans of one traced command."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._arrival = -1

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, self._arrival, 0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        tag = TAGS.get(name)
        is_step = name == "engine.step"

        def traced(*args, **kwargs):
            if is_step:
                self._arrival = args[0].step_counter
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
                if is_step:
                    self._arrival = -1
            if tag is not None:
                rec[5] = tag(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Swap every target for its traced wrapper; restore on exit."""
        saved = []
        try:
            for mod_name, attr, name in TARGETS:
                mod = modules[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="ascii") as f:
            out = csv.writer(f)
            out.writerow(["id", "parent", "name", "arrival", "start_ns", "end_ns", "tag"])
            for i, (name, parent, arrival, start, end, tag) in enumerate(self.spans):
                out.writerow([i, parent, name, arrival, start, end,
                              "" if tag is None else tag])


def self_times(spans: list[list]) -> list[int]:
    """Duration of each span minus the time its direct children cover.

    The program is single-threaded, so children of one span never overlap
    and their durations add up to the covered part of the parent.
    """
    covered = [0] * len(spans)
    for name, parent, _, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[4] - s[3] - covered[i] for i, s in enumerate(spans)]


def percentile(samples: list[int], q: float) -> int:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not samples:
        return 0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def run_breakdown(spans: list[list]) -> tuple[dict, dict, dict]:
    """Split one traced ``run`` command into (counts, per-run ms, samples).

    ``counts`` are exact and must repeat across runs; ``per-run ms`` are
    totals for this run; ``samples`` hold per-call durations in ns, pooled
    across runs by the caller before taking percentiles.
    """
    selfs = self_times(spans)
    counts: dict[str, int] = {
        "nn.forward_logits.calls": 0, "nn.sgd_step.calls": 0,
        "nn.total_loss.calls": 0, "scoring.score.calls": 0,
        "scoring.predict.calls": 0, "filtering.classify.calls": 0,
        "filtering.update_outlier_margin.calls": 0, "memory.replace.calls": 0,
        "metrics.report.calls": 0, "data.arrivals": 0,
        "engine.step.pseudo_id.calls": 0, "engine.step.abstain.calls": 0,
        "engine.step.pseudo_ood.calls": 0, "engine.episode.descended": 0,
        "memory.contaminated_writes": 0,
    }
    ns: dict[str, int] = {
        "data.make_scenario.ms": 0, "data.compose.ms": 0,
        "nn.load_checkpoint.ms": 0, "engine.init_state.ms": 0,
        "engine.run_stream.self_ms": 0, "engine.run_posthoc.ms": 0,
        "engine.step.total_ms": 0, "engine.step.pseudo_ood.total_ms": 0,
        "metrics.report.ms": 0, "cli.run.self_ms": 0,
    }
    samples: dict[str, list[int]] = {
        "nn.forward_logits": [], "nn.sgd_step": [], "nn.total_loss": [],
        "nn.grad_eval": [], "scoring.score": [], "engine.step.self": [],
        "engine.step.pseudo_id": [], "engine.step.abstain": [],
        "engine.step.pseudo_ood": [],
    }
    ms_total = {"data.make_scenario": "data.make_scenario.ms",
                "data.compose": "data.compose.ms",
                "nn.load_checkpoint": "nn.load_checkpoint.ms",
                "engine.init_state": "engine.init_state.ms",
                "engine.run_posthoc": "engine.run_posthoc.ms",
                "metrics.report": "metrics.report.ms"}
    for i, (name, parent, _, start, end, tag) in enumerate(spans):
        dur = end - start
        calls = f"{name}.calls"
        if calls in counts:
            counts[calls] += 1
        if name in samples:
            samples[name].append(dur)
        if name in ms_total:
            ns[ms_total[name]] += dur
        if name == "data.compose":
            counts["data.arrivals"] += tag
        elif name == "engine.run_stream":
            ns["engine.run_stream.self_ms"] += selfs[i]
        elif name == "engine.step":
            decision, contaminated, descended = tag
            counts[f"engine.step.{decision}.calls"] += 1
            samples[f"engine.step.{decision}"].append(dur)
            ns["engine.step.total_ms"] += dur
            if decision == "pseudo_ood":
                ns["engine.step.pseudo_ood.total_ms"] += dur
                samples["nn.grad_eval"].append(selfs[i])
                counts["engine.episode.descended"] += descended
            else:
                samples["engine.step.self"].append(selfs[i])
            counts["memory.contaminated_writes"] += contaminated
        elif name == "cli.run":
            ns["cli.run.self_ms"] += selfs[i]
    per_run_ms = {k: v / NS_PER_MS for k, v in ns.items()}
    return counts, per_run_ms, samples


def pretrain_breakdown(spans: list[list]) -> dict:
    """Set-up side layers of one traced ``pretrain`` command."""
    out = {"nn.train_offline.s": 0.0, "nn.train_offline.sgd_steps": 0,
           "nn.save_checkpoint.ms": 0.0}
    for name, parent, _, start, end, _ in spans:
        if name == "nn.train_offline":
            out["nn.train_offline.s"] += (end - start) / 1e9
        elif name == "nn.save_checkpoint":
            out["nn.save_checkpoint.ms"] += (end - start) / NS_PER_MS
        elif name == "nn.sgd_step" and parent >= 0 and spans[parent][0] == "nn.train_offline":
            out["nn.train_offline.sgd_steps"] += 1
    return out
