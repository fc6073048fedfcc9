"""In-process tracing of the poseconf CLI for per-layer numbers.

The tracer replaces public functions with timing wrappers at the module
attribute each caller looks them up through (for example
`poseconf.cli.read_records` or `poseconf.features.coverage_map`), so no
program file is edited.  Spans (name, layer, start, end, parent, stage,
info) are kept in memory and written out once the run ends; per-layer self
times are derived from them afterwards.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import tracemalloc
from collections import Counter

import numpy as np

import poseconf.cli
import poseconf.confidence_model
import poseconf.evaluation
import poseconf.features
from poseconf.coverage import CoverageParams, coverage_map
from poseconf.dataset_io import SynthConfig, synth_generate

from .workloads import STAGES

COVERAGE_SIZES = ("320x240", "1600x1200", "4032x3024")
PROBE_MAPS = 5  # seeded probe inputs per image size


def _read_info(args, kwargs, result):
    pairs = sum(r.inlier_count for r in result)
    return {"bytes": os.path.getsize(args[0]), "records": len(result), "inlier_pairs": pairs}


def _write_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _train_info(args, kwargs, result):
    return {"epochs": result.epochs_run, "final_loss": result.final_loss}


def _rows_info(args, kwargs, result):
    return {"rows": int(np.shape(result)[0])}


def _record_info(args, kwargs, result):
    record = args[0]
    return {"rows": 1, "record": [record.query_id, record.candidate_rank]}


def _map_info(args, kwargs, result):
    dims = args[0].dims
    return {"size": f"{dims.width}x{dims.height}"}


# (module, attribute, layer, span name, info) for every wrapped entry point
WRAP_POINTS = (
    (poseconf.cli, "read_records", "dataset_io", "read", _read_info),
    (poseconf.cli, "write_records", "dataset_io", "write", _write_info),
    (poseconf.cli, "serialize_record", "dataset_io", "serialize", None),
    (poseconf.cli, "synth_generate", "dataset_io", "synth", None),
    (poseconf.cli, "label_records", "pose_metrics", "label", None),
    (poseconf.cli, "train", "confidence_model", "train", _train_info),
    (poseconf.cli, "load_model", "confidence_model", "io", None),
    (poseconf.cli, "save_model", "confidence_model", "io", None),
    (poseconf.cli, "predict_record", "confidence_model", "predict", None),
    (poseconf.cli, "pr_curve_from_scores", "evaluation", "pr", None),
    (poseconf.cli, "ablation", "evaluation", "ablation", None),
    (poseconf.cli, "select_best", "evaluation", "select", None),
    (poseconf.cli, "select_max_inliers", "evaluation", "select", None),
    (poseconf.cli, "accuracy_at", "evaluation", "accuracy", None),
    (poseconf.cli, "line_plot_svg", "plots", "svg", None),
    (poseconf.cli, "write_svg", "plots", "svg", None),
    (poseconf.confidence_model, "feature_matrix", "features", "matrix", _rows_info),
    (poseconf.confidence_model, "assemble", "features", "assemble", _record_info),
    (poseconf.confidence_model, "train_features", "confidence_model", "fit", _train_info),
    (poseconf.confidence_model, "predict", "confidence_model", "predict", None),
    (poseconf.evaluation, "feature_matrix", "features", "matrix", _rows_info),
    (poseconf.evaluation, "train_features", "confidence_model", "fit", _train_info),
    (poseconf.evaluation, "predict", "confidence_model", "predict", None),
    (poseconf.evaluation, "pr_curve_from_scores", "evaluation", "pr", None),
    (poseconf.evaluation, "select_best", "evaluation", "select", None),
    (poseconf.features, "assemble", "features", "assemble", _record_info),
    (poseconf.features, "coverage_map", "coverage", "map", _map_info),
    (poseconf.features, "coverage_score", "coverage", "score", None),
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "stage", "info")

    def __init__(self, name, layer, start, parent, stage):
        self.name, self.layer, self.start, self.parent, self.stage = name, layer, start, parent, stage
        self.end = start
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._stage: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, time.perf_counter(), parent, self._stage)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, layer: str, name: str, info=None):
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, layer, name, info in WRAP_POINTS:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, layer, name, info))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def run_stage(self, stage: str, fn):
        """Run one CLI stage as the root span of its own subtree."""
        self._stage = stage
        span = self._open(stage, "cli")
        try:
            return fn()
        finally:
            self._close(span)
            self._stage = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
                    "parent": s.parent, "stage": s.stage, "info": s.info,
                }, separators=(",", ":")) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def wrapper_cost_s(calls: int = 20000) -> float:
    """Median extra seconds one traced call costs over a plain call (computed)."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "calibration", "noop")
    samples = []
    for _ in range(5):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(samples), 0.0)


def _probe_inliers(size: str, seed: int):
    width, height = (int(v) for v in size.split("x"))
    config = SynthConfig(queries=1, candidates_per_query=PROBE_MAPS, width=width, height=height)
    return [r.query_inliers for r in synth_generate(config, seed)]


def _peak_alloc_mb(inliers) -> float:
    tracemalloc.start()
    try:
        coverage_map(inliers, CoverageParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def layer_metrics(tracer: Tracer, stage_wall: dict[str, float], seed: int) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and facts about how they were made."""
    spans = tracer.spans
    own = self_times(spans)

    def self_sum(layer, *names):
        return sum(t for s, t in zip(spans, own) if s.layer == layer and (not names or s.name in names))

    def infos(name):
        return [s.info for s in spans if s.name == name and s.info is not None]

    reads, writes = infos("read"), infos("write")
    parse_s = self_sum("dataset_io", "read")
    records_read = sum(i["records"] for i in reads)
    maps = [s for s in spans if s.name == "map"]
    m: dict[str, tuple[float, str]] = {
        "dataset_io.parse_s": (parse_s, "s"),
        "dataset_io.parse_inliers_per_s": (sum(i["inlier_pairs"] for i in reads) / parse_s if parse_s else 0.0, "1/s"),
        "dataset_io.serialize_s": (self_sum("dataset_io", "write", "serialize"), "s"),
        "dataset_io.synth_s": (self_sum("dataset_io", "synth"), "s"),
        "dataset_io.bytes_read": (sum(i["bytes"] for i in reads), "bytes"),
        "dataset_io.bytes_written": (sum(i["bytes"] for i in writes), "bytes"),
        "coverage.calls": (len(maps), "count"),
        "coverage.calls_per_image": (len(maps) / (2 * records_read) if records_read else 0.0, "ratio"),
    }
    facts = {"coverage_map_source": {}}
    for size in COVERAGE_SIZES:
        durations = [s.duration for s in maps if s.info and s.info["size"] == size]
        probes = _probe_inliers(size, seed)
        if durations:
            facts["coverage_map_source"][size] = f"{len(durations)} traced calls"
        else:
            # the workload never maps this size: time the seeded probes instead
            for inliers in probes:
                t0 = time.perf_counter()
                coverage_map(inliers, CoverageParams())
                durations.append(time.perf_counter() - t0)
            facts["coverage_map_source"][size] = f"{len(probes)} seeded probe calls"
        m[f"coverage.map_ms.{size}"] = (1000 * statistics.median(durations), "ms")
        m[f"coverage.peak_alloc_mb.{size}"] = (statistics.median(_peak_alloc_mb(p) for p in probes), "MB")

    feature_roots = [
        s for s in spans
        if s.layer == "features" and (s.parent is None or spans[s.parent].layer != "features")
    ]
    fits = [s for s in spans if s.name == "fit"]
    trains = [s.info for s in spans if s.layer == "confidence_model" and s.name == "train" and s.info]
    # scoring passes: how often eval --best-only assembles features of one record
    passes = Counter(
        tuple(s.info["record"]) for s in spans if s.name == "assemble" and s.stage == "eval_best" and s.info
    )
    m.update({
        "features.self_s": (self_sum("features"), "s"),
        "features.rows": (sum(s.info["rows"] for s in feature_roots if s.info), "count"),
        "confidence_model.fit_s": (self_sum("confidence_model", "fit", "train"), "s"),
        "confidence_model.fits": (len(fits), "count"),
        # the train stage's fits: epochs summed over the chains, the median final loss
        "confidence_model.epochs": (sum(i["epochs"] for i in trains), "count"),
        "confidence_model.final_loss": (statistics.median(i["final_loss"] for i in trains) if trains else 0.0, "nats"),
        "confidence_model.predict_s": (self_sum("confidence_model", "predict"), "s"),
        "confidence_model.io_s": (self_sum("confidence_model", "io"), "s"),
        "evaluation.pr_s": (self_sum("evaluation", "pr"), "s"),
        "evaluation.ablation_self_s": (self_sum("evaluation", "ablation"), "s"),
        "evaluation.select_s": (self_sum("evaluation", "select"), "s"),
        "evaluation.accuracy_s": (self_sum("evaluation", "accuracy"), "s"),
        "evaluation.score_passes_per_record": (max(passes.values(), default=0), "count"),
        "pose_metrics.label_s": (self_sum("pose_metrics"), "s"),
        "plots.svg_s": (self_sum("plots"), "s"),
    })
    for stage in STAGES:
        m[f"cli.stage_s.{stage}"] = (stage_wall.get(stage, 0.0), "s")
        m[f"cli.self_s.{stage}"] = (self_sum("cli", stage), "s")
    cost = wrapper_cost_s()
    wrapped = sum(1 for s in spans if s.layer != "cli")
    m["trace.overhead_s"] = (wrapped * cost, "s")
    facts["trace_overhead"] = (
        f"computed: {wrapped} wrapped calls x {cost * 1e6:.3f} us calibrated per-call cost"
    )
    coverage_s = sum(s.duration for s in spans if s.layer == "coverage" and s.stage == "score")
    if stage_wall.get("score"):
        facts["coverage_share_of_score"] = coverage_s / stage_wall["score"]
    return m, facts
