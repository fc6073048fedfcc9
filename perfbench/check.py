"""Independent output check of one workload pass.

Coverage is recomputed with the benchmark's own raster: one slice
assignment per inlier, from the public `neighborhood_half_extents`.  The
program's raster (difference array plus cumulative sums) is not used.
Selection, labelling and report consistency are likewise re-derived here
from the files the stages wrote.  Each failure is charged to the stage
whose output it concerns.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics

import numpy as np

from poseconf.confidence_model import load_model, predict
from poseconf.coverage import ImageDims, neighborhood_half_extents

from .workloads import Layout, Workload, input_key, scoring_data, sha256_file

CONFIDENCE_TOL = 1e-12
_FEATURE_COLUMNS = {"inlier_count": 0, "query_coverage": 1, "db_coverage": 2}


def raster_coverage(points, width: int, height: int, hx: int, hy: int) -> float:
    """Covered fraction of the image, marking each inlier's window directly."""
    covered = np.zeros((height, width), dtype=bool)
    for x, y in points:
        covered[max(0, y - hy) : y + hy + 1, max(0, x - hx) : x + hx + 1] = True
    return np.count_nonzero(covered) / (width * height)


def _camera_center(rotation, translation) -> np.ndarray:
    r = np.asarray(rotation, dtype=np.float64).reshape(3, 3)
    return -r.T @ np.asarray(translation, dtype=np.float64)


def correct_at(obj: dict, meters: float, degrees: float) -> bool:
    """Strictly-below-both-bounds correctness of a serialized record."""
    t_err = float(np.linalg.norm(
        _camera_center(obj["rotation"], obj["translation"])
        - _camera_center(obj["gt_rotation"], obj["gt_translation"])
    ))
    r_est = np.asarray(obj["rotation"], dtype=np.float64).reshape(3, 3)
    r_gt = np.asarray(obj["gt_rotation"], dtype=np.float64).reshape(3, 3)
    cos_angle = min(1.0, max(-1.0, (float(np.trace(r_gt.T @ r_est)) - 1.0) / 2.0))
    return t_err < meters and math.degrees(math.acos(cos_angle)) < degrees


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite number {token}")

    return json.loads(text, parse_constant=reject)


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


class Check:
    """Collects failures per stage and the quality numbers the outputs carry."""

    def __init__(self) -> None:
        self.failures: dict[str, list[str]] = {}
        # stay 0 when the output they come from fails its check
        self.model_pr_auc = 0.0
        self.rerank_acc_1m = 0.0
        self.records_scored = 0

    def fail(self, stage: str, message: str) -> None:
        self.failures.setdefault(stage, []).append(message)

    def guarded(self, stage: str, fn, *args) -> None:
        """Run one stage's check; a missing or malformed output is a failure."""
        try:
            fn(*args)
        except Exception as exc:  # any defect in one output must not stop the others' checks
            self.fail(stage, f"{type(exc).__name__}: {exc}")


def check_pass(wl: Workload, chains: list[Layout], expected: dict[str, str]) -> Check:
    """Check every chain; failures are keyed "chain<c>/<stage>"."""
    total = Check()
    aucs, accuracies = [], []
    for layout in chains:
        check = _check_chain(wl, layout, expected)
        for stage, messages in check.failures.items():
            total.failures[f"chain{layout.chain}/{stage}"] = messages
        aucs.append(check.model_pr_auc)
        accuracies.append(check.rerank_acc_1m)
        total.records_scored += check.records_scored
    total.model_pr_auc = statistics.mean(aucs)
    total.rerank_acc_1m = statistics.mean(accuracies)
    return total


def _check_chain(wl: Workload, layout: Layout, expected: dict[str, str]) -> Check:
    check = Check()
    check.guarded("synth", _check_synth, check, layout, expected)
    check.guarded("train", _check_train, check, layout)
    check.guarded("eval", _check_eval, check, layout)
    check.guarded("eval_best", _check_eval_best, check, layout)
    scored: list[dict] = []
    check.guarded("score", _check_score, check, wl, layout, scored)
    if "score" in check.failures:
        check.fail("rerank", "not checked: score output failed its check")
    else:
        check.guarded("rerank", _check_rerank, check, layout, scored)
    return check


def _check_synth(check: Check, layout: Layout, expected: dict[str, str]) -> None:
    if sha256_file(layout.model_set) != expected[input_key(layout, layout.model_set)]:
        check.fail("synth", "model set differs from the seeded generator's bytes")


def _check_train(check: Check, layout: Layout) -> None:
    load_model(layout.model)
    test, train = _read_lines(layout.test), _read_lines(layout.train)
    test_q = {json.loads(line)["query_id"] for line in test}
    train_q = {json.loads(line)["query_id"] for line in train}
    if not test or not train or test_q & train_q:
        check.fail("train", "split is empty or shares queries across sides")


def _report(path: str) -> dict:
    with open(os.path.join(path, "report.json"), "r", encoding="utf-8") as fh:
        return _strict_json(fh.read())


def _finite_auc(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0


def _check_eval(check: Check, layout: Layout) -> None:
    report = _report(layout.eval_dir)
    model_auc, inliers_auc = report["model_auc"], report["inliers_auc"]
    if not (_finite_auc(model_auc) and _finite_auc(inliers_auc)):
        check.fail("eval", f"AUCs not finite: {model_auc!r}, {inliers_auc!r}")
        return
    if not model_auc > inliers_auc:
        check.fail("eval", f"model AUC {model_auc} not above inlier AUC {inliers_auc}")
    if report["n_records"] != len(_read_lines(layout.test)):
        check.fail("eval", "report counts a different number of records than the split")
    if not report["ablation"] or not all(_finite_auc(row["auc"]) for row in report["ablation"]):
        check.fail("eval", "ablation table missing or not finite")
    check.model_pr_auc = model_auc


def _check_eval_best(check: Check, layout: Layout) -> None:
    report = _report(layout.eval_best_dir)
    n_queries = len({json.loads(line)["query_id"] for line in _read_lines(layout.test)})
    if report["n_records"] != n_queries:
        check.fail("eval_best", f"{report['n_records']} records for {n_queries} queries")
    primary = report["thresholds"][0]
    if report["degenerate"]:
        # a small held-out split can select only correct (or only wrong) poses
        single_class = primary["n_positive"] in (0, primary["n_records"])
        if not single_class or report["model_auc"] is not None:
            check.fail("eval_best", "degenerate report with mixed labels or an AUC")
    elif not (_finite_auc(report["model_auc"]) and _finite_auc(report["inliers_auc"])):
        check.fail("eval_best", "AUCs not finite")


def _check_score(check: Check, wl: Workload, layout: Layout, scored: list[dict]) -> None:
    model = load_model(layout.model)
    params = model.coverage_params()
    columns = [_FEATURE_COLUMNS[name] for name in model.feature_set]
    inputs = _read_lines(scoring_data(wl, layout))
    outputs = _read_lines(layout.scored)
    if len(inputs) != len(outputs):
        check.fail("score", f"{len(outputs)} scored records for {len(inputs)} inputs")
        return
    rows, confidences = [], []
    for i, (source, line) in enumerate(zip(inputs, outputs)):
        obj = _strict_json(line)
        # the record must come back unchanged, with a confidence added
        if {k: v for k, v in obj.items() if k != "confidence"} != json.loads(source):
            check.fail("score", f"record {i} altered by scoring")
            return
        features = [float(len(obj["query_inliers"]))]
        for side in ("query", "db"):
            dims = ImageDims(obj[f"{side}_width"], obj[f"{side}_height"])
            hx, hy = neighborhood_half_extents(dims, params)
            features.append(raster_coverage(obj[f"{side}_inliers"], dims.width, dims.height, hx, hy))
        rows.append([features[c] for c in columns])
        confidences.append(obj["confidence"])
        scored.append(obj)
    expected = np.atleast_1d(predict(model, np.asarray(rows, dtype=np.float64).reshape(len(rows), -1)))
    worst = float(np.max(np.abs(expected - np.asarray(confidences)))) if rows else 0.0
    if not worst <= CONFIDENCE_TOL:
        check.fail("score", f"confidence off by {worst:.3g} from the recomputed coverage")
    check.records_scored = len(outputs)


def _check_rerank(check: Check, layout: Layout, scored: list[dict]) -> None:
    groups: dict[str, list[dict]] = {}
    for obj in scored:
        groups.setdefault(obj["query_id"], []).append(obj)
    # select_best's order: confidence, then more inliers, then lower rank
    chosen = [
        max(g, key=lambda o: (o["confidence"], len(o["query_inliers"]), -o["candidate_rank"]))
        for g in groups.values()
    ]
    selections = [_strict_json(line) for line in _read_lines(os.path.join(layout.rerank_dir, "selections.jsonl"))]
    if len(selections) != len(chosen):
        check.fail("rerank", f"{len(selections)} selections for {len(chosen)} queries")
        return
    for want, got in zip(chosen, selections):
        if (got["query_id"], got["candidate_rank"]) != (want["query_id"], want["candidate_rank"]) or abs(
            got["confidence"] - want["confidence"]
        ) > CONFIDENCE_TOL:
            check.fail("rerank", f"query {want['query_id']}: selection is not the argmax")
            return
    with open(os.path.join(layout.rerank_dir, "accuracy.csv"), newline="", encoding="utf-8") as fh:
        rows = {float(r["threshold_m"]): float(r["model_accuracy"]) for r in csv.DictReader(fh)}
    reported = rows[1.0]
    recomputed = sum(correct_at(o, 1.0, 10.0) for o in chosen) / len(chosen)
    if abs(reported - recomputed) > CONFIDENCE_TOL:
        check.fail("rerank", f"accuracy at 1 m is {reported}, recomputed {recomputed}")
    check.rerank_acc_1m = reported
