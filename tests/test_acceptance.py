"""Acceptance battery.

Each test prints one summary line (run with `pytest tests/test_acceptance.py
-v -s` to see them all); tolerances and instance counts are pinned and must
not be loosened.  Criteria 6-9 share one deterministic seed-42 fixture:
generate the adversarial benchmark, split by query, train the three-feature
model at the (1 m, 10 deg) labeling, then measure PR-AUC, ablations,
reranking accuracy, and threshold transfer on the held-out side.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from poseconf.cli import main as cli_main
from poseconf.confidence_model import (
    from_json_dict,
    gradient,
    load_model,
    nll_loss,
    predict_record,
    save_model,
    score_records,
    to_json_dict,
    train,
    train_features,
)
from poseconf.coverage import (
    CoverageParams,
    ImageDims,
    InlierSet,
    coverage_fraction,
    coverage_map,
    coverage_score,
    neighborhood_half_extents,
)
from poseconf.dataset_io import (
    SplitSpec,
    SynthConfig,
    build_extended,
    group_by_query,
    grouped_split,
    label_records,
    parse_record,
    parse_records,
    read_records,
    record_lines,
    serialize_record,
    synth_generate,
)
from poseconf.errors import NoPositives
from poseconf.evaluation import (
    ablation,
    accuracy_at,
    pr_curve_from_scores,
    select_best,
    select_max_inliers,
    sweep_scores,
)
from poseconf.features import DEFAULT_FEATURE_SET, feature_matrix
from poseconf.pose_metrics import ErrorThreshold


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else f"FAIL ({detail})" if detail else "FAIL"
    print(f"criterion {num:02d} {name}: {status}")
    assert ok, f"criterion {num:02d} {name}: {detail or 'failed'}"


# ---------------------------------------------------------------------------
# shared seed-42 fixture (criteria 6-9)


@pytest.fixture(scope="module")
def bench():
    started = time.perf_counter()
    records = synth_generate(SynthConfig(), seed=42)
    extended = build_extended(records)
    train_records, test_records = grouped_split(extended, SplitSpec(0.75, seed=42))
    train_labels = label_records(train_records)
    test_labels = label_records(test_records)
    model = train(train_records, train_labels).model

    test_scores = np.asarray([predict_record(model, r) for r in test_records])
    test_counts = np.asarray([float(r.inlier_count) for r in test_records])
    extended_model_auc = pr_curve_from_scores(test_scores, test_labels).auc
    extended_inliers_auc = pr_curve_from_scores(test_counts, test_labels).auc

    # best-candidate subset: the gamma-selected pose of every held-out query
    picks = []
    for group in group_by_query(test_records).values():
        picks.append(group[select_best(group, score_records(model, group))])
    pick_labels = label_records(picks)
    pick_scores = [predict_record(model, r) for r in picks]
    pick_counts = [float(r.inlier_count) for r in picks]
    best_model_auc = pr_curve_from_scores(pick_scores, pick_labels).auc
    best_inliers_auc = pr_curve_from_scores(pick_counts, pick_labels).auc
    elapsed = time.perf_counter() - started

    return {
        "train_records": train_records,
        "train_labels": train_labels,
        "test_records": test_records,
        "test_labels": test_labels,
        "model": model,
        "extended_margin": extended_model_auc - extended_inliers_auc,
        "best_margin": best_model_auc - best_inliers_auc,
        "elapsed_s": elapsed,
    }


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_coverage_oracle_equivalence():
    rng = np.random.default_rng(1234)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        w = int(rng.integers(1, 65))
        h = int(rng.integers(1, 65))
        n = int(rng.integers(0, 51))
        inliers = InlierSet(
            np.column_stack([rng.uniform(0, w, size=n), rng.uniform(0, h, size=n)]),
            ImageDims(w, h),
        )
        fast = coverage_map(inliers).covered
        hx, hy = neighborhood_half_extents(inliers.dims)
        if n == 0:
            brute = np.zeros((h, w), dtype=bool)
        else:
            px = inliers.points[:, 0][:, None, None]
            py = inliers.points[:, 1][:, None, None]
            brute = np.any(
                (np.abs(np.arange(w)[None, None, :] - px) <= hx)
                & (np.abs(np.arange(h)[None, :, None] - py) <= hy),
                axis=0,
            )
        # both the raster and the raster-free score must match the oracle
        exact = coverage_fraction(inliers) == np.count_nonzero(brute) / (w * h)
        if not (np.array_equal(fast, brute) and exact):
            mismatches += 1
    elapsed = time.perf_counter() - started
    _report(
        1,
        "coverage-oracle-equivalence",
        mismatches == 0 and elapsed < 5.0,
        f"{mismatches} mismatches in 500 instances, {elapsed:.2f}s",
    )


def test_criterion_02_coverage_hand_cases():
    dims = ImageDims(30, 30)
    center = coverage_score(coverage_map(InlierSet(np.array([[15, 15]]), dims)))
    corner = coverage_score(coverage_map(InlierSet(np.array([[0, 0]]), dims)))
    ok = (
        neighborhood_half_extents(dims) == (1, 1)
        and center == 9 / 900
        and corner == 4 / 900
    )
    _report(2, "coverage-hand-cases", ok, f"center={center}, corner={corner}")


def test_criterion_03_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    h = 1e-5
    worst = 0.0
    from poseconf.confidence_model import TrainData

    for _ in range(100):
        n = int(rng.integers(2, 60))
        k = int(rng.integers(1, 5))
        data = TrainData(
            rng.normal(size=(n, k)),
            rng.integers(0, 2, size=n).astype(float),
        )
        w = rng.normal(scale=2.0, size=k)
        b = float(rng.normal(scale=2.0))
        grad_w, grad_b = gradient(w, b, data)

        fd = np.zeros(k + 1)
        for i in range(k):
            up, down = w.copy(), w.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (nll_loss(up, b, data) - nll_loss(down, b, data)) / (2 * h)
        fd[k] = (nll_loss(w, b + h, data) - nll_loss(w, b - h, data)) / (2 * h)

        analytic = np.append(grad_w, grad_b)
        rel = float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12))
        worst = max(worst, rel)
    _report(
        3,
        "gradient-finite-difference",
        worst < 1e-5,
        f"worst relative error {worst:.3g}",
    )


def test_criterion_04_intercept_only_training():
    ok = True
    details = []
    for n_pos, n in ((3, 10), (7, 10), (1, 4)):
        labels = np.array([1.0] * n_pos + [0.0] * (n - n_pos))
        x = np.zeros((n, 1))  # constant feature standardizes away
        result = train_features(x, labels, ("inlier_count",))
        target = math.log(n_pos / (n - n_pos))
        gap = abs(result.model.bias - target)
        history = np.array(result.loss_history)
        monotone = bool(np.all(np.diff(history) <= 0.0))
        rerun = train_features(x, labels, ("inlier_count",))
        identical = (
            np.array_equal(result.model.weights, rerun.model.weights)
            and result.model.bias == rerun.model.bias
            and result.model == rerun.model
        )
        if gap >= 1e-3 or not monotone or not identical:
            ok = False
        details.append(f"p={n_pos}/{n}: |b-logit| = {gap:.2e}")
    _report(4, "intercept-only-training", ok, "; ".join(details))


def _oracle_pr(scores, labels):
    total_pos = sum(labels)
    points = []
    for t in sorted(set(scores), reverse=True):
        kept = [lab for s, lab in zip(scores, labels) if s >= t]
        tp = sum(kept)
        points.append((tp / total_pos, tp / len(kept)))
    points.insert(0, (0.0, points[0][1]))
    area = sum(
        (r1 - r0) * (p0 + p1) / 2.0
        for (r0, p0), (r1, p1) in zip(points, points[1:])
    )
    return points, area


def test_criterion_05_pr_auc_oracle():
    rng = np.random.default_rng(4321)
    worst = 0.0
    point_mismatch = 0
    for trial in range(1000):
        n = int(rng.integers(1, 31))
        # alternate heavy-tie and mostly-distinct score regimes
        if trial % 2 == 0:
            scores = (rng.integers(0, 8, size=n) / 4.0).tolist()
        else:
            scores = rng.normal(size=n).tolist()
        labels = rng.integers(0, 2, size=n).tolist()
        if sum(labels) == 0:
            labels[int(rng.integers(0, n))] = 1
        curve = pr_curve_from_scores(scores, labels)
        want_points, want_area = _oracle_pr(scores, labels)
        if len(curve.points) != len(want_points) or not np.allclose(
            curve.points, want_points, atol=1e-12, rtol=0.0
        ):
            point_mismatch += 1
        worst = max(worst, abs(curve.auc - want_area))

    rng2 = np.random.default_rng(8)
    base_scores = rng2.normal(size=50)
    base_labels = (rng2.uniform(size=50) < 0.4).astype(int)
    base_labels[0] = 1
    base = pr_curve_from_scores(base_scores, base_labels)
    invariant = all(
        pr_curve_from_scores(transform(base_scores), base_labels) == base
        for transform in (lambda s: 2.0 * s + 5.0, lambda s: s**3, np.tanh)
    )
    _report(
        5,
        "pr-auc-oracle",
        worst <= 1e-12 and point_mismatch == 0 and invariant,
        f"worst |dAUC| = {worst:.3g}, {point_mismatch} point mismatches, "
        f"transform-invariant = {invariant}",
    )


def test_criterion_06_full_model_beats_inlier_count(bench):
    ok = (
        bench["extended_margin"] >= 0.03
        and bench["best_margin"] >= 0.03
        and bench["elapsed_s"] < 30.0
    )
    _report(
        6,
        "full-model-beats-inlier-count",
        ok,
        f"extended margin {bench['extended_margin']:+.4f}, "
        f"best-candidate margin {bench['best_margin']:+.4f}, "
        f"{bench['elapsed_s']:.1f}s",
    )


def test_criterion_07_ablation_ranks_full_model_first(bench):
    full = DEFAULT_FEATURE_SET
    leave_one_out = [tuple(f for f in full if f != name) for name in full]
    rows = ablation(
        bench["train_records"],
        bench["train_labels"],
        feature_matrix(bench["test_records"], full),
        full,
        bench["test_labels"],
        [full] + leave_one_out,
    )
    table = dict(rows)
    full_auc = table[full]
    margins = {
        "+".join(subset): full_auc - table[subset] for subset in leave_one_out
    }
    ok = all(margin >= 0.0 for margin in margins.values())
    _report(
        7,
        "ablation-full-model-first",
        ok,
        ", ".join(f"vs {k}: {v:+.4f}" for k, v in margins.items()),
    )


def test_criterion_08_rerank_accuracy_sweep(bench):
    groups = list(group_by_query(bench["test_records"]).values())
    model_picks = [g[select_best(g, score_records(bench["model"], g))] for g in groups]
    count_picks = [g[select_max_inliers(g)] for g in groups]
    thresholds = [ErrorThreshold(m, 10.0) for m in np.arange(0.25, 2.01, 0.25)]
    model_curve = [accuracy_at(model_picks, t) for t in thresholds]
    count_curve = [accuracy_at(count_picks, t) for t in thresholds]
    dominates = all(m >= c for m, c in zip(model_curve, count_curve))
    monotone = model_curve == sorted(model_curve) and count_curve == sorted(count_curve)
    _report(
        8,
        "rerank-accuracy-sweep",
        dominates and monotone,
        f"model {['%.3f' % v for v in model_curve]} vs "
        f"baseline {['%.3f' % v for v in count_curve]}",
    )


def test_criterion_09_threshold_transfer(bench):
    thresholds = [ErrorThreshold(m, 10.0) for m in (1.5, 1.0, 0.5, 0.25)]
    test_records = bench["test_records"]
    rows = sweep_scores(test_records, score_records(bench["model"], test_records), thresholds)
    ok = (
        len(rows) == 4
        and not any(row.degenerate for row in rows)
        and all(row.model_auc >= row.inliers_auc for row in rows)
    )
    _report(
        9,
        "threshold-transfer",
        ok,
        "; ".join(
            f"{row.threshold.max_translation_m}m: "
            f"{'degenerate' if row.degenerate else '%+.4f' % (row.model_auc - row.inliers_auc)}"
            for row in rows
        ),
    )


def _run_pipeline(root):
    data = os.path.join(root, "bench.jsonl")
    model = os.path.join(root, "model.json")
    test_split = os.path.join(root, "test.jsonl")
    train_split = os.path.join(root, "train.jsonl")
    eval_dir = os.path.join(root, "eval")
    rerank_dir = os.path.join(root, "rerank")
    steps = [
        ["synth", "--queries", "40", "--candidates", "6", "--width", "160",
         "--height", "120", "--seed", "3", "--out", data],
        ["train", "--data", data, "--out", model, "--seed", "3",
         "--test-out", test_split, "--train-out", train_split],
        ["eval", "--data", test_split, "--model", model, "--out-dir", eval_dir,
         "--thresholds", "1.0,10;0.5,10"],
        ["rerank", "--data", test_split, "--model", model, "--out-dir", rerank_dir],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, argv[0]
    snapshot = {}
    for dirpath, _, filenames in os.walk(root):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            with open(path, "rb") as fh:
                snapshot[os.path.relpath(path, root)] = fh.read()
    return snapshot


def test_criterion_10_pipeline_determinism(tmp_path):
    root = str(tmp_path)
    first = _run_pipeline(root)
    second = _run_pipeline(root)  # same paths: absolute names match in manifests
    assert set(first) == set(second)
    unstable = []
    for name in sorted(first):
        if first[name] == second[name]:
            continue
        if name.endswith("manifest.json"):
            a = json.loads(first[name])
            b = json.loads(second[name])
            a.pop("duration_s", None)
            b.pop("duration_s", None)
            if a == b:
                continue  # wall time is the only tolerated difference
        unstable.append(name)
    _report(
        10,
        "pipeline-determinism",
        not unstable,
        f"unstable files: {unstable}" if unstable else f"{len(first)} files stable",
    )


def test_criterion_11_format_round_trip(bench, tmp_path):
    records = synth_generate(
        SynthConfig(queries=8, candidates_per_query=4, width=96, height=72,
                    include_pv=True, junk_fraction=0.1),
        seed=11,
    )
    records_ok = all(parse_record(serialize_record(r)) == r for r in records)
    stream_ok = parse_records(record_lines(records)) == records

    model = bench["model"]
    dict_ok = from_json_dict(to_json_dict(model)) == model
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    file_ok = loaded == model
    sample = bench["test_records"][:50]
    scores_ok = [predict_record(model, r) for r in sample] == [
        predict_record(loaded, r) for r in sample
    ]
    ok = records_ok and stream_ok and dict_ok and file_ok and scores_ok
    _report(
        11,
        "format-round-trip",
        ok,
        f"records={records_ok}, stream={stream_ok}, model_dict={dict_ok}, "
        f"model_file={file_ok}, scores_identical={scores_ok}",
    )


def test_criterion_12_real_records_optional(tmp_path):
    data = os.environ.get("POSECONF_REAL_RECORDS")
    if not data:
        print("criterion 12 real-records: SKIP (set POSECONF_REAL_RECORDS to run)")
        pytest.skip("no real record file supplied via POSECONF_REAL_RECORDS")
    model = str(tmp_path / "model.json")
    eval_dir = str(tmp_path / "eval")
    test_split = str(tmp_path / "test.jsonl")
    assert cli_main(["train", "--data", data, "--out", model,
                     "--test-out", test_split]) == 0
    assert cli_main(["eval", "--data", test_split, "--model", model,
                     "--out-dir", eval_dir]) == 0
    report = json.loads(open(os.path.join(eval_dir, "report.json")).read())
    ok = (
        not report["degenerate"]
        and report["model_auc"] > report["inliers_auc"]
    )
    _report(
        12,
        "real-records",
        ok,
        f"model {report['model_auc']} vs inliers {report['inliers_auc']}",
    )
