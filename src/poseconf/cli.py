"""Command-line pipeline: synth / train / score / eval / rerank.

Every subcommand is deterministic given its flags (all randomness flows
through explicit seeds) and drops a run manifest next to its outputs, so
a rerun can be audited byte-for-byte.  Exit codes: 0 success, 1 data or
model error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
import time
from typing import Sequence

import numpy as np

from . import __version__
from .confidence_model import load_model, predict, save_model, score_records, train
from .dataset_io import (
    SplitSpec,
    SynthConfig,
    build_extended,
    group_by_query,
    grouped_split,
    label_records,
    read_records,
    synth_generate,
    write_records,
)
from .errors import EmptyDataset, InvalidConfig, InvariantViolation, PoseconfError
from .evaluation import (
    ablation,
    accuracy_at,
    pr_curve_from_scores,
    select_max_inliers,
    select_per_query,
    sweep_scores,
)
from .features import FEATURE_INLIER_COUNT, feature_matrix, parse_feature_set
from .fileio import atomic_open, check_writable
from .plots import line_plot_svg, write_svg
from .pose_metrics import ErrorThreshold

# Bound but not called: the benchmark tracer (perfbench/trace.py) wraps these here.
from .confidence_model import predict_record  # noqa: F401
from .dataset_io import serialize_record  # noqa: F401
from .evaluation import select_best  # noqa: F401


def _file_key(path: str) -> tuple[str, tuple[int, int] | None]:
    """The resolved path, and the (device, inode) pair of an existing file,
    which finds hard links too."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path), None
    return os.path.realpath(path), (st.st_dev, st.st_ino)


class _Files:
    """A command's files, named once before it reads any.

    `inputs` maps flags to paths (None when not given).  `outputs` does too,
    and the manifest goes beside `--out`; with `out_dir`, `outputs` lists
    file names in that directory, which the command makes, and the manifest
    is its manifest.json.  An output that `check_writable` refuses fails, and
    one that is the same file as another output or an input is a usage error.
    """

    def __init__(self, inputs: dict, outputs: dict | Sequence[str], out_dir: str | None = None):
        if out_dir is None:
            outputs = {**outputs, "the manifest of --out": outputs["--out"] + ".manifest.json"}
        else:
            outputs = {name: os.path.join(out_dir, name) for name in [*outputs, "manifest.json"]}
        inputs = {name: path for name, path in inputs.items() if path}
        outputs = {name: path for name, path in outputs.items() if path}
        check_writable(*outputs.values(), make_dirs=out_dir is not None)
        named = [(name, _file_key(path)) for name, path in inputs.items()]
        for name, path in outputs.items():
            real, inode = key = _file_key(path)
            for other, (other_real, other_inode) in named:
                if real == other_real or (inode is not None and inode == other_inode):
                    raise InvalidConfig(f"{other} and {name} name the same file {path!r}")
            named.append((name, key))
        self.inputs = list(inputs.values())
        *written, (_, self.manifest) = outputs.items()
        self.outputs = dict(written)  # what the manifest lists as written

    def write_manifest(
        self, subcommand: str, args: argparse.Namespace, started: float, facts: dict | None = None
    ) -> None:
        """Write the run manifest; `facts` adds deterministic results of the run."""
        config = {k: v for k, v in vars(args).items() if k not in ("handler", "subcommand")}
        manifest = {
            **(facts or {}),
            "subcommand": subcommand,
            "tool_version": __version__,
            "config": config,
            "inputs": self.inputs,
            "outputs": list(self.outputs.values()),
            "seed": getattr(args, "seed", None),
            "duration_s": round(time.perf_counter() - started, 6),
        }
        with atomic_open(self.manifest, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def _threshold(meters: float, degrees: float) -> ErrorThreshold:
    """A threshold from flag values; one out of range is a usage error."""
    try:
        return ErrorThreshold(meters, degrees)
    except InvariantViolation as exc:
        raise InvalidConfig(exc.description) from None


def _parse_threshold_list(text: str) -> list[ErrorThreshold]:
    """Parse '1.5,10;1.0,10' into thresholds (meters, degrees per entry)."""
    thresholds = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise InvalidConfig(
                f"threshold entry {chunk!r} is not 'meters,degrees'"
            )
        try:
            meters, degrees = float(parts[0]), float(parts[1])
        except ValueError:
            raise InvalidConfig(f"threshold entry {chunk!r} is not numeric") from None
        thresholds.append(_threshold(meters, degrees))
    if not thresholds:
        raise InvalidConfig("no thresholds given")
    return thresholds


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise InvalidConfig(f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise InvalidConfig("no values given")
    return values


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    config = SynthConfig(
        queries=args.queries,
        candidates_per_query=args.candidates,
        width=args.width,
        height=args.height,
        adversarial_fraction=args.adversarial_fraction,
        junk_fraction=args.junk_fraction,
        include_pv=args.include_pv,
    )
    files = _Files({}, {"--out": args.out})
    records = synth_generate(config, args.seed)
    write_records(records, args.out)
    files.write_manifest("synth", args, started)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    threshold = _threshold(args.threshold_m, args.threshold_deg)
    feature_set = parse_feature_set(args.features)
    spec = SplitSpec(args.split, args.seed)
    files = _Files(
        {"--data": args.data},
        {"--out": args.out, "--test-out": args.test_out, "--train-out": args.train_out},
    )
    loaded = read_records(args.data)
    records = build_extended(loaded)
    labels = label_records(records, threshold)  # validates ground truth up front
    train_records, test_records = grouped_split(records, spec)
    train_ids = {r.query_id for r in train_records}  # grouped_split keeps input order
    result = train(train_records, labels[[r.query_id in train_ids for r in records]], feature_set)

    save_model(result.model, args.out)
    if args.test_out:
        write_records(test_records, args.test_out)
    if args.train_out:
        write_records(train_records, args.train_out)
    facts = {
        "build_extended": {"n_in": len(loaded), "n_dropped": len(loaded) - len(records)},
        "fit": {
            "converged": result.converged,
            "iterations": result.epochs_run,
            "final_loss": result.final_loss,
        },
    }
    files.write_manifest("train", args, started, facts)
    if not result.converged:
        print(
            f"warning: fit did not converge within {result.epochs_run} iterations "
            f"(final loss {result.final_loss:.6f})",
            file=sys.stderr,
        )
    print(
        f"trained {len(feature_set)}-feature model on {len(train_records)} records "
        f"({len(test_records)} held out); final loss {result.final_loss:.6f} "
        f"after {result.epochs_run} iterations"
    )
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    files = _Files({"--data": args.data, "--model": args.model}, {"--out": args.out})
    model = load_model(args.model)
    records = read_records(args.data)
    write_records(records, args.out, score_records(model, records).tolist())
    files.write_manifest("score", args, started)
    print(f"scored {len(records)} records to {args.out}")
    return 0


def _leave_one_out_subsets(feature_set: tuple[str, ...]) -> list[tuple[str, ...]]:
    subsets: list[tuple[str, ...]] = [feature_set]
    if len(feature_set) > 1:
        for name in feature_set:
            subsets.append(tuple(f for f in feature_set if f != name))
    return subsets


def cmd_eval(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.ablate != bool(args.train_data):  # each one is read only with the other
        raise InvalidConfig("--ablate and --train-data are given together or not at all")
    files = _Files(
        {"--data": args.data, "--model": args.model, "--train-data": args.train_data},
        ["pr_curves.csv", "pr_curves.svg", "thresholds.csv", *["ablation.csv"] * args.ablate,
         "report.json"],
        args.out_dir,
    )
    model = load_model(args.model)
    thresholds = _parse_threshold_list(args.thresholds)
    records = read_records(args.data)
    if not records:
        raise EmptyDataset(f"no records in {args.data}")
    n_queries = len(group_by_query(records))

    params = model.coverage_params()
    x_test = feature_matrix(records, model.feature_set, params)  # what score_records builds
    scores = predict(model, x_test)
    if args.best_only:
        picks = select_per_query(records, scores)
        records = [records[i] for i in picks]
        scores = scores[picks]
        x_test = x_test[picks]
    rows = sweep_scores(records, scores, thresholds)
    primary = rows[0]
    primary_labels = label_records(records, thresholds[0])

    ablation_rows = None
    facts = None
    if args.ablate:
        loaded = read_records(args.train_data)
        train_records = build_extended(loaded)
        facts = {
            "build_extended": {"n_in": len(loaded), "n_dropped": len(loaded) - len(train_records)}
        }
        train_labels = label_records(train_records, thresholds[0])
        test_columns = model.feature_set
        if FEATURE_INLIER_COUNT not in test_columns:  # the baseline row needs it
            test_columns += (FEATURE_INLIER_COUNT,)
            x_test = np.column_stack([x_test, [float(r.inlier_count) for r in records]])
        ablation_rows = ablation(
            train_records,
            train_labels,
            x_test,
            test_columns,
            primary_labels,
            _leave_one_out_subsets(model.feature_set),
            params=params,
        )

    os.makedirs(args.out_dir, exist_ok=True)
    paths = files.outputs
    if primary.degenerate:
        print(
            "warning: labeling at the primary threshold is single-class; "
            "PR curves skipped",
            file=sys.stderr,
        )
        del paths["pr_curves.csv"], paths["pr_curves.svg"]  # not written, so not in the manifest
    else:
        counts = np.asarray([float(r.inlier_count) for r in records])
        model_curve = pr_curve_from_scores(scores, primary_labels)
        inliers_curve = pr_curve_from_scores(counts, primary_labels)
        curve_rows = [
            [name, repr(recall), repr(precision)]
            for name, curve in (("model", model_curve), ("inliers", inliers_curve))
            for recall, precision in curve.points
        ]
        _write_csv(paths["pr_curves.csv"], ["curve", "recall", "precision"], curve_rows)
        write_svg(
            line_plot_svg(
                [("model", model_curve.points), ("inliers", inliers_curve.points)],
                "Precision-recall", "recall", "precision",
            ),
            paths["pr_curves.svg"],
        )

    threshold_rows = [
        [
            repr(row.threshold.max_translation_m),
            repr(row.threshold.max_rotation_deg),
            row.n_records,
            row.n_positive,
            "" if row.degenerate else repr(row.model_auc),
            "" if row.degenerate else repr(row.inliers_auc),
            int(row.degenerate),
        ]
        for row in rows
    ]
    _write_csv(
        paths["thresholds.csv"],
        ["threshold_m", "threshold_deg", "n_records", "n_positive",
         "model_auc", "inliers_auc", "degenerate"],
        threshold_rows,
    )

    if ablation_rows is not None:
        _write_csv(paths["ablation.csv"], ["features", "auc"], [
            ["+".join(subset), "" if auc is None else repr(auc)] for subset, auc in ablation_rows
        ])

    report = {
        "n_records": len(records),
        "n_queries": n_queries,
        "best_only": bool(args.best_only),
        "primary_threshold": {
            "translation_m": thresholds[0].max_translation_m,
            "rotation_deg": thresholds[0].max_rotation_deg,
        },
        "model_auc": primary.model_auc,
        "inliers_auc": primary.inliers_auc,
        "degenerate": primary.degenerate,
        "thresholds": [
            {
                "translation_m": row.threshold.max_translation_m,
                "rotation_deg": row.threshold.max_rotation_deg,
                "n_records": row.n_records,
                "n_positive": row.n_positive,
                "model_auc": row.model_auc,
                "inliers_auc": row.inliers_auc,
                "degenerate": row.degenerate,
            }
            for row in rows
        ],
        "ablation": None
        if ablation_rows is None
        else [{"features": list(s), "auc": v} for s, v in ablation_rows],
    }
    with atomic_open(paths["report.json"], "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    files.write_manifest("eval", args, started, facts)
    if not primary.degenerate:
        print(
            f"model AUC {primary.model_auc:.4f} vs inliers AUC {primary.inliers_auc:.4f} "
            f"on {len(records)} records"
        )
    return 0


def cmd_rerank(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    files = _Files(
        {"--data": args.data, "--model": args.model},
        ["selections.jsonl", "accuracy.csv", "accuracy.svg"],
        args.out_dir,
    )
    paths = files.outputs
    model = load_model(args.model)
    records = read_records(args.data)
    thresholds = [
        _threshold(meters, args.threshold_deg) for meters in _parse_float_list(args.thresholds_m)
    ]

    scores = score_records(model, records).tolist()
    picks = select_per_query(records, scores)
    model_selected = [records[i] for i in picks]
    baseline_selected = [
        group[select_max_inliers(group)] for group in group_by_query(records).values()
    ]
    accuracy_rows = [
        (
            threshold.max_translation_m,
            accuracy_at(model_selected, threshold),
            accuracy_at(baseline_selected, threshold),
        )
        for threshold in thresholds
    ]

    os.makedirs(args.out_dir, exist_ok=True)
    write_records(model_selected, paths["selections.jsonl"], [scores[i] for i in picks])

    _write_csv(paths["accuracy.csv"], ["threshold_m", "model_accuracy", "max_inliers_accuracy"], [
        [repr(meters), repr(ours), repr(baseline)] for meters, ours, baseline in accuracy_rows
    ])
    write_svg(
        line_plot_svg(
            [
                ("model", [(m, a) for m, a, _ in accuracy_rows]),
                ("max-inliers", [(m, b) for m, _, b in accuracy_rows]),
            ],
            "Selection accuracy vs threshold",
            "translation threshold (m)",
            "accuracy",
        ),
        paths["accuracy.svg"],
    )

    files.write_manifest("rerank", args, started)
    print(f"reranked {len(model_selected)} queries")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error on one stderr line."""

    def error(self, message: str):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="poseconf",
        description="Confidence scoring and ranking evaluation for estimated camera poses.",
    )
    parser.add_argument("--version", action="version", version=f"poseconf {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark record file")
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--candidates", type=int, default=10, help="candidates per query")
    p.add_argument("--width", type=int, default=320)
    p.add_argument("--height", type=int, default=240)
    p.add_argument(
        "--adversarial-fraction",
        type=float,
        default=0.35,
        help="fraction of incorrect poses given many inliers in a tiny area",
    )
    p.add_argument(
        "--junk-fraction",
        type=float,
        default=0.0,
        help="fraction of records left below the correspondence minimum",
    )
    p.add_argument("--include-pv", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("train", help="fit a confidence model on labeled records")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--test-out", default=None, help="write the held-out split here")
    p.add_argument("--train-out", default=None, help="write the training split here")
    p.add_argument("--threshold-m", type=float, default=1.0)
    p.add_argument("--threshold-deg", type=float, default=10.0)
    p.add_argument("--split", type=float, default=0.75, help="train fraction")
    p.add_argument("--seed", type=int, default=0, help="seed of the grouped train/test split")
    p.add_argument(
        "--features",
        default="inliers,qcov,dbcov",
        help="comma list: inliers, qcov, dbcov, pv",
    )
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("score", help="append model confidence to each record")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("eval", help="PR curves, AUC tables, and ablation")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--thresholds",
        default="1.0,10",
        help="semicolon list of 'meters,degrees'; first entry drives the PR curves",
    )
    p.add_argument("--ablate", action="store_true", help="leave-one-out feature table")
    p.add_argument("--train-data", default=None, help="training records for --ablate")
    p.add_argument(
        "--best-only",
        action="store_true",
        help="evaluate only the model-selected best candidate per query",
    )
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("rerank", help="pick the best candidate per query")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--thresholds-m",
        default="0.25,0.5,0.75,1.0,1.25,1.5,1.75,2.0",
        help="comma list of translation thresholds for the accuracy table",
    )
    p.add_argument("--threshold-deg", type=float, default=10.0)
    p.set_defaults(handler=cmd_rerank)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except InvalidConfig as exc:
        print(f"error: InvalidConfig: {exc}", file=sys.stderr)
        return 2
    except PoseconfError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """Run the CLI as a process of its own (the `poseconf` script, `python -m`).

    The imports leave tens of thousands of objects that the cyclic collector
    would rescan in every full collection; `gc.freeze` moves them to the
    permanent generation, and objects the run makes are collected as before.
    `main` does not freeze, so in-process callers keep a normal heap.  The
    process ends through `os._exit` once both streams are flushed: every
    file is closed by then, and tearing the interpreter down would only free
    memory that the exit returns anyway.  A closed stdout ends the run with
    one error line, buffered or not.
    """
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError as exc:
        if code == 0:  # a failed run has printed its one error line already
            print(f"error: {exc}", file=sys.stderr)
            code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
