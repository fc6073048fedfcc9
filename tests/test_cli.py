"""End-to-end tests for the command line interface.

Everything goes through main(argv) so exit codes and error reporting are
exercised the same way the console script runs them; `TestEntry` covers
what the process entry point adds around main.
"""

import ast
import csv
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import poseconf.cli
import poseconf.confidence_model
import poseconf.dataset_io
import poseconf.evaluation
import poseconf.features
from conftest import make_record
from poseconf.cli import main
from poseconf.confidence_model import load_model, score_records
from poseconf.dataset_io import build_extended, read_records, serialize_record, write_records
from poseconf.evaluation import sweep_scores
from poseconf.pose_metrics import ErrorThreshold

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def child_env():
    """The environment for a `python -m poseconf.cli` child that imports this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return env


SYNTH_ARGS = [
    "synth",
    "--queries", "30",
    "--candidates", "4",
    "--width", "96",
    "--height", "72",
    "--seed", "7",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth -> train pipeline shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "bench.jsonl"
    assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
    model = root / "model.json"
    test_split = root / "test.jsonl"
    train_split = root / "train.jsonl"
    code = main(
        [
            "train",
            "--data", str(data),
            "--out", str(model),
            "--test-out", str(test_split),
            "--train-out", str(train_split),
            "--seed", "7",
        ]
    )
    assert code == 0
    return {
        "root": root,
        "data": data,
        "model": model,
        "test": test_split,
        "train": train_split,
    }


class TestArgumentHandling:
    def test_no_subcommand_is_a_usage_error(self):
        assert main([]) == 2

    def test_unknown_flag_is_a_usage_error(self):
        assert main(["synth", "--frobnicate", "--out", "x"]) == 2

    def test_version_exits_cleanly(self, capsys):
        assert main(["--version"]) == 0
        assert "poseconf" in capsys.readouterr().out


class TestEntry:
    """`entry()` is the process entry point; `main()` is what in-process callers use."""

    def test_entry_freezes_the_heap_then_exits_with_mains_code(self, monkeypatch):
        calls = []
        # pytest's own heap is never frozen
        monkeypatch.setattr(poseconf.cli.gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(poseconf.cli, "main", lambda: calls.append("main") or 3)
        # the process would end here, pytest with it
        monkeypatch.setattr(poseconf.cli.os, "_exit", lambda code: sys.exit(code))
        with pytest.raises(SystemExit) as info:
            poseconf.cli.entry()
        assert calls == ["freeze", "main"]
        assert info.value.code == 3

    def test_main_in_process_leaves_the_heap_unfrozen(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["synth", "--queries", "2", "--candidates", "2", "--width", "64",
                     "--height", "48", "--out", str(tmp_path / "data.jsonl")]) == 0
        assert gc.get_freeze_count() == before

    def test_both_launchers_run_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(poseconf.cli.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        guards = [node for node in tree.body if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [[ast.unparse(stmt) for stmt in node.body] for node in guards] == [["entry()"]]
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            assert tomllib.load(fh)["project"]["scripts"] == {"poseconf": "poseconf.cli:entry"}

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_fails_on_one_line(self, tmp_path, unbuffered):
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "poseconf.cli", "synth", "--queries", "2",
                 "--candidates", "2", "--out", str(tmp_path / "data.jsonl")],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.splitlines() == ["error: [Errno 32] Broken pipe"]
        assert len(read_records(tmp_path / "data.jsonl")) == 4
        assert (tmp_path / "data.jsonl.manifest.json").is_file()


class TestStartUp:
    """What importing the package costs a process, checked without timings."""

    CHILD = (
        "import gc, json, sys\n"
        "if sys.argv[1] == 'off':\n"
        "    gc.disable()\n"
        "before = gc.isenabled()\n"
        "seen = []\n"
        "gc.callbacks.append(lambda phase, info: seen.append((phase, info['generation'])))\n"
        "import poseconf\n"
        "collections, after = list(seen), gc.isenabled()\n"
        "import poseconf.cli\n"
        "print(json.dumps([before, after, collections, 'dataclasses' in sys.modules]))\n"
    )

    @pytest.mark.parametrize("collector", ["on", "off"])
    def test_import_runs_no_collection_and_builds_no_dataclass(self, collector):
        proc = subprocess.run([sys.executable, "-c", self.CHILD, collector], env=child_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        before, after, collections, dataclasses_loaded = json.loads(proc.stdout)
        assert before == after == (collector == "on")
        assert collections == []
        assert not dataclasses_loaded

    def test_import_leaves_a_frozen_heap_frozen(self):
        # gc.get_objects lists the tracked objects of every generation but the frozen one
        child = ("import gc\nx = [[]]\ngc.freeze()\nimport poseconf\n"
                 "assert not any(o is x for o in gc.get_objects())\n")
        proc = subprocess.run([sys.executable, "-c", child], env=child_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestSynth:
    def test_writes_expected_record_count(self, tmp_path):
        out = tmp_path / "data.jsonl"
        assert main(["synth", "--queries", "5", "--candidates", "3",
                     "--width", "64", "--height", "48", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 15
        assert len(read_records(out)) == 15

    def test_zero_queries_writes_an_empty_file(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        assert main(["synth", "--queries", "0", "--out", str(out)]) == 0
        assert out.read_text() == ""

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        base = ["synth", "--queries", "6", "--candidates", "3",
                "--width", "64", "--height", "48", "--seed", "3"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_42_bytes_are_pinned(self, tmp_path):
        # the canonical record encoding must not drift: any change to the
        # generator or the writer shows here
        out = tmp_path / "golden.jsonl"
        assert main(["synth", "--queries", "4", "--candidates", "3", "--seed", "42",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "41e3ece0bf750da9e0a407d04e2a15c18f5be3d4a24621c333b7afeb6462d7df"
        )

    @pytest.mark.parametrize("argv, digest", [
        # verification scores with junk records
        (["--queries", "5", "--candidates", "4", "--include-pv", "--junk-fraction", "0.2",
          "--seed", "3"], "50c8d9481120904b8781272046ca205d029cb5dfad4ac16d2e3dc3f9cbb94431"),
        (["--queries", "5", "--candidates", "4", "--include-pv", "--junk-fraction", "0.2",
          "--seed", "11"], "e0e64dbb8459c53ea96a79f541c4e228bfeb3ff256dcfc6c24a8449c8576fe1d"),
        # mostly decoys on phone-sized images
        (["--queries", "4", "--candidates", "3", "--adversarial-fraction", "0.9",
          "--width", "4032", "--height", "3024", "--seed", "5"],
         "9872f97b1fb06b4919fff13dff26e6c5ebb1291f388dbbaf28fdd5e1b9c1e748"),
        (["--queries", "4", "--candidates", "3", "--adversarial-fraction", "0.9",
          "--width", "4032", "--height", "3024", "--seed", "13"],
         "6ad144400df9efb2c3b45e85d1c063b46bd00d1ecb37cf250fd61f488fbd811b"),
        # 50 candidates a query, as in top-50 retrieval
        (["--queries", "3", "--candidates", "50", "--adversarial-fraction", "0.0",
          "--junk-fraction", "0.1", "--seed", "7"],
         "d9b2f7a3850b521f0483ef26045aea7d1102b24d1b096bc20b9080ade41495c3"),
        (["--queries", "3", "--candidates", "50", "--adversarial-fraction", "0.0",
          "--junk-fraction", "0.1", "--seed", "17"],
         "ce87d1a07fc48f7d552751463190d30b8ced06196cd874b158ec86f58dffa82e"),
    ])
    def test_generator_branches_are_pinned(self, tmp_path, argv, digest):
        out = tmp_path / "golden.jsonl"
        assert main(["synth", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_a_refused_pose_writes_nothing(self, tmp_path, capsys, monkeypatch):
        reflection = np.diag([1.0, 1.0, -1.0])
        monkeypatch.setattr(poseconf.dataset_io, "_axis_angle", lambda axis, angle: reflection)
        out = tmp_path / "x.jsonl"
        assert main(["synth", "--queries", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: InvariantViolation: line 1: rotation is not orthonormal")
        assert os.listdir(tmp_path) == []  # neither the output nor its manifest

    def test_manifest_written_next_to_output(self, tmp_path):
        out = tmp_path / "data.jsonl"
        main(["synth", "--queries", "2", "--candidates", "2",
              "--width", "64", "--height", "48", "--seed", "1", "--out", str(out)])
        manifest = json.loads((tmp_path / "data.jsonl.manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["seed"] == 1
        assert manifest["outputs"] == [str(out)]
        assert manifest["config"]["queries"] == 2
        assert "duration_s" in manifest

    def test_invalid_fraction_is_a_config_error(self, tmp_path):
        code = main(["synth", "--adversarial-fraction", "1.5",
                     "--out", str(tmp_path / "x.jsonl")])
        assert code == 2

    def test_negative_seed_is_a_one_line_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        assert main(["synth", "--queries", "2", "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "seed" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("size", [["--queries", str(2**62), "--candidates", "1"],
                                      ["--width", str(2**32), "--height", str(2**32)]],
                             ids=["records", "pixels"])
    def test_too_large_is_a_one_line_config_error(self, tmp_path, capsys, size):
        assert main(["synth", *size, "--out", str(tmp_path / "x.jsonl")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: InvalidConfig:")
        assert list(tmp_path.iterdir()) == []

    def test_regime_pool_beyond_memory_is_a_one_line_config_error(self, tmp_path):
        # the pool would take 200 GB: run it only under an address-space limit
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

        proc = subprocess.run(
            [sys.executable, "-m", "poseconf.cli", "synth", "--queries", "2",
             "--candidates", str(10**11), "--out", str(tmp_path / "x.jsonl")],
            env=child_env(), preexec_fn=limit_memory, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2, proc.stderr
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: InvalidConfig:")
        assert list(tmp_path.iterdir()) == []


class TestTrain:
    def test_model_file_and_splits(self, workspace):
        model = load_model(workspace["model"])
        assert model.feature_set == ("inlier_count", "query_coverage", "db_coverage")
        assert len(model.weights) == 3
        train_records = read_records(workspace["train"])
        test_records = read_records(workspace["test"])
        assert train_records and test_records
        train_ids = {r.query_id for r in train_records}
        test_ids = {r.query_id for r in test_records}
        assert not train_ids & test_ids
        meta = model.training_meta
        assert meta["n_train"] == len(train_records)

    def test_splits_copy_their_source_lines(self, workspace, tmp_path):
        # non-canonical spacing, reordered keys, an unknown key, CRLF line ends
        source = []
        for i, line in enumerate(workspace["data"].read_text().splitlines()):
            obj = dict(reversed(json.loads(line).items()), note=i)
            source.append(json.dumps(obj, separators=(", ", " : ")))
        data = tmp_path / "loose.jsonl"
        data.write_bytes("".join(f"  {line}\t\r\n" for line in source).encode())
        train_out, test_out = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                     "--train-out", str(train_out), "--test-out", str(test_out)])
        assert code == 0
        written = []
        for path in (train_out, test_out):
            raw = path.read_bytes()
            assert b"\r" not in raw
            written += raw.decode().splitlines()
        assert sorted(written) == sorted(source)

    def test_manifest_records_the_filter_and_the_fit(self, tmp_path, capsys):
        data = tmp_path / "junk.jsonl"
        assert main(SYNTH_ARGS + ["--junk-fraction", "0.25", "--out", str(data)]) == 0
        n_in = len(read_records(data))
        n_kept = len(build_extended(read_records(data)))
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--out", str(model), "--seed", "7"]) == 0
        captured = capsys.readouterr()
        assert "iterations" in captured.out and captured.err == ""
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert 0 < n_in - n_kept
        assert manifest["build_extended"] == {"n_in": n_in, "n_dropped": n_in - n_kept}
        meta = load_model(model).training_meta
        assert manifest["fit"] == {
            "converged": True,
            "iterations": meta["epochs_run"],
            "final_loss": meta["final_loss"],
        }

    def test_unconverged_fit_warns_on_one_line(self, workspace, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(poseconf.confidence_model, "_MAX_ITERATIONS", 1)
        model = tmp_path / "m.json"
        code = main(["train", "--data", str(workspace["data"]), "--out", str(model)])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: fit did not converge")
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert manifest["fit"]["converged"] is False
        assert manifest["fit"]["iterations"] == 1

    @pytest.mark.parametrize(
        "flag,value",
        [("--learning-rate", "0.1"), ("--epochs", "1"), ("--tol", "1e-3"), ("--l2", "0.1")],
        ids=["--learning-rate", "--epochs", "--tol", "--l2"],
    )
    def test_removed_fit_flags_are_usage_errors(self, workspace, tmp_path, flag, value):
        code = main(["train", "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "m.json"), flag, value])
        assert code == 2
        assert not (tmp_path / "m.json").exists()

    def test_single_feature_request(self, workspace, tmp_path):
        out = tmp_path / "inliers.json"
        code = main(["train", "--data", str(workspace["data"]),
                     "--out", str(out), "--features", "inliers"])
        assert code == 0
        model = load_model(out)
        assert model.feature_set == ("inlier_count",)
        assert len(model.weights) == 1

    def test_unknown_feature_is_a_config_error(self, workspace, tmp_path):
        code = main(["train", "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "m.json"), "--features", "magic"])
        assert code == 2

    @pytest.mark.parametrize(
        "flag",
        [["--threshold-m", "nan"], ["--threshold-m=-1"], ["--threshold-deg", "200"]],
        ids=["meters-nan", "meters-negative", "degrees"],
    )
    def test_bad_threshold_is_a_usage_error(self, workspace, tmp_path, capsys, flag):
        out = tmp_path / "m.json"
        code = main(["train", "--data", str(workspace["data"]), "--out", str(out)] + flag)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "InvalidConfig" in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_is_a_one_line_config_error(self, workspace, tmp_path, capsys):
        # random.Random(-1) would shuffle as random.Random(1) does
        out = tmp_path / "m.json"
        code = main(["train", "--data", str(workspace["data"]), "--out", str(out),
                     "--seed", "-1"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: InvalidConfig") and "seed" in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_missing_ground_truth_is_reported(self, tmp_path, capsys):
        data = tmp_path / "nogt.jsonl"
        write_records([make_record(f"q{i}") for i in range(4)], data)
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "MissingGroundTruth" in capsys.readouterr().err

    def test_missing_file_is_reported(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 1


class TestScore:
    def test_null_model_scores_one_half(self, workspace, tmp_path):
        model_path = tmp_path / "null.json"
        model_path.write_text(json.dumps({
            "format_version": 1,
            "feature_set": ["inlier_count"],
            "weights": [0.0],
            "bias": 0.0,
            "standardizer": {"means": [0.0], "stds": [1.0]},
            "training_meta": {},
        }))
        out = tmp_path / "scored.jsonl"
        code = main(["score", "--data", str(workspace["test"]),
                     "--model", str(model_path), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            assert json.loads(line)["confidence"] == 0.5
        # scored files parse right back: extra keys are ignored
        assert read_records(out) == read_records(workspace["test"])

    def test_scored_confidences_lie_in_unit_interval(self, workspace, tmp_path):
        out = tmp_path / "scored.jsonl"
        code = main(["score", "--data", str(workspace["test"]),
                     "--model", str(workspace["model"]), "--out", str(out)])
        assert code == 0
        for line in out.read_text().splitlines():
            assert 0.0 < json.loads(line)["confidence"] < 1.0

    def test_output_is_canonical_with_confidence_last(self, workspace, tmp_path):
        # a line is written back as it was read, unknown keys, key order and
        # spacing included, with confidence appended last
        lines = workspace["test"].read_text().splitlines()
        data = tmp_path / "loose.jsonl"
        loose = [json.dumps(dict(reversed(json.loads(line).items()), note=1)) for line in lines]
        data.write_text("".join(line + "\n" for line in loose))
        out = tmp_path / "scored.jsonl"
        code = main(["score", "--data", str(data),
                     "--model", str(workspace["model"]), "--out", str(out)])
        assert code == 0
        scored = out.read_text().splitlines()
        assert len(scored) == len(lines)
        for line, source in zip(scored, loose):
            obj = json.loads(line)
            assert list(obj) == [*json.loads(source), "confidence"]
            confidence = json.dumps({"confidence": obj["confidence"]}, separators=(",", ":"))
            assert line == source[:-1] + "," + confidence[1:]

    def test_canonical_input_gives_the_canonical_encoding(self, workspace, tmp_path):
        out = tmp_path / "scored.jsonl"
        code = main(["score", "--data", str(workspace["test"]),
                     "--model", str(workspace["model"]), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        records = read_records(workspace["test"])
        assert len(lines) == len(records)
        for line, record in zip(lines, records):
            expected = serialize_record(record, json.loads(line)["confidence"])
            assert line == json.dumps(expected, separators=(",", ":"))

    def test_rescoring_leaves_one_confidence_last(self, workspace, tmp_path):
        data = tmp_path / "stale.jsonl"
        data.write_text("".join(
            json.dumps({**json.loads(line), "confidence": 2.0, "note": 1}) + "\n"
            for line in workspace["test"].read_text().splitlines()
        ))
        out = tmp_path / "scored.jsonl"
        code = main(["score", "--data", str(data),
                     "--model", str(workspace["model"]), "--out", str(out)])
        assert code == 0
        for line in out.read_text().splitlines():
            assert line.count('"confidence"') == 1
            obj = json.loads(line)
            assert list(obj)[-1] == "confidence" and 0.0 < obj["confidence"] < 1.0

    def test_out_of_range_coordinate_is_a_one_line_error(self, workspace, tmp_path, capsys):
        obj = serialize_record(make_record())
        obj["query_inliers"][1] = [2**70, 7]
        data = tmp_path / "huge.jsonl"
        data.write_text(json.dumps(obj) + "\n")
        out = tmp_path / "scored.jsonl"
        code = main(["score", "--data", str(data),
                     "--model", str(workspace["model"]), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "SchemaError" in err[0] and "line 1" in err[0] and "query_inliers" in err[0]
        assert not out.exists()

    def test_coordinate_above_2_to_the_53_is_written_back_exactly(self, workspace, tmp_path):
        obj = serialize_record(make_record())
        obj.update(query_width=2**62, query_height=1)
        obj["query_inliers"] = [[2**53 + 1, 0], [5, 0], [9, 0]]
        data = tmp_path / "wide.jsonl"
        data.write_text(json.dumps(obj) + "\n")
        out = tmp_path / "scored.jsonl"
        code = main(["score", "--data", str(data),
                     "--model", str(workspace["model"]), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["query_inliers"] == obj["query_inliers"]

    @pytest.mark.parametrize("field", ["query_width", "db_height"])
    def test_out_of_range_image_size_is_a_one_line_error(
        self, workspace, tmp_path, capsys, field
    ):
        obj = serialize_record(make_record())
        obj[field] = 2**70
        data = tmp_path / "huge.jsonl"
        data.write_text(json.dumps(obj) + "\n")
        out = tmp_path / "scored.jsonl"
        code = main(["score", "--data", str(data),
                     "--model", str(workspace["model"]), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "SchemaError" in err[0] and "line 1" in err[0] and field in err[0]
        assert not out.exists()

    def test_non_finite_model_is_a_one_line_error(self, workspace, tmp_path, capsys):
        doc = json.loads(workspace["model"].read_text())
        doc["weights"][0] = float("nan")
        model_path = tmp_path / "nan.json"
        model_path.write_text(json.dumps(doc))  # json writes the NaN token
        out = tmp_path / "scored.jsonl"
        code = main(["score", "--data", str(workspace["test"]),
                     "--model", str(model_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "SchemaError" in err[0] and "weights" in err[0]
        assert not out.exists()

    def test_overflowing_model_is_a_one_line_error(self, workspace, tmp_path, capsys):
        doc = json.loads(workspace["model"].read_text())
        doc["weights"][0] = 1e308  # finite, but the score overflows
        model_path = tmp_path / "huge.json"
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "scored.jsonl"
        code = main(["score", "--data", str(workspace["test"]),
                     "--model", str(model_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "InvariantViolation" in err[0] and "overflow" in err[0]
        assert not out.exists()

    def test_directory_as_output_is_a_one_line_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "scored"
        out.mkdir()
        code = main(["score", "--data", str(workspace["test"]),
                     "--model", str(workspace["model"]), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith(f"'{out}'") and ".tmp" not in err[0]
        assert [p.name for p in tmp_path.iterdir()] == ["scored"]
        assert list(out.iterdir()) == []

    def test_empty_input_gives_empty_output(self, workspace, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "scored.jsonl"
        code = main(["score", "--data", str(empty),
                     "--model", str(workspace["model"]), "--out", str(out)])
        assert code == 0
        assert out.read_text() == ""


def _count_feature_rows(monkeypatch) -> Counter:
    """Count the (query_id, candidate_rank) rows that reach feature_matrix,
    which builds every command's features, through each module that calls it."""
    calls = Counter()
    original = poseconf.features.feature_matrix

    def counting(records, *args):
        calls.update((r.query_id, r.candidate_rank) for r in records)
        return original(records, *args)

    for module in (poseconf.cli, poseconf.confidence_model, poseconf.evaluation, poseconf.features):
        monkeypatch.setattr(module, "feature_matrix", counting)
    return calls


class TestEval:
    def test_standard_run_produces_all_artifacts(self, workspace, tmp_path):
        out_dir = tmp_path / "eval"
        code = main(["eval", "--data", str(workspace["test"]),
                     "--model", str(workspace["model"]),
                     "--out-dir", str(out_dir),
                     "--thresholds", "1.0,10;0.5,10"])
        assert code == 0
        for name in ("report.json", "thresholds.csv", "pr_curves.csv",
                     "pr_curves.svg", "manifest.json"):
            assert (out_dir / name).exists(), name

        report = json.loads((out_dir / "report.json").read_text())
        assert report["n_records"] == len(read_records(workspace["test"]))
        assert report["degenerate"] is False
        assert 0.0 <= report["model_auc"] <= 1.0
        assert len(report["thresholds"]) == 2
        assert report["ablation"] is None

        with open(out_dir / "thresholds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["threshold_m"] for r in rows] == ["1.0", "0.5"]
        # the report's rows are the library's sweep of the same model
        test_records = read_records(workspace["test"])
        sweep = sweep_scores(
            test_records,
            score_records(load_model(workspace["model"]), test_records),
            [ErrorThreshold(1.0, 10.0), ErrorThreshold(0.5, 10.0)],
        )
        assert [(t["n_positive"], t["model_auc"], t["inliers_auc"])
                for t in report["thresholds"]] == [
            (row.n_positive, row.model_auc, row.inliers_auc) for row in sweep
        ]

        with open(out_dir / "pr_curves.csv", newline="") as fh:
            curves = list(csv.DictReader(fh))
        assert {r["curve"] for r in curves} == {"model", "inliers"}
        for row in curves:
            assert 0.0 <= float(row["recall"]) <= 1.0
            assert 0.0 <= float(row["precision"]) <= 1.0

    def test_ablation_needs_train_data(self, workspace, tmp_path):
        code = main(["eval", "--data", str(workspace["test"]),
                     "--model", str(workspace["model"]),
                     "--out-dir", str(tmp_path / "eval"), "--ablate"])
        assert code == 2

    @pytest.mark.parametrize("bad_train_data,code", [(False, 2), (True, 1)])
    def test_ablation_error_leaves_no_output(
        self, workspace, tmp_path, capsys, bad_train_data, code
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        out_dir = tmp_path / "eval"
        argv = ["eval", "--data", str(workspace["test"]), "--model", str(workspace["model"]),
                "--out-dir", str(out_dir), "--ablate"]
        assert main(argv + (["--train-data", str(bad)] if bad_train_data else [])) == code
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out_dir.exists()

    def test_empty_input_is_a_one_line_error(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out_dir = tmp_path / "eval"
        assert main(["eval", "--data", str(empty), "--model", str(workspace["model"]),
                     "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: EmptyDataset:")
        assert not out_dir.exists()

    def test_ablation_table(self, workspace, tmp_path):
        out_dir = tmp_path / "eval"
        code = main(["eval", "--data", str(workspace["test"]),
                     "--model", str(workspace["model"]),
                     "--out-dir", str(out_dir),
                     "--ablate", "--train-data", str(workspace["train"])])
        assert code == 0
        with open(out_dir / "ablation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # full set, three leave-one-out subsets, inliers-only baseline
        assert [r["features"] for r in rows] == [
            "inlier_count+query_coverage+db_coverage",
            "query_coverage+db_coverage",
            "inlier_count+db_coverage",
            "inlier_count+query_coverage",
            "inlier_count",
        ]
        report = json.loads((out_dir / "report.json").read_text())
        assert len(report["ablation"]) == 5

    def test_ablation_manifest_records_the_filter(self, workspace, tmp_path):
        train_data = tmp_path / "junk.jsonl"
        assert main(SYNTH_ARGS + ["--junk-fraction", "0.25", "--out", str(train_data)]) == 0
        n_in = len(read_records(train_data))
        n_kept = len(build_extended(read_records(train_data)))
        assert 0 < n_in - n_kept
        for ablate in ([], ["--ablate", "--train-data", str(train_data)]):
            out_dir = tmp_path / f"eval{len(ablate)}"
            code = main(["eval", "--data", str(workspace["test"]),
                         "--model", str(workspace["model"]), "--out-dir", str(out_dir)]
                        + ablate)
            assert code == 0
            manifest = json.loads((out_dir / "manifest.json").read_text())
            if ablate:
                assert manifest["build_extended"] == {"n_in": n_in, "n_dropped": n_in - n_kept}
            else:
                assert "build_extended" not in manifest

    def single_class_inputs(self, tmp_path):
        """A record file with no positive at 1 m, and an inliers-only model."""
        from conftest import pose_at

        # every record far from ground truth: no positives at 1 m
        records = [
            make_record(
                f"q{i}",
                estimated_pose=pose_at((50.0 + i, 0.0, 0.0)),
                ground_truth_pose=pose_at((0.0, 0.0, 0.0)),
            )
            for i in range(6)
        ]
        data = tmp_path / "far.jsonl"
        write_records(records, data)
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps({
            "format_version": 1,
            "feature_set": ["inlier_count"],
            "weights": [1.0],
            "bias": 0.0,
            "standardizer": {"means": [0.0], "stds": [1.0]},
            "training_meta": {},
        }))
        return data, model_path

    def test_single_class_labeling_degrades_gracefully(self, tmp_path, capsys):
        data, model_path = self.single_class_inputs(tmp_path)
        out_dir = tmp_path / "eval"
        code = main(["eval", "--data", str(data), "--model", str(model_path),
                     "--out-dir", str(out_dir)])
        assert code == 0
        assert "single-class" in capsys.readouterr().err
        assert not (out_dir / "pr_curves.csv").exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["degenerate"] is True
        assert report["model_auc"] is None
        manifest = json.loads((out_dir / "manifest.json").read_text())  # what was written
        assert manifest["outputs"] == [str(out_dir / n) for n in ("thresholds.csv", "report.json")]

    def test_single_class_ablation_rows_are_degenerate(self, workspace, tmp_path, capsys):
        # the training split has both labels; only the test labeling is single-class
        data, model_path = self.single_class_inputs(tmp_path)
        out_dir = tmp_path / "eval"
        code = main(["eval", "--data", str(data), "--model", str(model_path),
                     "--out-dir", str(out_dir), "--ablate", "--train-data", str(workspace["train"])])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "single-class" in err[0]
        # written as thresholds.csv writes its degenerate rows: no AUC
        assert (out_dir / "ablation.csv").read_text().splitlines() == ["features,auc", "inlier_count,"]
        report = json.loads((out_dir / "report.json").read_text())
        assert report["degenerate"] is True
        assert report["ablation"] == [{"features": ["inlier_count"], "auc": None}]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        written = ("thresholds.csv", "ablation.csv", "report.json")
        assert manifest["outputs"] == [str(out_dir / n) for n in written]

    def test_garbled_thresholds_are_a_config_error(self, workspace, tmp_path):
        code = main(["eval", "--data", str(workspace["test"]),
                     "--model", str(workspace["model"]),
                     "--out-dir", str(tmp_path / "eval"),
                     "--thresholds", "one meter"])
        assert code == 2

    def test_infinite_threshold_is_a_one_line_error(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "eval"
        code = main(["eval", "--data", str(workspace["test"]),
                     "--model", str(workspace["model"]),
                     "--out-dir", str(out_dir), "--thresholds", "inf,10"])
        assert code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (out_dir / "report.json").exists()

    def test_best_only_scores_one_record_per_query(self, workspace, tmp_path, monkeypatch):
        calls = _count_feature_rows(monkeypatch)
        out_dir = tmp_path / "eval"
        code = main(["eval", "--data", str(workspace["test"]),
                     "--model", str(workspace["model"]),
                     "--out-dir", str(out_dir), "--best-only"])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["best_only"] is True
        assert report["n_records"] == report["n_queries"]
        # the selection pass's scores are reused: each record's features are built once
        assert calls and set(calls.values()) == {1}
        assert len(calls) == len(read_records(workspace["test"]))


    def test_ablate_assembles_each_test_record_once(self, workspace, tmp_path, monkeypatch):
        calls = _count_feature_rows(monkeypatch)
        code = main(["eval", "--data", str(workspace["test"]),
                     "--model", str(workspace["model"]), "--out-dir", str(tmp_path / "eval"),
                     "--ablate", "--train-data", str(workspace["train"])])
        assert code == 0
        # scoring and the ablation table share one matrix; the training
        # records (other queries) are built once more for the fits
        test_keys = {(r.query_id, r.candidate_rank) for r in read_records(workspace["test"])}
        assert test_keys <= calls.keys()
        assert set(calls.values()) == {1}


class TestRerank:
    def test_artifacts_and_selection_shape(self, workspace, tmp_path):
        out_dir = tmp_path / "rerank"
        code = main(["rerank", "--data", str(workspace["test"]),
                     "--model", str(workspace["model"]),
                     "--out-dir", str(out_dir)])
        assert code == 0
        test_records = read_records(workspace["test"])
        n_queries = len({r.query_id for r in test_records})

        selections = (out_dir / "selections.jsonl").read_text().splitlines()
        assert len(selections) == n_queries
        for line in selections:
            doc = json.loads(line)
            assert 0.0 < doc["confidence"] < 1.0
        selected = read_records(out_dir / "selections.jsonl")
        assert len({r.query_id for r in selected}) == n_queries

        with open(out_dir / "accuracy.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["threshold_m"] for r in rows] == [
            "0.25", "0.5", "0.75", "1.0", "1.25", "1.5", "1.75", "2.0"
        ]
        for row in rows:
            assert 0.0 <= float(row["model_accuracy"]) <= 1.0
            assert 0.0 <= float(row["max_inliers_accuracy"]) <= 1.0
        assert (out_dir / "accuracy.svg").exists()
        assert (out_dir / "manifest.json").exists()

    def test_selection_confidence_equals_the_scored_confidence(self, workspace, tmp_path):
        # enough queries that scoring one record at a time would differ from
        # the batch by an ulp somewhere
        data, scored = tmp_path / "many.jsonl", tmp_path / "scored.jsonl"
        assert main(["synth", "--queries", "60", "--candidates", "5", "--width", "96",
                     "--height", "72", "--seed", "8", "--out", str(data)]) == 0
        assert main(["score", "--data", str(data),
                     "--model", str(workspace["model"]), "--out", str(scored)]) == 0
        assert main(["rerank", "--data", str(data),
                     "--model", str(workspace["model"]),
                     "--out-dir", str(tmp_path / "rerank")]) == 0
        confidence = {}
        for line in scored.read_text().splitlines():
            doc = json.loads(line)
            confidence[(doc["query_id"], doc["candidate_rank"])] = doc["confidence"]
        selections = (tmp_path / "rerank" / "selections.jsonl").read_text().splitlines()
        assert selections
        for line in selections:
            doc = json.loads(line)
            # == on floats: the two files must agree bit for bit
            assert doc["confidence"] == confidence[(doc["query_id"], doc["candidate_rank"])]

    def test_selection_lines_are_canonical_with_confidence_last(self, workspace, tmp_path):
        out_dir = tmp_path / "rerank"
        assert main(["rerank", "--data", str(workspace["test"]),
                     "--model", str(workspace["model"]), "--out-dir", str(out_dir)]) == 0
        records = {(r.query_id, r.candidate_rank): r for r in read_records(workspace["test"])}
        selections = (out_dir / "selections.jsonl").read_text().splitlines()
        assert selections
        for line in selections:
            doc = json.loads(line)
            expected = serialize_record(
                records[(doc["query_id"], doc["candidate_rank"])], doc["confidence"]
            )
            assert line == json.dumps(expected, separators=(",", ":"), allow_nan=False)

    def test_single_candidate_queries_select_that_candidate(self, workspace, tmp_path):
        from conftest import pose_at

        records = [
            make_record(
                f"q{i}",
                candidate_rank=1,
                estimated_pose=pose_at((0.0, 0.0, 0.0)),
                ground_truth_pose=pose_at((0.0, 0.0, 0.0)),
            )
            for i in range(3)
        ]
        data = tmp_path / "single.jsonl"
        write_records(records, data)
        out_dir = tmp_path / "rerank"
        code = main(["rerank", "--data", str(data),
                     "--model", str(workspace["model"]),
                     "--out-dir", str(out_dir), "--thresholds-m", "1.0"])
        assert code == 0
        selected = read_records(out_dir / "selections.jsonl")
        assert selected == records
        with open(out_dir / "accuracy.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["model_accuracy"]) == 1.0
        assert float(rows[0]["max_inliers_accuracy"]) == 1.0

    @pytest.mark.parametrize(
        "flag", [["--thresholds-m=-1"], ["--threshold-deg", "200"]], ids=["meters", "degrees"]
    )
    def test_bad_threshold_leaves_no_output(self, workspace, tmp_path, capsys, flag):
        out_dir = tmp_path / "rerank"
        code = main(["rerank", "--data", str(workspace["test"]),
                     "--model", str(workspace["model"]),
                     "--out-dir", str(out_dir)] + flag)
        assert code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out_dir.exists()

    def test_missing_ground_truth_is_reported(self, workspace, tmp_path, capsys):
        data = tmp_path / "nogt.jsonl"
        write_records([make_record("qa"), make_record("qb")], data)
        code = main(["rerank", "--data", str(data),
                     "--model", str(workspace["model"]),
                     "--out-dir", str(tmp_path / "rerank")])
        assert code == 1
        assert "MissingGroundTruth" in capsys.readouterr().err
