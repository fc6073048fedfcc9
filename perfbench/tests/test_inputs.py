"""Pins the seeded workload inputs, so that a change to the synthetic
generator fails here instead of silently changing what the benchmark runs.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import WORKLOADS, camera_draws, layouts, setup_inputs  # noqa: E402

PINS_PATH = os.path.join(ROOT, "perfbench", "pins.json")


def digests(name: str, seed: int, tmp_path) -> dict[str, str]:
    wl = WORKLOADS[name]
    return setup_inputs(wl, seed, layouts(wl, str(tmp_path / f"{name}-{seed}")))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_42_inputs_match_the_pins(name, tmp_path):
    with open(PINS_PATH, encoding="utf-8") as fh:
        pins = json.load(fh)
    assert digests(name, 42, tmp_path) == pins[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    first = digests(name, 7, tmp_path / "a")
    assert digests(name, 7, tmp_path / "b") == first
    # the camera and top50 model sets are fixed; their scoring sets follow the seed
    seeded = "chain0/model_set.jsonl" if name == "pipeline_320" else "chain0/scoring.jsonl"
    assert digests(name, 8, tmp_path / "c")[seeded] != first[seeded]
    # and so do the pipeline's model sets, which differ from chain to chain
    if name == "pipeline_320":
        assert len(set(first.values())) == len(first) == WORKLOADS[name].chains


@pytest.mark.parametrize("seed", [0, 42, 2**31 - 1])
def test_camera_draws_have_equal_inlier_counts(seed):
    queries, cutouts = camera_draws(WORKLOADS["camera_inloc"], seed)
    assert [q.inlier_count for q in queries] == [d.inlier_count for d in cutouts]
    assert (queries[0].query_dims.width, cutouts[0].db_dims.width) == (4032, 1600)
