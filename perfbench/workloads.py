"""Workload definitions: the input files each workload generates from the
seed, and the CLI stages it runs on them.

Every workload runs the same six stages so that every end-to-end metric
exists on every workload.  The first four (synth, train, eval --ablate,
eval --best-only) build and evaluate a model on a 320x240 synth-default
"model set"; rerank and score then run on the workload's scoring set:

- pipeline_320: the roadmap's baseline loop, scored on its own held-out
  split; three seeded model sets of 30 queries x 10 candidates here, one
  of 200 x 10 at the roadmap size.  How many gradient-descent epochs the
  fits need depends on the data (from 14 to 25 thousand over the train and
  eval stages of 24 seeds at 30 queries), so one model set per run would
  make the run's time follow its seed; each run runs the whole loop once
  per model set ("chain") and adds the chains' stage times.
- camera_inloc: InLoc camera sizes (4032x3024 phone queries against
  1600x1200 database cutouts), where the per-pixel coverage raster dominates.
- top50_sparse: 50 mostly wrong, sparse candidates per query at 320x240,
  where per-record fixed costs dominate.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from poseconf.dataset_io import PoseRecord, SynthConfig, synth_generate, write_records

MODEL_CANDIDATES = 10
STAGES = ("synth", "train", "eval", "eval_best", "rerank", "score")  # metric names, in pipeline order
MODEL_STAGES = STAGES[:4]  # build and evaluate the model; rerank and score use it
QUERY_SIZE = (4032, 3024)  # InLoc phone queries
DB_SIZE = (1600, 1200)  # InLoc database cutouts


# The camera and top50 workloads score their seeded inputs with a model
# whose training set is fixed, so that only what rerank and score see
# varies with the seed.
SETUP_MODEL_SEED = 42


@dataclass(frozen=True)
class Workload:
    name: str
    model_queries: int  # synth-default queries in each 320x240 model set
    scoring: str  # "test_split", "camera" or "top50"
    scoring_queries: int = 0
    scoring_candidates: int = 0
    chains: int = 1  # independent model sets, each run through every stage

    @property
    def score_first(self) -> bool:
        # the pipeline reranks its split before scoring it; the scoring
        # workloads score first, then rerank
        return self.scoring != "test_split"

    def model_seed(self, seed: int, chain: int) -> int:
        # chain c of seed s is model set s * chains + c: distinct for every (s, c)
        return seed * self.chains + chain if self.scoring == "test_split" else SETUP_MODEL_SEED


def _table(pipeline: tuple[int, int], model: int, camera: tuple[int, int], top50: int) -> dict[str, Workload]:
    return {
        w.name: w
        for w in (
            Workload("pipeline_320", pipeline[0], "test_split", chains=pipeline[1]),
            Workload("camera_inloc", model, "camera", *camera),
            Workload("top50_sparse", model, "top50", top50, 50),
        )
    }


SIZES = {
    # pipeline (queries, chains); sized so that a run holds several passes
    "bench": _table(pipeline=(30, 3), model=12, camera=(2, 2), top50=6),
    # the sizes of the roadmap's baseline measurements, for profiling
    "roadmap": _table(pipeline=(200, 1), model=20, camera=(4, 5), top50=60),
    # the smallest inputs that still give both label classes, for the tests
    "smoke": _table(pipeline=(16, 2), model=12, camera=(1, 2), top50=3),
}
WORKLOADS = SIZES["bench"]


def model_set_config(wl: Workload) -> SynthConfig:
    """What `poseconf synth --queries Q --candidates 10` generates."""
    return SynthConfig(queries=wl.model_queries, candidates_per_query=MODEL_CANDIDATES)


def camera_draws(wl: Workload, seed: int) -> tuple[list[PoseRecord], list[PoseRecord]]:
    """Phone-sized and cutout-sized synth-default draws with the same seed.

    Both draws consume the generator identically, so their inlier counts,
    poses and regimes agree record by record; only the image size differs.
    """
    shape = dict(queries=wl.scoring_queries, candidates_per_query=wl.scoring_candidates)
    queries = synth_generate(SynthConfig(width=QUERY_SIZE[0], height=QUERY_SIZE[1], **shape), seed)
    cutouts = synth_generate(SynthConfig(width=DB_SIZE[0], height=DB_SIZE[1], **shape), seed)
    return queries, cutouts


def scoring_records(wl: Workload, seed: int) -> list[PoseRecord]:
    """The scoring set of a camera or top50 workload."""
    if wl.scoring == "top50":
        config = SynthConfig(
            queries=wl.scoring_queries,
            candidates_per_query=wl.scoring_candidates,
            correct_fraction=0.1,
            adversarial_fraction=0.0,
            junk_fraction=0.1,
        )
        return synth_generate(config, seed)
    if wl.scoring != "camera":
        raise ValueError(f"workload {wl.name} has no generated scoring set")
    # query side from the phone-sized draw, database side from the cutout-sized one
    return [
        PoseRecord(
            query_id=q.query_id,
            candidate_rank=q.candidate_rank,
            query_inliers=q.query_inliers,
            db_inliers=d.db_inliers,
            num_correspondences=q.num_correspondences,
            estimated_pose=q.estimated_pose,
            ground_truth_pose=q.ground_truth_pose,
        )
        for q, d in zip(*camera_draws(wl, seed))
    ]


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass(frozen=True)
class Layout:
    """Paths of one chain's files inside its work directory."""

    chain: int
    work: str
    expected_model_set: str
    model_set: str
    model: str
    train: str
    test: str
    scoring_input: str
    eval_dir: str
    eval_best_dir: str
    rerank_dir: str
    scored: str

    @classmethod
    def at(cls, root: str, chain: int) -> "Layout":
        work = os.path.join(root, f"chain{chain}")

        def p(name):
            return os.path.join(work, name)

        return cls(
            chain=chain,
            work=work,
            expected_model_set=p("expected_model_set.jsonl"),
            model_set=p("model_set.jsonl"),
            model=p("model.json"),
            train=p("train.jsonl"),
            test=p("test.jsonl"),
            scoring_input=p("scoring.jsonl"),
            eval_dir=p("eval"),
            eval_best_dir=p("eval_best"),
            rerank_dir=p("rerank"),
            scored=p("scored.jsonl"),
        )


def layouts(wl: Workload, root: str) -> list[Layout]:
    """One layout per chain, under the run's work directory `root`."""
    return [Layout.at(root, chain) for chain in range(wl.chains)]


def input_key(layout: Layout, path: str) -> str:
    """How the input digests name a generated file."""
    return f"chain{layout.chain}/{os.path.basename(path)}"


def scoring_data(wl: Workload, layout: Layout) -> str:
    return layout.test if wl.scoring == "test_split" else layout.scoring_input


def setup_inputs(wl: Workload, seed: int, chains: list[Layout]) -> dict[str, str]:
    """Generate the workload's input files; return their sha256 digests.

    Each chain's expected model set is what its synth stage must reproduce
    byte for byte; the scoring set is the only input rerank and score see
    on the camera and top50 workloads.
    """
    digests = {}
    for layout in chains:
        os.makedirs(layout.work, exist_ok=True)
        model_set = synth_generate(model_set_config(wl), wl.model_seed(seed, layout.chain))
        write_records(model_set, layout.expected_model_set)
        digests[input_key(layout, layout.model_set)] = sha256_file(layout.expected_model_set)
        if wl.scoring != "test_split":
            write_records(scoring_records(wl, seed), layout.scoring_input)
            digests[input_key(layout, layout.scoring_input)] = sha256_file(layout.scoring_input)
    return digests


def stages(wl: Workload, seed: int, chains: list[Layout]) -> list[tuple[Layout, str, list[str]]]:
    """(chain, metric stage name, poseconf argv) in run order, chain by chain."""
    return [(layout, name, argv) for layout in chains for name, argv in _chain_stages(wl, seed, layout)]


def _chain_stages(wl: Workload, seed: int, layout: Layout) -> list[tuple[str, list[str]]]:
    model_seed = str(wl.model_seed(seed, layout.chain))
    model_chain = [
        ("synth", ["synth", "--queries", str(wl.model_queries), "--candidates",
                   str(MODEL_CANDIDATES), "--seed", model_seed, "--out", layout.model_set]),
        ("train", ["train", "--data", layout.model_set, "--out", layout.model, "--seed",
                   model_seed, "--test-out", layout.test, "--train-out", layout.train]),
        ("eval", ["eval", "--data", layout.test, "--model", layout.model, "--out-dir",
                  layout.eval_dir, "--ablate", "--train-data", layout.train]),
        ("eval_best", ["eval", "--data", layout.test, "--model", layout.model,
                       "--out-dir", layout.eval_best_dir, "--best-only"]),
    ]
    data = scoring_data(wl, layout)
    rerank = ("rerank", ["rerank", "--data", data, "--model", layout.model,
                         "--out-dir", layout.rerank_dir])
    score = ("score", ["score", "--data", data, "--model", layout.model, "--out", layout.scored])
    return model_chain + ([score, rerank] if wl.score_first else [rerank, score])
