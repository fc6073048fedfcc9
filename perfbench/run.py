#!/usr/bin/env python3
"""Benchmark of the poseconf command-line pipeline.

    python3 perfbench/run.py --workload pipeline_320 --seed 42 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  The workload's inputs are made from
--seed.  With --trace 0 every stage runs as its own `python -m poseconf.cli`
child process, one at a time, from this single runner: a closed loop with
one client and no extra threads.  A pass runs every stage once on one
chain (model set) of the workload; passes take the chains in turn and
repeat while the next one still fits in --seconds (at least one round).
Each stage reports its median over a chain's passes, summed over the
chains.  With --trace 1 one round runs in-process under the tracer of
perfbench/trace.py instead, for per-layer numbers.

The end-to-end times are CPU times: a stage's is the user plus system time
of its process, interpreter start included, as os.wait4 reports it to this
runner; setup_s is this runner's own CPU time while it generates the inputs.
Every stage is single-threaded (one BLAS thread), so on an idle machine its
CPU time and its wall time agree within a few percent; on a shared host the
wall time also counts the time the stage waited for a core, which varies
with the neighbours' load, not with the program.  (Two busy-loop processes
on a 2-core x86-64 VM stretched the stage wall times by 40-70% and their
CPU times by 1-15%.)  Wall times are still recorded, in the facts line.

Each chain's last outputs are checked independently (perfbench/check.py);
a stage that exits non-zero or fails its check counts as failed.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the run's
facts (machine, versions, seed, load model, input digests).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
LOAD_MODEL = "closed loop, one client, stages run one at a time"
# The environment every process of a run starts with.  One BLAS thread, so
# no child starts a thread pool the 2-core budget must absorb.  glibc's
# malloc thresholds pinned where its dynamic threshold climbs once a process
# has freed a large buffer: mmap above 32 MiB (the 64-bit ceiling), trim
# above twice that.  Left dynamic, whether each raster buffer of a 320x240
# coverage map is a fresh, page-faulting mapping depends on the allocation
# history, which flipped the top50 score stage between 1.6 s and 2.9 s from
# seed to seed; pinned at glibc's 128 KiB start value instead, every such
# buffer faults (644 thousand minor faults against 6 thousand, 2.1 s against
# 1.1 s), and page-fault time varies far more on a shared host than compute
# time does (2-core x86-64 VM, Python 3.11, numpy 2.4).  The buffers of a
# 4032x3024 map (98 MB each) are fresh mappings either way.
RUN_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(64 << 20),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict[str, str], log_path: str) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, CPU s, peak RSS in MB)."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def import_once(env: dict[str, str], log_path: str) -> float:
    """Wall time of a fresh interpreter importing poseconf.cli."""
    code, wall, _, _ = run_child(["-c", "import poseconf.cli"], env, log_path)
    if code != 0:
        raise RuntimeError("poseconf.cli does not import; see " + log_path)
    return wall


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "poseconf")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; source_sha256 identifies the code
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts(args) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "load_model": LOAD_MODEL,
    }


def raster_bytes_computed(width: int, height: int) -> int:
    """Bytes of the two int64 buffers one raster coverage map allocates."""
    return 8 * (height * (width + 1) + (height + 1) * width)


def _merge(per_pass: list[dict[str, list[str]]]) -> dict[str, list[str]]:
    merged: dict[str, list[str]] = {}
    for failing in per_pass:
        for name, messages in failing.items():
            merged.setdefault(name, []).extend(messages)
    return merged


def setup(wl, seed: int, root: str, chains) -> tuple[float, dict[str, str]]:
    from perfbench.workloads import setup_inputs

    shutil.rmtree(root, ignore_errors=True)
    t0 = time.process_time()
    digests = setup_inputs(wl, seed, chains)
    return time.process_time() - t0, digests


def untraced(wl, args, root, facts) -> dict:
    from perfbench.check import check_pass
    from perfbench.workloads import MODEL_STAGES, STAGES, layouts, stages

    env = child_env()
    log = root + ".log"
    chains = layouts(wl, root)
    import_once(env, log)  # compiles the package's bytecode before anything is timed
    setup_times, digests = [], None
    for _ in range(SETUP_REPEATS):
        elapsed, got = setup(wl, args.seed, root, chains)
        setup_times.append(elapsed)
        if digests not in (None, got):
            raise RuntimeError("the same seed generated different inputs")
        digests = got
    facts["input_sha256"] = digests

    plan = stages(wl, args.seed, chains)
    # A pass runs one chain's stages; passes take the chains in turn, and
    # at least one round of them runs.  cpu[chain][stage] lists that
    # stage's CPU seconds, one per pass over the chain.
    cpu = [{name: [] for name in STAGES} for _ in chains]
    wall = [{name: [] for name in STAGES} for _ in chains]
    pass_wall, pass_failures, peak_rss = [], [], 0.0
    started = time.perf_counter()
    while True:
        layout = chains[len(pass_wall) % len(chains)]
        pass_start = time.perf_counter()
        failing: dict[str, list[str]] = {}
        for _, name, argv in (item for item in plan if item[0] is layout):
            code, elapsed, used, rss = run_child(["-m", "poseconf.cli", *argv], env, log)
            cpu[layout.chain][name].append(used)
            wall[layout.chain][name].append(elapsed)
            peak_rss = max(peak_rss, rss)
            if code != 0:
                failing[f"chain{layout.chain}/{name}"] = [f"exit code {code}"]
        pass_wall.append(time.perf_counter() - pass_start)
        pass_failures.append(failing)
        if (len(pass_wall) >= len(chains)
                and time.perf_counter() - started + statistics.median(pass_wall) > args.seconds):
            break
    # outputs are overwritten by every pass, so each chain's last pass is checked
    check = check_pass(wl, chains, digests)
    for name, messages in check.failures.items():
        pass_failures[-1].setdefault(name, []).extend(messages)

    def summed_medians(times):  # each stage's median over its passes, summed over the chains
        return {name: sum(statistics.median(per_chain[name]) for per_chain in times) for name in STAGES}

    med = summed_medians(cpu)
    facts.update(
        passes=len(pass_wall),
        failures=_merge(pass_failures),
        median_cpu_s=med,
        median_wall_s=summed_medians(wall),
    )
    # Single stages are too short to hold a 25% bound on a shared host, so
    # the bounded metrics add stage medians up: the whole loop, the
    # model-building stages, and the two stages that score the scoring set
    # (each reads every record of it once).
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "cpu_s": (sum(med.values()), "s"),
        "model_cpu_s": (sum(med[name] for name in MODEL_STAGES), "s"),
        "records_per_cpu_s": (2 * check.records_scored / (med["rerank"] + med["score"]), "records/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    return {
        "attempted": len(STAGES) * len(pass_wall),
        "failed": sum(len(f) for f in pass_failures),
        "metrics": metrics,
    }


def traced(wl, args, root, facts) -> dict:
    import poseconf.cli
    from perfbench import trace
    from perfbench.check import check_pass
    from perfbench.workloads import layouts, stages

    env = child_env()
    log = root + ".log"
    chains = layouts(wl, root)
    import_s = statistics.median(import_once(env, log) for _ in range(IMPORT_REPEATS))
    _, digests = setup(wl, args.seed, root, chains)
    facts["input_sha256"] = digests

    tracer = trace.Tracer()
    stage_wall: dict[str, float] = {}  # summed over the chains
    failures: dict[str, list[str]] = {}
    plan = stages(wl, args.seed, chains)
    tracer.install()
    try:
        for layout, name, argv in plan:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = tracer.run_stage(name, lambda: poseconf.cli.main(argv))
            except Exception as exc:  # a crash the CLI did not turn into an exit code
                code = f"{type(exc).__name__}: {exc}"
            stage_wall[name] = stage_wall.get(name, 0.0) + time.perf_counter() - t0
            if code != 0:
                failures[f"chain{layout.chain}/{name}"] = [f"exit code {code}"]
    finally:
        tracer.uninstall()
    check = check_pass(wl, chains, digests)
    for name, messages in check.failures.items():
        failures.setdefault(name, []).extend(messages)

    metrics, trace_facts = trace.layer_metrics(tracer, stage_wall, args.seed)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["evaluation.model_pr_auc"] = (check.model_pr_auc, "ratio")
    metrics["evaluation.rerank_acc_1m"] = (check.rerank_acc_1m, "ratio")
    os.makedirs(OUT_ROOT, exist_ok=True)
    spans_path = os.path.join(OUT_ROOT, f"spans-{wl.name}-{args.seed}.jsonl")
    tracer.write(spans_path)
    facts.update(trace_facts, failures=failures, spans=os.path.relpath(spans_path, ROOT))
    return {"attempted": len(plan), "failed": len(failures), "metrics": metrics}


def _report_log(path: str, facts: dict) -> None:
    """Pass the children's output on to stderr when a stage failed; remove it."""
    if os.path.exists(path):
        if facts.get("failures"):
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-4000:])
        os.remove(path)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "roadmap", "smoke"), default="bench",
                        help="input sizes: the benchmark's (default), the roadmap "
                             "baseline's for profiling, or the smoke test's")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main() -> int:
    args = parse_args(sys.argv[1:])
    if not os.path.isfile(os.path.join(SRC, "poseconf", "cli.py")):
        print(f"error: no poseconf sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if any(os.environ.get(key) != value for key, value in RUN_ENV.items()):
        # the allocator and BLAS read these at start-up: restart this process with them
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, **RUN_ENV))
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path[:0] = [SRC, ROOT]
    import poseconf

    if os.path.dirname(os.path.abspath(poseconf.__file__)) != os.path.join(SRC, "poseconf"):
        print(f"error: poseconf imported from {poseconf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import SIZES

    table = SIZES[args.size]
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(table)}", file=sys.stderr)
        return 2
    wl = table[args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    root = os.path.join(WORK_ROOT, f"{wl.name}-{args.seed}-{os.getpid()}")
    facts = machine_facts(args)
    facts["computed_raster_bytes"] = {
        "note": "computed from image sizes, not measured",
        **{f"{w}x{h}": raster_bytes_computed(w, h) for w, h in ((320, 240), (1600, 1200), (4032, 3024))},
    }
    try:
        result = (traced if args.trace else untraced)(wl, args, root, facts)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        _report_log(root + ".log", facts)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    for stage, messages in facts["failures"].items():
        for message in messages:
            print(f"FAILED {stage}: {message}", file=sys.stderr)
    print(json.dumps({"facts": facts}, default=str))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
