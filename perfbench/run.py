#!/usr/bin/env python3
"""levelmix benchmark: one workload per process, one call at a time.

    python3 perfbench/run.py --workload train-smb-f64 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; levelmix is imported from its src/ directory.
The workload's set-up runs SETUP_REPS times (setup_s is the median). A
one-off step after it (eval-smb-k10 writes its checkpoint) is reported as
once_s in the info line, not in setup_s. The timed unit then repeats until
--seconds have been measured, at least once. With --trace 0 the last stdout
line holds the end-to-end metrics. With --trace 1 the set-up and one unit
run traced, the last line holds the per-layer metrics, and the spans go to
.perfbench_out/. Correctness gates run outside the timed part; a failed
gate or a call that raised makes the run incorrect and the exit code 1.
Without levelmix the exit code is 2 and no result is printed. METRICS.md
lists what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

sys.dont_write_bytecode = True  # leave no caches in the checkout
import machine  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 7
# user-facing call times that are reported per-layer, from the calls in the
# unit (and set-up); the few spans inside these long calls add little to them
CALL_TIMES = (
    ("ckpt_save_s", "save_s", "s"),
    ("ckpt_load_s", "load_s", "s"),
    ("disentangle_s", "disentangle_s", "s"),
    ("playability_chunks_per_s", "play_chunks_per_s", "1/s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train-smb-f64", "baseline-ki-f32", "eval-smb-k10"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def measure(wl, run, args, workdir, tracer_cls):
    """Set up, run the timed unit(s) and check the gates on the first; returns
    (setup reps, once seconds, unit walls, setup tracer, unit tracer). With
    --trace 1 the tracers are installed and the unit runs once."""
    setup_tracer = tracer_cls() if args.trace else None
    with setup_tracer or contextlib.nullcontext():
        setup_s, state = [], None
        for _ in range(SETUP_REPS):
            state = None  # release the previous set-up first
            t0 = time.perf_counter()
            state = wl.setup(run, args.seed, workdir)
            setup_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        if hasattr(wl, "once"):
            wl.once(run, state)
        once_s = time.perf_counter() - t0

    tracer = tracer_cls() if args.trace else None
    walls, digests = [], []
    while not walls or (not args.trace and sum(walls) < args.seconds):
        if walls:
            wl.fresh(run, state)
        run.gate_s = 0.0
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            out = wl.unit(run, state)
            walls.append(time.perf_counter() - t0 - run.gate_s)
        digests.append(wl.digest(out))
        if len(walls) == 1:
            # peak memory before the gates: the round-trip load of
            # baseline-ki-f32's gate is not part of the CLI command
            run.measures["peak_rss_kb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            wl.check(run, state, out)
            run.info["params"] = wl.params(out)
        del out
    run.gate("deterministic", len(set(digests)) == 1, f"{len(set(digests))} distinct results over {len(digests)} units")
    return setup_s, once_s, walls, setup_tracer, tracer


def end_to_end(run, setup_s, walls):
    def med(key):
        return statistics.median(run.measures[key])

    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "train_chunks_per_s": (med("train_chunks_per_s"), "1/s"),
        "ckpt_mb": (med("ckpt_bytes") / 1e6, "MB"),
        "peak_rss_mb": (run.measures["peak_rss_kb"][0] / 1024, "MB"),
    }


def main(argv=None):
    args = parse_args(argv)
    threads = machine.blas_threads()  # before numpy is imported
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import tracer as tr
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import levelmix from {ROOT}/src: {exc}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    run = workloads.Run()
    run.trace = bool(args.trace)
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=os.path.join(ROOT, ".perfbench_work"))
    facts = machine.facts()
    facts["blas_threads_cap"] = threads
    metrics = {}
    try:
        setup_s, once_s, walls, setup_tracer, tracer = measure(wl, run, args, workdir, tr.Tracer)
        if args.trace:
            metrics = tr.layer_metrics(setup_tracer.spans, tracer.spans, walls[0], tracer.overhead_s)
            metrics["params"] = (run.info.pop("params"), "count")
            for name, key, unit in CALL_TIMES:  # 0 where not called
                values = run.measures.get(key)
                metrics[name] = (statistics.median(values) if values else 0.0, unit)
            metrics["copy_gbps"] = (machine.copy_gbps(facts["copy_array_bytes"]), "GB/s")
            dtype = "float32" if args.workload.endswith("f32") else "float64"
            metrics["gemm_gflops"] = (machine.gemm_gflops(dtype), "GFLOP/s")
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
            header = {"workload": args.workload, "seed": args.seed, "machine": facts,
                      "traced_wall_s": walls[0], "trace_overhead_s": tracer.overhead_s}
            tr.dump(spans_path, header, [("setup", setup_tracer), ("unit", tracer)])
            run.info["spans_file"] = os.path.relpath(spans_path, ROOT)
            run.info["computed_counts"] = list(tr.COMPUTED)
        else:
            metrics = end_to_end(run, setup_s, walls)
        run.info.update(setup_reps_s=setup_s, once_s=once_s, unit_walls_s=walls)
    except Exception as exc:  # the run is incorrect; report it and still print the result
        traceback.print_exc()
        run.failures.append(f"{type(exc).__name__}: {exc}")
        if not run.failed:  # raised outside a counted call
            run.attempted += 1
            run.failed += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = run.failed == 0
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": facts,
            "failed_ops_share": run.failed / max(run.attempted, 1), "failures": run.failures, **run.info}
    print(json.dumps({"info": info}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
