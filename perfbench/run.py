"""conclab benchmark: closed-loop verification jobs, end-to-end and per layer.

    python3 perfbench/run.py --workload mc_geometric --seed 1 --seconds 30 --trace 0

Workloads: mc_geometric, exhaustive_cube, spin_dlsi (see perfbench/README.md).
With --trace 0 the last stdout line holds the end-to-end metrics (job
times scaled by a speed probe run next to each job); with --trace 1 it
holds the per-layer metrics of a traced run.  The line before
it is the run record (versions, commit, percentile ranks, failures).
Exits 2 without a result when conclab cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# every matrix is at most 64 x 64, where one BLAS thread is the steady choice
BLAS_THREADS = 1
SETUP_REPEATS = 3
LAYERS = ("samplers", "calculus", "tensor", "discrete", "verify", "bounds")
WORKLOADS = ("mc_geometric", "exhaustive_cube", "spin_dlsi")

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
    "dlsi_ratio_rel": "ratio",
}

# per-layer values are per job of the traced run
FIELD_FUNCS = ("h_ops", "h_field", "h_plus_field", "h_tensor", "h_tensor_field",
               "d_operator", "d_field")
PER_LAYER = {
    "samplers.self_s": "s/job",
    "samplers.calls": "count/job",
    "samplers.rows": "count/job",
    "samplers.rows_per_s": "1/s",
    "calculus.self_s": "s/job",
    "calculus.eval_calls": "count/job",
    "calculus.derivative_tensor_calls": "count/job",
    "tensor.self_s": "s/job",
    "tensor.op_norm_calls": "count/job",
    "tensor.op_norm_restarts": "count/job",
    "tensor.op_norm_unconverged": "count/job",
    "discrete.self_s": "s/job",
    "discrete.field_s": "s/job",
    "discrete.profile_s": "s/job",
    "discrete.value_table_calls": "count/job",
    "discrete.configs_enumerated": "count/job",
    "discrete.d_field_calls": "count/job",
    "verify.self_s": "s/job",
    "verify.dlsi_s": "s/job",
    "verify.level_coefficients_s": "s/job",
    "verify.tail_s": "s/job",
    "verify.moment_s": "s/job",
    "verify.exp_moment_s": "s/job",
    "bounds.self_s": "s/job",
    "bounds.calls": "count/job",
    "trace.wall_s": "s/job",
    "trace.unattributed_s": "s/job",
    "trace.overhead_s": "s/job",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print 'ready' and exit (times set-up)")
    return ap.parse_args(argv)


def import_library():
    """Import conclab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import conclab

    if Path(conclab.__file__).resolve().parent != (src / "conclab").resolve():
        raise ImportError(f"conclab imported from {conclab.__file__}, not {src}")
    return conclab


def measure_setup(args):
    """Wall times of fresh processes from start to all inputs built.

    Not probe-scaled: start-up is mostly page faults and file reads, which
    the CPU probe does not track."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        samples.append(elapsed)
    return samples


def untraced_run(jobs, cycle, seconds):
    return harness.run_jobs(jobs, seconds, cycle)


def traced_run(jobs, cycle, seconds):
    """Half the time traced, then the same jobs replayed without wrappers."""
    import numpy as np

    from conclab import calculus, discrete, samplers

    def rows(count, args, kwargs, result):
        if isinstance(result, samplers.SampleBatch):
            count("samplers.rows", result.count)

    def op_norm(count, args, kwargs, result):
        count("tensor.op_norm_restarts", result.restarts_used)
        count("tensor.op_norm_unconverged", int(not result.converged))

    def value_table(count, args, kwargs, result):
        f = args[0] if args else kwargs["f"]
        if not isinstance(f, np.ndarray):
            count("discrete.configs_enumerated", result.size)

    hooks = {f"samplers.{name}": rows for name in samplers.__all__}
    hooks["tensor.op_norm"] = op_norm
    hooks["discrete.value_table"] = value_table
    modules = {layer: sys.modules[f"conclab.{layer}"] for layer in LAYERS}
    extra = [(discrete, "d_field", "discrete.d_field"),
             (calculus.PolyFunction, "eval", "calculus.PolyFunction.eval")]
    tracer = harness.Tracer()
    saved = harness.install(tracer, modules, extra, hooks)
    try:
        traced = harness.run_jobs(jobs, seconds / 2.0, cycle, tracer=tracer)
    finally:
        harness.uninstall(saved)
    replay = harness.run_jobs(jobs, 0.0, cycle, indices=[r.index for r in traced])
    return tracer, traced, replay


def layer_metrics(tracer, traced, replay):
    jobs = len(traced)
    wall = sum(r.seconds for r in traced)
    by_name = tracer.totals()

    def self_s(*names):
        return sum(by_name.get(n, (0, 0.0))[1] for n in names)

    def calls(*names):
        return sum(by_name.get(n, (0, 0.0))[0] for n in names)

    def layer(prefix):
        names = [n for n in by_name if n.split(".")[0] == prefix]
        return self_s(*names), calls(*names)

    layer_self = {name: layer(name)[0] for name in LAYERS}
    counts = tracer.counts
    rows = counts.get("samplers.rows", 0)
    totals = {
        "samplers.self_s": layer_self["samplers"],
        "samplers.calls": layer("samplers")[1],
        "samplers.rows": rows,
        "calculus.self_s": layer_self["calculus"],
        "calculus.eval_calls": calls("calculus.PolyFunction.eval"),
        "calculus.derivative_tensor_calls": calls("calculus.derivative_tensor"),
        "tensor.self_s": layer_self["tensor"],
        "tensor.op_norm_calls": calls("tensor.op_norm"),
        "tensor.op_norm_restarts": counts.get("tensor.op_norm_restarts", 0),
        "tensor.op_norm_unconverged": counts.get("tensor.op_norm_unconverged", 0),
        "discrete.self_s": layer_self["discrete"],
        "discrete.field_s": self_s(*(f"discrete.{n}" for n in FIELD_FUNCS)),
        "discrete.profile_s": self_s("discrete.dependence_profile", "discrete.dlsi_constant"),
        "discrete.value_table_calls": calls("discrete.value_table"),
        "discrete.configs_enumerated": counts.get("discrete.configs_enumerated", 0),
        "discrete.d_field_calls": calls("discrete.d_field"),
        "verify.self_s": layer_self["verify"],
        "verify.dlsi_s": self_s("verify.verify_dlsi"),
        "verify.level_coefficients_s": self_s("verify.discrete_level_coefficients",
                                              "verify.polynomial_level_coefficients"),
        "verify.tail_s": self_s("verify.verify_tail", "verify.empirical_tail"),
        "verify.moment_s": self_s("verify.verify_moment_recursion"),
        "verify.exp_moment_s": self_s("verify.verify_exp_moment"),
        "bounds.self_s": layer_self["bounds"],
        "bounds.calls": layer("bounds")[1],
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(layer_self.values()),
        # probe-scaled, so machine drift between the two halves cancels
        "trace.overhead_s": sum(r.scaled_s for r in traced) - sum(r.scaled_s for r in replay),
    }
    values = {name: value / jobs for name, value in totals.items()}
    sampler_s = layer_self["samplers"]
    values["samplers.rows_per_s"] = rows / sampler_s if sampler_s > 0 else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def end_to_end_metrics(results, setup_s):
    times = [r.scaled_s for r in results]
    p50, _ = harness.lower_median(times)
    tail, _, _ = harness.tail_percentile(times)
    failed = sum(1 for r in results if r.failures)
    rels = [r.extras["dlsi_ratio_rel"] for r in results if "dlsi_ratio_rel" in r.extras]
    values = {
        "jobs_per_s": len(times) / sum(times),
        "job_s_p50": p50,
        "job_s_tail": tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - failed / len(times),
        # geometric mean over search jobs; the empty product (1) elsewhere
        "dlsi_ratio_rel": math.exp(statistics.fmean(map(math.log, rels))) if rels else 1.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def describe(results):
    """Job counts and median scaled time per kind, the kind each reported
    percentile reads, the unscaled wall-time figures and the probe."""
    times = [r.scaled_s for r in results]
    by_kind = {}
    for r in results:
        by_kind.setdefault(r.kind, []).append(r.scaled_s)
    kinds = {kind: {"jobs": len(ts), "median_s": statistics.median(ts)}
             for kind, ts in by_kind.items()}
    wall = [r.seconds for r in results]
    out = {
        "jobs": len(results),
        "kinds": kinds,
        "probe_median_s": statistics.median(r.probe_s for r in results),
        "wall": {"jobs_per_s": len(wall) / sum(wall), "job_s_p50": harness.lower_median(wall)[0]},
        "failures": [{"index": r.index, "kind": r.kind, "failures": r.failures}
                     for r in results if r.failures],
    }
    if len(times) > harness.TAIL_BEYOND:
        _, p50_pos = harness.lower_median(times)
        _, pct, tail_pos = harness.tail_percentile(times)
        out["job_s_p50"] = {"kind": results[p50_pos].kind, "index": results[p50_pos].index}
        out["job_s_tail"] = {"percentile": pct, "beyond": harness.TAIL_BEYOND,
                             "jobs": len(results), "kind": results[tail_pos].kind,
                             "index": results[tail_pos].index}
    return out


def main(argv=None):
    args = parse_args(argv)
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    try:
        import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import conclab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    jobs, warmup, cycle = workloads.build_pool(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    harness.run_jobs(warmup, 0.0, cycle, indices=range(len(warmup)))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "pool_jobs": len(jobs),
              **harness.run_context(ROOT, threads)}
    if args.trace:
        tracer, traced, replay = traced_run(jobs, cycle, args.seconds)
        results = traced + replay
        metrics = layer_metrics(tracer, traced, replay)
        record.update(describe(traced))
        record["replay_failures"] = describe(replay)["failures"]
    else:
        results = untraced_run(jobs, cycle, args.seconds)
        setup = measure_setup(args)
        metrics = end_to_end_metrics(results, statistics.median(setup))
        record.update(describe(results))
        record["setup_samples_s"] = setup
    record["pool_wrapped"] = any(r.index >= len(jobs) for r in results)
    failed = sum(1 for r in results if r.failures)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
