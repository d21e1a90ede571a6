#!/usr/bin/env python3
"""Repository benchmark: time to the k lowest Casida excitation energies.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and with it the library
in src/) into .bench_build/, computes the dense-Casida reference energies
for the seed once (cached, outside every timed region), measures set-up in
fresh processes, runs the timed solves, prints a human-readable report and
ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced rebuild of the same solve (Chrome trace in .bench_build/).
Workloads, metric definitions and predictions: perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# The problem each workload solves; workloads on one problem share its
# reference energies.
PROBLEM = {
    "si64-isdf-serial": "si64",
    "si64-isdf-4rank": "si64",
    "si64-isdf-threads": "si64",
    "si27-dense-4rank": "si27",
}

# Extra set-up samples, each in a fresh process (the timed run adds one).
SETUP_PROCESSES = 2
# Wall-clock budget of everything after the build (a run must end in 180 s).
RUN_BUDGET_S = 170

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "isdf.theta_solve_s": "s",
    "la.dense_eig_s": "s",
    "la.gemm_s": "s",
    "la.gemm.flops": "flop",
    "la.gemm_pct_peak": "%",
    "tddft.kernel_build_s": "s",
    "tddft.kernel_apply_s": "s",
    "tddft.assemble_s": "s",
    "fft.fft3d.points": "count",
    "fft.pct_bw": "%",
    "kmeans.s": "s",
    "kmeans.iterations": "count",
    "kmeans.prune_ratio": "ratio",
    "kmeans.iterations_distinct": "count",
    "isdf.assemble_s": "s",
    "isdf.pair_product_s": "s",
    "lobpcg.s": "s",
    "lobpcg.iterations": "count",
    "lobpcg.iterations_distinct": "count",
    "par.transpose_s": "s",
    "par.gram_reduce_s": "s",
    "par.comm_bytes": "B",
    "par.comm_calls": "count",
    "par.imbalance_s": "s",
    "mem.minor_faults": "count",
    "accuracy.energy_err_rel": "ratio",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
    "trace.repro_err_rel": "ratio",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    log = out / "build.log"
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(out / "cmake"), "-j", jobs]]
    if not (out / "cmake" / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(out / "cmake"),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed; log in " + str(log))
    return out / "cmake" / "perfbench"


def run_child(binary, args, deadline):
    """Runs the benchmark binary; returns its last stdout line as JSON."""
    try:
        proc = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: " + " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no output: " + " ".join(args))
    return json.loads(lines[-1])


def reference(binary, out, workload, seed, deadline):
    """Dense-Casida energies for (problem, seed), computed once and cached."""
    path = out / "ref" / f"{PROBLEM[workload]}-seed{seed}.txt"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        run_child(binary, ["--mode", "reference", "--workload", workload,
                           "--seed", str(seed), "--out", str(tmp)], deadline)
        tmp.replace(path)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PROBLEM))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    t0 = time.monotonic()
    deadline = t0 + RUN_BUDGET_S
    ref = reference(binary, out, args.workload, args.seed, deadline)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    trace_path = out / "traces" / f"{args.workload}-seed{args.seed}.trace.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    run = run_child(binary, ["--mode", "run", "--seconds", str(args.seconds),
                             "--trace", str(args.trace), "--ref", str(ref),
                             "--trace-out", str(trace_path)] + common, deadline)
    setups = [run["setup_s"]]
    if not args.trace:
        for _ in range(SETUP_PROCESSES):
            setups.append(run_child(binary, ["--mode", "setup"] + common,
                                    deadline)["setup_s"])

    # No sample means every timed solve failed; `correct` is false then.
    solves = run["solve_s_samples"] or [0.0]
    e2e = {
        "solve_s": statistics.median(solves),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    correct = run["failed"] == 0 and bool(run["solve_s_samples"])
    # Layers absent from a run (no traced solve finished) read 0.
    layers = {name: 0.0 for name in PER_LAYER} | run.get("layers", {})
    if args.trace:
        correct = correct and layers.get("trace.valid") == 1

    # Human-readable report (everything before the last line).
    print(f"workload {run['workload']}  seed {args.seed}  "
          f"{run['ranks']} rank(s) x {run['threads_per_rank']} thread(s)  "
          f"Nmu {run['nmu']}")
    print(f"host: nproc {run['nproc']}, cpu '{run['cpu_model']}', isa "
          f"{run['isa']}, compiler {run['compiler']}, build {run['build_type']}")
    if "ceil.fma_peak_gflops" in run:
        print(f"ceilings ({run['ceil.threads']} threads): FMA peak "
              f"{run['ceil.fma_peak_gflops']:.1f} GFLOP/s, triad "
              f"{run['ceil.triad_gbs']:.1f} GB/s over {run['ceil.triad_bytes'] / 2**20:.0f} MiB "
              f"(LLC {run['ceil.llc_bytes'] / 2**20:.0f} MiB)")
    q = statistics.quantiles(solves, n=4) if len(solves) >= 2 else [solves[0]] * 3
    print(f"solve_s            = {e2e['solve_s']:.4f} s  (median of {len(solves)} "
          f"warm solves; quartiles {q[0]:.4f} / {q[2]:.4f})")
    # The highest tail percentile with at least ten samples beyond it.
    for pct in (99, 90):
        if len(solves) * (100 - pct) / 100 >= 10:
            tail = statistics.quantiles(solves, n=100)[pct - 1]
            print(f"solve_p{pct}_s        = {tail:.4f} s")
            break
    print(f"setup_s            = {e2e['setup_s']:.4f} s  (median of {len(setups)} "
          f"fresh processes: build problem + cold solve)")
    span = "the whole process" if run["peak_rss_since_start"] else "the timed solves"
    print(f"peak_rss_mb        = {e2e['peak_rss_mb']:.1f} MB  (VmHWM over {span})")
    print(f"host steal         = {100 * run['steal_share']:.1f} % of all CPU time "
          f"during the timed solves (other guests of the host)")
    print(f"energy_err_rel     = {run['energy_err_rel']:.3e} ratio  (median; max "
          f"{run['energy_err_rel_max']:.3e}; tolerance {run['energy_tolerance']:.0e})")
    print(f"solve_fail_frac    = {run['failed'] / run['attempted']:.4f} ratio  "
          f"({run['failed']} of {run['attempted']} solves)")
    print(f"determinism: K-Means iterations {run['kmeans_iteration_values']}, "
          f"LOBPCG iterations {run['lobpcg_iteration_values']}, "
          f"{run['energies_distinct']} distinct energy vector(s)")
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:28s} {layers[name]:.6g} {unit}")
        print(f"trace: {layers.get('trace.solves', 0):.0f} traced solves, valid="
              f"{layers.get('trace.valid', 0):.0f}, written to {trace_path}")
    print(f"run took {time.monotonic() - t0:.1f} s")

    wanted = PER_LAYER if args.trace else END_TO_END
    source = layers if args.trace else e2e
    result = {
        "correct": bool(correct),
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
