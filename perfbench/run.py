"""Benchmark of the resilient_consensus package.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from ./src. With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from benchmark-side spans. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Workloads are described in perfbench/workloads.py and the figures
behind their choice in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one BLAS/OpenMP thread: steadier timings on a small shared machine, and
# never more threads than cores. Set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# glibc adapts its mmap threshold to the sizes freed so far, so whether a
# large array lands in the heap, and stays in the resident set after it is
# freed, depends on allocation history and peak RSS jumps between runs. A
# fixed threshold (glibc's default, 128 KiB) keeps large arrays in mmap.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 128 * 1024

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_PROBES = 7


def _parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up as a run would, then exit; the parent times it
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    # internal: a few small ops per pass, for the benchmark's own tests
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    if not (SRC / "resilient_consensus" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'resilient_consensus'}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import resilient_consensus

    if Path(resilient_consensus.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported {resilient_consensus.__file__}, not the checkout's")
    return resilient_consensus


def _setup_seconds(args):
    """Median wall time of fresh processes from start to ready-to-run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(pkg):
    import importlib.metadata

    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "package": pkg.__version__,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "blas_threads": int(BLAS_THREADS),
    }


def _fix_mmap_threshold():
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # not glibc
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)


def main(argv=None):
    _fix_mmap_threshold()
    sys.path.insert(0, str(ROOT))
    from perfbench import checks, harness, tracing, workloads

    args = _parse_args(argv, workloads.WORKLOADS)
    pkg = _import_package()

    workload = workloads.build(args.workload, args.seed, pkg.BUNDLED_SCENARIOS, tiny=args.tiny)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    print("env " + json.dumps(environment(pkg)), flush=True)
    with open(Path(__file__).resolve().parent / "expected.json", encoding="utf-8") as fh:
        checker = checks.Checker(pkg, json.load(fh))
    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=OUT_ROOT, prefix="emit-")
    try:
        if args.trace == 0:
            setup_s = _setup_seconds(args)
            passes = harness.measure(pkg, workload, args.seconds, out_dir, checker,
                                     min_runs=workload.min_runs)
            metrics = harness.end_to_end(passes, setup_s)
        else:
            half = args.seconds / 2.0
            untraced = harness.measure(pkg, workload, half, out_dir, checker)
            tracer = tracing.Tracer()
            tracer.install(pkg)
            tracer.active = True
            try:
                traced = harness.measure(pkg, workload, half, out_dir, checker, tracer,
                                         first_pass=len(untraced))
                alloc = harness.measure_alloc(pkg, workload, out_dir, checker, tracer,
                                              first_pass=len(untraced) + len(traced))
            finally:
                tracer.active = False
                tracer.uninstall()
            spans_path = OUT_ROOT / f"spans_{args.workload}_seed{args.seed}.json"
            tracer.dump(spans_path)
            print(f"spans written to {spans_path}")
            metrics = harness.per_layer(tracer, traced, untraced)
            passes = untraced + traced + alloc
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    records = [r for p in passes for r in p]
    failed = [r for r in records if r.failures]
    for r in failed[:20]:
        for msg in r.failures:
            print(f"FAILED {msg}")
    print(f"{args.workload}: {len(records)} runs in {len(passes)} passes, "
          f"failed_frac = {len(failed) / len(records):.4g}")
    print("  pass seconds: " + " ".join(f"{sum(r.seconds for r in p):.3f}" for p in passes))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
