"""Benchmark of the masc package: one workload per process, metrics as JSON.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gallery-stream --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, in four
worker processes run one after another for a quarter of ``--seconds`` each, and
pools their samples. ``--trace 1`` alternates untraced and traced cycles in
one process, and reports the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give each metric with its unit and
sample count, and the machine.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOAD_NAMES = ("raster-sweep", "gallery-stream")
DEFAULT_SEED = 0
# Python code runs faster or slower by several per cent from one process to
# the next (memory layout, hash seeds), so an untraced run pools the samples
# of several processes; each also sets up once, which gives setup_s a median.
WORKERS = 4
WORKER_TIMEOUT_S = 42  # four of them stay inside the 180 s a run may take
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
DIGESTS = HERE / "digests.json"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, choices=range(WORKERS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_masc(root: Path) -> float | None:
    """Import masc from ``root/src`` only; the seconds it took, or None."""
    package = root / "src" / "masc"
    if not (package / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    try:
        import masc
    except ImportError:
        return None
    seconds = time.perf_counter() - start
    if Path(masc.__file__).resolve().parent != package.resolve():
        return None
    return seconds


def run_loop(workload, seconds: float, indices, need: int) -> tuple[float, list[int]]:
    """Run whole cycles, numbered from ``indices``, until every classifier has
    ``need`` samples and another cycle would end further past ``seconds`` than
    stopping now falls short of it; (on-clock seconds, numbers).

    Rounding to the nearest whole cycle, rather than always running over,
    keeps the number of cycles, and so the sample count that sets the tail
    percentile, the same from run to run when a cycle lasts several seconds.
    """
    start = time.perf_counter()
    on_clock, done = 0.0, []
    for index in indices:
        on_clock += workload.run_cycle(index)
        done.append(index)
        enough = min(len(v) for v in workload.recorder.latency.values()) >= need
        elapsed = time.perf_counter() - start
        if enough and elapsed * (1 + 0.5 / len(done)) >= seconds:
            return on_clock, done
    return on_clock, done


def run_traced(workload, tracer, seconds: float):
    """Alternate untraced and traced cycles until ``seconds`` have passed.

    Alternating lets both halves see the same machine; returns the on-clock
    seconds of each half and the number of pairs.
    """
    deadline = time.perf_counter() + seconds
    untraced = traced = 0.0
    pairs = 0
    while pairs == 0 or time.perf_counter() < deadline:
        untraced += workload.run_cycle(2 * pairs)
        tracer.install()
        try:
            traced += workload.run_cycle(2 * pairs + 1)
        finally:
            tracer.uninstall()
        pairs += 1
    return untraced, traced, pairs


def check_digests(name: str, seed: int, inputs: str, cycles: dict[int, str]) -> list[str]:
    """At the recorded seed, compare input and decision digests with the record."""
    record = json.loads(DIGESTS.read_text(encoding="utf-8"))
    recorded = record["workloads"].get(name)
    if seed != record["seed"] or recorded is None:
        return []
    failures = []
    if inputs != recorded["inputs"]:
        failures.append(f"input digest {inputs} != recorded {recorded['inputs']}")
    for index, got in sorted(cycles.items()):
        if index < len(recorded["cycles"]) and got != recorded["cycles"][index]:
            failures.append(f"decision digest of cycle {index}: {got} "
                            f"!= recorded {recorded['cycles'][index]}")
    return failures


def blas_threads() -> list[dict]:
    """OpenBLAS libraries mapped into this process and their thread counts."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found.append({"library": Path(path).name, "threads": fn()})
                break
    return found


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(root: Path) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MSC_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in env},
        "git_commit": git_commit(root),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(parts: list[dict]):
    """Pool the workers' samples into the end-to-end metrics; (metrics, notes)."""
    from workloads import CLASSIFIERS, TRIM, tail, trimmed_mean

    setups = [p["import_s"] + p["setup_s"] for p in parts]
    metrics = {"setup_s": metric(statistics.median(setups), "s"),
               "sets_per_s": metric(sum(p["sets"] for p in parts)
                                    / sum(p["on_clock"] for p in parts), "1/s")}
    notes = {"setup_s": f"median of {len(setups)} processes: import + set-up"}
    for name in CLASSIFIERS:
        samples = [x for p in parts for x in p["latency"][name]]
        value, pct = tail(samples)
        metrics[f"{name}.query_ms_tmean"] = metric(1e3 * trimmed_mean(samples), "ms")
        metrics[f"{name}.query_ms_tail"] = metric(1e3 * value, "ms")
        notes[f"{name}.query_ms_tmean"] = f"{TRIM:.0%} trimmed at each end, n={len(samples)}"
        notes[f"{name}.query_ms_tail"] = f"p{pct} of n={len(samples)}"
    metrics["peak_rss_mb"] = metric(max(p["peak_rss_mb"] for p in parts), "MB")
    notes["peak_rss_mb"] = "largest of the processes"
    return metrics, notes


def per_layer(workload, tracer, loop_start: int, traced: float, untraced: float):
    from tracer import CLASSIFY_SPAN

    selfs = tracer.self_times()

    def calls(name):
        return metric(len(selfs.get(name, ())), "count")

    def self_ms(name):
        values = selfs.get(name)
        return metric(1e3 * statistics.fmean(values) if values else 0.0, "ms")

    busy = sum(end - start for _, _, name, start, end, _ in tracer.spans[loop_start:]
               if name == CLASSIFY_SPAN)
    rec = workload.recorder
    return {
        "evaluate.classify.calls": calls(CLASSIFY_SPAN),
        "evaluate.classify.self_ms": self_ms(CLASSIFY_SPAN),
        "evaluate.busy_frac": metric(busy / traced, "frac"),
        "fixtures.make_instance.self_ms": self_ms("fixtures.make_instance"),
        "data.rotation_set.calls": calls("data.rotation_set"),
        "data.rotation_set.self_ms": self_ms("data.rotation_set"),
        "data.load_gallery.self_ms": self_ms("data.load_gallery"),
        "graph.build_knn_graph.calls": calls("graph.build_knn_graph"),
        "graph.build_knn_graph.self_ms": self_ms("graph.build_knn_graph"),
        "graph.estimate_sigma.self_ms": self_ms("graph.estimate_sigma"),
        "graph.normalize_similarity.self_ms": self_ms("graph.normalize_similarity"),
        "graph.pairs_computed": metric(tracer.mean("graph.pairs_computed"), "count"),
        "graph.d2_mb_max": metric(tracer.maximum("graph.d2_mb_max"), "MB"),
        "graph.edges": metric(tracer.mean("graph.edges"), "count"),
        "graph.interface_edges": metric(tracer.mean("graph.interface_edges"), "count"),
        "graph.repeat_frac": metric(tracer.mean("graph.repeat_frac"), "frac"),
        "smoothing.masc_classify.self_ms": self_ms("smoothing.masc_classify"),
        "labelprop.lp_solve.calls": calls("labelprop.lp_solve"),
        "labelprop.lp_solve.self_ms": self_ms("labelprop.lp_solve"),
        "labelprop.lp_solve.flops": metric(tracer.mean("labelprop.lp_solve.flops"), "flop"),
        "subspace.pca_subspace.self_ms": self_ms("subspace.pca_subspace"),
        "subspace.msm_similarity.self_ms": self_ms("subspace.msm_similarity"),
        "subspace.kpca_subspace.self_ms": self_ms("subspace.kpca_subspace"),
        "subspace.kmsm_similarity.self_ms": self_ms("subspace.kmsm_similarity"),
        "subspace.repeat_frac": metric(tracer.mean("subspace.repeat_frac"), "frac"),
        "statdist.fit_gaussian.calls": calls("statdist.fit_gaussian"),
        "statdist.fit_gaussian.self_ms": self_ms("statdist.fit_gaussian"),
        "statdist.fit_gaussian.retained_mean": metric(
            tracer.mean("statdist.fit_gaussian.retained_mean"), "dims"),
        "statdist.kl_gaussian.self_ms": self_ms("statdist.kl_gaussian"),
        "statdist.repeat_frac": metric(tracer.mean("statdist.repeat_frac"), "frac"),
        "trace.overhead_frac": metric(traced / untraced - 1.0, "frac"),
        "error_rate": metric(workload.wrong / workload.sets, "frac"),
        "failed_frac": metric(len(rec.failures) / rec.attempted, "frac"),
    }


def measure(args, root: Path, import_s: float) -> dict:
    """One worker process: set up once, run its share of the cycles."""
    import workloads

    start = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch=RESULTS)
    setup_s = time.perf_counter() - start
    need = -(-(workloads.TAIL_BEYOND + 1) // WORKERS)
    on_clock, done = run_loop(workload, args.seconds,
                              itertools.count(args.worker, WORKERS), need)
    rec = workload.recorder
    return {"import_s": import_s, "setup_s": setup_s, "on_clock": on_clock,
            "sets": workload.sets, "wrong": workload.wrong, "attempted": rec.attempted,
            "failures": rec.failures, "latency": rec.latency,
            "input_digest": workload.input_digest,
            "cycles": dict(zip(done, workload.cycle_digests)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "machine": machine(root)}


def run_workers(args, root: Path) -> list[dict] | None:
    """Run the worker processes one after another; None if one fails."""
    parts = []
    for worker in range(WORKERS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS),
               "--trace", "0", "--worker", str(worker)]
        try:
            out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                                 timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: worker {worker} ran over {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return None
        if out.returncode != 0:
            print(f"perfbench: worker {worker} exited with {out.returncode}", file=sys.stderr)
            return None
        parts.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return parts


def main(argv=None) -> int:
    args = parse_args(argv)
    # Two OpenBLAS threads on a 2-core VM stall a call for up to 0.7 s while
    # the helper thread waits for a core (eigh of 256x256: median 10 ms, max
    # 721 ms), which made every d=256 workload unsteady. One thread unless the
    # caller chose otherwise; the setting is recorded with the result.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    root = Path.cwd()
    if not (root / "src" / "masc" / "__init__.py").is_file():
        print(f"perfbench: no masc package under {root / 'src'}", file=sys.stderr)
        return 2
    parts = None
    if args.trace == 0 and args.worker is None:
        parts = run_workers(args, root)
        if parts is None:
            return 1
    import_s = import_masc(root)
    if import_s is None:
        print(f"perfbench: cannot import masc from {root / 'src'}", file=sys.stderr)
        return 2
    if parts is not None:
        return report_untraced(args, parts)
    if args.worker is not None:
        print(json.dumps(measure(args, root, import_s)))
        return 0
    return report_traced(args, root)


def print_report(args, cycles: int, sets: int, info: dict, inputs: str,
                 digests: dict[int, str], failures: list[str], metrics: dict, notes: dict):
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{cycles} cycles, {sets} sets")
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"digests inputs {inputs} cycles "
          + " ".join(d for _, d in sorted(digests.items())))
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {m['value']!r} {m['unit']}{note}")


def report_untraced(args, parts: list[dict]) -> int:
    metrics, notes = end_to_end(parts)
    digests = {int(k): v for p in parts for k, v in p["cycles"].items()}
    inputs = {p["input_digest"] for p in parts}
    failures = [f for p in parts for f in p["failures"]]
    if len(inputs) != 1:
        failures.append(f"workers drew different inputs: {sorted(inputs)}")
    failures += check_digests(args.workload, args.seed, parts[0]["input_digest"], digests)
    attempted = sum(p["attempted"] for p in parts) + len(digests) + 1
    print_report(args, len(digests), sum(p["sets"] for p in parts), parts[0]["machine"],
                 parts[0]["input_digest"], digests, failures, metrics, notes)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def report_traced(args, root: Path) -> int:
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tracer=tracer, scratch=RESULTS)
    finally:
        tracer.uninstall()
    loop_start = len(tracer.spans)
    untraced, traced, pairs = run_traced(workload, tracer, args.seconds)
    digests = dict(enumerate(workload.cycle_digests))
    rec = workload.recorder
    for failure in check_digests(workload.name, args.seed, workload.input_digest, digests):
        rec.fail(failure)
    metrics = per_layer(workload, tracer, loop_start, traced, untraced)
    info = machine(root)
    print_report(args, 2 * pairs, workload.sets, info, workload.input_digest, digests,
                 rec.failures, metrics, {})
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({"machine": info, "metrics": metrics, **tracer.to_json()}),
                   encoding="utf-8")
    if tracer.absent:
        print("absent " + " ".join(tracer.absent))
    print(f"trace written to {out}")
    print(json.dumps({"correct": not rec.failures, "attempted": rec.attempted,
                      "failed": len(rec.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
