"""Run an mcie benchmark workload, or all of them, and print its metrics.

    python3 bench/run.py --workload volt-band --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0

Each workload is a single-client closed loop in one process: the next
request starts when the previous one has returned.  Request ``i`` uses
seed ``seed + i``; request 0 is a warm-up and is checked but not timed.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced requests and reports the
per-layer metrics of the traced ones (see ``spans.py``).  Every metric is
printed by name with its unit; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every output check passed, 1 when one failed (the
result line is still printed), 2 when the benchmark could not run (no
result line), for instance when ``src/mcie`` is missing.
"""

import os

# BLAS thread pools are sized when numpy loads, so cap them first.  The
# cap applies to this process and the set-up probes it starts.
NPROC = len(os.sched_getaffinity(0))
THREADS = min(NPROC, 2)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up samples per run (this process plus fresh probe processes); the
# reported set-up time is their median.  fred-2d's set-up takes seconds,
# so it takes fewer samples.
SETUP_SAMPLES = {"fred-2d": 3}
SETUP_SAMPLES_DEFAULT = 5
# The tail is the highest percentile with at least this many requests
# beyond it.
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "request_p50_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sampling.schedule_s": "s",
    "sampling.draw_s": "s",
    "sampling.draws": "count",
    "problems.grid_s": "s",
    "problems.probe_s": "s",
    "problems.grid_points": "count",
    "mc_fredholm.solve_s": "s",
    "mc_fredholm.handoff_s": "s",
    "mc_fredholm.grid_s": "s",
    "mc_fredholm.evals_per_s": "1/s",
    "mc_fredholm.handoff_evals": "count",
    "mc_fredholm.grid_evals": "count",
    "mc_volterra.solve_s": "s",
    "mc_volterra.interp_s": "s",
    "mc_volterra.interp_calls": "count",
    "mc_volterra.kernel_evals": "count",
    "deterministic.solve_s": "s",
    "deterministic.interp_s": "s",
    "deterministic.kernel_evals": "count",
    "inference.limit_cov_s": "s",
    "inference.quantile_s": "s",
    "inference.eigh_s": "s",
    "inference.eigh_calls": "count",
    "inference.estimate_cov_s": "s",
    "inference.cov_block_bytes": "B",
    "inference.gauss_bytes": "B",
    "inference.cov_n": "count",
    "inference.cov_rank": "count",
    "inference.coverage_pooled": "fraction",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
}


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a failed output check)."""


def timed_setup(workload):
    """Import mcie from this checkout and build the workload's problem once."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import mcie
        import mcie.cli  # noqa: F401 - the CLI workloads call into it
    except ImportError as exc:
        raise BenchError(f"cannot import mcie from {SRC}: {exc}") from exc
    state = workload.setup(mcie)
    elapsed = time.perf_counter() - t0
    if not Path(mcie.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"mcie was imported from {mcie.__file__}, not from {SRC}")
    return elapsed, mcie, state


def probe_setup(name: str) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            proc = subprocess.run(["getconf", level], capture_output=True,
                                  text=True, timeout=10)
            caches[level] = int(proc.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            caches[level] = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": NPROC,
        "l2_bytes": caches["LEVEL2_CACHE_SIZE"],
        "l3_bytes": caches["LEVEL3_CACHE_SIZE"],
    }


def blas_threads() -> "int | str":
    """Thread count the loaded OpenBLAS reports, else the cap that was set."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"{THREADS} (OPENBLAS_NUM_THREADS; not queried)"


def tail(times: "list[float]") -> "tuple[float, float] | None":
    """(percentile, value) of the highest percentile with TAIL_BEYOND beyond it."""
    n = len(times)
    k = n - TAIL_BEYOND
    if k < 1:
        return None
    return 100.0 * k / n, sorted(times)[k - 1]


class Runner:
    """Runs requests, checks them and keeps the tallies."""

    def __init__(self, workload, mcie, state, seed: int) -> None:
        self.workload, self.mcie, self.state, self.seed = workload, mcie, state, seed
        self.attempted = 0
        self.failures: "list[str]" = []
        self.coverage = [0.0, 0]

    def request(self, i: int, instrumentation=None) -> float:
        """Run and check request i; returns its wall time."""
        w = self.workload
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if instrumentation is None:
                result = w.run(self.mcie, self.state, self.seed + i)
            else:
                # A library workload's state is the problem its requests
                # solve; CLI requests build theirs, which tracing catches.
                problem = self.state if hasattr(self.state, "kernel") else None
                with instrumentation.active(i, problem):
                    result = w.run(self.mcie, self.state, self.seed + i)
        except Exception:  # noqa: BLE001 - a raising request is a failed request
            elapsed = time.perf_counter() - t0
            self.failures.append(f"request {i}: raised\n{traceback.format_exc()}")
            return elapsed
        elapsed = time.perf_counter() - t0
        problems = w.check(result)
        if problems:
            self.failures.append(f"request {i}: " + "; ".join(problems))
            return elapsed
        payload = result.get("payload") or {}
        reps = payload.get("replications")
        if payload.get("command") == "coverage" and isinstance(reps, int):
            self.coverage[0] += payload["coverage"] * reps
            self.coverage[1] += reps
        return elapsed


def run_untraced(name: str, seed: int, seconds: float) -> "tuple[dict, dict, Runner]":
    workload = WORKLOADS[name]
    setup_s, mcie, state = timed_setup(workload)
    samples = [setup_s]
    for _ in range(SETUP_SAMPLES.get(name, SETUP_SAMPLES_DEFAULT) - 1):
        samples.append(probe_setup(name))
    runner = Runner(workload, mcie, state, seed)
    runner.request(0)
    times: "list[float]" = []
    start = time.perf_counter()
    i = 1
    while not times or time.perf_counter() - start < seconds:
        times.append(runner.request(i))
        i += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(samples),
        "request_p50_s": statistics.median(times),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    detail = {"setup_samples": samples, "request_times": times, "tail": tail(times)}
    return metrics, detail, runner


def run_traced(name: str, seed: int, seconds: float) -> "tuple[dict, dict, Runner]":
    import spans

    workload = WORKLOADS[name]
    _, mcie, state = timed_setup(workload)
    tracer = spans.Tracer()
    instr = spans.Instrumentation(tracer)
    with instr.active("setup"):
        workload.setup(mcie)
    setup_layers = spans.request_layer_metrics(tracer.spans, 0)
    runner = Runner(workload, mcie, state, seed)
    runner.request(0)
    plain: "list[float]" = []
    traced: "list[float]" = []
    rows: "list[dict]" = []
    start = time.perf_counter()
    j = 1
    while not traced or time.perf_counter() - start < seconds:
        # Pair j runs the same seed untraced and traced, alternating which
        # goes first so that neither side always follows the other.
        for side in ((0, 1) if j % 2 else (1, 0)):
            if side == 0:
                plain.append(runner.request(j))
            else:
                offset = len(tracer.spans)
                traced.append(runner.request(j, instr))
                rows.append(spans.request_layer_metrics(tracer.spans, offset))
        j += 1
    metrics = {}
    for key, unit in PER_LAYER_UNITS.items():
        if key.startswith("problems."):
            metrics[key] = float(setup_layers.get(key, 0.0))
        else:
            metrics[key] = spans.median_of(rows, key)
    cov_sum, cov_reps = runner.coverage
    metrics["inference.coverage_pooled"] = cov_sum / cov_reps if cov_reps else 0.0
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    counts = [k for k, u in PER_LAYER_UNITS.items() if u in ("count", "B")]
    for key in counts:
        metrics[key] = int(metrics[key])
    varying = [k for k in counts if len({r.get(k, 0) for r in rows}) > 1]
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{name}-seed{seed}.json"
    tracer.dump(span_file)
    detail = {
        "untraced_times": plain, "traced_times": traced, "per_request": rows,
        "setup_layers": setup_layers, "counts_varying": varying,
        "span_file": str(span_file.relative_to(ROOT)),
    }
    return metrics, detail, runner


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    metrics, detail, runner = (run_traced if traced else run_untraced)(name, seed, seconds)
    env = environment()
    units = PER_LAYER_UNITS if traced else E2E_UNITS
    failed = len(runner.failures)
    print(f"workload {name}: {WORKLOADS[name].request}")
    print("env " + json.dumps(env, sort_keys=True))
    for key, unit in units.items():
        value = metrics[key]
        print(f"  {key} = {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    if traced:
        if detail["counts_varying"]:
            print("  counts that varied between requests: " + ", ".join(detail["counts_varying"]))
        print(f"  spans written to {detail['span_file']}")
    else:
        n = len(detail["request_times"])
        t = detail["tail"]
        if t is None:
            print(f"  request tail: undefined, {n} timed requests "
                  f"(needs more than {TAIL_BEYOND})")
        else:
            print(f"  request tail: p{t[0]:.1f} = {t[1]:.6g} s over {n} timed requests")
    print(f"  failed_frac = {failed / runner.attempted:.6g} "
          f"({failed} of {runner.attempted} requests)")
    for failure in runner.failures:
        print("  FAILED " + failure, file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "env": env, "metrics": metrics, "attempted": runner.attempted,
              "failures": runner.failures, **detail}
    with open(OUT / f"result-{name}-seed{seed}-trace{int(traced)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            raise BenchError(f"workload {name} could not run")
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for key, value in part["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
        status = max(status, proc.returncode)
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": timed_setup(WORKLOADS[args.workload])[0]}))
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
