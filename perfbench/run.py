"""svyerr benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload knn --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/``.  A run sets up five times (fresh-interpreter import of
``svyerr``, input generation, one small warm-up job), then runs full jobs
back to back (closed loop, one at a time) until ``--seconds`` have passed.
Every job's output is checked: it must equal the first job's output in
the run, match the recorded reference for this seed when one exists
(``reference.json``), and pass the workload's own checks.

``--trace 0`` times the jobs untraced, then runs one more job under
``tracemalloc`` for peak memory, and reports the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` alternates untraced and traced jobs
and reports the per-layer metrics (see ``spans.py``); every recorded span
is written to ``.perfbench/trace-<workload>-seed<seed>.npz``.

Human-readable lines go first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import machine

machine.pin_blas_threads()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("simulate", "bootstrap", "knn", "clustered")
SETUP_REPEATS = 5
# relative tolerance against the recorded reference outputs
REFERENCE_RTOL = 1e-9
IMPORT_PROBE = "import time; t = time.perf_counter(); import svyerr; print(time.perf_counter() - t)"


def parse_args(argv=None):
    def non_negative(text):
        v = int(text)
        if v < 0:
            raise argparse.ArgumentTypeError("must be a non-negative integer")
        return v

    def positive(text):
        v = int(text)
        if v < 1:
            raise argparse.ArgumentTypeError("must be a positive integer")
        return v

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=non_negative, required=True)
    p.add_argument("--seconds", type=positive, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Ledger:
    """Runs jobs, checks every output, and counts attempts and failures."""

    def __init__(self, workload, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.first: dict = {}  # first output per input instance

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"job failed: {message}", file=sys.stderr)

    def run(self, key: str, inputs, around=None) -> float:
        """Run one job on ``inputs`` and return its wall seconds.

        ``key`` names the input instance whose outputs must all agree;
        ``around`` is a context manager entered around the job alone.
        """
        self.attempted += 1
        wl = self.workload
        t0 = perf_counter()
        try:
            with around or contextlib.nullcontext():
                output = wl.job(inputs)
        except Exception:
            elapsed = perf_counter() - t0
            self._fail(traceback.format_exc())
            return elapsed
        elapsed = perf_counter() - t0
        try:
            result = wl.check(inputs, output)
        except Exception as exc:
            self._fail(f"output check: {exc!r}")
            return elapsed
        first = self.first.setdefault(key, result)
        if result != first:
            self._fail("output differs from the first job of this run")
        elif key == "full" and self.reference is not None:
            problem = compare_reference(result, self.reference)
            if problem:
                self._fail(problem)
        return elapsed


def compare_reference(result: dict, reference: dict) -> str | None:
    if set(result) != set(reference):
        return f"output keys differ from the reference: {sorted(set(result) ^ set(reference))}"
    for key, ref in reference.items():
        if not math.isclose(result[key], ref, rel_tol=REFERENCE_RTOL, abs_tol=1e-300):
            return f"{key} = {result[key]!r}, reference {ref!r}"
    return None


def import_probe_seconds() -> float:
    """Seconds to import svyerr (numpy and scipy included) in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


@contextlib.contextmanager
def peak_memory(box: list):
    gc.collect()
    tracemalloc.start()
    try:
        yield
    finally:
        box.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def closed_loop(seconds: float, step) -> None:
    """Call ``step`` back to back until ``seconds`` have passed (at least once)."""
    deadline = perf_counter() + seconds
    while True:
        gc.collect()
        step()
        if perf_counter() >= deadline:
            return


def end_to_end_metrics(ledger, inputs, seconds, setup_s):
    times: list[float] = []
    closed_loop(seconds, lambda: times.append(ledger.run("full", inputs)))
    peaks: list[int] = []
    ledger.run("full", inputs, around=peak_memory(peaks))
    q1, med, q3 = quartiles(times)
    print(f"job_s      median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n={len(times)} jobs")
    print(f"peak_mb    {peaks[0] / 2**20:.4f} MiB  n=1 job (tracemalloc, untimed)")
    print(f"setup_s    {setup_s:.4f} s  median of n={SETUP_REPEATS} set-ups")
    rate = ledger.failed / ledger.attempted
    print(f"error_rate {rate:.4g}  ({ledger.failed} failed of n={ledger.attempted} jobs)")
    return {"job_s": med, "peak_mb": peaks[0] / 2**20, "setup_s": setup_s}


def per_layer_metrics(ledger, inputs, seconds, targets):
    import spans

    tracer = spans.Tracer()
    plain: list[float] = []
    timed: list[float] = []

    def pair():
        plain.append(ledger.run("full", inputs))
        gc.collect()
        tracer.job = len(timed)
        timed.append(ledger.run("full", inputs, around=tracer))

    closed_loop(seconds, pair)
    jobs = len(timed)
    job_mean = statistics.fmean(timed)

    def layer_self(layer, excluding=()):
        return sum(
            s for name, s in tracer.self_s.items()
            if name.split(".")[0] == layer and name not in excluding
        ) / jobs

    m = {}
    for name in tracer.names:
        m[f"{name}.calls"] = tracer.calls[name] / jobs
        m[f"{name}.self_s"] = tracer.self_s[name] / jobs
    m["families.other.self_s"] = layer_self("families", ("families.loss_q", "families.natural_to_mean"))
    # cli.main's self time covers the whole cli layer except CSV loading
    m["cli.main.self_s"] = layer_self("cli", ("cli.load_dataset",))
    m["fit.irls_iterations"] = tracer.counters["fit.irls_iterations"] / jobs
    m["fit.failures"] = tracer.errors["fit.fit_weighted_glm:FitError"] / jobs
    reps = tracer.counters["penalty.bootstrap_replicates"]
    dropped = tracer.counters["penalty.bootstrap_dropped"]
    m["penalty.bootstrap_replicates"] = reps / jobs
    m["penalty.bootstrap_dropped"] = dropped / jobs
    m["penalty.bootstrap_kept_frac"] = (reps - dropped) / reps if reps else 1.0
    target_s = sum(
        s for name, s in tracer.self_s.items()
        if any(name == t or name.startswith(t + ".") for t in targets)
    ) / jobs
    m["trace.job_s"] = job_mean
    m["trace.target_share"] = target_s / job_mean
    m["trace.unspanned_s"] = job_mean - sum(tracer.self_s.values()) / jobs
    m["trace.overhead_frac"] = statistics.median(timed) / statistics.median(plain) - 1.0
    print(f"traced jobs n={jobs}, untraced jobs n={len(plain)}; per-layer values are per traced job")
    print(f"target {'+'.join(targets)}: {m['trace.target_share']:.1%} of traced job time")
    return m, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "svyerr" / "__init__.py").is_file():
        print(f"perfbench: no svyerr package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS[args.workload]
    env = machine.environment_record(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(env, sort_keys=True))

    ledger = Ledger(wl, reference.get(args.workload, {}).get(str(args.seed)))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t_import = import_probe_seconds()
            t0 = perf_counter()
            inputs = wl.prepare(args.seed, workdir, small=False)
            small = wl.prepare(args.seed, workdir, small=True)
            ledger.run("small", small)
            setups.append(t_import + perf_counter() - t0)
        setup_s = statistics.median(setups)
        if args.trace:
            metrics, tracer = per_layer_metrics(ledger, inputs, args.seconds, wl.target_spans)
            tracer.save(str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"), env)
        else:
            metrics = end_to_end_metrics(ledger, inputs, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unknown = [m["name"] for m in wanted if m["name"] not in metrics]
    if unknown:
        print(f"perfbench: BENCHMARK.json names unknown metric(s): {unknown}", file=sys.stderr)
        return 2
    out = {}
    for m in wanted:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        if args.trace:
            print(f"{m['name']:<42} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
