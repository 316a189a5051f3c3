"""centiwalk benchmark: one workload, one seed, one measured run.

Run from the root of a checkout:

    python3 bench/run.py --workload validate_grid --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, each in its own process, one after
the other.

The workload's inputs (a config file, terrain files, the experiment seed
range) are generated from --seed.  The program runs in this process, warm,
one program run after another until --seconds have passed; set-up is timed
separately in fresh interpreters.  Every program run is checked: exit code,
a stamp line in every CSV, and outputs byte-identical to the first run.

wall_s is host-speed corrected.  The shared host this benchmark was built on
runs up to 40% faster for a minute or more at a time, which moves the median
of a 20 s run by as much.  A fixed calibration kernel is timed right after
each program run and speeds up with it, so each program run's time is
divided by the kernel's and multiplied by CALIBRATION_REF_S, the kernel's
usual time on that host.  The raw median goes to the detail line.  setup_s
is not corrected: a fresh interpreter's set-up is mostly imports, which the
kernel does not track, and correcting it widened its spread.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run alternates untraced and traced
program runs and reports per-layer metrics (per program run) and
trace_overhead_frac.  The line before it is a JSON record of the
environment, the inputs, the checks, known defects of the program and
wall_s.tail, the 90th percentile of the program runs' wall times.

Exit code 0 when a result was printed, 2 when nothing could be measured.
"""

import os

# One thread per process, set before numpy loads, so two results compare.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
if __name__ == "__main__":
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench_inputs import CONFIG_NAME, WORKLOADS, make_inputs  # noqa: E402
from bench_trace import SPANS, Installation, Tracer, layer_metrics  # noqa: E402
from bench_workloads import WORKLOAD_CLASSES  # noqa: E402

SETUP_PROBES = 11
WORK_DIR = ".bench_out"
# wall_s.tail is this percentile on every commit; the workloads are sized so
# that at the seed commit at least ten program runs lie beyond it.  It goes
# to the detail line, not to the metrics: even host-speed corrected, the
# tail of ten runs on a shared 2-core VM spreads by 0.04-0.13 of its median,
# more than a third of the largest bound a metric may have.
TAIL_PERCENTILE = 90
# Median time of calibration_kernel on a 2-core Intel Xeon VM (Python 3.11,
# numpy 2.4) in the host's usual state; it only sets the scale of wall_s.
CALIBRATION_REF_S = 0.0098
_CALIBRATION_ARRAY = np.linspace(0.0, 1.0, 64)


class BenchError(Exception):
    """The benchmark cannot measure in this directory."""


def percentile(values, p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array numpy
    work, the two kinds of work a program run does."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(25000):
        acc += i * i % 7
        table[i & 255] = acc
    x = _CALIBRATION_ARRAY
    for _ in range(800):
        x = np.sqrt(x * 1.0001 + 1.0).clip(0.0, 1e6)
    return time.perf_counter() - start


def corrected(times, kernels) -> list:
    """Times scaled to the host speed at which the kernel takes
    CALIBRATION_REF_S."""
    return [t / k * CALIBRATION_REF_S for t, k in zip(times, kernels)]


def environment() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def measure_setup(src: Path) -> list:
    """Seconds from spawning a fresh interpreter to the end of set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(src), CONFIG_NAME],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError("set-up failed: " + proc.stderr.strip()[-500:])
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def import_program(src: Path):
    sys.path.insert(0, str(src))
    import centiwalk
    import centiwalk.cli  # noqa: F401

    where = Path(centiwalk.__file__).resolve().parent
    if where != (src / "centiwalk").resolve():
        raise BenchError(f"imported centiwalk from {where}, not from {src}")
    return centiwalk


class Runner:
    """Program runs of one workload with their checks."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.known = set()
        self.reference = None

    def run(self, tracer=None):
        """One checked program run; returns (seconds, outcome, installation)."""
        wl = self.workload
        wl.reset()
        gc.collect()
        installed = Installation(tracer) if tracer is not None else None
        start = time.perf_counter()
        wl.call()
        elapsed = time.perf_counter() - start
        if installed is not None:
            installed.uninstall()
            tracer.end_program_run()
        first = self.reference is None
        outcome = wl.check(full=first)
        if first:
            self.reference = outcome
        elif outcome.digest != self.reference.digest:
            outcome.problems.append("outputs differ from the first run")
        self.attempted += 1
        self.known.update(outcome.known)
        if not outcome.ok:
            self.failed += 1
            self.problems.extend(outcome.problems[:3])
        if tracer is not None:
            tracer.counts["cli.bytes_written"] += outcome.bytes_written
        return elapsed, outcome, installed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args, inputs, src: Path):
    setup = measure_setup(src)
    centiwalk = import_program(src)
    wl = WORKLOAD_CLASSES[args.workload](centiwalk)
    wl.prepare()
    runner = Runner(wl)
    runner.run()  # warm-up; its outputs are the reference for later runs
    # Each program run starts with a full collection.  Freezing what exists
    # now keeps that collection from walking every numpy/scipy object again.
    gc.collect()
    gc.freeze()
    deadline = time.perf_counter() + args.seconds
    detail = {}
    if not args.trace:
        raw, calibration = [], []   # of the program runs that passed
        while runner.attempted <= 1 or time.perf_counter() < deadline:
            elapsed, outcome, _ = runner.run()
            kernel = calibration_kernel()
            if outcome.ok:
                raw.append(elapsed)
                calibration.append(kernel)
        if not raw:
            raise BenchError("no program run passed its checks: "
                             + "; ".join(runner.problems[:5]))
        samples = corrected(raw, calibration)
        wall = statistics.median(samples)
        tail = percentile(samples, TAIL_PERCENTILE)
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_s": metric(wall, "s"),
            "throughput": metric(wl.work_items / wall, "1/s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail["wall_s.tail"] = dict(
            metric(tail, "s"), percentile=TAIL_PERCENTILE, samples=len(samples),
            samples_beyond=sum(t > tail for t in samples))
        detail.update(samples=len(samples), samples_s=samples,
                      setup_samples_s=setup,
                      wall_s_raw=statistics.median(raw), raw_samples_s=raw,
                      calibration_s=statistics.median(calibration))
    else:
        tracer = Tracer()
        plain, traced = [], []   # times of the program runs that passed
        traced_runs, traced_wall = 0, 0.0
        missing = []
        while runner.attempted <= 1 or time.perf_counter() < deadline:
            elapsed, outcome, _ = runner.run()
            if outcome.ok:
                plain.append(elapsed)
            elapsed, outcome, installed = runner.run(tracer)
            traced_runs += 1
            traced_wall += elapsed
            if outcome.ok:
                traced.append(elapsed)
            missing = installed.missing
        if not (plain and traced):
            raise BenchError("no program run passed its checks: "
                             + "; ".join(runner.problems[:5]))
        metrics = {name: metric(v, unit)
                   for name, (v, unit) in layer_metrics(tracer, traced_runs).items()}
        metrics["trace_overhead_frac"] = metric(
            statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
        # how much of a traced program run each module's spans account for
        shares = {}
        for span in SPANS:
            module = span.split(".")[0]
            shares[module] = shares.get(module, 0.0) + tracer.self_s[span] / traced_wall
        detail.update(samples=traced_runs, missing_spans=missing,
                      warnings=tracer.warnings, self_share_of_traced_wall=shares)
    result = {
        # a defect the workload names in advance goes to the detail line;
        # it neither fails a program run nor makes the outputs incorrect
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        seconds=args.seconds, environment=environment(),
        inputs={"sha256": inputs.sha256, "config_sha256": inputs.config_sha256,
                "config": inputs.config_text, "files": sorted(inputs.files)},
        work={"items_per_run": wl.work_items, "unit": wl.unit_of_work},
        fail_frac=runner.failed / runner.attempted,
        facts=runner.reference.facts, output_sha256=runner.reference.digest,
        problems=runner.problems[:20], known_problems=sorted(runner.known))
    return result, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)])
            if proc.returncode != 0:
                return proc.returncode
        return 0
    root = Path.cwd()
    src = root / "src"
    if not (src / "centiwalk" / "__init__.py").is_file():
        print(f"bench: no centiwalk source at {src}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    inputs = make_inputs(args.workload, args.seed)
    work_dir = root / WORK_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    inputs.write(work_dir)
    try:
        os.chdir(work_dir)
        result, detail = measure(args, inputs, src)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(root)
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
