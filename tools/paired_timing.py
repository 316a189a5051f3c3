"""Time a benchmark workload at a base revision and in the working tree,
alternating their program runs in one process.

Run from anywhere inside the repository:

    python3 tools/paired_timing.py BASE_REV --workload validate_grid --runs 200

BASE_REV is checked out in a temporary git worktree, which is removed
afterwards.  Its src/centiwalk is imported under the package name
centiwalk_base, next to the working tree's centiwalk.  The workload's inputs
come from the working tree's bench/bench_inputs.py at workload seed 1, and
each side runs them through bench/bench_workloads.py's workload class:
reset, timed call, check.  After one warm-up run per side,
--runs pairs follow, one program run per side each, the side that goes
first alternating from pair to pair.  A run that fails its checks, or whose
outputs differ from its side's warm-up run, stops the tool.

Printed: each side's median and quartiles of the program run's wall time,
how many pairs each side won, and the change of the median.  Two sides in
one process see the same host load at the same moments, so a difference of
1-2% resolves, where separate bench/run.py runs of a few seconds spread
about 5%.  The base package is pinned by name only: a call that resolves the
name "centiwalk" itself, such as the default config's path, reads the
working tree's copy; the workloads always pass their own config file.

Exit code 0 when both sides were timed, 1 when a run failed, 2 when the
comparison could not start.  Timings are not corrected for host speed.
"""

from __future__ import annotations

import os

# One thread per process, set before numpy loads, as bench/run.py does.
if __name__ == "__main__":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Sequence  # noqa: E402

BASE_PACKAGE = "centiwalk_base"
SEED = 1                  # workload seed of the generated inputs
SIDES = ("base", "head")


class SetupError(Exception):
    pass


class RunFailed(Exception):
    pass


def _git(*args: str, cwd: Path) -> str:
    proc = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SetupError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def _import_tree(src: Path, name: str):
    """src/centiwalk imported as the package `name`, with its cli loaded."""
    init = src / "centiwalk" / "__init__.py"
    if name == "centiwalk":
        sys.path.insert(0, str(src))
        package = importlib.import_module(name)
    else:
        spec = importlib.util.spec_from_file_location(
            name, init, submodule_search_locations=[str(init.parent)])
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    if Path(package.__file__).resolve() != init.resolve():
        raise SetupError(f"imported {name} from {package.__file__}, "
                         f"not from {src}")
    return package


def summarize(times: Dict[str, Sequence[float]]) -> dict:
    """Per side, the median and quartiles of its times; per side, the
    pairs it won (the pair's lower time; a tie is won by neither); and the
    head's median relative to the base's, minus 1."""
    base, head = (list(times[side]) for side in SIDES)
    if len(base) != len(head) or len(base) < 2:
        raise ValueError("need two equally long lists of at least 2 times")
    out = {side: dict(zip(("q1", "median", "q3"), statistics.quantiles(
               times[side], n=4, method="inclusive"))) for side in SIDES}
    out["wins"] = {"base": sum(b < h for b, h in zip(base, head)),
                   "head": sum(h < b for b, h in zip(base, head))}
    out["change"] = out["head"]["median"] / out["base"]["median"] - 1.0
    return out


def _one_run(workload, full: bool):
    """One checked program run: (seconds, outcome), as bench/run.py's
    Runner times it."""
    workload.reset()
    gc.collect()
    start = time.perf_counter()
    workload.call()
    elapsed = time.perf_counter() - start
    return elapsed, workload.check(full=full)


def time_pairs(workloads: Dict[str, object], runs: int) -> Dict[str, List[float]]:
    """Warm each side up once, then time `runs` alternating pairs."""
    reference = {}
    for side in SIDES:
        workloads[side].prepare()
        _, outcome = _one_run(workloads[side], full=True)
        if not outcome.ok:
            raise RunFailed(f"{side}: {'; '.join(outcome.problems[:3])}")
        reference[side] = outcome.digest
    if reference["base"] != reference["head"]:
        print("note: the two sides' outputs differ")
    gc.collect()
    gc.freeze()
    times: Dict[str, List[float]] = {side: [] for side in SIDES}
    for i in range(runs):
        for side in SIDES[::-1] if i % 2 else SIDES:
            elapsed, outcome = _one_run(workloads[side], full=False)
            if not outcome.ok or outcome.digest != reference[side]:
                raise RunFailed(f"{side}, pair {i}: " + "; ".join(
                    outcome.problems[:3] or ["outputs differ from warm-up"]))
            times[side].append(elapsed)
    return times


def _report(summary: dict, base_rev: str, workload: str, runs: int) -> None:
    print(f"{workload}: {runs} pairs, base {base_rev} vs working tree "
          f"(ms: q1 / median / q3)")
    for side in SIDES:
        q = summary[side]
        print(f"  {side}: {1e3 * q['q1']:.3f} / {1e3 * q['median']:.3f} / "
              f"{1e3 * q['q3']:.3f}, won {summary['wins'][side]} pairs")
    print(f"  median change {100 * summary['change']:+.1f}%")


def compare(base_rev: str, workload: str, runs: int) -> int:
    here = Path(__file__).resolve().parent
    head = Path(_git("rev-parse", "--show-toplevel", cwd=here))
    commit = _git("rev-parse", "--verify", f"{base_rev}^{{commit}}", cwd=head)
    sys.path.insert(0, str(head / "bench"))
    from bench_inputs import make_inputs
    from bench_workloads import WORKLOAD_CLASSES

    if workload not in WORKLOAD_CLASSES:
        raise SetupError(f"unknown workload {workload!r}; one of "
                         f"{', '.join(WORKLOAD_CLASSES)}")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="paired_timing_") as tmp:
        base = Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(base), commit, cwd=head)
        try:
            packages = {"base": _import_tree(base / "src", BASE_PACKAGE),
                        "head": _import_tree(head / "src", "centiwalk")}
            run_dir = Path(tmp) / "run"
            make_inputs(workload, SEED).write(run_dir)
            os.chdir(run_dir)
            times = time_pairs({side: WORKLOAD_CLASSES[workload](package)
                                for side, package in packages.items()}, runs)
        finally:
            os.chdir(cwd)
            _git("worktree", "remove", "--force", str(base), cwd=head)
    _report(summarize(times), base_rev, workload, runs)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_rev", metavar="BASE_REV",
                        help="git revision to time the working tree against")
    parser.add_argument("--workload", required=True,
                        help="a workload of bench/bench_workloads.py")
    parser.add_argument("--runs", type=int, default=200,
                        help="alternating pairs of program runs (>= 2)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2")
    try:
        return compare(args.base_rev, args.workload, args.runs)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RunFailed as exc:
        print(f"failed run: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
