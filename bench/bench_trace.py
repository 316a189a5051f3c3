"""Per-layer tracing of the centiwalk package, installed from outside.

A span wraps each call into a public function and is named
``<module>.<qualname>`` (``init`` stands for ``__init__``).  A function is
replaced in every ``centiwalk`` module namespace that holds it, so calls made
through a name imported elsewhere (``contact_sim`` calling
``stance_geometry``, ``cli`` calling ``simulate_walk``) are seen too.  A
target the program no longer has is skipped with a warning, so the same
benchmark code runs on every commit.

Spans are aggregated in memory: call count and self time (duration minus
the time covered by child spans).  The tracer's own bookkeeping is charged
to no span.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

PACKAGE = "centiwalk"

SPANS = (
    "cli.main",
    "config.load_config",
    "gait.GaitConfig.with_a_v",
    "gait.contact_at_fraction",
    "kinematics.stance_geometry",
    "kinematics.recoverable_heights",
    "kinematics.slip_distribution",
    "kinematics.retraction_profile",
    "terrain.generate_terrain",
    "terrain.tail_probability",
    "terrain.TerrainGrid.load",
    "contact_sim.WalkSimulation.init",
    "contact_sim.WalkSimulation.run_cycle",
    "contact_sim.simulate_walk",
    "contact_sim.ideal_contact_map",
    "models.predict_speed_band",
    "models.predict_gamma",
    "control.run_trial",
    "control.compare_controllers",
)

# Spans whose arguments are compared with earlier calls of the same program
# run; the repeated share bounds what a cache could save.
REPEAT_TRACKED = (
    "kinematics.stance_geometry",
    "models.predict_speed_band",
    "terrain.generate_terrain",
)

COUNTS = (
    "contact_sim.retraction_samples",
    "contact_sim.loss.too_deep",
    "contact_sim.loss.deformed",
    "contact_sim.sensor_mismatch",
    "cli.bytes_written",
)


def value_key(value):
    """Hashable stand-in for an argument value, equal iff the values are."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(value_key(v) for v in value)
    try:
        hash(value)   # frozen dataclasses hash and compare by their fields
        return value
    except TypeError:
        pass
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__qualname__,) + tuple(
            value_key(getattr(value, f.name)) for f in dataclasses.fields(value))
    return ("repr", repr(value))


class Tracer:
    """Aggregated spans, counts and argument repeats of one benchmark run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.repeats: Counter = Counter()
        self.warnings: List[str] = []
        self._stack: List[List[float]] = []
        self._seen: Dict[str, set] = defaultdict(set)

    def warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)
            print(f"bench warning: {message}", file=sys.stderr)

    def end_program_run(self) -> None:
        """Forget seen arguments: repeats count within one program run."""
        self._seen.clear()

    def _charge_to_nobody(self, started: float) -> None:
        if self._stack:
            self._stack[-1][0] += self.clock() - started

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None,
             track_repeats: bool = False) -> Callable:
        """Return fn wrapped in a span called name.

        after(args, result) runs when the call returns; an error in it
        disables it with a warning instead of failing the call.
        """
        stack, clock = self._stack, self.clock
        calls, self_s = self.calls, self.self_s
        arguments = _argument_normalizer(fn) if track_repeats else None
        counting = after is not None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nonlocal counting
            if arguments is not None:
                started = clock()
                self._note_arguments(name, arguments(args, kwargs))
                self._charge_to_nobody(started)
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - child[0]
            if counting:
                started = clock()
                try:
                    after(args, result)
                except (AttributeError, KeyError, TypeError, ValueError,
                        IndexError) as exc:
                    counting = False
                    self.warn(f"counts of {name} disabled: "
                              f"{type(exc).__name__}: {exc}")
                self._charge_to_nobody(started)
            return result

        return traced

    def _note_arguments(self, name, values) -> None:
        key = tuple(value_key(v) for v in values)
        seen = self._seen[name]
        if key in seen:
            self.repeats[name] += 1
        else:
            seen.add(key)

    def repeat_share(self, name: str) -> float:
        calls = self.calls[name]
        return self.repeats[name] / calls if calls else 0.0


def _argument_normalizer(fn: Callable) -> Callable:
    """arguments(args, kwargs) -> every parameter's value in signature order,
    defaults filled in, so that f(1), f(1, 2) and f(a=1, b=2) compare equal."""
    signature = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(bound.arguments.values())

    return arguments


def _count_cycle(tracer: Tracer):
    """Counts taken from WalkSimulation.run_cycle's inputs and result."""
    def after(args, result):
        sim = args[0]
        mask = np.asarray(sim.stance_mask, dtype=bool)
        tracer.counts["contact_sim.retraction_samples"] += int(mask.sum())
        for event in result["loss_events"]:
            tracer.counts[f"contact_sim.loss.{event[2]}"] += 1
        differs = (np.asarray(result["bits_measured"])
                   != np.asarray(result["bits_true"]))
        tracer.counts["contact_sim.sensor_mismatch"] += int(
            np.count_nonzero(differs & mask))
    return after


RUN_CYCLE = "contact_sim.WalkSimulation.run_cycle"


def _resolve(package: str, qualname: str):
    """(owner, attribute, raw attribute value) of a span target."""
    module_name, _, rest = qualname.partition(".")
    parts = rest.split(".")
    if any(p.startswith("_") for p in parts):
        raise ValueError(f"{qualname}: only public names are traced")
    module = sys.modules.get(f"{package}.{module_name}")
    if module is None:
        raise LookupError(f"module {package}.{module_name} is not imported")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = "__init__" if parts[-1] == "init" else parts[-1]
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise AttributeError(f"{owner.__qualname__} defines no {attr}")
        return owner, attr, vars(owner)[attr]
    return owner, attr, getattr(owner, attr)


class Installation:
    """Spans installed into the package; uninstall() restores every binding."""

    def __init__(self, tracer: Tracer, targets=SPANS, package: str = PACKAGE):
        self.missing: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for target in targets:
            try:
                owner, attr, raw = _resolve(package, target)
            except (AttributeError, LookupError, ValueError) as exc:
                self.missing.append(target)
                tracer.warn(f"span {target} not installed: {exc}")
                continue
            wrap = functools.partial(
                tracer.wrap, target,
                after=_count_cycle(tracer) if target == RUN_CYCLE else None,
                track_repeats=target in REPEAT_TRACKED)
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(wrap(raw.__func__))
                else:
                    new = wrap(raw)
                self._set(owner, attr, raw, new)
                continue
            new = wrap(raw)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, name, raw, new)

    def _set(self, owner, attr, old, new) -> None:
        self._restore.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()


def layer_metrics(tracer: Tracer, program_runs: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, each a per-program-run average: {name: (value, unit)}."""
    n = max(program_runs, 1)
    out: Dict[str, Tuple[float, str]] = {}
    for span in SPANS:
        out[f"{span}.calls"] = (tracer.calls[span] / n, "count")
        out[f"{span}.self_s"] = (tracer.self_s[span] / n, "s")
    for name in COUNTS:
        out[name] = (tracer.counts[name] / n, "count")
    for span in REPEAT_TRACKED:
        out[f"{span}.repeat_share"] = (tracer.repeat_share(span), "ratio")
    return out
