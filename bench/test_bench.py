"""Self-tests of the benchmark's own code: span self time, span installation
and input generation.  Run with ``python -m pytest bench``."""

import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = bench_trace.Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        traced_leaf()
        traced_leaf()
        clock.advance(0.5)

    def outer():
        clock.advance(4.0)
        traced_middle()
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    assert tracer.calls == {"outer": 1, "middle": 1, "leaf": 3}
    assert tracer.self_s["leaf"] == pytest.approx(3.0)
    assert tracer.self_s["middle"] == pytest.approx(2.5)
    assert tracer.self_s["outer"] == pytest.approx(4.0)
    # self times partition the outermost span's duration
    assert sum(tracer.self_s.values()) == pytest.approx(clock.now)


def test_self_time_recorded_when_the_call_raises():
    clock = FakeClock()
    tracer = bench_trace.Tracer(clock=clock)

    def fails():
        clock.advance(1.5)
        raise RuntimeError("boom")

    def outer():
        clock.advance(1.0)
        with pytest.raises(RuntimeError):
            traced_fails()

    traced_fails = tracer.wrap("fails", fails)
    tracer.wrap("outer", outer)()
    assert tracer.self_s["fails"] == pytest.approx(1.5)
    assert tracer.self_s["outer"] == pytest.approx(1.0)


def test_repeat_share_counts_equal_arguments_within_one_program_run():
    tracer = bench_trace.Tracer()
    f = tracer.wrap("f", lambda a, b=2: a + b, track_repeats=True)
    f(1)
    f(1, 2)        # same arguments as f(1)
    f(a=1, b=2)    # and again
    f(2)
    assert tracer.repeats["f"] == 2
    tracer.end_program_run()
    f(1)           # first of a new program run
    assert tracer.repeat_share("f") == pytest.approx(2 / 5)


@pytest.fixture
def fakepkg():
    """A two-module package: ``b`` imports ``a``'s function by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def helper(x):
        return x + 1

    def _private(x):
        return x

    class Grid:
        def __init__(self, n):
            self.n = n

        @classmethod
        def load(cls, n):
            return cls(a.helper(n))

    a.helper, a._private, a.Grid = helper, _private, Grid
    b.helper, b._private = helper, _private
    b.compute = lambda x: b.helper(x) * 2
    pkg.helper, pkg.Grid = helper, Grid
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield pkg, a, b
    for name in mods:
        del sys.modules[name]


def test_install_wraps_every_namespace_and_uninstall_restores(fakepkg):
    pkg, a, b = fakepkg
    original = a.helper
    tracer = bench_trace.Tracer()
    installed = bench_trace.Installation(
        tracer, targets=("a.helper", "a.Grid.init", "a.Grid.load"),
        package="fakepkg")
    try:
        assert not installed.missing
        assert a.helper is b.helper is pkg.helper is not original
        assert b._private is a._private        # private names are left out
        assert b.compute(1) == 4
        assert pkg.Grid.load(1).n == 2
    finally:
        installed.uninstall()
    assert tracer.calls == {"a.helper": 2, "a.Grid.load": 1, "a.Grid.init": 1}
    assert a.helper is b.helper is pkg.helper is original
    assert not hasattr(a.Grid.load, "__wrapped__")
    assert "__wrapped__" not in vars(a.Grid.__init__)


def test_missing_or_private_target_warns_instead_of_failing(fakepkg):
    tracer = bench_trace.Tracer()
    installed = bench_trace.Installation(
        tracer, targets=("a.Gone.init", "a._private", "nosuchmodule.f",
                         "a.helper"), package="fakepkg")
    installed.uninstall()
    assert installed.missing == ["a.Gone.init", "a._private", "nosuchmodule.f"]
    assert len(tracer.warnings) == 3


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_one_seed_always_gives_byte_identical_inputs(workload):
    first = bench_inputs.make_inputs(workload, 7)
    again = bench_inputs.make_inputs(workload, 7)
    other = bench_inputs.make_inputs(workload, 8)
    assert first.files == again.files
    assert first.sha256 == again.sha256
    assert first.sha256 != other.sha256


def test_written_inputs_load_in_the_program(tmp_path):
    import centiwalk

    inputs = bench_inputs.make_inputs("model_sweep_fine", 3)
    inputs.write(tmp_path)
    for name in inputs.files:
        assert (tmp_path / name).read_text() == inputs.files[name]
        if name.startswith("terrain_"):
            grid = centiwalk.TerrainGrid.load(tmp_path / name)
            rows = dict(bench_inputs.SWEEP_FILES)[name.rsplit("rg", 1)[1][:-4]]
            assert grid.heights.shape == (rows, bench_inputs.TERRAIN_COLS)
    fc = centiwalk.load_config(str(tmp_path / bench_inputs.CONFIG_NAME))
    assert len(fc.experiment.a_v_grid) == len(bench_inputs.FINE_AV_GRID)


def test_tail_percentile_leaves_ten_of_a_hundred_samples_beyond():
    values = list(range(100))
    tail = run.percentile(values, run.TAIL_PERCENTILE)
    assert tail == 89
    assert sum(v > tail for v in values) == 10


class FakeWorkload:
    """A workload whose outputs are set by the test before each run."""

    work_items = 1

    def __init__(self):
        self.outcomes = []

    def reset(self):
        pass

    def call(self):
        pass

    def check(self, full):
        return self.outcomes.pop(0)


def test_known_defect_is_reported_but_not_counted_as_failed():
    wl = FakeWorkload()
    known = ["trace_a.csv: no stamp line"]
    wl.outcomes = [
        bench_workloads.Outcome(digest="d", known=list(known)),
        bench_workloads.Outcome(digest="d", known=list(known)),
        bench_workloads.Outcome(digest="d", known=list(known),
                                problems=["raised RuntimeError: boom"]),
        bench_workloads.Outcome(digest="other", known=list(known)),
    ]
    runner = run.Runner(wl)
    oks = [runner.run()[1].ok for _ in range(4)]
    assert oks == [True, True, False, False]
    assert (runner.attempted, runner.failed) == (4, 2)
    assert runner.known == set(known)
    assert "outputs differ from the first run" in runner.problems


def test_unstamped_csv_fails_unless_the_workload_names_it(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / bench_workloads.OUT_DIR
    out.mkdir()
    (out / "trace_x.csv").write_text("cycle,gamma_s\n0,0.5\nsummary,0.5\n")
    (out / "summary.csv").write_text("# centiwalk v0\nscenario\n")

    class Plain(bench_workloads.CliWorkload):
        required = ("summary.csv",)

    class Named(Plain):
        unstamped_known = ("trace_*.csv",)

    for cls, problems, known in ((Plain, 1, 0), (Named, 0, 1)):
        wl = cls.__new__(cls)
        wl.error, wl.exit_code, wl.expected_exit = None, 0, 0
        outcome = wl.check(full=False)
        assert (len(outcome.problems), len(outcome.known)) == (problems, known)
    assert bench_workloads._rows(out / "trace_x.csv") == [["0", "0.5"],
                                                          ["summary", "0.5"]]


def test_host_speed_correction_cancels_a_faster_host():
    times, kernels = [0.14, 0.15, 0.16], [0.0098, 0.0100, 0.0102]
    faster = run.corrected([t * 0.6 for t in times], [k * 0.6 for k in kernels])
    assert faster == pytest.approx(run.corrected(times, kernels))
    assert run.corrected([0.2], [run.CALIBRATION_REF_S]) == [pytest.approx(0.2)]
