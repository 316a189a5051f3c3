"""The output comparison tool's report of a difference, and its runs."""

import importlib.util
from dataclasses import fields
from pathlib import Path

import pytest

from centiwalk.cli import main
from centiwalk.config import load_config
from centiwalk.gait import GaitConfig

_spec = importlib.util.spec_from_file_location(
    "compare_outputs",
    Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_text_difference_names_its_lines():
    base = {"out/a.csv": b"h\n1,2\n3,4\n5,6\n", "exit code": b"0"}
    head = {"out/a.csv": b"h\n1,2\n3,5\n5,7\n", "exit code": b"0"}
    assert compare_outputs._differences(base, head) == [
        "out/a.csv: differs in 2 of 4 lines, first:\n"
        "    base: 3,4\n    head: 3,5"]


def test_a_missing_line_and_binary_output():
    assert compare_outputs._describe(b"a\nb\n", b"a\n") == (
        "differs in 1 of 2 lines, first:\n    base: b\n    head: <no line>")
    assert compare_outputs._describe(b"a\n", b"a\r\n") == \
        "differs in line endings only"
    assert compare_outputs._describe(b"\xff", b"\xfe") == "differs"


GAIT_RUNS = [run for run in compare_outputs.RUNS
             if compare_outputs.GAIT_CONFIG in run[1]]


@pytest.mark.parametrize("name, files, seeds, argv", GAIT_RUNS,
                         ids=[run[0] for run in GAIT_RUNS])
def test_gait_runs_run_another_gait(tmp_path, monkeypatch, name, files,
                                     seeds, argv):
    # the gait runs compare real outputs, not two equal config errors, on
    # a gait whose every key but theta_body_amp is off its default
    monkeypatch.chdir(tmp_path)
    for file, text in files.items():
        Path(file).write_text(text)
    gait = load_config(compare_outputs.GAIT_CONFIG).gait
    assert [f.name for f in fields(GaitConfig)
            if getattr(gait, f.name) == getattr(GaitConfig(), f.name)] == \
        ["theta_body_amp"]
    code = main(["--out", "out", "--seeds", "0..1", "--cycles", "2", *argv])
    assert code in ((0, 2) if "validate" in argv else (0,)), name


STEPS_RUNS = [run for run in compare_outputs.RUNS if "--steps" in run[3]]


@pytest.mark.parametrize("name, files, seeds, argv", STEPS_RUNS,
                         ids=[run[0] for run in STEPS_RUNS])
def test_steps_runs_run_another_grid(tmp_path, monkeypatch, name, files,
                                     seeds, argv):
    # the --steps runs compare real outputs on a grid other than the
    # shipped one, which the speed band reads as well as the contact ratio
    monkeypatch.chdir(tmp_path)
    assert not files
    steps = int(argv[argv.index("--steps") + 1])
    assert steps != load_config(None).experiment.steps
    code = main(["--out", "out", "--seeds", "0..1", "--cycles", "2", *argv])
    assert code == 0, name
