"""The output comparison tool's report of a difference."""

import importlib.util
from pathlib import Path

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
