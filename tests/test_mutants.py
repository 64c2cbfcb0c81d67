"""Every mutant of tools/mutants.py builds, without running the suite on
it: each anchor is found exactly once, and each mutant compiles and
differs from its original. `python tools/mutants.py` runs the suite on
them."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_builds_and_differs_from_its_original(tool):
    kernel, line = list(tool.kernel_mutants()), list(tool.line_mutants())
    assert (len(kernel), len(line)) == (54, 25)
    names = [name for name, _, _ in kernel + line]
    assert len(set(names)) == len(names)
    assert set(tool.EQUIVALENT) | set(tool.UNPROVEN) <= set(names)
    for name, module, source in kernel + line:
        assert source != (ROOT / "src" / "qstruct" / module).read_text(), name
        compile(source, module, "exec")


@pytest.mark.parametrize(
    "anchor, message",
    [
        (("scalar.py", "Frozen.__eq__", "return True", "return False"), "occurs 0 times"),
        (("awops.py", "", "return table", "pass"), "occurs 2 times"),
        (("scalar.py", "Frozen.__ne__", "return NotImplemented", "pass"), "no function"),
    ],
)
def test_an_anchor_found_other_than_once_stops_the_tool(tool, monkeypatch, anchor, message):
    monkeypatch.setattr(tool, "MUTANTS_OF_PINNED", (anchor,))
    with pytest.raises(SystemExit, match=message):
        list(tool.line_mutants())


def test_a_kernel_that_is_gone_stops_the_tool(tool, monkeypatch):
    monkeypatch.setattr(tool, "KERNELS", (("awops.py", "_gone"),))
    with pytest.raises(SystemExit, match="no top-level function _gone"):
        list(tool.kernel_mutants())
