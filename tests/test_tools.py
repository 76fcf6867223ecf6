import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"


@pytest.fixture(scope="module")
def outputs():
    # tools/outputs.py loaded by path, as `python tools/outputs.py` runs it
    spec = importlib.util.spec_from_file_location("outputs_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_takes_one_directory(outputs, capsys):
    assert outputs.main([]) == 2
    assert "usage: python tools/outputs.py OUTDIR" in capsys.readouterr().err


def test_outputs_writes_nothing_into_a_non_empty_directory(outputs, tmp_path, capsys):
    # a stale file could stand in for an output a change stopped writing
    stale = tmp_path / "verify-jonas.json"
    stale.write_text("stale\n", encoding="utf-8")
    assert outputs.main([str(tmp_path)]) == 2
    assert "is not an empty directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [stale]
    assert stale.read_text(encoding="utf-8") == "stale\n"
    assert outputs.main([str(stale)]) == 2
    assert list(tmp_path.iterdir()) == [stale]
