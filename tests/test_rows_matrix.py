"""scripts/rows_matrix.py: --against FILE is quiet on a matching tree and
prints the differing lines and exits 1 otherwise (on a small matrix), and
every config of the real matrix parses."""

import importlib.util
from pathlib import Path

import pytest

from gachagt.sim_cli import parse_config

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "rows_matrix.py"


def load():
    spec = importlib.util.spec_from_file_location("rows_matrix", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def small_matrix(monkeypatch):
    module = load()
    monkeypatch.setattr(module, "SCHEMES", {"gacha": module.SCHEMES["gacha"],
                                            "bad": "scheme=nope\n"})
    monkeypatch.setattr(module, "CHANNELS", ("none", "bsc:0.05"))
    monkeypatch.setattr(module, "SYMMETRIZE", ("auto",))
    return module


def test_against_a_saved_output(small_matrix, tmp_path, capsys):
    assert small_matrix.main([]) == 0
    saved = capsys.readouterr().out
    lines = saved.splitlines()
    assert len(lines) == 4 and lines[2] == "bad none auto: config error: ValueError"
    path = tmp_path / "rows.txt"
    path.write_text(saved)
    assert small_matrix.main(["--against", str(path)]) == 0
    assert capsys.readouterr().out == f"rows_matrix: identical to {path}\n"

    changed = lines[1].rsplit(" ", 1)[0] + " 0123456789abcdef"
    path.write_text("\n".join([lines[0], changed] + lines[2:]) + "\n")
    assert small_matrix.main(["--against", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"-{changed}" in out and f"+{lines[1]}" in out
    assert not any(line[1:] in (lines[0], lines[2], lines[3]) for line in out)
    assert out[-1] == f"rows_matrix: differs from {path}"


def test_every_config_parses():
    # the caps on per-trial work leave every config of the matrix buildable
    for text in load().SCHEMES.values():
        assert parse_config(text + "channel=none\n").trials > 0
