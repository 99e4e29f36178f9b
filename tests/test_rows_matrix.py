"""scripts/rows_matrix.py: each config's line carries its summed FP and FN
beside its digest, --against FILE is quiet on a matching tree and prints
the differing lines and exits 1 otherwise (on a small matrix), every
config of the real matrix parses, and the whole matrix still gives the
trial rows pinned in tests/data/rows_matrix.txt."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gachagt.sim_cli import parse_config

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "rows_matrix.py"
PINNED = Path(__file__).resolve().parent / "data" / "rows_matrix.txt"


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
    monkeypatch.setattr(module, "REJECTED", {})
    monkeypatch.setattr(module, "CHANNELS", ("none", "bsc:0.05"))
    return module


def test_against_a_saved_output(small_matrix, tmp_path, capsys):
    assert small_matrix.main([]) == 0
    saved = capsys.readouterr().out
    lines = saved.splitlines()
    assert len(lines) == 5 and lines[0] == f"# numpy={np.__version__}"
    assert lines[3] == "bad none: config error: ValueError"
    path = tmp_path / "rows.txt"
    path.write_text(saved)
    assert small_matrix.main(["--against", str(path)]) == 0
    assert capsys.readouterr().out == f"rows_matrix: identical to {path}\n"

    changed = lines[2].replace(lines[2].split()[2], "0123456789abcdef")  # its digest
    path.write_text("\n".join(lines[:2] + [changed] + lines[3:]) + "\n")
    assert small_matrix.main(["--against", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"-{changed}" in out and f"+{lines[2]}" in out
    assert not any(line[1:] in (lines[:2] + lines[3:]) for line in out)
    assert out[-1] == f"rows_matrix: differs from {path}"


def test_errors_sit_beside_the_digests(small_matrix, tmp_path, capsys):
    # each digest is followed by the FP and FN summed over its trials.csv rows
    assert small_matrix.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    for line in lines[1:3]:
        digest, fp, fn = line.split(": ", 1)[1].split(" ")
        assert len(digest) == 16 and fp.startswith("fp=") and fn.startswith("fn=")
    gacha = small_matrix.SCHEMES["gacha"]
    small_matrix.sim_cli.run(small_matrix.sim_cli.parse_config(gacha + "channel=none\n"),
                             out_dir=str(tmp_path))
    rows = (tmp_path / "trials.csv").read_text().splitlines()[1:]
    fp = sum(int(r.split(",")[5]) for r in rows)
    fn = sum(int(r.split(",")[6]) for r in rows)
    assert lines[1].endswith(f" fp={fp} fn={fn}")


def test_every_config_parses():
    # the caps on per-trial work leave every config of the matrix buildable
    for text in load().SCHEMES.values():
        assert parse_config(text + "channel=none\n").trials > 0


def test_every_rejected_config_fails_at_parse():
    for text in load().REJECTED.values():
        with pytest.raises(ValueError):
            parse_config(text + "channel=none\n")


def test_trial_rows_match_the_pinned_matrix(capsys):
    # any change to a trials.csv row other than decode_ns fails here; the
    # rows are comparable only under the numpy version that wrote them
    written = PINNED.read_text().splitlines()[0]
    if written != f"# numpy={np.__version__}":
        pytest.skip(f"{PINNED.name} was written by {written[2:]}, this is numpy={np.__version__}")
    status = load().main(["--against", str(PINNED)])
    out = capsys.readouterr().out
    assert status == 0, out
