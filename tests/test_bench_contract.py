"""The names the traced benchmark wraps must exist on the package.

bench/tracer.py patches functions and methods by name; deleting or renaming
one of them breaks `bench/run.py --trace 1`.  These tests import the tracer
read-only and check its table against the package, then trace a tiny run.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

import gachagt
import gachagt.sim_cli as sim_cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    return tracer


def test_traced_names_resolve(tracer):
    for mod_name, owner_name, attr, _ in tracer.TRACED:
        mod = getattr(gachagt, mod_name)
        owner = getattr(mod, owner_name) if owner_name else mod
        assert callable(getattr(owner, attr)), f"{mod_name}.{owner_name}.{attr}"
    assert callable(gachagt.gacha_core.recover_from_groups)
    assert callable(gachagt.gadgets.expander_build)
    tracer._modules(gachagt)  # the modules it patches by name all exist
    assert "symbols" in {f.name for f in dataclasses.fields(gachagt.gacha_core.SynthWord)}
    fields = {f.name for f in dataclasses.fields(gachagt.scheme.SchemeHandle)}
    assert {"column", "decode"} <= fields


def test_traced_run_nests(tracer, tmp_path):
    text = ("scheme=gacha+gadgets\nn=65536\nk=4\nchannel=fp:0.05\ntrials=2\n"
            "master_seed=5\nrho=4\nR=16\ntau_depth=2\nouter_w=8\n")
    config = sim_cli.parse_config(text)
    t = tracer.Tracer(gachagt)
    with t.installed():
        sim_cli.run(config, str(tmp_path), threads=1)
    spans = t.spans()
    assert spans.check() == []
    ids, self_ns, calls = spans.per_trial()
    assert len(ids) == 2
    names = spans.names
    assert calls[:, names.index("gadgets.expander_decode")].tolist() == [1, 1]
    assert calls[:, names.index("channels.plan_symmetrize")].tolist() == [0, 0]
