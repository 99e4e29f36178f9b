"""The README's library example runs as written, so it cannot name a
function the package no longer has."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under ## Library example"
    exec(compile(block.group(1), f"{README}:Library example", "exec"), {"__name__": "__readme__"})


def test_readme_config_keys_are_the_parser_keys():
    # every key=value named in the ### Config keys block, comments left out,
    # is a key parse_config reads, and parse_config reads no other
    from gachagt.sim_cli import _INT_KEYS, _STR_KEYS

    section = README.read_text().split("\n### Config keys\n", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.S)
    assert block is not None, "no ini block under ### Config keys"
    named = {key for line in block.group(1).splitlines()
             for key in re.findall(r"(?:^|\s)(\w+)=", line.split("#", 1)[0])}
    assert named == _INT_KEYS | _STR_KEYS
