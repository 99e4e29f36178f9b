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
