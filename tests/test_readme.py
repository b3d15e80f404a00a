"""Every Python example in README.md runs as written.

A renamed or re-signed name then fails here instead of misleading a reader.
Each block is compiled with optimize=0, so its assert statements run under
`python -O` too.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    if not blocks:
        pytest.fail("README.md has no python block")
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec", optimize=0), {"__name__": "readme"})
