"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_examples_run_in_order():
    # each block may use the names an earlier one defined
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 5
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
