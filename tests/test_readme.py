"""README's library quick start runs as written: its ```python blocks,
executed in order in one namespace, as a reader would paste them."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    ns = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    opt = ns["brute_force_front"](ns["f"], ns["c"], [3.0])[3.0]
    assert max(ns["value"], ns["pomc"].answer_value()[0]) <= opt
    assert len(ns["records"]) == 201  # the start and 200 changes
