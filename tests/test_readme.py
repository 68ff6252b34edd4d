"""The README's library example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    block = re.search(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert block is not None, "README.md has no python block"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines()[0] == "0.8989197530864196"
