"""README's code examples still run and say what README says they do."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading):
    """The first ```python block under a ``## heading`` of README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_sketch_recovers_the_chain():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_python_block("Library sketch"), {"__name__": "readme_sketch"})
    assert "'shd': 0" in out.getvalue()
