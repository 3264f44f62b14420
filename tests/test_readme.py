"""The README's library sketch runs as written, so the public API it
documents cannot drift from the package unnoticed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library sketch\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S).group(1)
    exec(compile(code, f"{README} (Library sketch)", "exec"), {"__name__": "readme_sketch"})
