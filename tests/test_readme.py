import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    """The fenced python block under "## Library sketch" runs as written."""
    section = README.read_text().split("## Library sketch", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    exec(compile(code, f"{README}:library-sketch", "exec"), {})
