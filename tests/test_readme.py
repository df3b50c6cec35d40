import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_what_its_comments_say():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(library\)\n\n```python\n(.*?)```", text, re.S).group(1)
    # Each commented print line states its output as the comment's first word.
    expected = [
        line.split("#", 1)[1].split()[0]
        for line in block.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(block, str(README), "exec"), {})
    assert stdout.getvalue().splitlines() == expected
    assert len(expected) == 4
