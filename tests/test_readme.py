"""README's Quick start runs as written, with its training cut to two steps."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    assert "steps=200" in block
    exec(compile(block.replace("steps=200", "steps=2"), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1].startswith("(80, 20)")
