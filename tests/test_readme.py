"""README's python blocks import only names that exist, so the snippets cannot go stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_readme_import_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if re.match(r"(import|from \S+ import) ", line)]
    assert any(line.startswith("from fvig.") for line in lines)
    failures = []
    for line in lines:
        try:
            exec(line, {})
        except ImportError as err:
            failures.append(f"{line}: {err}")
    assert not failures
