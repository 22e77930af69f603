"""Every Python code block in README.md runs as written."""
import re

import pytest

from conftest import REPO_ROOT

EXAMPLES = re.findall(r"^```python\n(.*?)^```", (REPO_ROOT / "README.md").read_text(),
                      re.DOTALL | re.MULTILINE)


def test_readme_has_python_examples():
    assert EXAMPLES


@pytest.mark.parametrize("source", EXAMPLES, ids=[f"block{i}" for i in range(len(EXAMPLES))])
def test_readme_example_runs(source):
    exec(compile(source, "README.md", "exec"), {"__name__": "readme"})
