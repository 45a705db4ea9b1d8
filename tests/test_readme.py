"""The Python quick start in README.md runs as written."""

import os
import re
import warnings

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_readme_python_blocks_run():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            exec(compile(block, "README.md", "exec"), {})
