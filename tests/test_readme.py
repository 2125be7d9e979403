"""The README's python examples run, in order, against the library."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def test_readme_python_blocks_run_in_order():
    with open(README) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.DOTALL)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
