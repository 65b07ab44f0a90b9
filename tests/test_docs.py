"""The README's library examples and public names against the package."""

import builtins
import re
from pathlib import Path

import erasure_lab

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_public_names_resolve():
    missing = [name for name in erasure_lab.__all__ if not hasattr(erasure_lab, name)]
    assert not missing


def test_readme_names_only_public_classes():
    # A class named in running text, such as `StateVector(dims, amplitudes)`,
    # must still be exported (or be a Python builtin like `MemoryError`).
    named = set(re.findall(r"`([A-Z][A-Za-z]*)[`(.]", README))
    unknown = sorted(n for n in named if n not in erasure_lab.__all__ and not hasattr(builtins, n))
    assert not unknown
