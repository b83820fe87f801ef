"""The README's library example runs against the package as it is."""

import pathlib
import re

import uwbpose

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_use_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Library use", 1)[1].split("\n## ", 1)[0]


def test_library_use_block_runs():
    code = re.search(r"```python\n(.*?)```", _library_use_section(), re.S).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_library_use"})


def test_library_use_names_exist():
    names = re.findall(r"`([A-Za-z_]\w*)`", _library_use_section())
    assert names
    assert [name for name in names if not hasattr(uwbpose, name)] == []
