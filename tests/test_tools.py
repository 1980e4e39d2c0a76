"""tools/code_lines.py, the code-line count that sizes the package."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts

# a comment line does not


class Box:
    """A class docstring."""

    size = (1 +
            2)

    def text(self):
        """A function docstring
        over two lines."""
        s = """a string
that is no docstring"""
        "a bare string after the first statement"
        return s


async def wait():
    """An async docstring."""
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    # import, class, size (two lines), def, s (two lines), the bare string,
    # return and async def
    assert _tool().code_lines(SOURCE) == 10


def test_code_lines_total_is_the_sum_of_the_modules(capsys):
    tool = _tool()
    package = ROOT / "src" / "collinea"
    tool.main(["code_lines.py", str(package)])
    *modules, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert total[1] == "total"
    assert int(total[0]) == sum(int(n) for n, _ in modules)
    assert {name: int(n) for n, name in modules} == {
        str(path.relative_to(package)): tool.code_lines(path.read_text())
        for path in package.rglob("*.py")}
