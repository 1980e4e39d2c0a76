"""The package exposes no public API that only the tests call."""

import ast
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "collinea"
CALLERS = ("src", "tools", "perfbench")


def _exported():
    names = set()
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _names(path):
    """The identifiers of a file's code, not of its strings or comments."""
    with tokenize.open(path) as fh:
        return [tok.string for tok in tokenize.generate_tokens(fh.readline)
                if tok.type == tokenize.NAME]


def _name_tokens():
    """How often each identifier appears as code."""
    seen = Counter()
    for top in CALLERS:
        for path in (ROOT / top).rglob("*.py"):
            seen.update(_names(path))
    return seen


def test_every_public_name_is_exported_or_used_outside_the_tests():
    definitions = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                definitions[node.name] += 1
    exported, seen = _exported(), _name_tokens()
    unused = sorted(name for name, n in definitions.items()
                    if name not in exported and seen[name] <= n)
    assert not unused, f"public names only the tests can reach: {unused}"


def test_no_module_reads_the_environment():
    # a SearchConfig, like every other setting, comes from its arguments alone
    readers = sorted(path.name for path in PACKAGE.rglob("*.py")
                     if {"environ", "getenv"} & set(_names(path)))
    assert not readers, f"modules that read the environment: {readers}"
