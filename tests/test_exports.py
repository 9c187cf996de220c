"""The package exports only what a subcommand, an acceptance criterion, the
benchmark or the README's library example reaches.  Files are read as text,
so nothing of the benchmark is imported or run."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _exported() -> list[str]:
    tree = ast.parse((ROOT / "src" / "pointderiv" / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _library_example() -> str:
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"^## Library example\n\n```python\n(.*?)^```", readme, re.S | re.M)
    assert match, "README.md has no Library example code block"
    return match.group(1)


def test_public_names_are_reached():
    files = [
        ROOT / "src" / "pointderiv" / "cli.py",
        ROOT / "tests" / "test_acceptance.py",
        *sorted((ROOT / "perfbench").glob("*.py")),
    ]
    text = "\n".join([*(p.read_text() for p in files), _library_example()])
    unreached = [name for name in _exported() if not re.search(rf"\b{name}\b", text)]
    assert unreached == []
