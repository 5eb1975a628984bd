import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flatconn"


def _unused_imports(tree):
    """Names bound by an import of the module and never read in it.

    A name listed in ``__all__`` counts as read (a re-export); imports from
    ``__future__`` are directives, not names.
    """
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d %s" % (path.name, line, name) for line, name in _unused_imports(tree)]
    assert not found, "unused imports: " + ", ".join(found)


def test_scan_sees_unused_names_and_reexports():
    tree = ast.parse(
        "from x import a, b, c as d\nimport os.path\n__all__ = ['b']\nprint(d)\n")
    assert _unused_imports(tree) == [(1, "a"), (2, "os")]
