"""Source-tree guards: every top-level function or class in the package is
used by the package or exported, so helpers that only tests use live in
``tests/``."""

import ast
import pathlib

import thueplane

SRC = pathlib.Path(thueplane.__file__).parent


def _is_click_command(node):
    # @main.command(...), @click.group(), ...: click registers these
    for dec in node.decorator_list:
        fn = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(fn, ast.Attribute) and fn.attr in ("command", "group"):
            return True
    return False


def _names_used(node):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_top_level_definition_is_used_or_exported():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defs = []  # (module, name, node)
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_click_command(node):
                defs.append((name, node.name, node))
    # a use is a name or an attribute anywhere in the package outside the
    # definition itself, so recursion does not count; imports do not count
    uses = {}  # name -> the top-level statements that use it, in any module
    for tree in modules.values():
        for node in tree.body:
            for used in _names_used(node):
                uses.setdefault(used, []).append(node)
    unused = [
        f"{module}:{name}"
        for module, name, node in defs
        if name not in thueplane.__all__ and not [n for n in uses.get(name, ()) if n is not node]
    ]
    assert unused == []
