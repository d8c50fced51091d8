"""Source-tree guards: every top-level function, class or constant in the
package is used by the package or exported, and every method of a package
class is read by the package, so helpers that only tests use live in
``tests/``; every exported name has its line in the README's Public API
table; every attribute a package class sets on ``self`` is read by the
package; and every import in the package is used by its module."""

import ast
import pathlib
import re

import thueplane

SRC = pathlib.Path(thueplane.__file__).parent
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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


def _modules():
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _readme_api():
    """The names the README's Public API table gives a line, each as the
    row's first cell in backticks; empty without the table."""
    text = README.read_text()
    if "\n## Public API\n" not in text:
        return []
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` +\|", section, re.M)


def test_every_public_name_has_a_readme_line():
    # one line per ``__all__`` name: the statement it reproduces, or the
    # command that uses it
    assert sorted(_readme_api()) == sorted(thueplane.__all__)


def test_every_top_level_definition_is_used_or_exported():
    modules = {name: ast.parse(text) for name, text in _modules().items()}
    defs = []  # (module, name, node)
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_click_command(node):
                defs.append((name, node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        defs.append((name, target.id, node))
    # a use is a name or an attribute anywhere in the package outside the
    # definition itself, so recursion does not count; imports do not count;
    # an exported name counts as used only when the README names it
    exported = set(thueplane.__all__) & set(_readme_api())
    uses = {}  # name -> the top-level statements that use it, in any module
    for tree in modules.values():
        for node in tree.body:
            for used in _names_used(node):
                uses.setdefault(used, []).append(node)
    unused = [
        f"{module}:{name}"
        for module, name, node in defs
        if name not in exported and not [n for n in uses.get(name, ()) if n is not node]
    ]
    assert unused == []


def test_every_method_is_read_by_the_package():
    # a non-dunder method of a package class is read when its name is a
    # name or an attribute anywhere in the package outside its own body;
    # ``self.NAME`` reads only the method of the class it stands in
    trees = [ast.parse(text) for text in _modules().values()]
    classes = [cls for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)]
    reader = {}  # id of a ``self.NAME`` node -> the class it stands in
    for cls in classes:
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
                reader[id(node)] = cls
    reads = [
        (node.id if isinstance(node, ast.Name) else node.attr, node)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unread = []
    for cls in classes:
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name.startswith("__"):
                continue
            own = set(map(id, ast.walk(method)))
            if not any(
                name == method.name and id(node) not in own and reader.get(id(node), cls) is cls
                for name, node in reads
            ):
                unread.append(f"{cls.name}.{method.name}")
    assert unread == []


def test_every_instance_attribute_is_read_by_the_package():
    # an attribute a package class sets as ``self.x = ...`` is read when
    # ``.x`` is loaded anywhere in the package, on any object
    trees = [ast.parse(text) for text in _modules().values()]
    loaded = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                targets = node.targets if isinstance(node, ast.Assign) else ()
                for sub in (s for target in targets for s in ast.walk(target)):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self" and sub.attr not in loaded):
                        unread.append(f"{cls.name}.{sub.attr}")
    assert unread == []


def test_every_import_is_used():
    # a name bound by an import counts as used when its module reads it
    # anywhere; ``from __future__`` imports, the re-exports that
    # ``__init__`` lists in ``__all__`` and lines marked ``# noqa`` are exempt
    unused = []
    for module, text in _modules().items():
        tree = ast.parse(text)
        lines = text.splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if module == "__init__.py":
            read |= set(thueplane.__all__)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append(f"{module}:{alias.lineno}:{bound}")
    assert unused == []
