"""Source-tree guards: every top-level function, class or constant in the
package is used by the package or exported, and every method of a package
class is read by the package, so helpers that only tests use live in
``tests/``; every exported name has its line in the README's Public API
table; every attribute a package class sets on ``self`` is read by the
package; every import in the package and its tests is used by its
module; only the functions listed here raise ``RuntimeError``, the
package's signal of a bug in itself; and only the sites listed here call
``.index``, ``.count``, ``.remove`` or ``.insert`` or ``+=`` a tuple
inside a loop.  Every committed ``BENCH_*.json`` record parses and names
what it measured and the machine."""

import ast
import builtins
import importlib
import json
import pathlib
import re

import thueplane

SRC = pathlib.Path(thueplane.__file__).parent
TESTS = pathlib.Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


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
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
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
    # ``__init__`` lists in ``__all__`` and lines marked ``# noqa`` are
    # exempt.  Test modules are scanned too, where a fixture imported by
    # name is used when a test takes it as an argument.
    tests = {f"tests/{path.name}": path.read_text() for path in sorted(TESTS.glob("*.py"))}
    unused = []
    for module, text in {**_modules(), **tests}.items():
        tree = ast.parse(text)
        lines = text.splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if module == "__init__.py":
            read |= set(thueplane.__all__)
        if module in tests:
            read |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append(f"{module}:{alias.lineno}:{bound}")
    assert unused == []


#: every function that raises RuntimeError or a subclass, with its reason.
#: The constructions do not re-check what they build: ``colour._checked``
#: certifies every pipeline's output once, so a new internal check belongs
#: here only with a reason why it costs less than the bug it catches.
RAISES_A_BUG = {
    # the certificate: the verifier and the palette bound, once per call
    "colour._checked",
    # O(n): the blocking cores trust that the layers graph is outerplane
    "colour.colour_plane",
    # the kernel's witness is read back as a square before it is returned
    "verify.verify_facial_nonrepetitive",
    # the search for a cycle word can be exhausted; nothing else would say so
    "words.cycle_colouring",
}


def test_only_the_listed_functions_raise_runtime_errors():
    found = set()
    for name in _modules():
        module = importlib.import_module(f"thueplane.{name[:-3]}")
        tree = ast.parse((SRC / name).read_text())
        for node in tree.body:
            for fn in [node] + (node.body if isinstance(node, ast.ClassDef) else []):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for sub in ast.walk(fn):
                    exc = sub.exc if isinstance(sub, ast.Raise) else None
                    exc = exc.func if isinstance(exc, ast.Call) else exc
                    if isinstance(exc, ast.Name):
                        cls = getattr(module, exc.id, getattr(builtins, exc.id, None))
                    elif isinstance(exc, ast.Attribute) and isinstance(exc.value, ast.Name):
                        cls = getattr(getattr(module, exc.value.id, None), exc.attr, None)
                    else:
                        continue
                    if isinstance(cls, type) and issubclass(cls, RuntimeError):
                        found.add(f"{name[:-3]}.{fn.name}")
    assert found == RAISES_A_BUG


#: every call of ``.index``, ``.count``, ``.remove`` or ``.insert`` and
#: every ``+=`` of a tuple display that runs once per iteration of a loop
#: in the package, with the bound on the length it reads or copies.  Line
#: events do not see this work, which runs in C, so a scan of a growing
#: list inside a loop shows in no line count; a new site belongs here only
#: with its bound.
LINEAR_IN_A_LOOP = {
    # once per component, on its outer walk: the walks hold each outer dart once
    "blocking._even_blocking_over_blocks: .index",
    # the face's level list, once per inner face: the faces' lengths together
    "colour._colour_cactus_component: .count",
    # each dart anchors at most one added edge's outgoing dart, so the
    # tuple before a dart holds at most one dart when it grows
    "embed._mapped_rotations: += tuple",
    # each scan starts past the last one's find, so together they read the
    # list once
    "embed._unreached: .index",
    # the generator only: a rotation of deg(x) darts, once per added edge,
    # and the new face, which the slice beside the tuple ``+=`` copies anyway
    "gen._gen_plane: .index",
    "gen._gen_plane: .insert",
    "gen._gen_plane: += tuple",
    # onto a list, not a tuple: an append of two, O(1) amortized
    "gen._triangulation_chords: += tuple",
    # on a set, not a list: O(1)
    "verify._window_ends: .remove",
}


def _per_iteration(fn):
    """The nodes of ``fn`` that run once per iteration of a loop in it: a
    loop's body, a ``while`` test, and a comprehension but its first iterable."""
    for loop in ast.walk(fn):
        if isinstance(loop, (ast.For, ast.While)):
            parts = loop.body + ([loop.test] if isinstance(loop, ast.While) else [])
            yield from (node for part in parts for node in ast.walk(part))
        elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            once = set(map(id, ast.walk(loop.generators[0].iter)))
            yield from (node for node in ast.walk(loop) if id(node) not in once)


def test_only_the_listed_sites_scan_or_copy_inside_a_loop():
    found = set()
    for name, text in _modules().items():
        tree = ast.parse(text)
        for node in tree.body:
            for fn in [node] + (node.body if isinstance(node, ast.ClassDef) else []):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                site = f"{name[:-3]}.{fn.name}"
                for sub in _per_iteration(fn):
                    if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr in ("index", "count", "remove", "insert")):
                        found.add(f"{site}: .{sub.func.attr}")
                    elif isinstance(sub, ast.AugAssign) and isinstance(sub.op, ast.Add) and isinstance(sub.value, ast.Tuple):
                        found.add(f"{site}: += tuple")
    assert found == LINEAR_IN_A_LOOP


def test_every_bench_record_parses_and_says_what_and_where():
    # a speed-up commits its evidence as BENCH_<pr>.json: it must load, say
    # what it measured and on which machine
    records = sorted(README.parent.glob("BENCH_*.json"))
    assert records
    for path in records:
        doc = json.loads(path.read_text())
        assert isinstance(doc, dict), path.name
        assert isinstance(doc.get("what"), str) and doc["what"], path.name
        assert doc.get("machine"), path.name
