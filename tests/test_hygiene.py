"""Cheap structural checks on the package source.

The benchmark's tracer wraps functions by module and attribute name, so a
rename inside ``tropeci`` would only surface in a slow benchmark run; and
with no linter installed, unused imports, private helpers that nothing
calls any more and options that no caller sets would pile up unnoticed.  So
would hand-written copies of the ``linalg`` vector kernels, which bring back
the slow generator form that those kernels replaced with C-level builtins,
reads of a ``Cone``'s private slots outside ``cones``, which recover
what a ``Cone`` method should hand over, imports tucked into function
bodies, which hide a module's dependencies from its header, and imports of
``random`` outside ``oracles``, which would let a computed number depend on
a draw, and Smith forms outside the functions that read a lattice, where a
test over ℚ on a cone's own generators would do.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tropeci"


def _tracing_targets() -> list:
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, path) for _, mod, path, _ in module.TARGETS]


@pytest.mark.parametrize("mod,path", _tracing_targets())
def test_every_traced_name_resolves(mod, path):
    obj = importlib.import_module(f"tropeci.{mod}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)


def _exported(tree) -> set | None:
    """The names in the module's ``__all__``, or None when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return None


def _missing_from_all(source: str) -> list:
    """Public top-level functions and classes that a module's ``__all__``
    leaves out; none when the module has no ``__all__``."""
    tree = ast.parse(source)
    exported = _exported(tree)
    if exported is None:
        return []
    return sorted(node.name for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in exported)


def test_the_export_check_sees_a_public_name_left_out():
    source = "__all__ = ['f']\n\ndef f():\n    pass\n\ndef g():\n    pass\n\n" \
             "def _h():\n    pass\n\nclass C:\n    pass\n"
    assert _missing_from_all(source) == ["C", "g"]
    assert _missing_from_all("def g():\n    pass\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_public_name_is_in_all(path):
    assert _missing_from_all(path.read_text()) == []


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree) or set()
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_the_unused_import_check_sees_an_unused_name():
    assert _unused_imports("from .x import a, b\nprint(a)\n") == ["line 1: b"]
    assert _unused_imports("import os\n__all__ = ['os']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text()) == []


def _local_imports(source: str) -> list:
    """(line, name) for every name imported inside a function body."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.update((inner.lineno, alias.name) for inner in ast.walk(node)
                       if isinstance(inner, (ast.Import, ast.ImportFrom))
                       for alias in inner.names)
    return sorted(out)


# the one lazy import: oracles needs sympy for one resultant oracle only, so
# importing the package does not import sympy
LAZY_IMPORTS = {("oracles.py", "sympy")}


def test_the_local_import_check_sees_a_leftover():
    source = ("import os\n\ndef f():\n    import sys\n    return sys\n\n"
              "class C:\n    def m(self):\n        from math import gcd, lcm\n")
    assert _local_imports(source) == [(4, "sys"), (9, "gcd"), (9, "lcm")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_live_at_module_top(path):
    assert [(line, name) for line, name in _local_imports(path.read_text())
            if (path.name, name) not in LAZY_IMPORTS] == []


def _random_imports(source: str) -> list:
    """Lines that import the ``random`` module or a name from it."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] == "random" for m in modules):
            out.append(node.lineno)
    return sorted(out)


def test_the_determinism_check_sees_an_import_of_random():
    source = ("import os, random\n\ndef f():\n    from random import Random\n"
              "from .random import x\nimport randomness\n")
    assert _random_imports(source) == [1, 4]


# only the oracles draw: they build seeded random test inputs
@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "oracles.py"),
                         ids=lambda p: p.name)
def test_no_computation_imports_random(path):
    assert _random_imports(path.read_text()) == []


def _private_definitions(tree) -> list:
    """Private top-level functions and classes, and private methods."""
    out = []
    for node in tree.body:
        defs = [node]
        if isinstance(node, ast.ClassDef):
            defs += node.body
        for d in defs:
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and \
                    d.name.startswith("_") and not d.name.endswith("__"):
                out.append((d.name, d.lineno))
    return out


def _referenced_names(trees) -> set:
    out = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
    return out


def _unreferenced_private(sources: dict) -> list:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = _referenced_names(trees.values())
    return sorted(f"{name} line {line}: {d}" for name, tree in trees.items()
                  for d, line in _private_definitions(tree) if d not in used)


def test_the_private_name_check_sees_a_leftover():
    sources = {"a.py": "def _used():\n    pass\n\ndef _left():\n    pass\n",
               "b.py": "from a import _used\n_used()\n"
                       "class C:\n    def _m(self):\n        pass\n"
                       "    def __init__(self):\n        pass\n"}
    assert _unreferenced_private(sources) == ["a.py line 4: _left", "b.py line 4: _m"]


def test_every_private_helper_is_referenced_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced_private(sources) == []


def _slot_entries(tree) -> list:
    """(class name, slot name, line) for every ``__slots__`` entry."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
                out += [(cls.name, slot, node.lineno)
                        for slot in ast.literal_eval(node.value)]
    return out


def _attributes_read(trees) -> set:
    return {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _unread_slots(package: dict, readers: dict) -> list:
    trees = {name: ast.parse(src) for name, src in package.items()}
    read = _attributes_read([*trees.values(), *map(ast.parse, readers.values())])
    return sorted(f"{name} line {line}: {cls}.{slot}" for name, tree in trees.items()
                  for cls, slot, line in _slot_entries(tree) if slot not in read)


def test_the_slot_check_sees_a_field_that_is_only_written():
    package = {"a.py": "class A:\n    __slots__ = ('x', 'y')\n\n"
                       "    def __init__(self):\n        self.x = self.y = 0\n"}
    assert _unread_slots(package, {"t.py": "print(A().x)\n"}) == ["a.py line 2: A.y"]


def test_every_slot_is_read_somewhere():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = {str(p): p.read_text()
               for d in ("tests", "bench") for p in sorted((ROOT / d).glob("*.py"))}
    assert _unread_slots(package, readers) == []


def _cone_slots() -> set:
    """The private ``Cone`` slots: its cached representations and caches."""
    tree = ast.parse((PACKAGE / "cones.py").read_text())
    return {slot for cls, slot, _ in _slot_entries(tree)
            if cls == "Cone" and slot.startswith("_")}


def _slot_uses(source: str, slots: set) -> list:
    """Reads and writes of an attribute named in ``slots``, except ``self.x``
    inside a class that declares a slot x of its own."""
    tree = ast.parse(source)
    own = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            mine = {slot for _, slot, _ in _slot_entries(cls)}
            own |= {id(n) for n in ast.walk(cls) if isinstance(n, ast.Attribute)
                    and _names(n.value) == ["self"] and n.attr in mine}
    return sorted(f"line {n.lineno}: .{n.attr}" for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr in slots and id(n) not in own)


def test_the_slot_use_check_sees_a_cone_slot_read_elsewhere():
    source = ("class P:\n    __slots__ = ('_span',)\n\n"
              "    def f(self):\n        return self._span\n\n"
              "def g(c):\n    c._dim = 1\n    return c._raw_eqs[-1]\n")
    assert _slot_uses(source, {"_span", "_dim", "_raw_eqs"}) == [
        "line 8: ._dim", "line 9: ._raw_eqs"]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "cones.py"),
                         ids=lambda p: p.name)
def test_only_cones_touches_the_private_slots_of_a_cone(path):
    assert _slot_uses(path.read_text(), _cone_slots()) == []


def _defaults(tree) -> list:
    """(function, parameter, position, line) for every parameter with a
    default of a module-level function; keyword-only ones have no position."""
    out = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out += [(node.name, a.arg, i, node.lineno)
                for i, a in enumerate(positional) if i >= first]
        out += [(node.name, a.arg, None, node.lineno)
                for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passed(trees) -> set:
    """(called name, position or keyword) for every argument of every call.

    Calls are matched by the called name alone; after a ``*args`` any
    position may be passed ("*"), and a ``**kwargs`` may pass any keyword.
    """
    out = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            for i, a in enumerate(call.args):
                out.add((name, "*" if isinstance(a, ast.Starred) else i))
            out.update((name, k.arg or "**") for k in call.keywords)
    return out


def _unused_defaults(package: dict, callers: dict) -> list:
    passed = _passed(map(ast.parse, callers.values()))
    out = []
    for name, src in package.items():
        for func, param, pos, line in _defaults(ast.parse(src)):
            ways = {(func, param), (func, "**")}
            if pos is not None:
                ways |= {(func, pos), (func, "*")}
            if not ways & passed:
                out.append(f"{name} line {line}: {func}.{param}")
    return sorted(out)


def test_the_default_check_sees_an_option_that_no_call_sets():
    package = {"a.py": "def f(x, y=1, z=2, *, k=3, m=4):\n    pass\n\n"
                       "def g(x, y=1):\n    pass\n\n"
                       "class C:\n    def h(self, v=0):\n        pass\n"}
    callers = {"t.py": "f(0, 1, m=2)\ng(*[0, 1])\nC().h()\n"}
    assert _unused_defaults(package, callers) == ["a.py line 1: f.k", "a.py line 1: f.z"]


def test_every_default_is_passed_by_some_call():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    callers = {str(p): p.read_text() for d in ("src/tropeci", "tests", "bench")
               for p in sorted((ROOT / d).glob("*.py"))}
    assert _unused_defaults(package, callers) == []


def _names(node) -> list | None:
    """The names of a Name or a tuple of Names, else None."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Tuple) and all(isinstance(e, ast.Name) for e in node.elts):
        return [e.id for e in node.elts]
    return None


def _called(call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _kernel_reimplementations(source: str) -> list:
    """Hand-written copies of the ``linalg`` vector kernels: a generator dot
    product ``sum(a * b for a, b in zip(u, v))``, a zero test
    ``all(x == 0 for x in v)`` and a gcd loop step ``gcd(g, abs(x))``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name, args = _called(node), node.args
        gen = args[0] if len(args) == 1 and isinstance(args[0], ast.GeneratorExp) \
            else None
        target = gen and len(gen.generators) == 1 and _names(gen.generators[0].target)
        if name == "sum" and target and len(target) == 2:
            elt, it = gen.elt, gen.generators[0].iter
            if isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.Mult) and \
                    sorted((_names(elt.left) or []) + (_names(elt.right) or [])) == \
                    sorted(target) and isinstance(it, ast.Call) and _called(it) == "zip":
                out.append(f"line {node.lineno}: generator dot")
        elif name == "all" and target and len(target) == 1:
            elt = gen.elt
            if isinstance(elt, ast.Compare) and _names(elt.left) == target and \
                    isinstance(elt.ops[0], ast.Eq) and \
                    isinstance(elt.comparators[0], ast.Constant) and \
                    elt.comparators[0].value == 0:
                out.append(f"line {node.lineno}: all(x == 0 …)")
        elif name == "gcd" and len(args) == 2 and isinstance(args[0], ast.Name) and \
                isinstance(args[1], ast.Call) and _called(args[1]) == "abs":
            out.append(f"line {node.lineno}: gcd(g, abs(x)) loop")
    return sorted(out)


def test_the_kernel_check_sees_a_copied_kernel():
    source = ("s = sum(a * b for a, b in zip(u, v))\n"
              "z = all(x == 0 for x in v)\n"
              "for x in v:\n    g = gcd(g, abs(x))\n"
              "t = sum(c * w[0] for c, w in zip(r, rows))\n"
              "ok = all(dot(e, x) == 0 for e in eqs)\n"
              "h = gcd(*v)\n")
    assert _kernel_reimplementations(source) == [
        "line 1: generator dot", "line 2: all(x == 0 …)", "line 4: gcd(g, abs(x)) loop"]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "linalg.py"),
                         ids=lambda p: p.name)
def test_only_linalg_implements_the_vector_kernels(path):
    assert _kernel_reimplementations(path.read_text()) == []


# The Smith-form routines of ``linalg`` and the saturated span bases that
# run one.  A test that only asks whether something vanishes on a span reads
# the cone's own generators over ℚ instead (``cones._agree``).
LATTICE_READS = {"smith_with_basis", "saturation_basis", "sublattice_index", "span_rows"}

# (module, function) that may use them, each with the lattice it reads
LATTICE_READERS = {
    ("cones.py", "Cone.span_rows"): "the saturated basis of a cone's span",
    ("polytopes.py", "LatticePolytope.span_rows"):
        "the saturated basis of a polytope's direction space",
    ("polytopes.py", "LatticePolytope.relative_normalized_volume"):
        "a lattice simplex's volume is the index of its rays' lattice",
    ("fans.py", "_lift"): "a wall lift is an integer vector of span τ with φ·x = 1",
    ("fans.py", "_image_lattice_check"): "a map is onto ℤ^m when its Smith form is 1s",
    ("fans.py", "pushforward"): "an image cone weighs the index of its span's image lattice",
    ("fans.py", "stable_intersection_number"): "a pair weighs [ℤⁿ : L_σ + L_τ]",
    ("plfunc.py", "_curve_corner_weight"): "a line is weighed at its lattice generator",
    ("ppfunc.py", "_FanEngine._multiplicity"): "a simplex's multiplicity is its lattice index",
    ("linalg.py", "saturation_basis"): "the linalg routine of that name",
    ("linalg.py", "sublattice_index"): "the linalg routine of that name",
}


def _lattice_reads(source: str) -> list:
    """(function, name) per use of a name in ``LATTICE_READS``, called or
    passed, with the dotted path of the enclosing function ("" at the top)."""
    out = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path + [child.name])
                continue
            name = child.id if isinstance(child, ast.Name) else \
                child.attr if isinstance(child, ast.Attribute) else None
            if name in LATTICE_READS:
                out.append((".".join(path), name))
            visit(child, path)

    visit(ast.parse(source), [])
    return sorted(out)


def test_the_lattice_check_sees_a_smith_form_outside_a_reader():
    source = ("from .linalg import smith_with_basis\n\n"
              "def f(c):\n    return c.span_rows()\n\n"
              "class K:\n    def g(self, r):\n        return sum(map(sublattice_index, r))\n\n"
              "x = saturation_basis\n")
    assert _lattice_reads(source) == [
        ("", "saturation_basis"), ("K.g", "sublattice_index"), ("f", "span_rows")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_lattice_readers_take_smith_forms(path):
    assert [(f, name) for f, name in _lattice_reads(path.read_text())
            if (path.name, f) not in LATTICE_READERS] == []


def test_every_lattice_reader_still_reads_a_lattice():
    used = {(path.name, f) for path in PACKAGE.glob("*.py")
            for f, _ in _lattice_reads(path.read_text())}
    assert sorted(set(LATTICE_READERS) - used) == []
