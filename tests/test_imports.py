import ast
import importlib
import os
import subprocess
import sys
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


def test_every_exported_name_resolves():
    # A stale name in __all__ breaks `from flatconn.<module> import *` only.
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "flatconn" if path.stem == "__init__" else "flatconn." + path.stem
        mod = importlib.import_module(name)
        missing += ["%s.%s" % (name, n) for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, "unresolved exports: " + ", ".join(missing)


def test_scan_sees_unused_names_and_reexports():
    tree = ast.parse(
        "from x import a, b, c as d\nimport os.path\n__all__ = ['b']\nprint(d)\n")
    assert _unused_imports(tree) == [(1, "a"), (2, "os")]


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _import_time_typing_subscripts(tree):
    """(line, name) of every subscript of a ``typing`` name run at import.

    Such a subscript lands in ``typing``'s caches and keeps its arguments,
    and through them the module, alive after the module is dropped from
    ``sys.modules``.  Function bodies and the bodies of ``if TYPE_CHECKING:``
    blocks do not run at import; annotations do not either once the module
    imports ``annotations`` from ``__future__``.
    """
    typing_names = set()
    typing_modules = set()
    lazy_annotations = False
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            typing_names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "__future__":
            lazy_annotations |= any(a.name == "annotations" for a in node.names)
        elif isinstance(node, ast.Import):
            typing_modules.update(a.asname or a.name for a in node.names if a.name == "typing")
    found = []

    def visit(node):
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            run = args.defaults + [d for d in args.kw_defaults if d is not None]
            if not isinstance(node, ast.Lambda):
                run += node.decorator_list
                if not lazy_annotations:
                    every = args.posonlyargs + args.args + args.kwonlyargs
                    every += [a for a in (args.vararg, args.kwarg) if a is not None]
                    run += [a.annotation for a in every if a.annotation is not None]
                    run += [node.returns] if node.returns is not None else []
            for child in run:
                visit(child)
            return
        if isinstance(node, ast.AnnAssign):
            run = [node.target] + ([node.value] if node.value is not None else [])
            if not lazy_annotations:
                run.append(node.annotation)
            for child in run:
                visit(child)
            return
        if isinstance(node, ast.Subscript):
            base = node.value
            if isinstance(base, ast.Name) and base.id in typing_names:
                found.append((node.lineno, base.id))
            elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                  and base.value.id in typing_modules):
                found.append((node.lineno, base.attr))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_no_module_subscripts_typing_at_import():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d %s" % (path.name, line, name)
                  for line, name in _import_time_typing_subscripts(tree)]
    assert not found, "typing subscripts evaluated at import: " + ", ".join(found)


def test_typing_scan_sees_import_time_subscripts_only():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import typing as t\n"
        "from typing import TYPE_CHECKING, Dict, List\n"
        "A = Dict[str, int]\n"
        "if TYPE_CHECKING:\n"
        "    B = List[int]\n"
        "else:\n"
        "    B = t.List[int]\n"
        "def f(x: List[int] = cast(List[int], y)) -> Dict[str, int]:\n"
        "    return List[int]\n"
        "class C:\n"
        "    z: Dict[str, int] = {}\n"
        "    w = [List[i] for i in ()]\n")
    assert _import_time_typing_subscripts(tree) == [
        (4, "Dict"), (8, "List"), (9, "List"), (13, "List")]
    eager = ast.parse("from typing import List\ndef f(x: List[int]): pass\n")
    assert _import_time_typing_subscripts(eager) == [(2, "List")]


SOLVER_CALLEES = ("solve_by_superposition", "monomials", "_target_block")


def _owned(tree, pick):
    """Sorted (enclosing definition, line, name) of every node for which
    ``pick(node)`` gives a name.

    The enclosing definition is the dotted path of the functions and classes
    around the node, ``<module>`` at top level.
    """
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name if owner == "<module>" else owner + "." + node.name
        name = pick(node)
        if name is not None:
            found.append((owner, node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return sorted(found)


def _call_of(callees):
    """A pick for _owned: the name of a call of one of ``callees``, bare or
    as an attribute."""
    def pick(node):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in callees:
                return name
        return None

    return pick


def _calls(tree, callees):
    """_owned for every call of a name in ``callees``."""
    return _owned(tree, _call_of(callees))


def _src_scan(pick):
    """_owned over every module of src, each owner prefixed by its module."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [("%s.%s" % (path.stem, owner), line, name)
                  for owner, line, name in _owned(tree, pick)]
    return found


def test_only_cochain_preimage_builds_and_solves_ansatz_systems():
    # One bounded preimage of the cochain differential: every ansatz system
    # is assembled (only the blocks that hold the target, by _target_block)
    # and solved in jets.cochain_preimage.
    found = _src_scan(_call_of(SOLVER_CALLEES))
    assert {owner for owner, _, _ in found} == {"jets.cochain_preimage"}, found
    assert sorted(name for _, _, name in found) == sorted(SOLVER_CALLEES), found


def test_only_two_constructors_extend_a_scheme():
    # One construction path for flat representations: every spec over a
    # trivial extension is built by covering_to_flatrep (a connection is the
    # covering of Base(n)), and the SDYM family, whose split also moves x3
    # and x4 to the fibers, by sdym.build_flatrep.
    found = _src_scan(_call_of(("Extended",)))
    assert {owner for owner, _, _ in found} == {
        "flatrep.covering_to_flatrep", "sdym.build_flatrep"}, found


def test_extension_scan_sees_every_call():
    tree = ast.parse(
        "def f(base):\n"
        "    return jets.Extended(base, 1), isinstance(base, Extended)\n"
        "class C:\n"
        "    def g(self):\n"
        "        return [Extended(b, k) for b, k in self.pairs]\n"
        "make = Extended\n"
        "chart = Extended(Base(1), 2).fibers\n"
        "other = ExtendedChart(1)\n")
    assert _calls(tree, ("Extended",)) == [
        ("<module>", 7, "Extended"), ("C.g", 5, "Extended"), ("f", 2, "Extended")]


def test_no_function_builds_basis_images_beside_the_block():
    # The image d(mu e_a) of a basis column needs the twist D_a(a_i^b):
    # only the differential and the closure of cochain_preimage read it,
    # and the full-system builder _basis_images is gone.
    reads = _src_scan(lambda node: node.attr if isinstance(node, ast.Attribute)
                      and node.attr == "twist" and isinstance(node.ctx, ast.Load) else None)
    assert {owner for owner, _, _ in reads} == {
        "jets.cochain_differential", "jets._target_block"}, reads
    defs = _src_scan(lambda node: node.name if isinstance(node, ast.FunctionDef)
                     and node.name == "_basis_images" else None)
    assert defs == [], defs


PACK_MEMO = "_pack_memo"


def _pack_memo_use(node):
    """A pick for _owned: "create" for the keyword ``_pack_memo={}``, as in
    ``self._put(_pack_memo={})``; "name" for the string ``"_pack_memo"``,
    as in ``__slots__``; "use" for any other keyword or attribute of that
    name, a read or a write."""
    if isinstance(node, ast.keyword) and node.arg == PACK_MEMO:
        return "create" if isinstance(node.value, ast.Dict) and not node.value.keys else "use"
    if isinstance(node, ast.Attribute) and node.attr == PACK_MEMO:
        return "use"
    if isinstance(node, ast.Constant) and node.value == PACK_MEMO:
        return "name"
    return None


def test_only_jets_fills_the_packing_memo():
    # Each complex owns one packing memo for cochain_preimage: FcChart and
    # FlatRepSpec declare it and create it empty, and only jets reads or
    # writes it, in the assembler.
    found = _src_scan(_pack_memo_use)
    assert [(owner, kind) for owner, _, kind in found if not owner.startswith("jets.")] == [
        ("fce.FcChart", "name"), ("fce.FcChart.__init__", "create"),
        ("flatrep.FlatRepSpec", "name"), ("flatrep.FlatRepSpec.__init__", "create")], found
    assert {owner for owner, _, _ in found if owner.startswith("jets.")} == {
        "jets._target_block"}, found


def test_pack_memo_scan_sees_every_use():
    tree = ast.parse(
        "class C(Frozen):\n"
        "    __slots__ = ('_pack_memo',)\n"
        "    def __init__(self):\n"
        "        self._put(_pack_memo={}, _other={})\n"
        "    def f(self, s):\n"
        "        self._pack_memo[s] = 1\n"
        "        return getattr(self, '_pack_memo')\n"
        "def g(cx):\n"
        "    cx._put(_pack_memo={1: 2})\n"
        "    return cx._pack_memo.get(1), cx._pack_memo_x, '_pack_memo_y'\n")
    assert _owned(tree, _pack_memo_use) == [
        ("C", 2, "name"), ("C.__init__", 4, "create"), ("C.f", 6, "use"), ("C.f", 7, "name"),
        ("g", 9, "use"), ("g", 10, "use")]


def test_one_cochain_type_and_one_differential_call():
    # Every cochain of the package is a jets.Cochain, and only it calls the
    # cochain differential (its memoised property d).
    found = _src_scan(_call_of(("cochain_differential",)))
    classes = [owner for owner, _, _ in _src_scan(
        lambda node: node.name if isinstance(node, ast.ClassDef) and node.name == "Cochain"
        else None)]
    assert found and all(owner.startswith("jets.Cochain.") for owner, _, _ in found), found
    assert classes == ["jets.Cochain"], classes


# What a chart defines.  Chart holds the one check_expr and check_direction;
# each chart states check_symbol (the fc chart's, DerivScheme's rules off the
# jets, Extended's own fibers), a scheme with jets its jet check and its
# unchecked rule on jets, and DerivScheme alone derives a symbol: the judge,
# then the rule.
SCHEME_RULES = {
    "check_expr": {"jets.Chart"},
    "check_direction": {"jets.Chart"},
    "check_symbol": {"fce.FcChart", "jets.DerivScheme", "jets.Extended"},
    "_check_jet": {"jets.FreeJet", "jets.Evolution", "sdym.SdymRewriter"},
    "indep": {"jets.DerivScheme", "jets.Extended"},
    "derive_symbol": {"jets.DerivScheme"},
    "_derive_jet": {"jets.FreeJet", "jets.Evolution", "jets.Extended", "sdym.SdymRewriter"},
}


def _definitions(names):
    """A pick for _owned: the name of a function defined with a name in
    ``names``; its owner ends in that name."""
    return lambda node: node.name if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names else None


def _definers(found):
    """{name: the set of what encloses each of its definitions} of the _owned
    hits of :func:`_definitions`, e.g. ``jets.FreeJet`` for a method."""
    out = {}
    for owner, _, name in found:
        out.setdefault(name, set()).add(owner.rpartition(".")[0])
    return out


def test_schemes_state_only_their_rule_on_jets():
    found = _src_scan(_definitions(SCHEME_RULES))
    assert _definers(found) == SCHEME_RULES, found


def test_scheme_rule_scan_sees_every_definition():
    tree = ast.parse(
        "class FreeJet(DerivScheme):\n"
        "    def indep(self, i):\n"
        "        return x(i)\n"
        "    async def derive_symbol(self, s, i):\n"
        "        def _derive_jet(s):\n"
        "            return indep(s)\n"
        "def _derive_jet(s, i):\n"
        "    return derive_symbol(s, i)\n")
    found = _owned(tree, _definitions(SCHEME_RULES))
    assert found == [
        ("FreeJet.derive_symbol", 4, "derive_symbol"),
        ("FreeJet.derive_symbol._derive_jet", 5, "_derive_jet"),
        ("FreeJet.indep", 2, "indep"), ("_derive_jet", 7, "_derive_jet")]
    assert _definers(found) == {
        "indep": {"FreeJet"}, "derive_symbol": {"FreeJet"},
        "_derive_jet": {"FreeJet.derive_symbol", ""}}


def _discarded(callees):
    """A pick for _owned: the name of a call of one of ``callees`` that is a
    statement of its own, so that its value is thrown away."""
    call = _call_of(callees)
    return lambda node: call(node.value) if isinstance(node, ast.Expr) else None


def test_no_derivative_is_computed_only_to_be_discarded():
    # Every chart judges its symbols by check_symbol; a D_i(s) computed and
    # thrown away is that judgement paid for with a derivative.
    found = _src_scan(_discarded(("derive_symbol",)))
    assert found == [], found


def test_discard_scan_sees_only_thrown_away_values():
    tree = ast.parse(
        "def f(scheme, s):\n"
        "    scheme.derive_symbol(s, 1)\n"
        "    out = scheme.derive_symbol(s, 2)\n"
        "    for t in s:\n"
        "        derive_symbol(t, 1)\n"
        "    scheme.check_symbol(s)\n"
        "    print(scheme.derive_symbol(s, 3))\n"
        "    return out + scheme.derive_symbol(s, 3)\n"
        "class C:\n"
        "    def g(self):\n"
        "        self.space.derive_symbol(self.s, 1)\n")
    assert _owned(tree, _discarded(("derive_symbol",))) == [
        ("C.g", 11, "derive_symbol"), ("f", 2, "derive_symbol"), ("f", 5, "derive_symbol")]


# Classes that hold a memo but are immutable by contract only: an Expr is
# built by every ring operation with plain slot stores, which the Frozen
# base would turn into calls.
CONTRACT_IMMUTABLE = {"expr.Expr"}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _private(name):
    return name is not None and name.startswith("_") and not name.startswith("__")


def _empty(node):
    """Whether ``node`` is a value that a memo starts from and is filled or
    set later: {}, None, dict() or a dataclass ``field(...)``."""
    if isinstance(node, ast.Call):
        return _name(node.func) == "field" or (
            _name(node.func) == "dict" and not node.args and not node.keywords)
    return (isinstance(node, ast.Dict) and not node.keys) or (
        isinstance(node, ast.Constant) and node.value is None)


def _record_imports(tree):
    """Sorted (line, name) of every import of ``dataclasses`` and of every
    import or attribute read of ``cached_property``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update((node.lineno, "dataclasses") for a in node.names
                         if a.name.split(".")[0] == "dataclasses")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "dataclasses":
                found.add((node.lineno, "dataclasses"))
            found.update((node.lineno, a.name) for a in node.names
                         if a.name == "cached_property")
        elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
            found.add((node.lineno, node.attr))
    return sorted(found)


def _classes(tree):
    """{class: (names of its bases, whether it holds a memo or a value set
    once)} for the top-level classes of ``tree``.  A class holds one when a
    method of it is a ``cached_property``, or when it gives a private name a
    value from :func:`_empty`: by assignment, in its body or to an attribute,
    or as a keyword, as in ``self._put(_d=None)``."""
    out = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        memo = False
        for node in ast.walk(cls):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                memo |= any(_name(d) == "cached_property" for d in node.decorator_list)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                memo |= (node.value is not None and _empty(node.value)
                         and any(_private(_name(t)) for t in targets))
            elif isinstance(node, ast.keyword):
                memo |= _private(node.arg) and _empty(node.value)
        out[cls.name] = (tuple(_name(b) for b in cls.bases), memo)
    return out


def _derives(classes, name, base):
    """Whether class ``name`` of ``classes`` (as :func:`_classes` gives
    them) derives from ``base``, through classes of ``classes``."""
    bases = classes.get(name, ((), False))[0]
    return base in bases or any(_derives(classes, b, base) for b in bases)


def _setattr_reads(node):
    """A pick for _owned: every read of a ``__setattr__`` attribute, such as
    ``object.__setattr__``, the call that writes past a refusing setter."""
    return node.attr if isinstance(node, ast.Attribute) and node.attr == "__setattr__" else None


def test_one_record_base_for_every_memo_owner():
    # Every owner of a memo or of a value set once is an expr.Frozen record,
    # and only Frozen._put writes past its refusing setter: no dataclass,
    # no cached_property, no object.__setattr__ in a __post_init__.
    imports, classes, memo = [], {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imports += ["%s:%d %s" % (path.name, line, name) for line, name in _record_imports(tree)]
        for name, (bases, held) in _classes(tree).items():
            classes[name] = (bases, held)
            if held:
                memo.add("%s.%s" % (path.stem, name))
    assert not imports, "record imports: " + ", ".join(imports)
    loose = sorted(c for c in memo - CONTRACT_IMMUTABLE
                   if not _derives(classes, c.rpartition(".")[2], "Frozen"))
    assert {"expr.Symbol", "fce.FcChart", "flatrep.FlatRepSpec", "jets.Cochain"} <= memo
    assert CONTRACT_IMMUTABLE <= memo and not loose, loose
    writes = _src_scan(_setattr_reads)
    assert [owner for owner, _, _ in writes] == ["expr.Frozen._put"], writes


def test_record_scan_sees_every_design():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "import functools, dataclasses.fields as dcf\n"
        "from functools import cached_property as cp\n"
        "class A:\n"
        "    _memo: dict = field(default_factory=dict)\n"
        "class B(Frozen):\n"
        "    def __init__(self):\n"
        "        self._put(x=None, _d=None)\n"
        "class C(B):\n"
        "    @functools.cached_property\n"
        "    def twist(self):\n"
        "        object.__setattr__(self, 'y', super().__setattr__)\n"
        "class D:\n"
        "    def __init__(self):\n"
        "        self._hash = None\n"
        "class E(mod.Other):\n"
        "    def f(self):\n"
        "        return g(_k={})\n"
        "class F:\n"
        "    _interned = dict(a=1)\n"
        "    def __init__(self):\n"
        "        self.items = {}\n"
        "        self._pos = {1: 2}\n")
    assert _record_imports(tree) == [
        (1, "dataclasses"), (2, "dataclasses"), (3, "cached_property"), (10, "cached_property")]
    classes = _classes(tree)
    assert classes == {"A": ((), True), "B": (("Frozen",), True), "C": (("B",), True),
                       "D": ((), True), "E": (("Other",), True), "F": ((), False)}
    assert [c for c in classes if _derives(classes, c, "Frozen")] == ["B", "C"]
    assert _owned(tree, _setattr_reads) == [
        ("C.twist", 12, "__setattr__"), ("C.twist", 12, "__setattr__")]


VERDICTS = ("PASS", "FAIL", "WITNESS", "BOUNDED_NO")


def _verdict_reads(tree):
    """_owned for every read of a verdict constant of ``reports``: by its
    name, by a name it is imported as, or as an attribute (``reports.PASS``)."""
    names = {name: name for name in VERDICTS}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "reports":
            names.update((a.asname, a.name) for a in node.names
                         if a.asname and a.name in VERDICTS)

    def pick(node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            return names.get(node.id)
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr in VERDICTS):
            return node.attr
        return None

    return _owned(tree, pick)


def test_one_verdict_rule():
    # reports.check decides pass or fail from the printed residuals; outside
    # reports only a bounded search, cli._bounded, names its verdict.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "reports.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found += [("%s.%s" % (path.stem, owner), line, name)
                      for owner, line, name in _verdict_reads(tree)]
    assert {(owner, name) for owner, _, name in found} == {
        ("cli._bounded", "WITNESS"), ("cli._bounded", "BOUNDED_NO")}, found


def test_verdict_scan_sees_every_read():
    tree = ast.parse(
        "from .reports import PASS, FAIL as F\n"
        "import flatconn.reports as reports\n"
        "def f(ok):\n"
        "    return Report('t', PASS if ok else F, [])\n"
        "class C:\n"
        "    verdict = reports.WITNESS\n"
        "    def g(self):\n"
        "        BOUNDED_NO = 1\n"
        "        return self.bounded, 'PASS'\n"
        "done = lambda r: r.verdict == BOUNDED_NO\n")
    assert _verdict_reads(tree) == [
        ("<module>", 10, "BOUNDED_NO"), ("C", 6, "WITNESS"), ("f", 4, "FAIL"), ("f", 4, "PASS")]


def _size_test(node):
    """A pick for _owned: the name or attribute compared in ``<name> < 1`` or
    ``1 > <name>``, anywhere in a comparison chain."""
    if isinstance(node, ast.Compare):
        operands = [node.left] + node.comparators
        for a, op, b in zip(operands, node.ops, operands[1:]):
            if isinstance(op, ast.Gt):
                a, b = b, a
            elif not isinstance(op, ast.Lt):
                continue
            if _name(a) is not None and isinstance(b, ast.Constant) and type(b.value) is int \
                    and b.value == 1:
                return _name(a)
    return None


def test_one_rule_for_every_size():
    # Every size (of a chart, a connection, a scheme, the SDYM matrices, a
    # covering) goes through expr.positive; only it and the index check of a
    # symbol compare a value with 1.
    found = _src_scan(_size_test)
    assert {owner for owner, _, _ in found} == {"expr.positive", "expr._check_indices"}, found


def test_size_scan_sees_every_comparison():
    tree = ast.parse(
        "def f(n, m):\n"
        "    if n < 1 or m < 1:\n"
        "        raise ValueError\n"
        "class C:\n"
        "    def g(self, k):\n"
        "        return 1 > self.k, 0 < k < 1, k <= 1, k < 2, len(k) < 1, k < True\n")
    assert _owned(tree, _size_test) == [
        ("C.g", 6, "k"), ("C.g", 6, "k"), ("f", 2, "m"), ("f", 2, "n")]


def test_solver_call_scan_sees_every_caller():
    tree = ast.parse(
        "def f(a):\n"
        "    return solve_by_superposition(a.monomials(), [])\n"
        "class C:\n"
        "    def g(self):\n"
        "        def h():\n"
        "            return linsolve.solve_by_superposition([], [])\n"
        "        return h\n"
        "monos = AnsatzSpec((), 0).monomials()\n"
        "solve = solve_by_superposition\n"
        "other = monomials_of(a)\n")
    assert _calls(tree, SOLVER_CALLEES) == [
        ("<module>", 8, "monomials"), ("C.g.h", 6, "solve_by_superposition"),
        ("f", 2, "monomials"), ("f", 2, "solve_by_superposition")]


# The monomial product is called by the one Leibniz loop and the one product
# loop of the package, both accumulating into a caller's term map.
MONO_MUL_CALLERS = {"expr.derive_into", "expr.mul_into", "expr._mono_mul"}


def test_one_leibniz_loop_and_one_product_loop():
    found = _src_scan(_call_of(("_mono_mul",)))
    owners = {owner for owner, _, _ in found}
    assert {"expr.derive_into", "expr.mul_into"} <= owners <= MONO_MUL_CALLERS, found


def test_product_scan_sees_every_call_form():
    tree = ast.parse(
        "def derive(f):\n"
        "    return [_mono_mul(m, n) for m in f for n in f]\n"
        "class Expr:\n"
        "    def __mul__(self, other):\n"
        "        step = lambda a, b: expr._mono_mul(a, b)\n"
        "        return step, _mono_mul\n"
        "key = _mono_mul((), ())\n"
        "other = _mono_mul_all(a)\n")
    assert _calls(tree, ("_mono_mul",)) == [
        ("<module>", 7, "_mono_mul"), ("Expr.__mul__", 5, "_mono_mul"),
        ("derive", 2, "_mono_mul")]


PUBLIC_DERIVATIONS = ("fc_total", "fc_vertical")
# D_i is FcChart.f_apply (jets.apply_f) over the chart's D_i tables, whose
# rule _Total._rule recurses through Expr.derive; D_{v^b} is _fc_vertical
# over the D_{v^b} tables.  Both rules name the symbols they build by _fc,
# the unchecked constructor.
KERNELS = ("f_apply", "apply_f", "derive", "_fc_vertical", "_fc")
CHECKS = ("check_expr", "check_symbol")
# Recursion inside fce on expressions the chart built itself: the rules of
# the tables, the coefficients of a symmetry and D_i on an Expr.
UNCHECKED = ("_Total._rule", "_Vertical._rule", "Symmetry._coefficient", "FcChart.f_apply")


def test_fce_checks_input_at_its_public_entries_only():
    # fce validates at the public entries; past them it calls the unchecked
    # kernels, and its recursion re-checks nothing the chart built.
    tree = ast.parse((SRC / "fce.py").read_text(encoding="utf-8"), filename="fce.py")
    assert _calls(tree, PUBLIC_DERIVATIONS) == []
    checks = [c for c in _calls(tree, CHECKS) if c[0] in UNCHECKED]
    assert checks == [], checks
    assert set(UNCHECKED) <= {owner for owner, _, _ in _calls(tree, KERNELS)}


def test_check_scan_tells_public_entries_from_kernels():
    tree = ast.parse(
        "def dfc(c):\n"
        "    return Cochain(c.chart, 1, lambda i, f: c.chart.f_apply(i, f))\n"
        "def _prolongation(chart, f):\n"
        "    def base(ii, a):\n"
        "        return fc_total(chart, 1, chart.check_expr(ii))\n"
        "    def coefficient(s):\n"
        "        chart.check_symbol(s)\n"
        "        return fce.fc_vertical(chart, 1, s)\n")
    assert _calls(tree, PUBLIC_DERIVATIONS) == [
        ("_prolongation.base", 5, "fc_total"), ("_prolongation.coefficient", 8, "fc_vertical")]
    assert _calls(tree, CHECKS) == [
        ("_prolongation.base", 5, "check_expr"), ("_prolongation.coefficient", 7, "check_symbol")]
    assert _calls(tree, KERNELS) == [("dfc", 2, "f_apply")]


# The modules whose derivations read symbol tables: the Leibniz kernel gets a
# table's __getitem__ or a bound method there, never a closure made per call.
TABLE_MODULES = ("fce", "jets", "flatrep")
LEIBNIZ = ("derive", "derive_into")


def _closure_image(node):
    """A pick for _owned: "lambda" or "partial" for a call of ``derive`` or
    ``derive_into``, bare or as an attribute, that is handed a lambda or a
    ``partial(...)`` call, positionally or by keyword."""
    if _call_of(LEIBNIZ)(node):
        for arg in node.args + [k.value for k in node.keywords]:
            if isinstance(arg, ast.Lambda):
                return "lambda"
            if isinstance(arg, ast.Call) and _name(arg.func) == "partial":
                return "partial"
    return None


def test_no_closure_is_handed_to_the_leibniz_kernel():
    found = [hit for hit in _src_scan(_closure_image) if hit[0].split(".")[0] in TABLE_MODULES]
    assert found == [], found


def test_symbols_are_built_in_expr_and_one_unchecked_constructor():
    # Outside expr, whose constructors check every index, only fce._fc
    # calls Symbol(), on keys its chart built sorted.
    found = [(owner, name) for owner, _, name in _src_scan(_call_of(("Symbol",)))
             if not owner.startswith("expr.")]
    assert found == [("fce._fc", "Symbol")], found


def test_closure_and_symbol_scans_see_both_call_forms():
    tree = ast.parse(
        "def f(chart, g, i):\n"
        "    a = g.derive(lambda s: chart.image(s, i))\n"
        "    b = derive_into({}, g, partial(chart.f_symbol, i), -1)\n"
        "    c = expr.derive_into({}, g, image=functools.partial(h, i))\n"
        "    d = g.derive(chart.f_tables[i].__getitem__), derive_into({}, g, chart.image)\n"
        "    return sorted(g, key=lambda s: s.key), map(partial(h, i), g), derive(g)\n"
        "class C:\n"
        "    def g(self, f, key):\n"
        "        return f.derive(image=lambda s: ZERO), Symbol(key), expr.Symbol(key)\n"
        "symbol = Symbol\n")
    assert _owned(tree, _closure_image) == [
        ("C.g", 9, "lambda"), ("f", 2, "lambda"), ("f", 3, "partial"), ("f", 4, "partial")]
    assert _calls(tree, ("Symbol",)) == [("C.g", 9, "Symbol"), ("C.g", 9, "Symbol")]


def _imports_of(tree, module):
    """Sorted lines of every import, at any depth, that names the package
    module ``module``: ``from .m import ...``, ``from . import m``,
    ``import flatconn.m``, ``from flatconn import m``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "") + "." + a.name for a in node.names]
        else:
            continue
        if any(module in name.split(".") for name in names):
            found.add(node.lineno)
    return sorted(found)


def test_no_module_imports_vforms():
    # vforms carries the Froelicher-Nijenhuis bracket; the library applies
    # its fields through Expr.derive, so nothing in it leans on vforms.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "vforms.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found += ["%s:%d" % (path.name, line) for line in _imports_of(tree, "vforms")]
    assert not found, "modules importing vforms: " + ", ".join(found)


def test_import_scan_sees_every_form():
    tree = ast.parse(
        "from .vforms import Derivation\n"
        "from . import fce, vforms\n"
        "import flatconn.vforms as vf\n"
        "from flatconn import vforms\n"
        "def f():\n"
        "    from .vforms import VForm\n"
        "from .jets import vforms_like\n"
        "import vformsx\n"
        "name = 'vforms'\n")
    assert _imports_of(tree, "vforms") == [1, 2, 3, 4, 6]


def _private_reads(tree, module):
    """Sorted (line, name) of every underscore name of the package module
    ``module`` that ``tree`` reads: ``module._name`` through any name the
    module is imported as, and ``from .module import _name``.  Dunder names
    are not private."""
    aliases = set()
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            found.update((node.lineno, a.name) for a in node.names
                         if a.name.startswith("_") and not a.name.startswith("__"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            aliases.update(a.asname or a.name for a in node.names
                           if a.name.split(".")[-1] == module)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.add((node.lineno, node.attr))
    return sorted(found)


def test_cli_reads_no_private_name_of_problems():
    # problems owns the file schema; cli goes through its public names only.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"), filename="cli.py")
    assert _private_reads(tree, "problems") == []


def test_private_read_scan_sees_every_form():
    tree = ast.parse(
        "from . import problems, fce as problems2\n"
        "from .problems import ParseError, _Env\n"
        "import flatconn.problems as pr\n"
        "problems._parse_expr(text)\n"
        "pr._check_sections(pf)\n"
        "problems.TASKS, problems.__name__, problems2._on, fce._on\n")
    assert _private_reads(tree, "problems") == [
        (2, "_Env"), (4, "_parse_expr"), (5, "_check_sections")]


def _attribute_binding(node):
    """A pick for _owned: the attribute an assignment binds (``a.b = ...``,
    ``a.b += ...``) or a ``setattr`` call names, ``?`` if not a constant."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        return node.attr
    if _call_of(("setattr",))(node):
        arg = node.args[1] if len(node.args) > 1 else None
        return arg.value if isinstance(arg, ast.Constant) else "?"
    return None


def test_problem_files_are_judged_by_their_chart_alone():
    # The parser spells a symbol and the chart the file declares judges it:
    # check_symbol is called only in _Env.resolve, and _Env keeps nothing
    # but its chart, aliases and parameters, so no size of the file sits
    # beside the chart for a range rule to read.
    tree = ast.parse((SRC / "problems.py").read_text(encoding="utf-8"), filename="problems.py")
    calls = _calls(tree, ("check_symbol",))
    assert {owner for owner, _, _ in calls} == {"_Env.resolve"}, calls
    bound = {name for owner, _, name in _owned(tree, _attribute_binding)
             if owner.split(".")[0] == "_Env"}
    assert bound == {"chart", "aliases", "params"}, bound


def test_judge_scan_sees_every_call_and_binding():
    tree = ast.parse(
        "class _Env:\n"
        "    def __init__(self, chart, n):\n"
        "        self.chart, self.n = chart, n\n"
        "        setattr(self, 'm', 1)\n"
        "    def resolve(self, s):\n"
        "        self.chart.check_symbol(s)\n"
        "        self.fibers += 1\n"
        "def parse(chart, s, name):\n"
        "    setattr(chart, name, 0)\n"
        "    return chart.check_symbol(s), chart.check_symbol, chart.n\n"
        "class Other:\n"
        "    def f(self):\n"
        "        self.kind = 1\n")
    assert _calls(tree, ("check_symbol",)) == [
        ("_Env.resolve", 6, "check_symbol"), ("parse", 10, "check_symbol")]
    assert _owned(tree, _attribute_binding) == [
        ("Other.f", 13, "kind"), ("_Env.__init__", 3, "chart"), ("_Env.__init__", 3, "n"),
        ("_Env.__init__", 4, "m"), ("_Env.resolve", 7, "fibers"), ("parse", 9, "?")]


def test_reimports_leave_one_copy_of_expr_alive():
    # A fresh interpreter, so that this session's interned symbols and typing
    # caches play no part.
    script = (
        "import gc, sys\n"
        "for _ in range(3):\n"
        "    for m in [m for m in sys.modules if m.split('.')[0] == 'flatconn']:\n"
        "        del sys.modules[m]\n"
        "    import flatconn\n"
        "    del flatconn\n"
        "gc.collect()\n"
        "print(sum(1 for o in gc.get_objects() if isinstance(o, type)\n"
        "          and o.__module__ == 'flatconn.expr' and o.__name__ == 'Symbol'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "1"


def test_cli_import_generates_no_record_classes():
    # A CLI process pays for every module its import pulls in.  Records are
    # expr.Frozen or plain __slots__ classes, so the import needs neither
    # dataclasses nor the inspect module that dataclasses imports.  A count
    # of modules, in a fresh interpreter; no timing.
    script = ("import sys, flatconn.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


PROBLEMS = SRC.parents[1] / "perfbench" / "problems"


def test_library_calls_leave_no_cyclic_garbage():
    # Charts, specs, symmetries and their memos are freed by reference
    # counting once the caller drops them: with the collector off, each
    # scenario, run a second time after a warm-up, leaves nothing for
    # gc.collect().
    script = (
        "import contextlib, gc, io, sys\n"
        "from fractions import Fraction\n"
        "from flatconn import cli, fce, flatrep, sdym\n"
        "from flatconn.expr import Expr, fc, v\n"
        "from flatconn.kdv import build_kdv\n"
        "def chart():\n"
        "    ch = fce.FcChart(2, 2)\n"
        "    f = fce.cochain0(ch, [v(1) * fc(1, (2,)), Expr.wrap(v(2))])\n"
        "    phi = fce.symmetry_from_f(ch, f)\n"
        "    assert fce.is_symmetry(ch, phi).ok and fce.recover_f(ch, phi) == f\n"
        "def symmetry():\n"
        "    ch = fce.FcChart(2, 2)\n"
        "    f = fce.cochain0(ch, [v(1) * fc(1, (2,)), Expr.wrap(v(2))])\n"
        "    g = fce.cochain0(ch, [Expr.wrap(fc(2, (1,), (1,))), v(1) * v(2)])\n"
        "    s = fc(1, (1, 2), (2,)) * v(2) + v(1)\n"
        "    fg = fce.bracket0(ch, f, g)\n"
        "    assert fce.symmetry_action(ch, fg, s) == fce.Symmetry(ch, fg).apply(s)\n"
        "    assert fce.prolong_symmetry(ch, f, [fc(1, (1, 2), (1, 2))])\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.run(['bracket', sys.argv[2], '--json']) == 0\n"
        "def kdv():\n"
        "    k = build_kdv()\n"
        "    ans = flatrep.default_ansatz(k.miura, degree=4)\n"
        "    lift = flatrep.lift_symmetry(k.miura, [k.symmetries['x-translation']], ans)\n"
        "    assert lift is not None\n"
        "    c = flatrep.infinitesimal_deformation(k.miura, k.lam, Fraction(1))\n"
        "    ans = flatrep.default_ansatz(c.complex)\n"
        "    assert flatrep.exactness_test(c.complex, c, ans) is None\n"
        "    assert not flatrep.pullback(k.miura, Expr.wrap(fc(1, (1, 1), (1,)))).is_zero()\n"
        "def sdym_():\n"
        "    assert sdym.verify_ugh(1).ok\n"
        "    assert flatrep.check_flat_rep(sdym.build_flatrep(1)).ok\n"
        "def cli_():\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.run(['pullback', sys.argv[1], '--json']) == 0\n"
        "        assert cli.run(['kdv-lift', 'x-translation', '--json']) == 0\n"
        "gc.disable()\n"
        "for fn in (chart, symmetry, kdv, sdym_, cli_):\n"
        "    fn()\n"
        "    gc.collect()\n"
        "    fn()\n"
        "    print(fn.__name__, gc.collect())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probs = [str(PROBLEMS / name) for name in ("miura_pullback.prob", "fc_pair.prob")]
    out = subprocess.run([sys.executable, "-c", script, *probs], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["chart", "0", "symmetry", "0", "kdv", "0", "sdym_", "0",
                           "cli_", "0"], out
