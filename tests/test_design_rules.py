"""The library's design rules, checked on the syntax tree of each module.

``RULES`` has one row per rule: which nodes breach it, and per file the
top-level functions or classes allowed to contain them.  A node inside a
nested function or a method counts as being in its top-level def or class.
Comments and docstrings are not nodes, and a call counts whether it is
written as a name or as an attribute (``structure.quotient(...)``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import classgraph

MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
           for path in sorted(Path(classgraph.__file__).parent.glob("*.py"))}


class Rule(NamedTuple):
    matches: Callable[[ast.AST], bool]
    allowed: dict[str, set[str]]  # file name -> top-level defs that may hold a match


def _name(node: ast.AST) -> str | None:
    """The name a Name or Attribute node reads; None for any other node."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _calls(*names: str) -> Callable[[ast.AST], bool]:
    return lambda node: isinstance(node, ast.Call) and _name(node.func) in names


def _imports(node: ast.AST) -> set[str]:
    """The top-level packages an absolute import reads; empty for any other node."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and not node.level:
        return {node.module.split(".")[0]}
    return set()


def _string_cache_key(node):
    """``x._cache["key"]`` or ``x._cache.method("key", ...)``, f-strings too."""
    if isinstance(node, ast.Subscript):
        owner, key = node.value, node.slice
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args:
        owner, key = node.func.value, node.args[0]
    else:
        return False
    string = isinstance(key, ast.JoinedStr) or (isinstance(key, ast.Constant)
                                                and isinstance(key.value, str))
    return _name(owner) == "_cache" and string


def _closes_by_point(node):
    """A call of ``_close`` that sets ``point_key``, by name or through ``**``."""
    return _calls("_close")(node) and any(k.arg in ("point_key", None) for k in node.keywords)


def _slot_access(*slots: str) -> Callable[[ast.AST], bool]:
    """An access to ``x.slot``, read or written: as an attribute, or through
    ``getattr``, ``hasattr``, ``setattr`` or ``delattr`` with the slot's name
    as a string constant."""
    by_name = _calls("getattr", "hasattr", "setattr", "delattr")

    def matches(node):
        if isinstance(node, ast.Attribute):
            return node.attr in slots
        return (by_name(node) and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant) and node.args[1].value in slots)
    return matches


def _unused_imports(tree: ast.Module) -> set[ast.stmt]:
    """The top-level imports of ``tree`` that bind a name no node of it reads."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {stmt for stmt in tree.body
            if isinstance(stmt, (ast.Import, ast.ImportFrom))
            and getattr(stmt, "module", None) != "__future__"  # binds no name
            and any((alias.asname or alias.name.split(".")[0]) not in read
                    for alias in stmt.names)}


_UNUSED_IMPORTS = set().union(*map(_unused_imports, MODULES.values()))


RULES = {
    # python -O strips assert statements, so runtime checks must raise instead
    "assert": Rule(lambda node: isinstance(node, ast.Assert), {}),
    # the library is dependency-free at runtime and imports nothing from
    # bench/, whose corpus, run, tracer and worker are not stdlib names
    "stdlib-imports-only": Rule(lambda node: not _imports(node) <= sys.stdlib_module_names, {}),
    # every subgroup search is one deterministic pass, so no report depends on a seed
    "no-random": Rule(lambda node: "random" in _imports(node), {}),
    # mulclose runs only under the greedy pass that finds the generators of every subgroup
    "mulclose": Rule(_calls("mulclose"), {"perm.py": {"generating_set"}}),
    # a closed element set becomes a Group in subgroup_from_elements, a class
    # set in _normal_subgroup and a Hall search's closure in _search_subgroup
    "closed_subgroup": Rule(_calls("closed_subgroup"), {
        "perm.py": {"subgroup_from_elements"},
        "structure.py": {"_normal_subgroup", "_search_subgroup"}}),
    # inside the library normal subgroups are class sets; only the entry points that
    # take N as a Group check it for normality or map it to class positions
    "class-positions": Rule(_calls("_class_positions", "_require_normal"), {
        "structure.py": {"coset_classes", "quotient"}}),
    # class questions about G/N are read off G's class sets; a quotient group
    # is built only for isomorphism tests and a Frobenius search in G/Z(G)
    "quotient": Rule(_calls("quotient"), {
        "classify.py": {"_mod_p_core", "is_quasi_frobenius"}}),
    # an element's class is read off structure._class_data(G).position; the
    # element-to-class map is built only for element orders and the sampled walk
    "class_index": Rule(_calls("class_index"), {
        "perm.py": {"element_order_map"},
        "verify.py": {"_sampled_coprime_commuting"}}),
    # the checks read structure._normal_lattice; normal_subgroups is for callers
    "normal_subgroups": Rule(_calls("normal_subgroups"), {}),
    # the whole lattice is built only by the two checks that visit every member
    # and by normal_subgroups; a Frobenius kernel is found among the pi-cores
    "normal-lattice": Rule(_calls("_normal_lattice"), {
        "verify.py": {"_check_normal_class_divisibility", "_check_quotient_class_divisibility"},
        "structure.py": {"normal_subgroups"}}),
    # the class centralizer table answers |cl_N(x)| for every lattice member;
    # a Frobenius kernel is re-checked on its own elements
    "centralizer-meet": Rule(_calls("_centralizer_meet"), {"verify.py": {"_inner_class_size"}}),
    # derived data is cached only through perm._memoised, keyed by function and arguments;
    # the enumeration hands its right table to _right_table under the one string key
    "memo-call": Rule(_calls("_memo"), {}),
    "string-cache-key": Rule(_string_cache_key, {"perm.py": {"_close", "_right_table"}}),
    # a closure looks elements up by the image of one point only where that
    # image fixes the element: in a right-regular group, which acts semiregularly
    "point-key": Rule(_closes_by_point, {"perm.py": {"_right_regular"}}),
    # a split product is enumerated on first read, so its encoded-image slots
    # are read only through Group's own readers (elements, _at, _keys) and
    # written by the enumeration
    "lazy-slots": Rule(_slot_access("_images", "_made", "_elements"),
                       {"perm.py": {"Group", "_close"}}),
    # a class record of a split product holds its representative packed until
    # first read: the packed form is written by _factor_classes and read only by
    # the record itself, which unpacks it
    "packed-representative": Rule(_slot_access("_packed"),
                                  {"perm.py": {"ConjClass", "_factor_classes"}}),
    # a module imports only what it reads; the package's __init__ imports to re-export
    "unused-import": Rule(lambda node: node in _UNUSED_IMPORTS, {"__init__.py": {"<module>"}}),
}


def _matches(rule: Rule, tree: ast.Module):
    """(enclosing top-level def or class, or "<module>", line) per match."""
    for stmt in tree.body:
        defines = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in ast.walk(stmt):
            if rule.matches(node):
                yield (stmt.name if defines else "<module>"), node.lineno


@pytest.mark.parametrize("rule_id", RULES)
def test_design_rule(rule_id):
    rule = RULES[rule_id]
    breaches = [f"{path}:{line} in {owner}"
                for path, tree in MODULES.items()
                for owner, line in _matches(rule, tree)
                if owner not in rule.allowed.get(path, ())]
    assert not breaches, f"{rule_id} breached at " + ", ".join(breaches)


@pytest.mark.parametrize("source, rule_ids", [
    ('getattr(v, "_packed", None)', {"packed-representative"}),
    ('hasattr(x, "_images")', {"lazy-slots"}),
    ('setattr(G, "_made", made)', {"lazy-slots"}),
    ('delattr(G, "_elements")', {"lazy-slots"}),
    ("v._packed", {"packed-representative"}),
    ('getattr(args, "max_order", None)', set()),
    ("getattr(v, name)", set()),
])
def test_slot_access_matches_attribute_builtins(source, rule_ids):
    nodes = list(ast.walk(ast.parse(source)))
    assert {rule_id for rule_id in ("lazy-slots", "packed-representative")
            if any(map(RULES[rule_id].matches, nodes))} == rule_ids


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import json, os.path\n"
                     "from typing import IO, Callable\n"
                     "from .structure import coset_classes as cc\n"
                     "def f(x: Callable) -> None:\n"
                     "    os.path.join(x)\n")
    assert sorted(stmt.lineno for stmt in _unused_imports(tree)) == [2, 3, 4]
