"""Layering: the substrate and engine packages read no one else's privates.

Each cost policy lives in the module that owns it (the lock_sys scan in
the lock manager, the make-young predicate in the LRU list, the core pick
in the core set, ...), and callers reach it through public steps.  This
AST scan fails on any ``<expr>._name`` access — read or write — where
``<expr>`` is not ``self`` or ``cls``, with two exceptions:

- the documented :class:`~repro.engines.base.Engine` hook protocol
  (``_execute`` and the ``_branch_*`` 2PC participant hooks), which the
  base engine and the cluster coordinator call on engine subclasses;
- a class's own private attributes named through the class itself in the
  module that defines it (``LRUList._fill_image`` inside ``lru.py``).
"""

import ast
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent

PACKAGES = ("engines", "bufferpool", "lockmgr", "storage", "cluster", "replication")


def _hook(attr):
    return attr == "_execute" or attr.startswith("_branch_")


def private_accesses(source, filename="<string>"):
    """``"<file>:<line>: <expr>"`` for every cross-object private access."""
    tree = ast.parse(source, filename)
    own_classes = {
        node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        attr = node.attr
        if not attr.startswith("_") or attr.startswith("__") or _hook(attr):
            continue
        value = node.value
        if isinstance(value, ast.Name) and (
            value.id in ("self", "cls") or value.id in own_classes
        ):
            continue
        found.append("%s:%d: %s" % (filename, node.lineno, ast.unparse(node)))
    return sorted(found)


def test_scanner_flags_only_foreign_privates():
    source = (
        "class Own:\n"
        "    _memo = None\n"
        "    def f(self, other, engine):\n"
        "        self._a = other._b\n"
        "        Own._memo = self.pool._pages\n"
        "        engine._branch_commit(); type(self)._execute\n"
        "        return other.__class__, Foreign._c\n"
    )
    assert private_accesses(source) == [
        "<string>:4: other._b",
        "<string>:5: self.pool._pages",
        "<string>:7: Foreign._c",
    ]


@pytest.mark.parametrize("package", PACKAGES)
def test_no_private_reads_across_modules(package):
    found = []
    for path in sorted((SRC / package).rglob("*.py")):
        name = str(path.relative_to(SRC.parent))
        found.extend(private_accesses(path.read_text(), name))
    assert not found, "private attributes of other objects:\n" + "\n".join(found)
