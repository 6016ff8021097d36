"""Every module-level UPPER_CASE name of qcreparam is read by some module of
the package: a tolerance or a size that nothing reads names a check or a
setting that does not exist."""

import ast
import os
import re

import qcreparam as qc

PKG = os.path.dirname(os.path.abspath(qc.__file__))
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")


def module_trees():
    trees = {}
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read())
    return trees


def assigned_names(tree):
    """Names bound by the module-level assignments of tree."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            yield from (t.id for t in ast.walk(target) if isinstance(t, ast.Name))


def test_no_unread_module_constants():
    trees = module_trees()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = sorted(f"{module}.{name}" for module, tree in trees.items()
                    for name in assigned_names(tree) if CONSTANT.match(name) and name not in read)
    assert unread == []
