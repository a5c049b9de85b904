"""The library is what the CLI runs.

A module-level function or class of src/blaschke_lab stays only if
something else in src/ refers to it: a CLI command reaches it, or a kept
function uses it.  The package's __init__ re-exports names and an import
alone is no use either, so a private helper that its last caller dropped
shows up too.  A name that a module-level assignment binds (a constant, a
namedtuple) stays only if src/ reads it: its own binding is no read.  The
demos build what they show from the kept public names.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "blaschke_lab"
# the scalar metric, the inverse of the report schema, the CLI entry point,
# and the sup-norm bound that the benchmark's clustered workload times
ALLOWED = {"psh_distance", "parse_report", "main", "hinf_bound_estimate"}


def definitions_and_uses():
    """{name: module} of the module-level functions and classes of src/,
    {name: module} of the names its module-level assignments bind, and
    every name that src/ reads (an import or an assignment binds, it does
    not read)."""
    defined, assigned, used = {}, {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            assigned[name.id] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return defined, assigned, used


def test_every_public_name_has_a_user_in_src():
    defined, _, used = definitions_and_uses()
    public = {name: module for name, module in defined.items() if not name.startswith("_")}
    assert len(public) > 30
    unused = sorted(f"{module}: {name}" for name, module in public.items()
                    if name not in used and name not in ALLOWED)
    assert not unused, "public names no other part of src/ uses: " + ", ".join(unused)


def test_every_private_name_has_a_user_in_src():
    defined, _, used = definitions_and_uses()
    private = {name: module for name, module in defined.items() if name.startswith("_")}
    assert len(private) > 40
    unused = sorted(f"{module}: {name}" for name, module in private.items() if name not in used)
    assert not unused, "private names no part of src/ uses: " + ", ".join(unused)


def test_every_assigned_name_is_read_in_src():
    _, assigned, used = definitions_and_uses()
    assert len(assigned) > 30
    unread = sorted(f"{module}: {name}" for name, module in assigned.items() if name not in used)
    assert not unread, "module-level names no part of src/ reads: " + ", ".join(unread)
