"""The library is what the CLI runs.

A module-level function or class of src/blaschke_lab stays only if
something else in src/ refers to it: a CLI command reaches it, or a kept
function uses it.  The package's __init__ re-exports names and an import
alone is no use either, so a private helper that its last caller dropped
shows up too.  The demos build what they show from the kept public names.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "blaschke_lab"
# the scalar metric, the inverse of the report schema, the CLI entry point,
# and the sup-norm bound that the benchmark's clustered workload times
ALLOWED = {"psh_distance", "parse_report", "main", "hinf_bound_estimate"}


def definitions_and_uses():
    """{name: module} of the module-level functions and classes of src/,
    and every name that src/ reads (an import binds, it does not read)."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_public_name_has_a_user_in_src():
    defined, used = definitions_and_uses()
    public = {name: module for name, module in defined.items() if not name.startswith("_")}
    assert len(public) > 30
    unused = sorted(f"{module}: {name}" for name, module in public.items()
                    if name not in used and name not in ALLOWED)
    assert not unused, "public names no other part of src/ uses: " + ", ".join(unused)


def test_every_private_name_has_a_user_in_src():
    defined, used = definitions_and_uses()
    private = {name: module for name, module in defined.items() if name.startswith("_")}
    assert len(private) > 40
    unused = sorted(f"{module}: {name}" for name, module in private.items() if name not in used)
    assert not unused, "private names no part of src/ uses: " + ", ".join(unused)
