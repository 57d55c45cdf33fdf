"""Every function, class and method in src/ has a reference in src/.

A reference is a name, an attribute or an import alias anywhere in the
package outside __init__.py; a definition does not count, and neither does
a re-export. Matching is by bare name, so a method shadowed by an unrelated
name of the same spelling slips through: the check is a floor, not a proof.

No module imports or reads another module's underscore names, but for the
few listed with a reason.
"""

import ast
from pathlib import Path

import hybridskin

# Unreferenced in src/ on purpose, each for the reason given.
ALLOWED = {
    "analysis.load_ply": "file-format round trip of save_ply",
    "kinematics.save_chain": "file-format round trip of load_chain",
    "kinematics.save_trajectory": "file-format round trip of load_trajectory",
    "kinematics.Pose.rotate": "called by the benchmark's tests",
    "raycast.Bvh.raycast": "probed by the benchmark's tracer",
    "tof.capture_frame": "probed by the benchmark's tracer",
}


def definitions_and_references(package_dir):
    defined, referenced = {}, set()
    for path in sorted(package_dir.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not (
                            member.name.startswith("__") and member.name.endswith("__")):
                        defined[f"{path.stem}.{node.name}.{member.name}"] = member.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return defined, referenced


def test_every_name_in_src_has_a_caller_in_src():
    defined, referenced = definitions_and_references(Path(hybridskin.__file__).parent)
    unreferenced = {q for q, name in defined.items() if name not in referenced}
    assert unreferenced == set(ALLOWED)


# Underscore names a src/ module reads from another src/ module, each for
# the reason given.
SHARED_PRIVATE = {
    "kinematics: geometry._rowdot": "the row dot product whose bits the quaternion "
                                    "norm and slerp must match",
    "layout: geometry._greedy_place": "the supports' greedy pass, which places the "
                                      "sites too",
}


def private_reads(package_dir):
    """'module: other._name' for every underscore name a module imports from,
    or reads off, another module of the package. The package imports its
    own modules only relatively."""
    private = lambda name: name.startswith("_") and not name.startswith("__")
    reads = set()
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}  # local name -> module, of "from . import module as name"
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            if node.module is None:
                aliases.update((a.asname or a.name, a.name) for a in node.names)
            else:
                reads.update(f"{path.stem}: {node.module}.{a.name}"
                             for a in node.names if private(a.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and private(node.attr)):
                reads.add(f"{path.stem}: {aliases[node.value.id]}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_underscore_names():
    assert private_reads(Path(hybridskin.__file__).parent) == set(SHARED_PRIVATE)
