"""Every function, class and method in src/ has a reference in src/.

A reference is a name, an attribute or an import alias anywhere in the
package outside __init__.py; a definition does not count, and neither does
a re-export. Matching is by bare name, so a method shadowed by an unrelated
name of the same spelling slips through: the check is a floor, not a proof.
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
