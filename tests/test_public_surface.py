"""Every public function and method of lcsim has a caller outside the tests.

A public name counts as used when a code identifier refers to it outside its
own body: a Name, an Attribute or an import alias, never a string or a
comment. References count in src/lcsim, scripts/ and the non-test files of
perfbench/. Names are matched by their last component, so a method shares
references with any attribute of the same name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lcsim"

#: Public names that only tests call, each kept on purpose.
ALLOWED = {
    "circle.arc_I": "detection arc of the per-cell quadrature reference in the tests",
    "circle.arc_J": "detection arc of the per-cell quadrature reference in the tests",
    "lcmeasure.rescale": "README's kernel/source construction of a nontrivial measure",
    "lcmeasure.LocalMarkovOperator.is_stochastic": "oracle for the random stochastic operators",
    "lcmeasure.LocalMarkovOperator.is_permutation": "oracle for the random permutation operators",
    "models.CandidateModel.abs_cos": "constructor the acceptance gates call",
    "models.CandidateModel.cos_squared": "constructor the acceptance gates call",
    "models.save_model": "the documented model-file writer",
    "models.correlation": "the only model-level correlation",
}


def public_definitions(tree: ast.Module, module: str) -> dict[str, ast.FunctionDef]:
    """Qualified name -> node of each public top-level function and public method."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out[f"{module}.{node.name}"] = node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out[f"{module}.{node.name}.{item.name}"] = item
    return out


def referenced_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def unused(modules: dict[str, str], callers: list[str]) -> set[str]:
    """Public names of `modules` (module name -> source) that no identifier in
    the modules or in `callers` (more sources) refers to outside its own body."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    defs = {q: node for name, tree in trees.items() for q, node in public_definitions(tree, name).items()}
    references: dict[str, list[ast.AST]] = {}
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        for node in ast.walk(tree):
            name = referenced_name(node)
            if name is not None:
                references.setdefault(name, []).append(node)
    flagged = set()
    for qual, node in defs.items():
        own = {id(n) for n in ast.walk(node)}
        if all(id(ref) in own for ref in references.get(node.name, [])):
            flagged.add(qual)
    return flagged


def repo_unused() -> set[str]:
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    callers = [p.read_text() for p in sorted((ROOT / "scripts").glob("*.py"))]
    callers += [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    return unused(modules, callers)


def test_every_public_name_has_a_caller_or_a_reason():
    assert sorted(repo_unused() - ALLOWED.keys()) == []


def test_allowlist_names_only_unused_names():
    assert sorted(ALLOWED.keys() - repo_unused()) == []


def test_scanner_counts_code_references_only():
    lib = '''
def used(): pass
def recursive(n): return recursive(n - 1)
def mentioned(): pass
class Box:
    def read(self): return self.read
    def write(self): pass
'''
    caller = '''
from lib import used
"mentioned"  # mentioned
Box().write()
'''
    assert unused({"lib": lib}, [caller]) == {"lib.recursive", "lib.mentioned", "lib.Box.read"}
