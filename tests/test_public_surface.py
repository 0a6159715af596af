"""Every public function and method of lcsim has a caller outside the tests,
and every defaulted parameter of one is set by some call.

A public name counts as used when a code identifier refers to it outside its
own body: a Name, an Attribute or an import alias, never a string or a
comment. References count in src/lcsim and the non-test files of perfbench/.
Names are matched by their last component, so a method shares references
with any attribute of the same name.

A defaulted parameter counts as set when a call outside the function's own
body, in src/lcsim or the non-test files of perfbench/, passes it by
position or by keyword; calls are matched by name the same way. One that no
such call sets is a knob that at most the tests turn, and belongs in a
module constant.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lcsim"

#: Public names that only tests call, each kept on purpose.
ALLOWED = {
    "lcmeasure.rescale": "the README documents it: the kernel/source construction of a nontrivial measure",
    "models.save_model": "the README documents it: the model-file writer, the pair of load_model",
}

#: Defaulted parameters that no call outside the tests sets, each kept on
#: purpose, as `qualified name.parameter`.
ALLOWED_KNOBS: dict[str, str] = {}


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


def repo_sources() -> tuple[dict[str, str], list[str]]:
    """The lcsim modules by name, and the non-test perfbench sources."""
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    callers = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    return modules, callers


def repo_unused() -> set[str]:
    return unused(*repo_sources())


def passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether `call` sets the parameter `name` at `position` (None when
    keyword-only). **kwargs sets every parameter; *args counts as one
    positional argument, since its length is unknown."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def unset_knobs(modules: dict[str, str], callers: list[str]) -> set[str]:
    """`qualified name.parameter` of each defaulted parameter of a public
    function or method of `modules` that no call in the modules or in
    `callers` sets outside the function's own body."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    defs = {q: node for name, tree in trees.items() for q, node in public_definitions(tree, name).items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        for node in ast.walk(tree):
            name = referenced_name(node.func) if isinstance(node, ast.Call) else None
            if name is not None:
                calls.setdefault(name, []).append(node)
    flagged = set()
    for qual, node in defs.items():
        own = {id(n) for n in ast.walk(node)}
        outside = [c for c in calls.get(node.name, []) if id(c) not in own]
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        bound = 1 if qual.count(".") == 2 and not static else 0  # self or cls
        first_default = len(positional) - len(args.defaults)
        knobs = [(i - bound, a.arg) for i, a in enumerate(positional) if i >= first_default]
        knobs += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        flagged |= {f"{qual}.{arg}" for pos, arg in knobs if not any(passes(c, pos, arg) for c in outside)}
    return flagged


def repo_unset_knobs() -> set[str]:
    return unset_knobs(*repo_sources())


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


def test_every_default_is_set_by_some_call():
    assert sorted(repo_unset_knobs() - ALLOWED_KNOBS.keys()) == []


def test_knob_allowlist_names_only_unset_knobs():
    assert sorted(ALLOWED_KNOBS.keys() - repo_unset_knobs()) == []


def test_knob_scanner_counts_setting_calls_only():
    lib = '''
def f(x, by_position=1, by_keyword=2, unset=3, *, kw_only=4, kw_unset=5): pass
def spread(x, a=1): pass
def starred(x, a=1): pass
def recursive(n, depth=0): return recursive(n - 1, depth=depth + 1)
class Box:
    def put(self, item, twice=False): pass
    def take(self, count=1): pass
    @staticmethod
    def make(size=1): pass
'''
    caller = '''
f(0, 1, by_keyword=2, kw_only=4)
spread(0, **options)
starred(*args)
Box().put(1, True)
Box.make(3)
"take(count=2)"  # Box().take(2)
'''
    assert unset_knobs({"lib": lib}, [caller]) == {
        "lib.f.unset", "lib.f.kw_unset", "lib.starred.a", "lib.recursive.depth", "lib.Box.take.count",
    }
