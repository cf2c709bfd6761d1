"""Every src function and method has a reader in src.

Code that only tests call belongs beside the tests (`tests/radio_reference.py`,
`tests/exact_reference.py`), not in the package. The scan matches by name: a
function or method counts as read when any src module loads a name or an
attribute of that name outside the function's own body. Dunder methods are
called by Python itself, and names in a package `__all__` are the public
API, so both pass. A name shared with something else that src reads (numpy's
`Generator.normal`, say) also passes, which is why the allow-list may name
a function that the scan alone would not flag.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "antwsn"

# Kept without a src reader, each for the reason given.
ALLOWED = {
    # A formula the protocol-math and acceptance tests pin as the paper's
    # spec; EEABR inlines the same arithmetic on its hot path.
    "protocols/eeabr.py:selection_weights",
    # bench/layers.py counts every RandomStream draw method through its
    # RNG_DRAWS patches, so the name must exist.
    "kernel.py:RandomStream.normal",
    # The invariant tests compare the live-ant count to the queued frames.
    "protocols/ieeabr.py:AntQuota.live",
}


def _defs(tree):
    """(qualified name, def node) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _reads(tree, skip=None) -> set:
    """Names loaded as names or attributes in `tree`, outside `skip`'s body."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unread_functions(modules: dict) -> list:
    """`module:qualname` of each function or method in `modules` (path ->
    source) that no module reads outside its own body."""
    trees = {path: ast.parse(source) for path, source in modules.items()}
    exported = set()
    for tree in trees.values():
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                exported |= {ast.literal_eval(e) for e in node.value.elts}
    unread = []
    for path, tree in trees.items():
        for qualname, node in _defs(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in exported:
                continue
            if not any(name in _reads(other, skip=node if other is tree else None)
                       for other in trees.values()):
                unread.append(f"{path}:{qualname}")
    return sorted(unread)


def _src_modules() -> dict:
    return {str(path.relative_to(SRC)): path.read_text()
            for path in sorted(SRC.rglob("*.py"))}


def test_the_check_finds_a_function_nothing_reads():
    modules = {
        "a.py": ("__all__ = ['api']\n"
                 "def api(): pass\n"
                 "def helper(): return helper()\n"
                 "def used(): pass\n"
                 "class C:\n"
                 "    def __init__(self): self.m()\n"
                 "    def m(self): pass\n"
                 "    def orphan(self): pass\n"),
        "b.py": "from a import used\nused()\n",
    }
    assert unread_functions(modules) == ["a.py:C.orphan", "a.py:helper"]


def test_every_src_function_has_a_src_reader():
    assert [name for name in unread_functions(_src_modules())
            if name not in ALLOWED] == []


def test_the_allow_list_names_src_functions():
    defined = {f"{path}:{qualname}"
               for path, source in _src_modules().items()
               for qualname, _ in _defs(ast.parse(source))}
    assert ALLOWED <= defined
