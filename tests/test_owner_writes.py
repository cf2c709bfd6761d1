"""Each piece of shared state has one owner, and only its owner writes it.

The energy books (`residual`, `spent`, `alive_bits` and the idle
settlement times `_last_idle`) belong to `EnergyLedger`; a routing table's
`column` belongs to routing.py. Any other src code reads them and asks the
owner to change them. The scan looks at every assignment and augmented
assignment in src/antwsn. A target is a write to a guarded name when its
chain of attributes and subscripts passes through that name
(`ledger.residual[node] = x`, `self.spent[kind][node] += d`), or when it
subscripts a local bound, in the same function, to an expression that
does (`residual = ledger.residual` then `residual[node] = x`).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "antwsn"

# guarded name -> (module, class) allowed to write it; a class of None
# allows the whole module
OWNERS = {
    "residual": ("radio.py", "EnergyLedger"),
    "spent": ("radio.py", "EnergyLedger"),
    "alive_bits": ("radio.py", "EnergyLedger"),
    "_last_idle": ("radio.py", "EnergyLedger"),
    "column": ("routing.py", None),
}


def _guarded_in(expr) -> set:
    """The guarded attribute names on `expr`'s attribute/subscript chain."""
    found = set()
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        if isinstance(expr, ast.Attribute) and expr.attr in OWNERS:
            found.add(expr.attr)
        expr = expr.value
    return found


def _root_name(expr):
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _targets(targets):
    stack = list(targets)
    while stack:
        t = stack.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            stack.extend(t.elts)
        elif isinstance(t, ast.Starred):
            stack.append(t.value)
        else:
            yield t


class _Writes(ast.NodeVisitor):
    """Walks a module in source order, tracking the enclosing class and the
    current function's aliases (local name -> guarded names it holds)."""

    def __init__(self, module):
        self.module = module
        self.cls = None
        self.aliases = {}
        self.bad = []

    def visit_ClassDef(self, node):
        outer, self.cls = self.cls, node.name
        self.generic_visit(node)
        self.cls = outer

    def visit_FunctionDef(self, node):
        outer, self.aliases = self.aliases, {}
        self.generic_visit(node)
        self.aliases = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node):
        self._write(node, node.targets)
        held = _guarded_in(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if held:
                    self.aliases[target.id] = held
                else:
                    self.aliases.pop(target.id, None)

    def visit_AugAssign(self, node):
        self._write(node, [node.target])

    visit_AnnAssign = visit_AugAssign

    def _write(self, node, targets):
        for target in _targets(targets):
            names = _guarded_in(target)
            if isinstance(target, ast.Subscript):
                names |= self.aliases.get(_root_name(target), set())
            for name in names:
                if OWNERS[name] not in ((self.module, self.cls), (self.module, None)):
                    self.bad.append((node.lineno, name))


def owner_writes(source: str, module: str) -> list:
    """(line, name) of each write to a guarded name outside its owner, for
    the source of `module`, a path relative to src/antwsn."""
    walker = _Writes(module)
    walker.visit(ast.parse(source))
    return sorted(walker.bad)


def test_the_check_finds_writes_past_an_owner():
    source = ("class Medium:\n"
              "    def f(self, ledger, table):\n"
              "        ledger.residual[0] = 1.0\n"
              "        residual = ledger.residual\n"
              "        if table:\n"
              "            residual[1] -= 2.0\n"
              "        spent_rx = ledger.spent['rx']\n"
              "        spent_rx[0] += 1.0\n"
              "        x, table.column = 1, []\n"
              "        self.alive_bits = 0\n"
              "        left = residual[0]\n"
              "class EnergyLedger:\n"
              "    def g(self):\n"
              "        self.residual[0] = 0.0\n"
              "        self._last_idle = []\n")
    assert owner_writes(source, "radio.py") == [
        (3, "residual"), (6, "residual"), (8, "spent"), (9, "column"),
        (10, "alive_bits")]
    assert owner_writes("def f(t):\n    t.column[0] = 1.0\n", "routing.py") == []


def test_only_owners_write_their_state():
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in sorted(SRC.rglob("*.py"))
             for line, name in owner_writes(path.read_text(),
                                            str(path.relative_to(SRC)))]
    assert found == []
