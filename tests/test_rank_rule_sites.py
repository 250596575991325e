"""The rank cutoff is applied in one place: hom's rule, so the policy lives in one module."""

import ast
import pathlib

import cstarhodge

SRC = pathlib.Path(cstarhodge.__file__).parent

# hom.rank_rule and its plain-Python loop make the cut; elliptic_scan's
# relative spectral margin measures how far a Laplacian sits from that cut
ALLOWED = {
    ("hom", "rank_rule"),
    ("hom", "_spectra_rank"),
    ("symbol", "elliptic_scan"),
}


def _cutoff_products(tree: ast.AST) -> list:
    """(enclosing function, line) of every product with the name cutoff as a factor."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mult):
            factors = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
            if any(isinstance(f, ast.Name) and f.id == "cutoff" for f in factors):
                found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_only_the_rank_rule_multiplies_the_cutoff():
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        for where, line in _cutoff_products(ast.parse(path.read_text(), filename=str(path))):
            sites.setdefault((path.stem, where), []).append(line)
    assert set(sites) == ALLOWED, {k: v for k, v in sites.items() if k not in ALLOWED}


def test_the_check_sees_a_product_with_the_cutoff():
    tree = ast.parse("def f(s, cutoff):\n    t = s\n    t *= cutoff\n    return cutoff * s[0] + t\n")
    assert _cutoff_products(tree) == [("f", 3), ("f", 4)]
