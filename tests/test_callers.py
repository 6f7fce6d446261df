"""Every public name in src/ has a caller in the program.

The test walks the package with ``ast`` and collects each public
module-level function, class and UPPERCASE constant, and each public
method and annotated field of a public class.  A name passes when it is
read somewhere in src/ outside its own definition (the package
``__init__`` re-exports do not count) or in demos/; the CLI lives in
src/.  Code that only tests call fails here: move it into the test that
uses it, or delete it.
The allowlist holds independent oracles and documented builders that
stay part of the API with no program caller.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "interlacepoly"

ALLOWED = {
    # oracles: independent brute-force routes that the tests compare with
    "pivot_brute": "the pivot by its definition, the oracle for pivot",
    # documented builders and closed forms of the paper's graph families
    "disjoint_union": "builder; q is multiplicative over disjoint unions",
    "induced_subgraph": "builder; the pivot recursion's subgraphs",
    "format_edge_list": "writer matching the CLI's edge-list reader",
    "edgeless_polynomial": "closed form q(E_n) = x^n",
    "complete_polynomial": "closed form for K_n",
    "all_graphs": "documented enumeration of every labeled graph of order n",
    "mask_of_graph": "inverse of graph_of_mask, the mask encoding",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module):
    """Public module-level functions, classes and UPPERCASE constants,
    and the public methods and annotated fields of public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        yield item.name
                    elif isinstance(item, ast.AnnAssign) and _public(
                        getattr(item.target, "id", "_")
                    ):
                        yield item.target.id
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and _public(t.id) and t.id.isupper():
                    yield t.id


def _references(tree: ast.AST, out: set, enclosing: tuple = ()) -> None:
    """Add every name read in the tree, except the reads of a name inside
    the definition of that same name."""
    for node in ast.iter_child_nodes(tree):
        inner = enclosing
        read = isinstance(getattr(node, "ctx", None), ast.Load)  # not a binding
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = enclosing + (node.name,)
        elif read and isinstance(node, ast.Name) and node.id not in enclosing:
            out.add(node.id)
        elif read and isinstance(node, ast.Attribute) and node.attr not in enclosing:
            out.add(node.attr)
        _references(node, out, inner)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_name_has_a_program_caller():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    defined = {(p.stem, name) for p in modules for name in _definitions(_parse(p))}
    read: set = set()
    for path in modules + sorted((ROOT / "demos").glob("*.py")):
        _references(_parse(path), read)
    uncalled = sorted(
        f"{module}.{name}"
        for module, name in defined
        if name not in read and name not in ALLOWED
    )
    assert uncalled == []
    # an allowlisted name that is gone or has gained a caller is stale
    assert set(ALLOWED) <= {name for _, name in defined}
    assert set(ALLOWED).isdisjoint(read)
