"""Every public top-level function and class in ``src/`` has a consumer.

A definition counts as consumed when its name is referenced somewhere in
``src/``, ``benchmarks/``, ``examples/`` or ``e2ebench/`` other than in its
own definition and in the import lines of an ``__init__`` module (a
re-export is not a use).  Tests do not count: code that only tests exercise
is surface nobody runs.  The few definitions kept without a consumer are
listed in ``ALLOWLIST``, each with its reason; an entry that gains a consumer
or disappears must leave the list.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONSUMER_DIRS = ("src", "benchmarks", "examples", "e2ebench")

#: ``module.name`` -> why it stays without a consumer in the repository.
ALLOWLIST = {
    "repro.models.textcnn.TextCNNWithEmbedding":
        "the only subject of the fused TextCNN input-gradient parity test "
        "(tests/tensor/test_fused.py)",
    "repro.nn.serialization.save_checkpoint":
        "public API: write a module's weights to the flat weights container",
    "repro.nn.serialization.load_checkpoint":
        "public API: restore weights written by save_checkpoint",
    "repro.reliability.faults.active_plan":
        "public API: fixtures assert that no FaultPlan leaked out of inject()",
    "repro.experiments.orchestrator.baseline_cell":
        "registered through @register_cell_kind; sweeps reach it by kind name",
    "repro.experiments.orchestrator.table_cell":
        "registered through @register_cell_kind; sweeps reach it by kind name",
    "repro.models.registry.register_model":
        "extension point: a custom detector must be registered to export and reload",
    "repro.data.tokenizer.register_tokenizer":
        "extension point: a custom tokenizer must be registered to round-trip "
        "through a pipeline artifact",
    "repro.utils.batched_indices":
        "the reference batching that DataLoader.epoch_order/iter_from reproduce "
        "bit for bit (tests/data)",
    "repro.data.synthetic.make_case_study_probes":
        "public constructor of the Figure 3 case-study probes outside a sweep",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _public_definitions() -> dict[str, tuple[Path, ast.AST]]:
    definitions = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                definitions[f"{_module_name(path)}.{node.name}"] = (path, node)
    return definitions


def _referenced_names(tree: ast.AST, skip: ast.AST | None = None,
                      skip_imports: bool = False) -> set[str]:
    names: set[str] = set()
    pending = [tree]
    while pending:
        node = pending.pop()
        if node is skip or (skip_imports and isinstance(node, (ast.Import, ast.ImportFrom))):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).rsplit(".", 1)[-1])
        pending.extend(ast.iter_child_nodes(node))
    return names


def _unconsumed() -> set[str]:
    trees = {path: ast.parse(path.read_text())
             for directory in CONSUMER_DIRS for path in (ROOT / directory).rglob("*.py")}
    names = {path: _referenced_names(tree, skip_imports=path.name == "__init__.py")
             for path, tree in trees.items()}
    unconsumed = set()
    for qualified, (home, node) in _public_definitions().items():
        elsewhere = any(node.name in found for path, found in names.items() if path != home)
        at_home = node.name in _referenced_names(
            trees[home], skip=node, skip_imports=home.name == "__init__.py")
        if not (elsewhere or at_home):
            unconsumed.add(qualified)
    return unconsumed


def test_every_public_definition_has_a_consumer():
    unexplained = sorted(_unconsumed() - set(ALLOWLIST))
    assert not unexplained, (
        "public definitions with no consumer in src/, benchmarks/, examples/ "
        f"or e2ebench/: {unexplained}; delete them, or add them to ALLOWLIST "
        "with the reason they stay")


def test_allowlist_is_current():
    definitions = _public_definitions()
    missing = sorted(set(ALLOWLIST) - set(definitions))
    assert not missing, f"ALLOWLIST names definitions that no longer exist: {missing}"
    consumed = sorted(set(ALLOWLIST) - _unconsumed())
    assert not consumed, f"ALLOWLIST entries now have a consumer; remove them: {consumed}"
