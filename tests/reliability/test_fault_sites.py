"""Fault-site inventory: every ``fault_point`` site has a named cause and a test.

The ``repro.reliability.faults`` module docstring maps each site to the real
failure it stands for.  This test pins that table to the ``fault_point``
calls under ``src/`` and requires at least one ``FaultPlan`` rule naming each
site in ``tests/`` or ``benchmarks/``.  A new site with no named failure
source, or one no chaos test arms, fails here.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.reliability import faults

ROOT = Path(__file__).resolve().parents[2]
#: defines ``fault_point`` and shows it in examples; it calls no site itself
DEFINITION = Path(faults.__file__).resolve()

#: a call site; the name must be a string literal so it can be inventoried
CALL = re.compile(r"(?<!def )\bfault_point\(\s*(\"([^\"]+)\")?")
#: a rule authored through ``FaultPlan.fail``/``.stall`` or ``FaultRule``
RULE = re.compile(r"(?:\.fail|\.stall|FaultRule)\(\s*(?:site=)?\"([^\"]+)\"")
#: one row of the docstring table: a literal site name, then its cause
TABLE_ROW = re.compile(r"^``([\w.]+)``\s+(\S.*)$")


def _python_files(*dirs: str):
    for name in dirs:
        yield from sorted((ROOT / name).rglob("*.py"))


def _site_files():
    return (path for path in _python_files("src") if path.resolve() != DEFINITION)


def source_sites() -> dict[str, list[str]]:
    """Site name -> the ``src/`` files that call ``fault_point`` with it."""
    sites: dict[str, list[str]] = {}
    for path in _site_files():
        for match in CALL.finditer(path.read_text()):
            where = str(path.relative_to(ROOT))
            assert match.group(2), f"{where}: fault_point needs a literal site name"
            sites.setdefault(match.group(2), []).append(where)
    return sites


def documented_sites() -> dict[str, str]:
    """Site name -> first line of its failure source in the faults docstring."""
    lines = faults.__doc__.splitlines()
    rules = [index for index, line in enumerate(lines) if line.startswith("===")]
    assert len(rules) == 3, "the faults docstring must hold one site table"
    rows = (TABLE_ROW.match(line) for line in lines[rules[1] + 1:rules[2]])
    return {row.group(1): row.group(2) for row in rows if row}


def targeted_sites() -> set[str]:
    """Site names some ``FaultPlan`` rule in the tests or benchmarks names."""
    return {match.group(1)
            for path in _python_files("tests", "benchmarks")
            for match in RULE.finditer(path.read_text())}


def test_every_site_names_a_real_failure_source():
    assert set(source_sites()) == set(documented_sites())


def test_every_site_is_armed_by_a_test():
    untested = set(source_sites()) - targeted_sites()
    assert not untested, f"no FaultPlan rule names these sites: {sorted(untested)}"


def test_the_kept_sites():
    assert set(source_sites()) == {
        "io.read", "io.write", "orchestrate.journal", "orchestrate.cell",
        "orchestrate.worker", "serve.worker.start", "serve.worker.step",
        "serve.encode", "trainer.step"}


def test_the_scan_sees_every_call():
    """The text scan finds as many sites as the parsed source has calls."""
    calls = sum(
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "fault_point"
        for path in _site_files()
        for node in ast.walk(ast.parse(path.read_text())))
    assert calls == sum(len(files) for files in source_sites().values())
