"""Orchestrator-cell rule: every orchestrator failure is an OrchestrateError.

A thousand-cell matrix is only diagnosable through one error shape.
Every failure crossing an orchestrator boundary must be an
:class:`~repro.errors.OrchestrateError` carrying the spec name and cell
identity; a raw ``ValueError`` from spec parsing or cache I/O surfaces
as an anonymous traceback with no way to tell *which cell of which spec*
broke.

HDVB180 enforces this statically over ``orchestrate/``, extending the
HDVB110 (raise-taxonomy) machinery.  The orchestrator's other contract,
results only via the observe store, is HDVB190's
(:mod:`repro.analysis.atomicity`).
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleUnit, Rule, in_scope, register
from repro.analysis.taxonomy import FORBIDDEN_RAISES

#: The orchestrator modules this rule governs.
ORCHESTRATE_SCOPE: Tuple[str, ...] = ("orchestrate/",)


@register
class OrchestratorCellRule(Rule):
    """HDVB180: orchestrator code raises OrchestrateError."""

    rule_id = "HDVB180"
    name = "orchestrator-cell"
    rationale = (
        "a cell failure that is not an OrchestrateError loses the "
        "spec/cell identity that makes a matrix failure attributable"
    )
    hint = (
        "raise repro.errors.OrchestrateError (spec=..., cell=...) instead "
        "of a builtin exception"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        if unit.tree is None or not in_scope(unit.module, ORCHESTRATE_SCOPE,
                                             ()):
            return
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            if isinstance(target, ast.Name) and target.id in FORBIDDEN_RAISES:
                yield self.finding(
                    unit, node,
                    f"orchestrator code raises builtin {target.id} "
                    f"instead of OrchestrateError",
                )
