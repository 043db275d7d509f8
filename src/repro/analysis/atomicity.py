"""Durable-write rule: files are written only through ``repro.durable``.

Benchmark history is only comparable, and crash recovery only provable,
when every durable file goes through one writer.
:mod:`repro.durable` is that writer: ``replace`` (temp, fsync, swap)
and ``append`` (one ``O_APPEND`` write), both through the
:func:`repro.chaos.fileops` seam the chaos harness injects faults into.
Result records go one level higher, through
:class:`repro.observe.store.HistoryStore`, which the regression gate,
trend queries and compaction read.  A plain ``open(path, "w")`` in the
benchmark or durable-state packages is both a side channel those readers
never see and a torn write waiting for a crash.

HDVB190 flags, inside ``bench/``, ``robustness/bench.py``,
``transport/bench.py``, ``observe/`` and ``orchestrate/``:

* builtin ``open(...)`` with a creating or truncating mode (``w``/``a``/
  ``x``, text or binary);
* ``Path.write_text(...)`` / ``Path.write_bytes(...)``;
* ``json.dump(...)`` (``json.dumps`` is rendering, not persistence).

``repro/durable.py`` sits outside every scoped package.  Intentional
non-durable writes (a ``--trace`` export, an ``--output`` report) carry
an inline ``# hdvb: disable=HDVB190`` with a comment saying why a torn
write is harmless.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleUnit, Rule, dotted_name, in_scope, register

#: Packages whose files must be written through repro.durable.
DURABLE_SCOPE_PREFIXES: Tuple[str, ...] = ("bench/", "observe/",
                                           "orchestrate/")
DURABLE_SCOPE_FILES: Tuple[str, ...] = (
    "robustness/bench.py",
    "transport/bench.py",
)

#: ``open`` modes that create or truncate — text or binary alike.
_WRITE_MODE_CHARS = frozenset({"w", "a", "x"})

#: Method names that write a whole file in place.
_WRITE_METHODS = frozenset({"write_text", "write_bytes"})


def _open_write_mode(call: ast.Call) -> bool:
    """True when an ``open`` call's mode creates or truncates a file."""
    mode_node: ast.AST = ast.Constant(value="r")
    if len(call.args) >= 2:
        mode_node = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if not isinstance(mode_node, ast.Constant) or not isinstance(
        mode_node.value, str
    ):
        return False    # a computed mode cannot be proven either way
    return bool(_WRITE_MODE_CHARS & set(mode_node.value))


@register
class DurableWriteRule(Rule):
    """HDVB190: scoped packages write files only via repro.durable."""

    rule_id = "HDVB190"
    name = "durable-write"
    rationale = (
        "the observe store, the artifact cache and the scheduler are "
        "crash-safe only along repro.durable's write path, and the "
        "regression gate sees only the store; an ad-hoc open-for-write, "
        "write_text/write_bytes or json.dump is a torn write under crash "
        "and a result sink no reader sees"
    )
    hint = (
        "append BenchRecords with repro.observe.store.HistoryStore, or "
        "write the file with repro.durable.replace / repro.durable.append; "
        "or add '# hdvb: disable=HDVB190' with a comment saying why a "
        "torn write is harmless here"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        if unit.tree is None or not in_scope(
                unit.module, DURABLE_SCOPE_PREFIXES, DURABLE_SCOPE_FILES):
            return
        aliases = unit.module_aliases()
        imported = unit.imported_names()
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            base = dotted.split(".", 1)[0]
            method = dotted.rsplit(".", 1)[-1]
            if ((aliases.get(base) == "json" and dotted.endswith(".dump"))
                    or imported.get(dotted, "") == "json.dump"):
                yield self.finding(
                    unit, node,
                    "json.dump writes a file outside repro.durable and "
                    "the observe store")
            elif dotted == "open" and "open" not in imported:
                if _open_write_mode(node):
                    yield self.finding(
                        unit, node,
                        "open() for writing outside repro.durable is a "
                        "torn write under crash")
            elif method in _WRITE_METHODS and "." in dotted:
                yield self.finding(
                    unit, node,
                    f"{method}() rewrites the file in place outside "
                    f"repro.durable -- a crash mid-write leaves it "
                    f"half-written")
