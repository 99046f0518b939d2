"""The repo-specific rule set.  Importing this package registers every
rule with :mod:`repro.checks.engine`; each module holds one rule plus
its helpers, named after the convention it enforces:

========  ====================================================
REP000    dead symbols (hidden advisory pass)
REP001    determinism: no unseeded randomness / wall-clock
REP002    kernel boundary: only the public kernel API
REP003    lock discipline: ``# guarded-by:`` annotations
REP005    metric naming for the ``obs`` registry
========  ====================================================
"""

from __future__ import annotations

import ast
from typing import Optional


def dotted(node: ast.AST) -> Optional[str]:
    """Render a ``Name``/``Attribute`` chain as ``"a.b.c"`` (else None)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# Imported last, after the helpers above exist: each submodule registers
# its rule with the engine as a side effect of this import.
from . import (dead, determinism, kernel_boundary,  # noqa: E402,F401
               lock_discipline, metric_naming)
