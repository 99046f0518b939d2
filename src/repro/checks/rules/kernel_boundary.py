"""REP002 — kernel boundary: only the public kernel API crosses it.

``repro.core.kernels`` pins two interchangeable backends bit-identical
to each other; that guarantee holds *only* for the eight public entry
points, which normalize dtypes/contiguity before dispatch.  Importing a
backend module (``_numpy`` / ``_cext`` / ``_csrc``)
directly skips the normalization and the selection logic; redefining a
function with a public kernel's name outside the package reintroduces
the exact drift the equivalence suite exists to prevent (a reimplemented
loop is never re-pinned against the golden fixtures).
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..engine import FileContext, Finding, Rule, register
from . import dotted

#: The public kernel signatures (see repro.core.kernels.__all__).
PUBLIC_KERNELS = {
    "if_step", "cuba_step", "trace_update", "delta_w", "delta_w_batch",
    "delta_w_loihi", "sum_of_products", "network_run",
}

#: Private backend modules of the kernels package.
BACKEND_MODULES = {"_numpy", "_cext", "_csrc"}


@register
class KernelBoundaryRule(Rule):
    id = "REP002"
    title = "private kernel backend used outside repro.core.kernels"
    rationale = ("the bit-identity guarantee only covers the public "
                 "kernel API; backends and reimplementations drift")
    severity = "error"

    def applies(self, ctx: FileContext) -> bool:
        if ctx.is_test:  # the equivalence suite imports backends on purpose
            return False
        return not ctx.module.startswith("repro.core.kernels")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                findings.extend(self._check_import_from(ctx, node))
            elif isinstance(node, ast.Import):
                findings.extend(self._check_import(ctx, node))
            elif isinstance(node, ast.Attribute):
                if node.attr in BACKEND_MODULES:
                    base = dotted(node.value)
                    if base is not None and base.split(".")[-1] == "kernels":
                        findings.append(self.finding(
                            ctx, node,
                            f"kernels.{node.attr} is a private backend; "
                            f"call the public kernel API instead"))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in PUBLIC_KERNELS:
                    findings.append(self.finding(
                        ctx, node,
                        f"def {node.name}() shadows a public kernel "
                        f"signature outside repro.core.kernels; import "
                        f"it from repro.core.kernels instead of "
                        f"reimplementing it"))
        return findings

    def _check_import_from(self, ctx: FileContext,
                           node: ast.ImportFrom) -> Iterable[Finding]:
        module = node.module or ""
        tail = module.split(".")[-1]
        # from repro.core.kernels._numpy import ... / from .kernels._cext ...
        if tail in BACKEND_MODULES and "kernels" in module.split("."):
            yield self.finding(
                ctx, node,
                f"import from private kernel backend {module!r}; only "
                f"repro.core.kernels' public API is bit-identity pinned")
            return
        # from repro.core.kernels import _numpy
        if tail == "kernels" or module.endswith("kernels"):
            for alias in node.names:
                if alias.name in BACKEND_MODULES:
                    yield self.finding(
                        ctx, node,
                        f"import of private kernel backend "
                        f"{alias.name!r}; use the public kernel API")

    def _check_import(self, ctx: FileContext,
                      node: ast.Import) -> Iterable[Finding]:
        for alias in node.names:
            parts = alias.name.split(".")
            if len(parts) >= 2 and parts[-1] in BACKEND_MODULES \
                    and parts[-2] == "kernels":
                yield self.finding(
                    ctx, node,
                    f"import of private kernel backend {alias.name!r}; "
                    f"use the public kernel API")
