"""``repro.checks`` — the repo-native static analyzer.

Stdlib-only (``ast`` + ``tokenize``) enforcement of the conventions this
codebase's correctness arguments lean on but Python cannot express:
deterministic seeding (REP001), the kernel bit-identity boundary
(REP002), ``# guarded-by:`` lock discipline (REP003) and ``obs`` metric
naming (REP005) — plus a hidden advisory dead-symbol sweep (REP000,
``--rule REP000``).  The wire protocols are checked at runtime instead,
where each message is built or read (``protocol.MESSAGES`` in
``repro.cluster`` and ``repro.exec``).

Run it as ``python -m repro check [paths]``; suppress one line with
``# repro: ignore[REP001]`` (bare ``# repro: ignore`` silences every
rule on that line); grandfather existing debt into
``.repro-checks-baseline.json`` with ``--write-baseline``.  The engine
is importable too — ``check_source(source, path_hint)`` runs the rules
over an in-memory snippet, which is how the fixture tests probe each
rule without touching the real tree.
"""

from __future__ import annotations

from .engine import (  # noqa: F401
    BASELINE_NAME,
    CheckResult,
    FileContext,
    Finding,
    Rule,
    all_rules,
    check_source,
    default_rules,
    find_repo_root,
    get_rules,
    load_baseline,
    register,
    run_checks,
    save_baseline,
)
from .report import render_json, render_text  # noqa: F401

__all__ = [
    "BASELINE_NAME", "CheckResult", "FileContext", "Finding", "Rule",
    "all_rules", "check_source", "default_rules", "find_repo_root",
    "get_rules", "load_baseline", "register", "render_json",
    "render_text", "run_checks", "save_baseline",
]
