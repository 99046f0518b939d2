"""The static-analysis engine: file contexts, rule running, baselines.

The analyzer is deliberately stdlib-only (``ast`` + ``tokenize``), the
same discipline as :mod:`repro.obs`: it must be importable and runnable
in every CI job without installing anything.  One :class:`FileContext`
per file carries the parsed tree, the raw source, the per-line comment
map (``# guarded-by:`` markers and ``# repro: ignore[...]``
suppressions live in comments, which ``ast`` drops), and enough path
metadata for rules to scope themselves (module dotted name, "is this a
test file", "is this inside the deterministic core").

Findings are plain frozen dataclasses; identity for baseline matching is
``(rule, path, message)`` — deliberately line-free, so an unrelated edit
shifting a grandfathered finding by a few lines does not resurrect it.
Each baseline entry absolves exactly one finding (multiset semantics):
a *new* duplicate of a grandfathered problem still fails the build.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import json
import re
import time
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Directory names never descended into when expanding path arguments.
SKIP_DIRS = {
    "__pycache__", ".git", ".hypothesis", ".pytest_cache", ".benchmarks",
    "runs", "checks_fixtures", "node_modules", ".claude",
}

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Z0-9,\s]+)\])?")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One problem at one place; ordering groups a report by file."""

    rule: str
    severity: str  # "error" | "warning"
    path: str      # repo-relative posix path
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def baseline_key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.message)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class FileContext:
    """Everything the rules need to know about one source file."""

    def __init__(self, rel: str, source: str):
        self.rel = rel.replace("\\", "/")
        self.source = source
        self.tree = ast.parse(source, filename=self.rel)
        self.lines = source.splitlines()
        #: line number -> full comment text (including the leading ``#``).
        self.comments: Dict[int, str] = {}
        try:
            for tok in tokenize.generate_tokens(
                    io.StringIO(source).readline):
                if tok.type == tokenize.COMMENT:
                    self.comments[tok.start[0]] = tok.string
        except tokenize.TokenError:  # pragma: no cover - parse() caught it
            pass
        self._suppressions = self._scan_suppressions()

    # -- path metadata ---------------------------------------------------

    @property
    def parts(self) -> Tuple[str, ...]:
        return tuple(self.rel.split("/"))

    @property
    def module(self) -> str:
        """Dotted module name, derived from the path string alone.

        ``src/repro/core/learning.py`` -> ``repro.core.learning``; files
        outside the ``repro`` package keep just their stem
        (``benchmarks/bench_kernels.py`` -> ``bench_kernels``).
        """
        parts = list(self.parts)
        parts[-1] = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
        if parts[-1] == "__init__":
            parts.pop()
        if "repro" in parts:
            return ".".join(parts[parts.index("repro"):])
        return parts[-1] if parts else ""

    @property
    def is_test(self) -> bool:
        name = self.parts[-1]
        return ("tests" in self.parts[:-1]
                or name.startswith("test_") or name == "conftest.py")

    @property
    def is_init(self) -> bool:
        return self.parts[-1] == "__init__.py"

    def in_dirs(self, *names: str) -> bool:
        """True when any ancestor directory is one of ``names``."""
        return any(n in self.parts[:-1] for n in names)

    # -- suppressions ----------------------------------------------------

    def _scan_suppressions(self) -> Dict[int, Optional[Set[str]]]:
        """line -> suppressed rule ids (``None`` = every rule)."""
        out: Dict[int, Optional[Set[str]]] = {}
        for line_no, comment in self.comments.items():
            m = _SUPPRESS_RE.search(comment)
            if not m:
                continue
            rules = m.group("rules")
            if rules is None:
                out[line_no] = None
            else:
                out[line_no] = {r.strip() for r in rules.split(",")
                                if r.strip()}
        return out

    def suppressed(self, rule_id: str, line: int) -> bool:
        if line not in self._suppressions:
            return False
        rules = self._suppressions[line]
        return rules is None or rule_id in rules


class Rule:
    """One named check.  Subclasses set the class attributes and
    implement :meth:`check`; :meth:`applies` scopes the rule to the part
    of the tree its convention governs."""

    id: str = "REP000"
    title: str = ""
    rationale: str = ""
    severity: str = "error"
    #: Hidden rules run only when named explicitly with ``--rule``.
    hidden: bool = False

    def applies(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterable[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(self, ctx: FileContext, node, message: str) -> Finding:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=self.id, severity=self.severity, path=ctx.rel,
                       line=line, col=col, message=message)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls) -> type:
    """Class decorator: instantiate and register one rule."""
    rule = rule_cls()
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Every registered rule, hidden ones included, in id order."""
    _load_builtin_rules()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def default_rules() -> List[Rule]:
    return [r for r in all_rules() if not r.hidden]


def get_rules(ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """Resolve ``--rule`` selections; ``None`` = every non-hidden rule."""
    _load_builtin_rules()
    if not ids:
        return default_rules()
    out = []
    for rid in ids:
        key = rid.strip().upper()
        if key not in _REGISTRY:
            raise KeyError(
                f"unknown rule {rid!r}; known rules: "
                f"{', '.join(sorted(_REGISTRY))}")
        out.append(_REGISTRY[key])
    return out


def _load_builtin_rules() -> None:
    from . import rules  # noqa: F401  (registers on import)


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------

def find_repo_root(start: Path) -> Path:
    """Nearest ancestor holding ``pyproject.toml`` or ``.git`` (else cwd)."""
    cur = start if start.is_dir() else start.parent
    cur = cur.resolve()
    for candidate in (cur, *cur.parents):
        if (candidate / "pyproject.toml").exists() \
                or (candidate / ".git").exists():
            return candidate
    return Path.cwd().resolve()


def collect_files(paths: Sequence[str], root: Path) -> List[Path]:
    """Expand path arguments into a sorted list of ``.py`` files."""
    out: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_file():
            if path.suffix == ".py":
                out.add(path.resolve())
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for sub in sorted(path.rglob("*.py")):
            if any(part in SKIP_DIRS for part in sub.parts):
                continue
            out.add(sub.resolve())
    return sorted(out)


def check_source(source: str, path_hint: str,
                 rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Run rules over one in-memory source blob (the test entry point).

    ``path_hint`` is the repo-relative path the snippet pretends to live
    at — rule scoping is driven entirely by it, so a fixture can probe
    "what would REP001 say inside ``src/repro/core``" without touching
    the real tree.
    """
    ctx = FileContext(path_hint, source)
    return _run_rules(ctx, list(rules) if rules is not None
                      else default_rules())


def _run_rules(ctx: FileContext, rules: Sequence[Rule]) -> List[Finding]:
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies(ctx):
            continue
        for finding in rule.check(ctx):
            if not ctx.suppressed(finding.rule, finding.line):
                findings.append(finding)
    return findings


@dataclasses.dataclass
class CheckResult:
    """Everything one analyzer run produced, pre-baseline and post."""

    findings: List[Finding]           # new findings (not baselined)
    baselined: List[Finding]          # grandfathered by the baseline
    stale_baseline: List[dict]        # baseline entries matching nothing
    files_checked: int
    rules_run: List[str]
    elapsed_s: float
    errors: List[str]                 # unreadable/unparsable files

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors


def run_checks(paths: Sequence[str],
               rules: Optional[Sequence[Rule]] = None,
               baseline: Optional[Sequence[dict]] = None,
               root: Optional[Path] = None) -> CheckResult:
    """Analyze ``paths`` (files or directories) with ``rules``.

    Returns a :class:`CheckResult`; ``baseline`` (as loaded by
    :func:`load_baseline`) absolves matching findings one-for-one.
    """
    t0 = time.perf_counter()
    rules = list(rules) if rules is not None else default_rules()
    root = (root or find_repo_root(Path(paths[0]) if paths
                                   else Path.cwd())).resolve()
    findings: List[Finding] = []
    errors: List[str] = []
    files = collect_files(paths, root)
    for path in files:
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            ctx = FileContext(rel, source)
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(f"{rel}: {type(exc).__name__}: {exc}")
            continue
        findings.extend(_run_rules(ctx, rules))
    findings.sort(key=Finding.sort_key)
    fresh, grandfathered, stale = apply_baseline(findings, baseline or [])
    return CheckResult(
        findings=fresh, baselined=grandfathered, stale_baseline=stale,
        files_checked=len(files), rules_run=[r.id for r in rules],
        elapsed_s=time.perf_counter() - t0, errors=errors)


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------

BASELINE_NAME = ".repro-checks-baseline.json"


def load_baseline(path: Path) -> List[dict]:
    """Parse a baseline file into its entry list (missing file = empty)."""
    if not path.exists():
        return []
    data = json.loads(path.read_text(encoding="utf-8"))
    entries = data.get("findings", []) if isinstance(data, dict) else data
    if not isinstance(entries, list):
        raise ValueError(f"{path}: baseline must hold a findings list")
    return entries


def save_baseline(path: Path, findings: Sequence[Finding]) -> None:
    """Write current findings as the new baseline (sorted, stable)."""
    entries = [f.to_dict() for f in sorted(findings, key=Finding.sort_key)]
    payload = {"version": 1, "tool": "repro.checks", "findings": entries}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def apply_baseline(findings: Sequence[Finding], entries: Sequence[dict],
                   ) -> Tuple[List[Finding], List[Finding], List[dict]]:
    """Split findings into (fresh, grandfathered) against the baseline.

    Matching is by ``(rule, path, message)`` with multiset semantics:
    each entry absolves one finding.  Entries that matched nothing come
    back as ``stale`` so the report can nudge the baseline shrinking.
    """
    budget: Dict[Tuple[str, str, str], int] = {}
    for entry in entries:
        key = (str(entry.get("rule", "")), str(entry.get("path", "")),
               str(entry.get("message", "")))
        budget[key] = budget.get(key, 0) + 1
    fresh: List[Finding] = []
    grandfathered: List[Finding] = []
    for finding in findings:
        key = finding.baseline_key()
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            grandfathered.append(finding)
        else:
            fresh.append(finding)
    stale = [{"rule": k[0], "path": k[1], "message": k[2], "count": n}
             for k, n in sorted(budget.items()) if n > 0]
    return fresh, grandfathered, stale
