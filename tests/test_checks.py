"""The static analyzer: fixtures per rule, suppressions, baseline,
reporters, CLI, and the self-check that the repo's own tree is clean."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import checks
from repro.checks import (
    Finding,
    check_source,
    get_rules,
    load_baseline,
    render_json,
    render_text,
    run_checks,
    save_baseline,
)
from repro.checks.engine import FileContext, apply_baseline, collect_files

FIXTURES = Path(__file__).parent / "checks_fixtures"
REPO = Path(__file__).resolve().parent.parent

#: rule id -> (fixture stem, path hint the snippet pretends to live at,
#:             expected finding count in the bad fixture)
CASES = {
    "REP000": ("rep000", "src/repro/analysis/example.py", 5),
    "REP001": ("rep001", "src/repro/core/example.py", 7),
    "REP002": ("rep002", "src/repro/serve/example.py", 5),
    "REP003": ("rep003", "src/repro/serve/example.py", 5),
    "REP005": ("rep005", "src/repro/serve/example.py", 7),
}


def _fixture(name: str) -> str:
    return (FIXTURES / f"{name}.py").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# per-rule fixtures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_rule_fires_on_bad_fixture(rule_id):
    stem, hint, expected = CASES[rule_id]
    findings = check_source(_fixture(f"{stem}_bad"), hint,
                            rules=get_rules([rule_id]))
    assert len(findings) == expected
    assert {f.rule for f in findings} == {rule_id}
    assert all(f.severity in ("error", "warning") for f in findings)
    assert all(f.line > 0 for f in findings)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_rule_silent_on_good_fixture(rule_id):
    stem, hint, _ = CASES[rule_id]
    findings = check_source(_fixture(f"{stem}_good"), hint,
                            rules=get_rules([rule_id]))
    assert findings == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

BAD_LINE = ("import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng(){comment}\n")


def test_suppression_with_rule_id():
    src = BAD_LINE.format(comment="  # repro: ignore[REP001]")
    assert check_source(src, "src/repro/core/x.py") == []


def test_suppression_bare_silences_every_rule():
    src = BAD_LINE.format(comment="  # repro: ignore")
    assert check_source(src, "src/repro/core/x.py") == []


def test_suppression_for_other_rule_does_not_apply():
    src = BAD_LINE.format(comment="  # repro: ignore[REP005]")
    findings = check_source(src, "src/repro/core/x.py")
    assert [f.rule for f in findings] == ["REP001"]


def test_suppression_is_line_scoped():
    src = BAD_LINE.format(comment="") + "# repro: ignore[REP001]\n"
    findings = check_source(src, "src/repro/core/x.py")
    assert [f.rule for f in findings] == ["REP001"]


# ---------------------------------------------------------------------------
# rule scoping
# ---------------------------------------------------------------------------

def test_rep001_only_in_deterministic_zones():
    src = "import numpy as np\nrng = np.random.default_rng()\n"
    assert check_source(src, "src/repro/core/x.py") != []
    assert check_source(src, "src/repro/loihi/x.py") != []
    assert check_source(src, "benchmarks/bench_x.py") != []
    # The serving tier may draw entropy (jitter, sampling): out of scope.
    assert check_source(src, "src/repro/serve/x.py") == []
    # Tests are exempt everywhere.
    assert check_source(src, "tests/test_x.py") == []


def test_rep002_allowed_inside_kernels_package():
    src = "from repro.core.kernels import _numpy\n"
    assert check_source(src, "src/repro/core/kernels/dispatch.py") == []
    assert check_source(src, "src/repro/loihi/x.py") != []


#: Names in ``repro.core.kernels.__all__`` that are not kernel entry
#: points: backend selection and the helpers that build a kernel's
#: operands.
KERNEL_HELPERS = {
    "ArrayTable", "MicrocodeProgram", "RateUpdate", "array_table",
    "available_backends", "backend_name", "backend_provides",
    "forced_backend", "microcode_program", "select_backend",
}


def test_rep002_knows_every_public_kernel():
    """REP002's list is the package's kernel entry points, each of them
    flagged when redefined outside the package."""
    from repro.checks.rules.kernel_boundary import PUBLIC_KERNELS
    from repro.core import kernels

    assert KERNEL_HELPERS <= set(kernels.__all__)
    assert PUBLIC_KERNELS == set(kernels.__all__) - KERNEL_HELPERS
    for name in sorted(PUBLIC_KERNELS):
        src = f"def {name}(*args):\n    return args\n"
        findings = check_source(src, "src/repro/serve/x.py",
                                rules=get_rules(["REP002"]))
        assert [f.rule for f in findings] == ["REP002"], name


def test_hidden_rule_not_in_default_set():
    default_ids = {r.id for r in checks.default_rules()}
    all_ids = {r.id for r in checks.all_rules()}
    assert "REP000" not in default_ids
    assert "REP000" in all_ids
    assert {"REP001", "REP002", "REP003", "REP005"} <= default_ids


def test_unknown_rule_id_is_an_error():
    with pytest.raises(KeyError, match="REP999"):
        get_rules(["REP999"])


def test_module_name_derivation():
    ctx = FileContext("src/repro/core/kernels/__init__.py", "x = 1\n")
    assert ctx.module == "repro.core.kernels"
    assert FileContext("benchmarks/bench_kernels.py",
                       "x = 1\n").module == "bench_kernels"
    assert FileContext("tests/test_x.py", "x = 1\n").is_test


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

def _finding(rule="REP001", path="src/repro/core/x.py", line=3,
             message="boom") -> Finding:
    return Finding(rule=rule, severity="error", path=path, line=line,
                   col=0, message=message)


def test_baseline_round_trip(tmp_path):
    path = tmp_path / "baseline.json"
    findings = [_finding(), _finding(rule="REP003", message="race")]
    save_baseline(path, findings)
    entries = load_baseline(path)
    assert len(entries) == 2
    fresh, grandfathered, stale = apply_baseline(findings, entries)
    assert fresh == []
    assert len(grandfathered) == 2
    assert stale == []


def test_baseline_is_line_number_free(tmp_path):
    """An edit that shifts a grandfathered finding must not resurrect it."""
    path = tmp_path / "baseline.json"
    save_baseline(path, [_finding(line=3)])
    fresh, grandfathered, _ = apply_baseline([_finding(line=40)],
                                             load_baseline(path))
    assert fresh == []
    assert len(grandfathered) == 1


def test_baseline_multiset_semantics():
    """One entry absolves one finding; a new duplicate still fails."""
    entries = [_finding().to_dict()]
    fresh, grandfathered, _ = apply_baseline(
        [_finding(line=3), _finding(line=9)], entries)
    assert len(grandfathered) == 1
    assert len(fresh) == 1


def test_baseline_stale_entries_reported():
    entries = [_finding(message="fixed long ago").to_dict()]
    fresh, grandfathered, stale = apply_baseline([], entries)
    assert fresh == [] and grandfathered == []
    assert len(stale) == 1 and stale[0]["count"] == 1


def test_missing_baseline_file_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == []


def test_committed_baseline_is_empty():
    """The acceptance bar: the final tree carries zero grandfathered debt."""
    assert load_baseline(REPO / checks.BASELINE_NAME) == []


# ---------------------------------------------------------------------------
# engine plumbing
# ---------------------------------------------------------------------------

def test_collect_files_skips_fixture_and_cache_dirs(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("x = 1\n")
    (tmp_path / "checks_fixtures").mkdir()
    (tmp_path / "checks_fixtures" / "bad.py").write_text("x = 1\n")
    files = collect_files([str(tmp_path)], tmp_path)
    assert [f.name for f in files] == ["mod.py"]


def test_syntax_error_is_reported_not_raised(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    result = run_checks([str(tmp_path)], root=tmp_path)
    assert result.findings == []
    assert len(result.errors) == 1 and "broken.py" in result.errors[0]
    assert not result.ok


def test_reporters(tmp_path):
    stem, hint, expected = CASES["REP003"]
    path = tmp_path / hint
    path.parent.mkdir(parents=True)
    path.write_text(_fixture(f"{stem}_bad"), encoding="utf-8")
    result = run_checks([str(tmp_path)], rules=get_rules(["REP003"]),
                        root=tmp_path)
    text = render_text(result)
    assert "REP003" in text and "finding(s)" in text
    payload = json.loads(render_json(result))
    assert payload["ok"] is False
    assert len(payload["findings"]) == expected
    assert payload["rules_run"] == ["REP003"]
    assert {"rule", "severity", "path", "line", "col",
            "message"} <= set(payload["findings"][0])


# ---------------------------------------------------------------------------
# the CLI, end to end
# ---------------------------------------------------------------------------

def _run_cli(*args, cwd=REPO):
    env_src = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "check", *args],
        capture_output=True, text=True, cwd=cwd,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin",
             "HOME": "/tmp"})


def test_cli_self_check_repo_is_clean():
    """``python -m repro check src`` exits 0 on the repo's own tree."""
    proc = _run_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout


def test_cli_json_artifact_shape():
    proc = _run_cli("src", "--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    assert payload["findings"] == []
    assert payload["files_checked"] > 50
    assert payload["rules_run"] == [
        "REP001", "REP002", "REP003", "REP005"]


def test_cli_single_rule_selection():
    proc = _run_cli("src", "--rule", "REP003", "--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["rules_run"] == ["REP003"]


def test_cli_exit_one_on_findings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\n"
                   "rng = np.random.default_rng()\n")
    # The path hint comes from the real location, so scope the rule in by
    # placing the file under a directory named like a deterministic zone.
    zone = tmp_path / "src" / "repro" / "core"
    zone.mkdir(parents=True)
    shutil.move(str(bad), zone / "bad.py")
    proc = _run_cli(str(zone / "bad.py"))
    assert proc.returncode == 1
    assert "REP001" in proc.stdout


def test_cli_write_baseline_then_clean(tmp_path):
    zone = tmp_path / "src" / "repro" / "core"
    zone.mkdir(parents=True)
    (zone / "bad.py").write_text("import numpy as np\n"
                                 "rng = np.random.default_rng()\n")
    baseline = tmp_path / "baseline.json"
    wrote = _run_cli(str(zone), "--baseline", str(baseline),
                     "--write-baseline")
    assert wrote.returncode == 0, wrote.stdout + wrote.stderr
    assert len(load_baseline(baseline)) == 1
    # Grandfathered: same tree now passes against the written baseline.
    clean = _run_cli(str(zone), "--baseline", str(baseline))
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "1 baselined" in clean.stdout
