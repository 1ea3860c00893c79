#!/usr/bin/env python3
"""Self-test for the static-analysis lints (tools/lint_lock_hierarchy.py,
tools/lint_annotation_coverage.py and tools/lint_options_used.py).

A lint that silently stops matching the codebase's idioms fails open: it keeps
printing OK while checking nothing. This test pins each lint's behaviour
against known-bad and known-good fixtures (tests/lint_fixtures/): every
known-bad snippet must produce the expected finding, every known-good snippet
must produce none.

Each case runs in an isolated temporary repo-root (each fixture copied under
src/client/, or to the path its case names, plus the real
src/common/lock_order.h so the LockLevel enum is the production one). Isolation matters: the lints index member names
repo-wide, so a bad fixture must not leak bindings into a good case.

Run as:  lint_selftest.py [repo_root]
"""

import contextlib
import importlib.util
import io
import shutil
import sys
import tempfile
from pathlib import Path

LINTED_DIRS = ("src/tokens", "src/client", "src/server", "src/recovery", "src/rpc")


def load_tool(repo: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, repo / "tools" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def make_root(tmp: str, repo: Path, fixtures) -> Path:
    root = Path(tmp)
    (root / "src/common").mkdir(parents=True)
    shutil.copy(repo / "src/common/lock_order.h", root / "src/common/lock_order.h")
    for d in LINTED_DIRS:
        (root / d).mkdir(parents=True, exist_ok=True)
    for f in fixtures:
        src, dest = f if isinstance(f, tuple) else (f, "src/client/" + f)
        (root / dest).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(repo / "tests/lint_fixtures" / src, root / dest)
    return root


def run_lint(mod, root: Path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = mod.main(["lint", str(root)])
    return rc, out.getvalue()


# The options-used lint reads both Options headers and a user under tests/.
OPTIONS_USER = ("options_user.cc", "tests/options_user.cc")
GOOD_CACHE_OPTIONS = ("good_options_used.h", "src/client/cache_manager.h")
GOOD_TOKEN_OPTIONS = ("good_token_options_used.h", "src/tokens/token_manager.h")

# (lint module, fixtures, expected rc, substring the output must contain).
# A fixture is a file name (copied under src/client/) or a (file, destination)
# pair.
CASES = [
    ("lint_lock_hierarchy", "bad_inversion.cc", 1, "hierarchy inversion"),
    ("lint_lock_hierarchy", "bad_same_level.cc", 1, "same-level acquisition"),
    ("lint_lock_hierarchy", "bad_requires_inversion.cc", 1, "hierarchy inversion"),
    ("lint_lock_hierarchy", "good_hierarchy.cc", 0, "lock-hierarchy lint OK"),
    ("lint_annotation_coverage", "bad_unguarded_member.h", 1, "unguarded_counter_"),
    ("lint_annotation_coverage", "bad_stale_annotation.h", 1, "renamed_away_mu_"),
    ("lint_annotation_coverage", "good_annotated.h", 0, "annotation-coverage lint OK"),
    ("lint_options_used",
     [("bad_options_unused.h", "src/client/cache_manager.h"), GOOD_TOKEN_OPTIONS,
      OPTIONS_USER], 1,
     "CacheManager::Options::orphan_knob is set in no file"),
    ("lint_options_used",
     [GOOD_CACHE_OPTIONS, ("bad_token_options_unused.h", "src/tokens/token_manager.h"),
      OPTIONS_USER], 1,
     "TokenManager::Options::orphan_token_knob is set in no file"),
    ("lint_options_used", [GOOD_CACHE_OPTIONS, GOOD_TOKEN_OPTIONS, OPTIONS_USER], 0,
     "options-used lint OK (2 CacheManager::Options, 2 TokenManager::Options"),
]


def main(argv: list) -> int:
    repo = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    mods = {name: load_tool(repo, name) for name in {case[0] for case in CASES}}
    failures = []
    for lint, fixtures, want_rc, want_text in CASES:
        fixtures = fixtures if isinstance(fixtures, list) else [fixtures]
        fixture = ", ".join(f if isinstance(f, str) else f[0] for f in fixtures)
        with tempfile.TemporaryDirectory() as tmp:
            root = make_root(tmp, repo, fixtures)
            rc, out = run_lint(mods[lint], root)
        if rc != want_rc:
            failures.append(f"{lint} on {fixture}: exit {rc}, expected {want_rc}\n{out}")
        elif want_text not in out:
            failures.append(
                f"{lint} on {fixture}: output lacks {want_text!r}\n{out}")
    if failures:
        print("lint self-test FAILED:\n")
        for f in failures:
            print("  " + f.replace("\n", "\n  ") + "\n")
        return 1
    print(f"lint self-test OK ({len(CASES)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
