#!/usr/bin/env python3
"""Baseline-diffing clang-tidy driver for the shhpass tree.

Runs clang-tidy (config: the repo-root .clang-tidy) over the project's
own translation units using the compile database exported by CMake
(CMAKE_EXPORT_COMPILE_COMMANDS is ON unconditionally), normalizes the
diagnostics to stable repo-relative `path:line: warning: ... [check]`
lines, and diffs them against the committed
tools/clang_tidy_baseline.txt. CI fails on ANY new diagnostic; fixing
warnings shrinks the baseline via --update-baseline.

Why diff-a-baseline instead of zero-warnings-absolute: clang-tidy output
drifts across LLVM releases (new checks, reworded messages). A committed
baseline keeps the gate "no NEW findings" regardless of which version a
contributor has, and normalization (paths relative, columns stripped)
keeps the diff stable.

Speed (<5 min CI budget): --changed-only lints just the TUs touched
since the merge base (PR builds); the weekly scheduled job and pushes to
main run the full sweep. Files are linted in parallel worker processes.

Exit status: 0 clean/skip, 1 findings diverge from baseline, 2 usage or
environment errors. When clang-tidy is not installed the script prints
SKIP and exits 0 (the dev container is gcc-only; the clang-tidy CI job
installs the real tool) unless --require is given.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from typing import List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO_ROOT, "tools", "clang_tidy_baseline.txt")

# Own code only: dependencies fetched into the build tree (gtest) are
# not ours to lint.
PROJECT_DIRS = ("src", "baselines", "tests", "bench", "examples")

# Prefer an unsuffixed binary, else the newest versioned one on PATH.
CANDIDATE_NAMES = ["clang-tidy"] + [f"clang-tidy-{v}" for v in range(25, 11, -1)]

DIAG_RE = re.compile(
    r"^(?P<path>/[^:]+):(?P<line>\d+):(?P<col>\d+): "
    r"(?P<sev>warning|error): (?P<msg>.*)$")


def find_clang_tidy(explicit: Optional[str]) -> Optional[str]:
    if explicit:
        return explicit if shutil.which(explicit) else None
    for name in CANDIDATE_NAMES:
        path = shutil.which(name)
        if path:
            return path
    return None


def project_tus(build_dir: str) -> List[str]:
    """Project-owned translation units from the compile database."""
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(db_path):
        raise FileNotFoundError(
            f"{db_path} not found — configure the build tree first "
            "(cmake -B build -S . exports the compile database)")
    with open(db_path, "r", encoding="utf-8") as f:
        db = json.load(f)
    tus = []
    prefixes = tuple(os.path.join(REPO_ROOT, d) + os.sep for d in PROJECT_DIRS)
    for entry in db:
        src = os.path.abspath(os.path.join(entry["directory"], entry["file"]))
        if src.startswith(prefixes):
            tus.append(src)
    return sorted(set(tus))


def changed_files(base_ref: str) -> List[str]:
    """Absolute paths of files changed since merge-base with base_ref
    (plus uncommitted changes). Falls back to 'everything' on error."""
    try:
        merge_base = subprocess.run(
            ["git", "merge-base", "HEAD", base_ref], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
        out = subprocess.run(
            ["git", "diff", "--name-only", merge_base], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True).stdout
    except (subprocess.CalledProcessError, FileNotFoundError):
        return []
    return [os.path.join(REPO_ROOT, line)
            for line in out.splitlines() if line.strip()]


def lint_one(args) -> str:
    tidy, build_dir, tu = args
    proc = subprocess.run(
        [tidy, "-p", build_dir, "--quiet", tu],
        capture_output=True, text=True, cwd=REPO_ROOT)
    return proc.stdout


def normalize(raw: str) -> List[str]:
    """Stable, sorted `path:line: sev: msg` lines, repo-relative, own
    files only, column numbers dropped (they churn across versions)."""
    lines = set()
    for line in raw.splitlines():
        m = DIAG_RE.match(line)
        if not m:
            continue
        rel = os.path.relpath(m.group("path"), REPO_ROOT).replace(os.sep, "/")
        if rel.startswith(".."):
            continue  # system/third-party header
        if not rel.startswith(tuple(d + "/" for d in PROJECT_DIRS)):
            continue
        lines.add(f"{rel}:{m.group('line')}: {m.group('sev')}: "
                  f"{m.group('msg')}")
    return sorted(lines)


def read_baseline() -> List[str]:
    if not os.path.isfile(BASELINE):
        return []
    with open(BASELINE, "r", encoding="utf-8") as f:
        return [ln.rstrip("\n") for ln in f
                if ln.strip() and not ln.startswith("#")]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(REPO_ROOT, "build"),
                        help="build tree containing compile_commands.json")
    parser.add_argument("--clang-tidy", default=None,
                        help="explicit clang-tidy binary")
    parser.add_argument("--changed-only", metavar="BASE_REF", default=None,
                        help="lint only TUs changed since merge-base with "
                             "BASE_REF (e.g. origin/main)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite tools/clang_tidy_baseline.txt from this "
                             "run (full sweep only)")
    parser.add_argument("--require", action="store_true",
                        help="fail (exit 2) instead of SKIP when clang-tidy "
                             "is not installed")
    parser.add_argument("-j", "--jobs", type=int,
                        default=max(1, multiprocessing.cpu_count() - 1))
    args = parser.parse_args(argv)

    tidy = find_clang_tidy(args.clang_tidy)
    if tidy is None:
        msg = "run_clang_tidy: SKIP — clang-tidy not found on PATH"
        if args.require:
            print(msg + " (--require given)", file=sys.stderr)
            return 2
        print(msg + " (install it, or rely on the clang-tidy CI job)")
        return 0

    try:
        tus = project_tus(args.build_dir)
    except FileNotFoundError as err:
        print(f"run_clang_tidy: {err}", file=sys.stderr)
        return 2

    if args.changed_only:
        if args.update_baseline:
            print("run_clang_tidy: --update-baseline needs a full sweep, "
                  "not --changed-only", file=sys.stderr)
            return 2
        changed = set(changed_files(args.changed_only))
        if changed:
            # Header edits are caught transitively: lint every TU when a
            # header changed, else just the changed TUs.
            if any(p.endswith((".hpp", ".h")) for p in changed):
                print("run_clang_tidy: header change detected — full sweep")
            else:
                tus = [t for t in tus if t in changed]
        if not tus:
            print("run_clang_tidy: OK — no project TUs changed")
            return 0

    print(f"run_clang_tidy: {tidy} over {len(tus)} TU(s), "
          f"{args.jobs} worker(s)")
    work = [(tidy, args.build_dir, tu) for tu in tus]
    if args.jobs > 1 and len(work) > 1:
        with multiprocessing.Pool(args.jobs) as pool:
            outputs = pool.map(lint_one, work)
    else:
        outputs = [lint_one(w) for w in work]
    current = normalize("\n".join(outputs))

    if args.update_baseline:
        with open(BASELINE, "w", encoding="utf-8") as f:
            f.write("# clang-tidy baseline for shhpass — managed by\n"
                    "# tools/run_clang_tidy.py --update-baseline.\n"
                    "# CI fails on any diagnostic not listed here; the goal\n"
                    "# is for this file to stay EMPTY of entries.\n")
            for line in current:
                f.write(line + "\n")
        print(f"run_clang_tidy: baseline rewritten ({len(current)} entries)")
        return 0

    baseline = set(read_baseline())
    new = [ln for ln in current if ln not in baseline]
    fixed = [ln for ln in baseline if ln not in set(current)]
    if new:
        print(f"run_clang_tidy: FAILED — {len(new)} diagnostic(s) not in "
              "baseline:")
        for line in new:
            print("  " + line)
        print("fix them (preferred) or, for a deliberate exception, rerun "
              "with --update-baseline and justify the entry in review")
        return 1
    if fixed and not args.changed_only:
        # Stale entries are only provable on a full sweep.
        print(f"run_clang_tidy: note — {len(fixed)} baseline entr(y/ies) no "
              "longer fire; shrink the baseline with --update-baseline")
    print(f"run_clang_tidy: OK ({len(current)} diagnostic(s), all baselined)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
