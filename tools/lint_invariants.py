#!/usr/bin/env python3
"""Project-specific invariant linter for the shhpass tree.

Enforces the determinism and error-model contracts that no generic tool
(clang-tidy, compiler warnings) knows about. The rules live in prose in
docs/ARCHITECTURE.md; this linter is the machine-checked version. It is
stdlib-only, runs as a ctest suite and a required CI job, and is itself
unit-tested by tools/test_lint_invariants.py (one fixture per rule).

Rules
-----
Library scope means src/ plus baselines/ (the Weierstrass and LMI
comparison tests, built as their own target): the moved code keeps every
check that src/ has.

no-unordered-iteration
    std::unordered_map / std::unordered_set are banned in library code
    (src/, baselines/). Their
    iteration order is implementation-defined, so any use can silently
    feed hash-order into numeric results or JSON serialization order and
    break the bit-determinism contract (serial == N-thread, bitwise).
    Use std::map / std::set / sorted vectors.

no-std-distribution
    std::uniform_*_distribution / std::normal_distribution (any
    std::*_distribution) are banned everywhere (src, baselines, tests,
    bench, examples). The standard pins the engines (mt19937) but NOT the
    distributions, so distribution-sampled streams differ across
    standard libraries. Seeded test cases and benchmark models must map
    raw engine output by hand (tests/test_support.hpp Xorshift, or the
    hand-mapped mt19937 stream in bench/bench_support.hpp).

no-throw-in-api
    No `throw` in src/api/ outside status.cpp. The public API is
    Status/Result based; the ONLY place exceptions are touched is the
    translate boundary (statusFromCurrentException in status.cpp, plus
    the catch sites in pipeline.cpp). A throw elsewhere in src/api would
    cross the no-exceptions API boundary.

oracle-pairing
    Every blocked kernel entry point declared at namespace scope in a
    src/linalg header (a symbol ending in `Blocked`) must be declared in
    the same header as a named unblocked oracle (`<base>Unblocked` or
    `<base>Reference`). The oracle is what the equivalence tests and the
    dispatch bit-identity contract are written against.

oracle-test-coverage
    Every oracle symbol (`*Unblocked` / `*Reference` at namespace scope
    in a src/linalg header) must be referenced by name in at least one
    tests/ file: an oracle nothing tests against is not an oracle.

no-reinterpret-cast
    reinterpret_cast is banned in src/linalg except on lines carrying
    the vetted-SIMD waiver comment `lint-ok: simd-microkernel` (the only
    legitimate use is pointer re-typing inside a SIMD micro-kernel).

rank-tol-literal
    A positive floating-point literal passed as a tolerance to a
    rank-decision call (`rank(`, `nullspace(`, `kernel(`) or to an LU
    pivot test (`isSingular(`) is banned in library code (src/,
    baselines/) outside src/linalg/svd.cpp (the shared-policy
    implementation itself). Hard-coded cutoffs are
    how the three deflation stages historically drifted apart; every
    rank decision must flow through resolveRankTol (svd.hpp) — thread a
    rankTol parameter or pass the -1.0 policy sentinel. Waive with
    `lint-ok: rank-tol-literal` on the offending line or the line
    directly above (this rule only; the justification comment usually
    wants the room).

tsan-supp-clean
    tools/tsan.supp must stay empty of project-owned frames: a
    suppression matching src/, tests/, or a shhpass symbol hides a real
    race instead of a third-party false positive.

no-raw-clock
    Direct std::chrono::*_clock::now() calls are banned in library code
    (src/, baselines/) outside src/obs/ (the telemetry layer owns the
    clock). Scattered clock reads
    produce timelines with mismatched epochs that cannot be correlated
    with the span tracer; route every measurement through
    obs::monotonicNowNs() (src/obs/clock.hpp). bench/, tests/, and
    examples/ are out of scope. Waivable with `lint-ok: no-raw-clock`.

one-fig1-chain
    The Fig.-1 chain has one implementation: the stage table of
    src/api/pipeline.cpp, run by api::runPipeline. A call to
    `deflateImpulseModes(` anywhere else in library code (src/,
    baselines/; outside the stage's own src/core/impulse_deflation.*) or
    in bench/ and examples/ is a hand-wired copy of the chain:
    it skips whichever screens and gates its author forgot (model
    reduction once skipped the prerequisites and the M1 >= 0 check, and
    the conditioning bench once skipped them too). Extensions that need
    the proper part or M1 run the pipeline and read its PipelineState.
    tests/ (stage-level oracles) and perfbench/ (whose frozen replay
    copies the stages on purpose, to time each one) are out of scope.
    Waivable with `lint-ok: one-fig1-chain` (a kernel row that times one
    stage against its oracle is not a chain).

kernel-layering
    A project `#include "..."` in src/linalg/ or src/obs/ may only name a
    linalg/ or obs/ header. The kernels and the telemetry layer sit at the
    bottom of the stack; an include of api/, core/, control/ or any other
    upper layer turns the layering into a cycle (the gemm thread pool
    once lived in src/api/ and blas.cpp reached up for it). Waivable
    with `lint-ok: kernel-layering`.

isa-dispatch-in-blas
    CPU-feature dispatch lives in one file: `<immintrin.h>` (or
    `<x86intrin.h>`), a `target(...)` function attribute and
    `__builtin_cpu_supports` may appear only in src/linalg/blas.cpp, in
    any C++ file of the tree (src/, baselines/, tests/, bench/,
    examples/, perfbench/). Which instruction set runs decides how a
    product rounds (fused or unfused multiply-adds), so every such choice
    must stay behind the one per-machine determinism contract that
    blas.hpp states and tests/test_blas_blocked.cpp checks bit for bit.
    Waivable with `lint-ok: isa-dispatch-in-blas`.

kernel-pool-in-blas
    `#include "linalg/thread_pool.hpp"` may appear only in
    src/linalg/blas.cpp and src/linalg/thread_pool.cpp, in any C++ file
    of the tree except tests/ (src/, baselines/, bench/, examples/,
    perfbench/). Every parallel kernel — gemm, dotRows, the bidiagonal
    sweep's rotation replay — reaches the kernel pool through a blas.cpp
    entry point that splits its output into pieces whose every element
    is computed the same way whoever computes it: the bit-determinism
    contract blas.hpp states for every gemm width. A second file with its
    own fan-out would be a second, unchecked contract. Tests include the
    pool directly to stress it. Waivable with
    `lint-ok: kernel-pool-in-blas`.

Waivers: append `lint-ok: <rule-id>` in a comment on the offending line
to waive a line-based rule (use sparingly; the waiver itself is visible
in review).

Exit status: 0 when the tree is clean, 1 when any rule fired, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, List, NamedTuple, Tuple

CPP_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".cxx")

# Library code: every rule scoped to src/ as a whole also scans baselines/.
LIBRARY_DIRS = ("src", "baselines")

RULE_IDS = (
    "no-unordered-iteration",
    "no-std-distribution",
    "no-throw-in-api",
    "oracle-pairing",
    "oracle-test-coverage",
    "no-reinterpret-cast",
    "rank-tol-literal",
    "tsan-supp-clean",
    "no-raw-clock",
    "one-fig1-chain",
    "kernel-layering",
    "isa-dispatch-in-blas",
    "kernel-pool-in-blas",
)


class Finding(NamedTuple):
    rule: str
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    message: str


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literal contents, preserving
    newlines and column positions, so regex rules only see code."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # unterminated; be forgiving
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read()


def _waived(raw_line: str, rule: str) -> bool:
    return f"lint-ok: {rule}" in raw_line


def _cpp_files(root: str, subdirs: Tuple[str, ...]) -> List[str]:
    files: List[str] = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(CPP_EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    return sorted(files)


def _rel(root: str, path: str) -> str:
    return os.path.relpath(path, root).replace(os.sep, "/")


def _line_findings(root: str, path: str, rule: str, pattern: re.Pattern,
                   message: str) -> List[Finding]:
    raw_lines = _read(path).splitlines()
    stripped_lines = strip_comments_and_strings(_read(path)).splitlines()
    findings = []
    for lineno, line in enumerate(stripped_lines, start=1):
        if pattern.search(line):
            raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
            if _waived(raw, rule):
                continue
            findings.append(Finding(rule, _rel(root, path), lineno, message))
    return findings


# ------------------------------------------------------------------ rules

UNORDERED_RE = re.compile(r"\bstd\s*::\s*unordered_(map|set|multimap|multiset)\b")
DISTRIBUTION_RE = re.compile(r"\bstd\s*::\s*\w*_distribution\b")
THROW_RE = re.compile(r"\bthrow\b")
REINTERPRET_RE = re.compile(r"\breinterpret_cast\b")
# A rank-decision call (or an LU pivot test, which decides a rank too)
# whose argument list carries a positive floating literal (decimal point
# or exponent) before the closing paren. The -1.0 policy sentinel is
# excluded by the leading-minus lookbehind; pure integer arguments (e.g.
# index accessors) never match.
RANK_TOL_LITERAL_RE = re.compile(
    r"\b(?:rank|nullspace|kernel|isSingular)\s*\([^)]*?"
    r"(?<![\w.])(?<!-)(?:\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\.\d+)"
)
# Namespace-scope kernel declarations: an unindented declarator line whose
# function name carries one of the kernel suffixes. Class members are
# indented and therefore ignored.
RAW_CLOCK_RE = re.compile(
    r"\bstd\s*::\s*chrono\s*::\s*\w*_clock\s*::\s*now\s*\(")
FIG1_CHAIN_RE = re.compile(r"\bdeflateImpulseModes\s*\(")
PROJECT_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
ISA_DISPATCH_RE = re.compile(
    r"<\s*(?:imm|x86)intrin\.h\s*>"
    r"|\b__attribute__\s*\(\(\s*target\s*\("
    r"|\bgnu\s*::\s*target\s*\("
    r"|\b__builtin_cpu_supports\b")
ISA_DISPATCH_HOME = "src/linalg/blas.cpp"
KERNEL_POOL_INCLUDE_RE = re.compile(
    r'^\s*#\s*include\s*["<]linalg/thread_pool\.hpp[">]')
KERNEL_POOL_HOMES = ("src/linalg/blas.cpp", "src/linalg/thread_pool.cpp")
KERNEL_DECL_RE = re.compile(
    r"^[A-Za-z_][\w:<>,&*\s]*?\b([A-Za-z_]\w*?)(Blocked|Unblocked|Reference)"
    r"\s*\(",
    re.MULTILINE,
)


def check_no_unordered_iteration(root: str) -> List[Finding]:
    findings = []
    for path in _cpp_files(root, LIBRARY_DIRS):
        findings += _line_findings(
            root, path, "no-unordered-iteration", UNORDERED_RE,
            "std::unordered_* banned in library code: implementation-defined "
            "iteration order can leak into numeric results or JSON key "
            "order and break bit-determinism; use std::map/std::set or a "
            "sorted vector")
    return findings


def check_no_std_distribution(root: str) -> List[Finding]:
    findings = []
    for path in _cpp_files(root,
                           LIBRARY_DIRS + ("tests", "bench", "examples")):
        findings += _line_findings(
            root, path, "no-std-distribution", DISTRIBUTION_RE,
            "std::*_distribution sampling is not pinned across standard "
            "libraries; map raw engine output by hand (Xorshift in "
            "tests/test_support.hpp, hand-mapped mt19937 in bench)")
    return findings


def check_no_throw_in_api(root: str) -> List[Finding]:
    findings = []
    for path in _cpp_files(root, (os.path.join("src", "api"),)):
        if os.path.basename(path) == "status.cpp":
            continue  # the translate-and-rethrow boundary itself
        findings += _line_findings(
            root, path, "no-throw-in-api", THROW_RE,
            "no `throw` in src/api outside status.cpp: the public API is "
            "Status/Result based and exceptions must not cross it")
    return findings


def check_no_reinterpret_cast(root: str) -> List[Finding]:
    findings = []
    for path in _cpp_files(root, (os.path.join("src", "linalg"),)):
        findings += _line_findings(
            root, path, "no-reinterpret-cast", REINTERPRET_RE,
            "reinterpret_cast banned in src/linalg outside vetted SIMD "
            "micro-kernels (waive with `lint-ok: no-reinterpret-cast` "
            "comment `lint-ok: simd-microkernel` only inside one)")
    return findings


def check_no_raw_clock(root: str) -> List[Finding]:
    findings = []
    for path in _cpp_files(root, LIBRARY_DIRS):
        rel = _rel(root, path)
        if rel.startswith("src/obs/"):
            continue  # the telemetry layer owns the sanctioned clock site
        findings += _line_findings(
            root, path, "no-raw-clock", RAW_CLOCK_RE,
            "direct std::chrono clock read in library code outside src/obs/: "
            "mismatched epochs cannot be correlated with the span "
            "tracer; use obs::monotonicNowNs() (src/obs/clock.hpp)")
    return findings


def check_one_fig1_chain(root: str) -> List[Finding]:
    findings = []
    for path in _cpp_files(root, LIBRARY_DIRS + ("bench", "examples")):
        rel = _rel(root, path)
        if (rel == "src/api/pipeline.cpp"
                or rel.startswith("src/core/impulse_deflation.")):
            continue  # the stage table and the stage's own definition
        findings += _line_findings(
            root, path, "one-fig1-chain", FIG1_CHAIN_RE,
            "deflateImpulseModes( outside the pipeline stage table is a "
            "hand-wired copy of the Fig.-1 chain; run api::runPipeline "
            "and read the PipelineState instead")
    return findings


def check_kernel_layering(root: str) -> List[Finding]:
    findings = []
    subdirs = (os.path.join("src", "linalg"), os.path.join("src", "obs"))
    for path in _cpp_files(root, subdirs):
        for lineno, line in enumerate(_read(path).splitlines(), start=1):
            m = PROJECT_INCLUDE_RE.match(line)
            if (m is None or m.group(1).startswith(("linalg/", "obs/"))
                    or _waived(line, "kernel-layering")):
                continue
            findings.append(Finding(
                "kernel-layering", _rel(root, path), lineno,
                f'#include "{m.group(1)}" in the kernel/telemetry layer: '
                "src/linalg and src/obs may only include linalg/ or obs/ "
                "headers"))
    return findings


def check_isa_dispatch_in_blas(root: str) -> List[Finding]:
    findings = []
    for path in _cpp_files(root, LIBRARY_DIRS + ("tests", "bench",
                                                 "examples", "perfbench")):
        if _rel(root, path) == ISA_DISPATCH_HOME:
            continue
        findings += _line_findings(
            root, path, "isa-dispatch-in-blas", ISA_DISPATCH_RE,
            "instruction-set dispatch (intrinsics header, target attribute "
            f"or __builtin_cpu_supports) outside {ISA_DISPATCH_HOME}: the "
            "instruction set decides rounding, so every such choice stays "
            "behind the one gemm determinism contract")
    return findings


def check_kernel_pool_in_blas(root: str) -> List[Finding]:
    findings = []
    for path in _cpp_files(root, LIBRARY_DIRS + ("bench", "examples",
                                                 "perfbench")):
        rel = _rel(root, path)
        if rel in KERNEL_POOL_HOMES:
            continue
        # Raw lines: the include's quoted path is a string literal to the
        # comment/string stripper; a commented-out include does not match
        # the anchored pattern.
        for lineno, line in enumerate(_read(path).splitlines(), start=1):
            if (KERNEL_POOL_INCLUDE_RE.match(line)
                    and not _waived(line, "kernel-pool-in-blas")):
                findings.append(Finding(
                    "kernel-pool-in-blas", rel, lineno,
                    "linalg/thread_pool.hpp included outside "
                    "src/linalg/blas.cpp: parallel kernels reach the pool "
                    "only through a blas.cpp entry point, which carries "
                    "the bit-determinism contract of every gemm width"))
    return findings


def check_rank_tol_literal(root: str) -> List[Finding]:
    findings = []
    for path in _cpp_files(root, LIBRARY_DIRS):
        rel = _rel(root, path)
        if rel == "src/linalg/svd.cpp":
            continue  # the shared-policy implementation defines the default
        raw_lines = _read(path).splitlines()
        stripped_lines = strip_comments_and_strings(_read(path)).splitlines()
        for lineno, line in enumerate(stripped_lines, start=1):
            if not RANK_TOL_LITERAL_RE.search(line):
                continue
            here = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
            above = raw_lines[lineno - 2] if lineno >= 2 else ""
            if (_waived(here, "rank-tol-literal")
                    or _waived(above, "rank-tol-literal")):
                continue
            findings.append(Finding(
                "rank-tol-literal", rel, lineno,
                "numeric-literal rank tolerance bypasses the shared "
                "resolveRankTol policy (svd.hpp); thread a rankTol "
                "parameter or pass the -1.0 policy sentinel (waive with "
                "`lint-ok: rank-tol-literal` on or directly above the "
                "line)"))
    return findings


def _kernel_decls(header_text: str) -> List[Tuple[str, str, int]]:
    """(base, suffix, line) for namespace-scope kernel declarations."""
    stripped = strip_comments_and_strings(header_text)
    decls = []
    for m in KERNEL_DECL_RE.finditer(stripped):
        line = stripped.count("\n", 0, m.start()) + 1
        decls.append((m.group(1), m.group(2), line))
    return decls


def check_oracle_rules(root: str) -> List[Finding]:
    linalg_dir = os.path.join(root, "src", "linalg")
    headers = [p for p in _cpp_files(root, (os.path.join("src", "linalg"),))
               if p.endswith((".hpp", ".h"))]
    if not os.path.isdir(linalg_dir):
        return []

    tests_text = ""
    for path in _cpp_files(root, ("tests",)):
        tests_text += _read(path)

    findings = []
    for path in headers:
        decls = _kernel_decls(_read(path))
        oracles = {base for base, suffix, _ in decls
                   if suffix in ("Unblocked", "Reference")}
        for base, suffix, line in decls:
            name = base + suffix
            if suffix == "Blocked":
                if base not in oracles:
                    findings.append(Finding(
                        "oracle-pairing", _rel(root, path), line,
                        f"blocked kernel `{name}` has no named unblocked "
                        f"oracle (`{base}Unblocked` or `{base}Reference`) "
                        "declared in the same header; every blocked kernel "
                        "needs an oracle for the equivalence tests"))
            else:
                if not re.search(r"\b" + re.escape(name) + r"\b", tests_text):
                    findings.append(Finding(
                        "oracle-test-coverage", _rel(root, path), line,
                        f"oracle `{name}` is never referenced in tests/; an "
                        "oracle nothing tests against guards nothing"))
    return findings


def check_tsan_supp_clean(root: str) -> List[Finding]:
    path = os.path.join(root, "tools", "tsan.supp")
    if not os.path.isfile(path):
        return []
    project_frame = re.compile(r"src/|tests/|shhpass", re.IGNORECASE)
    findings = []
    for lineno, line in enumerate(_read(path).splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        if project_frame.search(body):
            findings.append(Finding(
                "tsan-supp-clean", _rel(root, path), lineno,
                "tsan.supp suppresses a project-owned frame; fix the race "
                "instead of suppressing it"))
    return findings


CHECKS = (
    check_no_unordered_iteration,
    check_no_std_distribution,
    check_no_throw_in_api,
    check_oracle_rules,
    check_no_reinterpret_cast,
    check_rank_tol_literal,
    check_tsan_supp_clean,
    check_no_raw_clock,
    check_one_fig1_chain,
    check_kernel_layering,
    check_isa_dispatch_in_blas,
    check_kernel_pool_in_blas,
)


def run(root: str) -> List[Finding]:
    root = os.path.abspath(root)
    findings: List[Finding] = []
    for check in CHECKS:
        findings += check(root)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="shhpass project-invariant linter (see module docstring)")
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule ids and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULE_IDS:
            print(rule)
        return 0

    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"lint_invariants: no src/ under {args.root}", file=sys.stderr)
        return 2

    findings = run(args.root)
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    if findings:
        counts: Dict[str, int] = {}
        for f in findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        summary = ", ".join(f"{rule}: {n}" for rule, n in sorted(counts.items()))
        print(f"lint_invariants: FAILED ({len(findings)} finding(s) — {summary})")
        return 1
    print("lint_invariants: OK (all project invariants hold)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
