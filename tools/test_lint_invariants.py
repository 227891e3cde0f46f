#!/usr/bin/env python3
"""Unit tests for tools/lint_invariants.py (stdlib-only, plain asserts).

Builds a fixture tree that violates each rule EXACTLY ONCE, asserts each
rule fires exactly once and points at the planted line, asserts the
comment/string stripper and the waiver mechanism mask non-violations,
and finally asserts the real repository tree is clean. Wired into ctest
as `lint_invariants_selftest` and into the CI `lint` job.
"""

import collections
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lint_invariants  # noqa: E402


def write(root, rel, text):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return rel.replace(os.sep, "/")


def build_fixture_tree(root):
    """One violation per rule, plus decoys that must NOT fire."""
    planted = {}

    # no-unordered-iteration: one real use; a comment, a string, and a
    # waived line must all be ignored.
    planted["no-unordered-iteration"] = (write(root, "src/core/bad_map.cpp", """
#include <unordered_map>
// std::unordered_map in a comment is fine
const char* kDoc = "std::unordered_map in a string is fine";
std::unordered_map<int, int> gWaived;  // lint-ok: no-unordered-iteration
std::unordered_map<int, int> gBad;
"""), 6)

    # no-std-distribution: one use in tests/.
    planted["no-std-distribution"] = (write(root, "tests/bad_random.cpp", """
#include <random>
// std::uniform_real_distribution named in a comment is fine
std::uniform_real_distribution<double> gBadDist;
"""), 4)

    # no-throw-in-api: a throw outside status.cpp fires; the same
    # statement inside status.cpp (the translate boundary) is exempt, and
    # comment/string mentions are ignored.
    planted["no-throw-in-api"] = (write(root, "src/api/bad_api.cpp", """
#include <stdexcept>
// Jobs must not throw — this comment is fine.
const char* kMsg = "never throw here";  // string is fine
void f() { throw std::runtime_error("boundary violation"); }
"""), 5)
    write(root, "src/api/status.cpp", """
#include <stdexcept>
void translate() { throw; }  // the one legitimate rethrow boundary
""")

    # oracle-pairing: fooBlocked has no fooUnblocked/fooReference.
    # barBlocked IS paired with barUnblocked, so it must not fire — but
    # barUnblocked is never referenced under tests/, so
    # oracle-test-coverage fires exactly once instead. quxReference is
    # referenced by the fixture test file, so it stays clean. Indented
    # (class-member) declarations are out of scope.
    bad_kernel = write(root, "src/linalg/bad_kernel.hpp", """
#pragma once
void fooBlocked(int n);
void barBlocked(int n);
void barUnblocked(int n);
int quxReference(int n);
class Solver {
 public:
  void factorBlocked();    // member: ignored by the namespace-scope rule
  void factorUnblocked();  // member: ignored
};
""")
    planted["oracle-pairing"] = (bad_kernel, 3)
    planted["oracle-test-coverage"] = (bad_kernel, 5)
    write(root, "tests/test_kernels.cpp", """
int quxReference(int n);
int main() { return quxReference(3); }
""")

    # no-reinterpret-cast: one bare use fires; the vetted-SIMD waiver
    # masks the other.
    planted["no-reinterpret-cast"] = (write(root, "src/linalg/bad_cast.cpp", """
void f(void* q) {
  double* ok = reinterpret_cast<double*>(q);  // lint-ok: no-reinterpret-cast (simd-microkernel)
  double* bad = reinterpret_cast<double*>(q);
  (void)ok; (void)bad;
}
"""), 4)

    # rank-tol-literal: one bare literal tolerance fires; the -1.0 policy
    # sentinel, a named tolerance, same-line and previous-line waivers,
    # and the src/linalg/svd.cpp policy implementation are all exempt.
    planted["rank-tol-literal"] = (write(root, "src/core/bad_rank.cpp", """
struct S { int rank(double, void* = 0); int nullspace(double); };
int a = S().rank(-1.0);                   // policy sentinel: fine
int b = S().nullspace(gTol);              // named tolerance: fine
int c = S().rank(1e-8);  // lint-ok: rank-tol-literal
// tolerance documented here  lint-ok: rank-tol-literal
int d = S().nullspace(1e-9);
int bad = S().rank(3e-10);
"""), 8)
    write(root, "src/linalg/svd.cpp", """
std::size_t rank(const Matrix& a, double tol = -1.0);
std::size_t r = rank(a, 1e-12);  // policy implementation: exempt
""")

    # no-raw-clock: a direct clock read in src/ fires; the same call in
    # src/obs/ (the sanctioned site), in bench/, a comment mention, and a
    # waived line all stay clean.
    planted["no-raw-clock"] = (write(root, "src/core/bad_clock.cpp", """
#include <chrono>
// std::chrono::steady_clock::now() in a comment is fine
auto w = std::chrono::steady_clock::now();  // lint-ok: no-raw-clock
auto bad = std::chrono::high_resolution_clock::now();
"""), 5)
    write(root, "src/obs/clock.cpp", """
#include <chrono>
auto t = std::chrono::steady_clock::now();  // the sanctioned site
""")
    write(root, "bench/bench_timing.cpp", """
#include <chrono>
auto t0 = std::chrono::steady_clock::now();  // bench/ is out of scope
""")

    # one-fig1-chain: a hand-wired deflateImpulseModes( call fires; the
    # pipeline stage table, the stage's own definition, and a comment
    # mention stay clean.
    planted["one-fig1-chain"] = (write(root, "src/core/bad_chain.cpp", """
// deflateImpulseModes(phi) in a comment is fine
void reduce(const Phi& phi) {
  auto s1 = deflateImpulseModes(phi, -1.0);
}
"""), 4)
    write(root, "src/api/pipeline.cpp", """
void stage(State& s) { s.d = core::deflateImpulseModes(s.phi, s.tol); }
""")
    write(root, "src/core/impulse_deflation.cpp", """
Result deflateImpulseModes(const Phi& phi, double rankTol) { return {}; }
""")

    # tsan-supp-clean: a project-owned suppression fires; comments and a
    # third-party suppression do not.
    planted["tsan-supp-clean"] = (write(root, "tools/tsan.supp", """\
# comment mentioning src/ is fine
race:third_party_lib_frame
race:shhpass::linalg::ThreadPool::workerLoop
"""), 3)

    # kernel-layering: a src/linalg include of an upper layer fires; the
    # linalg/ and obs/ includes, a system header, a commented-out include,
    # a waived line, and the same include outside the kernel layer stay
    # clean.
    planted["kernel-layering"] = (write(root, "src/linalg/bad_layer.cpp", """
#include <vector>
#include "linalg/matrix.hpp"
#include "obs/trace.hpp"
// #include "api/thread_pool.hpp" in a comment is fine
#include "core/waived.hpp"  // lint-ok: kernel-layering
#include "api/thread_pool.hpp"
"""), 7)
    write(root, "src/obs/good_obs.cpp", """
#include "obs/clock.hpp"
""")
    write(root, "src/core/uses_api.cpp", """
#include "api/status.hpp"
""")

    # isa-dispatch-in-blas: a target attribute outside blas.cpp fires;
    # the intrinsics header, the attribute and the CPU query inside
    # src/linalg/blas.cpp, a comment, a string and a waived line stay
    # clean.
    planted["isa-dispatch-in-blas"] = (write(root, "src/linalg/bad_isa.cpp", """
// __builtin_cpu_supports("avx2") named in a comment is fine
const char* kDoc = "__attribute__((target(\\"avx2\\")))";
#include <immintrin.h>  // lint-ok: isa-dispatch-in-blas
__attribute__((target("avx512f"))) void kernel();
"""), 5)
    write(root, "src/linalg/blas.cpp", """
#include <immintrin.h>
#include "linalg/thread_pool.hpp"
__attribute__((target("avx2,fma"))) void kernel();
bool f() { return __builtin_cpu_supports("avx2"); }
""")

    # kernel-pool-in-blas: a kernel file other than blas.cpp including the
    # pool fires; the pool's own .cpp, blas.cpp (above), a test, a
    # comment, a string and a waived line stay clean.
    planted["kernel-pool-in-blas"] = (write(
        root, "src/linalg/bad_pool.cpp", """
// #include "linalg/thread_pool.hpp" in a comment is fine
const char* kDoc = "#include \\"linalg/thread_pool.hpp\\"";
#include "linalg/thread_pool.hpp"  // lint-ok: kernel-pool-in-blas
#include "linalg/thread_pool.hpp"
"""), 5)
    write(root, "src/linalg/thread_pool.cpp", """
#include "linalg/thread_pool.hpp"
""")
    write(root, "tests/test_pool.cpp", """
#include "linalg/thread_pool.hpp"
""")

    return planted


def test_fixture_tree():
    with tempfile.TemporaryDirectory() as root:
        planted = build_fixture_tree(root)
        findings = lint_invariants.run(root)

        by_rule = collections.Counter(f.rule for f in findings)
        for rule in lint_invariants.RULE_IDS:
            assert by_rule[rule] == 1, (
                f"rule {rule}: expected exactly 1 finding, got "
                f"{by_rule[rule]}:\n" +
                "\n".join(str(f) for f in findings if f.rule == rule))
        assert len(findings) == len(lint_invariants.RULE_IDS), (
            "unexpected extra findings:\n" + "\n".join(map(str, findings)))

        for rule, (path, line) in planted.items():
            match = [f for f in findings if f.rule == rule][0]
            assert match.path == path, f"{rule}: fired in {match.path}, planted in {path}"
            assert match.line == line, f"{rule}: fired at line {match.line}, planted at {line}"
    print("PASS: each rule fires exactly once, at the planted line")


def test_library_rules_scan_baselines():
    """Every rule scoped to src/ as a whole fires in baselines/ too."""
    with tempfile.TemporaryDirectory() as root:
        path = write(root, "baselines/bad_baseline.cpp", """
#include <chrono>
#include <random>
#include <unordered_map>
std::unordered_map<int, int> gBad;
std::normal_distribution<double> gBadDist;
auto bad = std::chrono::steady_clock::now();
int r = S().rank(1e-10);
void reduce(const Phi& phi) { auto s1 = deflateImpulseModes(phi, -1.0); }
""")
        findings = lint_invariants.run(root)
        got = sorted((f.rule, f.path, f.line) for f in findings)
        want = sorted([
            ("no-unordered-iteration", path, 5),
            ("no-std-distribution", path, 6),
            ("no-raw-clock", path, 7),
            ("rank-tol-literal", path, 8),
            ("one-fig1-chain", path, 9),
        ])
        assert got == want, f"expected {want}, got {got}"
    print("PASS: src-wide rules also scan baselines/")


def test_fig1_chain_scans_bench_and_examples():
    """one-fig1-chain also fires in bench/ and examples/; tests/ and
    perfbench/ stay out of scope, and a waived kernel-row line is clean."""
    with tempfile.TemporaryDirectory() as root:
        chain = "void f(const Phi& p) { auto s1 = deflateImpulseModes(p); }\n"
        bench = write(root, "bench/bench_bad.cpp", "\n" + chain + """
auto row = core::deflateImpulseModes(phi);  // lint-ok: one-fig1-chain
""")
        example = write(root, "examples/bad_example.cpp", chain)
        write(root, "perfbench/replay.cpp", chain)
        write(root, "tests/test_chain.cpp", chain)
        findings = lint_invariants.run(root)
        got = sorted((f.rule, f.path, f.line) for f in findings)
        want = sorted([
            ("one-fig1-chain", bench, 2),
            ("one-fig1-chain", example, 1),
        ])
        assert got == want, f"expected {want}, got {got}"
    print("PASS: one-fig1-chain also scans bench/ and examples/")


def test_rank_tol_literal_flags_lu_pivot_cutoffs():
    """rank-tol-literal also fires on an LU pivot test with a literal
    cutoff; the exact-pivot default, a named tolerance and a waived line
    stay clean."""
    with tempfile.TemporaryDirectory() as root:
        path = write(root, "src/core/bad_pivot.cpp", """
struct LU { bool isSingular(double tol = 0) const; };
bool c = LU().isSingular(1e-12);  // lint-ok: rank-tol-literal
bool a = LU().isSingular();
bool b = LU().isSingular(gTol);
bool bad = LU().isSingular(1e-10);
""")
        findings = lint_invariants.run(root)
        got = sorted((f.rule, f.path, f.line) for f in findings)
        want = [("rank-tol-literal", path, 6)]
        assert got == want, f"expected {want}, got {got}"
    print("PASS: rank-tol-literal flags literal LU pivot cutoffs")


def test_isa_dispatch_scans_every_tree():
    """isa-dispatch-in-blas fires in tests/, bench/, examples/ and
    perfbench/ too, for each of its spellings."""
    with tempfile.TemporaryDirectory() as root:
        t = write(root, "tests/test_isa.cpp",
                  "bool f() { return __builtin_cpu_supports(\"fma\"); }\n")
        b = write(root, "bench/bench_isa.cpp", "#include <x86intrin.h>\n")
        e = write(root, "examples/isa.cpp",
                  "[[gnu::target(\"avx2\")]] void g();\n")
        p = write(root, "perfbench/isa.cpp", "#include < immintrin.h >\n")
        findings = lint_invariants.run(root)
        got = sorted((f.rule, f.path, f.line) for f in findings)
        want = sorted(("isa-dispatch-in-blas", path, 1)
                      for path in (t, b, e, p))
        assert got == want, f"expected {want}, got {got}"
    print("PASS: isa-dispatch-in-blas scans every C++ tree")


def test_kernel_pool_scans_every_tree():
    """kernel-pool-in-blas fires in baselines/, bench/, examples/ and
    perfbench/ too, for both include spellings; tests/ stays exempt."""
    with tempfile.TemporaryDirectory() as root:
        inc = '#include "linalg/thread_pool.hpp"\n'
        paths = [write(root, "baselines/pool.cpp", inc),
                 write(root, "bench/bench_pool.cpp", inc),
                 write(root, "examples/pool.cpp",
                       "#  include <linalg/thread_pool.hpp>\n"),
                 write(root, "perfbench/pool.cpp", inc)]
        write(root, "tests/test_pool.cpp", inc)
        findings = lint_invariants.run(root)
        got = sorted((f.rule, f.path, f.line) for f in findings)
        want = sorted(("kernel-pool-in-blas", path, 1) for path in paths)
        assert got == want, f"expected {want}, got {got}"
    print("PASS: kernel-pool-in-blas scans every tree but tests/")


def test_stripper():
    strip = lint_invariants.strip_comments_and_strings
    assert "throw" not in strip("// may throw\nint x;")
    assert "throw" not in strip("/* throw\n throw */ int x;")
    assert "throw" not in strip('const char* s = "throw";')
    assert "throw" in strip('int f() { throw 1; }')
    # Positions are preserved so line numbers stay meaningful.
    assert strip("abc // x\ndef").count("\n") == 1
    assert strip('a = "q\\"w"; throw;').endswith("throw;")
    print("PASS: comment/string stripper")


def test_clean_tree_has_no_findings():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    findings = lint_invariants.run(repo)
    assert not findings, (
        "the real tree must lint clean:\n" + "\n".join(map(str, findings)))
    print("PASS: repository tree is invariant-clean")


def main():
    test_stripper()
    test_fixture_tree()
    test_library_rules_scan_baselines()
    test_fig1_chain_scans_bench_and_examples()
    test_rank_tol_literal_flags_lu_pivot_cutoffs()
    test_isa_dispatch_scans_every_tree()
    test_kernel_pool_scans_every_tree()
    test_clean_tree_has_no_findings()
    print("lint_invariants self-test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
