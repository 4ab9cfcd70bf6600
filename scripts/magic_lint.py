#!/usr/bin/env python3
"""magic_lint: project-invariant linter for the MAGIC source tree.

Enforces repo-wide invariants that clang-tidy and -Wthread-safety cannot
express (they are project conventions, not C++ rules):

  forward-contract   Every `Tensor X::forward` definition (each nn::Module,
                     the graph stages, DgcnnModel) opens with a shape
                     contract (MAGIC_SHAPE_CONTRACT* or check_shape_contract)
                     within the first few lines. Fails too when it matches
                     no definition under src/nn, so a rename cannot switch
                     it off silently.
  conv-op-contract   The graph-convolution operator zoo (src/nn/graph_conv*)
                     keeps the shape-contract-at-forward invariant on EVERY
                     operator forward, including the void-returning ones
                     that write into a slice of Z^{1:h} and that
                     forward-contract (which matches only `Tensor
                     X::forward`) cannot see. Fails too when it matches no
                     definition.
  mutex-annotation   No raw std::mutex member anywhere in src/ (util::Mutex
                     is the only allowed mutex type; it carries the
                     -Wthread-safety capability). Every util::Mutex
                     declaration must be named by at least one
                     MAGIC_GUARDED_BY(<name>) in the same file, or carry an
                     explicit `magic-lint: guards(<what>)` comment for the
                     rare mutex that guards something other than fields
                     (e.g. the stderr stream).
  guard-names        Every MAGIC_GUARDED_BY(<name>) whose argument is a plain
                     identifier must name a util::Mutex declared in the same
                     file — a typo'd guard name silently disables the
                     analysis for that member (guarded_by of an undeclared
                     symbol is an error only under Clang, and only when the
                     member is actually touched). Arguments that reach
                     through an object (`->`, `.`, `::`) are out of scope.
  no-endl            No std::endl in src/ (use '\\n'; flushing is explicit).
  no-naked-thread    No raw std::thread construction outside
                     util/join_thread.hpp: threads live in util::ThreadPool
                     or util::JoinThread so every thread is joined by
                     construction. (std::thread::hardware_concurrency and
                     std::this_thread remain allowed.)
  header-standalone  Every header under src/ compiles on its own
                     (-fsyntax-only), i.e. includes what it uses.
  simd-intrinsics    Raw vector intrinsics (_mm256_*/_mm_*, __m256/__m128
                     types, <immintrin.h>) appear only under
                     src/tensor/simd/ — everything else dispatches through
                     simd::KernelTable so the scalar build stays the
                     portable reference and ISA-specific code cannot leak
                     into shared translation units.
  no-mutable-state   No `mutable` data member under src/nn/ or src/magic/:
                     inference there is a const function of the weights and
                     a caller-owned InferenceWorkspace, and a mutable member
                     would be per-call state hidden behind const (a data
                     race once several threads score on one model).
  no-module-state    No class under src/nn/ that declares a forward has a
                     Tensor, Shape, util::Rng or vector-of-index/double/
                     Tensor data member unless it is `const`
                     (construction-time configuration); its weights are
                     Parameters. Whatever a forward must hand to its
                     backward goes on the caller's nn::Tape.
  one-protocol       The magicd wire protocol has one copy, serve::Session:
                     `case wire::Request::Kind::` labels appear only in
                     src/serve/session.cpp. A request-kind switch anywhere
                     else is a second protocol state machine.

Exit status: 0 = clean, 1 = findings, 2 = usage/environment error.

Usage:
  scripts/magic_lint.py [--root DIR] [--skip-headers] [--report FILE]
                        [--cxx COMPILER] [--rules r1,r2,...]
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path

ALL_RULES = (
    "forward-contract",
    "conv-op-contract",
    "mutex-annotation",
    "guard-names",
    "no-endl",
    "no-naked-thread",
    "header-standalone",
    "simd-intrinsics",
    "no-mutable-state",
    "no-module-state",
    "one-protocol",
)

# How many *effective* lines (code only — comments, blanks and preprocessor
# directives don't count) after the `forward(` signature may pass before the
# shape contract appears. Generous enough for a wrapped signature plus a
# guard clause or two (DgcnnModel's checked-build concurrency guard,
# nn::Linear's rank dispatch), tight enough that the contract stays part of
# the opening of the body.
CONTRACT_WINDOW_LINES = 10

CONTRACT_TOKENS = ("MAGIC_SHAPE_CONTRACT", "check_shape_contract")

# The one place raw std::thread construction is legal: the RAII wrapper.
NAKED_THREAD_ALLOWED = {"util/join_thread.hpp"}

# The one place a std::mutex member is legal: the capability wrapper itself.
STD_MUTEX_ALLOWED = {"util/mutex.hpp"}

# The one subtree where raw vector intrinsics are legal: the kernel TUs
# behind the runtime-dispatched simd::KernelTable.
SIMD_ALLOWED_PREFIX = "tensor/simd/"

# Subtrees whose const inference path must not hide per-call state.
CONST_INFERENCE_PREFIXES = ("nn/", "magic/")

# The one place the wire protocol switches on request kinds.
PROTOCOL_ALLOWED = {"serve/session.cpp"}


class Finding:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def render(self, root: Path) -> str:
        rel = self.path.relative_to(root) if self.path.is_absolute() else self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def iter_sources(src: Path, suffixes: tuple[str, ...]):
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in suffixes:
            yield path


def strip_line_comment(line: str) -> str:
    """Removes // comments (good enough: no multiline-comment code in src/)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def effective_window(lines: list[str], start: int, count: int) -> str:
    """The next `count` effective lines from `start`: code only, skipping
    blank lines, //-comment-only lines and preprocessor directives."""
    taken: list[str] = []
    for raw in lines[start:]:
        if len(taken) >= count:
            break
        code = strip_line_comment(raw).strip()
        if not code or code.startswith("#"):
            continue
        taken.append(raw)
    return "\n".join(taken)


def check_contract_openings(src: Path, rule: str, sig: re.Pattern,
                            scope: str, what: str) -> list[Finding]:
    """Every definition matching `sig` in a .cpp whose src-relative path
    starts with `scope` opens with a shape contract. A rule that matches no
    definition under src/nn has been switched off (e.g. by a rename) and
    fails as well."""
    findings = []
    matched_in_nn = 0
    for path in iter_sources(src, (".cpp",)):
        rel = path.relative_to(src).as_posix()
        if not rel.startswith(scope):
            continue
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            match = sig.search(strip_line_comment(line))
            if not match:
                continue
            if rel.startswith("nn/"):
                matched_in_nn += 1
            window = effective_window(lines, i, CONTRACT_WINDOW_LINES)
            if "magic-lint: no-contract(" in window:
                continue
            if not any(token in window for token in CONTRACT_TOKENS):
                findings.append(
                    Finding(
                        rule,
                        path,
                        i + 1,
                        f"{match.group(1)}::forward does not open with a shape "
                        f"contract ({what} within the first "
                        f"{CONTRACT_WINDOW_LINES} code lines)",
                    )
                )
    if matched_in_nn == 0:
        findings.append(
            Finding(
                rule,
                src / "nn",
                0,
                f"matched no forward definition under src/{scope or 'nn/'}: the "
                "entry points were renamed or moved, update the rule",
            )
        )
    return findings


def check_forward_contract(src: Path) -> list[Finding]:
    """Every `Tensor X::forward(` definition opens with a shape contract."""
    return check_contract_openings(
        src,
        "forward-contract",
        re.compile(r"\bTensor\s+(\w+)::forward\s*\("),
        "",
        "MAGIC_SHAPE_CONTRACT/check_shape_contract",
    )


def check_conv_op_contract(src: Path) -> list[Finding]:
    """Every operator forward in src/nn/graph_conv* opens with a shape
    contract. Unlike forward-contract this also covers the void-returning
    operator forwards: they write through a raw pointer into a slice of
    Z^{1:h}, so a missing contract there corrupts memory instead of
    throwing."""
    return check_contract_openings(
        src,
        "conv-op-contract",
        re.compile(r"\b(?:Tensor|void)\s+(\w+)::forward\s*\("),
        "nn/graph_conv",
        "every GraphConvOp forward must check its input",
    )


def check_mutex_annotation(src: Path) -> list[Finding]:
    findings = []
    std_mutex = re.compile(r"\bstd::(?:recursive_|timed_|shared_)?mutex\b")
    # A util::Mutex declaration: optional mutable, optional util::, a name.
    decl = re.compile(r"^\s*(?:mutable\s+)?(?:util::)?Mutex\s+(\w+)\s*;")
    for path in iter_sources(src, (".cpp", ".hpp")):
        rel = path.relative_to(src).as_posix()
        lines = path.read_text().splitlines()
        # Annotations only count in code — a MAGIC_GUARDED_BY inside a
        # comment must not satisfy the rule.
        code_text = "\n".join(strip_line_comment(l) for l in lines)
        for i, raw in enumerate(lines):
            line = strip_line_comment(raw)
            if std_mutex.search(line) and rel not in STD_MUTEX_ALLOWED:
                findings.append(
                    Finding(
                        "mutex-annotation",
                        path,
                        i + 1,
                        "raw std::mutex is invisible to -Wthread-safety; "
                        "use util::Mutex (src/util/mutex.hpp)",
                    )
                )
            match = decl.match(line)
            if not match or rel == "util/mutex.hpp":
                continue
            name = match.group(1)
            context = raw + ("" if i == 0 else lines[i - 1])
            if "magic-lint: guards(" in context:
                continue
            if f"MAGIC_GUARDED_BY({name})" not in code_text:
                findings.append(
                    Finding(
                        "mutex-annotation",
                        path,
                        i + 1,
                        f"util::Mutex '{name}' has no MAGIC_GUARDED_BY({name}) "
                        "field in this file (annotate what it protects, or "
                        "mark the declaration `// magic-lint: guards(<what>)`)",
                    )
                )
    return findings


def check_guard_names(src: Path) -> list[Finding]:
    """Every plain-identifier MAGIC_GUARDED_BY(name) names a Mutex declared
    in the same file. Complements mutex-annotation (which checks every mutex
    is *used* by some annotation): this direction catches the annotation
    whose argument no longer matches any mutex after a rename."""
    findings = []
    guard = re.compile(r"\bMAGIC_(?:PT_)?GUARDED_BY\(([^)]*)\)")
    decl = re.compile(r"^\s*(?:mutable\s+)?(?:util::)?Mutex\s+(\w+)\s*;")
    for path in iter_sources(src, (".cpp", ".hpp")):
        rel = path.relative_to(src).as_posix()
        if rel == "util/thread_annotations.hpp":  # the macro definitions
            continue
        lines = path.read_text().splitlines()
        declared = {
            m.group(1)
            for line in lines
            if (m := decl.match(strip_line_comment(line)))
        }
        for i, raw in enumerate(lines):
            code = strip_line_comment(raw)
            if code.lstrip().startswith("#"):
                continue
            for match in guard.finditer(code):
                arg = match.group(1).strip()
                # Guards that reach through an object are legitimate
                # (e.g. guarded by the enclosing class's mutex via a
                # pointer); the same-file check only applies to plain
                # identifiers.
                if not re.fullmatch(r"\w+", arg):
                    continue
                if arg not in declared:
                    findings.append(
                        Finding(
                            "guard-names",
                            path,
                            i + 1,
                            f"MAGIC_GUARDED_BY({arg}) names no util::Mutex "
                            "declared in this file — the guard is inert "
                            "(typo'd or renamed-away mutex?)",
                        )
                    )
    return findings


def check_no_endl(src: Path) -> list[Finding]:
    findings = []
    for path in iter_sources(src, (".cpp", ".hpp")):
        for i, raw in enumerate(path.read_text().splitlines()):
            if "std::endl" in strip_line_comment(raw):
                findings.append(
                    Finding(
                        "no-endl",
                        path,
                        i + 1,
                        "std::endl flushes implicitly; write '\\n' and flush "
                        "explicitly where needed",
                    )
                )
    return findings


def check_no_naked_thread(src: Path) -> list[Finding]:
    findings = []
    # std::thread as a type/constructor; std::thread::hardware_concurrency
    # (static member access) and std::this_thread do not match.
    naked = re.compile(r"\bstd::thread\b(?!\s*::)")
    for path in iter_sources(src, (".cpp", ".hpp")):
        rel = path.relative_to(src).as_posix()
        if rel in NAKED_THREAD_ALLOWED:
            continue
        for i, raw in enumerate(path.read_text().splitlines()):
            if naked.search(strip_line_comment(raw)):
                findings.append(
                    Finding(
                        "no-naked-thread",
                        path,
                        i + 1,
                        "raw std::thread has no join-by-construction guarantee;"
                        " use util::ThreadPool or util::JoinThread",
                    )
                )
    return findings


def check_simd_intrinsics(src: Path) -> list[Finding]:
    """Raw vector intrinsics live only under src/tensor/simd/."""
    findings = []
    # Intrinsic calls (_mm_add_pd, _mm256_fmadd_pd, ...), vector register
    # types (__m128, __m256d, ...), and the intrinsic headers.
    intrinsic = re.compile(
        r"\b(?:_mm\d*_\w+|__m\d{3}[a-z]*)\b"
        r"|#\s*include\s*<(?:immintrin|x86intrin|[a-z]+mmintrin)\.h>"
    )
    for path in iter_sources(src, (".cpp", ".hpp")):
        rel = path.relative_to(src).as_posix()
        if rel.startswith(SIMD_ALLOWED_PREFIX):
            continue
        for i, raw in enumerate(path.read_text().splitlines()):
            if intrinsic.search(strip_line_comment(raw)):
                findings.append(
                    Finding(
                        "simd-intrinsics",
                        path,
                        i + 1,
                        "raw vector intrinsics outside src/tensor/simd/; "
                        "dispatch through simd::KernelTable "
                        "(src/tensor/simd/kernels.hpp) instead",
                    )
                )
    return findings


def check_no_mutable_state(src: Path) -> list[Finding]:
    """No `mutable` data member under the const-inference subtrees. A member
    declaration starts its line with `mutable`; lambdas (`] mutable {`) do
    not match."""
    findings = []
    member = re.compile(r"^\s*mutable\b")
    for path in iter_sources(src, (".cpp", ".hpp")):
        rel = path.relative_to(src).as_posix()
        if not rel.startswith(CONST_INFERENCE_PREFIXES):
            continue
        for i, raw in enumerate(path.read_text().splitlines()):
            if member.match(strip_line_comment(raw)):
                findings.append(
                    Finding(
                        "no-mutable-state",
                        path,
                        i + 1,
                        "mutable member in the const inference path; keep "
                        "per-call state in the caller's InferenceWorkspace",
                    )
                )
    return findings


def check_no_module_state(src: Path) -> list[Finding]:
    """No per-call state in src/nn classes that declare a forward: a Tensor,
    Shape, util::Rng or std::vector of indices, doubles or Tensors data
    member must be `const`
    (construction-time configuration). Members are the declarations at the
    class body's own brace depth, so locals inside inline member functions
    do not count."""
    findings = []
    member = re.compile(
        r"^\s*(const\s+)?"
        r"(?:(?:tensor::)?(?:Tensor|Shape)|(?:util::)?Rng"
        r"|std::vector<\s*(?:(?:std::)?size_t|double|(?:tensor::)?Tensor)\s*>)"
        r"\s+(\w+)\s*(?:;|=|\{)"
    )
    class_open = re.compile(r"^\s*(?:class|struct)\s+(\w+)\b[^;]*$")
    for path in iter_sources(src, (".hpp",)):
        rel = path.relative_to(src).as_posix()
        if not rel.startswith("nn/"):
            continue
        depth = 0
        pending = None  # a class head whose `{` has not been seen yet
        classes = []    # open class bodies: [name, body depth, forward?, members]
        for i, raw in enumerate(path.read_text().splitlines()):
            code = strip_line_comment(raw)
            if classes and classes[-1][1] == depth:
                if re.search(r"\bforward\s*\(", code):
                    classes[-1][2] = True
                match = member.match(code)
                if match and not match.group(1):
                    classes[-1][3].append((i + 1, match.group(2)))
            head = class_open.match(code)
            if head:
                pending = head.group(1)
            for ch in code:
                if ch == "{":
                    depth += 1
                    if pending is not None:
                        classes.append([pending, depth, False, []])
                        pending = None
                elif ch == "}":
                    if classes and classes[-1][1] == depth:
                        name, _, has_forward, members = classes.pop()
                        if has_forward:
                            for line, field in members:
                                findings.append(
                                    Finding(
                                        "no-module-state",
                                        path,
                                        line,
                                        f"{name}::{field} is per-call state in a "
                                        "module: put what backward needs on the "
                                        "caller's nn::Tape (or make the member "
                                        "const construction-time configuration)",
                                    )
                                )
                    depth -= 1
    return findings


def check_one_protocol(src: Path) -> list[Finding]:
    """Request-kind case labels live only in serve::Session."""
    findings = []
    label = re.compile(r"\bcase\s+(?:\w+::)*Request::Kind::")
    for path in iter_sources(src, (".cpp", ".hpp")):
        rel = path.relative_to(src).as_posix()
        if rel in PROTOCOL_ALLOWED:
            continue
        for i, raw in enumerate(path.read_text().splitlines()):
            if label.search(strip_line_comment(raw)):
                findings.append(
                    Finding(
                        "one-protocol",
                        path,
                        i + 1,
                        "request-kind switch outside serve::Session "
                        "(src/serve/session.cpp): run the stream through a "
                        "Session instead of a second protocol copy",
                    )
                )
    return findings


def check_header_standalone(src: Path, cxx: str) -> list[Finding]:
    findings = []
    for path in iter_sources(src, (".hpp",)):
        cmd = [
            cxx,
            "-std=c++20",
            "-fsyntax-only",
            "-x", "c++",
            "-I", str(src),
            str(path),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            first = proc.stderr.strip().splitlines()
            detail = first[0] if first else "compiler error"
            findings.append(
                Finding(
                    "header-standalone",
                    path,
                    1,
                    f"header does not compile standalone: {detail}",
                )
            )
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None, help="repo root (default: script's parent's parent)")
    parser.add_argument("--skip-headers", action="store_true",
                        help="skip the (slower) header-standalone compile checks")
    parser.add_argument("--report", default=None, help="also write findings to this file")
    parser.add_argument("--cxx", default="c++", help="compiler for header-standalone (default: c++)")
    parser.add_argument("--rules", default=",".join(ALL_RULES),
                        help="comma-separated subset of rules to run")
    args = parser.parse_args()

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    src = root / "src"
    if not src.is_dir():
        print(f"magic_lint: no src/ under {root}", file=sys.stderr)
        return 2

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    unknown = [r for r in rules if r not in ALL_RULES]
    if unknown:
        print(f"magic_lint: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    if "forward-contract" in rules:
        findings += check_forward_contract(src)
    if "conv-op-contract" in rules:
        findings += check_conv_op_contract(src)
    if "mutex-annotation" in rules:
        findings += check_mutex_annotation(src)
    if "guard-names" in rules:
        findings += check_guard_names(src)
    if "no-endl" in rules:
        findings += check_no_endl(src)
    if "no-naked-thread" in rules:
        findings += check_no_naked_thread(src)
    if "simd-intrinsics" in rules:
        findings += check_simd_intrinsics(src)
    if "no-mutable-state" in rules:
        findings += check_no_mutable_state(src)
    if "no-module-state" in rules:
        findings += check_no_module_state(src)
    if "one-protocol" in rules:
        findings += check_one_protocol(src)
    if "header-standalone" in rules and not args.skip_headers:
        findings += check_header_standalone(src, args.cxx)

    lines = [f.render(root) for f in findings]
    report = "\n".join(lines)
    if args.report:
        Path(args.report).write_text(
            (report + "\n") if report else "magic_lint: clean\n"
        )
    if findings:
        print(report)
        print(f"magic_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"magic_lint: clean ({len(rules)} rule(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
