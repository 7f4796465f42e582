#!/usr/bin/env python3
"""kc_lint: the repo's determinism-contract lint.

The reproduction's central promise is that every execution mode emits
bit-identical reports from the same seed (ROADMAP "determinism
contract"). Most ways to break that promise are invisible to the
compiler: a stray wall-clock read, an unordered-container iteration
that leaks hash order into report bytes, an FMA contraction in a SIMD
kernel. This lint encodes those rules as grep-grade checks over src/
plus a flag audit over compile_commands.json, so a violation fails the
test suite (ctest: kc_lint_src) and CI, not a code review.

Rules (each can be waived per-line, with a written reason):

  entropy        std::random_device / rand() / srand() / drand48() are
                 banned outside the sanctioned modules (src/rng/).
                 All randomness must flow from the request seed.
  wallclock      system_clock, gettimeofday, time(...), CLOCK_REALTIME
                 and high_resolution_clock (unspecified alias) are
                 banned in src/. steady_clock and the thread CPU clock
                 (exec/cpu_clock.hpp) are the sanctioned time sources.
  unordered-iter std::unordered_* containers are banned in TUs that
                 emit report/trace bytes (harness/, svc/, mapreduce/,
                 api/, cli/): iteration order is hash-seed dependent
                 and would leak into the byte-identity surface.
  memory-order   every non-seq_cst atomic order (memory_order_relaxed
                 or memory_order::relaxed, and likewise acquire,
                 release, acq_rel, consume) must carry a rationale
                 comment (same line or within the three lines above)
                 saying why the weaker order is sound.
  raw-kernel     KernelTable, active_kernels( and kernels_for( are
                 banned outside src/geom/: a scan that calls the kernel
                 tables directly bypasses DistanceOracle's budget,
                 cancellation and pruning gates.
  grid-internals spatial_index(), grid_cell_key, grid_coord,
                 cell_begin(, cell_size(, cell_lo( and cell_hi( are
                 banned outside src/geom/: how the grid orders, bounds
                 and snaps points is geom's business. Whole-set scans go
                 through NearestSweep, CCM's coreset through
                 first_point_per_cell.
  fp-contract    every compile command carrying an ISA flag (-mavx2 /
                 -mavx512f) must also carry -ffp-contract=off, so SIMD
                 kernels cannot FMA-contract away from the scalar
                 reference.
  guarded-by     in a class that owns a kc::compat::Mutex, mutable
                 members (trailing-underscore data members that are
                 not atomic/const/mutex/condvar) must be annotated
                 KC_GUARDED_BY or explicitly waived.
  tsa-optout     KC_NO_THREAD_SAFETY_ANALYSIS needs a written reason
                 (comment within the three lines above).
  waiver-expired an expiring waiver whose PR deadline has passed; the
                 debt comes due, fix the code or re-justify.

The rules match tokens, not types: an order hidden behind an alias, or
an unordered container iterated one call away from a report sink, goes
unseen. Lock ordering is not a lint rule; tools/lock_graph.py gates it
(ctest: kc_lock_order_graph).

Waiver grammar (the reason is mandatory; a bare waiver is itself an
error). A waiver may carry an expiry PR; once CHANGES.md says the repo
has reached that PR, the waiver turns into a `waiver-expired` finding:

    code();  // kc-lint: allow(wallclock) operator-facing log line only
    tmp();   // kc-lint: allow(guarded-by, until=PR14) migration shim

The current PR number is one past the highest `- PR <n>` entry in
CHANGES.md (a PR that left no entry does not slow the clock),
overridable with --current-pr.

Usage:
    tools/kc_lint.py --src src --compile-commands build/compile_commands.json
    tools/kc_lint.py --self-test tests/lint_fixtures
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from pathlib import Path

# --------------------------------------------------------------- findings


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------- waivers

WAIVER_RE = re.compile(
    r"//\s*kc-lint:\s*allow\((?P<rules>[\w\-, =]+)\)(?P<reason>.*)$")
UNTIL_RE = re.compile(r"^until=PR(\d+)$")
LEDGER_ENTRY_RE = re.compile(r"^- PR (\d+)\b")


def pr_from_ledger(text: str) -> int:
    """One past the highest `- PR <n>` entry line of a CHANGES.md
    ledger — the PR being built right now. PR numbers quoted inside an
    entry's prose do not count."""
    return max((int(m.group(1)) for ln in text.splitlines()
                if (m := LEDGER_ENTRY_RE.match(ln))), default=0) + 1


def current_pr_number(repo_root: Path) -> int | None:
    """pr_from_ledger over the repo's CHANGES.md; None (expiry
    unenforced) when the ledger is absent."""
    try:
        return pr_from_ledger((repo_root / "CHANGES.md").read_text())
    except OSError:
        return None


def parse_waivers(lines: list[str], path: Path, findings: list[Finding],
                  current_pr: int | None = None):
    """Maps 1-based line number -> set of waived rules for that line.

    A waiver on a pure comment line applies to the next code line.
    A waiver without a trailing reason is reported and ignored. An
    `until=PRn` term bounds the waiver's life: once the repo reaches
    PR n the waiver still suppresses its rules (one finding, not two)
    but reports `waiver-expired` so CI fails until the debt is paid
    down or the deadline re-justified.
    """
    waived: dict[int, set[str]] = {}
    for i, line in enumerate(lines, start=1):
        m = WAIVER_RE.search(line)
        if not m:
            continue
        terms = [t.strip() for t in m.group("rules").split(",") if t.strip()]
        rules: set[str] = set()
        expires: int | None = None
        malformed = False
        for term in terms:
            u = UNTIL_RE.match(term)
            if u:
                expires = int(u.group(1))
            elif "=" in term:
                malformed = True
            else:
                rules.add(term)
        if malformed:
            findings.append(Finding(
                path, i, "waiver",
                "malformed waiver term; the only keyword form is "
                "until=PR<n>"))
            continue
        if not m.group("reason").strip():
            findings.append(
                Finding(path, i, "waiver", "waiver without a written reason")
            )
            continue
        if expires is not None and current_pr is not None \
                and current_pr >= expires:
            findings.append(Finding(
                path, i, "waiver-expired",
                f"waiver for {', '.join(sorted(rules))} expired at "
                f"PR{expires} (now at PR{current_pr}); fix the code or "
                "re-justify with a later deadline"))
        target = i
        if line.strip().startswith("//"):  # comment-only line: waive the next line
            target = i + 1
        waived.setdefault(target, set()).update(rules)
    return waived


def is_comment_or_string(line: str, pos: int) -> bool:
    """True when pos sits inside a // comment or a double-quoted string."""
    comment = line.find("//")
    if comment != -1 and pos > comment:
        return True
    # Odd number of quotes before pos => inside a string literal.
    return (line[:pos].count('"') % 2) == 1


# ------------------------------------------------------------ line rules

ENTROPY_RE = re.compile(
    r"std::random_device|\brand\s*\(|\bsrand\s*\(|\bdrand48\s*\("
)
ENTROPY_SANCTIONED = ("src/rng/",)

WALLCLOCK_RE = re.compile(
    r"system_clock|high_resolution_clock|gettimeofday|CLOCK_REALTIME"
    r"|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
)

UNORDERED_RE = re.compile(r"std::unordered_\w+|#include\s*<unordered_")
# TUs whose bytes reach a report, trace, response or table. harness/
# renders tables and plots, svc/ encodes responses, mapreduce/ carries
# the JobTrace, api/ fills SolveReport, cli/ prints all of the above.
REPORT_DIRS = ("src/harness/", "src/svc/", "src/mapreduce/", "src/api/",
               "src/cli/")

MEMORY_ORDER_RE = re.compile(
    r"memory_order(?:_|::)(?:relaxed|acquire|release|acq_rel|consume)"
)

RAW_KERNEL_RE = re.compile(
    r"\bKernelTable\b|\bactive_kernels\s*\(|\bkernels_for\s*\(")
KERNEL_HOME = "src/geom/"

GRID_INTERNALS_RE = re.compile(
    r"\bspatial_index\s*\(\s*\)|\bgrid_cell_key\b|\bgrid_coord\b"
    r"|\bcell_(?:begin|size|lo|hi)\s*\(")

TSA_OPTOUT_RE = re.compile(r"KC_NO_THREAD_SAFETY_ANALYSIS")


def has_nearby_comment(lines: list[str], idx: int) -> bool:
    """A '//' comment on line idx (0-based) or within the 3 lines above."""
    line = lines[idx]
    if "//" in line or "/*" in line or "*/" in line:
        return True
    for back in range(1, 4):
        if idx - back < 0:
            break
        stripped = lines[idx - back].strip()
        if stripped.startswith("//") or stripped.startswith("*") or \
                stripped.startswith("/*") or stripped.endswith("*/"):
            return True
    return False


def lint_lines(path: Path, rel: str, text: str, findings: list[Finding],
               current_pr: int | None = None):
    lines = text.splitlines()
    waived = parse_waivers(lines, path, findings, current_pr)

    def report(i: int, rule: str, message: str):
        if rule in waived.get(i, set()):
            return
        findings.append(Finding(path, i, rule, message))

    in_block_comment = False
    for i, line in enumerate(lines, start=1):
        # Cheap block-comment tracking: rules never need to fire inside
        # documentation, and the determinism patterns are rare enough
        # that a line both opening and closing /* */ around a match is
        # not a case worth engineering for.
        stripped = line.strip()
        if in_block_comment:
            if "*/" in line:
                in_block_comment = False
            continue
        if stripped.startswith("/*") and "*/" not in line:
            in_block_comment = True
            continue

        m = ENTROPY_RE.search(line)
        if m and not is_comment_or_string(line, m.start()):
            if not any(rel.startswith(p) for p in ENTROPY_SANCTIONED):
                report(i, "entropy",
                       f"ambient entropy '{m.group(0).strip()}' outside "
                       "src/rng/; derive randomness from the request seed")

        m = WALLCLOCK_RE.search(line)
        if m and not is_comment_or_string(line, m.start()):
            report(i, "wallclock",
                   f"wall-clock source '{m.group(0).strip()}'; use "
                   "steady_clock or exec/cpu_clock.hpp")

        m = UNORDERED_RE.search(line)
        if m and not is_comment_or_string(line, m.start()):
            if any(rel.startswith(p) for p in REPORT_DIRS):
                report(i, "unordered-iter",
                       "unordered container in a report/trace-emitting TU; "
                       "iteration order would leak hash order into report "
                       "bytes — use a sorted or insertion-ordered container")

        m = MEMORY_ORDER_RE.search(line)
        if m and not is_comment_or_string(line, m.start()):
            if not has_nearby_comment(lines, i - 1):
                report(i, "memory-order",
                       f"'{m.group(0)}' without a rationale comment; say "
                       "why the weaker ordering is sound (same line or the "
                       "3 lines above)")

        m = RAW_KERNEL_RE.search(line)
        if m and not is_comment_or_string(line, m.start()):
            if not rel.startswith(KERNEL_HOME):
                report(i, "raw-kernel",
                       f"raw kernel-table access '{m.group(0).strip()}' "
                       "outside src/geom/; route the scan through "
                       "DistanceOracle, which applies the budget, "
                       "cancellation and pruning gates")

        m = GRID_INTERNALS_RE.search(line)
        if m and not is_comment_or_string(line, m.start()):
            if not rel.startswith(KERNEL_HOME):
                report(i, "grid-internals",
                       f"grid internals '{m.group(0).strip()}' outside "
                       "src/geom/; run whole-set scans through "
                       "NearestSweep and snap through "
                       "first_point_per_cell")

        m = TSA_OPTOUT_RE.search(line)
        if m and not is_comment_or_string(line, m.start()) and \
                "define" not in line:
            if not has_nearby_comment(lines, i - 1):
                report(i, "tsa-optout",
                       "KC_NO_THREAD_SAFETY_ANALYSIS without a written "
                       "reason in the 3 lines above")


# -------------------------------------------------------- guarded-by rule

MUTEX_MEMBER_RE = re.compile(r"(?:kc::)?compat::Mutex\s+(\w+)\s*;")
# A data member in this codebase's style: trailing-underscore name,
# optionally initialized, declared on one line.
MEMBER_RE = re.compile(r"^\s+[\w:<>,\s\*&\[\]]+?\s[\*&]?(\w+_)\s*(?:=[^;]*|\{[^;]*\})?;")
MEMBER_EXEMPT_RE = re.compile(
    r"std::atomic|compat::Mutex|compat::CondVar|std::mutex|"
    r"std::condition_variable|\bstatic\b|\bconstexpr\b|^\s*const\b|"
    r"KC_GUARDED_BY|KC_PT_GUARDED_BY|\busing\b|\btypedef\b"
)


def lint_guarded_by(path: Path, text: str, findings: list[Finding]):
    """Flags trailing-underscore data members of mutex-owning classes
    that carry no KC_GUARDED_BY annotation.

    Heuristic, brace-depth based: a class is "mutex-owning" once a
    compat::Mutex member is seen at its depth. Multi-line declarations
    are joined on the annotation check by looking one line ahead.
    """
    lines = text.splitlines()
    # Waiver hygiene findings (bare reason, expiry) are already
    # reported by lint_lines over the same text; a scratch list keeps
    # them from being counted twice for headers.
    scratch: list[Finding] = []
    waived = parse_waivers(lines, path, scratch)

    depth = 0
    mutex_depths: set[int] = set()
    for i, line in enumerate(lines, start=1):
        code = line.split("//")[0]
        if MUTEX_MEMBER_RE.search(code):
            mutex_depths.add(depth + code.count("{") - code.count("}"))
        opening = code.count("{")
        closing = code.count("}")
        if depth in mutex_depths and closing > opening:
            mutex_depths.discard(depth)
        prev_depth = depth
        depth += opening - closing

        if prev_depth not in mutex_depths:
            continue
        m = MEMBER_RE.match(code)
        if not m:
            continue
        if MEMBER_EXEMPT_RE.search(code):
            continue
        # Function declarations also match MEMBER_RE when they return a
        # templated type; require no parentheses before the member name.
        if "(" in code:
            continue
        joined = code + (lines[i] if i < len(lines) else "")
        if "KC_GUARDED_BY" in joined:
            continue
        if "guarded-by" in waived.get(i, set()):
            continue
        findings.append(Finding(
            path, i, "guarded-by",
            f"member '{m.group(1)}' of a mutex-owning class has no "
            "KC_GUARDED_BY annotation (or waiver naming the discipline "
            "that protects it)"))


# ----------------------------------------------------- compile_commands

ISA_FLAGS = ("-mavx2", "-mavx512f")


def lint_compile_commands(db_path: Path, findings: list[Finding]):
    try:
        entries = json.loads(db_path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        findings.append(Finding(db_path, 0, "fp-contract",
                                f"cannot read compilation database: {err}"))
        return
    for entry in entries:
        command = entry.get("command") or " ".join(entry.get("arguments", []))
        if not any(flag in command for flag in ISA_FLAGS):
            continue
        if "-ffp-contract=off" not in command:
            findings.append(Finding(
                Path(entry.get("file", "?")), 0, "fp-contract",
                "SIMD TU compiled without -ffp-contract=off; FMA "
                "contraction would break scalar/SIMD bit-identity"))


# ----------------------------------------------------------------- driver


def lint_tree(src_root: Path, repo_root: Path,
              current_pr: int | None) -> list[Finding]:
    findings: list[Finding] = []
    for path in sorted(src_root.rglob("*")):
        if path.suffix not in (".cpp", ".hpp", ".h", ".cc"):
            continue
        rel = path.relative_to(repo_root).as_posix()
        text = path.read_text(encoding="utf-8", errors="replace")
        lint_lines(path, rel, text, findings, current_pr)
        if path.suffix in (".hpp", ".h"):
            lint_guarded_by(path, text, findings)
    return findings


EXPECT_RE = re.compile(r"//\s*expect:\s*([\w\-]+)")


def lint_fixture(path: Path, text: str,
                 current_pr: int | None) -> list[Finding]:
    """Lints a source fixture as if it lived in src/harness/, the
    strictest spot (a report-emitting directory outside src/geom/). A
    .json fixture is a compilation database for the flag audit."""
    findings: list[Finding] = []
    if path.suffix == ".json":
        lint_compile_commands(path, findings)
        return findings
    lint_lines(path, "src/harness/" + path.name, text, findings, current_pr)
    if path.suffix == ".hpp":
        lint_guarded_by(path, text, findings)
    return findings


def self_test(fixtures: Path, repo_root: Path) -> int:
    """good/ fixtures must lint clean; each bad/ fixture must produce
    exactly one finding per `// expect: <rule>` marker it carries, so
    every case in a fixture is asserted, not just its rule's first."""
    failures = 0
    good = sorted((fixtures / "good").glob("*"))
    bad = sorted((fixtures / "bad").glob("*"))
    if not good or not bad:
        print(f"kc_lint --self-test: no fixtures under {fixtures}",
              file=sys.stderr)
        return 1
    # Fixtures pin expiry behavior with far-off deadlines (until=PR3 is
    # always expired, until=PR9999 never is), so any current PR in the
    # repo's realistic lifetime asserts both sides. The real ledger
    # keeps the self-test honest about the derivation path too.
    current_pr = current_pr_number(repo_root) or 10
    # A ledger with gaps: PRs 3, 4 and 6 left no entry, and the prose
    # quotes later PR numbers. The counter must still read 8.
    gapped = ("- PR 1: first\n- PR 2: second\n\n"
              "- PR 5: fixes PR 9 and re-dates an until=PR30 waiver\n"
              "- PR 7: last\n")
    if pr_from_ledger(gapped) != 8:
        print(f"FAIL (ledger with gaps): read PR{pr_from_ledger(gapped)}, "
              "want PR8", file=sys.stderr)
        failures += 1
    for path in good + bad:
        if path.suffix not in (".cpp", ".hpp", ".json"):
            continue
        text = path.read_text()
        expected = Counter(EXPECT_RE.findall(text)) if path in bad \
            else Counter()
        findings = lint_fixture(path, text, current_pr)
        got = Counter(f.rule for f in findings)
        for rule in sorted(expected.keys() | got.keys()):
            if got[rule] == expected[rule]:
                continue
            print(f"FAIL: {path}: [{rule}] {got[rule]} finding(s), "
                  f"{expected[rule]} expected", file=sys.stderr)
            for f in findings:
                if f.rule == rule:
                    print(f"  {f}", file=sys.stderr)
            failures += 1
    if failures == 0:
        print(f"kc_lint --self-test: {len(good) + len(bad)} fixtures OK")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path("src"),
                        help="source tree to lint (default: src)")
    parser.add_argument("--compile-commands", type=Path, default=None,
                        help="compile_commands.json for the flag audit")
    parser.add_argument("--self-test", type=Path, default=None,
                        metavar="FIXTURES",
                        help="run against the fixture corpus and exit")
    parser.add_argument("--current-pr", type=int, default=None,
                        help="PR number for waiver expiry (default: "
                             "highest CHANGES.md `- PR <n>` entry + 1)")
    args = parser.parse_args(argv)

    repo_root = args.src.resolve().parent

    if args.self_test is not None:
        return self_test(args.self_test, repo_root)

    if not args.src.is_dir():
        print(f"kc_lint: no such source tree: {args.src}", file=sys.stderr)
        return 2

    current_pr = args.current_pr
    if current_pr is None:
        current_pr = current_pr_number(repo_root)

    findings = lint_tree(args.src.resolve(), repo_root, current_pr)
    if args.compile_commands is not None:
        lint_compile_commands(args.compile_commands, findings)

    for f in findings:
        print(f)
    if findings:
        print(f"kc_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("kc_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
