#!/usr/bin/env python3
"""lock_graph: the repo's lock-order deadlock gate.

Deadlock by lock-order inversion is a *global* property: TU A may only
ever take `state_mutex_` then `deadline_mutex_`, TU B only the reverse,
and no per-TU analysis (Clang TSA included) can see the conflict. This
tool reads the sources of the concurrent core and derives, per
function, which mutexes are held when another is acquired and which
calls happen under a lock. It understands the repo's locking idiom
(compat::LockGuard / compat::MutexLock guards, KC_REQUIRES on the
definition, MutexLock::unlock() mid-scope) and nothing else. It
follows unqualified and this-> calls, and `recv->m()` / `recv.m()`
when recv is declared in the scanned sources as T, T*, T&,
std::unique_ptr<T> or std::shared_ptr<T> of a scanned class T that
defines an acquiring m; other receivers share only a name. It joins
those facts into one lock-order graph, closes the graph over the call
facts (an edge A -> B also exists when a function is called with A held
and that function, transitively, may acquire B), fails on any cycle
within or across TUs, and renders the graph as DOT.

Subcommands:
    gate      build the graph over --src, write --dot, exit 1 on a cycle
              (ctest: kc_lock_order_graph)
    selftest  the fixtures under --corpus: each bad/ case must cycle on
              its own, good/ must not (ctest: kc_lock_order_corpus_selftest)

Usage:
    lock_graph.py gate --src src/svc src/exec src/fault --repo-root . \
        --dot build/lock_order.dot
    lock_graph.py selftest --corpus tests/lint_fixtures/lock_order
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# ------------------------------------------------------------------ facts


class Acquisition:
    def __init__(self, function: str, mutex: str, held: list[str],
                 line: int):
        self.function = function
        self.mutex = mutex
        self.held = held
        self.line = line


class Call:
    def __init__(self, function: str, callee: str, held: list[str],
                 line: int):
        self.function = function
        self.callee = callee
        self.held = held
        self.line = line


class Facts:
    def __init__(self):
        self.acquisitions: list[Acquisition] = []
        self.calls: list[Call] = []


# ------------------------------------------------------- fact extraction
#
# Understands exactly the locking idiom the repo enforces elsewhere (one
# guard declaration per line, mutex members named in the declaration,
# KC_REQUIRES on the definition) and is deliberately dumb about
# everything else.

GUARD_RE = re.compile(
    r"\bcompat::(?:LockGuard|MutexLock)\s+(\w+)\s*[({]\s*([\w.&>\[\]\-]+(?:\(\))?)\s*[)}]")
REQUIRES_RE = re.compile(r"KC_REQUIRES\(([^)]*)\)")
CLASS_RE = re.compile(r"^\s*(?:class|struct)\s+(?:KC_\w+\(\"?\w*\"?\)\s+)?(\w+)[^;]*$")
MUTEX_DECL_RE = re.compile(r"(?:kc::)?compat::Mutex\s+(\w+)\s*;")
# A function definition header: optional template/qualifiers, a name
# (possibly Class::name) directly before the parameter list. Matched on
# the joined declaration line once its opening brace arrives.
FUNC_NAME_RE = re.compile(r"([\w~]+(?:::[\w~]+)*)\s*\($")
UNLOCK_RE = re.compile(r"\b(\w+)\.unlock\(\)")
# A declaration as T, T*, T&, std::unique_ptr<T> or std::shared_ptr<T>:
# group 1 or 2 is T (possibly not a class), group 3 the declared name.
DECL_RE = re.compile(
    r"(?:\bstd::(?:unique_ptr|shared_ptr)<\s*(?:const\s+)?(?:\w+::)*(\w+)\s*>"
    r"|\b(?:\w+::)*(\w+))\s*[*&]?\s*([A-Za-z_]\w*)\s*[;=,(){\[]")


def strip_comments(text: str) -> str:
    """Removes // and /* */ comments and string literal contents while
    preserving line structure (so reported line numbers stay real)."""
    out = []
    i = 0
    n = len(text)
    mode = None  # None | "line" | "block" | "str" | "chr"
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if ch == "/" and nxt == "/":
                mode = "line"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                mode = "block"
                i += 2
                continue
            if ch == '"':
                mode = "str"
                out.append(ch)
                i += 1
                continue
            if ch == "'":
                mode = "chr"
                out.append(ch)
                i += 1
                continue
            out.append(ch)
        elif mode == "line":
            if ch == "\n":
                mode = None
                out.append(ch)
        elif mode == "block":
            if ch == "*" and nxt == "/":
                mode = None
                i += 2
                continue
            if ch == "\n":
                out.append(ch)
        elif mode == "str":
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                mode = None
                out.append(ch)
            elif ch == "\n":  # unterminated; bail to code mode
                mode = None
                out.append(ch)
        elif mode == "chr":
            if ch == "\\":
                i += 2
                continue
            if ch == "'":
                mode = None
                out.append(ch)
            elif ch == "\n":
                mode = None
                out.append(ch)
        i += 1
    return "".join(out)


class MutexIndex:
    """Maps mutex member names to their canonical Owner::name form.

    Built by a whole-tree pre-pass over class/struct scopes. Ambiguous
    bare names (two classes both own a member `mutex`) are resolved by
    preferring an owner declared in the same file stem as the use.
    """

    def __init__(self):
        self.by_name: dict[str, list[tuple[str, str]]] = {}  # name -> [(owner, file)]

    def scan(self, path: Path, text: str):
        class_stack: list[tuple[str, int]] = []  # (name, depth at open)
        depth = 0
        pending_class: str | None = None
        for line in text.splitlines():
            m = CLASS_RE.match(line)
            if m and "{" not in line and ";" not in line:
                pending_class = m.group(1)
            opens = line.count("{")
            closes = line.count("}")
            if opens:
                name = None
                if m and "{" in line:
                    name = m.group(1)
                elif pending_class is not None:
                    name = pending_class
                if name is not None:
                    class_stack.append((name, depth))
                    pending_class = None
            dm = MUTEX_DECL_RE.search(line)
            if dm and class_stack:
                owner = class_stack[-1][0]
                self.by_name.setdefault(dm.group(1), []).append(
                    (owner, path.stem))
            depth += opens - closes
            while class_stack and depth <= class_stack[-1][1]:
                class_stack.pop()

    def canonical(self, expr: str, file_stem: str) -> str:
        """`scheduler_->drain_mutex_` -> `Scheduler::drain_mutex_`."""
        name = re.split(r"[.>]", expr.replace("->", ">"))[-1].strip("&() ")
        owners = self.by_name.get(name)
        if not owners:
            return name
        if len(owners) == 1:
            return f"{owners[0][0]}::{name}"
        for owner, stem in owners:
            if stem == file_stem:
                return f"{owner}::{name}"
        return f"{owners[0][0]}::{name}"


def extract_file(path: Path, index: MutexIndex,
                 acquirer_names: set[str] | None,
                 through: dict[str, set[str]] | None = None) -> Facts:
    """One file's facts, via brace-scope tracking of guard lifetimes.
    `through` maps a receiver name to the acquiring methods it reaches."""
    facts = Facts()
    text = strip_comments(path.read_text(encoding="utf-8", errors="replace"))
    lines = text.splitlines()
    through = through or {}

    depth = 0
    func: str | None = None
    func_depth = 0
    classes: list[tuple[str, int]] = []  # open class bodies: (name, depth)
    pending_class: str | None = None
    # Guards held right now: (canonical mutex, guard var, depth declared).
    held: list[tuple[str, str, int]] = []
    pending_sig = ""  # joined decl text while looking for a '{'

    for lineno, line in enumerate(lines, start=1):
        code = line
        if func is None:
            # Accumulate a potential function signature until its body
            # opens. A ';' ends a declaration without a body.
            pending_sig = (pending_sig + " " + code).strip()
            if ";" in code and "{" not in code:
                pending_sig = ""
            cm = CLASS_RE.match(code)
            if cm and "{" not in code and ";" not in code:
                pending_class = cm.group(1)
            if "{" in code:
                sig = pending_sig.split("{")[0]
                # KC_REQUIRES on the definition: held on entry.
                entry_held = []
                for req in REQUIRES_RE.findall(sig):
                    for tok in req.split(","):
                        tok = tok.strip().lstrip("!")
                        if tok:
                            entry_held.append(index.canonical(tok, path.stem))
                paren = sig.find("(")
                name = None
                if paren > 0:
                    m = FUNC_NAME_RE.search(sig[:paren + 1])
                    if m:
                        name = m.group(1)
                kw_blocklist = {"if", "for", "while", "switch", "catch",
                                "return", "sizeof", "alignof", "decltype"}
                if name and name.split("::")[-1] not in kw_blocklist:
                    if "::" not in name and classes:
                        name = f"{classes[-1][0]}::{name}"
                    func = name
                    func_depth = depth
                    held = [(mx, "<entry>", depth) for mx in entry_held]
                    # The body may start after the '{' on this line:
                    # clang-format keeps a one-statement body there.
                    code = code.split("{", 1)[1]
                elif cm or pending_class:
                    classes.append((cm.group(1) if cm else pending_class,
                                    depth))
                pending_class = None
                pending_sig = ""
        if func is not None:
            gm = GUARD_RE.search(code)
            if gm:
                mutex = index.canonical(gm.group(2), path.stem)
                facts.acquisitions.append(Acquisition(
                    func, mutex, sorted({h for h, _, _ in held}), lineno))
                held.append((mutex, gm.group(1), depth + line.count("{")))
            else:
                # MutexLock mid-scope unlock ends the hold early; the
                # matching relock() re-enters the same mutex, which the
                # graph ignores (self-edges are TSA's province).
                um = UNLOCK_RE.search(code)
                if um:
                    held = [h for h in held if h[1] != um.group(1)]
                # Call facts: a call to a known acquiring function while
                # holding something. Unqualified and this-> calls go by
                # name; a member call only when its receiver's declared
                # class defines an acquiring method of that name — a
                # call through some other object (x.wait(),
                # items_.size()) shares only the name with an acquirer.
                if held and acquirer_names:
                    own = func.split("::")[-1]
                    for cm in re.finditer(r"([A-Za-z_]\w*)\s*\(", code):
                        callee = cm.group(1)
                        before = code[:cm.start()].rstrip()
                        recv = re.search(r"(\w+)\s*(?:\.|->)$", before)
                        if before.endswith((".", "->")) and not (
                                recv and recv.group(1) == "this"):
                            follow = recv is not None and \
                                callee in through.get(recv.group(1), ())
                        else:
                            follow = callee in acquirer_names and \
                                callee != own
                        if follow:
                            facts.calls.append(Call(
                                func, callee, sorted({h for h, _, _ in held}),
                                lineno))

        opens = line.count("{")
        closes = line.count("}")
        depth += opens - closes
        while classes and depth <= classes[-1][1]:
            classes.pop()
        if func is not None:
            held = [h for h in held if h[2] <= depth]
            if depth <= func_depth:
                func = None
                held = []
                pending_sig = ""
    return facts


def cxx_files(roots: list[Path]) -> list[Path]:
    out = []
    for root in roots:
        if root.is_file():
            out.append(root)
            continue
        out.extend(p for p in sorted(root.rglob("*"))
                   if p.suffix in (".cpp", ".hpp", ".h", ".cc"))
    return out


def extract_tree(roots: list[Path], repo_root: Path) -> dict[str, Facts]:
    files = cxx_files(roots)
    texts = {path: strip_comments(
        path.read_text(encoding="utf-8", errors="replace")) for path in files}
    index = MutexIndex()
    for path in files:
        index.scan(path, texts[path])

    # Pass 1.5: which unqualified function names acquire a guard in
    # their body? Used to emit call facts only where they can matter.
    # Names defined more than once stay indexed (build_graph unions the
    # may-acquire sets, over-approximating — safe for a cycle gate on a
    # tree whose method names are distinct per class), and per class.
    acquirer_names: set[str] = set()
    acquiring: dict[str, set[str]] = {}  # class -> acquiring methods
    for path in files:
        for a in extract_file(path, index, None).acquisitions:
            parts = a.function.split("::")
            acquirer_names.add(parts[-1])
            if len(parts) > 1:
                acquiring.setdefault(parts[-2], set()).add(parts[-1])

    # Receivers declared as one of those classes, by name across the
    # sources (several classes per name union, like may-acquire).
    through: dict[str, set[str]] = {}
    for path in files:
        for m in DECL_RE.finditer(texts[path]):
            cls = m.group(1) or m.group(2)
            if cls in acquiring:
                through.setdefault(m.group(3), set()).update(acquiring[cls])

    out: dict[str, Facts] = {}
    for path in files:
        rel = path.relative_to(repo_root).as_posix() if path.is_relative_to(
            repo_root) else path.as_posix()
        out[rel] = extract_file(path, index, acquirer_names, through)
    return out


# ------------------------------------------------------------------ graph


class Graph:
    def __init__(self):
        # edge (a, b) -> witness "tu:line via function"
        self.edges: dict[tuple[str, str], str] = {}
        self.nodes: set[str] = set()

    def add(self, a: str, b: str, witness: str):
        self.nodes.add(a)
        self.nodes.add(b)
        self.edges.setdefault((a, b), witness)

    def cycles(self) -> list[list[str]]:
        """All elementary cycles reachable by DFS (first witness per
        back edge; enough to fail the gate and name the loop)."""
        adj: dict[str, list[str]] = {}
        for (a, b) in self.edges:
            adj.setdefault(a, []).append(b)
        for outs in adj.values():
            outs.sort()

        found: list[list[str]] = []
        seen_cycles: set[tuple[str, ...]] = set()
        color: dict[str, int] = {}
        stack: list[str] = []

        def dfs(u: str):
            color[u] = 1
            stack.append(u)
            for v in adj.get(u, []):
                if color.get(v, 0) == 0:
                    dfs(v)
                elif color.get(v) == 1:
                    i = stack.index(v)
                    cyc = stack[i:] + [v]
                    key = tuple(sorted(cyc[:-1]))
                    if key not in seen_cycles:
                        seen_cycles.add(key)
                        found.append(cyc)
            stack.pop()
            color[u] = 2

        for node in sorted(self.nodes):
            if color.get(node, 0) == 0:
                dfs(node)
        return found

    def dot(self, title: str) -> str:
        out = [f'digraph "{title}" {{',
               '  rankdir=LR;',
               '  node [shape=box, fontname="monospace", fontsize=10];',
               '  edge [fontname="monospace", fontsize=8];']
        cyc_edges: set[tuple[str, str]] = set()
        for cyc in self.cycles():
            for a, b in zip(cyc, cyc[1:]):
                cyc_edges.add((a, b))
        for node in sorted(self.nodes):
            out.append(f'  "{node}";')
        for (a, b), witness in sorted(self.edges.items()):
            attrs = f'label="{witness}"'
            if (a, b) in cyc_edges:
                attrs += ', color=red, penwidth=2'
            out.append(f'  "{a}" -> "{b}" [{attrs}];')
        out.append("}")
        return "\n".join(out) + "\n"


def build_graph(all_facts: dict[str, Facts]) -> Graph:
    graph = Graph()
    # Direct edges: held -> acquired, per acquisition site.
    for tu, facts in sorted(all_facts.items()):
        for a in facts.acquisitions:
            for h in a.held:
                if h == a.mutex:
                    continue  # re-entry is TSA's double-lock, not ordering
                graph.add(h, a.mutex, f"{tu}:{a.line} {a.function}")

    # Transitive closure over call facts: may_acquire(f) = mutexes f
    # acquires directly or via any callee (by unqualified name; the
    # union over same-named functions over-approximates safely).
    direct: dict[str, set[str]] = {}
    callees: dict[str, set[str]] = {}
    for facts in all_facts.values():
        for a in facts.acquisitions:
            direct.setdefault(a.function.split("::")[-1], set()).add(a.mutex)
        for c in facts.calls:
            callees.setdefault(c.function.split("::")[-1], set()).add(c.callee)
    may: dict[str, set[str]] = {f: set(ms) for f, ms in direct.items()}
    changed = True
    while changed:
        changed = False
        for f, cs in callees.items():
            acc = may.setdefault(f, set())
            before = len(acc)
            for g in cs:
                acc |= may.get(g, set())
            if len(acc) != before:
                changed = True
    for tu, facts in sorted(all_facts.items()):
        for c in facts.calls:
            for m in sorted(may.get(c.callee, set())):
                for h in c.held:
                    if h != m:
                        graph.add(h, m,
                                  f"{tu}:{c.line} {c.function} -> {c.callee}")
    return graph


# ---------------------------------------------------------------- drivers


def cmd_gate(args) -> int:
    """Extracts facts over --src, builds the graph, writes --dot, and
    exits 1 on any cycle."""
    repo_root = Path(args.repo_root).resolve()
    roots = [Path(r).resolve() for r in args.src]
    all_facts = {tu: facts for tu, facts in
                 extract_tree(roots, repo_root).items()
                 if facts.acquisitions or facts.calls}
    graph = build_graph(all_facts)
    if args.dot:
        Path(args.dot).write_text(graph.dot("kc lock order"))
    print(f"lock_graph gate: {len(all_facts)} TU(s), "
          f"{len(graph.nodes)} lock(s), {len(graph.edges)} edge(s)")
    for (a, b), witness in sorted(graph.edges.items()):
        print(f"  {a} -> {b}   [{witness}]")
    cycles = graph.cycles()
    if cycles:
        print(f"lock_graph: {len(cycles)} lock-order cycle(s) "
              "(potential deadlock):", file=sys.stderr)
        for cyc in cycles:
            print("  " + " -> ".join(cyc), file=sys.stderr)
        return 1
    print("lock_graph: cycle-free")
    return 0


def cmd_selftest(args) -> int:
    """The lock-order corpus must behave: each case under bad/ (one
    file, or a directory of TUs that cycle only together) has a cycle
    on its own, and everything under good/ together has none."""
    corpus = Path(args.corpus)
    bad_cases = sorted((corpus / "bad").glob("*"))
    good = cxx_files([corpus / "good"])
    if not bad_cases or not good:
        print(f"lock_graph selftest: no lock_order fixtures in {corpus}",
              file=sys.stderr)
        return 1
    runs = [(f"bad/{case.name}", cxx_files([case]), True)
            for case in bad_cases] + [("good/", good, False)]
    failures = 0
    for label, paths, want_cycle in runs:
        graph = build_graph(extract_tree(paths, corpus))
        cycles = graph.cycles()
        if bool(cycles) != want_cycle:
            print(f"FAIL: {label}: cycle={bool(cycles)} want {want_cycle}",
                  file=sys.stderr)
            for (a, b), w in sorted(graph.edges.items()):
                print(f"    {a} -> {b} [{w}]", file=sys.stderr)
            failures += 1
    if failures == 0:
        print(f"lock_graph selftest: {len(runs)} case(s) OK")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gate", help="build the graph, fail on a cycle")
    p.add_argument("--src", nargs="+", required=True)
    p.add_argument("--repo-root", default=".")
    p.add_argument("--dot", default=None)
    p.set_defaults(fn=cmd_gate)

    p = sub.add_parser("selftest", help="assert the lock_order corpus")
    p.add_argument("--corpus", required=True)
    p.set_defaults(fn=cmd_selftest)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
