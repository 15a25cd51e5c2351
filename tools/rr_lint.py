#!/usr/bin/env python3
"""rr-lint: repo-specific determinism & concurrency lint for roadrunner.

The framework's reproducibility contract (DESIGN.md §4, §10) rests on
conventions no compiler enforces: every random draw flows through a named
``util::Rng`` fork, no simulation-visible path reads wall-clock time or
iterates an unordered container, and all threading goes through
``util::ThreadPool``. This tool turns those conventions into machine-checked
rules — no libclang, no compile step, runs in milliseconds as a ctest target
and a CI gate.

v2 adds a token-aware layer on top of the original line regexes: comments,
strings and raw strings are stripped into a token stream with bracket pair
maps and enclosing-scope tracking, plus a local ``#include "..."`` graph.
That enables lightweight flow-sensitive rules: floating-point accumulation
inside unordered iteration, unguarded shared-state mutation in
``parallel_for``/``submit`` lambdas, dist ``MsgType`` switch
exhaustiveness, and unguarded narrowing of length fields. Suppression hygiene is enforced too: an ``allow(...)``
naming an unknown rule is an error, and a suppression that no longer
matches any finding is reported as stale.

Usage:
  rr_lint.py                       # lint src/ and examples/ under --root
  rr_lint.py FILE [FILE...]        # lint specific files (fixture testing)
  rr_lint.py --list-rules          # print the rule table
  rr_lint.py --explain RULE        # rationale + how to fix a violation

Suppression: append ``// rr-lint: allow(<rule>)`` to the offending line
(comma-separate several rule ids). Suppressions are deliberate, reviewable
markers — e.g. a dynamically built metric name that is known newline-free.
The meta rules ``unknown-suppression`` and ``stale-suppression`` cannot be
suppressed.

Exit status: 0 = clean, 1 = violations found, 2 = usage error.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Rule table. Each rule: id, summary, rationale/fix text (--explain), and a
# scope note. Detection logic lives in the check_* functions below; this
# table is the single source of truth for ids and documentation, and is
# unit-tested against golden fixtures in tests/rr_lint/.
# --------------------------------------------------------------------------

RULES = {
    "raw-random": {
        "summary": "std::rand/srand/random_device/raw mt19937 outside util/rng",
        "scope": "src/ and examples/, except src/util/rng.*",
        "explain": """\
Every stochastic draw must come from a named util::Rng fork
(`rng.fork("tag")`), seeded from the experiment's master seed. Raw engines
break the paired-seed comparison contract: std::rand and std::mt19937 are
stdlib-specific (libstdc++ vs libc++ streams differ), and
std::random_device is nondeterministic by design, so a single call anywhere
on a simulation-visible path makes same-seed runs diverge. src/workload/ is
the sharpest case: the stream generator must synthesize bit-identical
telemetry whatever the worker count, so every draw comes from its forked
"workload" stream.

Fix: take a util::Rng (or fork one from the component's parent stream).
For genuinely non-simulation randomness (none known today), suppress with
`// rr-lint: allow(raw-random)` and justify in a comment.""",
    },
    "wall-clock": {
        "summary": "wall-clock reads outside telemetry/ and util/",
        "scope": "src/ and examples/, except src/telemetry/ and src/util/",
        "explain": """\
Simulated time comes from the event queue (`Simulator::now()`); host time
is an observability concern that belongs to telemetry/ (spans) and util/
(Stopwatch). A system_clock/steady_clock/time() read anywhere else is
either dead code or a determinism leak waiting to be aggregated into a
metric — wall-clock values must never reach the metrics Registry or a
checkpoint (DESIGN.md §8: aggregates are byte-compared across reruns).

Fix: use util::Stopwatch for wall timing that stays in reports, RR_TSPAN
for profiling, or Simulator::now() for simulated time. If a new layer
legitimately needs a clock read, suppress with
`// rr-lint: allow(wall-clock)` and keep the value out of metrics.""",
    },
    "unordered-iter": {
        "summary": "iteration over unordered containers in order-sensitive dirs",
        "scope": "src/checkpoint/, src/metrics/, src/core/, src/fault/, "
                 "src/adversary/, src/workload/, src/traffic/",
        "explain": """\
checkpoint/, metrics/, core/, fault/, adversary/, workload/ and traffic/
feed serialization and metric export, where emission order is part of the
byte-identical contract (adversary/ additionally snapshots its RNG and
attack state into checkpoints; workload/ synthesizes the telemetry
stream and traffic/ the queue-shaped fleet + signal/platoon timeline,
both of which must be bit-identical across --workers counts).
Iterating a std::unordered_map/set there makes output depend on
hash-bucket layout — stable on one build, silently different on another
stdlib or after a rehash, which breaks checkpoint round-trips and
same-seed CSV comparison.

Fix: use std::map/std::set, keep a parallel sorted index, or copy keys
out and sort before emitting. If iteration order provably cannot reach
any output (e.g. accumulating into a commutative sum), suppress with
`// rr-lint: allow(unordered-iter)` and say why in a comment.""",
    },
    "raw-thread": {
        "summary": "raw threading outside util/thread_pool, or raw socket "
                   "syscalls outside util/socket",
        "scope": "src/ and examples/, except src/util/thread_pool.* "
                 "(threads) and src/util/socket.* (sockets)",
        "explain": """\
All parallelism goes through util::ThreadPool: it reduces in deterministic
index order, owns the only std::thread objects, and is where the
thread-safety annotations and the TSan lane concentrate. Ad-hoc
std::thread/std::async use bypasses the pool's shutdown ordering, and a
detached thread can outlive the telemetry sink and the result store —
a use-after-free that only fires at exit.

The same wall applies to the network: every POSIX socket syscall
(socket/bind/listen/accept/connect/poll/select/::send/::recv/...) lives in
util/socket, which owns SIGPIPE suppression, partial-write loops, EINTR
retries, and timeout composition. The distributed campaign layer
(src/dist/) speaks util::Socket/Listener/poll_fds only, so auditing its
concurrency and I/O stays a grep.

Fix: submit work with ThreadPool::parallel_for / submit (or the global()
pool); do network I/O through util::Socket, util::Listener, and
util::poll_fds. If a new facade is truly required, build it in util/ and
suppress there with `// rr-lint: allow(raw-thread)`.""",
    },
    "metric-name": {
        "summary": "metric registration with a non-literal or newline-bearing name",
        "scope": "src/ and examples/ (Registry and telemetry scalar calls)",
        "explain": """\
Metric names are schema: the campaign store, the aggregate CSV, and the
--list-metrics surface all key on them. A name must be a string literal
(newline-free — the Registry throws on '\\n' at runtime, this rule moves
that to lint time) or a named constant/config member, so the set of
metrics is statically enumerable. Inline concatenation and conditional
expressions produce open-ended name sets that silently fork the store
schema between runs.

Fix: hoist the name into a constant or a config field. For deliberately
dynamic families (e.g. per-channel counters like transfers_<ch>_failed),
suppress with `// rr-lint: allow(metric-name)` — the suppression is the
documented registry of dynamic metric families.""",
    },
    "fp-unordered-accum": {
        "summary": "float/double accumulation inside unordered-container iteration",
        "scope": "src/ and examples/ (all files)",
        "explain": """\
Floating-point addition is not associative: summing the same set of
doubles in two different orders can differ in the last ulp, and those
ulps compound through training loops into visibly different aggregates.
Iterating a std::unordered_map/set fixes no order — bucket layout varies
across stdlibs, load factors, and insertion histories — so a `sum += v`
inside such a loop is a nondeterministic reduction even though the value
set is identical. This breaks the §10.4 byte-identical contract in any
directory, not just the serialization-order-sensitive ones, because the
accumulated scalar eventually reaches a metric, a weight, or a checkpoint.

Fix: iterate a sorted view (std::map, or copy keys out and sort), or
accumulate into an integer/fixed-point domain where addition is exact.
If the accumulator provably never reaches simulation-visible output,
suppress with `// rr-lint: allow(fp-unordered-accum)` and say why.""",
    },
    "parallel-mutation": {
        "summary": "mutation of by-reference captured state inside "
                   "parallel_for/submit lambdas without a Mutex guard",
        "scope": "src/ and examples/ (ThreadPool::parallel_for / submit call sites)",
        "explain": """\
A lambda handed to ThreadPool::parallel_for or submit runs concurrently
with the caller and with its sibling iterations. Writing to a variable it
captured by reference is a data race unless the write is (a) guarded by an
annotated util::MutexLock / std::lock_guard in the same scope, (b) an
element write `v[i] = ...` whose index derives only from the lambda
parameter or a body-local (the deterministic sharding pattern engine.cpp
and trainer.cpp use), or (c) a std::atomic. TSan catches the races this
rule finds — but only on the interleavings CI happens to schedule; the
lint makes the guard a static requirement.

Fix: take a util::MutexLock on the owning Mutex around the write, shard
the output by the iteration index, or make the target atomic. For a
pattern the analyzer cannot see through (e.g. a container with internal
synchronization), suppress with `// rr-lint: allow(parallel-mutation)`
and name the synchronization in a comment.""",
    },
    "msgtype-exhaustive": {
        "summary": "dist MsgType switches must cover every enumerator or have default",
        "scope": "src/dist/ (switch statements with MsgType:: cases)",
        "explain": """\
The dist wire protocol evolves by adding MsgType enumerators; every
switch over a decoded frame type is a place a new message can silently
fall through. Unlike -Wswitch, this rule also fires when a `default:`
was *removed* while enumerators grew, and it checks the protocol enum as
declared in protocol.hpp via the include graph, so the coordinator and
worker cannot drift out of sync with the wire format.

Fix: handle every MsgType enumerator explicitly, or add a `default:`
that rejects/logs the unexpected type (the poll-loop does the latter —
unknown frames from a newer peer must not crash the coordinator). If a
switch intentionally handles a subset and falls through, suppress on the
switch line with `// rr-lint: allow(msgtype-exhaustive)`.""",
    },
    "len-narrow": {
        "summary": "unguarded narrowing cast of a length/size expression on "
                   "frame or section fields",
        "scope": "src/dist/, src/checkpoint/, src/util/binary_io.*, src/util/socket.*",
        "explain": """\
The wire protocol and the RRCK section table carry u32 length prefixes,
but in-memory sizes are 64-bit. `static_cast<std::uint32_t>(x.size())`
truncates silently once x crosses 4 GiB; the peer then reads a frame
whose length field lies about the payload, which at best desyncs the
stream and at worst turns into an allocation bomb on the receive side.
Every narrowing of a length-ish expression (`.size()`, `.length()`,
`.remaining()`, `u64(...)`, `*_len`/`*_size` identifiers) to a type
narrower than 64 bits must sit behind an explicit range check against the
protocol limit (send_frame's `payload.size() > kMaxFramePayload` check is
the canonical shape).

Fix: compare against the relevant kMax* limit (and throw/reject) before
the cast, or keep the value 64-bit end to end. For a cast whose range is
structurally bounded (e.g. a fixed small section list), suppress with
`// rr-lint: allow(len-narrow)` and state the bound in a comment.""",
    },
    "unreached-header": {
        "summary": "src/ header that no program source includes",
        "scope": "src/**/*.hpp (includers: src/ except the header's own "
                 ".cpp, examples/, bench/, ledger/)",
        "explain": """\
A header under src/ that no other library file, example, benchmark or
ledger source includes declares a feature no run can reach: only its own
.cpp and the tests see it. Such code still costs review, build time and
CI lanes (a fuzz target, a coverage floor), and its tests pin behaviour
no user depends on. Tests alone do not make a header reachable.

Fix: delete the header with its .cpp, tests and build lines, or wire the
feature into a program that runs it. A header kept deliberately for tests
only (an oracle, a fuzz entry point) belongs next to a header that a
program includes, not in a file of its own.""",
    },
    "unknown-suppression": {
        "summary": "rr-lint: allow(...) names a rule this linter does not define",
        "scope": "every linted file (meta rule; not suppressible)",
        "explain": """\
A suppression naming an unknown rule is almost always a typo
(`allow(unordered_iter)` for `allow(unordered-iter)`) — it silences
nothing, reads as if it did, and survives refactors unnoticed. Failing
fast keeps the suppression inventory trustworthy: every allow() in the
tree refers to a rule that actually exists and can be audited with
--explain.

Fix: correct the rule id (see --list-rules) or delete the comment. This
meta rule cannot itself be suppressed.""",
    },
    "stale-suppression": {
        "summary": "rr-lint: allow(...) on a line that no longer triggers that rule",
        "scope": "every linted file (meta rule; not suppressible)",
        "explain": """\
Suppressions are the documented registry of deliberate exceptions; a
stale one — left behind after the offending code was fixed or moved —
misdocuments the line and would silently mask a future regression if the
pattern ever came back. The linter computes findings with suppressions
ignored and flags any allow(rule) whose (file, line, rule) matches no
finding.

Fix: delete the stale comment (or move it if the offending code moved).
This meta rule cannot itself be suppressed.""",
    },
}

# Directories (as posix path fragments) with special roles.
ORDER_SENSITIVE_DIRS = ("/checkpoint/", "/metrics/", "/core/", "/fault/",
                        "/adversary/", "/workload/", "/traffic/")
WALL_CLOCK_EXEMPT = ("/telemetry/", "/util/")
RNG_HOME = "/util/rng."
THREAD_HOME = "/util/thread_pool."
SOCKET_HOME = "/util/socket."

SUPPRESS_RE = re.compile(r"//\s*rr-lint:\s*allow\(([^)]*)\)")

# Rules enforced on the suppression comments themselves; never suppressible.
META_RULES = ("unknown-suppression", "stale-suppression")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Lightweight C++ source preparation: strip comments (preserving newlines so
# line numbers survive) and optionally blank out string/char literal
# contents so regexes never match inside text. Handles raw strings.
# --------------------------------------------------------------------------


def strip_comments(text: str) -> str:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            j = _skip_literal(text, i)
            out.append(text[i:j])
            i = j
        elif c == "R" and text[i : i + 2] == 'R"':
            j = _skip_raw_string(text, i)
            out.append(text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def blank_strings(text: str) -> str:
    """On comment-stripped text, replace literal contents with spaces."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "R" and text[i : i + 2] == 'R"':
            j = _skip_raw_string(text, i)
            out.append('R"' + "".join(ch if ch == "\n" else " " for ch in text[i + 2 : j - 1]) + '"')
            i = j
        elif c in "\"'":
            j = _skip_literal(text, i)
            out.append(c + " " * max(0, j - i - 2) + (text[j - 1] if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _skip_literal(text: str, i: int) -> int:
    quote = text[i]
    j = i + 1
    n = len(text)
    while j < n:
        if text[j] == "\\":
            j += 2
            continue
        if text[j] == quote or text[j] == "\n":
            return j + 1
        j += 1
    return n


def _skip_raw_string(text: str, i: int) -> int:
    m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
    if not m:
        return i + 1
    close = ")" + m.group(1) + '"'
    j = text.find(close, i + m.end())
    return len(text) if j == -1 else j + len(close)


def suppressed_rules(raw_line: str) -> set:
    rules = set()
    for m in SUPPRESS_RE.finditer(raw_line):
        rules.update(r.strip() for r in m.group(1).split(",") if r.strip())
    return rules


# --------------------------------------------------------------------------
# Token layer. A flat token stream over comment-stripped text with bracket
# pair maps and enclosing-brace tracking gives the flow rules just enough
# structure to reason about scopes, lambdas, and call arguments without a
# real parser. Preprocessor lines are skipped during tokenization; local
# includes are collected separately by regex for the include graph.
# --------------------------------------------------------------------------


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind  # id | num | str | chr | op
        self.text = text
        self.line = line

    def __repr__(self) -> str:  # debugging aid
        return f"Tok({self.kind},{self.text!r},{self.line})"


_OPS3 = ("<<=", ">>=", "->*", "...")
_OPS2 = ("::", "->", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
         "^=", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>")


def tokenize(code: str):
    toks = []
    i, n, line = 0, len(code), 1
    at_line_start = True
    while i < n:
        c = code[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "#" and at_line_start:
            # Skip the preprocessor logical line, honoring \-continuations.
            while i < n:
                j = code.find("\n", i)
                if j == -1:
                    i = n
                    break
                cont = code[i:j].rstrip().endswith("\\")
                line += 1
                i = j + 1
                if not cont:
                    break
            at_line_start = True
            continue
        at_line_start = False
        if c == "R" and code[i : i + 2] == 'R"':
            j = _skip_raw_string(code, i)
            toks.append(Tok("str", code[i:j], line))
            line += code.count("\n", i, j)
            i = j
            continue
        if c == '"' or c == "'":
            j = _skip_literal(code, i)
            toks.append(Tok("str" if c == '"' else "chr", code[i:j], line))
            line += code.count("\n", i, j)
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (code[j].isalnum() or code[j] == "_"):
                j += 1
            toks.append(Tok("id", code[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and code[i + 1].isdigit()):
            j = i + 1
            while j < n and (code[j].isalnum() or code[j] in "._'" or
                             (code[j] in "+-" and code[j - 1] in "eEpP")):
                j += 1
            toks.append(Tok("num", code[i:j], line))
            i = j
            continue
        matched = False
        for op in _OPS3:
            if code.startswith(op, i):
                toks.append(Tok("op", op, line))
                i += 3
                matched = True
                break
        if matched:
            continue
        for op in _OPS2:
            if code.startswith(op, i):
                toks.append(Tok("op", op, line))
                i += 2
                matched = True
                break
        if matched:
            continue
        toks.append(Tok("op", c, line))
        i += 1
    return toks


def bracket_pairs(toks):
    """Map each (/[/{ token index to its closer and back. Unbalanced
    brackets are tolerated (left unmapped)."""
    pair = {}
    stacks = {"(": [], "[": [], "{": []}
    closer = {")": "(", "]": "[", "}": "{"}
    for idx, t in enumerate(toks):
        if t.kind != "op":
            continue
        if t.text in stacks:
            stacks[t.text].append(idx)
        elif t.text in closer:
            st = stacks[closer[t.text]]
            if st:
                o = st.pop()
                pair[o] = idx
                pair[idx] = o
    return pair


def enclosing_braces(toks):
    """enc[i] = token index of the innermost '{' containing token i."""
    enc = [None] * len(toks)
    stack = []
    for idx, t in enumerate(toks):
        if t.kind == "op" and t.text == "}":
            enc[idx] = stack[-1] if stack else None
            if stack:
                stack.pop()
            continue
        enc[idx] = stack[-1] if stack else None
        if t.kind == "op" and t.text == "{":
            stack.append(idx)
    return enc


class TokFile:
    """Per-file token view shared by the flow rules."""

    def __init__(self, path: Path, code: str):
        self.path = path
        self.code = code
        self.toks = tokenize(code)
        self.pair = bracket_pairs(self.toks)
        self.enc = enclosing_braces(self.toks)


INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)


def resolve_includes(path: Path, root: Path):
    """Transitive local #include "..." closure of `path`, resolved against
    the including file's directory and <root>/src."""
    out = []
    seen = {path.resolve()}
    stack = [path]
    while stack:
        cur = stack.pop()
        try:
            text = cur.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        for m in INCLUDE_RE.finditer(text):
            for base in (cur.parent, root / "src"):
                cand = base / m.group(1)
                if cand.is_file():
                    r = cand.resolve()
                    if r not in seen:
                        seen.add(r)
                        out.append(cand)
                        stack.append(cand)
                    break
    return out


# --------------------------------------------------------------------------
# Per-rule checks (v1: line-regex rules).
# --------------------------------------------------------------------------

RAW_RANDOM_RE = re.compile(
    r"(?<![\w:])(?:std\s*::\s*)?(rand|srand|random_device|mt19937(?:_64)?|"
    r"minstd_rand0?|ranlux\d+(?:_base)?|default_random_engine|knuth_b)\b(?<!\w_rand)"
)

WALL_CLOCK_RE = re.compile(
    r"(?:\b(?:system_clock|steady_clock|high_resolution_clock)\b)|"
    r"(?<![\w.:>])(?:time|clock|gettimeofday|clock_gettime|localtime|gmtime)\s*\("
)

RAW_THREAD_RE = re.compile(
    r"(?:\bstd\s*::\s*(?:thread|jthread|async)\b)|(?:\.\s*detach\s*\(\s*\))"
)

# POSIX socket surface. Bare `send(`/`recv(` are NOT matched — the
# simulator's Context::send/Simulator::send are legitimate members — only
# the global-scope-qualified `::send(`/`::recv(` forms, plus calls of the
# unambiguous syscall names (member calls like `listener.accept(` are
# excluded by the lookbehind).
RAW_SOCKET_RE = re.compile(
    r"(?:(?<![\w.:>])(?:socket|bind|listen|accept4?|connect|sendto|recvfrom|"
    r"sendmsg|recvmsg|getaddrinfo|setsockopt|getsockname|poll|ppoll|select|"
    r"epoll_\w+)\s*\()|"
    r"(?:(?<![\w.])::\s*(?:send|recv)\s*\()"
)


def posix(path: Path) -> str:
    return "/" + path.as_posix().lstrip("/")


def check_line_rules(path: Path, code_lines, findings):
    p = posix(path)
    scan_random = RNG_HOME not in p
    scan_clock = not any(d in p for d in WALL_CLOCK_EXEMPT)
    scan_thread = THREAD_HOME not in p
    scan_socket = SOCKET_HOME not in p

    for idx, code in enumerate(code_lines):
        lineno = idx + 1
        if scan_random:
            m = RAW_RANDOM_RE.search(code)
            if m:
                findings.append(
                    Finding(path, lineno, "raw-random",
                            f"raw random source `{m.group(0).strip()}` — use a "
                            "named util::Rng fork (see --explain raw-random)"))
        if scan_clock:
            m = WALL_CLOCK_RE.search(code)
            if m:
                findings.append(
                    Finding(path, lineno, "wall-clock",
                            f"wall-clock read `{m.group(0).strip()}` outside "
                            "telemetry/|util/ — use util::Stopwatch or RR_TSPAN"))
        if scan_thread:
            m = RAW_THREAD_RE.search(code)
            if m:
                findings.append(
                    Finding(path, lineno, "raw-thread",
                            f"raw threading `{m.group(0).strip()}` outside "
                            "util/thread_pool — use util::ThreadPool"))
            elif scan_socket:
                m = RAW_SOCKET_RE.search(code)
                if m:
                    findings.append(
                        Finding(path, lineno, "raw-thread",
                                f"raw socket syscall `{m.group(0).strip()}` "
                                "outside util/socket — use util::Socket/"
                                "Listener/poll_fds"))


# ---- unordered-iter -------------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"\b(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<")
USING_ALIAS_RE = re.compile(r"\busing\s+(\w+)\s*=")


def _match_angle(text: str, start: int) -> int:
    """Index just past the '>' matching the '<' at text[start]."""
    depth = 0
    i = start
    n = len(text)
    while i < n:
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return i  # malformed / not a template argument list
        i += 1
    return n


def unordered_names(code: str) -> set:
    """Identifiers declared with an unordered container type (incl. aliases)."""
    names = set()
    aliases = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        open_angle = code.find("<", m.start())
        end = _match_angle(code, open_angle)
        # `using Foo = std::unordered_map<...>;` registers an alias.
        prefix = code[max(0, m.start() - 80) : m.start()]
        am = None
        for am in USING_ALIAS_RE.finditer(prefix):
            pass
        if am is not None and prefix[am.end():].strip() in ("", "std::", "std ::"):
            aliases.add(am.group(1))
            continue
        decl = re.match(r"\s*(?:&|\*|const\b)?\s*(\w+)\s*(?:[;={(,)]|$)", code[end:])
        if decl:
            names.add(decl.group(1))
    if aliases:
        alias_re = re.compile(r"\b(" + "|".join(map(re.escape, aliases)) + r")\b\s*(?:&|\*|const\b)?\s*(\w+)\s*[;={(]")
        for m in alias_re.finditer(code):
            names.add(m.group(2))
    return names


def check_unordered_iter(path: Path, code_lines, findings, extra_names):
    p = posix(path)
    if not any(d in p for d in ORDER_SENSITIVE_DIRS):
        return
    code = "\n".join(code_lines)
    names = unordered_names(code) | extra_names
    range_for = re.compile(r"\bfor\s*\([^;)]*?:\s*(?:\*|&)?\s*([A-Za-z_][\w.>\-]*)\s*\)")
    begin_call = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*c?begin\s*\(")
    inline_unordered = re.compile(r"\bfor\s*\([^;)]*?:\s*[^)]*\bunordered_(?:map|set)\b")
    for idx, line in enumerate(code_lines):
        lineno = idx + 1
        hit = None
        m = range_for.search(line)
        if m and m.group(1).rstrip("._") and m.group(1).split(".")[0].split("->")[0] in names:
            hit = m.group(1)
        if hit is None:
            m = begin_call.search(line)
            if m and m.group(1) in names:
                hit = m.group(1)
        if hit is None and inline_unordered.search(line):
            hit = "unordered container expression"
        if hit is not None:
            findings.append(
                Finding(path, lineno, "unordered-iter",
                        f"iteration over unordered container `{hit}` in an "
                        "order-sensitive directory — emit in sorted order"))


# ---- metric-name ----------------------------------------------------------

METRIC_CALL_RE = re.compile(
    r"(?:\.|->)\s*(add_point|increment|set_counter|counter_add|gauge_set)\s*\(")

IDENT_CHAIN_RE = re.compile(
    r"^[A-Za-z_][\w]*(?:\s*(?:::|\.|->)\s*[A-Za-z_]\w*|\s*\(\s*\)|\s*\[\s*\w+\s*\])*$")


def _extract_first_arg(code: str, open_paren: int):
    """Return (arg_text, ok) for the first argument of the call at '('."""
    depth = 0
    i = open_paren
    n = len(code)
    start = open_paren + 1
    while i < n:
        c = code[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return code[start:i], True
        elif c == "," and depth == 1:
            return code[start:i], True
        elif c in "\"'":
            i = _skip_literal(code, i) - 1
        i += 1
    return "", False


STRING_LITERAL_ONLY_RE = re.compile(r'^\s*(?:"(?:[^"\\]|\\.)*"\s*)+$')


def check_metric_names(path: Path, code, findings):
    for m in METRIC_CALL_RE.finditer(code):
        lineno = code.count("\n", 0, m.start()) + 1
        arg, ok = _extract_first_arg(code, code.find("(", m.end() - 1))
        if not ok:
            continue
        arg = arg.strip()
        if STRING_LITERAL_ONLY_RE.match(arg):
            if "\\n" in arg or "\\r" in arg:
                findings.append(
                    Finding(path, lineno, "metric-name",
                            f"{m.group(1)}: metric name literal contains a "
                            "newline escape — names must be single-line"))
            continue
        if IDENT_CHAIN_RE.match(arg):
            continue  # named constant / config member: statically enumerable
        findings.append(
            Finding(path, lineno, "metric-name",
                    f"{m.group(1)}: metric name is a computed expression "
                    f"(`{' '.join(arg.split())[:60]}`) — hoist to a constant "
                    "or suppress to register a dynamic metric family"))


# --------------------------------------------------------------------------
# Flow rules (v2, token-based).
# --------------------------------------------------------------------------

FP_DECL_RE = re.compile(r"\b(?:double|float)\b\s*(?:&|\*)?\s*(\w+)\s*(?:[=;{,)\[]|$)", re.M)
ATOMIC_DECL_RE = re.compile(r"\batomic(?:_\w+)?\b\s*(?:<[^;{]*?>)?\s*(\w+)\s*[;={(]")


def fp_scalar_names(code: str) -> set:
    return {m.group(1) for m in FP_DECL_RE.finditer(code)}


def atomic_names(code: str) -> set:
    return {m.group(1) for m in ATOMIC_DECL_RE.finditer(code)}


def _range_for_info(tf: TokFile, i: int):
    """If toks[i] starts a range-for, return (open_paren, colon, close_paren);
    else None."""
    toks, pair = tf.toks, tf.pair
    if not (toks[i].kind == "id" and toks[i].text == "for"):
        return None
    if i + 1 >= len(toks) or toks[i + 1].text != "(":
        return None
    op = i + 1
    cp = pair.get(op)
    if cp is None:
        return None
    depth = 0
    for j in range(op + 1, cp):
        t = toks[j]
        if t.kind != "op":
            continue
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
        elif depth == 0 and t.text == ";":
            return None  # classic for-loop
        elif depth == 0 and t.text == ":":
            return (op, j, cp)
    return None


def _stmt_or_block_extent(tf: TokFile, after: int):
    """Token span (inclusive start, exclusive end) of the statement or block
    starting at `after`."""
    toks, pair = tf.toks, tf.pair
    if after < len(toks) and toks[after].text == "{":
        return after, pair.get(after, after) + 1
    j = after
    while j < len(toks) and toks[j].text != ";":
        j += 1
    return after, j + 1


def check_fp_unordered_accum(tf: TokFile, unames: set, fpnames: set, findings):
    toks = tf.toks
    for i in range(len(toks)):
        info = _range_for_info(tf, i)
        if info is None:
            continue
        _, colon, cp = info
        range_ids = [toks[j].text for j in range(colon + 1, cp) if toks[j].kind == "id"]
        if not (any(x in unames for x in range_ids) or
                any(x.startswith("unordered_") for x in range_ids)):
            continue
        b0, b1 = _stmt_or_block_extent(tf, cp + 1)
        for j in range(b0, b1):
            t = toks[j]
            if t.kind == "op" and t.text in ("+=", "-=") and j > 0:
                lhs = toks[j - 1]
                if lhs.kind == "id" and lhs.text in fpnames:
                    findings.append(Finding(
                        tf.path, t.line, "fp-unordered-accum",
                        f"floating-point accumulation `{lhs.text} {t.text}` "
                        "inside unordered-container iteration — the reduction "
                        "order depends on hash-bucket layout"))


# ---- parallel-mutation ----------------------------------------------------

LOCK_TYPES = {"MutexLock", "lock_guard", "unique_lock", "scoped_lock", "shared_lock"}
MUTATOR_METHODS = {"push_back", "emplace_back", "emplace", "insert", "erase",
                   "clear", "resize", "assign", "pop_back", "reserve"}
ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
_DECL_PREV_BAD = {"else", "return", "co_return", "case", "delete", "new", "throw",
                  "typedef", "using", "goto", "break", "continue", "operator",
                  "if", "while", "do", "switch", "sizeof"}


def _lambda_spans(tf: TokFile, lb: int):
    """Given toks[lb] == '[', return (cap_end, param_span, body_span) for the
    lambda literal starting there, or None if it isn't one."""
    toks, pair = tf.toks, tf.pair
    rb = pair.get(lb)
    if rb is None or rb + 1 >= len(toks):
        return None
    nxt = toks[rb + 1].text
    if nxt not in ("(", "{"):
        return None
    params = None
    body_open = None
    if nxt == "(":
        pc = pair.get(rb + 1)
        if pc is None:
            return None
        params = (rb + 2, pc)
        j = pc + 1
    else:
        j = rb + 1
    # Skip mutable / noexcept / -> <type> up to the body brace.
    while j < len(toks) and toks[j].text != "{":
        j += 1
    if j >= len(toks):
        return None
    body_open = j
    body_close = pair.get(body_open)
    if body_close is None:
        return None
    return (lb + 1, rb), params, (body_open + 1, body_close)


def _lambda_captures(toks, cap_span):
    """Parse a capture list span → (default_ref, default_copy, ref_names,
    val_names, has_this)."""
    default_ref = default_copy = has_this = False
    ref_names, val_names = set(), set()
    j, end = cap_span
    while j < end:
        t = toks[j]
        if t.kind == "op" and t.text == "&":
            if j + 1 < end and toks[j + 1].kind == "id":
                ref_names.add(toks[j + 1].text)
                j += 2
                continue
            default_ref = True
        elif t.kind == "op" and t.text == "=":
            default_copy = True
        elif t.kind == "id" and t.text == "this":
            has_this = True
        elif t.kind == "id":
            val_names.add(t.text)
        j += 1
    return default_ref, default_copy, ref_names, val_names, has_this


def _param_names(toks, pair, span):
    """Last identifier of each top-level comma-separated segment."""
    if span is None:
        return set()
    names = set()
    start, end = span
    depth = 0
    last_id = None
    for j in range(start, end):
        t = toks[j]
        if t.kind == "op":
            if t.text in "([{<":
                depth += 1
            elif t.text in ")]}>":
                depth -= 1
            elif t.text == "," and depth == 0:
                if last_id:
                    names.add(last_id)
                last_id = None
            continue
        if t.kind == "id" and depth == 0:
            last_id = t.text
    if last_id:
        names.add(last_id)
    return names


def _body_locals(toks, body):
    """Token positions and names of body-local declarations, by the
    `type-ish name [=;{(]` heuristic."""
    names, decl_pos = set(), set()
    b0, b1 = body
    for j in range(b0, b1):
        t = toks[j]
        if t.kind != "id" or j + 1 >= len(toks) or j == 0:
            continue
        nxt = toks[j + 1]
        if not (nxt.kind == "op" and nxt.text in ("=", ";", "{", "(")):
            continue
        prev = toks[j - 1]
        type_ish = ((prev.kind == "id" and prev.text not in _DECL_PREV_BAD) or
                    (prev.kind == "op" and prev.text in ("&", "*", ">")))
        if type_ish:
            names.add(t.text)
            decl_pos.add(j)
    return names, decl_pos


def _locked_ranges(toks, enc, pair, body):
    """Spans (start, end) guarded by a MutexLock/lock_guard declared inside
    the lambda body: from the declaration to the end of its enclosing block."""
    ranges = []
    b0, b1 = body
    for j in range(b0, b1):
        t = toks[j]
        if t.kind == "id" and t.text in LOCK_TYPES:
            blk = enc[j]
            end = pair.get(blk, b1) if blk is not None else b1
            ranges.append((j, min(end, b1)))
    return ranges


def _lvalue_base(toks, pair, j):
    """Walk left from token j (end of an lvalue chain) to its base id index."""
    guard = 0
    while j >= 0 and guard < 64:
        guard += 1
        t = toks[j]
        if t.kind == "op" and t.text in ("]", ")"):
            o = pair.get(j)
            if o is None:
                return None
            j = o - 1
        elif t.kind == "id":
            if j >= 1 and toks[j - 1].kind == "op" and toks[j - 1].text in (".", "->", "::"):
                j -= 2
            else:
                return j
        else:
            return None
    return None


def _index_span_ids(toks, pair, j):
    """If toks[j] == ']', ids inside the [...] span; else None."""
    if not (toks[j].kind == "op" and toks[j].text == "]"):
        return None
    o = pair.get(j)
    if o is None:
        return None
    return {toks[k].text for k in range(o + 1, j) if toks[k].kind == "id"}


def _find_lambda_in_call(tf: TokFile, op: int, cp: int):
    """First lambda literal between call parens (op, cp), or a lambda bound
    earlier via `auto name = [...]` and passed by name."""
    toks, pair = tf.toks, tf.pair
    for j in range(op + 1, cp):
        if toks[j].kind == "op" and toks[j].text == "[":
            spans = _lambda_spans(tf, j)
            if spans is not None:
                return spans
    # Named-lambda arguments: resolve `auto name = [...]` defined earlier.
    for j in range(op + 1, cp):
        t = toks[j]
        if t.kind != "id":
            continue
        if j + 1 < len(toks) and toks[j + 1].text == "(":
            continue  # a call, not a lambda name
        for k in range(op - 1, 1, -1):
            if (toks[k].kind == "id" and toks[k].text == t.text and
                    toks[k - 1].kind == "id" and toks[k - 1].text == "auto" and
                    k + 2 < len(toks) and toks[k + 1].text == "=" and
                    toks[k + 2].text == "["):
                spans = _lambda_spans(tf, k + 2)
                if spans is not None:
                    return spans
    return None


def check_parallel_mutation(tf: TokFile, atomics: set, findings):
    toks, pair, enc = tf.toks, tf.pair, tf.enc
    for i in range(1, len(toks) - 1):
        t = toks[i]
        if not (t.kind == "id" and t.text in ("parallel_for", "submit")):
            continue
        if not (toks[i - 1].kind == "op" and toks[i - 1].text in (".", "->")):
            continue
        if toks[i + 1].text != "(":
            continue
        op = i + 1
        cp = pair.get(op)
        if cp is None:
            continue
        spans = _find_lambda_in_call(tf, op, cp)
        if spans is None:
            continue
        cap_span, param_span, body = spans
        default_ref, default_copy, ref_names, val_names, _ = \
            _lambda_captures(toks, cap_span)
        if not default_ref and not ref_names:
            continue  # nothing captured by reference
        params = _param_names(toks, pair, param_span)
        locals_, decl_pos = _body_locals(toks, body)
        locked = _locked_ranges(toks, enc, pair, body)
        b0, b1 = body

        def is_guarded(j):
            return any(s <= j <= e for s, e in locked)

        def is_shared(name):
            if name in params or name in locals_ or name in atomics:
                return False
            if name in ref_names:
                return True
            if name in val_names or default_copy:
                return False
            return default_ref

        def report(j, name, what):
            findings.append(Finding(
                tf.path, toks[j].line, "parallel-mutation",
                f"{what} of `{name}` captured by reference inside a "
                f"{t.text} lambda without a MutexLock guard — shard by the "
                "iteration index or lock the owning Mutex"))

        for j in range(b0, b1):
            tj = toks[j]
            if tj.kind == "op" and tj.text in ASSIGN_OPS:
                if tj.text == "=" and j - 1 in decl_pos:
                    continue  # initializer of a body-local declaration
                base = _lvalue_base(toks, pair, j - 1)
                if base is None:
                    continue
                name = toks[base].text
                if not is_shared(name) or is_guarded(j):
                    continue
                idx_ids = _index_span_ids(toks, pair, j - 1)
                if idx_ids is not None and idx_ids and all(
                        x in params or x in locals_ for x in idx_ids):
                    continue  # element write sharded by param/local index
                report(j, name, f"assignment `{tj.text}`")
            elif tj.kind == "op" and tj.text in ("++", "--"):
                k = j - 1 if (j > b0 and toks[j - 1].kind in ("id",) or
                              (toks[j - 1].kind == "op" and toks[j - 1].text in ("]", ")"))) else j + 1
                base = _lvalue_base(toks, pair, k)
                if base is None:
                    continue
                name = toks[base].text
                if is_shared(name) and not is_guarded(j):
                    report(j, name, f"increment `{tj.text}`")
            elif (tj.kind == "id" and tj.text in MUTATOR_METHODS and
                  j + 1 < len(toks) and toks[j + 1].text == "(" and
                  toks[j - 1].kind == "op" and toks[j - 1].text in (".", "->")):
                base = _lvalue_base(toks, pair, j - 2)
                if base is None:
                    continue
                name = toks[base].text
                if is_shared(name) and not is_guarded(j):
                    report(j, name, f"mutating call `.{tj.text}()`")


# ---- msgtype-exhaustive ---------------------------------------------------

MSGTYPE_ENUM_RE = re.compile(
    r"\benum\s+class\s+MsgType\s*(?::\s*[\w:\s]+?)?\{([^}]*)\}")


def msgtype_enumerators(code: str):
    m = MSGTYPE_ENUM_RE.search(code)
    if not m:
        return None
    names = []
    for seg in m.group(1).split(","):
        sm = re.match(r"\s*(\w+)", seg)
        if sm:
            names.append(sm.group(1))
    return set(names) or None


def check_msgtype_exhaustive(tf: TokFile, enumerators: set, findings):
    if "/dist/" not in posix(tf.path) or not enumerators:
        return
    toks, pair, enc = tf.toks, tf.pair, tf.enc
    for i, t in enumerate(toks):
        if not (t.kind == "id" and t.text == "switch"):
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        cp = pair.get(i + 1)
        if cp is None or cp + 1 >= len(toks) or toks[cp + 1].text != "{":
            continue
        body_open = cp + 1
        body_close = pair.get(body_open)
        if body_close is None:
            continue
        covered = set()
        has_default = False
        uses_msgtype = False
        for j in range(body_open + 1, body_close):
            if enc[j] != body_open:
                continue  # nested block/switch
            tj = toks[j]
            if tj.kind == "id" and tj.text == "case":
                k = j + 1
                label = None
                while k < body_close and not (toks[k].kind == "op" and
                                              toks[k].text == ":"):
                    if toks[k].kind == "id":
                        if toks[k].text == "MsgType":
                            uses_msgtype = True
                        label = toks[k].text
                    k += 1
                if label is not None:
                    covered.add(label)
            elif tj.kind == "id" and tj.text == "default":
                has_default = True
        if not uses_msgtype:
            continue
        missing = sorted(enumerators - covered)
        if missing and not has_default:
            findings.append(Finding(
                tf.path, t.line, "msgtype-exhaustive",
                "switch over MsgType misses "
                f"{', '.join('MsgType::' + m for m in missing)} and has no "
                "default: — a newer peer's frame would fall through"))


# ---- len-narrow -----------------------------------------------------------

NARROW_TARGETS = {"uint32_t", "uint16_t", "uint8_t", "int32_t", "int16_t",
                  "int8_t", "int", "short", "unsigned", "unsignedint",
                  "unsignedshort", "char", "unsignedchar"}
LEN_ID_RE = re.compile(r"(?:^|_)(?:len|length|size|count|bytes)(?:_|$)")
LEN_GUARD_LINE_RE = re.compile(
    r"(?:<=|>=|<|>)\s*.*?(?:kMax|Max[A-Z_]|_max|limit|Limit|\b\d)|"
    r"(?:kMax|Max[A-Z_]|_max|limit|Limit|\b\d).*?(?:<=|>=|<|>)")


def _len_narrow_scope(p: str) -> bool:
    return ("/dist/" in p or "/checkpoint/" in p or
            "/util/binary_io" in p or "/util/socket" in p)


def _find_close_angle(toks, i):
    depth = 0
    while i < len(toks):
        t = toks[i]
        if t.kind == "op":
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    return i
            elif t.text == ">>":
                depth -= 2
                if depth <= 0:
                    return i
            elif t.text in (";", "{", "}"):
                return None
        i += 1
    return None


def check_len_narrow(tf: TokFile, code_lines, findings):
    if not _len_narrow_scope(posix(tf.path)):
        return
    toks, pair = tf.toks, tf.pair
    for i, t in enumerate(toks):
        if not (t.kind == "id" and t.text == "static_cast"):
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "<":
            continue
        ca = _find_close_angle(toks, i + 1)
        if ca is None or ca + 1 >= len(toks) or toks[ca + 1].text != "(":
            continue
        ttype = "".join(toks[j].text for j in range(i + 2, ca)
                        if toks[j].kind == "id" and toks[j].text != "std")
        if ttype not in NARROW_TARGETS:
            continue
        op = ca + 1
        cp = pair.get(op)
        if cp is None:
            continue
        expr_ids = []
        lenish = False
        for j in range(op + 1, cp):
            tj = toks[j]
            if tj.kind != "id":
                continue
            expr_ids.append(tj.text)
            nxt_call = j + 1 < len(toks) and toks[j + 1].text == "("
            member = j >= 1 and toks[j - 1].kind == "op" and \
                toks[j - 1].text in (".", "->")
            if nxt_call and member and tj.text in ("size", "length", "remaining"):
                lenish = True
            elif nxt_call and tj.text == "u64":
                lenish = True
            elif LEN_ID_RE.search(tj.text):
                lenish = True
        if not lenish:
            continue
        # Explicit truncation masks (`& 0xff`) count as intentional.
        if any(toks[j].kind == "op" and toks[j].text == "&" and
               j + 1 < cp and toks[j + 1].kind == "num"
               for j in range(op + 1, cp)):
            continue
        # std::min(...) inside the cast bounds the value.
        if "min" in expr_ids:
            continue
        # Range-guard scan: a comparison involving one of the expression's
        # identifiers against a kMax*/limit/numeric bound in the preceding
        # lines (send_frame's `if (payload.size() > kMaxFramePayload)` shape).
        guarded = False
        lineno = t.line
        lo = max(0, lineno - 13)
        bases = [x for x in expr_ids
                 if x not in ("size", "length", "remaining", "u64", "std")]
        for raw in code_lines[lo:lineno - 1]:
            if not any(b in raw for b in bases):
                continue
            if LEN_GUARD_LINE_RE.search(raw):
                guarded = True
                break
        if guarded:
            continue
        findings.append(Finding(
            tf.path, lineno, "len-narrow",
            f"narrowing cast of length expression to {ttype or '<int>'} "
            "without a preceding range check — compare against the protocol "
            "limit (kMax*) before truncating"))


# --------------------------------------------------------------------------
# unreached-header: a src/ header that no program source includes.
# --------------------------------------------------------------------------

# Directories (under the tree root, the parent of src/) whose files make a
# header reachable; tests/ is deliberately absent.
PROGRAM_DIRS = ("src", "examples", "bench", "ledger")


def _tree_root(path: Path):
    """The directory holding the innermost `src` component of `path`."""
    parts = path.resolve().parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "src":
            return Path(*parts[:i])
    return None


@functools.lru_cache(maxsize=None)
def _includers(tree: Path):
    """Resolved include target -> set of resolved files including it, over
    every C++ file in the tree's PROGRAM_DIRS."""
    out = {}
    for sub in PROGRAM_DIRS:
        base = tree / sub
        if not base.is_dir():
            continue
        for src in sorted(base.rglob("*")):
            if src.suffix not in CXX_SUFFIXES or not src.is_file():
                continue
            text = src.read_text(encoding="utf-8", errors="replace")
            for m in INCLUDE_RE.finditer(strip_comments(text)):
                for cand in (src.parent / m.group(1), tree / "src" / m.group(1)):
                    if cand.is_file():
                        out.setdefault(cand.resolve(), set()).add(src.resolve())
                        break
    return out


def check_unreached_header(path: Path, findings):
    if path.suffix != ".hpp":
        return
    tree = _tree_root(path)
    if tree is None:
        return
    own = path.resolve()
    users = _includers(tree).get(own, set()) - {own.with_suffix(".cpp")}
    if not users:
        findings.append(Finding(
            path, 1, "unreached-header",
            "no file under src/ (other than its own .cpp), examples/, "
            "bench/ or ledger/ includes this header — delete the feature or "
            "give it a user"))


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

CXX_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh", ".ipp"}


def collect_files(root: Path):
    files = []
    for sub in ("src", "examples"):
        base = root / sub
        if base.is_dir():
            files.extend(p for p in sorted(base.rglob("*")) if p.suffix in CXX_SUFFIXES)
    return files


def _discover_msgtype_enum(files, texts, root: Path):
    """MsgType enumerators from the linted files, falling back to the
    include graph of the dist/ files (protocol.hpp owns the enum)."""
    for path in files:
        e = msgtype_enumerators(strip_comments(texts[path]))
        if e:
            return e
    seen = set()
    for path in files:
        if "/dist/" not in posix(path):
            continue
        for inc in resolve_includes(path, root):
            r = inc.resolve()
            if r in seen:
                continue
            seen.add(r)
            try:
                e = msgtype_enumerators(
                    strip_comments(inc.read_text(encoding="utf-8",
                                                 errors="replace")))
            except OSError:
                continue
            if e:
                return e
    return None


def lint_files(files, root=None):
    if root is None:
        root = Path(__file__).resolve().parent.parent
    texts = {}
    for path in files:
        texts[path] = path.read_text(encoding="utf-8", errors="replace")

    # Pre-pass: unordered-typed member names declared in headers of the
    # order-sensitive dirs, visible to their .cpp files.
    shared_names = {}
    for path in files:
        p = posix(path)
        for d in ORDER_SENSITIVE_DIRS:
            if d in p and path.suffix in (".hpp", ".h", ".hh"):
                code = strip_comments(texts[path])
                shared_names.setdefault(d, set()).update(unordered_names(code))

    msgtype_enum = _discover_msgtype_enum(files, texts, root)

    unsuppressed = []   # all findings, before suppression accounting
    raw_map = {}
    for path in files:
        text = texts[path]
        raw_lines = text.split("\n")
        raw_map[path] = raw_lines
        code = strip_comments(text)
        nostr = blank_strings(code)
        code_lines = nostr.split("\n")
        check_line_rules(path, code_lines, unsuppressed)
        extra = set()
        for d in ORDER_SENSITIVE_DIRS:
            if d in posix(path):
                extra |= shared_names.get(d, set())
        check_unordered_iter(path, code_lines, unsuppressed, extra)
        check_metric_names(path, code, unsuppressed)

        tf = TokFile(path, code)
        unames = unordered_names(code) | extra
        check_fp_unordered_accum(tf, unames, fp_scalar_names(code), unsuppressed)
        check_parallel_mutation(tf, atomic_names(code), unsuppressed)
        check_msgtype_exhaustive(tf, msgtype_enum, unsuppressed)
        check_len_narrow(tf, code_lines, unsuppressed)
        check_unreached_header(path, unsuppressed)


    # Suppression accounting: filter findings whose line carries a matching
    # allow(), track which suppressions fired, and report unknown or stale
    # suppression comments (the meta rules are never themselves filtered).
    findings = []
    consumed = set()
    for f in unsuppressed:
        raw_lines = raw_map.get(f.path, [])
        raw = raw_lines[f.line - 1] if 0 < f.line <= len(raw_lines) else ""
        if f.rule in suppressed_rules(raw):
            consumed.add((str(f.path), f.line, f.rule))
        else:
            findings.append(f)
    for path, raw_lines in raw_map.items():
        for idx, raw in enumerate(raw_lines):
            rules = suppressed_rules(raw)
            if not rules:
                continue
            lineno = idx + 1
            for r in sorted(rules):
                if r not in RULES or r in META_RULES:
                    findings.append(Finding(
                        path, lineno, "unknown-suppression",
                        f"allow({r}) names no known rule — fix the id "
                        "(see --list-rules) or delete the comment"))
                elif (str(path), lineno, r) not in consumed:
                    findings.append(Finding(
                        path, lineno, "stale-suppression",
                        f"allow({r}) no longer matches any `{r}` finding on "
                        "this line — delete the stale suppression"))
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    return findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="files to lint (default: src/ and examples/ under --root)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repo root for the default file set")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--explain", metavar="RULE")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line")
    args = parser.parse_args(argv)

    if args.list_rules:
        width = max(len(r) for r in RULES)
        for rule, info in RULES.items():
            print(f"{rule:<{width}}  {info['summary']}")
            print(f"{'':<{width}}  scope: {info['scope']}")
        return 0
    if args.explain:
        info = RULES.get(args.explain)
        if info is None:
            print(f"unknown rule: {args.explain} (try --list-rules)", file=sys.stderr)
            return 2
        print(f"[{args.explain}] {info['summary']}")
        print(f"scope: {info['scope']}\n")
        print(info["explain"])
        return 0

    files = args.files or collect_files(args.root)
    missing = [f for f in files if not f.is_file()]
    if missing:
        for f in missing:
            print(f"rr-lint: no such file: {f}", file=sys.stderr)
        return 2
    findings = lint_files(files, args.root)
    for finding in findings:
        print(finding)
    if not args.quiet:
        print(f"rr-lint: {len(files)} files, {len(findings)} violation(s)",
              file=sys.stderr)
    if findings:
        print("rr-lint: run with --explain <rule> for rationale and fixes",
              file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())




