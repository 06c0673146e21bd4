#!/usr/bin/env python3
"""Repo-specific protocol-invariant static analysis for the swarm tree.

Six passes, each encoding a bug CLASS (all but the last one caught
dynamically by the chaos engine or a sanitizer first), so the class is
rejected at lint time instead of seed-replay time:

  swarm-unchecked-commit-critical
      A fabric-verb / commit-critical result must reach a branch, a caller,
      or the explicit swarm::DiscardStatus() escape hatch. Motivated by
      FUSEE's fire-and-forget backup index-slot clear (PR 6, seed 12115)
      and the swallowed phase-3 statuses (PR 2). `(void)`-casts of verb
      results are flagged as evasion: the named hatch is the only sink.

  swarm-hot-path-alloc
      Functions tagged SWARM_HOT_PATH ([[clang::annotate("swarm::hot_path")]],
      src/util/annotations.h) must not reach raw `new`, `std::function`,
      `std::make_unique/make_shared`, or allocating std:: containers —
      transitively through same-file callees. Static complement of
      tests/zero_alloc_test.cc (PR 7's allocation purge).

  swarm-bounded-slot-index
      Address arithmetic of the `base + tid * width` shape feeding a verb
      or an address variable must be dominated by a bound check on the
      index operand. Motivated by the tid-past-the-slab out-of-bounds CAS
      (PR 9, seed 47000: `tsl_addr + tid * 8` with tid 8..9 against an
      8-writer slab, CASing the neighboring object's words).

  swarm-retry-stale-epoch
      A retry loop around fabric verbs that branches on completion status
      must have a kStaleEpoch arm (or reach RefreshEpoch through a
      same-file callee). Motivated by PR 5's §5.4 epoch fencing: a loop
      that treats kStaleEpoch like a node failure turns a membership
      transition into evidence about object state.

  swarm-node-table-size
      A per-node table is sized to the fabric's node-id space,
      Fabric::max_nodes(), when its owner is built: `num_nodes()` — the
      nodes present NOW — never sizes a container. Motivated by the hot-add
      sizing bugs: FuseeKvSession::LogSlot overflowed a log-slot table sized
      before an admission (an ASan heap overflow), and the RepairService's
      lifecycle tables needed a lazy EnsureTracked growth path. Scans whole
      files: member initializer lists sit outside function bodies.

  swarm-layout-pin
      A straggler — a coroutine that can outlive the op that started it:
      one handed to sim::Spawn, or a per-replica task returned from a
      quorum wave's lambda (Escalate, Broadcast, Wave) — must not take a
      bare ObjectLayout pointer or reference without a share in the
      layout: a LayoutPin taken by value (the 8 B handle whose count lives
      in the layout's block; a pointer or reference to one is no share),
      or its phase's shared_ptr (the quorum engine stamps its pin into
      every phase). The retired-layout GC frees a dropped layout's block
      once its use-count gate sees no other share, so an unpinned
      straggler that resumes after the drop reads freed records. Spawned callees are
      resolved by name across every file of the run. Files under tests/
      are exempt: a test that builds layouts by hand owns them for its
      whole run, and no GC ever sees them.

Frontend note: this was designed for libclang (clang.cindex); the build
image ships neither the libclang C API nor the Python bindings, and the
tree's no-new-deps rule forbids installing them, so the tool carries a
self-contained C++ tokenizer + function extractor instead. If clang.cindex
is importable it is reported by --version (and is the natural slot-in
replacement for Tokenizer/extract_functions); nothing else changes.

Suppression: standard `// NOLINT(check-name)` on the offending line or
`// NOLINTNEXTLINE(check-name)` on the line above. Every suppression
should carry a justification comment, like DiscardStatus call sites.

Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.
"""

import argparse
import os
import re
import sys

CHECKS = (
    "swarm-unchecked-commit-critical",
    "swarm-hot-path-alloc",
    "swarm-bounded-slot-index",
    "swarm-retry-stale-epoch",
    "swarm-node-table-size",
    "swarm-layout-pin",
)

# Callee names whose results are commit-critical: the one-sided verbs, the
# doorbell-batch posting helpers, the quorum engine's verdicts
# (src/swarm/quorum.h) every protocol commits through, and the quorum
# wrappers. A co_await of any of these must not drop its result.
COMMIT_CRITICAL_CALLEES = {
    "Read", "Write", "Cas", "WriteThenCas",
    "PostMany", "PostBoth",
    "Escalate", "Broadcast", "Wave",
    "WriteAndRead", "WriteVerified", "ReadQuorum",
    "ReplaceLayout", "RemoveIfGeneration", "InsertIfAbsent",
}

# Verb-ish callees for the retry-loop pass (broader: anything that completes
# with a fabric Status belongs here).
VERB_CALLEES = COMMIT_CRITICAL_CALLEES | {"WriteMax", "WriteMaxFor", "TryLock"}

# Tokens that allocate, for the hot-path pass...
ALLOCATING_TYPES = {
    "vector", "string", "map", "unordered_map", "set", "unordered_set",
    "deque", "list", "function",
}
ALLOCATING_CALLS = {"make_unique", "make_shared"}
# ...and the pool-backed identifiers that are exempt (FramePool-routed).
POOL_ALLOWLIST = {"PoolVec", "PoolAlloc", "FramePool", "OopPool", "PoolString"}

TOKEN_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<string>R"(?P<delim>[^()\s\\]{0,16})\(.*?\)(?P=delim)"|"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
    | (?P<pp>\#[^\n]*)
    | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<num>(?:0[xX][0-9a-fA-F']+|[0-9][0-9a-fA-F'.xXeEpPuUlLfF]*))
    | (?P<punct><<=|>>=|<=>|->\*|\.\.\.|::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|[{}()\[\];,<>=+\-*/%!&|^~?:.])
    """,
    re.VERBOSE | re.DOTALL,
)

NOLINT_RE = re.compile(r"NOLINT(NEXTLINE)?\(([^)]*)\)")


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.text}@{self.line}"


def tokenize(source):
    """Returns (tokens, suppressions) where suppressions maps line -> set of
    check names (or {"*"}) suppressed on that line."""
    toks = []
    suppressed = {}
    for m in TOKEN_RE.finditer(source):
        line = source.count("\n", 0, m.start()) + 1
        if m.lastgroup == "delim":
            continue
        if m.group("comment"):
            for nm in NOLINT_RE.finditer(m.group("comment")):
                target = line + 1 if nm.group(1) else line
                names = {n.strip() for n in nm.group(2).split(",") if n.strip()}
                suppressed.setdefault(target, set()).update(names or {"*"})
            continue
        if m.group("pp"):
            continue
        kind = m.lastgroup
        toks.append(Tok(kind, m.group(), line))
    return toks, suppressed


class Function:
    """One function definition: name, signature attributes, body tokens."""

    __slots__ = ("name", "line", "body", "hot_path", "qualname", "params", "coroutine")

    def __init__(self, name, qualname, line, body, hot_path, params, coroutine):
        self.name = name
        self.qualname = qualname
        self.line = line
        self.body = body  # list of Tok inside the outermost braces
        self.hot_path = hot_path
        self.params = params  # list of Tok between the parameter parens
        self.coroutine = coroutine  # Declared to return a (sim::)Task


def _matching(toks, i, open_t, close_t):
    """Index just past the token matching toks[i] (which must be open_t)."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def extract_functions(toks):
    """Finds function definitions: `name ( ... ) [quals] {`. Tracks the
    SWARM_HOT_PATH / clang::annotate("swarm::hot_path") attribute within the
    16 tokens preceding the name. Good enough for this tree's idiom; bodies
    of lambdas nest inside their enclosing function's body and are scanned
    with it."""
    funcs = []
    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "id" and i + 1 < n and toks[i + 1].text == "(":
            close = _matching(toks, i + 1, "(", ")")
            # Skip trailing qualifiers between ')' and '{'.
            j = close
            while j < n and (
                toks[j].kind == "id"
                and toks[j].text in (
                    "const", "noexcept", "override", "final", "mutable",
                )
                or toks[j].text == "->"
                or (j > close and toks[j - 1].text == "->")
            ):
                # Swallow a trailing-return-type's tokens conservatively.
                if toks[j].text == "->":
                    j += 1
                    while j < n and toks[j].text not in ("{", ";"):
                        j += 1
                    break
                j += 1
            if j < n and toks[j].text == "{":
                # Reject control-flow keywords masquerading as names.
                if t.text in ("if", "for", "while", "switch", "return",
                              "co_return", "co_await", "sizeof", "catch",
                              "new", "delete", "do", "else"):
                    i += 1
                    continue
                body_end = _matching(toks, j, "{", "}")
                hot = False
                coroutine = False
                qual = t.text
                back = i - 1
                hops = 0
                while back >= 0 and hops < 24:
                    bt = toks[back]
                    if bt.text in (";", "}", "{"):
                        break
                    if bt.kind == "id" and bt.text == "Task":
                        coroutine = True
                    if bt.kind == "id" and bt.text == "SWARM_HOT_PATH":
                        hot = True
                    if bt.kind == "string" and "swarm::hot_path" in bt.text:
                        hot = True
                    if bt.text == "::" and back >= 1 and toks[back - 1].kind == "id":
                        qual = toks[back - 1].text + "::" + qual
                    back -= 1
                    hops += 1
                funcs.append(Function(t.text, qual, t.line,
                                      toks[j + 1:body_end - 1], hot,
                                      toks[i + 2:close - 1], coroutine))
                i = j + 1  # Descend: member functions inside class bodies.
                continue
            i = close
            continue
        i += 1
    return funcs


# Read/Write/Cas exist both as fabric verbs (receiver: a Qp) and as
# protocol-object methods (AbdObject::Read, SafeGuessObject::Write, ...)
# whose bodies own the fabric-status handling. Only qp-receiver calls are
# verbs; the unambiguous names (PostMany, ReadQuorum, ...) always count.
AMBIGUOUS_VERB_NAMES = {"Read", "Write", "Cas", "WriteThenCas"}


def _is_verb_call(body, name_idx):
    name = body[name_idx].text
    if name not in AMBIGUOUS_VERB_NAMES:
        return True
    for k in range(max(0, name_idx - 8), name_idx):
        t = body[k]
        if t.kind == "id" and "qp" in t.text.lower():
            return True
    return False


def _callee_name(body, open_paren_idx):
    """Name of the call whose '(' is at open_paren_idx, following a.b.C(x)
    chains back to the last identifier."""
    k = open_paren_idx - 1
    if k >= 0 and body[k].kind == "id":
        return body[k].text
    return None


def _call_sites(body, names):
    """Yields (name_idx, open_paren_idx, close_idx) for calls to `names`."""
    for i, t in enumerate(body):
        if t.kind == "id" and t.text in names and i + 1 < len(body) \
                and body[i + 1].text == "(":
            # Exclude declarations: `Type Read(` — preceded by another id at
            # same expression start is still ambiguous; call sites in bodies
            # overwhelmingly follow '.', '->', '::' or expression context.
            yield i, i + 1, _matching(body, i + 1, "(", ")")


def _statement_end(body, i):
    """Index of the ';' ending the statement containing i (paren-aware)."""
    depth = 0
    n = len(body)
    while i < n:
        t = body[i].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == ";" and depth <= 0:
            return i
        i += 1
    return n - 1


def _statement_start(body, i):
    """Backward scan to the statement's first token. A '}' just before the
    scan point is ambiguous: a braced initializer inside this statement
    (keep scanning past it) or the end of a preceding block (stop there).
    Initializer brace groups contain no ';', which disambiguates."""
    depth = 0
    brace_resume = None  # Position just past a '}' being probed.
    while i > 0:
        t = body[i - 1].text
        if t == "}":
            if depth == 0 and brace_resume is None:
                brace_resume = i
            depth += 1
        elif t in (")", "]"):
            depth += 1
        elif t in ("(", "[", "{"):
            if depth == 0:
                return i
            depth -= 1
            if depth == 0 and t == "{":
                brace_resume = None  # Balanced initializer; keep scanning.
        elif t == ";":
            if depth == 0:
                return i
            if brace_resume is not None:
                return brace_resume  # The '}' closed a code block.
        i -= 1
    return 0


# --- Pass 1: swarm-unchecked-commit-critical --------------------------------

def check_unchecked_commit_critical(fn, findings):
    body = fn.body
    n = len(body)
    for name_idx, op, close in _call_sites(body, COMMIT_CRITICAL_CALLEES):
        if not _is_verb_call(body, name_idx):
            continue
        # Only co_awaited verb calls: find `co_await` earlier in the
        # statement (the verbs are all async).
        start = _statement_start(body, name_idx)
        stmt_toks = body[start:name_idx]
        if not any(t.text == "co_await" for t in stmt_toks):
            continue
        # Only tokens BEFORE the co_await keyword are the result's context;
        # everything after it belongs to the awaited expression itself
        # (`co_await worker->qp(n).Read(...)` — the qp(n) parens are not a
        # consumer).
        pre = []
        for t in stmt_toks:
            if t.text == "co_await":
                break
            pre.append(t.text)
        line = body[name_idx].line
        # The whole co_await expression may be nested inside an outer call's
        # parens: `Outer(co_await qp.Cas(...))`. The statement scan stops at
        # that '(' — look just outside it for the consumer.
        if start > 0 and body[start - 1].text == "(":
            outer = body[start - 2].text if start >= 2 else ""
            if outer == "DiscardStatus":
                continue  # The sanctioned sink.
            # Any other outer context (call argument, if/while condition,
            # co_return expression) consumes the result.
            continue
        # The sanctioned sink.
        if "DiscardStatus" in pre:
            continue
        # `(void) co_await v.Cas(...)` — evasion of the nodiscard contract.
        if "void" in pre:
            findings.append((line, "swarm-unchecked-commit-critical",
                             f"result of commit-critical '{body[name_idx].text}' "
                             "is (void)-cast; route intentional drops through "
                             "swarm::DiscardStatus() with a justification"))
            continue
        # Result captured? Look for `=` before co_await in this statement,
        # or the call being an argument / return value.
        eq_positions = [k for k, x in enumerate(pre) if x == "="]
        if not eq_positions:
            # Used as an argument, condition, or co_returned? If any tokens
            # of the statement before co_await suggest a consuming context,
            # accept: 'return', 'co_return', 'if', 'while', '(', ',', '?',
            # comparison/logic operators.
            consuming = {"return", "co_return", "if", "while", "switch", "(",
                         ",", "?", ":", "==", "!=", "<", ">", "<=", ">=",
                         "&&", "||", "!", "+", "-", "[", "case"}
            if any(x in consuming for x in pre):
                continue
            findings.append((line, "swarm-unchecked-commit-critical",
                             f"commit-critical '{body[name_idx].text}' is "
                             "fire-and-forget: its completion status is "
                             "dropped (the PR-6 seed-12115 bug shape) — "
                             "branch on it or DiscardStatus() it"))
            continue
        # `auto r = co_await ...` — require r to be read again afterwards.
        var_idx = eq_positions[0] - 1
        if var_idx < 0 or stmt_toks[var_idx].kind != "id":
            continue
        # A store through a dereference, member, or element (`*out = ...`,
        # `s.res = ...`, `slots[i] = ...`) escapes the function — the result
        # is examined by whoever owns that memory, not in this body.
        if var_idx > 0 and stmt_toks[var_idx - 1].text in {"*", ".", "->", "]"}:
            continue
        var = stmt_toks[var_idx].text
        end = _statement_end(body, close)
        used = False
        k = end + 1
        while k < n:
            t = body[k]
            if t.kind == "id" and t.text == var:
                stmt0 = _statement_start(body, k)
                window = {x.text for x in body[stmt0:k]}
                if "DiscardStatus" in window:
                    used = True  # Sanctioned.
                elif "void" in window and len(window & {"if", "while", "return",
                                                        "co_return"}) == 0:
                    k += 1
                    continue  # `(void)r;` alone does not count as a read.
                else:
                    used = True
            if used:
                break
            k += 1
        if not used:
            findings.append((line, "swarm-unchecked-commit-critical",
                             f"result '{var}' of commit-critical "
                             f"'{body[name_idx].text}' is never examined "
                             "afterwards — branch on it or DiscardStatus() it"))


# --- Pass 2: swarm-hot-path-alloc -------------------------------------------

def _alloc_sites(fn):
    """Yields (line, what) for allocation constructs in fn's body."""
    body = fn.body
    n = len(body)
    for i, t in enumerate(body):
        if t.kind != "id":
            continue
        if t.text == "new":
            # `operator new` definitions and `new (pool) T` placement into a
            # pool frame are the pool plumbing itself.
            if i > 0 and body[i - 1].text == "operator":
                continue
            if i + 1 < n and body[i + 1].text == "(" :
                close = _matching(body, i + 1, "(", ")")
                if any(x.kind == "id" and x.text in POOL_ALLOWLIST
                       for x in body[i + 1:close]):
                    continue
            yield t.line, "raw `new`"
        elif t.text in ALLOCATING_CALLS:
            yield t.line, f"std::{t.text}"
        elif t.text == "allocate_shared":
            close = _matching(body, i + 1, "(", ")") if i + 1 < n else i
            seg = body[i:close + 4]
            if not any(x.kind == "id" and x.text in POOL_ALLOWLIST for x in seg):
                yield t.line, "allocate_shared without a pool allocator"
        elif t.text in ALLOCATING_TYPES:
            # `std::vector<`, `std::function<`, ... used as a type.
            if i >= 2 and body[i - 1].text == "::" and body[i - 2].text == "std" \
                    and i + 1 < n and body[i + 1].text in ("<", "("):
                yield t.line, f"std::{t.text}"


def check_hot_path_alloc(funcs, fn, findings, by_name):
    if not fn.hot_path:
        return
    seen = set()
    # Same-file transitive closure: a hot-path function's same-file callees
    # are hot too (the runtime zero-alloc guard has the same reach). Calls
    # resolve by name, so a call reaches every same-file function of that
    # name (overloads, same-named members of different structs).
    stack = [(fn, None)]
    visited = {id(fn)}
    while stack:
        cur, via = stack.pop()
        for line, what in _alloc_sites(cur):
            where = f" (reached via '{via}')" if via else ""
            key = (cur.qualname, line, what)
            if key in seen:
                continue
            seen.add(key)
            report_line = line if via is None else fn.line
            findings.append((line if via is None else line,
                             "swarm-hot-path-alloc",
                             f"hot-path function '{fn.qualname}'{where} reaches "
                             f"{what}; hot paths must stay on the FramePool "
                             "(see src/util/annotations.h)"))
        for i, t in enumerate(cur.body):
            if t.kind == "id" and i + 1 < len(cur.body) \
                    and cur.body[i + 1].text == "(" and t.text in by_name:
                for callee in by_name[t.text]:
                    if id(callee) not in visited:
                        visited.add(id(callee))
                        stack.append((callee, callee.qualname))


# --- Pass 3: swarm-bounded-slot-index ---------------------------------------

INDEXY = re.compile(r"(tid|idx|index|slot|rep|shard|writer|node)", re.I)
ADDRY = re.compile(r"(addr|base|ptr|offset|off)", re.I)
BOUNDY_CALL = re.compile(r"(Check|Assert|Enforce|Verify|Clamp).*|.*Bound.*")


def check_bounded_slot_index(fn, findings):
    body = fn.body
    n = len(body)
    for i in range(n - 2):
        # Pattern: <id> '*' <num|id>  or  <num> '*' <id> inside a larger
        # `base + ...` expression.
        a, star, b = body[i], body[i + 1], body[i + 2]
        if star.text != "*":
            continue
        idx_tok = None
        if a.kind == "id" and INDEXY.search(a.text) and b.kind in ("num", "id"):
            idx_tok = a
        elif b.kind == "id" and INDEXY.search(b.text) and a.kind == "num":
            idx_tok = b
        elif a.text == ")":
            # Cast-wrapped index: `static_cast<uint64_t>(owner_tid) * 8`.
            # Walk back to the matching '(' and adopt the lone index-ish
            # identifier inside the parens as the multiplicand.
            depth = 1
            k = i - 1
            while k >= 0 and depth:
                if body[k].text == ")":
                    depth += 1
                elif body[k].text == "(":
                    depth -= 1
                k -= 1
            inner = [t for t in body[k + 2:i]
                     if t.kind == "id" and INDEXY.search(t.text)]
            if len(inner) == 1:
                idx_tok = inner[0]
        if idx_tok is None:
            continue
        # Must take part in a `+` with an address-ish operand, and the value
        # must flow somewhere address-like: `<x>_addr = base + tid*8`, or be
        # a direct argument of a verb call. Flat `;`-delimited bounds: the
        # anchor may sit inside a cast's parens, where the bracket-aware
        # statement scan would stop at the cast's '(' and lose the `base +`.
        stmt0 = i
        while stmt0 > 0 and body[stmt0 - 1].text not in (";", "{", "}"):
            stmt0 -= 1
        stmt1 = i
        while stmt1 < n and body[stmt1].text != ";":
            stmt1 += 1
        stmt = body[stmt0:stmt1]
        texts = [t.text for t in stmt]
        if "+" not in texts:
            continue
        addr_ctx = any(t.kind == "id" and ADDRY.search(t.text) for t in stmt)
        verb_ctx = any(t.kind == "id" and t.text in VERB_CALLEES for t in stmt)
        if not (addr_ctx or verb_ctx):
            continue
        # Dominating bound check on idx_tok.text anywhere earlier in the
        # function: a comparison adjacent to the index, an assert mentioning
        # it, or a bound-checking call taking it.
        var = idx_tok.text
        guarded = False
        for k in range(0, i):
            t = body[k]
            if t.kind != "id" or t.text != var:
                continue
            prev = body[k - 1].text if k > 0 else ""
            nxt = body[k + 1].text if k + 1 < n else ""
            if prev in ("<", "<=", ">", ">=") or nxt in ("<", "<=", ">", ">="):
                guarded = True
                break
            s0 = _statement_start(body, k)
            head = [x.text for x in body[max(0, s0 - 2):k]]
            if any(x == "assert" or BOUNDY_CALL.fullmatch(x)
                   for x in head if isinstance(x, str)):
                guarded = True
                break
        if not guarded:
            findings.append((idx_tok.line, "swarm-bounded-slot-index",
                             f"slot-address arithmetic over '{var}' has no "
                             "dominating bound check in this function (the "
                             "PR-9 seed-47000 tid-past-the-slab shape) — "
                             "guard it or assert the layout bound first"))
        # One finding per statement is enough.
        # (continue scanning for other statements)


# --- Pass 4: swarm-retry-stale-epoch ----------------------------------------

def _loops(body):
    """Yields (line, body_slice) for for/while/do loop bodies."""
    n = len(body)
    i = 0
    while i < n:
        t = body[i]
        if t.kind == "id" and t.text in ("for", "while") and i + 1 < n \
                and body[i + 1].text == "(":
            close = _matching(body, i + 1, "(", ")")
            if close < n and body[close].text == "{":
                end = _matching(body, close, "{", "}")
                yield t.line, body[close + 1:end - 1]
                i = close + 1
                continue
        elif t.kind == "id" and t.text == "do" and i + 1 < n \
                and body[i + 1].text == "{":
            end = _matching(body, i + 1, "{", "}")
            yield t.line, body[i + 2:end - 1]
            i = i + 2
            continue
        i += 1


def check_retry_stale_epoch(fn, findings, by_name):
    for line, loop in _loops(fn.body):
        texts = [t.text for t in loop]
        tset = set(texts)
        has_verb = False
        for k, x in enumerate(texts):
            if x in VERB_CALLEES and k + 1 < len(texts) and texts[k + 1] == "(" \
                    and "co_await" in texts[max(0, k - 8):k] \
                    and _is_verb_call(loop, k):
                has_verb = True
                break
        if not has_verb:
            continue
        # Only RETRY loops that already reason about completion status AND
        # keep retrying inside the loop (`continue`): a loop that exits on
        # any failure, propagating the status to its caller, correctly
        # delegates the kStaleEpoch arm upward (the CAS-max ladders all do
        # this — they re-CAS only on contention, never on failure).
        # ...and only loops reasoning about FABRIC statuses: protocol-level
        # statuses (SgStatus, KvStatus) have their kStaleEpoch arm below, in
        # the protocol object that produced them.
        branches_on_status = bool(tset & {"OpResult", "kNodeFailed",
                                          "kMovedReplica", "kStaleEpoch"})
        if not branches_on_status or "continue" not in tset:
            continue
        handled = ("kStaleEpoch" in tset or "RefreshEpoch" in tset)
        if not handled:
            # Same-file callee may centralize the arm (e.g. a shared
            # failure-handler the loop calls on every non-kOk status).
            handled = any(t.text in ("kStaleEpoch", "RefreshEpoch")
                          for x in tset for f2 in by_name.get(x, ())
                          for t in f2.body)
        if not handled:
            findings.append((line, "swarm-retry-stale-epoch",
                             "retry loop over fabric verbs branches on "
                             "completion status but has no kStaleEpoch arm "
                             "(§5.4: a stale-epoch completion carries no "
                             "information about object state) — refresh the "
                             "epoch and retry, never treat it as failure"))


# --- Pass 5: swarm-node-table-size ------------------------------------------

SIZING_METHODS = {"resize", "assign", "reserve"}


def _skip_template(toks, i):
    """Index just past the `>` closing the template argument list opened at
    toks[i] (`<`); `>>` closes two levels."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == "<":
            depth += 1
        elif t in (">", ">>"):
            depth -= 1 if t == ">" else 2
            if depth <= 0:
                return i + 1
        elif t in (";", "{", "}"):
            return i  # Not a template argument list after all.
        i += 1
    return n


def _arg_list(toks, i):
    """(open, close) of the call or brace-init whose `(` / `{` is toks[i],
    close just past the matching bracket; None when toks[i] opens neither."""
    if i >= len(toks) or toks[i].text not in ("(", "{"):
        return None
    close_t = ")" if toks[i].text == "(" else "}"
    return i, _matching(toks, i, toks[i].text, close_t)


def _sized_arg_lists(toks):
    """Yields (what, open, close) for every container-sizing argument list:
    `.resize/.assign/.reserve(...)`, `vector<...>(...)`, `vector<...>
    name(...)`, `make_shared<vector<...>>(...)`, and each member
    initializer of a constructor's initializer list."""
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        if t.text in SIZING_METHODS and i > 0 and toks[i - 1].text in (".", "->"):
            span = _arg_list(toks, i + 1)
            if span:
                yield f".{t.text}()", span[0], span[1]
        elif t.text in ("vector", "make_shared") and i + 1 < n and toks[i + 1].text == "<":
            j = _skip_template(toks, i + 1)
            if t.text == "make_shared" and not any(
                    x.text == "vector" for x in toks[i + 2:j]):
                continue
            if j < n and toks[j].kind == "id":
                j += 1  # A declaration: `vector<bool> name(...)`.
            span = _arg_list(toks, j)
            if span:
                yield f"{t.text}<...>", span[0], span[1]
    # Member initializers: `) : a_(...), b_{...} {`. The list must run to the
    # constructor body's `{`, which rules out `cond ? f() : g()`.
    for i in range(n - 1):
        if toks[i].text != ")" or toks[i + 1].text != ":":
            continue
        items = []
        j = i + 2
        while j < n and toks[j].kind == "id":
            span = _arg_list(toks, j + 1)
            if not span:
                break
            items.append((toks[j].text, span))
            j = span[1]
            if j < n and toks[j].text == ",":
                j += 1
                continue
            if j < n and toks[j].text == "{":
                for name, (open_i, close_i) in items:
                    yield f"member initializer {name}", open_i, close_i
            break


def check_node_table_size(toks, findings):
    seen = set()
    for what, open_i, close_i in _sized_arg_lists(toks):
        for k in range(open_i + 1, close_i - 2):
            if toks[k].text == "num_nodes" and toks[k + 1].text == "(" \
                    and toks[k + 2].text == ")" and k not in seen:
                seen.add(k)
                findings.append((toks[k].line, "swarm-node-table-size",
                                 f"num_nodes() sizes a container ({what}): a "
                                 "node hot-added later (Fabric::AddNode) "
                                 "indexes past it — size per-node tables to "
                                 "max_nodes(), the node-id space, when their "
                                 "owner is built"))


# --- Pass 6: swarm-layout-pin -----------------------------------------------

# The quorum engine's wave entry points: each spawns the per-replica tasks
# its lambda returns, and resumes before the slowest of them completes.
WAVE_CALLEES = {"Escalate", "Broadcast", "Wave"}
# Phase types every file may use (src/swarm/quorum.h); a same-file struct
# deriving from one is a phase too.
BASE_PHASES = {"QuorumPhase", "WordPhase"}


def straggler_callees(toks):
    """Names of the coroutines a file starts as stragglers: the callee of
    each `Spawn(callee(...))`, and of each `return callee(...)` inside a
    lambda passed to a quorum wave."""
    names = set()
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or i + 1 >= n or toks[i + 1].text != "(":
            continue
        close = _matching(toks, i + 1, "(", ")")
        if t.text == "Spawn":
            for k in range(i + 2, close - 1):
                if toks[k].kind == "id" and toks[k + 1].text == "(":
                    names.add(toks[k].text)
                    break
        elif t.text in WAVE_CALLEES:
            for k in range(i + 2, close - 2):
                if toks[k].text == "return" and toks[k + 1].kind == "id":
                    m = k + 1
                    while m + 2 < close and toks[m + 1].text == "::":
                        m += 2
                    if toks[m + 1].text == "(":
                        names.add(toks[m].text)
    return names


def _phase_types(toks):
    """BASE_PHASES plus every struct/class in the file deriving from a phase."""
    bases = {}
    for i in range(len(toks) - 2):
        if toks[i].text in ("struct", "class") and toks[i + 1].kind == "id":
            j = i + 2
            if j < len(toks) and toks[j].text == "final":
                j += 1
            if j < len(toks) and toks[j].text == ":":
                j += 1
                while j < len(toks) and toks[j].text in ("public", "private", "protected"):
                    j += 1
                if j < len(toks) and toks[j].kind == "id":
                    bases[toks[i + 1].text] = toks[j].text
    phases = set(BASE_PHASES)
    grew = True
    while grew:
        grew = False
        for derived, base in bases.items():
            if base in phases and derived not in phases:
                phases.add(derived)
                grew = True
    return phases


def _split_params(params):
    """The parameter list's top-level comma-separated pieces."""
    out = [[]]
    depth = 0
    for t in params:
        if t.text in ("(", "[", "{", "<"):
            depth += 1
        elif t.text in (")", "]", "}", ">"):
            depth -= 1
        elif t.text == ">>":
            depth -= 2
        elif t.text == "," and depth == 0:
            out.append([])
            continue
        out[-1].append(t)
    return [p for p in out if p]


def _template_arg(param, name):
    """Identifiers inside `name<...>` within one parameter, or None."""
    for k, t in enumerate(param):
        if t.text == name and k + 1 < len(param) and param[k + 1].text == "<":
            end = _skip_template(param, k + 1)
            return {x.text for x in param[k + 2:end - 1] if x.kind == "id"}
    return None


def _indirect(texts, name):
    """True when the parameter takes `name` through a pointer or reference."""
    k = texts.index(name) + 1
    while k < len(texts) and texts[k] == "const":
        k += 1
    return k < len(texts) and texts[k] in ("*", "&", "&&")


def check_layout_pin(fn, findings, stragglers, phases):
    if not fn.coroutine or fn.name not in stragglers:
        return
    bare = None
    pinned = False
    for param in _split_params(fn.params):
        texts = [t.text for t in param]
        owned = _template_arg(param, "shared_ptr")
        if "LayoutPin" in texts:
            # A share only by value: a referenced pin can be gone by the
            # time the straggler resumes.
            pinned = pinned or not _indirect(texts, "LayoutPin")
        elif owned and owned & phases:
            pinned = True
        elif owned is None and "ObjectLayout" in texts and _indirect(texts, "ObjectLayout"):
            bare = param[-1].text
    if bare is not None and not pinned:
        findings.append((fn.line, "swarm-layout-pin",
                         f"straggler coroutine '{fn.name}' takes the layout "
                         f"'{bare}' without a share in it: once its op returns, "
                         "the retired-layout GC may free the layout under it — "
                         "take a LayoutPin by value, or the phase shared_ptr the "
                         "quorum engine stamps its pin into"))


# --- Driver -----------------------------------------------------------------

def lint_file(path, enabled, stragglers=None):
    """`stragglers`: names of the coroutines started as stragglers anywhere
    in the run (straggler_callees over every file); None = this file's own."""
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            source = f.read()
    except OSError as e:
        print(f"{path}: cannot read: {e}", file=sys.stderr)
        return []
    toks, suppressed = tokenize(source)
    funcs = extract_functions(toks)
    by_name = {}
    for fn in funcs:
        by_name.setdefault(fn.name, []).append(fn)
    findings = []
    if "swarm-node-table-size" in enabled:
        check_node_table_size(toks, findings)
    layout_pin = "swarm-layout-pin" in enabled and "tests" not in \
        os.path.normpath(path).split(os.sep)
    if layout_pin:
        if stragglers is None:
            stragglers = straggler_callees(toks)
        phases = _phase_types(toks)
    for fn in funcs:
        if "swarm-unchecked-commit-critical" in enabled:
            check_unchecked_commit_critical(fn, findings)
        if "swarm-hot-path-alloc" in enabled:
            check_hot_path_alloc(funcs, fn, findings, by_name)
        if "swarm-bounded-slot-index" in enabled:
            check_bounded_slot_index(fn, findings)
        if "swarm-retry-stale-epoch" in enabled:
            check_retry_stale_epoch(fn, findings, by_name)
        if layout_pin:
            check_layout_pin(fn, findings, stragglers, phases)
    out = []
    for line, check, msg in findings:
        names = suppressed.get(line, set())
        if "*" in names or check in names:
            continue
        out.append((path, line, check, msg))
    return out


DEFAULT_EXTS = (".cc", ".h", ".cpp", ".hpp")


def gather(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for nm in sorted(names):
                    if nm.endswith(DEFAULT_EXTS):
                        files.append(os.path.join(root, nm))
        else:
            files.append(p)
    return files


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=[], help="files or directories")
    ap.add_argument("--checks", default=",".join(CHECKS),
                    help="comma-separated subset of checks to run")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--version", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checks:
        print("\n".join(CHECKS))
        return 0
    if args.version:
        try:
            import clang.cindex  # noqa: F401
            frontend = "clang.cindex available (self-contained frontend in use)"
        except ImportError:
            frontend = "self-contained frontend (clang.cindex not importable)"
        print(f"check_protocol_invariants 1.0 — {frontend}")
        return 0

    enabled = set()
    for c in args.checks.split(","):
        c = c.strip()
        if not c:
            continue
        if c not in CHECKS:
            print(f"unknown check: {c}", file=sys.stderr)
            return 2
        enabled.add(c)
    if not args.paths:
        ap.print_usage(sys.stderr)
        return 2

    files = gather(args.paths)
    # Stragglers are started in one file and often defined in another
    # (Safe-Guess spawns QuorumMax::Promote): collect them over the run.
    stragglers = set()
    if "swarm-layout-pin" in enabled:
        for path in files:
            try:
                with open(path, "r", encoding="utf-8", errors="replace") as f:
                    stragglers |= straggler_callees(tokenize(f.read())[0])
            except OSError:
                pass  # lint_file reports it.
    all_findings = []
    for path in files:
        all_findings.extend(lint_file(path, enabled, stragglers))
    for path, line, check, msg in all_findings:
        print(f"{path}:{line}: [{check}] {msg}")
    if all_findings:
        print(f"\n{len(all_findings)} finding(s).", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
