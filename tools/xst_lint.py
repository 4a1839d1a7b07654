#!/usr/bin/env python3
"""xst-lint: project-specific structural lint for the XST C++ sources.

DESIGN.md section 7.3 is the rule catalog: what each rule proves, its
scope and exemptions. `--list-rules` prints the rule names, and each rule's
function below carries its exemptions.

Suppress a single line with a trailing comment:  // xst-lint: allow(rule-name)

Usage:
  tools/xst_lint.py [paths...]   # default: src/ relative to the repo root
  tools/xst_lint.py --list-rules
  tools/xst_lint.py --self-test
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ---------------------------------------------------------------------------
# Source preprocessing: strip comments and string/char literals so rule
# patterns only ever match code. Line structure is preserved (stripped spans
# become spaces) so findings report real line numbers.
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text):
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def extract_macro_args(lines, line_idx, col):
    """Return the balanced-paren argument of a macro whose '(' is at/after
    `col` on line `line_idx` of the stripped `lines`. Spans lines."""
    depth = 0
    arg = []
    i, j = line_idx, col
    started = False
    while i < len(lines):
        line = lines[i]
        while j < len(line):
            c = line[j]
            if c == "(":
                depth += 1
                started = True
                if depth > 1:
                    arg.append(c)
            elif c == ")":
                depth -= 1
                if depth == 0:
                    return "".join(arg)
                arg.append(c)
            elif started:
                arg.append(c)
            j += 1
        arg.append(" ")
        i += 1
        j = 0
    return "".join(arg)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _exempt(rel_path, names):
    return any(rel_path.endswith(n) for n in names)


# `(?!::)` spares nested names like std::thread::id, which name a type but
# spawn nothing.
THREAD_RE = re.compile(r"std::(thread|async)\b(?!::)")
BARE_MUTEX_RE = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|timed_mutex|recursive_timed_mutex|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock|"
    r"condition_variable|condition_variable_any)\b")
NEW_RE = re.compile(r"\bnew\b")
DELETE_RE = re.compile(r"\bdelete\b")
EQ_DELETE_RE = re.compile(r"=\s*delete\b")
INTERNER_RE = re.compile(r"Interner::Global\(\)\s*\.\s*(Int|Symbol|String|Set)\s*\(")
FROM_SORTED_RE = re.compile(r"\bFromSortedMembers\s*\(")
DCHECK_RE = re.compile(r"\bXST_DCHECK\s*(\()")
PAIRING_RE = re.compile(r"XST_DCHECK\s*\(\s*IsCanonicalMemberList")
SIDE_EFFECT_RE = re.compile(
    r"\+\+|--|(?<![=!<>+\-*/%&|^])=(?![=])"
)
PAGE_FETCH_RE = re.compile(r"\b(FetchPage|AllocatePage)\s*\(")
PAGE_PTR_RE = re.compile(r"\bPage\s*\*")
PAGE_PTR_DECL_RE = re.compile(r"\bPage\s*\*\s*\w+\s*=")
PAGEREF_DEREF_RE = re.compile(r"\.get\(\)|&\s*\*|operator->")


def rule_thread_primitives(rel_path, lines, _raw):
    if _exempt(rel_path, ("common/thread_pool.h", "common/thread_pool.cc")):
        return
    for i, line in enumerate(lines, 1):
        m = THREAD_RE.search(line)
        if m:
            yield i, (f"std::{m.group(1)} outside common/thread_pool; "
                      "route parallelism through ThreadPool::Global()")


def rule_bare_mutex(rel_path, lines, _raw):
    if _exempt(rel_path, ("common/sync.h", "common/sync.cc")):
        return
    for i, line in enumerate(lines, 1):
        m = BARE_MUTEX_RE.search(line)
        if m:
            yield i, (f"bare std::{m.group(1)}; use xst::Mutex / MutexLock / "
                      "CondVar (src/common/sync.h) so the thread-safety "
                      "analysis sees the lock")


def rule_raw_new_delete(rel_path, lines, _raw):
    if _exempt(rel_path, ("core/interner.cc", "common/thread_pool.cc")):
        return
    for i, line in enumerate(lines, 1):
        if NEW_RE.search(line):
            prev = lines[i - 2] if i >= 2 else ""
            wrapped = "_ptr<" in line or "_ptr<" in prev
            leaked_singleton = "static" in line and "= new" in line
            if not wrapped and not leaked_singleton:
                yield i, ("raw `new`; wrap in a smart pointer on the same or "
                          "previous line, or use a `static ... = new` singleton")
        stripped_eq = EQ_DELETE_RE.sub(" ", line)
        if DELETE_RE.search(stripped_eq):
            yield i, "raw `delete`; owned memory must live behind RAII"


def rule_interner_mutation(rel_path, lines, _raw):
    if _exempt(rel_path, ("core/xset.cc", "core/builder.cc", "core/interner.cc")):
        return
    for i, line in enumerate(lines, 1):
        m = INTERNER_RE.search(line)
        if m:
            yield i, (f"direct interner mutation Interner::Global().{m.group(1)}() "
                      "outside the core builder layer; use an XSet factory")


def rule_sorted_members_dcheck(rel_path, lines, _raw):
    if _exempt(rel_path, ("core/xset.h", "core/xset.cc")):
        return
    for i, line in enumerate(lines, 1):
        if FROM_SORTED_RE.search(line):
            window = "\n".join(lines[max(0, i - 5):i])
            if not PAIRING_RE.search(window):
                yield i, ("FromSortedMembers call without a paired "
                          "XST_DCHECK(IsCanonicalMemberList(...)) in the "
                          "preceding 4 lines")


def rule_dcheck_side_effects(rel_path, lines, _raw):
    for i, line in enumerate(lines, 1):
        for m in DCHECK_RE.finditer(line):
            arg = extract_macro_args(lines, i - 1, m.start(1))
            if SIDE_EFFECT_RE.search(arg):
                yield i, ("side effect inside XST_DCHECK; the argument is "
                          "unevaluated under NDEBUG")


def rule_raw_page_pointer(rel_path, lines, _raw):
    if _exempt(rel_path, ("store/pager.h", "store/pager.cc")):
        return  # the PageRef implementation itself
    for i, line in enumerate(lines, 1):
        if not PAGE_PTR_RE.search(line):
            continue
        # The pinning call or the dereferenced pin may sit on this line or,
        # in a multi-line statement, on the next two.
        window = "\n".join(lines[i - 1:i + 2])
        if PAGE_FETCH_RE.search(window) or (
                PAGE_PTR_DECL_RE.search(line) and PAGEREF_DEREF_RE.search(window)):
            yield i, ("raw Page* bound from FetchPage/AllocatePage or out of "
                      "a PageRef; hold the PageRef pin (a raw frame pointer "
                      "dangles as soon as the pool evicts the page)")


OBS_ACCESS_RE = re.compile(r"^\s*(public|private|protected)\s*:")
OBS_SCOPE_OPEN_RE = re.compile(
    r"^\s*(?:template\s*<[^>]*>\s*)?(class|struct)\s+(?:alignas\s*\([^)]*\)\s*)?\w+")
OBS_NAMESPACE_RE = re.compile(r"^\s*(?:inline\s+)?namespace\b")
OBS_DECL_SKIP_RE = re.compile(
    r"^\s*(?:#|\}|if\b|for\b|while\b|switch\b|return\b|case\b|using\b|typedef\b|"
    r"XST_|static_assert\b)")
OBS_DEFAULTED_RE = re.compile(r"=\s*(delete|default)\s*;")


def rule_obs_doc_comments(rel_path, lines, raw):
    if not (rel_path.startswith("src/obs/") and rel_path.endswith(".h")):
        return
    # Scope tracking: a stack entry per open brace, tagged with what opened
    # it ("namespace", "class"/"struct" with a current access section, or
    # "other" for function bodies and initializers). Declarations count as
    # public API when every enclosing scope is a namespace or a public
    # class/struct region.
    stack = []
    prev_code = ""  # last non-blank stripped line before the current one
    for i, line in enumerate(lines, 1):
        code = line.rstrip()
        stripped = code.strip()
        m = OBS_ACCESS_RE.match(code)
        if m:
            for entry in reversed(stack):
                if entry[0] in ("class", "struct"):
                    entry[1] = m.group(1)
                    break
        opens = code.count("{")
        closes = code.count("}")
        public_here = all(
            e[0] == "namespace" or (e[0] in ("class", "struct") and e[1] == "public")
            for e in stack)
        starts_decl = prev_code == "" or prev_code[-1] in ";{}:"
        if (stripped and public_here and starts_decl and "(" in stripped
                and not OBS_DECL_SKIP_RE.match(stripped)
                and not OBS_DEFAULTED_RE.search(stripped)
                and not OBS_SCOPE_OPEN_RE.match(stripped)
                and not OBS_NAMESPACE_RE.match(stripped)):
            doc = raw[i - 2].strip() if i >= 2 else ""
            if not (doc.startswith("//") or doc.startswith("*") or doc.endswith("*/")):
                yield i, ("public function in an src/obs/ header without a "
                          "preceding doc comment")
        if opens > closes:
            if OBS_NAMESPACE_RE.match(stripped):
                kind = "namespace"
            else:
                sm = OBS_SCOPE_OPEN_RE.match(stripped)
                if sm:
                    kind = sm.group(1)
                else:
                    kind = "other"
            for _ in range(opens - closes):
                stack.append([kind, "private" if kind == "class" else "public"])
        elif closes > opens:
            for _ in range(closes - opens):
                if stack:
                    stack.pop()
        if stripped:
            prev_code = stripped
    return


OPCODE_ENUM_RE = re.compile(r"enum\s+class\s+OpCode\b[^{]*\{([^}]*)\}")
OPCODE_CASE_RE = re.compile(r"\bcase\s+OpCode::(k\w+)\s*:")
SWITCH_RE = re.compile(r"\bswitch\s*\(")
DEFAULT_CASE_RE = re.compile(r"\bdefault\s*:")


def _opcode_enumerators(text):
    m = OPCODE_ENUM_RE.search(text)
    if not m:
        return None
    return re.findall(r"\bk\w+\b", m.group(1))


def rule_vm_opcode_dispatch(rel_path, lines, _raw):
    text = "\n".join(lines)
    if "case OpCode::" not in text:
        return
    enumerators = _opcode_enumerators(text)
    if enumerators is None:
        # The catalog lives in compile.h; files dispatching on it (the VM,
        # tooling) are checked against the declaration on disk.
        catalog = os.path.join(REPO_ROOT, "src", "xsp", "compile.h")
        try:
            with open(catalog, encoding="utf-8") as fh:
                enumerators = _opcode_enumerators(
                    strip_comments_and_strings(fh.read()))
        except OSError:
            enumerators = None
    if not enumerators:
        return
    i = 0
    n = len(lines)
    while i < n:
        sw = SWITCH_RE.search(lines[i])
        if not sw:
            i += 1
            continue
        # Collect the switch's balanced-brace block (cases may span lines).
        depth = 0
        started = False
        block_parts = []
        j = i
        col = sw.end()
        while j < n:
            seg = lines[j][col if j == i else 0:]
            for c in seg:
                if c == "{":
                    depth += 1
                    started = True
                elif c == "}":
                    depth -= 1
            block_parts.append(seg)
            if started and depth <= 0:
                break
            j += 1
        block = "\n".join(block_parts)
        cases = OPCODE_CASE_RE.findall(block)
        if cases:
            missing = [e for e in enumerators if e not in cases]
            if missing:
                yield i + 1, ("OpCode dispatch is not exhaustive; missing "
                              "case(s): " + ", ".join(missing))
            if DEFAULT_CASE_RE.search(block):
                yield i + 1, ("OpCode dispatch must not use `default:`; "
                              "handle every enumerator so a new opcode "
                              "breaks every dispatch site instead of "
                              "falling through")
            i = j + 1
        else:
            i += 1
    return


LOCK_DECL_RE = re.compile(r"\b(MutexLock|lock_guard|unique_lock|scoped_lock)\b\s*[<\w]*\s*\w+\s*[({]")
PARALLEL_FOR_RE = re.compile(r"\bParallelFor\s*\(")


def rule_lock_across_parallelfor(rel_path, lines, _raw):
    # Scope heuristic: track brace depth; a lock declared at depth d is alive
    # until depth drops below d. Any ParallelFor seen while a lock is alive is
    # a finding.
    depth = 0
    live_locks = []  # (depth_declared, line_no)
    for i, line in enumerate(lines, 1):
        if LOCK_DECL_RE.search(line):
            live_locks.append((depth + line.count("{"), i))
        if PARALLEL_FOR_RE.search(line) and live_locks:
            yield i, (f"ParallelFor reached with a lock held (acquired line "
                      f"{live_locks[-1][1]}); worker chunks that contend on it "
                      "deadlock the region — copy what you need, drop the "
                      "lock, then go parallel")
        depth += line.count("{") - line.count("}")
        live_locks = [(d, ln) for d, ln in live_locks if d <= depth]


RESULT_TYPE_RE = re.compile(r"\bResult\s*<")
RESULT_NAME_RE = re.compile(r"\s*(?:const\b\s*)?[&*]*\s*(\w+)\s*[=;,)({\[]")
RESULT_CALL_RE = re.compile(r"\b(\w+)\s*(?:\.|->)\s*(ok|value)\s*\(")


def _scope_end(text, pos):
    """Offset where a declaration ending at `pos` goes out of scope: the close
    of its enclosing block, or, for a parameter (the declaration sits inside
    a paren group), the close of the body after that group or the `;` of a
    body-less declaration."""
    depth, parens, param = 0, 0, False
    for k in range(pos, len(text)):
        c = text[k]
        if c == "(":
            parens += 1
        elif c == ")":
            param = param or parens == 0
            parens = max(parens - 1, 0)
        elif c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth < 0 or (depth == 0 and param):
                return k
        elif c == ";" and param and depth == 0 and parens == 0:
            return k
    return len(text)


def _result_decls(text):
    """(name, start, end) for each variable declared with a Result<...>
    type, in scope over text[start:end]."""
    for m in RESULT_TYPE_RE.finditer(text):
        depth, k = 1, m.end()
        while k < len(text) and depth and text[k] not in ";{}":
            depth += {"<": 1, ">": -1}.get(text[k], 0)
            k += 1
        name = RESULT_NAME_RE.match(text, k) if depth == 0 else None
        if name:
            yield name.group(1), name.start(1), _scope_end(text, name.end(1))


def rule_result_value_unchecked(rel_path, lines, _raw):
    # -Werror=unused-result cannot see this: `r.value()` uses `r`. Only
    # explicitly typed declarations are known; an `auto` Result is not.
    text = "\n".join(lines)
    calls = [(m.group(1), m.group(2), m.start()) for m in RESULT_CALL_RE.finditer(text)]
    if not any(kind == "value" for _, kind, _ in calls):
        return
    decls = list(_result_decls(text))
    for name, kind, at in calls:
        scopes = [s for n, s, e in decls if n == name and s < at < e]
        if kind != "value" or not scopes:
            continue
        start = max(scopes)  # the innermost declaration
        if not any(n == name and k == "ok" and start < o < at for n, k, o in calls):
            yield text.count("\n", 0, at) + 1, (
                f"Result::value() on `{name}` with no earlier `{name}.ok()` "
                "check; value() on an error Result aborts — test ok() first "
                "or use XST_ASSIGN_OR_RAISE")


# ---------------------------------------------------------------------------
# locksmith: the concurrency-protocol rules (lock-rank, blocking-under-latch,
# guarded-field-inference). One textual collector builds a ConcurrencyModel —
# ranked and unranked locks, XST_BLOCKING declarations, guarded/unguarded
# fields, and per-function acquisition/call/write sites with the locks held
# at each — and one checker walks it.
# ---------------------------------------------------------------------------

LOCK_ACQ_RE = re.compile(r"\b(?:xst::)?MutexLock\s+\w+\s*\(\s*([^();]+)\)")
SIG_REQUIRES_RE = re.compile(r"\bXST_REQUIRES\s*\(([^)]*)\)")
SIG_ACQUIRE_RE = re.compile(r"\bXST_ACQUIRE\s*\(([^)]*)\)")
LOCK_CLASS_RE = re.compile(
    r"^\s*(?:template\s*<[^>]*>\s*)?(?:class|struct)\s+"
    r"(?:alignas\s*\([^)]*\)\s*)?(?:XST_\w+\s*\([^)]*\)\s*)?(\w+)")
LOCK_QUAL_RE = re.compile(r"\b(\w+)::~?\w+\s*\(")


def _lock_split_args(text):
    return [a for a in (part.strip() for part in text.split(",")) if a]


def _lock_identity(expr, cls, func_scope):
    """Canonical node name for a lock expression. Bare member/field names
    qualify by the enclosing class so `mu_` unifies across all methods of
    one class but never across classes; everything else (locals, compound
    paths like `shard.mu`) stays scoped to its function so unrelated
    same-named locks in different functions never alias."""
    e = expr.strip().lstrip("&").replace("this->", "").replace(" ", "")
    if not e:
        return None
    if cls and (re.fullmatch(r"\w+", e) or "." in e or "->" in e):
        return cls + "::" + e
    return func_scope + "::" + e


# Locks with rank >= this floor are latch-class: blocking calls under them
# are findings. It is the rank of PagerShard::latch. SetStore::mu_ (rank 10)
# sits below the floor on purpose — the single-writer store lock legally
# covers WAL waits and file I/O.
LATCH_FLOOR = 20

# Every xst::Mutex declaration by value — member, local or global; pointers
# and references name a lock declared elsewhere. Group 2 is its rank.
MUTEX_DECL_RE = re.compile(
    r"\b(?:xst::)?Mutex\s+(\w+)(?:\s*XST_LOCK_RANK\s*\(\s*(\d+)\s*\))?")
BLOCKING_DECL_RE = re.compile(r"\bXST_BLOCKING\s+(\w+)\s*\(")
GUARDED_FIELD_RE = re.compile(r"\b(\w+)\s+XST_(?:PT_)?GUARDED_BY\s*\(")
# Trailing-underscore members only (the project's field naming convention);
# declarations are matched after XST_* annotation groups are stripped, and
# any remaining paren (function declarations, paren-init) disqualifies.
FIELD_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|constexpr\s+)*"
    r"[A-Za-z_][\w:<>,\s*&]*[\s*&](\w+_)\s*(?:=[^;]*|\{[^;]*\})?;")
FIELD_WRITE_RE = re.compile(
    r"(?<![\w.])(\w+_)\s*(?:=(?!=)|\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<=|>>=|\+\+|--)"
    r"|(?:\+\+|--)\s*(\w+_)\b")
# The sharded pager's scoped latch guards: both take a PagerShard's latch in
# their constructor, so a textual guard declaration is a latch acquisition.
GUARD_ACQ_RE = re.compile(
    r"\b(?:internal::)?(?:ShardLatchLock|PageWriteGuard)\s+\w+\s*[({]")
SHARD_LATCH_IDENTITY = "PagerShard::latch"
CALL_RE = re.compile(r"\b(\w+)\s*\(")
# Identifier-before-( matches that are never function calls of interest.
NOT_CALL_NAMES = frozenset((
    "if", "for", "while", "switch", "return", "sizeof", "catch", "new",
    "delete", "alignas", "alignof", "decltype", "noexcept", "throw",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
    "static_assert", "assert", "defined", "operator", "void", "int", "bool",
    "char", "auto", "unsigned", "signed", "long", "short", "float", "double",
    "size_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t", "int8_t",
    "int16_t", "int32_t", "int64_t"))
# Blocking points recognized by method-call shape (`x.Name(` / `x->Name(`).
# The XST_BLOCKING annotations on File/Wal/CondVar declarations add the same
# names when those headers are in the scanned set; the built-in registry
# keeps single-file scans and fixtures honest without them.
BLOCKING_REGISTRY = frozenset((
    "ReadAt", "WriteAt", "Size", "Flush", "Truncate",
    "WaitDurable", "FlushAll", "Wait", "ParallelFor"))


class ConcurrencyModel:
    """Everything the locksmith rules need, aggregated over 1..N files."""

    def __init__(self):
        self.ranks = {}        # lock identity -> (rank, (path, line))
        self.rank_names = {}   # bare lock name -> set of declared ranks
        self.unranked = []     # (lock name, (path, line)) missing a rank
        self.acquire_decls = []  # XST_ACQUIRE(B) annotations: (B, site, held A)
        self.fields = {}       # (class, field) -> {"site", "guarded"}
        self.blocking_names = set()  # names declared XST_BLOCKING
        self.functions = []    # per-function dicts, see _collect_file


def _fn_name_from_sig(sig):
    """The declared function name in a signature line: the first
    identifier-before-( that is not a keyword or builtin type."""
    stripped = re.sub(r"\bXST_\w+\s*\((?:[^()]|\([^()]*\))*\)", " ", sig)
    for m in CALL_RE.finditer(stripped):
        if m.group(1) not in NOT_CALL_NAMES:
            return m.group(1)
    return None


def _rank_identity(name, cls_ctx, func, stem, line_no):
    """Identity for a ranked-lock declaration, chosen to unify with what
    _lock_identity produces at that lock's acquisition sites."""
    if func is not None:
        return _lock_identity(name, func["cls"], func["scope"])
    if cls_ctx:
        return cls_ctx + "::" + name
    return f"{stem}:{line_no}::{name}"


def collect_concurrency_model(files):
    """Builds a ConcurrencyModel from [(rel_path, stripped_lines)]."""
    model = ConcurrencyModel()
    for rel_path, lines in files:
        _collect_file(model, rel_path, lines)
    return model


def _collect_file(model, rel_path, lines):
    stem = rel_path.rsplit("/", 1)[-1]
    # The lock types themselves are the one place a Mutex needs no rank.
    rank_exempt = _exempt(rel_path, ("common/sync.h", "common/sync.cc"))
    class_stack = []  # (name, open_depth)
    func = None       # dict, see below
    depth = 0
    sig_buf = ""
    in_pp = False
    for i, line in enumerate(lines, 1):
        if in_pp or line.lstrip().startswith("#"):
            in_pp = line.rstrip().endswith("\\")
            sig_buf = ""
            continue
        opens = line.count("{")
        closes = line.count("}")
        cls_ctx = class_stack[-1][0] if class_stack else None

        # Declarations: ranks, blocking annotations, fields. Visible at any
        # scope — ranked locks may be class members, namespace globals, or
        # function-local merge mutexes.
        for m in MUTEX_DECL_RE.finditer(line):
            name = m.group(1)
            if m.group(2) is None:
                if not rank_exempt:
                    model.unranked.append((name, (rel_path, i)))
                continue
            rank = int(m.group(2))
            ident = _rank_identity(name, cls_ctx, func, stem, i)
            if ident:
                model.ranks.setdefault(ident, (rank, (rel_path, i)))
            model.rank_names.setdefault(name, set()).add(rank)
        for m in BLOCKING_DECL_RE.finditer(line):
            model.blocking_names.add(m.group(1))
        if cls_ctx and func is None and ";" in line:
            decl = re.sub(r"\bXST_\w+\s*\((?:[^()]|\([^()]*\))*\)", " ", line)
            fm = FIELD_DECL_RE.match(decl)
            if (fm and "(" not in decl
                    and not re.search(r"\b(?:atomic|Mutex|CondVar|const)\b", line)):
                gm = GUARDED_FIELD_RE.search(line)
                model.fields.setdefault(
                    (cls_ctx, fm.group(1)),
                    {"site": (rel_path, i),
                     "guarded": bool(gm and gm.group(1) == fm.group(1))})

        # Function boundary tracking.
        if func is None:
            boundary = ";" in line or opens or closes
            sig = (sig_buf + " " + line).strip()
            class_m = LOCK_CLASS_RE.match(sig)
            if class_m and opens:
                class_stack.append((class_m.group(1), depth))
            elif boundary and "(" in sig:
                req = SIG_REQUIRES_RE.search(sig)
                acq = SIG_ACQUIRE_RE.search(sig)
                cls = next((m.group(1) for m in LOCK_QUAL_RE.finditer(sig)
                            if m.group(1) not in ("std", "xst")), None)
                if cls is None and class_stack:
                    cls = class_stack[-1][0]
                scope = f"{stem}:{i}"
                held = []
                if req:
                    held = [h for h in
                            (_lock_identity(x, cls, scope)
                             for x in _lock_split_args(req.group(1))
                             if not x.strip().startswith("!")) if h]
                # XST_REQUIRES(A) XST_ACQUIRE(B), declared or defined: the
                # function takes B while its caller holds A.
                for x in _lock_split_args(acq.group(1)) if acq else ():
                    ident = _lock_identity(x, cls, scope)
                    if ident:
                        model.acquire_decls.append((ident, (rel_path, i), held))
                name = _fn_name_from_sig(sig)
                if name and opens and ";" not in line.split("{", 1)[0]:
                    func = {"name": name, "cls": cls, "scope": scope,
                            "site": (rel_path, i), "entry_held": held,
                            "entry_depth": depth, "locks": [],
                            "acquisitions": [], "calls": [], "writes": []}
                    model.functions.append(func)
            if boundary:
                sig_buf = ""
            else:
                sig_buf = sig
        if func is not None:
            active = [lid for lid, _ in func["locks"]]
            held_now = func["entry_held"] + active
            # On a one-line definition the signature shares the line with the
            # body; text before the opening brace (the function's own name,
            # default arguments) is not body code.
            body_col = (line.find("{") + 1
                        if func["site"] == (rel_path, i) else 0)
            for m in LOCK_ACQ_RE.finditer(line):
                prefix = line[:m.start()]
                at_depth = depth + prefix.count("{") - prefix.count("}")
                acquired = _lock_identity(m.group(1), func["cls"], func["scope"])
                if acquired is None:
                    continue
                func["acquisitions"].append((acquired, (rel_path, i),
                                             list(held_now)))
                func["locks"].append((acquired, at_depth))
                held_now = held_now + [acquired]
            for m in GUARD_ACQ_RE.finditer(line):
                prefix = line[:m.start()]
                at_depth = depth + prefix.count("{") - prefix.count("}")
                func["acquisitions"].append((SHARD_LATCH_IDENTITY, (rel_path, i),
                                             list(held_now)))
                func["locks"].append((SHARD_LATCH_IDENTITY, at_depth))
                held_now = held_now + [SHARD_LATCH_IDENTITY]
            for m in CALL_RE.finditer(line):
                if m.start() < body_col:
                    continue
                name = m.group(1)
                if name in NOT_CALL_NAMES or name.startswith("XST_"):
                    continue
                prefix = line[:m.start()].rstrip()
                if prefix.endswith(".") or prefix.endswith("->"):
                    receiver = "this" if prefix.endswith("this->") else "other"
                elif prefix.endswith("::"):
                    qm = re.search(r"(\w+)\s*::$", prefix)
                    receiver = "::" + qm.group(1) if qm else "other"
                else:
                    receiver = ""
                func["calls"].append((name, receiver, (rel_path, i),
                                      list(held_now)))
            if held_now and func["cls"]:
                for m in FIELD_WRITE_RE.finditer(line):
                    if m.start() < body_col:
                        continue
                    field = m.group(1) or m.group(2)
                    prefix = line[:m.start()].rstrip()
                    if ((prefix.endswith(".") or prefix.endswith("->"))
                            and not prefix.endswith("this->")):
                        continue  # a write through some other object
                    func["writes"].append((field, (rel_path, i), list(held_now)))
        depth += opens - closes
        if depth < 0:
            depth = 0
        while class_stack and depth <= class_stack[-1][1]:
            class_stack.pop()
        if func is not None:
            func["locks"] = [(lid, d) for lid, d in func["locks"] if depth >= d]
            if depth <= func["entry_depth"]:
                func = None


def concurrency_findings(model):
    """Yields (rule, (path, line), message) over a ConcurrencyModel."""
    def rank_of(ident):
        info = model.ranks.get(ident)
        if info is not None:
            return info[0]
        # Compound expressions the textual engine cannot type (`shard.latch`,
        # `pool->merge_mu`) resolve by their final component when that name
        # has exactly one declared rank tree-wide.
        m = re.search(r"(\w+)$", ident)
        if m:
            ranks = model.rank_names.get(m.group(1))
            if ranks is not None and len(ranks) == 1:
                return next(iter(ranks))
        return None

    def best_held(ids, base=(-1, None)):
        best = base
        for h in ids:
            r = rank_of(h)
            if r is not None and r > best[0]:
                best = (r, h)
        return best

    def rank_violation(ident, held, base):
        # A held lock's rank equals itself, so re-acquiring it is never
        # strictly increasing, whether or not its rank is known here.
        if ident in held:
            return (f"acquires '{ident}' while it is already held "
                    "(self-deadlock)")
        r = rank_of(ident)
        hrank, hname = best_held(held, base)
        if r is not None and hname is not None and r <= hrank:
            return (f"acquires '{ident}' (rank {r}) while '{hname}' "
                    f"(rank {hrank}) is held; lock ranks must strictly "
                    "increase along every acquisition path")
        return None

    for name, site in model.unranked:
        yield ("lock-rank", site,
               f"xst::Mutex '{name}' is declared without XST_LOCK_RANK(n); "
               "every lock takes a place in the rank hierarchy")
    for ident, site, held in model.acquire_decls:
        message = rank_violation(ident, held, (-1, None))
        if message:
            yield ("lock-rank", site, message)

    by_name = {}
    for f in model.functions:
        by_name.setdefault(f["name"], []).append(f)

    # Interprocedural held-set propagation: the highest-ranked lock held at a
    # call site flows into the callee's entry ceiling, to a fixed point. Only
    # unambiguous callee names propagate — a name declared by two unrelated
    # functions would otherwise smear one caller's locks over the other's
    # callees (Get on the store vs Get on the catalog).
    entry = {id(f): best_held(f["entry_held"]) for f in model.functions}
    for _ in range(len(model.functions) + 1):
        changed = False
        for f in model.functions:
            base = entry[id(f)]
            for name, receiver, _site, held in f["calls"]:
                if receiver == "other":
                    # A member call through another object: the callee locks
                    # that instance's mutexes, not this one's — propagating
                    # our held set would fabricate self-deadlocks (Compact
                    # holding mu_ while driving fresh->Put on a sibling).
                    continue
                targets = by_name.get(name)
                if not targets or len({t["site"] for t in targets}) > 1:
                    continue
                target = targets[0]
                # The receiver must be consistent with the target's class,
                # or the single in-scope definition of a popular name would
                # capture every other class's call (MetricsRegistry::Global
                # misbound to Interner::Global).
                if receiver == "this":
                    if target["cls"] != f["cls"]:
                        continue
                elif receiver.startswith("::"):
                    # Qualified call: the qualifier must be the target's
                    # class; a None-class target is a namespace-qualified
                    # free function and stays eligible.
                    if target["cls"] is not None and target["cls"] != receiver[2:]:
                        continue
                elif target["cls"] is not None and target["cls"] != f["cls"]:
                    continue  # bare call cannot reach another class's method
                site_best = best_held(held, base)
                for t in targets:
                    if site_best[0] > entry[id(t)][0]:
                        entry[id(t)] = site_best
                        changed = True
        if not changed:
            break

    for f in model.functions:
        for ident, site, held in f["acquisitions"]:
            message = rank_violation(ident, held, entry[id(f)])
            if message:
                yield ("lock-rank", site, message)
        for name, receiver, site, held in f["calls"]:
            blocking = (name in model.blocking_names
                        or (receiver and name in BLOCKING_REGISTRY)
                        or name == "ParallelFor")
            if not blocking:
                continue
            if name == "Wait":
                # CondVar::Wait releases the lock it is passed — the
                # innermost one held — while blocked; with none held
                # locally, the (single) entry lock is the one released.
                if held:
                    hrank, hname = best_held(held[:-1], entry[id(f)])
                else:
                    hrank, hname = (-1, None)
            else:
                hrank, hname = best_held(held, entry[id(f)])
            if hname is not None and hrank >= LATCH_FLOOR:
                yield ("blocking-under-latch", site,
                       f"blocking call '{name}' reached while '{hname}' "
                       f"(rank {hrank} >= latch floor {LATCH_FLOOR}) is held; "
                       "latch-class locks must never cover blocking points")

    flagged = set()
    for f in model.functions:
        for field, site, held in f["writes"]:
            info = model.fields.get((f["cls"], field))
            if info is None or info["guarded"] or (f["cls"], field) in flagged:
                continue
            flagged.add((f["cls"], field))
            yield ("guarded-field-inference", info["site"],
                   f"field '{f['cls']}::{field}' is written at "
                   f"{site[0]}:{site[1]} with '{held[-1]}' held but carries "
                   "no XST_GUARDED_BY; annotate the invariant (or mark the "
                   "declaration if the locking is coincidental)")


def _concurrency_rule(rule_name):
    def rule(rel_path, lines, _raw):
        model = collect_concurrency_model([(rel_path, lines)])
        for rule_id, (_path, line_no), message in concurrency_findings(model):
            if rule_id == rule_name:
                yield line_no, message
    return rule


rule_lock_rank = _concurrency_rule("lock-rank")
rule_blocking_under_latch = _concurrency_rule("blocking-under-latch")
rule_guarded_field_inference = _concurrency_rule("guarded-field-inference")


RULES = {
    "thread-primitives": rule_thread_primitives,
    "bare-mutex": rule_bare_mutex,
    "raw-new-delete": rule_raw_new_delete,
    "interner-mutation": rule_interner_mutation,
    "sorted-members-dcheck": rule_sorted_members_dcheck,
    "dcheck-side-effects": rule_dcheck_side_effects,
    "raw-page-pointer": rule_raw_page_pointer,
    "obs-doc-comments": rule_obs_doc_comments,
    "vm-opcode-dispatch": rule_vm_opcode_dispatch,
    "lock-across-parallelfor": rule_lock_across_parallelfor,
    "result-value-unchecked": rule_result_value_unchecked,
    "lock-rank": rule_lock_rank,
    "blocking-under-latch": rule_blocking_under_latch,
    "guarded-field-inference": rule_guarded_field_inference,
}

ALLOW_RE = re.compile(r"xst-lint:\s*allow\(([a-z-]+)\)")


def _allowed(raw_lines, line_no, rule_name):
    raw_line = raw_lines[line_no - 1] if line_no <= len(raw_lines) else ""
    allow = ALLOW_RE.search(raw_line)
    return bool(allow and allow.group(1) == rule_name)


def lint_text(rel_path, raw_text):
    stripped = strip_comments_and_strings(raw_text)
    lines = stripped.split("\n")
    raw_lines = raw_text.split("\n")
    findings = []
    for rule_name, rule_fn in RULES.items():
        for line_no, message in rule_fn(rel_path, lines, raw_lines):
            if not _allowed(raw_lines, line_no, rule_name):
                    findings.append(Finding(rel_path, line_no, rule_name, message))
    return findings


def lint_paths(paths):
    findings = []
    files = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                        files.append(os.path.join(root, name))
        elif os.path.isfile(path):
            files.append(path)
        else:
            print(f"xst-lint: no such path: {path}", file=sys.stderr)
            return None, 0
    stripped_by_rel = {}
    raw_by_rel = {}
    for f in sorted(files):
        rel = os.path.relpath(f, REPO_ROOT).replace(os.sep, "/")
        with open(f, encoding="utf-8") as fh:
            text = fh.read()
        raw_by_rel[rel] = text.split("\n")
        stripped_by_rel[rel] = strip_comments_and_strings(text).split("\n")
        findings.extend(lint_text(rel, text))
    # Whole-tree pass: the concurrency rules see every file at once, so
    # cross-file facts (ranks in headers, fields vs. their .cc writes,
    # held sets flowing through calls into another TU) land as findings
    # the per-file pass could not derive.
    if len(stripped_by_rel) > 1:
        model = collect_concurrency_model(sorted(stripped_by_rel.items()))
        reported = {(x.path, x.line, x.rule) for x in findings}
        for rule_id, (rel, line_no), message in concurrency_findings(model):
            if ((rel, line_no, rule_id) not in reported
                    and not _allowed(raw_by_rel[rel], line_no, rule_id)):
                findings.append(Finding(rel, line_no, rule_id, message))
    return findings, len(files)


# ---------------------------------------------------------------------------
# Self-test: each fixture is (rule, expect_hit, code[, path]). Without a
# path a fixture lives at selftest/fixture.cc, clear of every exemption.
# ---------------------------------------------------------------------------

SELF_TEST_FIXTURES = [
    ("thread-primitives", True, "std::thread t([] {});\n"),
    ("thread-primitives", True, "auto f = std::async(work);\n"),
    ("thread-primitives", False, "// std::thread is banned here\n"),
    ("thread-primitives", False, "std::thread::id owner = std::this_thread::get_id();\n"),
    ("raw-new-delete", True, "auto* n = new Node();\n"),
    ("raw-new-delete", True, "delete node;\n"),
    ("raw-new-delete", False, "auto p = std::unique_ptr<Node>(new Node());\n"),
    ("raw-new-delete", False, "auto p = std::unique_ptr<Node>(\n    new Node());\n"),
    ("raw-new-delete", False, "static Pool* pool = new Pool();\n"),
    ("raw-new-delete", False, "Pool(const Pool&) = delete;\n"),
    ("raw-new-delete", False, "// a new idea, delete nothing\n"),
    ("interner-mutation", True, "auto* n = Interner::Global().Int(7);\n"),
    ("interner-mutation", True, "Interner::Global().Set(std::move(ms));\n"),
    ("interner-mutation", False, "Interner::Global().EmptySet();\n"),
    ("interner-mutation", False, "auto snap = Interner::Global().SnapshotNodes();\n"),
    ("sorted-members-dcheck", True, "return XSet::FromSortedMembers(std::move(out));\n"),
    ("sorted-members-dcheck", False,
     "XST_DCHECK(IsCanonicalMemberList(out));\n"
     "return XSet::FromSortedMembers(std::move(out));\n"),
    ("sorted-members-dcheck", False,
     "XST_DCHECK(IsCanonicalMemberList(kept));\n"
     "// canonical by construction\n"
     "return Make(s, XST_VALIDATE(XSet::FromSortedMembers(std::move(kept))));\n"),
    ("dcheck-side-effects", True, "XST_DCHECK(++calls > 0);\n"),
    ("dcheck-side-effects", True, "XST_DCHECK(x = Compute());\n"),
    ("dcheck-side-effects", False, "XST_DCHECK(x == Compute());\n"),
    ("dcheck-side-effects", False, "XST_DCHECK(a <= b && b >= c && a != c);\n"),
    ("dcheck-side-effects", False,
     "XST_DCHECK(IsCanonicalMemberList(\n    out));\n"),
    ("thread-primitives", True,
     "int x = 0;  // xst-lint: allow(raw-new-delete)\nstd::thread t;\n"),
    ("raw-new-delete", False,
     "auto* n = new Node();  // xst-lint: allow(raw-new-delete)\n"),
    ("raw-page-pointer", True, "Result<Page*> page = pager.FetchPage(id);\n"),
    ("raw-page-pointer", True, "Page* raw = *pager->FetchPage(0);\n"),
    ("raw-page-pointer", True,
     "Page* raw =\n    pager.AllocatePage().ValueOrDie();\n"),
    ("raw-page-pointer", False, "Result<PageRef> page = pager.FetchPage(id);\n"),
    ("raw-page-pointer", False, "PageRef page = *pager.FetchPage(id);\n"),
    ("raw-page-pointer", False, "// FetchPage used to return Page*\n"),
    ("raw-page-pointer", False,
     "Page* raw = *pager.FetchPage(0);  // xst-lint: allow(raw-page-pointer)\n"),
    # obs-doc-comments fixtures carry an explicit path: the rule only
    # applies under src/obs/*.h.
    ("obs-doc-comments", True,
     "uint64_t MonotonicNowNs();\n", "src/obs/trace.h"),
    ("obs-doc-comments", False,
     "/// \\brief Monotonic wall clock in nanoseconds.\n"
     "uint64_t MonotonicNowNs();\n", "src/obs/trace.h"),
    ("obs-doc-comments", True,
     "class Counter {\n"
     " public:\n"
     "  void Add(uint64_t n);\n"
     "};\n", "src/obs/metrics.h"),
    ("obs-doc-comments", False,
     "class Counter {\n"
     " public:\n"
     "  /// \\brief Adds n.\n"
     "  void Add(uint64_t n);\n"
     "};\n", "src/obs/metrics.h"),
    ("obs-doc-comments", False,
     "class Counter {\n"
     "  void Helper();\n"
     "};\n", "src/obs/metrics.h"),
    ("obs-doc-comments", False,
     "class Counter {\n"
     " public:\n"
     "  Counter(const Counter&) = delete;\n"
     "};\n", "src/obs/metrics.h"),
    ("obs-doc-comments", False,
     "uint64_t MonotonicNowNs();\n", "src/xsp/eval.h"),
    # vm-opcode-dispatch fixtures declare their own (small) OpCode enum so
    # the self-test never depends on the on-disk catalog.
    ("vm-opcode-dispatch", True,
     "enum class OpCode : uint8_t { kAdd, kSub };\n"
     "void Run(OpCode op) {\n"
     "  switch (op) {\n"
     "    case OpCode::kAdd:\n"
     "      break;\n"
     "  }\n"
     "}\n"),
    ("vm-opcode-dispatch", True,
     "enum class OpCode { kAdd };\n"
     "switch (op) {\n"
     "  case OpCode::kAdd: break;\n"
     "  default: break;\n"
     "}\n"),
    ("vm-opcode-dispatch", False,
     "enum class OpCode { kAdd, kSub };\n"
     "switch (op) {\n"
     "  case OpCode::kAdd: break;\n"
     "  case OpCode::kSub: break;\n"
     "}\n"),
    ("vm-opcode-dispatch", False,
     "enum class OpCode { kAdd, kSub };\n"
     "switch (op) {\n"
     "  case OpCode::kAdd:\n"
     "  case OpCode::kSub:\n"
     "    break;\n"
     "}\n"
     "switch (kind) {\n"
     "  case ExprKind::kUnion: break;\n"
     "  default: break;\n"
     "}\n"),
    ("vm-opcode-dispatch", False,
     "switch (kind) { case ExprKind::kUnion: break; default: break; }\n"),
    ("vm-opcode-dispatch", False,
     "enum class OpCode { kAdd };\n"
     "switch (op) {  // xst-lint: allow(vm-opcode-dispatch)\n"
     "  case OpCode::kAdd: break;\n"
     "  default: break;\n"
     "}\n"),
    # lock-rank: descending rank order inside one function.
    ("lock-rank", True,
     "class S {\n"
     "  void F() {\n"
     "    MutexLock outer(&hi_);\n"
     "    MutexLock inner(&lo_);\n"
     "  }\n"
     "  Mutex hi_ XST_LOCK_RANK(30);\n"
     "  Mutex lo_ XST_LOCK_RANK(10);\n"
     "};\n"),
    # Equal ranks are not strictly increasing either.
    ("lock-rank", True,
     "class S {\n"
     "  void F() XST_REQUIRES(a_) { MutexLock l(&b_); }\n"
     "  Mutex a_ XST_LOCK_RANK(20);\n"
     "  Mutex b_ XST_LOCK_RANK(20);\n"
     "};\n"),
    # Ascending order is the protocol working as intended.
    ("lock-rank", False,
     "class S {\n"
     "  void F() {\n"
     "    MutexLock outer(&lo_);\n"
     "    MutexLock inner(&hi_);\n"
     "  }\n"
     "  Mutex lo_ XST_LOCK_RANK(10);\n"
     "  Mutex hi_ XST_LOCK_RANK(30);\n"
     "};\n"),
    # Interprocedural: the caller's held lock flows into the callee.
    ("lock-rank", True,
     "class S {\n"
     "  void F() {\n"
     "    MutexLock l(&hi_);\n"
     "    Helper();\n"
     "  }\n"
     "  void Helper() { MutexLock l(&lo_); }\n"
     "  Mutex hi_ XST_LOCK_RANK(30);\n"
     "  Mutex lo_ XST_LOCK_RANK(10);\n"
     "};\n"),
    # Interprocedural through this->: same instance, still propagates.
    ("lock-rank", True,
     "class S {\n"
     "  void F() {\n"
     "    MutexLock l(&hi_);\n"
     "    this->Helper();\n"
     "  }\n"
     "  void Helper() { MutexLock l(&lo_); }\n"
     "  Mutex hi_ XST_LOCK_RANK(30);\n"
     "  Mutex lo_ XST_LOCK_RANK(10);\n"
     "};\n"),
    # A member call through another object locks that instance's mutexes,
    # not ours: no self-deadlock when a sibling re-enters the same method.
    ("lock-rank", False,
     "class S {\n"
     "  void F() {\n"
     "    MutexLock l(&mu_);\n"
     "    sibling_->Helper();\n"
     "  }\n"
     "  void Helper() { MutexLock l(&mu_); }\n"
     "  Mutex mu_ XST_LOCK_RANK(10);\n"
     "};\n"),
    # A lock whose missing rank is suppressed at its declaration takes no
    # part in the order.
    ("lock-rank", False,
     "class S {\n"
     "  void F() {\n"
     "    MutexLock outer(&hi_);\n"
     "    MutexLock inner(&plain_);\n"
     "  }\n"
     "  Mutex hi_ XST_LOCK_RANK(30);\n"
     "  Mutex plain_;  // xst-lint: allow(lock-rank)\n"
     "};\n"),
    ("lock-rank", False,
     "class S {\n"
     "  void F() XST_REQUIRES(hi_) {\n"
     "    MutexLock l(&lo_);  // xst-lint: allow(lock-rank)\n"
     "  }\n"
     "  Mutex hi_ XST_LOCK_RANK(30);\n"
     "  Mutex lo_ XST_LOCK_RANK(10);\n"
     "};\n"),
    # The retired lock-order-cycle rule's fixtures. Each positive appears
    # twice: as written, where its unranked (or re-acquired) lock is the
    # finding, and with ranks added, where the rank order is. Each negative
    # stays clean with consistent ranks.
    # Two methods taking two member locks in opposite orders.
    ("lock-rank", True,
     "class S {\n"
     "  void F() XST_REQUIRES(a_) { MutexLock l(&b_); }\n"
     "  void G() XST_REQUIRES(b_) { MutexLock l(&a_); }\n"
     "  Mutex a_;\n"
     "  Mutex b_;\n"
     "};\n"),
    ("lock-rank", True,
     "class S {\n"
     "  void F() XST_REQUIRES(a_) { MutexLock l(&b_); }\n"
     "  void G() XST_REQUIRES(b_) { MutexLock l(&a_); }\n"
     "  Mutex a_ XST_LOCK_RANK(10);\n"
     "  Mutex b_ XST_LOCK_RANK(20);\n"
     "};\n"),
    # Same two locks, consistent order everywhere: fine.
    ("lock-rank", False,
     "class S {\n"
     "  void F() XST_REQUIRES(a_) { MutexLock l(&b_); }\n"
     "  void G() XST_REQUIRES(a_) { MutexLock l(&b_); }\n"
     "  Mutex a_ XST_LOCK_RANK(10);\n"
     "  Mutex b_ XST_LOCK_RANK(20);\n"
     "};\n"),
    # Self-deadlock: nested scoped locks on the same (non-reentrant) mutex.
    ("lock-rank", True,
     "void F() {\n"
     "  MutexLock outer(&mu_);\n"
     "  MutexLock inner(&mu_);\n"
     "}\n"),
    ("lock-rank", True,
     "Mutex mu_ XST_LOCK_RANK(10);\n"
     "void F() {\n"
     "  MutexLock outer(&mu_);\n"
     "  MutexLock inner(&mu_);\n"
     "}\n"),
    # Sequential scopes never nest, so even descending ranks are fine.
    ("lock-rank", False,
     "Mutex a_ XST_LOCK_RANK(20);\n"
     "Mutex b_ XST_LOCK_RANK(10);\n"
     "void F() {\n"
     "  { MutexLock l(&a_); }\n"
     "  { MutexLock l(&b_); }\n"
     "}\n"),
    # Nested different locks in one direction only.
    ("lock-rank", False,
     "Mutex a_ XST_LOCK_RANK(10);\n"
     "Mutex b_ XST_LOCK_RANK(20);\n"
     "void F() {\n"
     "  MutexLock outer(&a_);\n"
     "  MutexLock inner(&b_);\n"
     "}\n"),
    # Out-of-line definitions qualify member locks by class. Written without
    # declarations, so the as-written copy adds them unranked.
    ("lock-rank", True,
     "class Store {\n"
     "  Mutex mu_;\n"
     "  Mutex shard_mu_;\n"
     "};\n"
     "void Store::Load() XST_REQUIRES(mu_) { MutexLock l(&shard_mu_); }\n"
     "void Store::Evict() XST_REQUIRES(shard_mu_) { MutexLock l(&mu_); }\n"),
    ("lock-rank", True,
     "class Store {\n"
     "  Mutex mu_ XST_LOCK_RANK(10);\n"
     "  Mutex shard_mu_ XST_LOCK_RANK(20);\n"
     "};\n"
     "void Store::Load() XST_REQUIRES(mu_) { MutexLock l(&shard_mu_); }\n"
     "void Store::Evict() XST_REQUIRES(shard_mu_) { MutexLock l(&mu_); }\n"),
    # Two different classes each with a lock named mu_ must not alias.
    ("lock-rank", False,
     "class A {\n"
     "  Mutex mu_ XST_LOCK_RANK(10);\n"
     "  Mutex other_ XST_LOCK_RANK(20);\n"
     "};\n"
     "class B {\n"
     "  Mutex other_ XST_LOCK_RANK(10);\n"
     "  Mutex mu_ XST_LOCK_RANK(20);\n"
     "};\n"
     "void A::F() XST_REQUIRES(mu_) { MutexLock l(&other_); }\n"
     "void B::G() XST_REQUIRES(other_) { MutexLock l(&mu_); }\n"),
    # Annotation-only seam: REQUIRES(A) + ACQUIRE(B) on declarations.
    ("lock-rank", True,
     "class S {\n"
     "  void F() XST_REQUIRES(a_) XST_ACQUIRE(b_);\n"
     "  void G() XST_REQUIRES(b_) XST_ACQUIRE(a_);\n"
     "  Mutex a_;\n"
     "  Mutex b_;\n"
     "};\n"),
    ("lock-rank", True,
     "class S {\n"
     "  void F() XST_REQUIRES(a_) XST_ACQUIRE(b_);\n"
     "  void G() XST_REQUIRES(b_) XST_ACQUIRE(a_);\n"
     "  Mutex a_ XST_LOCK_RANK(10);\n"
     "  Mutex b_ XST_LOCK_RANK(20);\n"
     "};\n"),
    ("lock-rank", False,
     "Mutex mu_ XST_LOCK_RANK(10);\n"
     "void F() {\n"
     "  MutexLock outer(&mu_);\n"
     "  MutexLock inner(&mu_);  // xst-lint: allow(lock-rank)\n"
     "}\n"),
    # The same shapes over xst::-qualified locks.
    ("lock-rank", True,
     "#include \"src/common/sync.h\"\n"
     "class S {\n"
     " public:\n"
     "  void F() XST_REQUIRES(a_) { xst::MutexLock l(&b_); }\n"
     "  void G() XST_REQUIRES(b_) { xst::MutexLock l(&a_); }\n"
     " private:\n"
     "  xst::Mutex a_;\n"
     "  xst::Mutex b_;\n"
     "};\n"),
    ("lock-rank", True,
     "#include \"src/common/sync.h\"\n"
     "class S {\n"
     " public:\n"
     "  void F() XST_REQUIRES(a_) { xst::MutexLock l(&b_); }\n"
     "  void G() XST_REQUIRES(b_) { xst::MutexLock l(&a_); }\n"
     " private:\n"
     "  xst::Mutex a_ XST_LOCK_RANK(10);\n"
     "  xst::Mutex b_ XST_LOCK_RANK(20);\n"
     "};\n"),
    ("lock-rank", False,
     "#include \"src/common/sync.h\"\n"
     "class S {\n"
     " public:\n"
     "  void F() XST_REQUIRES(a_) { xst::MutexLock l(&b_); }\n"
     "  void G() XST_REQUIRES(a_) { xst::MutexLock l(&b_); }\n"
     " private:\n"
     "  xst::Mutex a_ XST_LOCK_RANK(10);\n"
     "  xst::Mutex b_ XST_LOCK_RANK(20);\n"
     "};\n"),
    ("lock-rank", True,
     "#include \"src/common/sync.h\"\n"
     "xst::Mutex mu;\n"
     "void F() {\n"
     "  xst::MutexLock outer(&mu);\n"
     "  xst::MutexLock inner(&mu);\n"
     "}\n"),
    ("lock-rank", True,
     "#include \"src/common/sync.h\"\n"
     "xst::Mutex mu XST_LOCK_RANK(10);\n"
     "void F() {\n"
     "  xst::MutexLock outer(&mu);\n"
     "  xst::MutexLock inner(&mu);\n"
     "}\n"),
    ("lock-rank", False,
     "#include \"src/common/sync.h\"\n"
     "xst::Mutex a XST_LOCK_RANK(20);\n"
     "xst::Mutex b XST_LOCK_RANK(10);\n"
     "void F() {\n"
     "  { xst::MutexLock l(&a); }\n"
     "  { xst::MutexLock l(&b); }\n"
     "}\n"),
    ("lock-rank", False,
     "#include \"src/common/sync.h\"\n"
     "xst::Mutex a XST_LOCK_RANK(10);\n"
     "xst::Mutex b XST_LOCK_RANK(20);\n"
     "void F() {\n"
     "  xst::MutexLock outer(&a);\n"
     "  xst::MutexLock inner(&b);\n"
     "}\n"),
    # blocking-under-latch: file I/O while a latch-class (rank >= 20) lock
    # is held.
    ("blocking-under-latch", True,
     "class C {\n"
     "  void F() {\n"
     "    MutexLock l(&latch_);\n"
     "    file_->ReadAt(0, buf, 8);\n"
     "  }\n"
     "  Mutex latch_ XST_LOCK_RANK(20);\n"
     "};\n"),
    # Below the floor the same I/O is legal (the store's outer lock).
    ("blocking-under-latch", False,
     "class C {\n"
     "  void F() {\n"
     "    MutexLock l(&store_mu_);\n"
     "    file_->ReadAt(0, buf, 8);\n"
     "  }\n"
     "  Mutex store_mu_ XST_LOCK_RANK(10);\n"
     "};\n"),
    # XST_BLOCKING-declared functions join the registry, bare calls included.
    ("blocking-under-latch", True,
     "Status XST_BLOCKING Stall();\n"
     "class C {\n"
     "  void F() {\n"
     "    MutexLock l(&latch_);\n"
     "    Stall();\n"
     "  }\n"
     "  Mutex latch_ XST_LOCK_RANK(20);\n"
     "};\n"),
    # Interprocedural: the latch is held by the caller, the I/O happens in
    # the callee.
    ("blocking-under-latch", True,
     "class C {\n"
     "  void F() {\n"
     "    MutexLock l(&latch_);\n"
     "    Helper();\n"
     "  }\n"
     "  void Helper() { file_->WriteAt(0, buf, 8); }\n"
     "  Mutex latch_ XST_LOCK_RANK(20);\n"
     "};\n"),
    # CondVar::Wait releases the innermost lock while blocked: not a finding.
    ("blocking-under-latch", False,
     "class C {\n"
     "  void F() {\n"
     "    MutexLock l(&latch_);\n"
     "    cv_.Wait(l);\n"
     "  }\n"
     "  Mutex latch_ XST_LOCK_RANK(20);\n"
     "};\n"),
    # ...but an outer latch is still held across the wait.
    ("blocking-under-latch", True,
     "class C {\n"
     "  void F() XST_REQUIRES(outer_) {\n"
     "    MutexLock l(&inner_);\n"
     "    cv_.Wait(l);\n"
     "  }\n"
     "  Mutex outer_ XST_LOCK_RANK(20);\n"
     "  Mutex inner_ XST_LOCK_RANK(30);\n"
     "};\n"),
    ("blocking-under-latch", False, "file_->ReadAt(0, buf, 8);\n"),
    ("blocking-under-latch", False,
     "class C {\n"
     "  void F() {\n"
     "    MutexLock l(&latch_);\n"
     "    file_->ReadAt(0, buf, 8);  // xst-lint: allow(blocking-under-latch)\n"
     "  }\n"
     "  Mutex latch_ XST_LOCK_RANK(20);\n"
     "};\n"),
    # guarded-field-inference: a locked write to an unannotated field.
    ("guarded-field-inference", True,
     "class C {\n"
     "  void Set(int v) {\n"
     "    MutexLock l(&mu_);\n"
     "    x_ = v;\n"
     "  }\n"
     "  Mutex mu_ XST_LOCK_RANK(10);\n"
     "  int x_ = 0;\n"
     "};\n"),
    # XST_REQUIRES counts as holding the lock too.
    ("guarded-field-inference", True,
     "class C {\n"
     "  void Bump() XST_REQUIRES(mu_) { ++count_; }\n"
     "  Mutex mu_ XST_LOCK_RANK(10);\n"
     "  uint64_t count_ = 0;\n"
     "};\n"),
    # Annotated fields are the protocol working.
    ("guarded-field-inference", False,
     "class C {\n"
     "  void Set(int v) {\n"
     "    MutexLock l(&mu_);\n"
     "    x_ = v;\n"
     "  }\n"
     "  Mutex mu_ XST_LOCK_RANK(10);\n"
     "  int x_ XST_GUARDED_BY(mu_) = 0;\n"
     "};\n"),
    # Atomics are deliberately lock-free; no annotation expected.
    ("guarded-field-inference", False,
     "class C {\n"
     "  void Set(int v) {\n"
     "    MutexLock l(&mu_);\n"
     "    x_.store(v);\n"
     "    y_ = v;\n"
     "  }\n"
     "  Mutex mu_ XST_LOCK_RANK(10);\n"
     "  std::atomic<int> x_{0};\n"
     "  std::atomic<int> y_{0};\n"
     "};\n"),
    # Unlocked writes are Clang TSA's problem, not an inference miss.
    ("guarded-field-inference", False,
     "class C {\n"
     "  void Set(int v) { x_ = v; }\n"
     "  Mutex mu_ XST_LOCK_RANK(10);\n"
     "  int x_ = 0;\n"
     "};\n"),
    ("guarded-field-inference", False,
     "class C {\n"
     "  void Set(int v) {\n"
     "    MutexLock l(&mu_);\n"
     "    x_ = v;\n"
     "  }\n"
     "  Mutex mu_ XST_LOCK_RANK(10);\n"
     "  int x_ = 0;  // xst-lint: allow(guarded-field-inference)\n"
     "};\n"),
    # Moved in from the retired libclang engine's self-test.
    ("bare-mutex", True, "std::mutex mu;\n"),
    ("bare-mutex", True, "std::lock_guard<std::mutex> lock(mu);\n"),
    ("bare-mutex", True, "std::condition_variable cv;\n"),
    ("bare-mutex", False,
     "xst::Mutex mu;\n"
     "MutexLock lock(&mu);\n"),
    ("bare-mutex", False, "// std::mutex is banned outside sync.h\n"),
    ("bare-mutex", False, "std::mutex mu_;\n", "src/common/sync.h"),
    ("bare-mutex", False, "std::mutex mu;  // xst-lint: allow(bare-mutex)\n"),
    ("thread-primitives", False, "ThreadPool::Global().ParallelFor(n, 1, body);\n"),
    ("thread-primitives", False, "std::thread t;\n", "src/common/thread_pool.cc"),
    ("thread-primitives", False,
     "std::thread t([] {});  // xst-lint: allow(thread-primitives)\n"),
    ("interner-mutation", False, "Interner::Global().Int(7);\n", "src/core/xset.cc"),
    ("raw-page-pointer", True, "Page* p = ref.get();\n"),
    ("raw-page-pointer", True, "Page* p = &*pager->FetchPage(0);\n"),
    ("raw-page-pointer", False, "PageRef ref = *pager.FetchPage(id);\n"),
    ("raw-page-pointer", False, "Page* frame;\n"),
    ("raw-page-pointer", False, "Page* p = ref.get();\n", "src/store/pager.cc"),
    ("lock-across-parallelfor", True,
     "void F() {\n"
     "  MutexLock lock(&mu_);\n"
     "  ThreadPool::Global().ParallelFor(n, 1, body);\n"
     "}\n"),
    ("lock-across-parallelfor", False,
     "void F() {\n"
     "  {\n"
     "    MutexLock lock(&mu_);\n"
     "    total = Sum();\n"
     "  }\n"
     "  ThreadPool::Global().ParallelFor(n, 1, body);\n"
     "}\n"),
    ("lock-across-parallelfor", False,
     "void F() {\n"
     "  ThreadPool::Global().ParallelFor(n, 1, body);\n"
     "}\n"),
    ("result-value-unchecked", True,
     "namespace xst { template <typename T> class Result {\n"
     " public: bool ok() const; T& value(); }; }\n"
     "int F(xst::Result<int> r) { return r.value(); }\n"),
    ("result-value-unchecked", False,
     "namespace xst { template <typename T> class Result {\n"
     " public: bool ok() const; T& value(); }; }\n"
     "int F(xst::Result<int> r) {\n"
     "  if (!r.ok()) return -1;\n"
     "  return r.value();\n"
     "}\n"),
    # A used Result passes -Werror=unused-result; the rule still sees it.
    ("result-value-unchecked", True,
     "int G() {\n"
     "  Result<int> r = F();\n"
     "  return r.value();\n"
     "}\n"),
    ("vm-opcode-dispatch", True,
     "enum class OpCode : int { kAdd, kSub };\n"
     "void Run(OpCode op) {\n"
     "  switch (op) {\n"
     "    case OpCode::kAdd:\n"
     "      break;\n"
     "  }\n"
     "}\n"),
    ("vm-opcode-dispatch", True,
     "enum class OpCode : int { kAdd };\n"
     "void Run(OpCode op) {\n"
     "  switch (op) {\n"
     "    case OpCode::kAdd: break;\n"
     "    default: break;\n"
     "  }\n"
     "}\n"),
    ("vm-opcode-dispatch", False,
     "enum class OpCode : int { kAdd, kSub };\n"
     "void Run(OpCode op) {\n"
     "  switch (op) {\n"
     "    case OpCode::kAdd: break;\n"
     "    case OpCode::kSub: break;\n"
     "  }\n"
     "}\n"),
    ("vm-opcode-dispatch", False,
     "enum class ExprKind : int { kUnion };\n"
     "void Run(ExprKind k) {\n"
     "  switch (k) {\n"
     "    case ExprKind::kUnion: break;\n"
     "    default: break;\n"
     "  }\n"
     "}\n"),
    ("lock-rank", True,
     "#include \"src/common/sync.h\"\n"
     "class S {\n"
     " public:\n"
     "  void F() {\n"
     "    xst::MutexLock outer(&lo_);\n"
     "    xst::MutexLock inner(&hi_);\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex lo_ XST_LOCK_RANK(30);\n"
     "  xst::Mutex hi_ XST_LOCK_RANK(10);\n"
     "};\n"),
    ("lock-rank", False,
     "#include \"src/common/sync.h\"\n"
     "class S {\n"
     " public:\n"
     "  void F() {\n"
     "    xst::MutexLock outer(&lo_);\n"
     "    xst::MutexLock inner(&hi_);\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex lo_ XST_LOCK_RANK(10);\n"
     "  xst::Mutex hi_ XST_LOCK_RANK(30);\n"
     "};\n"),
    ("lock-rank", True,
     "#include \"src/common/sync.h\"\n"
     "class S {\n"
     " public:\n"
     "  void F() XST_REQUIRES(hi_) { Helper(); }\n"
     "  void Helper() { xst::MutexLock l(&lo_); }\n"
     " private:\n"
     "  xst::Mutex hi_ XST_LOCK_RANK(30);\n"
     "  xst::Mutex lo_ XST_LOCK_RANK(10);\n"
     "};\n"),
    ("lock-rank", False,
     "#include \"src/common/sync.h\"\n"
     "class S {\n"
     " public:\n"
     "  void F() {\n"
     "    xst::MutexLock outer(&lo_);\n"
     "    xst::MutexLock inner(&hi_);  // xst-lint: allow(lock-rank)\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex lo_ XST_LOCK_RANK(30);\n"
     "  xst::Mutex hi_ XST_LOCK_RANK(10);\n"
     "};\n"),
    ("blocking-under-latch", True,
     "#include \"src/common/sync.h\"\n"
     "#include \"src/store/file.h\"\n"
     "class C {\n"
     " public:\n"
     "  void F() {\n"
     "    xst::MutexLock l(&latch_);\n"
     "    file_->ReadAt(0, nullptr, 8);\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex latch_ XST_LOCK_RANK(20);\n"
     "  xst::File* file_;\n"
     "};\n"),
    ("blocking-under-latch", False,
     "#include \"src/common/sync.h\"\n"
     "#include \"src/store/file.h\"\n"
     "class C {\n"
     " public:\n"
     "  void F() {\n"
     "    xst::MutexLock l(&mu_);\n"
     "    file_->ReadAt(0, nullptr, 8);\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex mu_ XST_LOCK_RANK(10);\n"
     "  xst::File* file_;\n"
     "};\n"),
    ("blocking-under-latch", True,
     "#include \"src/common/sync.h\"\n"
     "void XST_BLOCKING Stall();\n"
     "class C {\n"
     " public:\n"
     "  void F() {\n"
     "    xst::MutexLock l(&latch_);\n"
     "    Stall();\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex latch_ XST_LOCK_RANK(20);\n"
     "};\n"),
    ("blocking-under-latch", False,
     "#include \"src/common/sync.h\"\n"
     "#include \"src/store/file.h\"\n"
     "class C {\n"
     " public:\n"
     "  void F() {\n"
     "    xst::MutexLock l(&latch_);\n"
     "    file_->ReadAt(0, nullptr, 8);  // xst-lint: allow(blocking-under-latch)\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex latch_ XST_LOCK_RANK(20);\n"
     "  xst::File* file_;\n"
     "};\n"),
    ("guarded-field-inference", True,
     "#include \"src/common/sync.h\"\n"
     "class C {\n"
     " public:\n"
     "  void Set(int v) {\n"
     "    xst::MutexLock l(&mu_);\n"
     "    x_ = v;\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex mu_ XST_LOCK_RANK(10);\n"
     "  int x_ = 0;\n"
     "};\n"),
    ("guarded-field-inference", False,
     "#include \"src/common/sync.h\"\n"
     "class C {\n"
     " public:\n"
     "  void Set(int v) {\n"
     "    xst::MutexLock l(&mu_);\n"
     "    x_ = v;\n"
     "  }\n"
     " private:\n"
     "  xst::Mutex mu_ XST_LOCK_RANK(10);\n"
     "  int x_ XST_GUARDED_BY(mu_) = 0;\n"
     "};\n"),
    ("guarded-field-inference", False,
     "#include \"src/common/sync.h\"\n"
     "class C {\n"
     " public:\n"
     "  void Set(int v) { x_ = v; }\n"
     " private:\n"
     "  int x_ = 0;\n"
     "};\n"),
]


def run_self_test():
    failures = 0
    for idx, fixture in enumerate(SELF_TEST_FIXTURES):
        if len(fixture) == 4:
            rule, expect_hit, code, path = fixture
        else:
            rule, expect_hit, code = fixture
            path = "selftest/fixture.cc"
        findings = [f for f in lint_text(path, code) if f.rule == rule]
        got_hit = bool(findings)
        if got_hit != expect_hit:
            failures += 1
            print(f"self-test fixture {idx} FAILED: rule={rule} "
                  f"expected_hit={expect_hit} got={got_hit}\n  code={code!r}",
                  file=sys.stderr)
    if failures:
        print(f"xst-lint self-test: {failures} fixture(s) failed", file=sys.stderr)
        return 1
    print(f"xst-lint self-test: all {len(SELF_TEST_FIXTURES)} fixtures passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", help="files or directories (default: src/)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in RULES:
            print(name)
        return 0
    if args.self_test:
        return run_self_test()

    paths = args.paths or [os.path.join(REPO_ROOT, "src")]
    findings, file_count = lint_paths(paths)
    if findings is None:
        return 2
    for finding in findings:
        print(finding)
    if findings:
        print(f"xst-lint: {len(findings)} finding(s) in {file_count} file(s)",
              file=sys.stderr)
        return 1
    print(f"xst-lint: OK ({file_count} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
