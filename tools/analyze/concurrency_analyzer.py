#!/usr/bin/env python3
"""Interprocedural §4.1 / epoch-discipline analyzer for the pitree engine.

Clang's thread-safety analysis (DESIGN.md §16) is intraprocedural: the
moment a latch hold crosses a function boundary — which is the *normal*
shape of §4.1 crabbing — it needs a NO_THREAD_SAFETY_ANALYSIS escape. This
tool picks up exactly where that analysis stops: it parses every translation
unit, builds a call graph, computes per-function *effect summaries*
(latches/mutexes acquired with their §11 ranks, epoch sections entered,
blocking waits, Env I/O), propagates them bottom-up to a fixpoint, and then
re-walks each function body with the callee summaries in hand.

Rule families (finding ids in brackets):

  [rank-order]  A blocking acquire — direct, or anywhere inside a callee —
                of a §11 rank lower than (or equal to, for non-tree ranks)
                something already held. The ranking, ascending in legal
                acquisition order (src/analysis/latch_id.h): kTreePage(1) <
                kSpaceMap(2) < kPoolShard(3) < kWalMutex(4). Equal-rank
                tree-page acquires are legal (the parent-before-child level
                sub-order is dynamic and checked at runtime).
  [epoch-block] A blocking acquire, blocking wait, or Env I/O — direct or
                via a callee — inside an epoch-guarded section. A parked
                optimistic reader stalls every reclaimer's grace period
                (storage/epoch.h).
  [latch-io]    Env I/O — direct or via a callee — while a page latch is
                held. Legal only where the design says so (reading a
                fetched page into its frame, flushing under S); every such
                site carries `analyze:allow-latch-io -- <reason>`.
  [unbalanced]  A return site whose local latch balance is nonzero, or that
                leaks a naked Mutex::Lock(), in a function *not* marked as
                an intentional cross-function span (`lint:tsa-escape`).
                Catches the error path that forgets a release.
  [olc-deref]   Validate-before-use (DESIGN.md §15): frame bytes are
                read only through the checked reader, `NodeView v(...
                InPlace(page))`, never by a raw `.data()` deref inside an
                optimistic window; and a `return`, a second in-place read
                or the end of the epoch section before a Validate/
                Revalidate (direct, or in a callee) covers the read.

Suppressions use the registered `analyze:` markers (tools/lint/markers.py)
on the finding line or the line directly above; every marker carries a
`-- <reason>` audit string. `analyze:latch-rank=<kRank>` is configuration:
it assigns a non-default rank to the latch acquired on the marked line
(e.g. the space-map latch in engine/page_alloc.cc).

Frontends:
  --frontend=lex        (default) a tokenizer over the source itself; used
                        locally and wherever clang is unavailable.
  --frontend=clang-ast  consumes `clang++ -Xclang -ast-dump=json` output
                        (one <stem>.json per TU in --ast-dir, as produced
                        by the CI analyze job); the AST is lowered to the
                        same per-function event stream, so both frontends
                        share the summary and rule machinery.

Usage:
  tools/analyze/concurrency_analyzer.py                 # analyze src/
  tools/analyze/concurrency_analyzer.py --json out.json # machine output
  tools/analyze/concurrency_analyzer.py --self-test     # embedded tests +
                                                        # testdata corpus
Exit status: 0 clean (suppressed findings allowed), 1 unsuppressed
findings, 2 self-test failure or internal error.
"""

import argparse
import json
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / 'tools' / 'lint'))
from markers import MARKERS  # noqa: E402  (single marker registry)

RANKS = {'kUnranked': 0, 'kTreePage': 1, 'kSpaceMap': 2, 'kPoolShard': 3,
         'kWalMutex': 4}
RANK_NAME = {v: k for k, v in RANKS.items()}

# Files whose locks are the instrumentation layer itself, not engine state.
EXCLUDE = ('src/analysis/',)

# ---------------------------------------------------------------------------
# Source mangling + markers
# ---------------------------------------------------------------------------

_STRING = re.compile(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'')
_MARKER = re.compile(r'\b((?:lint|analyze):[\w-]+)(=[\w-]+)?(\s*--\s*(\S.*))?')


def strip_code_lines(text):
    """Yields (lineno, line) with strings and comments blanked out."""
    in_block = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if in_block:
            end = line.find('*/')
            if end < 0:
                yield lineno, ''
                continue
            line = ' ' * (end + 2) + line[end + 2:]
            in_block = False
        line = _STRING.sub('""', line)
        while True:
            start = line.find('/*')
            if start < 0:
                break
            end = line.find('*/', start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + ' ' * (end + 2 - start) + line[end + 2:]
        idx = line.find('//')
        if idx >= 0:
            line = line[:idx]
        yield lineno, line


def collect_markers(text):
    """{lineno: {name: value_or_None}} for every registered marker."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _MARKER.finditer(line):
            name = m.group(1)
            if name in MARKERS:
                out.setdefault(lineno, {})[name] = \
                    m.group(2)[1:] if m.group(2) else None
    return out


def marker_at(markers, lineno, name):
    """Marker on the line or the line directly above (site scope)."""
    for ln in (lineno, lineno - 1):
        if name in markers.get(ln, {}):
            return True, markers[ln][name]
    return False, None


# ---------------------------------------------------------------------------
# Shared IR: a Function is a name plus a linear event stream
# ---------------------------------------------------------------------------

class Function:
    def __init__(self, qualname, path, sig_line, body_line):
        self.qualname = qualname          # 'PiTree::Get' or 'EngineAllocPage'
        self.cls = qualname.rsplit('::', 1)[0] if '::' in qualname else ''
        self.name = qualname.rsplit('::', 1)[-1]
        self.path = str(path)
        self.sig_line = sig_line
        self.body_line = body_line
        self.instrs = []                  # [(line, op, dict)]
        self.escaped = False              # carries lint:tsa-escape
        self.types = {}                   # TU-local {var: class} hints

    def emit(self, line, op, **data):
        self.instrs.append((line, op, data))


class Summary:
    """Transitive effect summary, computed to fixpoint over the call graph."""

    def __init__(self):
        self.may_block = False
        self.may_io = False
        self.validates = False            # contains an OLC validate
        self.acq_ranks = set()            # blocking-acquired ranks, own+callees

    def merge_from(self, other):
        changed = False
        for attr in ('may_block', 'may_io', 'validates'):
            if getattr(other, attr) and not getattr(self, attr):
                setattr(self, attr, True)
                changed = True
        if not other.acq_ranks <= self.acq_ranks:
            self.acq_ranks |= other.acq_ranks
            changed = True
        return changed


# ---------------------------------------------------------------------------
# Rank model: Mutex members declared with an analysis::Rank, per file stem
# ---------------------------------------------------------------------------

_RANK_DECL = re.compile(r'\bMutex\s+(\w+)\s*\{\s*analysis::Rank::(\w+)\s*\}')


def build_rank_map(files):
    """{file_stem: {member_name: rank_int}} from Mutex declarations."""
    ranks = {}
    for path, text in files.items():
        stem = pathlib.Path(path).stem
        for lineno, line in strip_code_lines(text):
            for m in _RANK_DECL.finditer(line):
                ranks.setdefault(stem, {})[m.group(1)] = \
                    RANKS.get(m.group(2), 0)
    return ranks


# Variable/member declarations whose type is an engine class give member
# calls a precise target: `WalSegmentSet segments_;` means `segments_.Open()`
# resolves to WalSegmentSet::Open, not to every Open in the tree. Hints are
# per-TU-stem, like ranks, and purely best-effort: a miss falls back to the
# name union.
_TYPE_DECL = re.compile(
    r'\b([A-Z]\w{2,})(?:<[^;>]*>)?\s*[&*]?\s+(\w+)\s*[;={]')


def build_type_map(files):
    """{file_stem: {var_name: class_name}} from declarations."""
    types = {}
    for path, text in files.items():
        stem = pathlib.Path(path).stem
        for lineno, line in strip_code_lines(text):
            for m in _TYPE_DECL.finditer(line):
                types.setdefault(stem, {})[m.group(2)] = m.group(1)
    return types


# ---------------------------------------------------------------------------
# Lexer frontend: stripped source lines -> event stream
# ---------------------------------------------------------------------------

_KEYWORDS = frozenset((
    'if', 'for', 'while', 'switch', 'return', 'sizeof', 'alignof', 'assert',
    'static_cast', 'reinterpret_cast', 'const_cast', 'dynamic_cast',
    'decltype', 'defined', 'new', 'delete', 'catch', 'noexcept', 'alignas'))

# Member calls with these names are overwhelmingly std:: containers/strings
# (`msg_.empty()`, `key.compare(...)`); resolving them by bare name to a
# same-named engine method (e.g. WalSegmentSet::empty, which takes a mutex)
# poisons every transitive caller's summary. They resolve only through an
# explicit class qualifier or a type hint.
_STL_MEMBERS = frozenset((
    'empty', 'size', 'clear', 'begin', 'end', 'data', 'c_str', 'find',
    'count', 'compare', 'substr', 'append', 'push_back', 'pop_back',
    'emplace_back', 'insert', 'erase', 'front', 'back', 'at', 'resize',
    'reserve', 'reset', 'get', 'release', 'swap', 'first', 'second',
    'length', 'str', 'value', 'has_value'))

_PAT = [
    ('brace', re.compile(r'[{}]')),
    ('guard', re.compile(
        r'\b(MutexLock|ReleasableMutexLock)\s+(\w+)\s*\(\s*&\s*'
        r'([\w.>\[\]()-]+?)\s*\)')),
    ('shardlock', re.compile(r'\bShardLock\s+(\w+)\s*\(')),
    ('epoch', re.compile(r'\bEpochGuard\s+(\w+)\s*[;({]')),
    ('mutexop', re.compile(
        r'((?:\w+(?:\.|->))*)(\w+)\s*\.\s*(Lock|Unlock|TryLock)\s*\(')),
    ('latchacq', re.compile(r'\.\s*(Try)?Acquire([SUX])\s*\(')),
    ('latchrel', re.compile(r'\.\s*Release([SUX]?)\s*\(')),
    ('promote', re.compile(r'\.\s*PromoteUToX\s*\(')),
    ('demote', re.compile(r'\.\s*DemoteXToU\s*\(')),
    ('acqmode', re.compile(r'\bAcquireMode\s*\(')),
    ('wait', re.compile(r'\.\s*Wait(?:For|Until)?\s*\(')),
    ('grace', re.compile(r'\bWaitGracePeriod\s*\(')),
    ('io', re.compile(
        r'\b(?:ReadPage|WritePage|ReadFileToString|WriteFileAtomic'
        r'|DoRead|DoWrite|DoSync|DoEnsureDurable)\s*\('
        r'|->\s*Sync\s*\(')),
    ('olc_begin', re.compile(r'\b(?:OptimisticBegin|FetchOptimistic)\s*\(')),
    ('olc_close', re.compile(
        r'\b(?:Validate|ReadConsistent|Revalidate)\s*\(')),
    ('olc_deref', re.compile(
        r'(?:\.\s*data\s*\(\)|->\s*data\s*\(\)|\bdata\s*\.\s*get\s*\(\))')),
    ('olc_read', re.compile(r'\bInPlace\s*\(')),
    ('ret', re.compile(r'\breturn\b')),
    ('call', re.compile(
        r'((?:\w+(?:\.|->))?)(?:(\w+)::)?([A-Za-z_]\w*)\s*\(')),
]

# The checked reader: an in-place read must construct a NodeView directly.
_CHECKED_READER = re.compile(r'\bNodeView\s+\w+\s*\(\s*[\w.>-]*$')

# Guard types a callee can receive by reference: Lock/Unlock on such a
# parameter manages the *caller's* hold, not a leak in the callee.
_GUARD_PARAM = re.compile(
    r'\b(?:MutexLock|ReleasableMutexLock|ShardLock)\s*&\s*(\w+)')


def scan_body(fn, lines, file_ranks, markers, sig_text=''):
    """Lowers (lineno, stripped_line) pairs into fn's event stream.

    `file_ranks` maps mutex member names to §11 ranks for this TU;
    `markers` is the raw-text marker map (for analyze:latch-rank);
    `sig_text` is the signature, scanned for by-reference guard params.
    """
    guard_vars = set(m.group(1) for m in _GUARD_PARAM.finditer(sig_text))
    for var in guard_vars:
        fn.emit(fn.body_line, 'guard_param', var=var)
    for lineno, line in lines:
        events = []   # (start, kind, match)
        taken = []    # spans claimed by specialized patterns
        for kind, pat in _PAT:
            if kind == 'call':
                continue
            for m in pat.finditer(line):
                events.append((m.start(), kind, m))
                taken.append((m.start(), m.end()))
        for m in _PAT[-1][1].finditer(line):    # generic calls last
            if any(s < m.end() and m.start() < e for s, e in taken):
                continue
            name = m.group(3)
            if name in _KEYWORDS:
                continue
            events.append((m.start(), 'call', m))
        # A `return` takes effect after the expression it returns.
        events.sort(key=lambda t: (t[1] == 'ret', t[0]))
        for _, kind, m in events:
            if kind == 'brace':
                fn.emit(lineno, 'open' if m.group(0) == '{' else 'close')
            elif kind == 'guard':
                var, target = m.group(2), m.group(3)
                member = target.split('.')[-1].split('->')[-1]
                rank = file_ranks.get(member, 0)
                guard_vars.add(var)
                fn.emit(lineno, 'guard', var=var, rank=rank, target=member)
            elif kind == 'shardlock':
                var = m.group(1)
                guard_vars.add(var)
                fn.emit(lineno, 'guard', var=var, rank=RANKS['kPoolShard'],
                        target='shard.mu')
            elif kind == 'epoch':
                fn.emit(lineno, 'epoch_guard', var=m.group(1))
            elif kind == 'mutexop':
                obj, meth = m.group(2), m.group(3)
                if obj in guard_vars:
                    fn.emit(lineno, 'guard_unlock' if meth == 'Unlock'
                            else 'guard_relock', var=obj)
                else:
                    rank = file_ranks.get(obj, 0)
                    if meth == 'Lock':
                        fn.emit(lineno, 'mutex_lock', target=obj, rank=rank,
                                blocking=True)
                    elif meth == 'TryLock':
                        fn.emit(lineno, 'mutex_lock', target=obj, rank=rank,
                                blocking=False)
                    else:
                        fn.emit(lineno, 'mutex_unlock', target=obj)
            elif kind == 'latchacq':
                blocking = m.group(1) is None
                ok, val = marker_at(markers, lineno, 'analyze:latch-rank')
                rank = RANKS.get(val, RANKS['kTreePage']) if ok \
                    else RANKS['kTreePage']
                fn.emit(lineno, 'latch_acquire', mode=m.group(2),
                        blocking=blocking, rank=rank)
            elif kind == 'latchrel':
                fn.emit(lineno, 'latch_release', mode=m.group(1) or '?')
            elif kind == 'promote':
                fn.emit(lineno, 'blocking_point', what='PromoteUToX')
            elif kind == 'demote':
                pass                      # balance- and rank-neutral
            elif kind == 'acqmode':
                ok, val = marker_at(markers, lineno, 'analyze:latch-rank')
                rank = RANKS.get(val, RANKS['kTreePage']) if ok \
                    else RANKS['kTreePage']
                fn.emit(lineno, 'latch_acquire', mode='?', blocking=True,
                        rank=rank)
            elif kind == 'wait':
                fn.emit(lineno, 'blocking_point', what='CondVar wait')
            elif kind == 'grace':
                fn.emit(lineno, 'blocking_point', what='WaitGracePeriod')
            elif kind == 'io':
                fn.emit(lineno, 'io', what=m.group(0).strip('(- >').strip())
            elif kind == 'olc_begin':
                fn.emit(lineno, 'olc_begin')
            elif kind == 'olc_close':
                fn.emit(lineno, 'olc_validate')
            elif kind == 'olc_deref':
                fn.emit(lineno, 'olc_deref')
            elif kind == 'olc_read':
                fn.emit(lineno, 'olc_read', checked=bool(
                    _CHECKED_READER.search(line[:m.start()])))
            elif kind == 'ret':
                fn.emit(lineno, 'ret')
            elif kind == 'call':
                obj = m.group(1).rstrip('.->') if m.group(1) else ''
                fn.emit(lineno, 'call', cls=m.group(2) or '',
                        name=m.group(3), member=bool(m.group(1)), obj=obj)
    fn.emit(lines[-1][0] if lines else fn.body_line, 'ret')  # implicit exit


_SIG_NAME = re.compile(r'([\w~]+(?:::[\w~]+)*)\s*\($')


def parse_source(path, text, file_ranks, file_types=None):
    """Lexer frontend: extracts namespace-scope function definitions."""
    markers = collect_markers(text)
    stripped = list(strip_code_lines(text))
    functions = []
    depth = 0
    sig = []                              # (lineno, line) candidate signature
    i = 0
    while i < len(stripped):
        lineno, line = stripped[i]
        s = line.strip()
        if depth == 0:
            if s.startswith('namespace') and s.endswith('{'):
                i += 1
                continue
            if s == '}' or s.startswith('} '):
                i += 1
                continue
            if not s or s.startswith('#'):
                if not s:
                    sig = []
                i += 1
                continue
            sig.append((lineno, line))
            joined = ' '.join(l.strip() for _, l in sig)
            if '{' in line:
                head = joined.split('{')[0]
                paren = head.find('(')
                name_m = _SIG_NAME.search(head[:paren + 1]) \
                    if paren >= 0 else None
                bad = (';' in head or paren < 0 or name_m is None or
                       head.lstrip().startswith(('class ', 'struct ',
                                                 'enum ', 'union ')) or
                       '=' in head[:paren])
                if bad:
                    # Not a function definition (class, initializer, ...):
                    # skip the whole braced region.
                    sig = []
                    d = line.count('{') - line.count('}')
                    while d > 0 and i + 1 < len(stripped):
                        i += 1
                        d += stripped[i][1].count('{') \
                            - stripped[i][1].count('}')
                    i += 1
                    continue
                fn = Function(name_m.group(1), path, sig[0][0], lineno)
                fn.types = file_types or {}
                body = []
                brace_in_sig = line[line.find('{'):]
                d = brace_in_sig.count('{') - brace_in_sig.count('}')
                body.append((lineno, brace_in_sig))
                while d > 0 and i + 1 < len(stripped):
                    i += 1
                    body.append(stripped[i])
                    d += stripped[i][1].count('{') \
                        - stripped[i][1].count('}')
                scan_body(fn, body, file_ranks, markers, sig_text=head)
                for ln in range(max(1, fn.sig_line - 4), fn.body_line + 1):
                    if 'lint:tsa-escape' in markers.get(ln, {}) or \
                       'analyze:allow-unbalanced' in markers.get(ln, {}):
                        fn.escaped = True
                functions.append(fn)
                sig = []
                # The body (brace-balanced) was consumed above; counting the
                # signature line's '{' here would strand depth at 1 and hide
                # every later function in the file.
                i += 1
                continue
            elif ';' in line:
                sig = []
        else:
            pass
        depth += line.count('{') - line.count('}')
        if depth < 0:
            depth = 0
        i += 1
    return functions, markers


# ---------------------------------------------------------------------------
# Clang AST JSON frontend: lower the AST to pseudo-source, reuse scan_body
# ---------------------------------------------------------------------------

def _ast_line(node, state):
    loc = node.get('range', {}).get('begin', {}) or node.get('loc', {})
    # clang omits 'line' when unchanged from the previous node; also unwrap
    # spellingLoc/expansionLoc wrappers.
    for key in ('spellingLoc', 'expansionLoc'):
        if key in loc:
            loc = loc[key]
    if 'line' in loc:
        state['line'] = loc['line']
    return state.get('line', 1)


def _ast_member_path(node):
    """Flattens a MemberExpr/DeclRefExpr chain into 'a.b.c'."""
    if node.get('kind') == 'MemberExpr':
        base = ''
        for ch in node.get('inner', []):
            base = _ast_member_path(ch)
            if base:
                break
        name = node.get('name', '')
        return f'{base}.{name}' if base else name
    if node.get('kind') == 'DeclRefExpr':
        return node.get('referencedDecl', {}).get('name', '')
    for ch in node.get('inner', []):
        p = _ast_member_path(ch)
        if p:
            return p
    return ''


def _ast_render(node, out, state):
    """Appends (line, pseudo_text) fragments for the events we model."""
    kind = node.get('kind', '')
    line = _ast_line(node, state)
    if kind == 'CompoundStmt':
        out.append((line, '{'))
        for ch in node.get('inner', []):
            _ast_render(ch, out, state)
        out.append((state.get('line', line), '}'))
        return
    if kind == 'ReturnStmt':
        # As in the lexer frontend, a return takes effect after its value.
        for ch in node.get('inner', []):
            _ast_render(ch, out, state)
        out.append((line, 'return;'))
        return
    if kind == 'VarDecl':
        typ = node.get('type', {}).get('qualType', '')
        name = node.get('name', '')
        base = typ.split('<')[0].strip().split('::')[-1]
        if base in ('MutexLock', 'ReleasableMutexLock'):
            target = 'unknown_mu'
            for ch in node.get('inner', []):
                p = _ast_member_path(ch)
                if p:
                    target = p
                    break
            out.append((line, f'{base} {name}(&{target})'))
            return
        if base == 'ShardLock':
            out.append((line, f'ShardLock {name}(s)'))
            return
        if base == 'EpochGuard':
            out.append((line, f'EpochGuard {name};'))
            return
        if base == 'NodeView':  # the checked reader wraps its source
            sub = []
            for ch in node.get('inner', []):
                _ast_render(ch, sub, state)
            out.append((line, f'NodeView {name}(' +
                        ' '.join(t for _, t in sub) + ')'))
            return
    if kind == 'CXXMemberCallExpr':
        inner = node.get('inner', [])
        meth, obj = '', ''
        if inner and inner[0].get('kind') == 'MemberExpr':
            meth = inner[0].get('name', '')
            for ch in inner[0].get('inner', []):
                obj = _ast_member_path(ch)
                if obj:
                    break
        out.append((line, f'{obj or "obj"}.{meth}()'))
        for ch in inner[1:]:
            _ast_render(ch, out, state)
        return
    if kind == 'CallExpr':
        name = ''
        for ch in node.get('inner', []):
            name = _ast_member_path(ch)
            if name:
                break
        out.append((line, f'{name or "fn"}()'))
        for ch in node.get('inner', [])[1:]:
            _ast_render(ch, out, state)
        return
    for ch in node.get('inner', []):
        _ast_render(ch, out, state)


def _ast_walk_functions(node, path, file_ranks, markers, functions, cls=''):
    kind = node.get('kind', '')
    if kind == 'CXXRecordDecl':
        cls = node.get('name', cls)
    if kind in ('FunctionDecl', 'CXXMethodDecl', 'CXXConstructorDecl',
                'CXXDestructorDecl') and not node.get('isImplicit'):
        body = next((ch for ch in node.get('inner', [])
                     if ch.get('kind') == 'CompoundStmt'), None)
        if body is not None:
            name = node.get('name', '?')
            qual = f'{cls}::{name}' if kind != 'FunctionDecl' and cls \
                else name
            state = {}
            line = _ast_line(node, state)
            fn = Function(qual, path, line, line)
            # Synthesize a signature string from ParmVarDecls so guard-type
            # reference parameters are recognized, as in the lexer frontend.
            params = []
            for ch in node.get('inner', []):
                if ch.get('kind') == 'ParmVarDecl':
                    ty = ch.get('type', {}).get('qualType', '')
                    params.append(f"{ty} {ch.get('name', '')}")
            sig_text = f"{qual}({', '.join(params)})"
            out = []
            _ast_render(body, out, state)
            merged = [(ln, txt) for ln, txt in out]
            scan_body(fn, merged, file_ranks, markers, sig_text=sig_text)
            for ln in range(max(1, fn.sig_line - 4), fn.sig_line + 2):
                if 'lint:tsa-escape' in markers.get(ln, {}) or \
                   'analyze:allow-unbalanced' in markers.get(ln, {}):
                    fn.escaped = True
            functions.append(fn)
            return
    for ch in node.get('inner', []):
        _ast_walk_functions(ch, path, file_ranks, markers, functions, cls)


def parse_clang_ast(path, ast, source_text, file_ranks, file_types=None):
    """AST frontend: same Function IR as parse_source."""
    markers = collect_markers(source_text) if source_text else {}
    functions = []
    _ast_walk_functions(ast, path, file_ranks, markers, functions)
    # The dump covers included headers too; keep only this TU's functions.
    functions = [f for f in functions if f.instrs]
    for f in functions:
        f.types = file_types or {}
    return functions, markers


# ---------------------------------------------------------------------------
# Call graph + fixpoint summaries
# ---------------------------------------------------------------------------

def resolve_callees(fn, by_name):
    """Callee Functions for every call event.

    Bare calls prefer same-class candidates (an unqualified call from a
    method is usually to a sibling). An explicit-object member call
    (`segments_.Open(...)`) is the opposite: it targets *another* object,
    so the caller itself is excluded — otherwise every `x_.Open()` inside
    a method named Open becomes a phantom self-recursion.
    """
    out = []
    for line, op, data in fn.instrs:
        if op != 'call':
            continue
        cands = by_name.get(data['name'], [])
        if data['cls']:
            exact = [c for c in cands if c.cls == data['cls']]
            cands = exact or cands
        elif data.get('member'):
            hint = fn.types.get(data.get('obj', ''))
            if hint:
                # A type hint pins the class; no parsed method of that
                # class means the callee is out of scope (std::, inline
                # header) — treat as unresolved rather than fall back to
                # the union.
                cands = [c for c in cands if c.cls == hint]
            elif data['name'] in _STL_MEMBERS:
                cands = []
            else:
                cands = [c for c in cands if c is not fn]
        elif fn.cls:
            same = [c for c in cands if c.cls == fn.cls]
            cands = same or cands
        out.append((line, data['name'], cands))
    return out


def compute_summaries(functions):
    by_name = {}
    for f in functions:
        by_name.setdefault(f.name, []).append(f)
    sums = {id(f): Summary() for f in functions}
    for f in functions:
        s = sums[id(f)]
        # Caller-passed guards model the drop-before-acquire hand-off
        # (FlushFrame unlocks the shard lock it received, then blocks on a
        # page latch): a blocking acquire made while every passed-in guard
        # is unlocked happens outside the caller's critical section, so its
        # rank must not feed the caller-side §11 check. may_block still
        # propagates — the thread parks either way.
        param_locked = {}
        for _, op, data in f.instrs:
            if op == 'guard_param':
                param_locked[data['var']] = True
        def caller_holds():
            return not param_locked or any(param_locked.values())
        for _, op, data in f.instrs:
            if op == 'guard_unlock' and data['var'] in param_locked:
                param_locked[data['var']] = False
            elif op == 'guard_relock' and data['var'] in param_locked:
                param_locked[data['var']] = True
            elif op in ('mutex_lock', 'latch_acquire'):
                if data.get('blocking'):
                    s.may_block = True
                    if data['rank'] and caller_holds():
                        s.acq_ranks.add(data['rank'])
            elif op == 'guard':
                s.may_block = True
                if data['rank'] and caller_holds():
                    s.acq_ranks.add(data['rank'])
            elif op == 'blocking_point':
                s.may_block = True
            elif op == 'io':
                s.may_io = True
            elif op == 'olc_validate':
                s.validates = True
    callees = {id(f): [c for _, _, cs in resolve_callees(f, by_name)
                       for c in cs] for f in functions}
    changed = True
    while changed:
        changed = False
        for f in functions:
            s = sums[id(f)]
            for c in callees[id(f)]:
                if s.merge_from(sums[id(c)]):
                    changed = True
    return sums, by_name


# ---------------------------------------------------------------------------
# Rules engine
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, path, lineno, rule, func, msg, suppressed=False,
                 reason=None):
        self.path, self.lineno, self.rule = str(path), lineno, rule
        self.func, self.msg = func, msg
        self.suppressed, self.reason = suppressed, reason

    def __str__(self):
        tag = ' (suppressed)' if self.suppressed else ''
        return (f'{self.path}:{self.lineno}: [{self.rule}]{tag} '
                f'in {self.func}: {self.msg}')

    def as_dict(self):
        return dict(path=self.path, line=self.lineno, rule=self.rule,
                    function=self.func, message=self.msg,
                    suppressed=self.suppressed, reason=self.reason)


_SUPPRESS = {'rank-order': 'analyze:allow-rank-order',
             'epoch-block': 'analyze:allow-epoch-block',
             'latch-io': 'analyze:allow-latch-io',
             'unbalanced': 'analyze:allow-unbalanced',
             'olc-deref': 'analyze:allow-olc-deref'}


def check_function(fn, sums, by_name, markers):
    findings = []
    seen = set()

    def report(line, rule, msg):
        if (line, rule, msg) in seen:   # implicit-exit ret can revisit a site
            return
        seen.add((line, rule, msg))
        ok, reason = marker_at(markers, line, _SUPPRESS[rule])
        findings.append(Finding(fn.path, line, rule, fn.qualname, msg,
                                suppressed=ok, reason=reason))

    scopes = [[]]                 # per-scope auto-release lists
    guards = {}                   # var -> [rank, held]
    naked = {}                    # mutex target -> rank
    latches = []                  # multiset of held latch ranks
    epoch = 0
    olc_open = 0
    olc_read = 0                  # line of an in-place read awaiting validate

    def check_read_validated(line, what):
        if olc_read:
            report(line, 'olc-deref',
                   f'{what} while the in-place read at line {olc_read} '
                   f'awaits a Validate/Revalidate (validate-before-use)')

    def held_ranks():
        rs = [r for r, h in guards.values() if h and r]
        rs += [r for r in naked.values() if r]
        rs += [r for r in latches if r]
        return rs

    def check_rank(line, r, what):
        if not r:
            return
        held = held_ranks()
        worse = [h for h in held if h > r or
                 (h == r and r != RANKS['kTreePage'])]
        if worse:
            report(line, 'rank-order',
                   f'blocking acquire of {RANK_NAME[r]} while holding '
                   f'{RANK_NAME[max(worse)]} — §11 order is '
                   f'kTreePage < kSpaceMap < kPoolShard < kWalMutex '
                   f'({what})')

    def check_epoch(line, what):
        if epoch > 0:
            report(line, 'epoch-block',
                   f'{what} inside an epoch section — a parked optimistic '
                   f'reader stalls every reclaimer\'s grace period')

    cands_at = {}
    for line, name, cands in resolve_callees(fn, by_name):
        cands_at.setdefault((line, name), []).extend(cands)

    for line, op, data in fn.instrs:
        if op == 'open':
            scopes.append([])
        elif op == 'close':
            if len(scopes) > 1:
                for kind, key in scopes.pop():
                    if kind == 'guard' and key in guards:
                        guards[key][1] = False
                    elif kind == 'epoch':
                        epoch = max(0, epoch - 1)
                        check_read_validated(line, 'epoch section ends')
                        olc_read = 0
        elif op == 'guard':
            check_epoch(line, 'blocking mutex acquire')
            check_rank(line, data['rank'], f'guard on {data["target"]}')
            guards[data['var']] = [data['rank'], True]
            scopes[-1].append(('guard', data['var']))
        elif op == 'guard_param':
            # Caller-owned guard received by reference: held on entry, and
            # the caller (not this function) owns the final release.
            guards[data['var']] = [0, True]
        elif op == 'guard_unlock':
            if data['var'] in guards:
                guards[data['var']][1] = False
        elif op == 'guard_relock':
            if data['var'] in guards:
                check_epoch(line, 'blocking mutex re-acquire')
                check_rank(line, guards[data['var']][0], 're-lock')
                guards[data['var']][1] = True
        elif op == 'mutex_lock':
            if data['blocking']:
                check_epoch(line, 'blocking mutex acquire')
                check_rank(line, data['rank'], f'Lock on {data["target"]}')
            naked[data['target']] = data['rank']
        elif op == 'mutex_unlock':
            naked.pop(data['target'], None)
        elif op == 'latch_acquire':
            if data['blocking']:
                check_epoch(line, 'blocking latch acquire')
                check_rank(line, data['rank'],
                           f'Acquire{data["mode"]}')
            latches.append(data['rank'])
        elif op == 'latch_release':
            if latches:
                latches.pop()
        elif op == 'blocking_point':
            check_epoch(line, data['what'])
        elif op == 'epoch_guard':
            epoch += 1
            scopes[-1].append(('epoch', data['var']))
        elif op == 'io':
            check_epoch(line, f'Env I/O ({data["what"]})')
            if latches:
                report(line, 'latch-io',
                       f'Env I/O ({data["what"]}) while a page latch is '
                       f'held')
        elif op == 'olc_begin':
            olc_open = line
        elif op == 'olc_validate':
            olc_open = olc_read = 0
        elif op == 'olc_read':
            if not data['checked']:
                report(line, 'olc-deref',
                       'in-place frame bytes not handed straight to the '
                       'checked reader (NodeView v(...InPlace(page)))')
            check_read_validated(line, 'another in-place read (a pointer '
                                 'followed)')
            olc_read = line
        elif op == 'olc_deref':
            if olc_open:
                report(line, 'olc-deref',
                       f'frame-byte deref inside the optimistic window '
                       f'opened at line {olc_open} with no covering '
                       f'Validate')
        elif op == 'ret':
            check_read_validated(line, 'return')
            if not fn.escaped:
                if latches:
                    report(line, 'unbalanced',
                           f'return with {len(latches)} latch hold(s) '
                           f'unreleased (no lint:tsa-escape on this '
                           f'function)')
                if naked:
                    t = ', '.join(sorted(naked))
                    report(line, 'unbalanced',
                           f'return leaks naked Mutex::Lock() on {t}')
        elif op == 'call':
            cs = cands_at.get((line, data['name']), [])
            if not cs:
                continue
            may_block = any(sums[id(c)].may_block for c in cs)
            may_io = any(sums[id(c)].may_io for c in cs)
            ranks = set()
            for c in cs:
                ranks |= sums[id(c)].acq_ranks
            if may_block:
                check_epoch(line, f'call to blocking {data["name"]}()')
            if may_io:
                check_epoch(line, f'call to I/O-reaching {data["name"]}()')
                if latches:
                    report(line, 'latch-io',
                           f'call to {data["name"]}() which reaches Env '
                           f'I/O while a page latch is held')
            for r in sorted(ranks):
                check_rank(line, r, f'via call to {data["name"]}()')
            if any(sums[id(c)].validates for c in cs):
                olc_open = olc_read = 0
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def load_tree(roots):
    files = {}
    for root in roots:
        base = REPO_ROOT / root
        if base.is_file():
            files[str(root)] = base.read_text(errors='replace')
            continue
        for p in sorted(base.rglob('*')):
            rel = str(p.relative_to(REPO_ROOT))
            if p.suffix in ('.cc', '.h') and p.is_file() and \
                    not any(rel.startswith(e) for e in EXCLUDE):
                files[rel] = p.read_text(errors='replace')
    return files


def analyze(files, frontend='lex', ast_dir=None):
    rank_map = build_rank_map(files)
    type_map = build_type_map(files)
    functions, markers_by_file = [], {}
    for path, text in files.items():
        if not path.endswith('.cc'):
            continue
        stem = pathlib.Path(path).stem
        # Ranked-mutex members resolve within their own TU (<stem>.h +
        # <stem>.cc) only: guard declarations against a *member* mutex only
        # ever appear in the owning class's TU, and a global name merge
        # would mislabel unrelated members that happen to share a name
        # (e.g. every class calls something `mu_`). Cross-TU acquisition is
        # modeled at the call graph level instead.
        file_ranks = dict(rank_map.get(stem, {}))
        file_types = dict(type_map.get(stem, {}))
        if frontend == 'clang-ast':
            ast_path = pathlib.Path(ast_dir) / (stem + '.json')
            if not ast_path.exists():
                print(f'note: no AST dump for {path}; falling back to lex',
                      file=sys.stderr)
                fns, mk = parse_source(path, text, file_ranks, file_types)
            else:
                ast = json.loads(ast_path.read_text())
                fns, mk = parse_clang_ast(path, ast, text, file_ranks,
                                          file_types)
        else:
            fns, mk = parse_source(path, text, file_ranks, file_types)
        functions.extend(fns)
        markers_by_file[path] = mk
    sums, by_name = compute_summaries(functions)
    findings = []
    for fn in functions:
        findings.extend(
            check_function(fn, sums, by_name, markers_by_file[fn.path]))
    return findings, functions


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    ap.add_argument('--self-test', action='store_true')
    ap.add_argument('--json', metavar='OUT', help='write findings as JSON')
    ap.add_argument('--frontend', choices=('lex', 'clang-ast'),
                    default='lex')
    ap.add_argument('--ast-dir', default='build/ast',
                    help='directory of per-TU clang AST JSON dumps')
    ap.add_argument('--list-functions', action='store_true',
                    help='debug: print every parsed function')
    ap.add_argument('paths', nargs='*', default=['src'])
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    files = load_tree(args.paths)
    findings, functions = analyze(files, args.frontend, args.ast_dir)
    if args.list_functions:
        for f in functions:
            print(f'{f.path}:{f.sig_line}: {f.qualname} '
                  f'({len(f.instrs)} events)')
    live = [f for f in findings if not f.suppressed]
    for f in findings:
        print(f)
    if args.json:
        payload = dict(
            findings=[f.as_dict() for f in findings],
            stats=dict(functions=len(functions),
                       findings=len(live),
                       suppressed=len(findings) - len(live)))
        pathlib.Path(args.json).write_text(json.dumps(payload, indent=2))
    if live:
        print(f'{len(live)} unsuppressed finding(s) '
              f'({len(findings) - len(live)} suppressed)', file=sys.stderr)
        return 1
    print(f'analyze clean: {len(functions)} functions, '
          f'{len(findings) - len(live)} suppressed finding(s)')
    return 0


# ---------------------------------------------------------------------------
# Self-tests: embedded snippets + the testdata corpus
# ---------------------------------------------------------------------------

def _run_snippet(snippets):
    """snippets: {path: source}. Returns findings."""
    return analyze(dict(snippets))[0]


_EMBEDDED = [
    ('rank-order fires: latch under pool-shard mutex', {
        'x.h': 'struct S { Mutex mu{analysis::Rank::kPoolShard}; };',
        'x.cc': '''Status Bad(Shard& s, PageHandle& h) {
          MutexLock lk(&mu);
          h.latch().AcquireX();
          h.latch().ReleaseX();
          return Status::OK();
        }'''}, [('rank-order', 3)]),
    ('rank-order quiet: WAL mutex under latch (ascending)', {
        'w.h': 'struct W { Mutex mu_{analysis::Rank::kWalMutex}; };',
        'w.cc': '''Status Good(PageHandle& h) {
          h.latch().AcquireX();
          MutexLock lk(&mu_);
          h.latch().ReleaseX();
          return Status::OK();
        }'''}, []),
    ('rank-order fires interprocedurally', {
        'y.h': 'struct S { Mutex mu{analysis::Rank::kPoolShard}; };',
        'y.cc': '''void Helper(PageHandle& h) {
          h.latch().AcquireX();
          h.latch().ReleaseX();
        }
        Status Bad(Shard& s, PageHandle& h) {
          MutexLock lk(&mu);
          Helper(h);
          return Status::OK();
        }'''}, [('rank-order', 7)]),
    ('epoch-block fires on blocking acquire in epoch section', {
        'e.cc': '''Status Bad(Mutex& m) {
          EpochGuard g;
          MutexLock lk(&m);
          return Status::OK();
        }'''}, [('epoch-block', 3)]),
    ('epoch-block fires via callee I/O', {
        'f.cc': '''Status Io(char* buf) {
          return ReadPage(1, buf);
        }
        Status Bad(char* buf) {
          EpochGuard g;
          return Io(buf);
        }'''}, [('epoch-block', 6)]),
    ('epoch-block quiet after the guard scope closes', {
        'g.cc': '''Status Good(Mutex& m, char* buf) {
          {
            EpochGuard g;
            if (!TryRead(buf)) return Status::Busy("");
          }
          MutexLock lk(&m);
          return Status::OK();
        }'''}, []),
    ('latch-io fires on write under latch', {
        'h.cc': '''Status Bad(PageHandle& h) {
          h.latch().AcquireS();
          Status s = WritePage(h.id(), h.data());
          h.latch().ReleaseS();
          return s;
        }'''}, [('latch-io', 3)]),
    ('latch-io suppressed with a marker', {
        'i.cc': '''Status Flush(PageHandle& h) {
          h.latch().AcquireS();
          // analyze:allow-latch-io -- flushing under S is the design
          Status s = WritePage(h.id(), h.data());
          h.latch().ReleaseS();
          return s;
        }'''}, []),
    ('unbalanced fires on an early return holding a latch', {
        'j.cc': '''Status Bad(PageHandle& h) {
          h.latch().AcquireS();
          if (h.id() == 0) return Status::Corruption("");
          h.latch().ReleaseS();
          return Status::OK();
        }'''}, [('unbalanced', 3)]),
    ('unbalanced quiet with a tsa-escape (intentional span)', {
        'k.cc': '''// lint:tsa-escape -- hands the latched page to the caller
        Status Descend(PageHandle& h) {
          h.latch().AcquireS();
          return Status::OK();
        }'''}, []),
    ('olc-deref fires on raw deref in the window', {
        'l.cc': '''bool Bad(Latch& l, PageHandle& h) {
          uint64_t w = l.OptimisticBegin();
          char c = h.data()[0];
          return l.Validate(w) && c;
        }'''}, [('olc-deref', 3)]),
    ('olc-deref quiet when a callee validates first', {
        'm.cc': '''bool CopyOut(Latch& l, uint64_t w, char* out) {
          return l.Validate(w);
        }
        bool Good(Latch& l, PageHandle& h, char* out) {
          uint64_t w = l.OptimisticBegin();
          if (!CopyOut(l, w, out)) return false;
          return out.data()[0] != 0;
        }'''}, []),
    ('olc-deref quiet: in-place read validated before use', {
        'n.cc': '''Slice Good(BufferPool* pool, OptimisticPage& page) {
          EpochGuard epoch;
          NodeView leaf(pool->InPlace(page));
          const Slice v = leaf.EntryValue(0);
          return pool->Revalidate(page) ? v : Slice();
        }'''}, []),
    ("olc-deref fires: a slot's value returned before Revalidate", {
        'o.cc': '''Slice Bad(BufferPool* pool, OptimisticPage& page) {
          EpochGuard epoch;
          NodeView leaf(pool->InPlace(page));
          return leaf.EntryValue(0);
        }'''}, [('olc-deref', 4), ('olc-deref', 5)]),
]


def self_test():
    failures = 0
    for name, snippets, expected in _EMBEDDED:
        got = [(f.rule, f.lineno) for f in _run_snippet(snippets)
               if not f.suppressed]
        if sorted(got) != sorted(expected):
            failures += 1
            print(f'SELF-TEST FAIL: {name}: expected {expected}, got {got}',
                  file=sys.stderr)
    # Testdata corpus: every fixture declares its expectations inline with
    # `EXPECT-FINDING: <rule>` comments on the offending line.
    tdir = REPO_ROOT / 'tools' / 'analyze' / 'testdata'
    expect_re = re.compile(r'EXPECT-FINDING:\s*([\w-]+)')
    for fixture in sorted(tdir.glob('*.cc')):
        text = fixture.read_text()
        expected = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            for m in expect_re.finditer(line):
                expected.append((m.group(1), lineno))
        extra = {}
        for co in sorted(tdir.glob(fixture.stem + '*.h')):
            extra[co.name] = co.read_text()
        extra[fixture.name] = text
        got = [(f.rule, f.lineno) for f in _run_snippet(extra)
               if not f.suppressed]
        if sorted(got) != sorted(expected):
            failures += 1
            print(f'SELF-TEST FAIL: {fixture.name}: expected '
                  f'{sorted(expected)}, got {sorted(got)}', file=sys.stderr)
    # Clang-AST frontend: the synthetic dump must produce the same findings
    # as its lexed twin.
    ast_fixture = tdir / 'synthetic_ast.json'
    if ast_fixture.exists():
        ast = json.loads(ast_fixture.read_text())
        fns, mk = parse_clang_ast('synthetic.cc', ast, '', {})
        sums, by_name = compute_summaries(fns)
        got = []
        for fn in fns:
            got += [(f.rule, f.lineno)
                    for f in check_function(fn, sums, by_name, mk)]
        expected = [('epoch-block', 12), ('unbalanced', 22)]
        if sorted(got) != sorted(expected):
            failures += 1
            print(f'SELF-TEST FAIL: synthetic_ast.json: expected '
                  f'{expected}, got {sorted(got)}', file=sys.stderr)
    else:
        failures += 1
        print('SELF-TEST FAIL: testdata/synthetic_ast.json missing',
              file=sys.stderr)
    if failures:
        return 2
    n = len(_EMBEDDED) + len(list(tdir.glob('*.cc'))) + 1
    print(f'self-test OK: {n} cases')
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
