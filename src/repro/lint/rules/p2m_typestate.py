"""RPR008 p2m-typestate.

The paper's migration protocol (section 4.1) is a lifecycle: an entry is
populated, may be write-protected to freeze its content, is remapped (or
unprotected) to finish the migration, may be invalidated to arm the
first-touch trap, and is removed at teardown. The runtime sanitizer
traps violating *executions*; this pass flags violating *call
sequences* statically, per function, in the hypervisor and policy
layers — the complementary check that does not need the sequence to run.

The automaton (states: unknown, mapped, invalid, write-protected,
freed):

* ``set_entry`` (re)populates from any state;
* ``invalidate``/``invalidate_page`` need a mapped entry — invalidating
  a write-protected page abandons an in-flight migration;
* ``write_protect`` needs a mapped, unprotected entry (double-protect
  and protecting invalid/freed entries raise at runtime);
* ``remap``/``unprotect`` need a write-protected entry;
* ``remove`` frees mapped or invalid entries — freeing mid-migration or
  double-freeing is a violation;
* ``migrate_page`` needs a mapped entry.

Tracking keys on the receiver *and* the page argument text, so
``p2m.write_protect(a); p2m.remap(b, m)`` does not satisfy ``b``'s
protocol with ``a``'s protect. Branches fork the state set (if/else,
try/except union; loop bodies run twice to reach their fixpoint), and a
sequence is flagged only when **every** possible state at the call is a
violating one — a may-analysis that stays quiet on code that is correct
on any path. After a finding the key resets to unknown to avoid
cascades.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.lint.findings import Finding
from repro.lint.project import FuncDef, ProjectContext, ProjectRule
from repro.lint.registry import register
from repro.lint.visitor import FileContext

#: Path segments that scope this rule (hypervisor + policy layers).
SCOPE_SEGMENTS = frozenset({"hypervisor", "policies"})

UNKNOWN = "unknown"
MAPPED = "mapped"
INVALID = "invalid"
PROTECTED = "write-protected"
FREED = "freed"

VIOLATION = None  # sentinel transition result

#: op -> {state -> next state (None = violation)}; UNKNOWN entries give
#: the state assumed when the op is the first we see for a key.
TRANSITIONS: Dict[str, Dict[str, Optional[str]]] = {
    "set_entry": {
        UNKNOWN: MAPPED,
        MAPPED: MAPPED,
        INVALID: MAPPED,
        PROTECTED: MAPPED,
        FREED: MAPPED,
    },
    "invalidate": {
        UNKNOWN: INVALID,
        MAPPED: INVALID,
        INVALID: INVALID,
        PROTECTED: VIOLATION,
        FREED: FREED,
    },
    "invalidate_page": {
        UNKNOWN: INVALID,
        MAPPED: INVALID,
        INVALID: INVALID,
        PROTECTED: VIOLATION,
        FREED: FREED,
    },
    "write_protect": {
        UNKNOWN: PROTECTED,
        MAPPED: PROTECTED,
        INVALID: VIOLATION,
        PROTECTED: VIOLATION,
        FREED: VIOLATION,
    },
    "remap": {
        UNKNOWN: MAPPED,
        MAPPED: VIOLATION,
        INVALID: VIOLATION,
        PROTECTED: MAPPED,
        FREED: VIOLATION,
    },
    "unprotect": {
        UNKNOWN: MAPPED,
        MAPPED: VIOLATION,
        INVALID: VIOLATION,
        PROTECTED: MAPPED,
        FREED: VIOLATION,
    },
    "remove": {
        UNKNOWN: FREED,
        MAPPED: FREED,
        INVALID: FREED,
        PROTECTED: VIOLATION,
        FREED: VIOLATION,
    },
    "migrate_page": {
        UNKNOWN: MAPPED,
        MAPPED: MAPPED,
        INVALID: VIOLATION,
        PROTECTED: VIOLATION,
        FREED: VIOLATION,
    },
}

#: Violation explanations, per (op, state).
_WHY = {
    ("invalidate", PROTECTED): (
        "invalidating a write-protected entry abandons an in-flight "
        "migration (remap or unprotect it first)"
    ),
    ("invalidate_page", PROTECTED): (
        "invalidating a write-protected entry abandons an in-flight "
        "migration (remap or unprotect it first)"
    ),
    ("write_protect", INVALID): (
        "write-protecting an invalid entry raises at runtime (populate "
        "it first)"
    ),
    ("write_protect", PROTECTED): "the entry is already write-protected",
    ("write_protect", FREED): "the entry was removed",
    ("remap", MAPPED): (
        "remap requires a write-protected entry (the write-protect -> "
        "copy -> remap ordering)"
    ),
    ("remap", INVALID): "remapping an invalid entry raises at runtime",
    ("remap", FREED): "the entry was removed",
    ("unprotect", MAPPED): "the entry is not write-protected",
    ("unprotect", INVALID): "unprotecting an invalid entry raises at runtime",
    ("unprotect", FREED): "the entry was removed",
    ("remove", PROTECTED): (
        "freeing a write-protected entry mid-migration loses the frame "
        "the protocol still copies from"
    ),
    ("remove", FREED): "double free: the entry was already removed",
    ("migrate_page", INVALID): "migrating an invalid page raises at runtime",
    ("migrate_page", PROTECTED): (
        "the page is already mid-migration (write-protected)"
    ),
    ("migrate_page", FREED): "the entry was removed",
}

StateSet = Set[str]
Env = Dict[str, StateSet]


def _merge(a: Env, b: Env) -> Env:
    out: Env = {}
    for key in set(a) | set(b):
        # A key unseen on one branch may hold any state there: widen
        # with UNKNOWN instead of pretending the other branch's states.
        left = a.get(key, {UNKNOWN})
        right = b.get(key, {UNKNOWN})
        out[key] = set(left) | set(right)
    return out


def _copy(env: Env) -> Env:
    return {k: set(v) for k, v in env.items()}


@register
class P2MTypestateRule(ProjectRule):
    rule_id = "RPR008"
    name = "p2m-typestate"
    description = (
        "Models the p2m entry lifecycle (populate, write-protect, "
        "remap/unprotect, invalidate, remove) as a typestate automaton "
        "and flags call sequences in hypervisor/ and core/policies/ "
        "that violate the migration protocol on every path — the static "
        "complement of the runtime P2M sanitizer."
    )

    def check_project(self, project: ProjectContext) -> List[Finding]:
        findings: List[Finding] = []
        for mod, ctx in project.iter_contexts():
            if not any(seg in SCOPE_SEGMENTS for seg in ctx.parts):
                continue
            for node in ast.walk(ctx.tree):
                if isinstance(node, FuncDef):
                    findings.extend(self._check_function(node, ctx))
        return findings

    # ------------------------------------------------------------------

    def _check_function(
        self, func: ast.AST, ctx: FileContext
    ) -> List[Finding]:
        findings: List[Finding] = []
        env: Env = {}
        self._exec_block(func.body, env, func, ctx, findings)
        return findings

    def _exec_block(
        self,
        stmts: Iterable[ast.stmt],
        env: Env,
        func: ast.AST,
        ctx: FileContext,
        findings: List[Finding],
    ) -> Env:
        for stmt in stmts:
            env = self._exec_stmt(stmt, env, func, ctx, findings)
        return env

    def _exec_stmt(
        self,
        stmt: ast.stmt,
        env: Env,
        func: ast.AST,
        ctx: FileContext,
        findings: List[Finding],
    ) -> Env:
        if isinstance(stmt, ast.If):
            self._apply_calls(stmt.test, env, func, ctx, findings)
            then_env = self._exec_block(
                stmt.body, _copy(env), func, ctx, findings
            )
            else_env = self._exec_block(
                stmt.orelse, _copy(env), func, ctx, findings
            )
            return _merge(then_env, else_env)
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            head = stmt.iter if isinstance(stmt, (ast.For, ast.AsyncFor)) else stmt.test
            self._apply_calls(head, env, func, ctx, findings)
            # Zero iterations keep env; run the body twice (quiet pass
            # first so loop-carried states don't double-report) and
            # merge to reach the two-iteration fixpoint.
            once = self._exec_block(
                stmt.body, _copy(env), func, ctx, findings
            )
            merged = _merge(env, once)
            twice = self._exec_block(stmt.body, _copy(merged), func, ctx, [])
            merged = _merge(merged, twice)
            return self._exec_block(stmt.orelse, merged, func, ctx, findings)
        if isinstance(stmt, ast.Try):
            body_env = self._exec_block(
                stmt.body, _copy(env), func, ctx, findings
            )
            body_env = self._exec_block(
                stmt.orelse, body_env, func, ctx, findings
            )
            merged = body_env
            for handler in stmt.handlers:
                # An exception may fire anywhere in the body: the handler
                # sees either the pre-body or the post-body states.
                handler_env = self._exec_block(
                    handler.body,
                    _merge(_copy(env), body_env),
                    func,
                    ctx,
                    findings,
                )
                merged = _merge(merged, handler_env)
            return self._exec_block(
                stmt.finalbody, merged, func, ctx, findings
            )
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._apply_calls(item.context_expr, env, func, ctx, findings)
            return self._exec_block(stmt.body, env, func, ctx, findings)
        if isinstance(stmt, FuncDef) or isinstance(stmt, ast.ClassDef):
            return env  # nested definitions are separate sequences
        self._apply_calls(stmt, env, func, ctx, findings)
        return env

    # ------------------------------------------------------------------

    def _apply_calls(
        self,
        node: Optional[ast.AST],
        env: Env,
        func: ast.AST,
        ctx: FileContext,
        findings: List[Finding],
    ) -> None:
        if node is None:
            return
        calls = [
            n
            for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr in TRANSITIONS
            and ctx.enclosing_function(n) is func
        ]
        calls.sort(key=lambda c: (c.lineno, c.col_offset))
        for call in calls:
            self._apply_call(call, env, findings, ctx)

    def _key(self, call: ast.Call) -> str:
        assert isinstance(call.func, ast.Attribute)
        receiver = ast.unparse(call.func.value)
        page = ast.unparse(call.args[0]) if call.args else ""
        return f"{receiver}|{page}"

    def _apply_call(
        self,
        call: ast.Call,
        env: Env,
        findings: List[Finding],
        ctx: FileContext,
    ) -> None:
        """Step the automaton over one call; ``env`` is mutated in place."""
        assert isinstance(call.func, ast.Attribute)
        op = call.func.attr
        table = TRANSITIONS[op]
        key = self._key(call)
        states = env.get(key, {UNKNOWN})
        nexts = {table[s] for s in states}
        if VIOLATION in nexts and len(nexts) == 1:
            # Every possible state violates: report, then reset.
            why = sorted(
                {
                    _WHY.get((op, s), "protocol-violating transition")
                    for s in states
                }
            )
            receiver = ast.unparse(call.func.value)
            state_text = "/".join(sorted(states))
            findings.append(
                self.project_finding(
                    ctx.path,
                    call,
                    f"{receiver}.{op}() on a {state_text} entry: "
                    f"{'; '.join(why)}",
                )
            )
            env[key] = {UNKNOWN}
            return
        env[key] = {s for s in nexts if s is not VIOLATION} or {UNKNOWN}
