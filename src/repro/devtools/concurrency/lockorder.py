"""lock-order pass: the static lock-acquisition graph must be acyclic.

The pass builds the may-acquire edge set: an edge ``A -> B`` means some
code path acquires lock ``B`` while already holding lock ``A`` --
either a lexically nested ``with``, or a call made under ``A`` into a
function that (transitively, via the typed call graph) acquires ``B``.
Any cycle in that graph is a potential deadlock and an ERROR; each
reported cycle carries a witness chain for one of its edges.

Re-acquiring a *non-reentrant* ``threading.Lock`` while already holding
it (``A -> A`` on a plain Lock) is a guaranteed single-thread deadlock
and is reported separately; RLocks are exempt from self-edges.
"""

from __future__ import annotations

from repro.devtools.concurrency.framework import CODE_PASSES, CodeIssue
from repro.devtools.concurrency.model import ProjectModel
from repro.passkit import Severity

PASS_NAME = "lock-order"


def static_lock_graph(
    model: ProjectModel,
) -> dict[tuple[str, str], tuple[str, int, str]]:
    """``(held, acquired) -> (file, line, witness)`` over the whole model.

    Witnesses for call-mediated edges include the resolved call chain
    from the fixpoint, e.g. ``plan -> _evaluate -> autotune (...)``.
    """
    edges: dict[tuple[str, str], tuple[str, int, str]] = {}
    may_acquire = model.may_acquire()
    for fn in model.all_functions():
        # Direct lexical nesting.
        for acq in fn.acquisitions:
            for held in acq.held:
                edges.setdefault(
                    (held.label, acq.label),
                    (acq.file, acq.line, f"{fn.qualname} (nested with)"),
                )
        # Calls made under a lock into code that may acquire more locks.
        for call in fn.calls:
            if not call.held:
                continue
            for callee in model.resolve_call(call, fn):
                for label, witness in may_acquire.get(
                    callee.qualname, {}
                ).items():
                    for held in call.held:
                        edges.setdefault(
                            (held.label, label),
                            (call.file, call.line, witness),
                        )
    return edges


def _find_cycles(edges: set[tuple[str, str]]) -> list[list[str]]:
    """Elementary cycles in a small digraph (DFS; fine at this scale)."""
    graph: dict[str, list[str]] = {}
    for a, b in edges:
        graph.setdefault(a, []).append(b)
    cycles: list[list[str]] = []
    seen_cycles: set[tuple[str, ...]] = set()

    def dfs(node: str, path: list[str], on_path: set[str]) -> None:
        for nxt in graph.get(node, ()):
            if nxt in on_path:
                i = path.index(nxt)
                cycle = path[i:]
                # Canonical rotation for dedup.
                k = cycle.index(min(cycle))
                canon = tuple(cycle[k:] + cycle[:k])
                if canon not in seen_cycles:
                    seen_cycles.add(canon)
                    cycles.append(list(canon))
            elif nxt not in visited_global:
                dfs(nxt, path + [nxt], on_path | {nxt})

    visited_global: set[str] = set()
    for start in sorted(graph):
        if start not in visited_global:
            dfs(start, [start], {start})
            visited_global.add(start)
    return cycles


@CODE_PASSES.register(
    PASS_NAME,
    description="static lock-acquisition graph is acyclic (no deadlocks)",
    category="concurrency",
)
def check_lock_order(model: ProjectModel) -> list[CodeIssue]:
    issues: list[CodeIssue] = []
    edges = static_lock_graph(model)
    # Self-reacquisition of a non-reentrant Lock: certain deadlock.
    for (a, b), (file, line, witness) in sorted(edges.items()):
        if a == b and model.lock_kind(a) != "RLock":
            issues.append(
                CodeIssue(
                    PASS_NAME,
                    f"non-reentrant lock {a} may be re-acquired while "
                    f"already held (via {witness})",
                    severity=Severity.ERROR,
                    file=file,
                    line=line,
                    symbol=a,
                )
            )
    cross = {(a, b) for (a, b) in edges if a != b}
    for cycle in _find_cycles(cross):
        pair = (cycle[0], cycle[1 % len(cycle)])
        file, line, witness = edges.get(pair, (None, None, ""))
        order = " -> ".join(cycle + [cycle[0]])
        issues.append(
            CodeIssue(
                PASS_NAME,
                f"lock-order cycle {order} (edge witness: {witness})",
                severity=Severity.ERROR,
                file=file,
                line=line,
                symbol=cycle[0],
            )
        )
    return issues
