"""Complete deterministic finite automata: minimization, isomorphism, formats.

Automata here are always complete.  A rejecting absorbing state, when one
exists, is tracked as `dead`; reported "state counts" elsewhere in the
package exclude it unless said otherwise.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Iterable

import numpy as np

# D(2,14) peaks at about 330 bytes per raw state through build_direct and
# minimize, and about 635 through `palfac build --format json` on the raw
# automaton, so 4e6 states stay near 2.5 GB: under half of a 7 GB machine
DEFAULT_STATE_BUDGET = 4_000_000
BUDGET_ENV = "PALFAC_STATE_BUDGET"


class CapacityError(RuntimeError):
    """Raised when a construction would exceed the state budget."""


def state_budget() -> int:
    env = os.environ.get(BUDGET_ENV)
    return int(env) if env else DEFAULT_STATE_BUDGET


class Dfa:
    """A complete DFA over the alphabet {0, ..., alphabet_size - 1}.

    delta is a read-only (n, k) int32 array with delta[q, a] the successor
    of state q under symbol a, and accepting a read-only (n,) bool mask.
    The constructor takes any integer table of that shape and the
    accepting states as an iterable of indices.  alphabet_size is
    delta.shape[1], and dead is the first rejecting state whose
    transitions all self-loop, or None.
    """

    __slots__ = ("delta", "start", "accepting", "dead")

    def __init__(self, delta, start: int, accepting: Iterable[int]):
        # checked in the input's own dtype: a cast first would overflow
        table = np.asarray(delta)
        if table.ndim != 2 or table.size and table.dtype.kind not in "iu":
            raise ValueError("transitions must be an (n, k) table of integers")
        n = len(table)
        if table.size and (table.min() < 0 or table.max() >= n):
            raise ValueError(f"a transition leaves the {n} states")
        if not isinstance(start, (int, np.integer)) or not 0 <= start < n:
            raise ValueError(f"start state {start!r} out of range")
        states = np.asarray(accepting if isinstance(accepting, np.ndarray)
                            else list(accepting))
        if states.size and (states.ndim != 1 or states.dtype.kind not in "iu"
                            or states.min() < 0 or states.max() >= n):
            raise ValueError(f"an accepting state is not one of the {n} states")
        mask = np.zeros(n, dtype=bool)
        mask[states.astype(np.intp)] = True
        self.delta = table.astype(np.int32)
        self.delta.flags.writeable = False
        mask.flags.writeable = False
        self.accepting = mask
        self.start = int(start)
        loops = ~mask & (self.delta == np.arange(n)[:, None]).all(axis=1)
        self.dead = int(loops.argmax()) if loops.any() else None

    @property
    def alphabet_size(self) -> int:
        return self.delta.shape[1]

    @property
    def state_count(self) -> int:
        return len(self.delta)

    def live_state_count(self) -> int:
        """States excluding the dead state — the count conventions use this."""
        return len(self.delta) - (1 if self.dead is not None else 0)

    def run(self, q: int, w) -> int:
        delta = self.delta
        for a in w:
            q = delta[q, a]
        return int(q)

    def accepts(self, w) -> bool:
        return bool(self.accepting[self.run(self.start, w)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Dfa)
                and np.array_equal(self.delta, other.delta)
                and self.start == other.start
                and np.array_equal(self.accepting, other.accepting))

    def __hash__(self):
        return hash((self.delta.tobytes(), self.alphabet_size, self.start,
                     self.accepting.tobytes()))

    def __repr__(self):
        return (f"Dfa(states={self.state_count}, alphabet={self.alphabet_size}, "
                f"accepting={int(self.accepting.sum())}, dead={self.dead})")


_PACK_LIMIT = 1 << 62


def refine(block: np.ndarray, count: int, columns) -> tuple[np.ndarray, int]:
    """Split blocks by the blocks found in each column; returns (block ids, count).

    block and every column hold ids below count.  Two rows stay together
    exactly when their tuples (block, column 0, column 1, ...) agree.  The
    tuple is packed into one int64 key in radix count and re-ranked with
    np.unique only when the next column would push the key past 2**62, so
    a round over k columns needs one np.unique while count**(k+1) fits.
    """
    key, size = block, count
    for col in columns:
        if size * count > _PACK_LIMIT:
            ids, key = np.unique(key, return_inverse=True)
            size = len(ids)
        key = key * count + col
        size *= count
    ids, key = np.unique(key, return_inverse=True)
    return key, len(ids)


def stable_partition(block: np.ndarray, count: int, columns) -> tuple[np.ndarray, int]:
    """Refine by columns(block) until a round adds no block; returns (block ids, count).

    Rounds only split blocks, so the partition of that round is the fixpoint.
    """
    while True:
        key, refined = refine(block, count, columns(block))
        if refined == count:
            return block, count
        block, count = key, refined


def _moore(delta: np.ndarray, accepting: np.ndarray) -> np.ndarray:
    """Moore partition refinement; returns the block id of each state.

    A round splits every block by the blocks of the successors under all
    letters at once.  Each round costs O(n k log n), and there is one
    round more than the longest of the shortest words separating two
    inequivalent states.
    """
    ids, block = np.unique(accepting, return_inverse=True)
    return stable_partition(block, len(ids), lambda block: block[delta].T)[0]


def _canonical_renumber(delta: list, start: int, accepting) -> tuple[list, list]:
    """BFS renumbering from the start with ascending symbols; accepting is a mask."""
    order = {start: 0}
    seq = [start]
    queue = deque((start,))
    while queue:
        for t in delta[queue.popleft()]:
            if t not in order:
                order[t] = len(order)
                seq.append(t)
                queue.append(t)
    new_delta = [[order[t] for t in delta[q]] for q in seq]
    return new_delta, [order[q] for q in seq if accepting[q]]


def minimize(d: Dfa) -> Dfa:
    """The unique minimal complete DFA for L(d), canonically numbered.

    Equivalence does not depend on reachability, so the whole automaton is
    refined and the canonical renumbering from the start block drops the
    blocks no word reaches.
    """
    block = _moore(d.delta, d.accepting)
    _, rep = np.unique(block, return_index=True)
    delta, accepting = _canonical_renumber(block[d.delta[rep]].tolist(), int(block[d.start]),
                                           d.accepting[rep])
    return Dfa(delta, 0, accepting)


def isomorphic(a: Dfa, b: Dfa) -> bool:
    """Whether two minimized DFAs are the same up to renumbering."""
    if a.alphabet_size != b.alphabet_size or a.state_count != b.state_count:
        return False
    return (_canonical_renumber(a.delta.tolist(), a.start, a.accepting)
            == _canonical_renumber(b.delta.tolist(), b.start, b.accepting))


def export_dfa(d: Dfa, fmt: str = "grail") -> str:
    delta = d.delta.tolist()
    accepting = np.flatnonzero(d.accepting).tolist()
    if fmt == "grail":
        lines = [f"(START) |- {d.start}"]
        for q, row in enumerate(delta):
            for a, t in enumerate(row):
                lines.append(f"{q} {a} {t}")
        for q in accepting:
            lines.append(f"{q} -| (FINAL)")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "states": d.state_count,
            "alphabet": d.alphabet_size,
            "start": d.start,
            "accepting": accepting,
            "dead": d.dead,
            "delta": delta,
        }
        return json.dumps(payload, indent=1) + "\n"
    if fmt == "dot":
        lines = ["digraph dfa {", "  rankdir=LR;", '  hidden [shape=none, label=""];']
        for q in range(d.state_count):
            if q == d.dead:
                continue
            shape = "doublecircle" if d.accepting[q] else "circle"
            lines.append(f"  {q} [shape={shape}];")
        lines.append(f"  hidden -> {d.start};")
        edges: dict[tuple[int, int], list[int]] = {}
        for q, row in enumerate(delta):
            if q == d.dead:
                continue
            for a, t in enumerate(row):
                if t == d.dead:
                    continue
                edges.setdefault((q, t), []).append(a)
        for (q, t), syms in sorted(edges.items()):
            label = ",".join(str(a) for a in syms)
            lines.append(f'  {q} -> {t} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r} (want grail, json, or dot)")


class FormatError(ValueError):
    """Raised for malformed or nondeterministic automaton descriptions."""


def _hold_to_budget(rows: int, k: int, budget: int) -> None:
    if rows * k > 2 * budget:
        raise CapacityError(f"a {rows} x {k} table exceeds twice the state budget of {budget}")


def import_dfa(text: str, fmt: str = "grail", budget: int | None = None) -> Dfa:
    """Parse an automaton; partial transition tables are completed with a dead state.

    The JSON "alphabet" and "dead" fields, when present, must agree with
    what the table gives.  A table with more entries than a binary
    automaton at the state budget (state_budget() unless given) raises
    CapacityError.  A grail table spans every state id and symbol up to
    the largest named, so it is checked before it is built.
    """
    if budget is None:
        budget = state_budget()
    if fmt == "json":
        payload = json.loads(text)
        if not (isinstance(payload, dict) and "start" in payload
                and all(isinstance(payload.get(key), list) for key in ("delta", "accepting"))):
            raise FormatError("a JSON automaton needs a delta list, a start and an accepting list")
        d = Dfa(payload["delta"], payload["start"], payload["accepting"])
        for key, value in (("alphabet", d.alphabet_size), ("dead", d.dead)):
            if key in payload and payload[key] != value:
                raise FormatError(f"{key} is {payload[key]!r} but the table gives {value!r}")
        _hold_to_budget(*d.delta.shape, budget)
        return d
    if fmt != "grail":
        raise ValueError(f"unknown format {fmt!r} (want grail or json)")

    start = None
    accepting = set()
    trans: dict[tuple[int, int], int] = {}
    states = set()
    max_symbol = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "(START)":
            if len(parts) != 3 or parts[1] != "|-":
                raise FormatError(f"line {lineno}: malformed start line")
            if start is not None:
                raise FormatError(f"line {lineno}: multiple start states")
            start = int(parts[2])
            states.add(start)
        elif len(parts) == 3 and parts[1] == "-|":
            if parts[2] != "(FINAL)":
                raise FormatError(f"line {lineno}: malformed final line")
            q = int(parts[0])
            accepting.add(q)
            states.add(q)
        elif len(parts) == 3:
            q, a, t = int(parts[0]), int(parts[1]), int(parts[2])
            if a < 0:
                raise FormatError(f"line {lineno}: negative symbol {a}")
            if (q, a) in trans and trans[(q, a)] != t:
                raise FormatError(f"line {lineno}: nondeterministic transition from {q} on {a}")
            trans[(q, a)] = t
            states.update((q, t))
            max_symbol = max(max_symbol, a)
        else:
            raise FormatError(f"line {lineno}: unrecognized line {line!r}")
    if start is None:
        raise FormatError("no start state")
    if min(states) < 0:
        raise FormatError(f"negative state id {min(states)}")
    k = max_symbol + 1
    if k == 0:
        raise FormatError("no transitions; alphabet size unknown")
    n = max(states) + 1
    complete = len(trans) == n * k  # otherwise state n completes the table
    _hold_to_budget(n + (not complete), k, budget)
    delta = [[trans.get((q, a), n) for a in range(k)] for q in range(n)]
    if not complete:
        delta.append([n] * k)
    return Dfa(delta, start, accepting)
