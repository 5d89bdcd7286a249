"""Complete deterministic finite automata: minimization, isomorphism, formats.

Automata here are always complete.  A rejecting absorbing state, when one
exists, is tracked as `dead`; reported "state counts" elsewhere in the
package exclude it unless said otherwise.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import chain
from typing import Iterable

import numpy as np

from .words import Word


class Dfa:
    """A complete DFA over the alphabet {0, ..., alphabet_size - 1}.

    delta[q][a] is the successor of state q under symbol a.  `dead`, when
    not None, must be non-accepting with every transition a self-loop.
    """

    __slots__ = ("delta", "start", "accepting", "dead", "alphabet_size")

    def __init__(self, delta, start: int, accepting: Iterable[int],
                 dead: int | None = None, alphabet_size: int | None = None):
        delta = tuple(tuple(row) for row in delta)
        n = len(delta)
        if alphabet_size is None:
            alphabet_size = len(delta[0]) if n else 0
        accepting = frozenset(accepting)
        if not (0 <= start < n):
            raise ValueError(f"start state {start} out of range")
        for q, row in enumerate(delta):
            if len(row) != alphabet_size:
                raise ValueError(f"state {q} has {len(row)} transitions, want {alphabet_size}")
            for t in row:
                if not (0 <= t < n):
                    raise ValueError(f"transition {q} -> {t} out of range")
        if dead is not None:
            if dead in accepting:
                raise ValueError("dead state must be rejecting")
            if any(t != dead for t in delta[dead]):
                raise ValueError("dead state transitions must self-loop")
        self.delta = delta
        self.start = start
        self.accepting = accepting
        self.dead = dead
        self.alphabet_size = alphabet_size

    @property
    def state_count(self) -> int:
        return len(self.delta)

    def live_state_count(self) -> int:
        """States excluding the dead state — the count conventions use this."""
        return len(self.delta) - (1 if self.dead is not None else 0)

    def run(self, q: int, w) -> int:
        delta = self.delta
        for a in _symbols(w):
            q = delta[q][a]
        return q

    def accepts(self, w) -> bool:
        return self.run(self.start, w) in self.accepting

    def __eq__(self, other) -> bool:
        return (isinstance(other, Dfa)
                and self.delta == other.delta
                and self.start == other.start
                and self.accepting == other.accepting
                and self.dead == other.dead)

    def __hash__(self):
        return hash((self.delta, self.start, self.accepting, self.dead))

    def __repr__(self):
        return (f"Dfa(states={self.state_count}, alphabet={self.alphabet_size}, "
                f"accepting={len(self.accepting)}, dead={self.dead})")


def _symbols(w) -> tuple[int, ...]:
    if isinstance(w, Word):
        return w.symbols
    return tuple(w)


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


def _moore(delta: np.ndarray, accepting: np.ndarray) -> np.ndarray:
    """Moore partition refinement; returns the block id of each state.

    A round splits every block by the blocks of the successors under all
    letters at once (see refine).  Rounds refine, so the first round that
    adds no block ends the loop.  Each round costs O(n k log n), and there
    is one round more than the longest of the shortest words separating
    two inequivalent states.
    """
    ids, block = np.unique(accepting, return_inverse=True)
    count = len(ids)
    while True:
        key, refined = refine(block, count, block[delta].T)
        if refined == count:
            return block
        block, count = key, refined


def _canonical_renumber(delta, k: int, start: int, accepting) -> tuple:
    """BFS renumbering from the start with ascending symbols; returns the new parts."""
    order = {start: 0}
    seq = [start]
    queue = deque((start,))
    while queue:
        q = queue.popleft()
        for a in range(k):
            t = delta[q][a]
            if t not in order:
                order[t] = len(order)
                seq.append(t)
                queue.append(t)
    new_delta = tuple(tuple(order[delta[q][a]] for a in range(k)) for q in seq)
    new_accepting = frozenset(order[q] for q in accepting if q in order)
    return new_delta, 0, new_accepting


def _find_dead(delta, accepting) -> int | None:
    cands = [q for q, row in enumerate(delta)
             if q not in accepting and all(t == q for t in row)]
    return cands[0] if cands else None


def minimize(d: Dfa) -> Dfa:
    """The unique minimal complete DFA for L(d), canonically numbered.

    Equivalence does not depend on reachability, so the whole automaton is
    refined and the canonical renumbering from the start block drops the
    blocks no word reaches.
    """
    k = d.alphabet_size
    n = d.state_count
    delta = np.fromiter(chain.from_iterable(d.delta), dtype=np.int64,
                        count=n * k).reshape(n, k)
    accepting = np.zeros(n, dtype=bool)
    accepting[list(d.accepting)] = True

    block = _moore(delta, accepting)
    _, rep = np.unique(block, return_index=True)
    mdelta = block[delta[rep]].tolist()
    maccept = set(block[accepting].tolist())
    cdelta, cstart, caccept = _canonical_renumber(mdelta, k, int(block[d.start]), maccept)
    dead = _find_dead(cdelta, caccept)
    return Dfa(cdelta, cstart, caccept, dead, k)


def isomorphic(a: Dfa, b: Dfa) -> bool:
    """Whether two minimized DFAs are the same up to renumbering."""
    if a.alphabet_size != b.alphabet_size or a.state_count != b.state_count:
        return False
    ka = _canonical_renumber(a.delta, a.alphabet_size, a.start, a.accepting)
    kb = _canonical_renumber(b.delta, b.alphabet_size, b.start, b.accepting)
    return ka == kb


def export_dfa(d: Dfa, fmt: str = "grail") -> str:
    if fmt == "grail":
        lines = [f"(START) |- {d.start}"]
        for q, row in enumerate(d.delta):
            for a, t in enumerate(row):
                lines.append(f"{q} {a} {t}")
        for q in sorted(d.accepting):
            lines.append(f"{q} -| (FINAL)")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "states": d.state_count,
            "alphabet": d.alphabet_size,
            "start": d.start,
            "accepting": sorted(d.accepting),
            "dead": d.dead,
            "delta": [list(row) for row in d.delta],
        }
        return json.dumps(payload, indent=1) + "\n"
    if fmt == "dot":
        lines = ["digraph dfa {", "  rankdir=LR;", '  hidden [shape=none, label=""];']
        for q in range(d.state_count):
            if q == d.dead:
                continue
            shape = "doublecircle" if q in d.accepting else "circle"
            lines.append(f"  {q} [shape={shape}];")
        lines.append(f"  hidden -> {d.start};")
        edges: dict[tuple[int, int], list[int]] = {}
        for q, row in enumerate(d.delta):
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


def import_dfa(text: str, fmt: str = "grail") -> Dfa:
    """Parse an automaton; partial transition tables are completed with a dead state."""
    if fmt == "json":
        payload = json.loads(text)
        return Dfa(payload["delta"], payload["start"], payload["accepting"],
                   payload.get("dead"), payload["alphabet"])
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
            if (q, a) in trans and trans[(q, a)] != t:
                raise FormatError(f"line {lineno}: nondeterministic transition from {q} on {a}")
            trans[(q, a)] = t
            states.update((q, t))
            max_symbol = max(max_symbol, a)
        else:
            raise FormatError(f"line {lineno}: unrecognized line {line!r}")
    if start is None:
        raise FormatError("no start state")
    k = max_symbol + 1
    if k == 0:
        raise FormatError("no transitions; alphabet size unknown")
    n = max(states) + 1
    missing = any((q, a) not in trans for q in range(n) for a in range(k))
    dead = None
    if missing:
        dead = n
        n += 1
    delta = [[trans.get((q, a), dead) for a in range(k)] for q in range(n)]
    if dead is not None:
        delta[dead] = [dead] * k
    found = _find_dead(tuple(tuple(r) for r in delta), accepting)
    return Dfa(delta, start, accepting, found, k)
