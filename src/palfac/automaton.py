"""Complete deterministic finite automata: minimization, isomorphism, formats.

Automata here are always complete.  A rejecting absorbing state, when one
exists, is tracked as `dead`; reported "state counts" elsewhere in the
package exclude it unless said otherwise.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

import numpy as np

# D(2,14) (705,836 raw states) peaks at 69 MB, about 102 bytes per raw
# state, through build_direct and minimize (0.3-0.5 s + 0.35-0.5 s), and at
# 409 MB, about 608 bytes, through `palfac build --format json` on the raw
# automaton (3.0-3.6 s, ru_maxrss of a fresh process; 2-vCPU VM, Python
# 3.11), so 4e6 states stay near 2.4 GB: under half of a 7 GB machine
DEFAULT_STATE_BUDGET = 4_000_000
BUDGET_ENV = "PALFAC_STATE_BUDGET"


class CapacityError(RuntimeError):
    """Raised when a construction would exceed the state budget."""


class CertificateError(RuntimeError):
    """An exact check that a reported result rests on did not hold."""


def state_budget() -> int:
    """PALFAC_STATE_BUDGET, or DEFAULT_STATE_BUDGET when it is unset.

    Every budgeted layer reads the budget here and nowhere else.
    """
    env = os.environ.get(BUDGET_ENV)
    if env is None:
        return DEFAULT_STATE_BUDGET
    try:
        if int(env) > 0:
            return int(env)
    except ValueError:
        pass
    raise ValueError(f"{BUDGET_ENV} must be a positive integer, not {env!r}")


class Dfa:
    """A complete DFA over the alphabet {0, ..., alphabet_size - 1}.

    delta is a read-only (n, k) int32 array with delta[q, a] the successor
    of state q under symbol a, and accepting a read-only (n,) bool mask.
    The constructor takes any integer table of that shape and the
    accepting states as an iterable of indices, and keeps copies, so the
    caller's arrays stay as they were.  alphabet_size is
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
        if type(start) is bool or not isinstance(start, (int, np.integer)) or not 0 <= start < n:
            raise ValueError(f"start state {start!r} out of range")
        states = np.asarray(accepting if isinstance(accepting, np.ndarray)
                            else list(accepting))
        if states.size and (states.ndim != 1 or states.dtype.kind not in "iu"
                            or states.min() < 0 or states.max() >= n):
            raise ValueError(f"an accepting state is not one of the {n} states")
        mask = np.zeros(n, dtype=bool)
        mask[states.astype(np.intp)] = True
        self._hold(table.astype(np.int32), int(start), mask)

    @classmethod
    def _adopt(cls, delta: np.ndarray, start: int, accepting: np.ndarray) -> Dfa:
        """A Dfa that holds an int32 table and a bool mask the package has just built.

        Nothing is checked or copied: the arrays become the Dfa's own, made
        read-only, so the caller must keep no other reference to them.
        """
        d = cls.__new__(cls)
        d._hold(delta, start, accepting)
        return d

    def _hold(self, delta: np.ndarray, start: int, accepting: np.ndarray) -> None:
        delta.flags.writeable = False
        accepting.flags.writeable = False
        self.delta, self.start, self.accepting = delta, start, accepting
        rejecting = np.flatnonzero(~accepting)
        loops = (delta[rejecting] == rejecting[:, None]).all(axis=1)
        self.dead = int(rejecting[loops.argmax()]) if loops.any() else None

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


def _rank(key: np.ndarray) -> tuple[np.ndarray, int]:
    """The rank of each key among the distinct keys, as int32; returns (ranks, count).

    The ranks are np.unique's inverse, from one argsort: the sorted keys
    are marked where they change, the marks summed, and the sums
    scattered back to the keys' places.  The keys are dropped once
    sorted, so a caller that passes them as a temporary (refine) gets
    their memory back before the marks are made.
    """
    order = key.argsort()
    key = key.take(order)
    change = np.empty(len(key), dtype=np.int32)
    change[:1] = 0
    np.not_equal(key[1:], key[:-1], out=change[1:])
    del key
    change.cumsum(out=change)
    rank = np.empty_like(change)
    rank[order] = change
    return rank, int(change[-1]) + 1 if len(change) else 0


def refine(block: np.ndarray, count: int, columns) -> tuple[np.ndarray, int]:
    """Split blocks by the blocks found in each column; returns (int32 block ids, count).

    block and every column hold ids below count.  Two rows stay together
    exactly when their tuples (block, column 0, column 1, ...) agree.  The
    tuple is packed into one int64 key in radix count and ranked (_rank)
    only when the next column would push the key past 2**62, so a round
    over k columns ranks once while count**(k+1) fits.  columns may be an
    iterator, so each column can be gathered only when it is packed.
    """
    return _rank(_pack(block, count, columns))


def _pack(block: np.ndarray, count: int, columns) -> np.ndarray:
    """refine's int64 keys, ranked where the next column would pass 2**62."""
    key, size = block.astype(np.int64), count
    for col in columns:
        if size * count > _PACK_LIMIT:
            rank, size = _rank(key)
            key = rank.astype(np.int64)
        key *= count
        key += col
        size *= count
    return key


def stable_partition(block: np.ndarray, count: int, columns) -> tuple[np.ndarray, int]:
    """Refine by columns(block) until a round adds no block; returns (block ids, count).

    Rounds only split blocks, so the partition of that round is the fixpoint.
    """
    while True:
        key, refined = refine(block, count, columns(block))
        if refined == count:
            return block, count
        block, count = key, refined


def _moore(delta: np.ndarray, accepting: np.ndarray) -> tuple[np.ndarray, int]:
    """Moore partition refinement; returns (the int32 block id of each state, count).

    A round splits every block by the blocks of the successors under all
    letters at once, gathering one letter's column at a time.  Each round
    costs O(n k log n), and there is one round more than the longest of
    the shortest words separating two inequivalent states.
    """
    block, count = _rank(accepting)
    return stable_partition(block, count,
                            lambda block: (block[col] for col in delta.T))


def _peel(delta: np.ndarray) -> tuple[list, np.ndarray]:
    """Kahn's layers of the states no cycle reaches, and the rest; returns (layers, core).

    Layer 0 holds the states of in-degree 0, and layer i + 1 the states
    whose last predecessor lies in layer i, so every successor of a layer
    lies in a later layer or in the core.  The in-degrees come from one
    bincount, counted in units above any position in a layer's successor
    list, and each layer lowers its successors'.  A freed state's count
    is then 0 and every other's at least one unit, so tagging the
    successor positions 1, 2, ... by a maximum leaves each freed state
    the tag of exactly one of its positions, and no other state a tag.
    """
    unit = delta.size + 1
    indeg = np.bincount(delta.ravel(), minlength=len(delta))
    indeg *= unit
    layer, layers = np.flatnonzero(indeg == 0), []
    while layer.size:
        layers.append(layer)
        succ = delta.take(layer, axis=0).ravel()
        np.subtract.at(indeg, succ, unit)
        tag = np.arange(1, succ.size + 1)
        np.maximum.at(indeg, succ, tag)
        layer = succ[indeg.take(succ) == tag]
    return layers, np.flatnonzero(indeg >= unit).astype(np.int32)


class _Signatures:
    """Class ids for (acceptance, successor classes) signatures, kept across batches.

    A class's id is the index of one of its states, so every id lies below
    `radix`, the state count.  A signature is packed into int64 keys as
    `refine` packs a row, in that radix, acceptance first.  Where the next
    column would push a key past 2**62, a new stage starts from the key's
    id among the keys that stage has seen, so each stage keeps its own
    table, and the last stage's ids are the class ids.  A table holds its
    keys ascending, ending in a sentinel above every key, and beside them
    the id of each; of equal keys the first one's id is the key's.
    """

    def __init__(self, radix: int, k: int):
        groups, size = [[]], 2
        for a in range(k):
            if size * radix > _PACK_LIMIT:
                groups.append([])
                size = radix
            groups[-1].append(a)
            size *= radix
        # a stage's key is the key it starts from times shift, plus succ @ weights
        self.stages = []
        for group in groups:
            weights = np.zeros(k, dtype=np.int64)
            weights[group] = radix ** np.arange(len(group) - 1, -1, -1, dtype=np.int64)
            self.stages.append((radix ** len(group), weights, [np.array([_PACK_LIMIT]), np.array([-1])]))

    def classify(self, states: np.ndarray, accepting: np.ndarray, succ: np.ndarray) -> np.ndarray:
        """The class id of each state from its acceptance and its successors' class ids.

        A signature not seen before opens a class whose id is the first of
        these states that has it.
        """
        key = accepting
        for shift, weights, table in self.stages:
            key = _ids(table, key * shift + succ @ weights, states)
        return key


def _ids(table: list, key: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The id of each key in a _Signatures table; a key not in it is added under its first state."""
    keys, ids = table
    at = keys.searchsorted(key)
    new = keys.take(at) != key
    fresh = key[new]
    if not fresh.size:
        return ids.take(at)
    # two ascending runs: a stable sort merges them in linear time and
    # keeps the first of equal fresh keys first
    merged = np.concatenate((keys, fresh))
    order = merged.argsort(kind="stable")
    table[0] = keys = merged.take(order)
    table[1] = ids = np.concatenate((ids, states[new])).take(order)
    return ids.take(keys.searchsorted(key))


def _classes(delta: np.ndarray, accepting: np.ndarray) -> np.ndarray:
    """The class of every state, named by one of its states (an int32 index).

    Moore refines the core (_peel) first, and each core class is named by
    one member.  The core classes' signatures are distinct, so classifying
    those members opens the signature table (_Signatures) with one class
    each, under the same names.  The peeled layers follow in reverse order.
    """
    n, k = delta.shape
    layers, core = _peel(delta)
    # Moore on the core sets the memory peak: hold only its sub-table and
    # a mask of the core then
    local = np.empty(n, dtype=np.int32)
    local[core] = np.arange(len(core))
    sub = local[delta[core]]
    del local
    incore = np.zeros(n, dtype=bool)
    incore[core] = True
    del core
    block, count = _moore(sub, accepting[incore])
    del sub
    core = np.flatnonzero(incore)
    rep = np.empty(count, dtype=np.intp)
    rep[block] = core
    cls = np.empty(n, dtype=np.int32)
    cls[core] = rep[block]
    signatures = _Signatures(n, k)
    for states in [rep, *reversed(layers)]:
        cls[states] = signatures.classify(states, accepting.take(states), cls.take(delta.take(states, axis=0)))
    return cls


def _canonical(delta: np.ndarray, start: int, accepting: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The states reachable from start renumbered breadth-first, symbols ascending.

    Returns (the int32 table, the bool accepting mask) over the new
    numbers.  One level at a time: the next level's candidates are the
    level's successors in (parent position, letter) order, and the
    unnumbered ones take the next numbers in order of first occurrence,
    which is exactly the numbering of a FIFO queue.  An unnumbered state
    holds the least int32, below the negative tags -1, -2, ... that a
    maximum gives the candidates' positions, so it keeps the tag of its
    first position, and a numbered state keeps its number.
    """
    number = np.full(len(delta), -1 << 31, dtype=np.int32)
    number[start] = 0
    level, levels, count = np.array([start]), [], 1
    while level.size:
        levels.append(level)
        cand = delta.take(level, axis=0).ravel()
        tag = np.arange(-1, -1 - cand.size, -1, dtype=np.int32)
        np.maximum.at(number, cand, tag)
        level = cand[number.take(cand) == tag]
        number[level] = np.arange(count, count + level.size, dtype=np.int32)
        count += level.size
    seq = np.concatenate(levels)
    return number.take(delta.take(seq, axis=0)), accepting.take(seq)


def minimize(d: Dfa) -> Dfa:
    """The unique minimal complete DFA for L(d), canonically numbered.

    Equivalence does not depend on reachability, so every state is
    classified, and the canonical renumbering from the start's class drops
    the classes no word reaches.  The classification follows Revuz
    (Minimisation of acyclic deterministic automata in linear time, TCS
    92, 1992) on the acyclic prefix:

    - _peel removes, in Kahn's layers, the states that no cycle reaches.
      What is left, the core, is closed under successors (a successor of a
      core state keeps an in-edge from the core), so the futures of core
      states stay in the core, and Moore on the core's sub-table gives the
      Nerode classes of its states.
    - Two states are equivalent exactly when they agree on acceptance and
      their successors under each letter are equivalent.  In the coarsest
      stable partition no two classes share such a signature, so the core
      classes' signatures are distinct.
    - The layers are classified in reverse Kahn order, in which every
      successor of a layer is already classified.  A state whose signature
      is known joins that class, and each signature not seen before opens
      one new class, so every Nerode class gets exactly one id.

    Moore's rounds thus touch only the core, and each peeled state is keyed
    once.  Every call certifies the result: on every state q, acceptance
    and each letter's successor class agree with those of q's class's
    named member, so the class map is a homomorphism onto the quotient and
    L(result) = L(d) exactly.  Where they do not agree, CertificateError
    is raised.
    """
    cls = _classes(d.delta, d.accepting)
    table = cls.take(d.delta)
    if not ((d.accepting.take(cls) == d.accepting).all()
            and (table.take(cls, axis=0) == table).all()):
        raise CertificateError("a class of the minimized automaton is not a congruence class")
    delta, accepting = _canonical(table, int(cls[d.start]), d.accepting)
    return Dfa._adopt(delta, 0, accepting)


def isomorphic(a: Dfa, b: Dfa) -> bool:
    """Whether two minimized DFAs are the same up to renumbering."""
    if a.alphabet_size != b.alphabet_size or a.state_count != b.state_count:
        return False
    ta, fa = _canonical(a.delta, a.start, a.accepting)
    tb, fb = _canonical(b.delta, b.start, b.accepting)
    return np.array_equal(ta, tb) and np.array_equal(fa, fb)


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


def _hold_to_budget(rows: int, k: int, what: str = "table") -> None:
    budget = state_budget()
    if rows * k > 2 * budget:
        raise CapacityError(f"a {rows} x {k} {what} exceeds twice the state budget of {budget}")


def import_dfa(text: str, fmt: str = "grail") -> Dfa:
    """Parse an automaton; partial transition tables are completed with a dead state.

    The JSON "alphabet" and "dead" fields, when present, must agree with
    what the table gives.  A table with more entries than a binary
    automaton at state_budget() raises CapacityError, checked before the
    table is built: a JSON table by its rows times its longest row, a
    grail table by every state id and symbol up to the largest named.
    JSON booleans are not state numbers.
    """
    if fmt == "json":
        payload = json.loads(text)
        if not (isinstance(payload, dict) and "start" in payload
                and all(isinstance(payload.get(key), list) for key in ("delta", "accepting"))):
            raise FormatError("a JSON automaton needs a delta list, a start and an accepting list")
        delta = payload["delta"]
        _hold_to_budget(len(delta), max((len(row) for row in delta if isinstance(row, list)),
                                        default=0))
        if any(isinstance(t, bool) for row in delta if isinstance(row, list) for t in row):
            raise FormatError("a transition is a state number, not a boolean")
        d = Dfa(delta, payload["start"], payload["accepting"])
        for key, value in (("alphabet", d.alphabet_size), ("dead", d.dead)):
            if key in payload and payload[key] != value:
                raise FormatError(f"{key} is {payload[key]!r} but the table gives {value!r}")
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
    _hold_to_budget(n + (not complete), k)
    delta = [[trans.get((q, a), n) for a in range(k)] for q in range(n)]
    if not complete:
        delta.append([n] * k)
    return Dfa(delta, start, accepting)
