"""Lollipop search: rotations, the pruned active-set closure, and the outer loop.

A lollipop is a path grafted onto a cycle at one vertex.  Rotating the cycle's
spanning paths turns new vertices into path ends ("active" vertices); whenever
an active end sees a neighbor off the cycle the lollipop strictly improves, and
when no end does, every active vertex has its whole neighborhood on the cycle.
That dichotomy is what the outer loop rides until it can emit a cycle carrying
many high-degree vertices, hence many chords.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import compress

from .errors import (
    ClosureShortfall,
    InternalInvariantError,
    PreconditionError,
    ValidationError,
)
from .graph import Graph, check_cycle, check_path, chords_of_cycle, edge


@dataclass(frozen=True)
class Lollipop:
    """A path p_1..p_s grafted onto a cycle c_1..c_t at p_s = c_1."""

    path: tuple
    cycle: tuple


SEEDS = ("forward", "backward")


def seed_path(cycle, orientation) -> tuple:
    """The spanning path a seed orientation names: "forward" runs
    c_1, c_2, ..., c_t and "backward" runs c_1, c_t, ..., c_2."""
    cycle = tuple(cycle)
    if orientation == "forward":
        return cycle
    if orientation == "backward":
        return cycle[:1] + cycle[:0:-1]
    raise ValidationError(f"unknown seed orientation {orientation!r}")


def _seed_end(cycle, orientation):
    return cycle[-1] if orientation == "forward" else cycle[1]


# A rotation with its pivot at position i flips the path's tail, moving each
# position p > i to t + i - p (an involution).  A witness's positions are its
# seed's positions pushed through the flips of its steps, oldest first.

def _position(c, t, forward, flips) -> int:
    """Position, in the path, of the cycle vertex with cycle index c."""
    p = c if forward else -c % t
    for i in flips:
        if p > i:
            p = t + i - p
    return p


def _cycle_slot(p, t, forward, flips) -> int:
    """Cycle index of the vertex at path position p."""
    for i in reversed(flips):
        if p > i:
            p = t + i - p
    return p if forward else -p % t


def _materialise(cycle, orientation, flips) -> tuple:
    seq = seed_path(cycle, orientation)
    if flips:
        seq = list(seq)
        for i in flips:
            seq[i + 1:] = seq[:i:-1]
        seq = tuple(seq)
    return seq


def _replay_steps(cycle, index, orientation, derivation, flips):
    """Check that each ((u, v), w) step fits the path, and yield it as
    (u, v, w, cycle index of v, cycle index of w).

    A step fits when u is the current end, v is a path vertex that is neither
    the end nor its predecessor (so uv is a chord of the path), and w is v's
    successor.  Each pivot position is appended to flips.
    """
    t = len(cycle)
    forward = orientation == "forward"
    end = _seed_end(cycle, orientation)
    for (u, v), w in derivation:
        if u != end:
            raise ValidationError(f"derivation expects end {u}, path ends at {end}")
        cv = index.get(v)
        if cv is None:
            raise ValidationError(f"pivot {v} is not on the path")
        p = _position(cv, t, forward, flips)
        if p >= t - 2:
            raise ValidationError(f"({u}, {v}) is a path edge or endpoint, not a chord")
        cw = _cycle_slot(p + 1, t, forward, flips)
        if cycle[cw] != w:
            raise ValidationError(f"derivation step ({u}, {v}) -> {w} does not fit the path")
        flips.append(p)
        end = w
        yield u, v, w, cv, cw


class WitnessPath:
    """A spanning path of the cycle's vertices, kept as its rotation pedigree.

    `WitnessPath(cycle, orientation, derivation=(), claimed=None)`: the root
    is a seed, one of the two orientations of the cycle c_1..c_t (see
    `seed_path`), and each step ((u, v), w) of the derivation pivots the
    path ending at u at chord uv and breaks the cycle edge v--w, so the
    segment after v flips and w becomes the end.  Each witness stores its
    derivation.  The closure builds one as its parent's plus one step, with
    the steps' pivot positions in `flips`; one built from a stated derivation
    replays it to them on first use.  `_position` and `_cycle_slot` compose
    at most depth flips over the cycle index, so they cost O(depth), not
    O(t), and no witness stores its path.  `sequence` materialises it on
    first use.  `claimed` is a path the witness states as its own, if any;
    the closure audit checks it against the replay of seed and derivation.
    """

    __slots__ = ("cycle", "orientation", "derivation", "end", "claimed",
                 "_flips", "_sequence")

    def __init__(self, cycle, orientation, derivation=(), claimed=None):
        if orientation not in SEEDS:
            raise ValidationError(f"unknown seed orientation {orientation!r}")
        if len(cycle) < 3:
            raise ValidationError("a witness's cycle needs at least 3 vertices")
        self.cycle = cycle if isinstance(cycle, tuple) else tuple(cycle)
        self.orientation = orientation
        self.derivation = tuple(derivation)
        self._flips = None if self.derivation else ()
        self._sequence = None
        self.claimed = None if claimed is None else tuple(claimed)
        self.end = self.derivation[-1][1] if self.derivation else _seed_end(cycle, orientation)

    def _child(self, step, pivot) -> "WitnessPath":
        wp = WitnessPath.__new__(WitnessPath)
        wp.cycle, wp.orientation, wp.end = self.cycle, self.orientation, step[1]
        wp.derivation, wp._flips = self.derivation + (step,), self._flips + (pivot,)
        wp._sequence = wp.claimed = None
        return wp

    @property
    def flips(self) -> tuple:
        """Pivot positions of the derivation's steps, oldest first."""
        if self._flips is None:
            flips = []
            index = dict(zip(self.cycle, range(len(self.cycle))))
            for _ in _replay_steps(self.cycle, index, self.orientation, self.derivation, flips):
                pass
            self._flips = tuple(flips)
        return self._flips

    @property
    def sequence(self) -> tuple:
        if self._sequence is None:
            self._sequence = _materialise(self.cycle, self.orientation, self.flips)
        return self._sequence


@dataclass(frozen=True)
class ActiveClosure:
    """A rotation closure at its fixpoint.

    `witnesses` maps each active vertex to the first WitnessPath found ending
    there; the closure's witnesses share its cycle and hold no paths.
    `passive_edges` states passive_edges(cycle, active); the audit checks it.
    """

    cycle: tuple
    active: frozenset
    witnesses: dict = field(compare=False)
    passive_edges: frozenset


@dataclass(frozen=True)
class Improvement:
    """A strictly better lollipop found during closure; reason is
    "longer_cycle" (same vertices) or "larger_vertex_set"."""

    lollipop: Lollipop
    reason: str


@dataclass(frozen=True)
class DenseCycleCertificate:
    k: int
    cycle: tuple
    high_degree: tuple
    chords: tuple
    closure: ActiveClosure
    iterations: int


def passive_edges(cycle, active) -> frozenset:
    """The edges of `cycle` with no end in `active`: the edges X0 contracts."""
    return frozenset(
        edge(cycle[i - 1], cycle[i])
        for i in range(len(cycle))
        if cycle[i - 1] not in active and cycle[i] not in active
    )


def validate_lollipop(g: Graph, l: Lollipop):
    path, cycle = check_path(g, l.path), check_cycle(g, l.cycle)
    if path[-1] != cycle[0]:
        raise ValidationError("path must end at the cycle's anchor vertex")
    if set(path) & set(cycle) != {cycle[0]}:
        raise ValidationError("path and cycle may share only the anchor")


def vertex_set(l: Lollipop) -> frozenset:
    return frozenset(l.path) | frozenset(l.cycle)


# --- path growth ------------------------------------------------------------

def maximal_path_extend(g: Graph, p) -> tuple:
    """Grow a path greedily until neither end has a neighbor off the path.

    Extends the tail first, then the head, always taking the smallest unused
    neighbor id.  Head growth only ever consumes vertices, so one pass per end
    leaves both ends saturated.
    """
    p = check_path(g, p)
    head, tail = _grow(g, p, set(p))
    return tuple(reversed(head)) + p + tuple(tail)


def _grow(g: Graph, p: tuple, on_path: set) -> tuple:
    """maximal_path_extend on a path already known to be a path of g, whose
    vertices on_path holds.  Returns the lists of vertices grown at the head
    (nearest first) and at the tail, and adds them to on_path."""
    tail = _walk(g, p[-1], on_path)
    return _walk(g, p[0], on_path), tail


def _walk(g: Graph, end, on_path: set) -> list:
    # step to the smallest neighbor off the path until there is none
    walked = []
    while True:
        end = min(g.adj[end] - on_path, default=None)
        if end is None:
            return walked
        walked.append(end)
        on_path.add(end)


def lollipop_from_path(g: Graph, p) -> Lollipop:
    """Close a cycle at an end of a maximal path, preferring the tail end.

    The cycle closes at the end's farthest path-neighbor, so the initial cycle
    is as long as that end allows.  An end whose only path-neighbor is its
    predecessor cannot close anything; then the other end is tried.
    """
    p = tuple(p)
    for reverse in (False, True):
        candidate = p[::-1] if reverse else p
        # the first vertex short of the tail's predecessor that sees the tail
        sees_tail = map(g.adj[candidate[-1]].__contains__, candidate)
        i = next(compress(range(len(candidate) - 2), sees_tail), None)
        if i is not None:
            return Lollipop(path=candidate[: i + 1], cycle=candidate[i:])
    raise PreconditionError("neither end of the path closes a cycle of length >= 3")


def initial_lollipop(g: Graph) -> Lollipop:
    """Deterministic starting lollipop: maximal path from vertex 0, cycle closed
    at the tail's farthest neighbor."""
    if g.n == 0:
        raise PreconditionError("empty graph")
    if min(g.degree(u) for u in range(g.n)) < 2:
        raise PreconditionError("initial lollipop needs minimum degree >= 2")
    return lollipop_from_path(g, maximal_path_extend(g, (0,)))


# --- the improvement loop's lollipop ----------------------------------------

class _LiveLollipop:
    """The lollipop the improvement loop works on, with the sets it keeps
    from one closure to the next: `members`, every vertex of the lollipop
    (its size is the vertex count the loop's progress check reads), and
    `on_cycle`, the vertices of the cycle.

    An improvement changes it in place and touches only the vertices that
    change: those added, and the old and new path.

    `index` is the cycle's position index, built when a closure first pops
    its worklist and then kept: it maps each cycle vertex to a key, and the
    vertex's position is (key - base) * sign.  An improvement moves runs of
    the old cycle whole, each by a shift and perhaps a reflection, so it
    keeps the keys of the witness's longest such run by moving base and
    sign, and rewrites only the other positions.
    """

    __slots__ = ("path", "cycle", "members", "on_cycle", "index", "base", "sign")

    def __init__(self, l: Lollipop):
        self.path, self.cycle = tuple(l.path), tuple(l.cycle)
        self.on_cycle = set(self.cycle)
        self.members = self.on_cycle.union(self.path)
        self.index, self.base, self.sign = None, 0, 1

    def keyed_index(self) -> tuple:
        """(index, base, sign), building the index if there is none."""
        if self.index is None:
            self.index, self.base, self.sign = dict(zip(self.cycle, range(len(self.cycle)))), 0, 1
        return self.index, self.base, self.sign

    def improve(self, g: Graph, wp: WitnessPath, x) -> Improvement:
        """Switch to the lollipop that the witness wp and x, a neighbor of
        its end off the cycle, give."""
        old_path, t = self.path, len(self.cycle)
        if x in self.members:
            # x lies on the path; route the path's tail through the witness
            j = old_path.index(x)
            self.on_cycle.update(old_path[j:])
            self.path, self.cycle = old_path[: j + 1], old_path[j:] + wp.sequence[1:]
            offset = len(old_path) - 1 - j
            reason = "longer_cycle"
        else:
            # x is a fresh vertex: straighten the lollipop into a path,
            # append x, grow maximally, and close a cycle again; the engine
            # built the path, so it is not checked again
            p = old_path[:-1] + wp.sequence + (x,)
            self.members.add(x)
            head, tail = _grow(g, p, self.members)
            grown = tuple(reversed(head)) + p + tuple(tail)
            l = lollipop_from_path(g, grown)
            self.on_cycle.update(old_path, (x,), head, tail)
            self.on_cycle.difference_update(l.path[:-1])
            self.path, self.cycle = l.path, l.cycle
            # the cycle is grown's tail from where l.path ends, unless it
            # closed at the head, which only a tail of degree 1 forces
            offset = len(head) + len(old_path) - len(l.path) if l.cycle[-1] == grown[-1] else None
            reason = "larger_vertex_set"
        if offset is None:
            self.index = None
        elif self.index is not None:
            self._reindex(wp, t, offset)
        return Improvement(Lollipop(path=self.path, cycle=self.cycle), reason=reason)

    def _reindex(self, wp: WitnessPath, t: int, offset: int):
        # The witness's m-th vertex now sits at position offset + m, or on
        # the path if that is negative.  Split its path where it leaves the
        # old cycle order: at 1 for the backward seed, and after each pivot,
        # whose flip also moves the later splits.
        forward, flips = wp.orientation == "forward", wp.flips
        splits = set() if forward else {1}
        for i in flips:
            splits = {t + i + 1 - b if b > i + 1 else b for b in splits}
            splits.add(i + 1)
        bounds = sorted(splits | {0, t})
        m0, m1 = max(zip(bounds, bounds[1:]), key=lambda run: run[1] - run[0])
        q0 = _cycle_slot(m0, t, forward, flips)
        turn = _cycle_slot(m0 + 1, t, forward, flips) - q0 if m1 - m0 > 1 else 1

        # keep the keys of the longest run, whose m-th vertex had position
        # q0 + turn * (m - m0) and now has offset + m, and rewrite the rest
        sign = self.sign * turn
        base = self.base + self.sign * (q0 - turn * m0) - sign * offset
        cycle, index = self.cycle, self.index
        lo, hi = max(0, offset + m0), max(0, offset + m1)
        for a, b in ((0, lo), (hi, len(cycle))):
            index.update(zip(cycle[a:b], range(base + sign * a, base + sign * b, sign)))
        for v in wp.sequence[: max(0, -offset)]:
            del index[v]
        self.base, self.sign = base, sign


# --- the pruned closure -----------------------------------------------------

def required_active_count(g: Graph, cycle, k: int) -> int:
    """k active vertices are guaranteed; one more when the anchor has fewer
    than k neighbors on the cycle."""
    return k if len(g.adj[cycle[0]] & set(cycle)) >= k else k + 1


def active_closure(g: Graph, l: Lollipop, k: int):
    """Grow the active set from the two cycle orientations to a fixpoint.

    Keeps one witness path per active vertex (first one found; FIFO worklist,
    chords in ascending neighbor id, so runs are deterministic).  The moment
    any new end sees a neighbor off the cycle, an Improvement is returned
    instead: a longer cycle if the neighbor sits on the lollipop's path, a
    strictly larger lollipop if it is outside the lollipop entirely.

    Witnesses are implicit (see WitnessPath): a pop costs O(degree * depth),
    not O(t).  A plain Lollipop is validated first.  The improvement loop
    passes its `_LiveLollipop` as l, which it validated once at the start
    and builds itself from then on: the closure reads the sets and the
    cycle index it keeps, builds that index only when the worklist first
    pops, and advances it in place to the improvement.

    The anchor sits at position 0 of every witness, so it is never an end:
    once the other t - 1 cycle vertices are active no pop can activate
    another, and the worklist stops there.

    At fixpoint the closure must hold at least required_active_count vertices;
    a shortfall raises ClosureShortfall carrying the closure for diagnosis.
    """
    if isinstance(l, _LiveLollipop):
        live = l
    else:
        validate_lollipop(g, l)
        live = _LiveLollipop(l)
    cycle = live.cycle
    t = len(cycle)
    on_cycle = live.on_cycle
    witnesses = {}
    queue = deque()

    def activate(wp):
        # first activation of this end; check its neighborhood before queueing
        u = wp.end
        witnesses[u] = wp
        if not on_cycle.issuperset(g.adj[u]):
            return live.improve(g, wp, min(g.adj[u] - on_cycle))
        queue.append(wp)
        return None

    for orientation in SEEDS:
        improvement = activate(WitnessPath(cycle, orientation))
        if improvement is not None:
            return improvement

    index, base, sign = live.keyed_index()
    while queue and len(witnesses) < t - 1:
        wp = queue.popleft()
        u = wp.end
        forward = wp.orientation == "forward"
        flips = wp.flips
        # activate queues only ends whose neighbourhood lies on the cycle
        for v in sorted(g.adj[u]):
            cv = (index[v] - base) * sign
            if cycle[cv - 1] in witnesses and cycle[cv + 1 - t] in witnesses:
                continue  # w below is one of v's cycle neighbours, both active
            p = _position(cv, t, forward, flips)
            if p >= t - 2:
                continue
            cw = _cycle_slot(p + 1, t, forward, flips)
            w = cycle[cw]
            if w in witnesses:
                continue
            if (cv - cw) % t not in (1, t - 1):
                continue  # v--w is not a cycle edge
            improvement = activate(wp._child(((u, v), w), p))
            if improvement is not None:
                return improvement

    closure = ActiveClosure(
        cycle=cycle,
        active=frozenset(witnesses),
        witnesses=witnesses,
        passive_edges=passive_edges(cycle, witnesses),
    )
    needed = required_active_count(g, cycle, k)
    if len(closure.active) < needed:
        raise ClosureShortfall(
            f"closure fixpoint has {len(closure.active)} active vertices, "
            f"needs {needed} (cycle length {t}, anchor {cycle[0]})",
            closure,
        )
    return closure


# --- closure audit ----------------------------------------------------------

def verify_closure_lemmas(g: Graph, closure: ActiveClosure):
    """Audit an emitted closure against everything the theory promises.

    Raises InternalInvariantError on the first violation, or ValidationError
    when the cycle is not a cycle of g or a derivation step does not fit its
    path.  Each witness is checked step by step: it is a witness on this
    cycle, and its seed ends at an active vertex; each step starts at
    the current end, pivots at a graph edge (u, v) that is a chord of the
    current path, and breaks the edge from v to its successor w, which must be
    a cycle edge with w active; the last end is the witness's own vertex.  A
    witness's `claimed` path must equal its replay.

    By induction every witness is then a spanning path of g from the anchor,
    and every cycle edge it leaves out has an active end, so no witness skips
    a passive edge.  Active vertices may touch a passive run only once and
    only at its ends, and active neighborhoods must lie entirely on the
    cycle.  The audit costs O(m + total derivation steps * depth), not
    O(active * t).
    """
    cycle = closure.cycle
    t = len(cycle)
    index = dict(zip(cycle, range(t)))
    active = closure.active

    def fail(message):
        raise InternalInvariantError(message)

    check_cycle(g, cycle)
    if cycle[0] in active:
        fail("anchor vertex is marked active")
    if set(closure.witnesses) != set(active):
        fail("witness keys disagree with the active set")

    for u, wp in closure.witnesses.items():
        if wp.cycle is not cycle and wp.cycle != cycle:
            fail(f"witness for {u} starts from a non-seed path")
        orientation = wp.orientation
        end = _seed_end(cycle, orientation)
        if end not in active:
            fail(f"witness for {u} starts from a seed ending at inactive {end}")
        flips = []
        for a, v, w, cv, cw in _replay_steps(cycle, index, orientation, wp.derivation, flips):
            if not g.has_edge(a, v):
                fail(f"witness for {u} pivots at non-edge ({a}, {v})")
            if (cv - cw) % t not in (1, t - 1):
                fail(f"witness for {u} breaks non-cycle edge ({v}, {w})")
            if w not in active:
                fail(f"witness for {u} passes through inactive end {w}")
            end = w
        if end != u:
            fail(f"witness for {u} ends at {end}")
        if wp.claimed is not None and wp.claimed != _materialise(cycle, orientation, flips):
            fail(f"witness for {u} does not replay to its own sequence")

    if closure.passive_edges != passive_edges(cycle, active):
        fail("passive edge set is not the non-active cycle edges")

    run_of = {}  # vertex -> (run number, whether the vertex ends that run)
    for r, run in enumerate(_passive_runs(cycle, closure.passive_edges)):
        for x in run:
            run_of[x] = r, x in (run[0], run[-1])
    if run_of:
        for u in active:
            touched = {}
            for x in g.adj[u]:
                if x not in run_of:
                    continue
                r, at_end = run_of[x]
                if r in touched:
                    fail(f"active {u} touches a passive run at {touched[r]} and {x}")
                if not at_end:
                    fail(f"active {u} touches the interior of a passive run at {x}")
                touched[r] = x

    on_cycle = index.keys()
    for u in active:
        if not on_cycle >= g.adj[u]:
            stray = [x for x in g.adj[u] if x not in index]
            fail(f"active {u} has neighbors off the cycle: {stray}")


def _passive_runs(cycle, passive):
    """Maximal chains of consecutive passive edges, as vertex sequences.

    Consecutive runs are parted by cycle edges with an active end, so no
    vertex lies on two runs, unless a chain through the anchor is split
    there.  That needs both of the anchor's cycle edges passive, which the
    audit's seed-end check rules out once the closure has an active vertex.
    """
    t = len(cycle)
    runs = []
    current = None
    for i in range(t):
        a, b = cycle[i], cycle[(i + 1) % t]
        if edge(a, b) in passive:
            if current is None:
                current = [a, b]
            else:
                current.append(b)
        else:
            if current is not None:
                runs.append(tuple(current))
                current = None
    if current is not None:
        runs.append(tuple(current))
    return runs


# --- outer loop -------------------------------------------------------------

def improve_until_closed(g: Graph, l: Lollipop, k: int) -> tuple:
    """Run closures from l, switching to each improvement they return, until
    one reaches its fixpoint.  Returns (closure, number of improvements).

    Each improvement strictly grows (vertex count, cycle length)
    lexicographically, so fewer than n^2 happen; one that does not progress
    raises InternalInvariantError.
    """
    iterations = 0
    validate_lollipop(g, l)
    live = _LiveLollipop(l)
    progress = (len(live.members), len(live.cycle))
    outcome = active_closure(g, live, k)
    while isinstance(outcome, Improvement):
        iterations += 1
        new_progress = (len(live.members), len(live.cycle))
        if new_progress <= progress:
            raise InternalInvariantError(
                f"improvement did not progress: {progress} -> {new_progress}"
            )
        progress = new_progress
        outcome = active_closure(g, live, k)
    return outcome, iterations


def find_dense_cycle(g: Graph, k: int) -> DenseCycleCertificate:
    """Improve lollipops until a closure certifies a chord-dense cycle.

    Needs minimum degree >= k >= 2.  The improvement loop is bounded (see
    improve_until_closed); the emitted certificate carries at least k+1
    vertices with k neighbors on the cycle and hence at least (k+1)(k-2)/2
    chords.  Before it is returned it passes the checks of
    `verify_dense_cycle`, which are handed the chord listing built here
    rather than listing the chords a second time.
    """
    if k < 2:
        raise PreconditionError("need k >= 2")
    if g.n == 0 or min(g.degree(u) for u in range(g.n)) < k:
        raise PreconditionError(f"need minimum degree >= k = {k}")

    closure, iterations = improve_until_closed(g, initial_lollipop(g), k)
    cycle = closure.cycle
    high = set(closure.active)
    if len(g.adj[cycle[0]] & set(cycle)) >= k:
        high.add(cycle[0])
    chords = chords_of_cycle(g, cycle)
    cert = DenseCycleCertificate(
        k=k,
        cycle=cycle,
        high_degree=tuple(sorted(high)),
        chords=chords,
        closure=closure,
        iterations=iterations,
    )
    _check_dense_cycle(g, cert, chords)
    return cert


def verify_dense_cycle(g: Graph, cert: DenseCycleCertificate) -> None:
    """Check a dense-cycle certificate's claims on g.

    With C the certificate's cycle: k is an integer of at least 2; the
    closure passes `verify_closure_lemmas` on C itself; `high_degree` lists
    at least k+1 vertices of C, none twice, each with at least k neighbors
    on C; and `chords` lists the chords of C as `chords_of_cycle` does.
    Then `chords` holds at least (k+1)(k-2)/2 of them: each high-degree
    vertex has at least k - 2 chords besides its two cycle edges, and a
    chord has two ends.  Raises ValidationError on the first claim that
    fails, or InternalInvariantError from the audit.
    """
    _check_dense_cycle(g, cert, None)


def _check_dense_cycle(g: Graph, cert: DenseCycleCertificate, chords) -> None:
    """`verify_dense_cycle`, given the chords of the certificate's cycle as
    `chords_of_cycle` lists them, or None to list them here."""
    k, cycle, high = cert.k, cert.cycle, cert.high_degree
    if type(k) is not int or k < 2:
        raise ValidationError(f"k must be an integer >= 2, got {k!r}")
    if cert.closure.cycle != cycle:
        raise ValidationError("certificate cycle differs from closure cycle")
    verify_closure_lemmas(g, cert.closure)
    on_cycle = set(cycle)
    for v in high:
        if not 0 <= v < g.n:
            raise ValidationError(f"high-degree vertex {v} outside 0..{g.n - 1}")
        if v not in on_cycle:
            raise ValidationError(f"high-degree vertex {v} is not on the cycle")
        d = len(g.adj[v] & on_cycle)
        if d < k:
            raise ValidationError(f"vertex {v} has cycle degree {d} < {k}")
    distinct = len(set(high))
    if distinct < k + 1:
        raise ValidationError(f"too few high-degree vertices: {distinct} < {k + 1}")
    if distinct != len(high):
        raise ValidationError("high_degree lists a vertex twice")
    if chords is None:
        chords = chords_of_cycle(g, cycle)
    if cert.chords != chords:
        raise ValidationError("chord list does not match the graph")
