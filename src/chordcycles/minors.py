"""Cyclic-minor models: contract arcs of a cycle onto a small target graph.

A model carves the host cycle into contiguous arcs, one per target vertex,
aligned with a Hamiltonian cycle of the target.  Contracting each arc must
produce every target edge; host edges the target lacks are harmless, because
the Hamiltonian subgraph being contracted is free to omit chords.  Cycle
edges are never omitted, which is why consecutive arcs come for free.

A model is fixed by where the cycle is cut: each cut starts an arc, which
runs to the next cut.  Every constructor states its model as those cut
positions and hands them to `_model`, the one place that slices arcs.
Constructors cover the small cliques (K3 through K5), the augmented
bipartite graph K'll obtained from a block partition of the cycle's
adjacency matrix, and K6 by dropping two of those cuts.  `build` routes a
target name to its constructor and to the contraction stage it needs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .contraction import pipeline
from .errors import (
    InternalInvariantError,
    PreconditionError,
    ValidationError,
)
from .graph import Graph, check_cycle, check_path, chords_of_cycle, generate
from .lollipop import find_dense_cycle


@dataclass(frozen=True)
class CyclicMinorModel:
    host: Graph
    host_cycle: tuple[int, ...]
    arcs: tuple[tuple[int, ...], ...]
    target: Graph
    target_cycle: tuple[int, ...]
    target_name: str


@dataclass(frozen=True)
class GridPartition:
    """Cut positions 0 = c_0 < ... < c_a = m on both axes of the matrix."""

    row_cuts: tuple[int, ...]
    col_cuts: tuple[int, ...]


@dataclass(frozen=True)
class GridOutcome:
    """partition is None for NotFound; exact says whether that settles it."""

    partition: GridPartition | None
    exact: bool


def kll_prime_graph(ell: int) -> tuple[Graph, tuple[int, ...]]:
    """K_{l,l} with a path added on each side, plus its Hamiltonian cycle.

    Vertices 0..l-1 are one side, l..2l-1 the other.  The returned cycle
    walks one path, crosses, walks the other path, and crosses back.
    """
    if ell < 1:
        raise ValidationError("bipartite side must have at least one vertex")
    edges = [(x, ell + y) for x in range(ell) for y in range(ell)]
    edges += [(x, x + 1) for x in range(ell - 1)]
    edges += [(ell + y, ell + y + 1) for y in range(ell - 1)]
    return Graph(2 * ell, edges), tuple(range(2 * ell))


def _target_size(name: str) -> tuple[str, int]:
    """A target name's label, and the order of K3..K6 or the side of Kll:<l>."""
    if name in ("K3", "K4", "K5", "K6"):
        return name, int(name[1])
    if name.startswith("Kll:"):
        try:
            ell = int(name[4:])
        except ValueError:
            ell = 0
        if ell < 1:
            raise ValidationError(f"bad target {name!r}")
        return "K'll", ell
    raise ValidationError(
        f"unknown target {name!r}: expected K3, K4, K5, K6 or Kll:<l>"
    )


def target(name: str) -> tuple[str, Graph]:
    """The artifact label and graph a target name stands for.

    K3..K6 are complete graphs; Kll:<l> is K'll with side l, labelled K'll.
    Every target's Hamiltonian cycle is 0..n-1.
    """
    label, size = _target_size(name)
    return label, kll_prime_graph(size)[0] if label == "K'll" else generate("complete", {"n": size})


def verify_model(m: CyclicMinorModel) -> bool:
    """True iff every target edge is realized between the matching arcs.

    Structural defects (arcs not tiling the cycle, a bad target cycle,
    mismatched counts) raise; a well-formed model that misses an edge is
    just False.
    """
    check_cycle(m.host, m.host_cycle)
    if len(m.target_cycle) == 2:
        # K'll with l = 1 is a single edge: its cycle walks that edge both ways
        check_path(m.target, m.target_cycle)
    else:
        check_cycle(m.target, m.target_cycle)
    if len(m.target_cycle) != m.target.n:
        raise ValidationError("target cycle is not Hamiltonian")
    if len(m.arcs) != m.target.n:
        raise ValidationError("arc count differs from target order")
    flat = tuple(v for arc in m.arcs for v in arc)
    if flat != m.host_cycle:
        raise ValidationError("arcs do not tile the host cycle in order")
    if any(len(arc) == 0 for arc in m.arcs):
        raise ValidationError("empty arc")

    k = len(m.arcs)
    for p in range(k):
        for q in range(p + 1, k):
            if not m.target.has_edge(m.target_cycle[p], m.target_cycle[q]):
                continue
            if (q - p) % k == 1 or (p - q) % k == 1:
                continue  # consecutive arcs share a host cycle edge
            if not any(
                m.host.has_edge(u, v) for u in m.arcs[p] for v in m.arcs[q]
            ):
                return False
    return True


def _model(host, cycle, starts, name: str) -> CyclicMinorModel:
    """The model of target `name` cut at these cycle positions, checked by
    `verify_model`.

    The cycle is turned to begin at starts[0]; the other starts follow in
    cycle order, and each arc runs up to the next start.  A repeated start
    leaves an empty arc, which `verify_model` rejects.
    """
    n = len(cycle)
    base = starts[0] % n
    host_cycle = tuple(cycle[base:] + cycle[:base])
    cuts = sorted((s - base) % n for s in starts) + [n]
    label, graph = target(name)
    model = CyclicMinorModel(
        host=host,
        host_cycle=host_cycle,
        arcs=tuple(host_cycle[a:b] for a, b in zip(cuts, cuts[1:])),
        target=graph,
        target_cycle=tuple(range(graph.n)),
        target_name=label,
    )
    if not verify_model(model):
        raise InternalInvariantError(f"{label} model failed verification")
    return model


def _check_hamiltonian(g: Graph, c: tuple[int, ...]) -> None:
    if len(check_cycle(g, c)) != g.n:
        raise ValidationError("cycle is not Hamiltonian")


def _some_cycle(g: Graph) -> tuple[int, ...]:
    """Walk to the smallest fresh neighbor until the walk bites its tail."""
    path = [0]
    where = {0: 0}
    while True:
        u = path[-1]
        parent = path[-2] if len(path) > 1 else -1
        back = [v for v in sorted(g.adj[u]) if v in where and v != parent]
        if back:
            start = min(where[v] for v in back)
            return tuple(path[start:])
        nxt = min(v for v in sorted(g.adj[u]) if v not in where)
        where[nxt] = len(path)
        path.append(nxt)


def k3_model(g: Graph) -> CyclicMinorModel:
    """Any cycle, cut into three arcs as evenly as possible."""
    if g.n == 0 or min(g.degree(u) for u in range(g.n)) < 2:
        raise PreconditionError("need minimum degree 2 to guarantee a cycle")
    cycle = _some_cycle(g)
    n = len(cycle)
    return _model(g, cycle, [i * (n // 3) + min(i, n % 3) for i in range(3)], "K3")


def _cycle_positions(c: tuple[int, ...]) -> dict[int, int]:
    return {v: i for i, v in enumerate(c)}


def k4_model(f: Graph, c: tuple[int, ...]) -> CyclicMinorModel:
    """Shortest chord uv, an interior vertex z, and a chord zx leaving P.

    The four arcs are the two chord ends, the interior of the short side P,
    and the rest of the cycle; minimality of P forces every chord at z out
    of P, which supplies the fourth clique edge.
    """
    _check_hamiltonian(f, c)
    if min(f.degree(u) for u in range(f.n)) < 3:
        raise PreconditionError("need minimum degree 3")
    chords = chords_of_cycle(f, c)
    if not chords:
        raise PreconditionError("cycle has no chord")
    pos = _cycle_positions(c)
    n = len(c)

    def span(ch):
        d = (pos[ch[1]] - pos[ch[0]]) % n
        return min(d, n - d)

    uv = min(chords, key=lambda ch: (span(ch), ch[0], ch[1]))
    d = span(uv)
    u, v = uv
    sp = pos[u] if (pos[v] - pos[u]) % n == d else pos[v]
    return _model(f, c, [sp, sp + 1, sp + d, sp + d + 1], "K4")


def _density_fixpoint(f: Graph, c: tuple[int, ...]):
    """Contract cycle edges first-fit while |E| >= 3|V| survives the merge.

    Blocks are (start, length) intervals of host cycle positions, listed in
    cyclic order from the block holding position 0; merging keeps each block
    a contiguous arc.  A block is keyed by its start, and the block quotient
    is kept live as adjacency sets over those keys: merging j into its
    predecessor i removes the edge ij and one of each pair of parallel edges
    through a common neighbour.  Every pass rescans from the first block and
    merges the first pair that keeps the density, so the merge order is the
    one a rebuild of the quotient after every merge would give.

    Returns the intervals and the quotient with blocks relabelled 0..t-1.
    """
    n = len(c)
    pos = {v: i for i, v in enumerate(c)}
    nbr = {i: {pos[w] for w in f.adj[v]} for i, v in enumerate(c)}
    nxt = {i: (i + 1) % n for i in range(n)}
    length = dict.fromkeys(range(n), 1)
    head, t, e = 0, n, f.edge_count
    while True:
        slack = e - 1 - 3 * (t - 1)
        i = head
        for _ in range(t):
            j = nxt[i]
            common = len(nbr[i] & nbr[j])
            if common <= slack:
                break
            i = j
        else:
            break
        e -= 1 + common
        nj = nbr.pop(j)
        nj.discard(i)
        nbr[i].discard(j)
        for w in nj:
            nbr[w].discard(j)
            nbr[w].add(i)
        nbr[i] |= nj
        length[i] += length.pop(j)
        nxt[i] = nxt.pop(j)
        if j == head:
            head = i
        t -= 1
    order = [head]
    while len(order) < t:
        order.append(nxt[order[-1]])
    label = {b: p for p, b in enumerate(order)}
    q = Graph(t, [(label[b], label[w]) for b in order for w in nbr[b] if b < w])
    return [(b, length[b]) for b in order], q


def _peaks(q: Graph, t: int, p: int) -> list[int]:
    """Interior common neighbors of the cycle edge at position p.

    Neighbors are ordered along the path the cycle becomes once that edge
    is removed; the two extremes are not peaks.
    """
    u, v = p, (p + 1) % t
    common = q.adj[u] & q.adj[v]
    ordered = []
    for step in range(1, t - 1):
        w = (v + step) % t
        if w in common:
            ordered.append(w)
    return ordered[1:-1]


def k5_model(f: Graph, c: tuple[int, ...]) -> CyclicMinorModel:
    """Densify by contracting cycle edges, then split around two peaks.

    Every cycle edge of the fixpoint lies in three triangles, so a shortest
    peak-to-end path P exists whose interior holds a common neighbor of the
    edge; a second peak for the first path edge lands outside P and the five
    pieces contract to K5.
    """
    if f.edge_count < 3 * f.n:
        raise PreconditionError(
            f"need |E| >= 3|V|, have {f.edge_count} < {3 * f.n}"
        )
    _check_hamiltonian(f, c)

    ivs, q = _density_fixpoint(f, c)
    t = len(ivs)

    # globally shortest peak-to-end path; ties fall to scan order
    best = None
    for p in range(t):
        u, v = p, (p + 1) % t
        for z in _peaks(q, t, p):
            to_u = (u - z) % t
            to_v = (z - v) % t
            for plen, end in ((to_u, u), (to_v, v)):
                key = (plen, p, z, end)
                if best is None or key < best:
                    best = key
    if best is None:
        raise InternalInvariantError("no peaks at the density fixpoint")
    plen, p, z, end = best
    u, v = p, (p + 1) % t
    other = v if end == u else u
    direction = 1 if end == u else -1  # travel sense of P along the cycle

    ppos = [(z + direction * i) % t for i in range(plen + 1)]
    interior = ppos[1:-1]
    if not interior:
        raise InternalInvariantError("peak path has no interior")

    prime = [
        (ppos[-1] + direction * (2 + i)) % t
        for i in range(t - len(ppos) - 1)
    ]
    parts = [[z], interior, [end], [other], prime]
    # an arc starts at its part's first block in cycle order
    starts = [ivs[part[0] if direction == 1 else part[-1]][0] for part in parts]
    return _model(f, c, starts, "K5")


def _row_block_next(rows_cols: list[list[int]], lo: int, hi: int, s: int) -> int | None:
    """Smallest column >= s holding a 1 in matrix rows [lo, hi)."""
    best = None
    for r in range(lo, hi):
        cols = rows_cols[r]
        i = bisect.bisect_left(cols, s)
        if i < len(cols):
            c = cols[i]
            if best is None or c < best:
                best = c
    return best


def _col_greedy(rows_cols, cuts, a, m):
    """Earliest-end column cuts so every (row block, col block) pair hits.

    Returns the full cut tuple or None.  Works for a prefix of row blocks
    too, giving a sound pruning test: a superset of blocks only tightens
    the greedy.
    """
    blocks = list(zip(cuts[:-1], cuts[1:]))
    out = [0]
    s = 0
    for step in range(a - 1):
        e = None
        for lo, hi in blocks:
            nxt = _row_block_next(rows_cols, lo, hi, s)
            if nxt is None:
                return None
            if e is None or nxt > e:
                e = nxt
        s = e + 1
        if s > m - (a - 1 - step):
            return None
        out.append(s)
    for lo, hi in blocks:
        if _row_block_next(rows_cols, lo, hi, s) is None:
            return None
    out.append(m)
    return tuple(out)


class _Rows(tuple):
    """A square 0/1 matrix as the sorted column list of each row."""


def grid_block_partition(matrix: list[list[int]] | _Rows, a: int) -> GridOutcome:
    """Cut the matrix into an a-by-a grid with a 1 in every block.

    The matrix is a square list of 0/1 rows, or the sorted column lists of
    its rows as `_cycle_rows` builds them.  Exact for small instances
    (m <= 60 or a <= 4): lexicographic search over row cuts, with greedy
    column cuts per row choice; the greedy is optimal given the rows, so an
    exhausted search proves non-existence.  Larger instances get a sweep
    heuristic whose NotFound is inconclusive.
    """
    if isinstance(matrix, _Rows):
        rows_cols = matrix
    else:
        if len(matrix) == 0 or any(len(row) != len(matrix) for row in matrix):
            raise ValidationError("matrix is not square")
        rows_cols = [[j for j, x in enumerate(row) if x] for row in matrix]
    m = len(rows_cols)
    if not isinstance(a, int) or a < 1:
        raise ValidationError("block grid size must be a positive integer")
    if a > m:
        raise ValidationError(f"cannot cut {m} rows into {a} blocks")
    exact = m <= 60 or a <= 4

    if exact:
        result = _grid_exact(rows_cols, a, m)
        return GridOutcome(result, exact=True)
    return GridOutcome(_grid_sweep(rows_cols, a, m), exact=False)


def _grid_exact(rows_cols, a, m) -> GridPartition | None:
    prefix = [0]

    def dfs():
        # sound prune: the row blocks cut so far, with the remaining rows as
        # one more block, must admit col cuts; at a leaf this is the answer
        cols = _col_greedy(rows_cols, prefix + [m], a, m)
        if cols is None:
            return None
        done = len(prefix) - 1
        if done == a - 1:
            return GridPartition((*prefix, m), cols)
        for cut in range(prefix[-1] + 1, m - (a - 1 - done) + 1):
            prefix.append(cut)
            found = dfs()
            if found is not None:
                return found
            prefix.pop()
        return None

    return dfs()


def _grid_sweep(rows_cols, a, m) -> GridPartition | None:
    """Accumulate rows until a block shows a distinct 1-columns, then cut."""
    cuts = [0]
    seen: set[int] = set()
    for r in range(m):
        seen.update(rows_cols[r])
        if len(seen) >= a and len(cuts) < a:
            cuts.append(r + 1)
            seen = set()
    if len(cuts) < a:
        return None
    if cuts[-1] == m:
        return None
    cuts.append(m)
    cols = _col_greedy(rows_cols, cuts, a, m)
    if cols is None:
        return None
    return GridPartition(tuple(cuts), cols)


def _cycle_rows(host: Graph, cycle: tuple[int, ...]) -> _Rows:
    """The adjacency matrix in cycle order, cycle edges included, as rows."""
    pos = _cycle_positions(cycle)
    return _Rows(sorted(pos[w] for w in host.adj[v]) for v in cycle)


def _bipartite_layout(host, cycle, ell):
    """The start positions of X1..Xl and Y1..Yl, or None.

    Y1 swallows the slack between the middle row cut and the middle column
    cut; the cut pair is normalized so the slack is non-negative.  A cycle
    with fewer than 2l positions has no partition, so it gives None.
    """
    if len(cycle) < 2 * ell:
        return None
    outcome = grid_block_partition(_cycle_rows(host, cycle), 2 * ell)
    if outcome.partition is None:
        return None
    rows, cols = outcome.partition.row_cuts, outcome.partition.col_cuts
    if rows[ell] > cols[ell]:
        rows, cols = cols, rows
    return rows[: ell + 1] + cols[ell + 1 : 2 * ell]


def kll_prime_model(host: Graph, cycle: tuple[int, ...], ell: int) -> CyclicMinorModel | None:
    """Block-partition the cycle's adjacency matrix into 2l x 2l and read off
    the two sides; None when no partition exists (exactly for small hosts)."""
    _check_hamiltonian(host, cycle)
    if ell < 1:
        raise ValidationError("need a positive bipartite side")
    starts = _bipartite_layout(host, cycle, ell)
    if starts is None:
        return None
    return _model(host, cycle, starts, f"Kll:{ell}")


def k6_from_bipartite(host: Graph, cycle: tuple[int, ...]) -> CyclicMinorModel | None:
    """K6 from the l=4 layout without the starts of X1 and Y1.

    Y4 then runs on through X1 across the wrap, and X4 through the slack
    and Y1; the six arcs left have every cross edge supplied by the
    bipartite blocks or the cycle itself.
    """
    _check_hamiltonian(host, cycle)
    starts = _bipartite_layout(host, cycle, 4)
    if starts is None:
        return None
    _, x2, x3, x4, _, y2, y3, y4 = starts
    return _model(host, cycle, (y4, x2, x3, x4, y2, y3), "K6")


def build(g: Graph, name: str, k: int | None = None) -> CyclicMinorModel | None:
    """The cyclic model of target `name` in g, or None when the construction
    finds none; a failed precondition raises PreconditionError.

    K3 needs no preparation.  The other targets are built on a contraction
    stage of a dense cycle: K4 on X1, where min degree 3 suffices, the rest
    on X2, the average degree 6 quotient that k = 8 guarantees.  Without an
    explicit k the pipeline degree is clamped to the host's minimum degree,
    so dense hosts below degree 8 still get their best shot.  Only a model
    found builds its target graph.
    """
    size = _target_size(name)[1]
    if name == "K3":
        return k3_model(g)
    if k is None:
        k = 3 if name == "K4" else 8
        if g.n > 0:
            k = max(2, min(k, min(g.degree(u) for u in range(g.n))))
    _, x1, x2 = pipeline(g, find_dense_cycle(g, k))
    if name == "K4":
        return k4_model(x1.graph, x1.cycle)
    if name == "K5":
        return k5_model(x2.graph, x2.cycle)
    if name == "K6":
        return k6_from_bipartite(x2.graph, x2.cycle)
    return kll_prime_model(x2.graph, x2.cycle, size)
