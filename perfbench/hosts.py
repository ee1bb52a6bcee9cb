"""Seeded input graphs for the benchmark, built without the program's own code.

Every generator takes a `random.Random` and returns a sorted edge list, so a
seed fixes the inputs byte for byte no matter how the program under test
changes.  Known answers come from how a graph is built (planarity, an apex
over a planar graph, a planted model) and never from the program.
"""

from __future__ import annotations

import random


def edge_list_text(edges) -> bytes:
    """The program's edge-list input format: one "u v" pair per line."""
    return "".join(f"{u} {v}\n" for u, v in edges).encode()


def _sorted_edges(adj) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in sorted(adj[u]) if u < v]


def random_min_degree(n: int, k: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random connected graph with minimum degree >= k and average near 2k.

    Shaped like the acceptance corpus: uniform random edges up to the target
    density, then patch edges until every degree reaches k, then one edge
    between consecutive components until the graph is connected.
    """
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    adj = [set() for _ in range(n)]
    target = min(n - 1, 2 * k) * n // 2
    count = 0
    while count < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            count += 1
    for u in range(n):
        while len(adj[u]) < k:
            v = rng.randrange(n)
            if v != u and v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
    comp = list(range(n))

    def root(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for u in range(n):
        for v in adj[u]:
            comp[max(root(u), root(v))] = min(root(u), root(v))
    while True:
        parts = {}
        for u in range(n):
            parts.setdefault(root(u), []).append(u)
        if len(parts) == 1:
            break
        first, second = sorted(parts.values())[:2]
        u, v = rng.choice(first), rng.choice(second)
        adj[u].add(v)
        adj[v].add(u)
        comp[max(root(u), root(v))] = min(root(u), root(v))
    return _sorted_edges(adj)


def _relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def stacked_triangulation(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random stacked planar triangulation (planar 3-tree) on n >= 3 vertices.

    Starts from a triangle and inserts each new vertex into a uniformly
    chosen face.  Planar, so it has no K5 minor; minimum degree 3 for n >= 4.
    Stacking, not edge flips, keeps the oracle's refutation cost close from
    one seed to the next.
    """
    faces = [(0, 1, 2), (0, 1, 2)]  # the two sides of the first triangle
    edges = {(0, 1), (0, 2), (1, 2)}
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [(a, b, v), (b, c, v), (a, c, v)]
        edges |= {(a, v), (b, v), (c, v)}
    return _relabel(n, edges, rng)


def apex_over_planar(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A stacked triangulation on n-1 vertices plus one vertex joined to all.

    Deleting the apex leaves a planar graph, so a K6 minor would leave a K5
    minor in a planar graph: there is none.
    """
    base = stacked_triangulation(n - 1, rng)
    return _relabel(n, base + [(u, n - 1) for u in range(n - 1)], rng)


def planted_k5(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random graph, minimum degree 3, holding a planted cyclic K5 model.

    A Hamiltonian cycle is cut into five arcs and one edge is added between
    each pair of non-consecutive arcs, so the five arcs contract to K5 (and,
    merging two neighbouring arcs, to K4).  Random edges then lift every
    degree to 3.
    """
    if n < 5:
        raise ValueError("need n >= 5")
    adj = [set() for _ in range(n)]

    def add(u, v):
        adj[u].add(v)
        adj[v].add(u)

    for i in range(n):
        add(i, (i + 1) % n)
    cuts = sorted(rng.sample(range(1, n), 4))
    bounds = [0] + cuts + [n]
    arcs = [range(bounds[i], bounds[i + 1]) for i in range(5)]
    for i in range(5):
        j = (i + 2) % 5
        add(rng.choice(arcs[i]), rng.choice(arcs[j]))
    for u in range(n):
        while len(adj[u]) < 3:
            v = rng.randrange(n)
            if v != u:
                add(u, v)
    return _relabel(n, _sorted_edges(adj), rng)


def random_graph(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Binomial random graph G(n, p)."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def max_chords_known(n: int, edges) -> int | None:
    """Most chords over all cycles, by bitmask dynamic programming.

    A cycle through vertex set S has |E(S)| - |S| chords whatever its order,
    so the answer is the best such count over sets S whose induced graph has
    a spanning cycle.  Spanning cycles are found by extending paths that
    start at the lowest vertex of S, a method independent of the oracle's
    subset sweep and depth-first search.  None when the graph has no cycle.
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    ends = [0] * (1 << n)  # ends[S]: last vertices of paths spanning S from min(S)
    for v in range(n):
        ends[1 << v] = 1 << v
    best = None
    for mask in range(1, 1 << n):
        reach = ends[mask]
        if not reach:
            continue
        low = (mask & -mask).bit_length() - 1
        size = mask.bit_count()
        if size >= 3 and reach & adj[low]:
            inside = sum((adj[v] & mask).bit_count() for v in range(n) if mask >> v & 1) // 2
            if best is None or inside - size > best:
                best = inside - size
        above_low = ~((1 << (low + 1)) - 1)
        while reach:
            vbit = reach & -reach
            reach ^= vbit
            nxt = adj[vbit.bit_length() - 1] & ~mask & above_low
            while nxt:
                wbit = nxt & -nxt
                nxt ^= wbit
                ends[mask | wbit] |= wbit
    return best
