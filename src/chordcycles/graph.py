"""Immutable simple graphs and the small operations everything else builds on."""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import ParseError, ValidationError


def edge(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Adjacency is stored as a tuple of frozensets, so instances are immutable
    and safe to share.  Duplicate edges collapse.  `Graph(n, edges)` is the
    validating door for edges from outside the library: an edge that is not
    a pair of ids in 0..n-1, or is a loop, raises ValidationError.
    Quotients and subgraphs built from a graph's own adjacency go through
    `_graph_of` instead.
    """

    __slots__ = ("n", "adj", "edge_count")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValidationError(f"vertex count must be non-negative, got {n}")
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)  # a fault rescans them
        lists = [[] for _ in range(n)]
        try:
            for u, v in edges:
                lists[u].append(v)
                lists[v].append(u)
        except (IndexError, TypeError, ValueError):
            _reject_first_bad_edge(n, edges)
        adj = tuple(map(frozenset, lists))
        # a negative id indexes from the end and a loop lands in its own set,
        # so both show in the finished sets
        if any(map(frozenset.__contains__, adj, range(n))) or (
            min(map(min, filter(None, adj)), default=0) < 0
        ):
            _reject_first_bad_edge(n, edges)
        self.n = n
        self.adj = adj
        self.edge_count = sum(map(len, adj)) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges in canonical form, sorted."""
        return [(u, v) for u in range((self.n)) for v in sorted(self.adj[u]) if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


def _reject_first_bad_edge(n: int, edges) -> None:
    """Raise ValidationError for the first edge that is not a pair of ints
    (anything a list index takes) in 0..n-1, or is a loop."""
    for e in edges:
        try:
            u, v = map(operator.index, e)
        except (TypeError, ValueError):
            raise ValidationError(f"edge {e!r} is not a pair of vertex ids") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        if u == v:
            raise ValidationError(f"loop at vertex {u}")


def _graph_of(neighbourhoods) -> Graph:
    """The graph whose vertex i has neighbourhood `neighbourhoods[i]`, taken
    as given: symmetric, loop-free and in range, as a graph's own adjacency
    mapped through a relabelling is."""
    g = object.__new__(Graph)
    g.adj = tuple(map(frozenset, neighbourhoods))
    g.n = len(g.adj)
    g.edge_count = sum(map(len, g.adj)) // 2
    return g


def parse_edge_list(text) -> Graph:
    """Parse "u v" lines into a Graph.

    '#' starts a comment, blank lines are skipped, duplicate edges are
    tolerated.  The vertex count is one past the largest id seen.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'u v' at line {lineno}: {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint at line {lineno}: {raw.strip()!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex id at line {lineno}: {raw.strip()!r}")
        if u == v:
            raise ValidationError(f"loop at line {lineno}")
        edges.append((u, v))
        if u > top:
            top = u
        if v > top:
            top = v
    return Graph(top + 1, edges)


def format_rational(value) -> str:
    """Exact serialization: integers bare, everything else as "p/q"."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class DegreeStats:
    min_degree: int
    avg_degree: Fraction


def degree_stats(g: Graph) -> DegreeStats:
    """Minimum and exact average degree.  No floating point anywhere."""
    if g.n == 0:
        raise ValidationError("degree stats of the empty graph")
    return DegreeStats(
        min_degree=min(map(len, g.adj)),
        avg_degree=Fraction(2 * g.edge_count, g.n),
    )


def check_path(g: Graph, path) -> tuple:
    """`path` as a tuple, once it is known to be a path of g: nonempty,
    distinct vertices of g, each adjacent to the next.  Raises
    ValidationError otherwise."""
    path = tuple(path)
    if not path or len(set(path)) != len(path):
        raise ValidationError("a path needs at least one vertex, with no repeats")
    # the other vertices are in range once each is adjacent to its predecessor
    if not 0 <= path[0] < g.n:
        raise ValidationError(f"vertex {path[0]} not in graph")
    for a, b in zip(path, path[1:]):
        if b not in g.adj[a]:
            raise ValidationError(f"({a}, {b}) is not an edge of the graph")
    return path


def check_cycle(g: Graph, cycle) -> tuple:
    """`cycle` as a tuple, once it is known to be a cycle of g: a path of g
    on at least 3 vertices whose last vertex is adjacent to its first.
    Raises ValidationError otherwise."""
    cycle = check_path(g, cycle)
    if len(cycle) < 3:
        raise ValidationError("a cycle needs at least 3 vertices")
    if cycle[0] not in g.adj[cycle[-1]]:
        raise ValidationError(f"({cycle[-1]}, {cycle[0]}) is not an edge of the graph")
    return cycle


def cycle_edge_set(cycle) -> frozenset:
    return frozenset(edge(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle)))


def chords_of_cycle(g: Graph, cycle) -> tuple:
    """Edges of g between non-consecutive cycle vertices, sorted."""
    on_cycle = set(cycle)
    skip = cycle_edge_set(cycle)
    return tuple(sorted(
        (u, v) for u in on_cycle for v in g.adj[u]
        if u < v and v in on_cycle and (u, v) not in skip
    ))


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, list[int]]:
    """Subgraph on `vertices`, relabeled densely in sorted order.

    Returns (subgraph, old_ids): new vertex i corresponds to old_ids[i].
    """
    keep = frozenset(vertices)
    old_ids = sorted(keep)
    if old_ids and not (0 <= old_ids[0] and old_ids[-1] < g.n):
        bad = next(u for u in old_ids if not 0 <= u < g.n)
        raise ValidationError(f"vertex {bad} not in graph")
    index = dict(zip(old_ids, range(len(old_ids))))
    return _graph_of([map(index.__getitem__, keep & g.adj[u]) for u in old_ids]), old_ids


@dataclass(frozen=True)
class ContractionPlan:
    """Record of one edge contraction: which host vertices merged into what.

    `class_of[v]` is the quotient id of host vertex v; ids are dense and
    ordered by smallest class member.  When the contraction was performed
    relative to a distinguished cycle, `arcs` lists each class as a contiguous
    arc of that cycle, in cycle order starting from the arc through cycle[0].
    """

    host: Graph
    contracted_edges: frozenset
    class_of: tuple
    arcs: tuple | None = None


def contract_edges(g: Graph, edges, cycle=None) -> tuple[Graph, ContractionPlan]:
    """Quotient of g by the components of `edges`; loops drop, parallels merge.

    With `cycle`, which must be a cycle of g (not checked here), each class
    must be contiguous along it and the plan records the resulting arcs.
    """
    edges = [edge(u, v) for u, v in edges]
    for u, v in edges:
        if not (0 <= u < g.n and v < g.n and g.has_edge(u, v)):
            raise ValidationError(f"edge ({u}, {v}) not in graph")

    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)

    leader = [find(u) for u in range(g.n)]
    roots = sorted(set(leader))
    index = dict(zip(roots, range(len(roots))))
    # a list, not a tuple: list.__getitem__ is a fast builtin under map
    classes = list(map(index.__getitem__, leader))
    merged = [set() for _ in roots]
    for c, nbrs in zip(classes, g.adj):
        merged[c].update(map(classes.__getitem__, nbrs))
    for c, nbrs in enumerate(merged):
        nbrs.discard(c)
    quotient = _graph_of(merged)
    class_of = tuple(classes)

    arcs = None
    if cycle is not None:
        arcs = _cycle_arcs(cycle, class_of)

    plan = ContractionPlan(
        host=g, contracted_edges=frozenset(edges), class_of=class_of, arcs=arcs
    )
    return quotient, plan


def _cycle_arcs(cycle, class_of) -> tuple:
    """Split `cycle` into maximal runs of equal class; every class must be one run."""
    t = len(cycle)
    classes = [class_of[v] for v in cycle]
    if len(set(classes)) == 1:
        return (tuple(cycle),)
    # rotate backwards so position 0 starts a run
    start = 0
    while classes[start - 1] == classes[start]:
        start -= 1
    order = [cycle[(start + i) % t] for i in range(t)]
    arcs = [[order[0]]]
    for v in order[1:]:
        if class_of[v] == class_of[arcs[-1][-1]]:
            arcs[-1].append(v)
        else:
            arcs.append([v])
    if len({class_of[a[0]] for a in arcs}) != len(arcs):
        raise ValidationError("a contraction class is not contiguous on the cycle")
    return tuple(tuple(a) for a in arcs)


@dataclass(frozen=True)
class DegeneracyReport:
    degeneracy: int
    elimination_order: tuple


def degeneracy(g: Graph) -> DegeneracyReport:
    """Exact degeneracy by repeated minimum-degree peeling.

    Ties break toward the smallest vertex id, so the elimination order is
    deterministic.  Reversing it gives a greedy coloring order that needs at
    most degeneracy+1 colors.  A heap holds one entry per vertex and degree,
    the int degree * n + id, which orders as (degree, id) does and compares
    faster; a vertex gets a new entry each time its degree drops.  Degrees
    only fall, so a vertex's first entry to pop is its current one, and later
    ones are skipped.  Each peel is then the minimum (degree, id) of the
    remaining vertices, in O((n + m) log n) overall (smallest-last ordering,
    Matula and Beck, J. ACM 30(3), 1983).
    """
    # imported here, because loading heapq's C extension costs about 0.2 MB of
    # resident memory, which a process that never peels a graph need not pay
    from heapq import heapify, heappop, heappush

    if g.n == 0:
        raise ValidationError("degeneracy of the empty graph")
    n = g.n
    deg = list(map(len, g.adj))
    heap = [d * n + v for v, d in enumerate(deg)]
    heapify(heap)
    removed = [False] * n
    order = []
    worst = 0
    while heap:
        d, u = divmod(heappop(heap), n)
        if removed[u]:
            continue
        worst = max(worst, d)
        order.append(u)
        removed[u] = True
        for v in g.adj[u]:
            if not removed[v]:
                deg[v] -= 1
                heappush(heap, deg[v] * n + v)
    return DegeneracyReport(worst, tuple(order))


def chord_budget_degeneracy_bound(budget: int) -> int:
    """Smallest d >= 0 with d(d+1) >= 2*budget + 2, found without floats."""
    if budget < 0:
        raise ValidationError("chord budget must be non-negative")
    target = 2 * budget + 2
    d = max(0, isqrt(target) - 1)
    while d * (d + 1) < target:
        d += 1
    return d


# --- generators ------------------------------------------------------------

_ICOSAHEDRON = {
    0: (1, 2, 3, 4, 5),
    1: (0, 2, 5, 6, 7),
    2: (0, 1, 3, 7, 8),
    3: (0, 2, 4, 8, 9),
    4: (0, 3, 5, 9, 10),
    5: (0, 1, 4, 6, 10),
    6: (1, 5, 7, 10, 11),
    7: (1, 2, 6, 8, 11),
    8: (2, 3, 7, 9, 11),
    9: (3, 4, 8, 10, 11),
    10: (4, 5, 6, 9, 11),
    11: (6, 7, 8, 9, 10),
}


def generate(family: str, params=None, seed: int | None = None) -> Graph:
    """Build a named graph family deterministically.

    Families: complete(n), complete_bipartite(a, b), cycle(n), petersen,
    icosahedron, random_min_degree(n, min_degree[, avg]), random_regular(n, d).
    Random families require a seed and return the same graph for the same seed.
    """
    params = dict(params or {})

    def take(key, required=True):
        if key not in params:
            if required:
                raise ValidationError(f"family {family!r} needs parameter {key!r}")
            return None
        value = params.pop(key)
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ValidationError(f"parameter {key!r} must be an integer, got {value!r}") from None

    if family == "complete":
        n = take("n")
        if n < 1:
            raise ValidationError("complete graph needs n >= 1")
        g = Graph(n, itertools.combinations(range(n), 2))
    elif family == "complete_bipartite":
        a, b = take("a"), take("b")
        if a < 1 or b < 1:
            raise ValidationError("complete bipartite graph needs a, b >= 1")
        g = Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])
    elif family == "cycle":
        n = take("n")
        if n < 3:
            raise ValidationError("cycle needs n >= 3")
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    elif family == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        g = Graph(10, outer + spokes + inner)
    elif family == "icosahedron":
        g = Graph(12, [(u, v) for u, nbrs in _ICOSAHEDRON.items() for v in nbrs if u < v])
    elif family == "random_min_degree":
        n, k = take("n"), take("min_degree")
        avg = take("avg", required=False)
        g = _random_min_degree(n, k, avg, _rng(family, seed))
    elif family == "random_regular":
        n, d = take("n"), take("d")
        g = _random_regular(n, d, _rng(family, seed))
    else:
        raise ValidationError(f"unknown family {family!r}")

    if params:
        raise ValidationError(f"unused parameters for family {family!r}: {sorted(params)}")
    return g


def _rng(family: str, seed) -> random.Random:
    if seed is None:
        raise ValidationError(f"family {family!r} requires a seed")
    return random.Random(int(seed))


def _random_min_degree(n: int, k: int, avg, rng: random.Random) -> Graph:
    """Binomial graph patched up to minimum degree k and connectivity.

    The base density targets average degree `avg` (default 2k, capped at n-1).
    Patches only ever add edges, so the degree floor survives them.
    """
    if k < 0 or n <= k:
        raise ValidationError("random_min_degree needs 0 <= min_degree < n")
    if avg is not None and avg < 0:
        raise ValidationError("random_min_degree needs avg >= 0")
    target = min(n - 1, 2 * k if avg is None else avg)
    adj = [set() for _ in range(n)]

    def add(u, v):
        adj[u].add(v)
        adj[v].add(u)

    threshold = target / (n - 1) if n > 1 else 0.0
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < threshold:
                add(u, v)

    for u in range(n):
        while len(adj[u]) < k:
            candidates = [v for v in range(n) if v != u and v not in adj[u]]
            add(u, rng.choice(candidates))

    # stitch components together; new edges keep every degree at least k
    comp = list(range(n))

    def root(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for u in range(n):
        for v in adj[u]:
            ru, rv = root(u), root(v)
            if ru != rv:
                comp[max(ru, rv)] = min(ru, rv)
    while True:
        parts = {}
        for u in range(n):
            parts.setdefault(root(u), []).append(u)
        if len(parts) == 1:
            break
        groups = sorted(parts.values())
        u = rng.choice(groups[0])
        v = rng.choice(groups[1])
        add(u, v)
        comp[max(root(u), root(v))] = min(root(u), root(v))

    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def _random_regular(n: int, d: int, rng: random.Random) -> Graph:
    """Configuration-model pairing, retried until it lands on a simple graph."""
    if d < 0 or n <= d:
        raise ValidationError("random_regular needs 0 <= d < n")
    if n * d % 2:
        raise ValidationError("random_regular needs n*d even")
    stubs = [u for u in range(n) for _ in range(d)]
    for _ in range(2000):
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if any(u == v for u, v in pairs):
            continue
        canonical = {edge(u, v) for u, v in pairs}
        if len(canonical) == len(pairs):
            return Graph(n, sorted(canonical))
    raise ValidationError("pairing model failed to produce a simple graph; try another seed")


def to_dot(g: Graph, arcs=None, name: str = "G") -> str:
    """Undirected DOT text, one line per edge; with arcs, one fill color per arc."""
    palette = (
        "lightblue", "lightgreen", "lightsalmon", "gold",
        "plum", "lightcyan", "wheat", "lightpink",
    )
    lines = [f"graph {name} {{"]
    if arcs:
        for i, arc in enumerate(arcs):
            color = palette[i % len(palette)]
            for v in arc:
                lines.append(f'  {v} [style=filled, fillcolor="{color}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
