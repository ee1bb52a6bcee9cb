"""Small named graphs, random corpora and independent checkers of
contraction and dense-cycle artifacts, shared across the test modules."""

import random
from fractions import Fraction

from chordcycles import Graph, ValidationError, generate


def complete(n):
    return generate("complete", {"n": n})


def cyc(n):
    return generate("cycle", {"n": n})


def petersen():
    return generate("petersen")


def icosahedron():
    return generate("icosahedron")


def prism():
    # Triangular prism: two triangles joined by a perfect matching.
    return Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                     (0, 3), (1, 4), (2, 5)])


def stacked_triangulation(n, seed):
    """A planar 3-tree on n >= 3 vertices: start from a triangle, then put
    each new vertex inside a random face and join it to the face's corners."""
    rng = random.Random(seed)
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return Graph(n, edges)


def apex(g):
    """g plus one vertex joined to every vertex of g.

    Over a planar g this has no K6 minor: deleting the apex's branch set
    would leave a K5 minor in a planar graph.
    """
    return Graph(g.n + 1, g.edges() + [(v, g.n) for v in range(g.n)])


def figure_eight():
    """A 15-cycle plus complete bipartite chords between two 5-vertex windows."""
    edges = [(i, (i + 1) % 15) for i in range(15)]
    edges += [(i, j) for i in range(5) for j in range(8, 13)]
    return Graph(15, edges)


def connected(g):
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def random_graph(rng, n_max=9):
    """Erdos-Renyi style graph with a random edge probability, any shape."""
    n = rng.randint(1, n_max)
    p = rng.random()
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def min_degree_corpus(k, count, n_max=200):
    """Deterministic corpus of random connected graphs with min degree >= k.

    The instance recipe is fixed so every module sampling it sees the same
    graphs: trial t draws its size and generator seed from Random(1000k + t).
    """
    out = []
    for trial in range(count):
        rng = random.Random(1000 * k + trial)
        n = rng.randint(k + 2, n_max)
        seed = rng.randint(0, 10**9)
        g = generate("random_min_degree", {"n": n, "min_degree": k}, seed=seed)
        out.append((g, k, trial, seed))
    return out


def replay(seed, derivation) -> tuple:
    """Re-run a derivation from its seed sequence on whole paths: the
    reference that implicit witnesses and the improvement loop are checked
    against.  No graph needed; each step is validated against the path."""
    seq = tuple(seed)
    for (u, v), w in derivation:
        if seq[-1] != u:
            raise ValidationError(f"derivation expects end {u}, path ends at {seq[-1]}")
        i = seq.index(v) if v in seq else len(seq)
        if i >= len(seq) - 2 or seq[i + 1] != w:
            raise ValidationError(f"derivation step ({u}, {v}) -> {w} does not fit the path")
        seq = seq[: i + 1] + tuple(reversed(seq[i + 1:]))
    return seq


def contraction_claims_hold(obj):
    """Whether a `contraction` artifact's claims hold, decided from its own
    fields with nothing from the library: each stage is rebuilt from the
    input edges with a separate union-find.  Malformed input is False.

    It is meant as a second opinion on `certify`, so it is no stricter than
    it has to be: a stage cycle may start at any class, and X2 need only
    state the same stage as X0 or X1.
    """
    try:
        return _contraction_claims_hold(obj)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return False


def dense_cycle_claims_hold(obj):
    """Whether a `dense_cycle` artifact's Theorem 1 claim holds, decided from
    its own fields with nothing from the library: `cycle` is a cycle of
    `graph`, `high_degree` names at least k+1 of its vertices, each with at
    least k neighbours on it, and `chords` are exactly its chords, at least
    (k+1)(k-2)/2 of them, for an integer k >= 2.  The closure, which shows
    how the cycle was found, is not checked.  Malformed input is False.
    """
    try:
        return _dense_cycle_claims_hold(obj)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return False


def cyclic_minor_claims_hold(obj):
    """Whether a `cyclic_minor` artifact's claim holds, decided from its own
    fields with nothing from the library: `target_graph` is the graph that
    `target` names, `target_cycle` runs through all its vertices along its
    edges, `arcs` are non-empty, one per target vertex, and are `host_cycle`
    cut in order, `host_cycle` is a cycle of `graph`, and every target edge
    between arcs that are not neighbours on the cycle has a host edge between
    those arcs.  The origin must be "constructive" or "oracle" and
    `verified` true.  Malformed input is False.
    """
    try:
        return _cyclic_minor_claims_hold(obj)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return False


def _is_int(x):
    return type(x) is int


def _named_edges(name, n):
    """The edge set of the target a name stands for, on n vertices, or None:
    K3..K6 are complete, and K'll (l = n/2) or Kll:<l> is K_{l,l} on sides
    0..l-1 and l..2l-1 with a path through each side."""
    if name in ("K3", "K4", "K5", "K6"):
        size = int(name[1])
        return {frozenset((u, v)) for u in range(size) for v in range(u)} if n == size else None
    if name == "K'll":
        ell = n // 2
    elif name.startswith("Kll:"):
        ell = int(name[4:])
    else:
        return None
    if ell < 1 or n != 2 * ell:
        return None
    edges = {frozenset((x, ell + y)) for x in range(ell) for y in range(ell)}
    edges |= {frozenset((s + x, s + x + 1)) for s in (0, ell) for x in range(ell - 1)}
    return edges


def _cyclic_minor_claims_hold(obj):
    if obj["origin"] not in ("constructive", "oracle") or obj["verified"] is not True:
        return False
    host, target = _adjacency(obj["graph"]), _adjacency(obj["target_graph"])
    if host is None or target is None or not _is_cycle(host, obj["host_cycle"]):
        return False
    stated = {frozenset((u, v)) for u in range(len(target)) for v in target[u]}
    if not isinstance(obj["target"], str) or stated != _named_edges(obj["target"], len(target)):
        return False
    order, arcs = obj["target_cycle"], obj["arcs"]
    k = len(target)
    if not all(map(_is_int, order)) or sorted(order) != list(range(k)) or len(arcs) != k:
        return False
    if k == 2:
        if order[1] not in target[order[0]]:
            return False
    elif not _is_cycle(target, order):
        return False
    if [v for arc in arcs for v in arc] != obj["host_cycle"] or not all(arcs):
        return False
    for p in range(k):
        for q in range(p + 2, k):
            if (p, q) == (0, k - 1) or order[q] not in target[order[p]]:
                continue
            if not any(v in host[u] for u in arcs[p] for v in arcs[q]):
                return False
    return True


def _adjacency(graph):
    """Neighbour sets of a JSON graph, or None when it is not one."""
    n = graph["n"]
    if not _is_int(n):
        return None
    adj = [set() for _ in range(max(n, 0))]
    for u, v in graph["edges"]:
        if not (_is_int(u) and _is_int(v) and 0 <= u < n and 0 <= v < n and u != v):
            return None
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _is_cycle(adj, cycle):
    t = len(cycle)
    if t < 3 or not all(_is_int(u) and 0 <= u < len(adj) for u in cycle) or len(set(cycle)) != t:
        return False
    return all(cycle[i - 1] in adj[u] for i, u in enumerate(cycle))


def _dense_cycle_claims_hold(obj):
    k, cycle, high, chords = obj["k"], obj["cycle"], obj["high_degree"], obj["chords"]
    adj = _adjacency(obj["graph"])
    if not (_is_int(k) and k >= 2) or adj is None or not _is_cycle(adj, cycle):
        return False
    on_cycle = set(cycle)
    if not all(_is_int(v) and v in on_cycle and len(adj[v] & on_cycle) >= k for v in high):
        return False
    if len(set(high)) < k + 1:
        return False
    ring = {frozenset((cycle[i - 1], u)) for i, u in enumerate(cycle)}
    actual = {frozenset((u, v)) for u in cycle for v in adj[u] if v in on_cycle} - ring
    if not all(len(c) == 2 and _is_int(c[0]) and _is_int(c[1]) for c in chords):
        return False
    stated = {frozenset(c) for c in chords}
    return stated == actual and len(chords) == len(actual) and 2 * len(actual) >= (k + 1) * (k - 2)


def _contraction_claims_hold(obj):
    k, cycle = obj["k"], obj["certificate_cycle"]
    adj = _adjacency(obj["graph"])
    if not (_is_int(k) and k >= 2) or adj is None or not _is_cycle(adj, cycle):
        return False
    # the stages name C's vertices by rank, 0 for the smallest
    rank = {u: i for i, u in enumerate(sorted(cycle))}
    ring = [rank[u] for u in cycle]
    ring_edges = {frozenset((ring[i - 1], ring[i])) for i in range(len(ring))}
    inner_edges = {frozenset((rank[u], rank[v])) for u in cycle for v in adj[u] if v in rank}

    stages = obj["stages"]
    if [stage["label"] for stage in stages] != ["X0", "X1", "X2"]:
        return False
    rebuilt = [_rebuilt_stage(stage, ring, ring_edges, inner_edges) for stage in stages]
    if None in rebuilt:
        return False
    x0, x1, x2 = rebuilt

    # X0: active classes are single uncontracted vertices, and the chords of
    # its cycle between them recount to n_a, n_b and m
    active = x0["active"]
    if not all(len(x0["members"][c]) == 1 for c in active):
        return False
    hits = [0, 0, 0]
    for e in x0["edges"]:
        if e not in x0["cycle_edges"]:
            hits[len(e & active)] += 1
    counts = (obj["n_a"], obj["n_b"], obj["m"])
    if not all(map(_is_int, counts)) or counts != (hits[2], hits[1], len(active)):
        return False
    if 2 * hits[2] + hits[1] < (k - 2) * len(active):
        return False

    # X1: the classes holding X0's active vertices, at min degree ceil((k+2)/2)
    x1_class = {v: c for c, members in enumerate(x1["members"]) for v in members}
    if x1["active"] != {x1_class[min(x0["members"][c])] for c in active}:
        return False
    if x1["min"] < -(-(k + 2) // 2):
        return False

    # X2: one of the two, averaging at least 2(k+1)/3
    if x2["claim"] not in (x0["claim"], x1["claim"]):
        return False
    return 3 * x2["avg"] >= 2 * (k + 1)


def _rebuilt_stage(stage, ring, ring_edges, inner_edges):
    """One stage rebuilt from the input: its classes, quotient edges and
    degrees, or None where that differs from what the stage states."""
    t = len(ring)
    parent = list(range(t))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    contracted = set()
    for u, v in stage["contracted_edges"]:
        e = frozenset((u, v))
        if not (_is_int(u) and _is_int(v)) or e not in ring_edges:
            return None
        contracted.add(e)
        a, b = root(u), root(v)
        parent[max(a, b)] = min(a, b)
    # classes are numbered by their smallest vertex, and each must be one
    # run of C: walking C from a class boundary meets every class once
    roots = sorted({root(x) for x in range(t)})
    number = {r: i for i, r in enumerate(roots)}
    members = [set() for _ in roots]
    for x in range(t):
        members[number[root(x)]].add(x)
    walk = [number[root(x)] for x in ring]
    start = next((i for i in range(t) if walk[i] != walk[i - 1]), 0)
    walk = walk[start:] + walk[:start]
    runs = [c for i, c in enumerate(walk) if i == 0 or c != walk[i - 1]]
    size = len(runs)
    if size != len(roots) or size < 3:
        return None
    if not any(stage["cycle"] == runs[i:] + runs[:i] for i in range(size)):
        return None

    edges = set()
    for e in inner_edges:
        a, b = (number[root(x)] for x in e)
        if a != b:
            edges.add(frozenset((a, b)))
    graph = stage["graph"]
    stated = set()
    for u, v in graph["edges"]:
        if not (_is_int(u) and _is_int(v)):
            return None
        stated.add(frozenset((u, v)))
    if not _is_int(graph["n"]) or graph["n"] != size or stated != edges:
        return None
    degree = [0] * size
    for e in edges:
        for c in e:
            degree[c] += 1
    avg = Fraction(2 * len(edges), size)
    if not _is_int(stage["min_degree"]) or stage["min_degree"] != min(degree):
        return None
    if stage["avg_degree"] != str(avg):
        return None
    active = stage["active_classes"]
    if not all(_is_int(c) and 0 <= c < size for c in active):
        return None
    active = frozenset(active)
    claim = (size, frozenset(edges), tuple(runs), active, frozenset(contracted), min(degree), avg)
    return {
        "members": members,
        "edges": edges,
        "cycle_edges": {frozenset((runs[i - 1], runs[i])) for i in range(size)},
        "active": active,
        "min": min(degree),
        "avg": avg,
        "claim": claim,
    }
