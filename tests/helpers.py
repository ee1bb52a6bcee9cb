"""Small named graphs and corpus builders shared across the test modules."""

import random

from chordcycles import Graph, generate


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
