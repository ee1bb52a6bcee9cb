import random

import pytest
from hypothesis import given, settings, strategies as st

from chordcycles import (
    Graph,
    ParseError,
    ValidationError,
    chord_budget_degeneracy_bound,
    contract_edges,
    degeneracy,
    degree_stats,
    edge,
    generate,
    induced_subgraph,
    parse_edge_list,
    to_dot,
)
from chordcycles.oracle import brute_degeneracy

from helpers import (
    complete,
    connected,
    icosahedron,
    petersen,
    prism,
    random_graph,
    reference_adjacency,
    reference_degeneracy,
    reference_induced_subgraph,
    reference_quotient,
)


def graphs(max_n=9):
    return st.integers(min_value=0, max_value=2**31 - 1).map(
        lambda s: random_graph(random.Random(s), n_max=max_n)
    )


class TestGraphBasics:
    def test_dedup_and_count(self):
        g = Graph(4, [(0, 1), (1, 0), (2, 3)])
        assert g.edge_count == 2
        assert g.edges() == [(0, 1), (2, 3)]

    def test_loop_rejected(self):
        with pytest.raises(ValidationError):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            Graph(2, [(0, 2)])

    def test_edge_canonical(self):
        assert edge(5, 2) == (2, 5)
        assert edge(2, 5) == (2, 5)

    def test_equality_ignores_edge_order(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)


FAULTS = ("none", "negative", "far_negative", "id_n", "loop", "duplicate")
CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "set": set,
    "generator": lambda edges: (e for e in edges),
}


def outcome(build):
    try:
        return build()
    except ValidationError as exc:
        return "raised", str(exc)


class TestGraphCoreParity:
    """The bulk constructor, `induced_subgraph` and `contract_edges` agree
    with edge-by-edge references on adjacency, edge count and error text."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.lists(st.sampled_from(FAULTS), max_size=3),
        st.sampled_from(sorted(CONTAINERS)),
    )
    def test_constructor_matches_reference(self, seed, faults, container):
        rng = random.Random(seed)
        n = rng.randint(0, 9)
        size = rng.randint(0, 20) if n else 0
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(size)]
        edges = [(u, v) for u, v in edges if u != v]
        for fault in faults:
            u = rng.randrange(n) if n else 0
            bad = {
                "none": None,
                "negative": (u, -1),
                "far_negative": (-n - 2, u),
                "id_n": (n, u),
                "loop": (u, u),
                "duplicate": (edges[rng.randrange(len(edges))][::-1] if edges else None),
            }[fault]
            if bad is not None:
                edges.insert(rng.randint(0, len(edges)), bad)
        make = CONTAINERS[container]
        fixed = make(edges) if container == "set" else None  # one iteration order for both

        def new():
            g = Graph(n, fixed if fixed is not None else make(edges))
            return g.adj, g.edge_count

        def old():
            return reference_adjacency(n, fixed if fixed is not None else make(edges))

        assert outcome(new) == outcome(old)

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=12), st.integers(min_value=0, max_value=2**31 - 1))
    def test_induced_subgraph_matches_reference(self, g, seed):
        rng = random.Random(seed)
        vertices = [v for v in range(-2, g.n + 2) if rng.random() < 0.5]
        if rng.random() < 0.7:
            vertices = [v for v in vertices if 0 <= v < g.n]
        vertices = vertices + vertices[: rng.randint(0, len(vertices))]  # repeats

        def new():
            sub, old_ids = induced_subgraph(g, vertices)
            return sub.n, sub.adj, sub.edge_count, old_ids

        def old():
            sub, old_ids = reference_induced_subgraph(g, vertices)
            return sub.n, sub.adj, sub.edge_count, old_ids

        assert outcome(new) == outcome(old)

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=12), st.integers(min_value=0, max_value=2**31 - 1))
    def test_quotient_matches_reference(self, g, seed):
        rng = random.Random(seed)
        picked = [e for e in g.edges() if rng.random() < rng.random()]
        q, plan = contract_edges(g, picked)
        ref = reference_quotient(g, plan.class_of)
        assert (q.n, q.adj, q.edge_count) == (ref.n, ref.adj, ref.edge_count)

    def test_quotient_matches_reference_on_a_large_host(self):
        g = generate("random_min_degree", {"n": 400, "min_degree": 8}, seed=3)
        rng = random.Random(3)
        picked = [e for e in g.edges() if rng.random() < 0.3]
        q, plan = contract_edges(g, picked)
        ref = reference_quotient(g, plan.class_of)
        assert (q.n, q.adj, q.edge_count) == (ref.n, ref.adj, ref.edge_count)
        sub, old_ids = induced_subgraph(g, range(0, 400, 3))
        assert (sub, old_ids) == reference_induced_subgraph(g, range(0, 400, 3))


class TestParseEdgeList:
    def test_comments_and_blanks(self):
        g = parse_edge_list("# header\n0 1\n\n1 2  # trailing\n")
        assert g.n == 3 and g.edge_count == 2

    def test_bytes_accepted(self):
        assert parse_edge_list(b"0 1\n").edge_count == 1

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_edge_list("0 x\n")

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_edge_list("0 1 2\n")

    def test_loop_flagged(self):
        with pytest.raises(ValidationError):
            parse_edge_list("3 3\n")

    def test_tabs_crlf_and_comments_parse(self):
        g = parse_edge_list("# only a comment\r\n0\t4 # trailing\r\n\t2  1\t\r\n   \r\n3 4#tight\n")
        assert (g.n, sorted(g.edges())) == (5, [(0, 4), (1, 2), (3, 4)])

    # Each bad line follows lines the parser must skip or accept, so the
    # pinned line number counts them; the message quotes the whole line,
    # comment included, stripped of outer whitespace.
    @pytest.mark.parametrize("text, error, message", [
        ("0 1 # trailing\n1 2 3\n", ParseError, "expected 'u v' at line 2: '1 2 3'"),
        ("0 1 2 # three\n", ParseError, "expected 'u v' at line 1: '0 1 2 # three'"),
        ("# only a comment\n\n0 x\n", ParseError, "non-integer endpoint at line 3: '0 x'"),
        ("0\t1\n\t1 -2\t\n", ParseError, "negative vertex id at line 2: '1 -2'"),
        ("0 1\r\n# c\r\n2 2\r\n", ValidationError, "loop at line 3"),
        ("0\t1\t2\n", ParseError, "expected 'u v' at line 1: '0\\t1\\t2'"),
        ("#\n0\n", ParseError, "expected 'u v' at line 2: '0'"),
        ("1.5 2\n", ParseError, "non-integer endpoint at line 1: '1.5 2'"),
        ("-1 0 # neg\n", ParseError, "negative vertex id at line 1: '-1 0 # neg'"),
    ])
    def test_exact_messages(self, text, error, message):
        with pytest.raises(error) as caught:
            parse_edge_list(text)
        assert type(caught.value) is error and str(caught.value) == message


class TestFamilies:
    def test_petersen_shape(self):
        g = petersen()
        assert g.n == 10 and g.edge_count == 15
        assert all(g.degree(u) == 3 for u in range(10))
        assert g.has_edge(0, 5) and g.has_edge(5, 7)

    def test_icosahedron_shape(self):
        g = icosahedron()
        assert g.n == 12 and g.edge_count == 30
        assert all(g.degree(u) == 5 for u in range(12))

    def test_complete_bipartite(self):
        g = generate("complete_bipartite", {"a": 3, "b": 3})
        assert g.n == 6 and g.edge_count == 9

    def test_random_min_degree_deterministic(self):
        a = generate("random_min_degree", {"n": 30, "min_degree": 4}, seed=11)
        b = generate("random_min_degree", {"n": 30, "min_degree": 4}, seed=11)
        assert a == b

    def test_random_min_degree_honors_degree_and_connectivity(self):
        for seed in range(25):
            g = generate("random_min_degree", {"n": 24, "min_degree": 3}, seed=seed)
            assert min(g.degree(u) for u in range(g.n)) >= 3
            assert connected(g)

    def test_random_min_degree_avg_range(self):
        # avg below min_degree is legal (the patch-up supplies the floor);
        # a negative avg is not
        g = generate("random_min_degree", {"n": 10, "min_degree": 3, "avg": 0}, seed=1)
        assert min(g.degree(u) for u in range(g.n)) >= 3
        with pytest.raises(ValidationError, match="avg >= 0"):
            generate("random_min_degree", {"n": 10, "min_degree": 3, "avg": -5}, seed=1)

    def test_random_min_degree_joins_components(self):
        # no floor and no random edges: ten isolated vertices, joined by 9 edges
        params = {"n": 10, "min_degree": 0, "avg": 0}
        g = generate("random_min_degree", params, seed=1)
        assert connected(g) and g.edge_count == 9
        assert generate("random_min_degree", params, seed=1) == g

    def test_random_family_requires_seed(self):
        with pytest.raises(ValidationError):
            generate("random_min_degree", {"n": 10, "min_degree": 2})

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            generate("moebius", {"n": 8})

    def test_unused_params_rejected(self):
        with pytest.raises(ValidationError):
            generate("complete", {"n": 4, "q": 1})


class TestContractEdges:
    def test_triangle_to_point_pair(self):
        g = complete(3)
        q, plan = contract_edges(g, [(0, 1)])
        assert q.n == 2 and q.edge_count == 1
        assert plan.class_of == (0, 0, 1)

    def test_parallel_edges_collapse(self):
        # Contracting one side of a 4-cycle merges the two paths between
        # the endpoints into a single quotient edge.
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        q, _ = contract_edges(g, [(1, 2)])
        assert q.n == 3 and q.edge_count == 3

    def test_arcs_follow_cycle(self):
        g = complete(5)
        cycle = (0, 1, 2, 3, 4)
        q, plan = contract_edges(g, [(1, 2), (3, 4)], cycle=cycle)
        assert plan.arcs == ((0,), (1, 2), (3, 4))
        assert q.n == 3

    def test_non_cycle_edge_rejected_for_arcs(self):
        g = complete(5)
        with pytest.raises(ValidationError):
            contract_edges(g, [(0, 2)], cycle=(0, 1, 2, 3, 4))

    def test_foreign_edge_rejected(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValidationError):
            contract_edges(g, [(0, 2)])

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=8), st.integers(min_value=0, max_value=10**9))
    def test_quotient_edge_count_never_grows(self, g, pick):
        edges = g.edges()
        if not edges:
            return
        e = edges[pick % len(edges)]
        q, plan = contract_edges(g, [e])
        assert q.n == g.n - 1
        assert q.edge_count <= g.edge_count - 1
        assert len(set(plan.class_of)) == q.n


class TestDegeneracy:
    def test_forest_is_one(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert degeneracy(g).degeneracy == 1

    def test_complete(self):
        assert degeneracy(complete(6)).degeneracy == 5

    def test_petersen(self):
        assert degeneracy(petersen()).degeneracy == 3

    def test_order_is_valid_elimination(self):
        g = prism()
        report = degeneracy(g)
        remaining = set(range(g.n))
        for v in report.elimination_order:
            assert len(g.adj[v] & remaining) <= report.degeneracy
            remaining.remove(v)
        assert not remaining

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=7))
    def test_matches_brute_force(self, g):
        if g.n == 0:
            return
        assert degeneracy(g).degeneracy == brute_degeneracy(g)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_heap_matches_reference_order(self, seed):
        g = random_graph(random.Random(seed), n_max=30)
        report = degeneracy(g)
        assert (report.degeneracy, report.elimination_order) == reference_degeneracy(g)

    def test_heap_matches_reference_order_on_a_large_host(self):
        g = generate("random_min_degree", {"n": 600, "min_degree": 8}, seed=5)
        report = degeneracy(g)
        assert (report.degeneracy, report.elimination_order) == reference_degeneracy(g)


class TestChordBudgetBound:
    def test_small_table(self):
        assert [chord_budget_degeneracy_bound(b) for b in range(8)] == [
            1, 2, 2, 3, 3, 3, 4, 4,
        ]

    def test_monotone(self):
        values = [chord_budget_degeneracy_bound(b) for b in range(60)]
        assert values == sorted(values)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            chord_budget_degeneracy_bound(-1)


class TestStatsAndExport:
    def test_degree_stats_exact_rational(self):
        from fractions import Fraction

        stats = degree_stats(prism())
        assert stats.min_degree == 3
        assert stats.avg_degree == Fraction(3)

    def test_induced_subgraph_relabels(self):
        sub, old_ids = induced_subgraph(petersen(), [0, 5, 7, 2])
        assert old_ids == [0, 2, 5, 7]
        assert sub.has_edge(0, 2) and sub.has_edge(2, 3)

    def test_to_dot_plain(self):
        out = to_dot(cyc4())
        assert out.startswith("graph G {") and "0 -- 1;" in out

    def test_to_dot_arcs_shaded(self):
        out = to_dot(complete(3), arcs=((0,), (1,), (2,)), name="K3")
        assert "fillcolor" in out and out.startswith("graph K3 {")


def cyc4():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
