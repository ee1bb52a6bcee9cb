import ast
import inspect
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from chordcycles import (
    CyclicMinorModel,
    find_dense_cycle,
    Graph,
    GridOutcome,
    PreconditionError,
    ValidationError,
    generate,
    grid_block_partition,
    k3_model,
    k4_model,
    k5_model,
    k6_from_bipartite,
    kll_prime_graph,
    kll_prime_model,
    verify_model,
)
from chordcycles import artifacts, cli, minors
from chordcycles.contraction import pipeline
from chordcycles.graph import edge
from chordcycles.oracle import first_hamiltonian_cycle

from helpers import complete, cyc, figure_eight, icosahedron, petersen, prism


class TestVerifyModel:
    def k3_on_c3(self):
        g = cyc(3)
        return CyclicMinorModel(
            host=g,
            host_cycle=(0, 1, 2),
            arcs=((0,), (1,), (2,)),
            target=complete(3),
            target_cycle=(0, 1, 2),
            target_name="K3",
        )

    def test_accepts_identity_triangle(self):
        assert verify_model(self.k3_on_c3())

    def test_missing_target_edge_fails(self):
        # C4 split into 4 singleton arcs misses both diagonals of K4.
        g = cyc(4)
        m = CyclicMinorModel(
            host=g,
            host_cycle=(0, 1, 2, 3),
            arcs=((0,), (1,), (2,), (3,)),
            target=complete(4),
            target_cycle=(0, 1, 2, 3),
            target_name="K4",
        )
        assert not verify_model(m)

    def test_arcs_must_tile_cycle(self):
        base = self.k3_on_c3()
        m = CyclicMinorModel(
            host=base.host,
            host_cycle=(0, 1, 2),
            arcs=((0,), (2,), (1,)),
            target=base.target,
            target_cycle=(0, 1, 2),
            target_name="K3",
        )
        with pytest.raises(ValidationError):
            verify_model(m)

    def test_empty_arc_rejected(self):
        base = self.k3_on_c3()
        m = CyclicMinorModel(
            host=base.host,
            host_cycle=(0, 1, 2),
            arcs=((0,), (1, 2), ()),
            target=base.target,
            target_cycle=(0, 1, 2),
            target_name="K3",
        )
        with pytest.raises(ValidationError):
            verify_model(m)

    def test_target_cycle_must_be_hamiltonian(self):
        base = self.k3_on_c3()
        m = CyclicMinorModel(
            host=base.host,
            host_cycle=(0, 1, 2),
            arcs=((0,), (1,), (2,)),
            target=complete(3),
            target_cycle=(0, 1),
            target_name="K3",
        )
        with pytest.raises(ValidationError):
            verify_model(m)

    def test_surplus_host_edges_harmless(self):
        g = complete(5)
        m = CyclicMinorModel(
            host=g,
            host_cycle=(0, 1, 2, 3, 4),
            arcs=((0,), (1,), (2, 3, 4)),
            target=complete(3),
            target_cycle=(0, 1, 2),
            target_name="K3",
        )
        assert verify_model(m)


class TestK3Model:
    def test_triangle(self):
        m = k3_model(cyc(3))
        assert m.arcs == ((0,), (1,), (2,))
        assert verify_model(m)

    def test_c9_balanced_arcs(self):
        m = k3_model(cyc(9))
        assert m.arcs == ((0, 1, 2), (3, 4, 5), (6, 7, 8))

    def test_petersen(self):
        m = k3_model(petersen())
        assert m.host_cycle == (0, 1, 2, 3, 4)
        assert m.arcs == ((0, 1), (2, 3), (4,))

    def test_degree_precondition(self):
        tree = Graph(4, [(0, 1), (1, 2), (1, 3)])
        with pytest.raises(PreconditionError):
            k3_model(tree)

    def test_random_min_degree_two_hosts(self):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(3, 12)
            g = generate("random_min_degree", {"n": n, "min_degree": 2}, seed=seed)
            assert verify_model(k3_model(g))


class TestK4Model:
    def test_k4_itself(self):
        m = k4_model(complete(4), (0, 1, 2, 3))
        assert m.arcs == ((0,), (1,), (2,), (3,))
        assert verify_model(m)

    def test_prism(self):
        m = k4_model(prism(), (0, 1, 4, 3, 5, 2))
        assert m.host_cycle == (2, 0, 1, 4, 3, 5)
        assert m.arcs == ((2,), (0,), (1,), (4, 3, 5))

    def test_chordless_cycle_rejected(self):
        with pytest.raises(PreconditionError):
            k4_model(cyc(5), tuple(range(5)))

    def test_degree_precondition(self):
        g = cyc(4)
        with pytest.raises(PreconditionError):
            k4_model(g, (0, 1, 2, 3))

    def test_dense_random_hosts(self):
        for seed in range(25):
            g = generate("random_min_degree", {"n": 9, "min_degree": 4}, seed=seed)
            cycle = first_hamiltonian_cycle(g)
            if cycle is None:
                continue
            assert verify_model(k4_model(g, cycle))


class TestK5Model:
    def test_k7(self):
        m = k5_model(complete(7), tuple(range(7)))
        assert m.host_cycle == (3, 4, 5, 6, 0, 1, 2)
        assert m.arcs == ((3,), (4, 5, 6), (0,), (1,), (2,))
        assert verify_model(m)

    def test_k8(self):
        m = k5_model(complete(8), tuple(range(8)))
        assert m.host_cycle == (4, 5, 6, 7, 0, 1, 2, 3)
        assert m.arcs == ((4,), (5, 6, 7), (0, 1), (2,), (3,))
        assert verify_model(m)

    def test_icosahedron_too_sparse(self):
        g = icosahedron()
        cycle = first_hamiltonian_cycle(g)
        with pytest.raises(PreconditionError) as exc:
            k5_model(g, cycle)
        assert "30 < 36" in str(exc.value)

    def test_dense_random_hosts(self):
        hits = 0
        for seed in range(30):
            g = generate("random_min_degree", {"n": 10, "min_degree": 6}, seed=seed)
            if g.edge_count < 3 * g.n:
                continue
            cycle = first_hamiltonian_cycle(g)
            if cycle is None:
                continue
            assert verify_model(k5_model(g, cycle))
            hits += 1
        assert hits >= 10


def _reference_blocks_quotient(host, c, ivs):
    """The block quotient rebuilt from scratch over all host edges."""
    owner = {}
    for i, (start, length) in enumerate(ivs):
        for k in range(length):
            owner[c[(start + k) % len(c)]] = i
    edges = {edge(owner[u], owner[v]) for u, v in host.edges() if owner[u] != owner[v]}
    return Graph(len(ivs), sorted(edges))


def _reference_density_fixpoint(host, c):
    """Rebuild the quotient after every merge; merge the first pair that
    keeps |E| >= 3|V|, scanning from the block holding position 0."""
    ivs = [(i, 1) for i in range(len(c))]
    while True:
        t = len(ivs)
        q = _reference_blocks_quotient(host, c, ivs)
        for i in range(t):
            j = (i + 1) % t
            if q.edge_count - 1 - len(q.adj[i] & q.adj[j]) >= 3 * (t - 1):
                merged = (ivs[i][0], ivs[i][1] + ivs[j][1])
                ivs = [merged] + ivs[1:t - 1] if j == 0 else ivs[:i] + [merged] + ivs[j + 1:]
                break
        else:
            return ivs, q


def _reference_cycle_rows(host, cycle):
    """Sorted 1-columns of the dense adjacency matrix in cycle order."""
    n = len(cycle)
    matrix = [[int(i != j and host.has_edge(cycle[i], cycle[j])) for j in range(n)]
              for i in range(n)]
    return [[j for j, x in enumerate(row) if x] for row in matrix]


def _chorded_cycle(n, extra, seed):
    """A Hamiltonian cycle in random vertex order plus random chords, with
    at least 3n + extra edges (capped at the complete graph)."""
    rng = random.Random(seed)
    cycle = list(range(n))
    rng.shuffle(cycle)
    edges = {edge(cycle[i], cycle[(i + 1) % n]) for i in range(n)}
    want = min(3 * n + extra, n * (n - 1) // 2)
    while len(edges) < want:
        u, v = rng.sample(range(n), 2)
        edges.add(edge(u, v))
    return Graph(n, sorted(edges)), tuple(cycle)


def _x2_quotient(n, seed):
    g = generate("random_min_degree", {"n": n, "min_degree": 8}, seed=seed)
    r2 = pipeline(g, find_dense_cycle(g, 8))[2]
    return r2.graph, r2.cycle


class TestAgainstReference:
    """The incremental K5 fixpoint and the sparse grid rows against the
    rebuild-per-merge loop and the dense matrix they replaced."""

    @staticmethod
    def check(host, cycle):
        ivs, q = minors._density_fixpoint(host, cycle)
        assert (ivs, q) == _reference_density_fixpoint(host, cycle)
        assert list(minors._cycle_rows(host, cycle)) == _reference_cycle_rows(host, cycle)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=7, max_value=28),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_chorded_cycles(self, n, extra, seed):
        host, cycle = _chorded_cycle(n, extra, seed)
        self.check(host, cycle)
        assert verify_model(k5_model(host, cycle))

    @pytest.mark.parametrize("n, extra, seed", [(8, 1, 12), (9, 0, 10)])
    def test_merge_across_the_wrap(self, n, extra, seed):
        # the last block merges into the block holding position 0
        host, cycle = _chorded_cycle(n, extra, seed)
        self.check(host, cycle)
        assert minors._density_fixpoint(host, cycle)[0][0] == (n - 1, 2)

    @pytest.mark.parametrize("n, seed", [(90, 0), (120, 1), (150, 2)])
    def test_x2_quotients(self, n, seed):
        host, cycle = _x2_quotient(n, seed)
        assert host.edge_count >= 3 * host.n
        self.check(host, cycle)


class TestGridPartition:
    @staticmethod
    def brute_exists(matrix, a):
        # Every block of the product partition must contain a 1, the
        # diagonal ones included.
        m = len(matrix)
        if a > m:
            return False
        for rows in itertools.combinations(range(1, m), a - 1):
            for cols in itertools.combinations(range(1, m), a - 1):
                rcuts = (0,) + rows + (m,)
                ccuts = (0,) + cols + (m,)
                ok = True
                for i in range(a):
                    for j in range(a):
                        if not any(
                            matrix[r][c]
                            for r in range(rcuts[i], rcuts[i + 1])
                            for c in range(ccuts[j], ccuts[j + 1])
                        ):
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    return True
        return False

    def test_all_ones(self):
        matrix = [[1] * 4 for _ in range(4)]
        out = grid_block_partition(matrix, 2)
        assert out.exact
        assert out.partition.row_cuts == (0, 1, 4)
        assert out.partition.col_cuts == (0, 1, 4)

    def test_identity_has_no_two_partition(self):
        matrix = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        out = grid_block_partition(matrix, 2)
        assert out.exact
        assert out.partition is None
        assert not self.brute_exists(matrix, 2)

    def test_zeros(self):
        out = grid_block_partition([[0] * 3 for _ in range(3)], 2)
        assert out.partition is None and out.exact

    def test_sweep_that_cuts_too_few_blocks_is_inexact_none(self):
        # past 60 rows the sweep runs; the identity shows 61 columns only
        # once all 61 rows are in, so it cuts one block, not 61
        identity = [[int(i == j) for j in range(61)] for i in range(61)]
        assert grid_block_partition(identity, 61) == GridOutcome(None, exact=False)

    def test_one_block(self):
        out = grid_block_partition([[0, 1], [0, 0]], 1)
        assert out.partition is not None

    def test_validation(self):
        with pytest.raises(ValidationError):
            grid_block_partition([[1, 0]], 1)
        with pytest.raises(ValidationError):
            grid_block_partition([[1]], 0)
        with pytest.raises(ValidationError):
            grid_block_partition([[1]], 2)

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_exact_search_matches_brute_force(self, m, a, seed):
        rng = random.Random(seed)
        matrix = [[rng.randint(0, 1) for _ in range(m)] for _ in range(m)]
        if a > m:
            with pytest.raises(ValidationError):
                grid_block_partition(matrix, a)
            return
        out = grid_block_partition(matrix, a)
        assert out.exact
        assert (out.partition is not None) == self.brute_exists(matrix, a)
        if out.partition is not None:
            rcuts, ccuts = out.partition.row_cuts, out.partition.col_cuts
            for i in range(a):
                for j in range(a):
                    assert any(
                        matrix[r][c]
                        for r in range(rcuts[i], rcuts[i + 1])
                        for c in range(ccuts[j], ccuts[j + 1])
                    )


class TestKllPrime:
    def test_target_graph_shape(self):
        g, cycle = kll_prime_graph(3)
        assert g.n == 6
        assert cycle == (0, 1, 2, 3, 4, 5)
        # Complete bipartite part plus a path inside each side.
        assert g.has_edge(0, 3) and g.has_edge(2, 5)
        assert g.has_edge(0, 1) and g.has_edge(4, 5)
        assert not g.has_edge(0, 2)

    def test_k8_l2(self):
        m = kll_prime_model(complete(8), tuple(range(8)), 2)
        assert m.arcs == ((0,), (1,), (2, 3, 4), (5, 6, 7))
        assert verify_model(m)

    def test_bipartite_host(self):
        host = generate("complete_bipartite", {"a": 6, "b": 6})
        cycle = (0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11)
        m = kll_prime_model(host, cycle, 2)
        assert m.arcs == ((0,), (6,), (1, 7, 2, 8), (3, 9, 4, 10, 5, 11))
        assert verify_model(m)

    def test_sparse_cycle_degenerates_to_k2(self):
        m = kll_prime_model(cyc(10), tuple(range(10)), 1)
        assert m is not None
        assert m.arcs == ((0,), (1, 2, 3, 4, 5, 6, 7, 8, 9))
        assert verify_model(m)

    def test_swapped_cut_pair(self):
        # row cut 2 (at 6) lies past column cut 2 (at 5), so the layout
        # swaps the two cut tuples to keep Y1's slack non-negative
        extra = [(1, 3), (1, 12), (2, 7), (2, 11), (4, 6), (4, 12), (5, 13), (6, 9),
                 (6, 10), (7, 9), (7, 10), (8, 10), (9, 13), (10, 12), (10, 13)]
        host = Graph(14, [(i, (i + 1) % 14) for i in range(14)] + extra)
        cycle = tuple(range(14))
        part = grid_block_partition(minors._cycle_rows(host, cycle), 4).partition
        assert part.row_cuts[2] > part.col_cuts[2]
        m = kll_prime_model(host, cycle, 2)
        assert m.arcs == ((0, 1, 2), (3, 4), (5, 6, 7, 8, 9), (10, 11, 12, 13))
        assert verify_model(m)

    def test_not_found_is_none(self):
        assert kll_prime_model(figure_eight(), tuple(range(15)), 4) is None

    def test_ell_validation(self):
        with pytest.raises(ValidationError):
            kll_prime_model(complete(8), tuple(range(8)), 0)


class TestCutModel:
    """`minors._model` turns cut positions into arcs; it is the only place
    in `minors` that builds a `CyclicMinorModel`."""

    def test_starts_wrap_round_the_end(self):
        # the K6 shape: the first arc starts near the end and runs across
        # the wrap; starts past the end count modulo the cycle length
        cycle = (3, 1, 4, 0, 5, 2, 6)
        m = minors._model(complete(7), cycle, (5, 8, 2, 6), "K4")
        assert m.host_cycle == (2, 6, 3, 1, 4, 0, 5)
        assert m.arcs == ((2,), (6, 3), (1,), (4, 0, 5))
        assert m.target_name == "K4" and verify_model(m)

    def test_repeated_start_is_an_empty_arc(self):
        with pytest.raises(ValidationError, match="empty arc"):
            minors._model(complete(7), tuple(range(7)), (0, 7, 1, 2), "K4")

    def test_only_model_builds_models(self):
        def calls(node):
            return sum(
                isinstance(c, ast.Call) and getattr(c.func, "id", None) == "CyclicMinorModel"
                for c in ast.walk(node)
            )

        tree = ast.parse(inspect.getsource(minors))
        tail = next(
            f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_model"
        )
        assert calls(tree) == calls(tail) == 1


class TestTarget:
    @pytest.mark.parametrize("name, build", [
        ("K3", lambda: k3_model(petersen())),
        ("K4", lambda: k4_model(complete(4), (0, 1, 2, 3))),
        ("K5", lambda: k5_model(complete(7), tuple(range(7)))),
        ("K6", lambda: k6_from_bipartite(complete(12), tuple(range(12)))),
        ("Kll:1", lambda: kll_prime_model(cyc(10), tuple(range(10)), 1)),
        ("Kll:2", lambda: kll_prime_model(complete(8), tuple(range(8)), 2)),
    ])
    def test_builders_build_the_named_target(self, name, build):
        model = build()
        label, graph = minors.target(name)
        assert model.target_name == label
        assert model.target == graph
        assert model.target_cycle == tuple(range(graph.n))
        # certify maps the label back to this graph
        obj = json.loads(artifacts.text(artifacts.dump_cyclic_minor(model, "constructive")))
        assert artifacts.certify(obj) == (0, f"cyclic {label} minor ok")

    def test_build_leaves_an_unfound_target_unbuilt(self, monkeypatch):
        # Petersen's X2 is far too short for K'll with side 1000, and the
        # million-edge target graph is not built to find that out
        sides = []
        real = minors.kll_prime_graph
        monkeypatch.setattr(minors, "kll_prime_graph", lambda ell: sides.append(ell) or real(ell))
        assert minors.build(petersen(), "Kll:1000") is None
        assert 1000 not in sides

    def test_names(self):
        assert minors.target("K5") == ("K5", complete(5))
        assert minors.target("Kll:12") == ("K'll", kll_prime_graph(12)[0])

    @pytest.mark.parametrize("name, message", [
        ("Kll:0", "bad target 'Kll:0'"),
        ("Kll:x", "bad target 'Kll:x'"),
        ("K7", "unknown target 'K7': expected K3, K4, K5, K6 or Kll:<l>"),
        ("K'll", "unknown target \"K'll\": expected K3, K4, K5, K6 or Kll:<l>"),
    ])
    def test_bad_names(self, name, message):
        with pytest.raises(ValidationError) as info:
            minors.target(name)
        assert str(info.value) == message


class TestBuild:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", ["K3", "K4", "K5", "K6", "Kll:1", "Kll:2", "Kll:3", "Kll:4"])
    def test_build_is_what_clique_minor_prints(self, capsys, seed, name):
        params = {"n": 200, "min_degree": 8}
        model = minors.build(generate("random_min_degree", params, seed=seed), name)
        code = cli.main(["clique-minor", "--family", "random_min_degree",
                         "--params", "n=200,min_degree=8", "--seed", str(seed),
                         "--target", name, "--format", "json"])
        out = capsys.readouterr().out
        if model is None:
            assert (code, out) == (2, f"no cyclic {name} minor found\n")
        else:
            assert code == 0
            assert out == artifacts.text(artifacts.dump_cyclic_minor(model, "constructive")) + "\n"

    def test_name_is_checked_before_the_pipeline(self, monkeypatch):
        calls = []
        monkeypatch.setattr(minors, "find_dense_cycle", lambda *args: calls.append(args))
        with pytest.raises(ValidationError, match="unknown target 'K9'"):
            minors.build(petersen(), "K9")
        assert calls == []

    def test_explicit_k_is_not_clamped(self):
        with pytest.raises(PreconditionError) as info:
            minors.build(icosahedron(), "K5", k=8)
        assert str(info.value) == "need minimum degree >= k = 8"

    def test_builder_precondition_propagates(self):
        with pytest.raises(PreconditionError) as info:
            minors.build(petersen(), "K5")
        assert str(info.value) == "need |E| >= 3|V|, have 9 < 18"


class TestK6FromBipartite:
    def test_k12(self):
        m = k6_from_bipartite(complete(12), tuple(range(12)))
        assert m.host_cycle == (11, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
        assert m.arcs == ((11, 0), (1,), (2,), (3, 4, 5, 6, 7, 8), (9,), (10,))
        assert verify_model(m)

    def test_figure_eight_honest_not_found(self):
        assert k6_from_bipartite(figure_eight(), tuple(range(15))) is None

    def test_cycle_shorter_than_the_grid_is_none(self):
        # 6 positions cannot be cut into the 8 blocks of the l=4 layout
        assert k6_from_bipartite(complete(6), tuple(range(6))) is None
        assert kll_prime_model(complete(6), tuple(range(6)), 4) is None
        with pytest.raises(ValidationError, match="cannot cut 6 rows into 8 blocks"):
            grid_block_partition([[1] * 6 for _ in range(6)], 8)


class TestFigureEight:
    def test_manual_k6_model_verifies(self):
        g = figure_eight()
        cycle = (11, 12, 13, 14, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
        m = CyclicMinorModel(
            host=g,
            host_cycle=cycle,
            arcs=(
                (11, 12, 13, 14, 0),
                (1,),
                (2,),
                (3, 4, 5, 6, 7, 8),
                (9,),
                (10,),
            ),
            target=complete(6),
            target_cycle=(0, 1, 2, 3, 4, 5),
            target_name="K6",
        )
        assert verify_model(m)

    def test_no_k7_over_any_arc_split(self):
        """Every 7-arc split of the fixed 15-cycle misses some K7 pair."""
        g = figure_eight()
        k7 = complete(7)
        target_cycle = tuple(range(7))
        base = tuple(range(15))
        found = 0
        for cuts in itertools.combinations(range(15), 7):
            start = cuts[0]
            cycle = base[start:] + base[:start]
            offsets = [c - start for c in cuts] + [15]
            arcs = tuple(
                cycle[offsets[i]:offsets[i + 1]] for i in range(7)
            )
            m = CyclicMinorModel(
                host=g,
                host_cycle=cycle,
                arcs=arcs,
                target=k7,
                target_cycle=target_cycle,
                target_name="K7",
            )
            if verify_model(m):
                found += 1
        assert found == 0
