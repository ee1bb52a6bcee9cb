import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chordcycles import Graph, SizeGuardExceeded, ValidationError, degeneracy, generate, oracle
from chordcycles.graph import induced_subgraph
from chordcycles.minors import kll_prime_graph
from chordcycles.oracle import (
    brute_degeneracy,
    corollary_check,
    cyclic_minor_exists,
    enumerate_hamiltonian_cycles,
    first_hamiltonian_cycle,
    full_active_enumeration,
    hamiltonian_paths_from,
    max_chords_over_cycles,
    pell_candidates,
    rotation_levels,
)

from helpers import (
    complete,
    connected,
    cyc,
    icosahedron,
    petersen,
    prism,
    random_graph,
    stacked_triangulation,
)


def graphs(max_n=8):
    return st.integers(min_value=0, max_value=2**31 - 1).map(
        lambda s: random_graph(random.Random(s), n_max=max_n)
    )


class TestHamiltonianEnumeration:
    def test_k4_count(self):
        # (4-1)!/2 = 3 distinct Hamiltonian cycles.
        assert len(enumerate_hamiltonian_cycles(complete(4))) == 3

    def test_k6_count(self):
        assert len(enumerate_hamiltonian_cycles(complete(6))) == 60

    def test_cycle_graph_unique(self):
        assert enumerate_hamiltonian_cycles(cyc(7)) == [tuple(range(7))]

    def test_petersen_has_none(self):
        assert enumerate_hamiltonian_cycles(petersen()) == []
        assert first_hamiltonian_cycle(petersen()) is None

    def test_canonical_form(self):
        for c in enumerate_hamiltonian_cycles(complete(5)):
            assert c[0] == 0 and c[1] < c[-1]

    def test_icosahedron_first(self):
        assert first_hamiltonian_cycle(icosahedron()) == (
            0, 1, 2, 3, 4, 9, 8, 7, 6, 11, 10, 5,
        )

    def test_guard_trips(self):
        with pytest.raises(SizeGuardExceeded):
            enumerate_hamiltonian_cycles(complete(15))

    def test_guard_raisable(self):
        assert len(enumerate_hamiltonian_cycles(complete(4), guard_n=4)) == 3

    def test_paths_from_k4(self):
        paths = hamiltonian_paths_from(complete(4), 0)
        assert len(paths) == 6
        assert all(p[0] == 0 and len(set(p)) == 4 for p in paths)


    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=7))
    def test_matches_permutation_reference(self, g):
        # every vertex order that walks edges, in lexicographic order
        paths = [
            p for p in itertools.permutations(range(g.n))
            if all(b in g.adj[a] for a, b in zip(p, p[1:]))
        ]
        for start in range(g.n):
            assert hamiltonian_paths_from(g, start) == [p for p in paths if p[0] == start]
        cycles = [
            p for p in paths
            if g.n >= 3 and p[0] == 0 and p[1] < p[-1] and g.has_edge(p[-1], 0)
        ]
        assert enumerate_hamiltonian_cycles(g) == cycles
        assert first_hamiltonian_cycle(g) == (cycles[0] if cycles else None)


class TestFullEnumeration:
    def test_k6_census(self):
        g = complete(6)
        cycle = tuple(range(6))
        enum = full_active_enumeration(g, cycle)
        assert len(enum.paths) == 114
        total = hamiltonian_paths_from(g, 0)
        assert len(total) == 120
        missing = set(total) - enum.paths
        assert len(missing) == 6
        assert (0, 1, 4, 3, 2, 5) in missing

    def test_closure_contains_both_orientations(self):
        g = complete(5)
        cycle = tuple(range(5))
        enum = full_active_enumeration(g, cycle)
        assert cycle in enum.paths
        assert (0, 4, 3, 2, 1) in enum.paths

    def test_active_endpoints_subset(self):
        g = prism()
        cycle = first_hamiltonian_cycle(g)
        enum = full_active_enumeration(g, cycle)
        assert enum.active <= set(cycle[1:]) | {cycle[0]}
        for p in enum.paths:
            assert p[0] == cycle[0]

    def test_rotation_levels_k6(self):
        g = complete(6)
        levels = rotation_levels(g, tuple(range(6)), 5)
        assert [len(s) for s in levels] == [2, 8, 26, 64, 102]

    def test_levels_eventually_cover_closure(self):
        g = complete(5)
        cycle = tuple(range(5))
        enum = full_active_enumeration(g, cycle)
        levels = rotation_levels(g, cycle, 12)
        assert frozenset().union(*levels) == enum.paths

    def test_non_cycle_rejected(self):
        with pytest.raises(ValidationError):
            full_active_enumeration(petersen(), tuple(range(10)))


class TestCyclicMinor:
    def test_k3_in_k4(self):
        w = cyclic_minor_exists(complete(4), complete(3))
        assert w is not None
        flat = [v for arc in w.arcs for v in arc]
        assert tuple(flat) == w.cycle

    def test_c4_has_k3(self):
        assert cyclic_minor_exists(cyc(4), complete(3)) is not None

    def test_tree_has_none(self):
        tree = Graph(4, [(0, 1), (1, 2), (1, 3)])
        assert cyclic_minor_exists(tree, complete(3)) is None

    def test_c4_lacks_k4(self):
        assert cyclic_minor_exists(cyc(4), complete(4)) is None

    def test_target_without_a_spanning_cycle_has_no_model(self):
        path = Graph(3, [(0, 1), (1, 2)])
        assert cyclic_minor_exists(complete(5), path) is None

    def test_prism_k3(self):
        w = cyclic_minor_exists(prism(), complete(3))
        assert w is not None and len(w.arcs) == 3

    def test_petersen_k4(self):
        assert cyclic_minor_exists(petersen(), complete(4)) is not None

    def test_target_too_small_rejected(self):
        with pytest.raises(ValidationError):
            cyclic_minor_exists(complete(4), complete(2))

    def test_guard(self):
        with pytest.raises(SizeGuardExceeded):
            cyclic_minor_exists(complete(15), complete(3))


def _reference_cyclic_minor_exists(g, target):
    """The search as it was before cuts were placed by DFS: every combination
    of cuts is built as tuples of arcs, then tested against every alignment
    pair by pair."""
    nt = target.n
    if target.edge_count == nt * (nt - 1) // 2:
        alignments = [tuple(range(nt))]
    else:
        alignments = []
        for tc in enumerate_hamiltonian_cycles(target):
            for base in (tc, (tc[0],) + tuple(reversed(tc[1:]))):
                for r in range(nt):
                    alignments.append(base[r:] + base[:r])
        if not alignments:
            return None
    for size in range(nt, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            sub, old_ids = induced_subgraph(g, subset)
            if min(sub.degree(u) for u in range(sub.n)) < 2:
                continue
            if sub.edge_count - sub.n < target.edge_count - nt or not connected(sub):
                continue
            for local_cycle in enumerate_hamiltonian_cycles(sub):
                seq = tuple(old_ids[v] for v in local_cycle)
                for cuts in itertools.combinations(range(size), nt):
                    rotated = seq[cuts[0]:] + seq[: cuts[0]]
                    offsets = [c - cuts[0] for c in cuts] + [size]
                    arcs = tuple(rotated[offsets[i]: offsets[i + 1]] for i in range(nt))
                    for aligned in alignments:
                        pos = {vtx: i for i, vtx in enumerate(aligned)}
                        if all(
                            any(y in g.adj[x] for x in arcs[pos[a]] for y in arcs[pos[b]])
                            for a, b in target.edges()
                        ):
                            return oracle.CyclicMinorWitness(subset, rotated, arcs, aligned)
    return None


def _planted_k5(n, seed):
    """An n-cycle cut into five arcs with one chord between each pair of arcs
    that are not next to each other, relabelled at random: a cyclic K5 minor
    by construction, hidden among the host's other cycles."""
    rng = random.Random(seed)
    bounds = [0] + sorted(rng.sample(range(1, n), 4)) + [n]
    arcs = [range(bounds[i], bounds[i + 1]) for i in range(5)]
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(rng.choice(arcs[a]), rng.choice(arcs[b])) for a, b in ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4))]
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


MINOR_TARGETS = {
    "K3": complete(3),
    "K4": complete(4),
    "K5": complete(5),
    "K6": complete(6),
    "Kll:2": kll_prime_graph(2)[0],
    "Kll:3": kll_prime_graph(3)[0],
}


class TestCyclicMinorAgainstReference:
    """The bitmask cut DFS against the combination-by-combination search it
    replaced: the same first witness, or None on both sides."""

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=8))
    def test_random_hosts(self, g):
        for target in MINOR_TARGETS.values():
            assert cyclic_minor_exists(g, target) == _reference_cyclic_minor_exists(g, target)

    @pytest.mark.parametrize("n, seed", [(7, 0), (8, 1), (8, 2), (9, 3), (9, 4)])
    def test_planted_k5(self, n, seed):
        g = _planted_k5(n, seed)
        for name in ("K5", "Kll:3"):
            target = MINOR_TARGETS[name]
            assert cyclic_minor_exists(g, target) == _reference_cyclic_minor_exists(g, target)
        assert cyclic_minor_exists(g, complete(5)) is not None


class TestObservability:
    """The benchmark counts oracle.ham_enum_* and oracle.first_ham_* by
    rebinding these module globals, so the searches must look them up
    through the module, once per subset they search."""

    @staticmethod
    def counting(monkeypatch, name):
        seen = []
        real = getattr(oracle, name)

        def wrapper(g, **kwargs):
            seen.append(g)
            return real(g, **kwargs)

        monkeypatch.setattr(oracle, name, wrapper)
        return seen

    def test_one_enumeration_per_surviving_subset(self, monkeypatch):
        seen = self.counting(monkeypatch, "enumerate_hamiltonian_cycles")
        g = stacked_triangulation(8, 0)  # planar, so every subset is searched
        assert cyclic_minor_exists(g, complete(5)) is None
        survivors = []
        for size in range(5, g.n + 1):
            for subset in itertools.combinations(range(g.n), size):
                sub, _ = induced_subgraph(g, subset)
                if (min(sub.degree(u) for u in range(size)) >= 2
                        and sub.edge_count - size >= 5 and connected(sub)):
                    survivors.append(sub)
        assert survivors and seen == survivors

    def test_one_first_cycle_per_candidate_tried(self, monkeypatch):
        seen = self.counting(monkeypatch, "first_hamiltonian_cycle")
        g = petersen()  # no Hamiltonian cycle, so candidates fail before one wins
        found = max_chords_over_cycles(g)
        candidates = []
        for size in range(3, g.n + 1):
            for subset in itertools.combinations(range(g.n), size):
                sub, _ = induced_subgraph(g, subset)
                if sub.edge_count >= size and min(sub.degree(u) for u in range(size)) >= 2:
                    candidates.append((size - sub.edge_count, size, subset, sub))
        candidates.sort(key=lambda c: c[:3])
        tried = [sub for *_, sub in candidates[: len(seen)]]
        assert len(seen) > 1 and seen == tried
        assert first_hamiltonian_cycle(seen[-1]) is not None
        assert all(first_hamiltonian_cycle(sub) is None for sub in seen[:-1])
        assert found.chords == -candidates[len(seen) - 1][0]


class TestChordMaximum:
    def test_k5(self):
        found = max_chords_over_cycles(complete(5))
        assert found.chords == 5

    def test_petersen(self):
        found = max_chords_over_cycles(petersen())
        assert found.chords == 3

    def test_k33(self):
        found = max_chords_over_cycles(generate("complete_bipartite", {"a": 3, "b": 3}))
        assert found.chords == 3
        assert found.cycle == (0, 3, 1, 4, 2, 5)

    def test_forest_none(self):
        assert max_chords_over_cycles(Graph(3, [(0, 1), (1, 2)])) is None

    def test_witness_consistent(self):
        found = max_chords_over_cycles(prism())
        sub_vertices = set(found.cycle)
        g = prism()
        inside = sum(1 for u, v in g.edges() if u in sub_vertices and v in sub_vertices)
        assert inside - len(sub_vertices) == found.chords


class TestCorollary:
    def test_pell_candidates(self):
        assert pell_candidates(100) == [0, 35]

    def test_pell_zero(self):
        assert pell_candidates(0) == [0]

    def test_negative_limit(self):
        with pytest.raises(ValidationError):
            pell_candidates(-1)

    def test_small_graphs_hold(self):
        rng = random.Random(99)
        for _ in range(50):
            g = random_graph(rng, n_max=8)
            if g.n == 0:
                continue
            for budget in (0, 1, 3, 7):
                assert corollary_check(g, budget)

    def test_matches_decomposition(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng, n_max=8)
            if g.n == 0:
                continue
            found = max_chords_over_cycles(g)
            for budget in range(6):
                from chordcycles import chord_budget_degeneracy_bound

                expected = (found is not None and found.chords >= budget) or (
                    degeneracy(g).degeneracy <= chord_budget_degeneracy_bound(budget)
                )
                assert corollary_check(g, budget) == expected


class TestBruteDegeneracy:
    @settings(max_examples=30, deadline=None)
    @given(graphs(max_n=7))
    def test_agrees_with_peeling(self, g):
        if g.n == 0:
            return
        assert brute_degeneracy(g) == degeneracy(g).degeneracy


def test_oracle_imports_only_the_graph_core():
    # the oracle cross-checks the constructive modules, so it shares no code
    # with them: from this package it imports the graph core and errors only
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    own = {name for name in imported if name.startswith((".", "chordcycles"))}
    assert own == {".graph", ".errors"}
