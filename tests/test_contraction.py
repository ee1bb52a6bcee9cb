import json
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chordcycles import (
    artifacts,
    contraction,
    graph,
    InternalInvariantError,
    StageClaim,
    ValidationError,
    choose_average_plan,
    contract_edges,
    degree_stats,
    edge,
    find_dense_cycle,
    generate,
    half_contraction,
    passive_contraction,
    pipeline,
    verify_contraction,
)

from helpers import complete, cyc, min_degree_corpus, petersen


def run_pipeline(g, k):
    return pipeline(g, find_dense_cycle(g, k))


class TestCompleteGraphPipeline:
    def test_k6_stages(self):
        r0, r1, r2 = run_pipeline(complete(6), 5)
        assert (r0.label, r1.label, r2.label) == ("X0", "X1", "X2")
        assert (r0.graph.n, r0.graph.edge_count) == (6, 15)
        # The anchor class merges away, leaving a complete graph one smaller.
        assert (r1.graph.n, r1.graph.edge_count) == (5, 10)
        assert (r2.graph.n, r2.graph.edge_count) == (6, 15)
        assert degree_stats(r2.graph).avg_degree == Fraction(5)

    def test_quotient_cycles_span(self):
        for r in run_pipeline(complete(6), 5):
            assert sorted(r.cycle) == list(range(r.graph.n))


class TestPetersenPipeline:
    def test_stage_shapes(self):
        r0, r1, r2 = run_pipeline(petersen(), 3)
        assert (r0.graph.n, r0.graph.edge_count) == (9, 12)
        assert (r1.graph.n, r1.graph.edge_count) == (6, 9)
        assert degree_stats(r1.graph).min_degree == 3
        assert degree_stats(r2.graph).avg_degree == Fraction(3)
        assert r2.label == "X2"

    def test_diagnostics_carried(self):
        r0, r1, r2 = run_pipeline(petersen(), 3)
        assert r0.n_a + r0.n_b <= len(find_dense_cycle(petersen(), 3).chords)
        assert (r1.n_a, r1.n_b, r1.m) == (r0.n_a, r0.n_b, r0.m)
        assert (r2.n_a, r2.n_b, r2.m) == (r0.n_a, r0.n_b, r0.m)


class TestCycleGraphs:
    def test_triangle_fixed_point(self):
        r0, r1, r2 = run_pipeline(cyc(3), 2)
        for r in (r0, r1, r2):
            assert (r.graph.n, r.graph.edge_count) == (3, 3)

    def test_c4_stays_c4(self):
        r0, r1, r2 = run_pipeline(cyc(4), 2)
        for r in (r0, r1, r2):
            assert (r.graph.n, r.graph.edge_count) == (4, 4)

    def test_long_cycles_collapse_to_c4(self):
        for n in (5, 9, 30):
            r0, r1, r2 = run_pipeline(cyc(n), 2)
            assert (r2.graph.n, r2.graph.edge_count) == (4, 4)
            assert degree_stats(r2.graph).avg_degree == Fraction(2)

    def test_k2_half_step_is_identity(self):
        cert = find_dense_cycle(cyc(6), 2)
        r0 = passive_contraction(cyc(6), cert)
        r1 = half_contraction(r0)
        assert r1.label == "X1"
        assert r1.graph == r0.graph
        assert r1.cycle == r0.cycle


class TestGuaranteedBounds:
    def test_min_degree_and_average_on_random_corpus(self):
        for k in (3, 4, 5):
            for trial in range(15):
                rng = random.Random(7000 * k + trial)
                n = rng.randint(k + 2, 60)
                g = generate(
                    "random_min_degree",
                    {"n": n, "min_degree": k},
                    seed=rng.randint(0, 10**9),
                )
                r0, r1, r2 = run_pipeline(g, k)
                assert degree_stats(r1.graph).min_degree >= (k + 3) // 2
                assert degree_stats(r2.graph).avg_degree >= Fraction(2 * (k + 1), 3)

    def test_average_step_never_below_predecessors(self):
        for k, g in ((3, petersen()), (5, complete(6)), (4, complete(8))):
            cert = find_dense_cycle(g, k)
            r0 = passive_contraction(g, cert)
            r1 = half_contraction(r0)
            r2 = choose_average_plan(r0, r1)
            best = max(
                degree_stats(r0.graph).avg_degree,
                degree_stats(r1.graph).avg_degree,
            )
            assert degree_stats(r2.graph).avg_degree >= best

    def test_active_classes_tracked_through_relabel(self):
        r0, r1, _ = run_pipeline(petersen(), 3)
        assert r0.active_classes
        assert all(0 <= c < r0.graph.n for c in r0.active_classes)
        assert all(0 <= c < r1.graph.n for c in r1.active_classes)
        # Non-active classes merge into active ones, never the reverse.
        assert len(r1.active_classes) == len(r0.active_classes)


def random_sparse_host(n, seed):
    return generate("random_min_degree", {"n": n, "min_degree": 3, "avg": 3}, seed=seed)


class TestFallbackPairings:
    """Hosts where the textbook predecessor pairing misses the floor."""

    def test_successor_pairing(self):
        # pattern 1: merging with predecessors drops a degree; merging the
        # anchor class with its successor instead gives K4
        r0, r1, _ = run_pipeline(random_sparse_host(5, 979961074), 3)
        assert r0.graph.n == 5
        assert r1.graph.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert sorted(r1.plan.contracted_edges) == [(0, 2)]

    def test_only_classes_below_the_floor_merge(self):
        # pattern 2: both uniform pairings drop a degree; the anchor class
        # already meets the floor, so it stays unmerged and X1 is X0
        r0, r1, _ = run_pipeline(random_sparse_host(5, 406059994), 3)
        assert r1.graph.n == 5
        assert r1.graph.edges() == [
            (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4),
        ]
        assert r1.graph == r0.graph
        assert not r1.plan.contracted_edges


def test_pipeline_checks_the_host_cycle_once(monkeypatch):
    """The pipeline checks the certificate cycle it is handed, at its door,
    and trusts the cycles it builds from it: neither contract_edges nor a
    contraction step checks a quotient cycle again."""
    checked = []
    real = graph.check_cycle

    def counting(g, cycle):
        checked.append(g)
        return real(g, cycle)

    for module in (graph, contraction):
        monkeypatch.setattr(module, "check_cycle", counting)
    hosts = [(g, k) for k in (2, 3, 5, 8) for g, *_ in min_degree_corpus(k, 3)]
    # X1 from the successor pairing and from the floor-only pairing
    hosts += [(random_sparse_host(5, 979961074), 3), (random_sparse_host(5, 406059994), 3)]
    for g, k in hosts:
        cert = find_dense_cycle(g, k)
        checked.clear()
        pipeline(g, cert)
        assert [h is g for h in checked] == [True]


def test_x0_ignores_a_stated_passive_edge_at_an_active_vertex():
    """X0 contracts the passive edges of the certificate's cycle and active
    set, so a closure stating an extra passive edge at an active vertex gives
    the X0 of the honest certificate, neither another one nor an error."""
    g = petersen()
    cert = find_dense_cycle(g, 3)
    honest = passive_contraction(g, cert)
    cycle, closure = cert.cycle, cert.closure
    at_active = [
        edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])
        if a in closure.active or b in closure.active
    ]
    assert len(at_active) == 9
    for e in at_active:
        forged = replace(closure, passive_edges=closure.passive_edges | {e})
        assert passive_contraction(g, replace(cert, closure=forged)) == honest


def first_edges_contracted(report0, count):
    """X1 stated as the contraction of the first `count` edges of the
    certificate cycle: a cyclic minor of C, whatever its degrees."""
    ring = tuple(v for arc in report0.plan.arcs for v in arc)
    edges = frozenset(edge(ring[i], ring[i + 1]) for i in range(count))
    quotient, plan = contract_edges(report0.plan.host, edges, cycle=ring)
    first = {cls: arc[0] for cls, arc in zip(report0.cycle, report0.plan.arcs)}
    stats = degree_stats(quotient)
    return StageClaim(
        label="X1",
        graph=quotient,
        cycle=tuple(plan.class_of[arc[0]] for arc in plan.arcs),
        active_classes=frozenset(plan.class_of[first[c]] for c in report0.active_classes),
        contracted_edges=edges,
        min_degree=stats.min_degree,
        avg_degree=stats.avg_degree,
    )


def verified_stages(g, k):
    """The certificate cycle and the X0, X1 reports of the pipeline on g,
    once all three stages pass verify_contraction as the pipeline states them."""
    cert = find_dense_cycle(g, k)
    reports = pipeline(g, cert)
    r0 = reports[0]
    verify_contraction(g, k, cert.cycle, reports, r0.n_a, r0.n_b, r0.m)
    return cert.cycle, r0, reports[1]


class TestVerifyContraction:
    """Each bound is checked for the k the artifact states.  Every stage
    below is a true cyclic minor of C, so only the bound named can fail."""

    def test_chord_floor(self):
        cycle, r0, r1 = verified_stages(petersen(), 3)
        stages = [r0, replace(r0, label="X1"), replace(r0, label="X2")]
        with pytest.raises(ValidationError, match=r"chord count 2\*3\+0 below \(k-2\)m = 12"):
            verify_contraction(petersen(), 4, cycle, stages, r0.n_a, r0.n_b, r0.m)

    def test_x1_floor(self):
        cycle, r0, r1 = verified_stages(petersen(), 3)
        triangle = first_edges_contracted(r0, 6)
        assert triangle.graph == cyc(3)
        stages = [r0, triangle, replace(r0, label="X2")]
        with pytest.raises(ValidationError, match=r"X1 min degree 2 below ceil\(\(k\+2\)/2\) = 3"):
            verify_contraction(petersen(), 3, cycle, stages, r0.n_a, r0.n_b, r0.m)

    def test_x2_is_x0_or_x1(self):
        cycle, r0, r1 = verified_stages(petersen(), 3)
        third = replace(first_edges_contracted(r0, 1), label="X2")
        stages = [r0, r1, third]
        with pytest.raises(ValidationError, match="X2 is neither X0 nor X1"):
            verify_contraction(petersen(), 3, cycle, stages, r0.n_a, r0.n_b, r0.m)

    def test_x2_average(self):
        # K8's stages for k=4 meet k=7's chord floor too (2*15+5 >= 5*7), and
        # contracting two cycle edges leaves K6: at k=7's floor of 5, but
        # below 16/3 on average
        cycle, r0, r1 = verified_stages(complete(8), 4)
        k6 = first_edges_contracted(r0, 2)
        assert k6.graph == complete(6)
        stages = [r0, k6, replace(k6, label="X2")]
        with pytest.raises(ValidationError, match=r"X2 average degree 5 below 2\(k\+1\)/3 = 16/3"):
            verify_contraction(complete(8), 7, cycle, stages, r0.n_a, r0.n_b, r0.m)


def stated(stage):
    """The StageClaim fields of a stage, whatever its class."""
    return StageClaim(**{f.name: getattr(stage, f.name) for f in fields(StageClaim)})


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 8), extra=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
def test_pipeline_stages_round_trip(k, extra, seed):
    """The pipeline's stages are what the artifact states: the verifier
    accepts them as returned, and loading their dump gives them back."""
    g = generate("random_min_degree", {"n": k + extra, "min_degree": k}, seed=seed)
    cert = find_dense_cycle(g, k)
    stages = pipeline(g, cert)
    counts = (stages[0].n_a, stages[0].n_b, stages[0].m)
    verify_contraction(g, k, cert.cycle, stages, *counts)

    obj = json.loads(artifacts.text(artifacts.dump_contraction(g, k, cert.cycle, stages, *counts)))
    name, (g1, k1, cycle1, loaded, *counts1) = artifacts.load(obj)
    assert (name, g1, k1, cycle1, tuple(counts1)) == ("contraction", g, k, cert.cycle, counts)
    assert all(type(x) is StageClaim for x in loaded)
    assert loaded == tuple(stated(x) for x in stages)
    verify_contraction(g, k, cert.cycle, loaded, *counts)
    # "X2 is X0 or X1" compares what the stages state, not their classes
    verify_contraction(g, k, cert.cycle, (*stages[:2], loaded[2]), *counts)
    verify_contraction(g, k, cert.cycle, (*loaded[:2], stages[2]), *counts)


@pytest.mark.xfail(
    strict=True,
    raises=InternalInvariantError,
    reason="known defect: a degree-2 non-active class of X0 whose cycle "
    "neighbours are adjacent loses its chord to a cycle edge whichever "
    "neighbour it merges with, so no pairing reaches the floor",
)
@pytest.mark.parametrize("n, seed", [(12, 45718506), (27, 408633196)])
def test_x1_floor_when_a_chord_parallels_a_cycle_edge(n, seed):
    _, r1, _ = run_pipeline(random_sparse_host(n, seed), 3)
    assert degree_stats(r1.graph).min_degree >= 3
