import random
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from chordcycles import (
    Graph,
    InternalInvariantError,
    PreconditionError,
    ValidationError,
    find_dense_cycle,
    generate,
    initial_lollipop,
    verify_closure_lemmas,
    verify_dense_cycle,
)
from chordcycles import lollipop
from chordcycles.lollipop import (
    SEEDS,
    ActiveClosure,
    Improvement,
    Lollipop,
    WitnessPath,
    _cycle_slot,
    _passive_runs,
    _position,
    active_closure,
    improve_until_closed,
    lollipop_from_path,
    maximal_path_extend,
    required_active_count,
    seed_path,
    validate_lollipop,
    vertex_set,
)
from chordcycles.graph import chords_of_cycle, cycle_edge_set, edge
from chordcycles.oracle import full_active_enumeration

from helpers import complete, cyc, petersen, prism, replay


@st.composite
def derivations(draw):
    """A cycle, a seed orientation and random rotation steps from it (the
    broken edges need not lie on the cycle: replay does not ask)."""
    t = draw(st.integers(3, 9))
    cycle = tuple(draw(st.permutations(range(t))))
    orientation = draw(st.sampled_from(SEEDS))
    seq = seed_path(cycle, orientation)
    steps = []
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, t - 3))
        steps.append(((seq[-1], seq[i]), seq[i + 1]))
        seq = seq[: i + 1] + seq[:i:-1]
    return cycle, orientation, tuple(steps)


def _read_through_flips(wp):
    """The witness's path as `_cycle_slot` reads it from its flips, position
    by position, and each cycle vertex's position as `_position` gives it."""
    cycle, t, flips = wp.cycle, len(wp.cycle), wp.flips
    forward = wp.orientation == "forward"
    path = [cycle[_cycle_slot(p, t, forward, flips)] for p in range(t)]
    positions = {cycle[c]: _position(c, t, forward, flips) for c in range(t)}
    return path, positions


class TestImplicitWitness:
    @settings(max_examples=300, deadline=None)
    @given(derivations())
    def test_reflections_agree_with_replay(self, case):
        cycle, orientation, derivation = case
        expected = replay(seed_path(cycle, orientation), derivation)
        wp = WitnessPath(cycle, orientation, derivation)
        path, positions = _read_through_flips(wp)
        assert path == list(expected)
        assert [positions[x] for x in expected] == list(range(len(cycle)))
        assert wp.end == expected[-1]
        assert wp.sequence == expected

    def test_unknown_seed_rejected(self):
        with pytest.raises(ValidationError):
            WitnessPath((0, 1, 2), "sideways")

    def test_misfit_step_rejected_on_use(self):
        wp = WitnessPath((0, 1, 2, 3, 4), "forward", (((4, 1), 3),))
        with pytest.raises(ValidationError):
            wp.sequence

    @pytest.mark.parametrize("host, k", [
        pytest.param(petersen, 3, id="petersen"),
        pytest.param(lambda: _seed7_host(), 3, id="seed7"),
        pytest.param(lambda: generate(
            "random_min_degree", {"n": 200, "min_degree": 5, "avg": 6}, seed=3), 5, id="n200"),
    ])
    def test_stated_derivation_rebuilds_the_closure_witness(self, host, k):
        # the closure keeps flips as it steps; a loaded witness replays them
        closure = find_dense_cycle(host(), k).closure
        assert any(len(wp.derivation) > 1 for wp in closure.witnesses.values())
        for wp in closure.witnesses.values():
            rebuilt = WitnessPath(closure.cycle, wp.orientation, wp.derivation)
            assert (rebuilt.flips, rebuilt.end, rebuilt.sequence) == (wp.flips, wp.end, wp.sequence)


class TestLollipopConstruction:
    def test_maximal_path_cannot_extend(self):
        g = petersen()
        p = maximal_path_extend(g, (0,))
        ends = (p[0], p[-1])
        for end in ends:
            assert g.adj[end] <= set(p)

    def test_lollipop_from_path_valid(self):
        g = petersen()
        p = maximal_path_extend(g, (0,))
        l = lollipop_from_path(g, p)
        validate_lollipop(g, l)

    def test_initial_lollipop_k6_is_hamiltonian(self):
        l = initial_lollipop(complete(6))
        assert len(l.cycle) == 6
        assert len(l.path) == 1

    def test_vertex_set_union(self):
        l = initial_lollipop(petersen())
        assert vertex_set(l) == set(l.path) | set(l.cycle)


class TestActiveClosure:
    def test_required_count_rule(self):
        g = complete(6)
        assert required_active_count(g, tuple(range(6)), 5) == 5
        g2 = cyc(6)
        assert required_active_count(g2, tuple(range(6)), 2) == 2
        # Anchor with cycle degree below k pays for one more witness.
        path_heavy = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
        assert required_active_count(path_heavy, (0, 1, 2, 3, 4), 3) == 4

    def test_closure_on_k6(self):
        g = complete(6)
        outcome = active_closure(g, initial_lollipop(g), 5)
        assert not isinstance(outcome, Improvement)
        assert len(outcome.active) == 5
        for v, wp in outcome.witnesses.items():
            assert wp.sequence[-1] == v
            assert replay(seed_path(wp.cycle, wp.orientation), wp.derivation) == wp.sequence
            path, positions = _read_through_flips(wp)
            assert path == list(wp.sequence)
            assert [positions[x] for x in wp.sequence] == list(range(6))

    def test_closure_witnesses_inside_full_enumeration(self):
        for g in (complete(6), prism(), cyc(7)):
            outcome = active_closure(g, initial_lollipop(g), 2)
            while isinstance(outcome, Improvement):
                outcome = active_closure(g, outcome.lollipop, 2)
            enum = full_active_enumeration(g, outcome.cycle)
            for wp in outcome.witnesses.values():
                assert wp.sequence in enum.paths


class TestFindDenseCycle:
    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            find_dense_cycle(complete(4), 1)
        with pytest.raises(PreconditionError):
            find_dense_cycle(cyc(8), 3)

    def test_k6_at_k5(self):
        cert = find_dense_cycle(complete(6), 5)
        assert len(cert.cycle) == 6
        assert len(cert.high_degree) == 6
        assert len(cert.chords) == 9

    def test_petersen_at_k3(self):
        cert = find_dense_cycle(petersen(), 3)
        assert cert.cycle == (1, 2, 3, 4, 9, 7, 5, 8, 6)
        assert len(cert.high_degree) >= 4
        assert len(cert.chords) >= 2

    def test_certificate_bounds_small_corpus(self):
        for k in (2, 3, 4):
            for trial in range(12):
                rng = random.Random(300 * k + trial)
                n = rng.randint(k + 2, 40)
                g = generate(
                    "random_min_degree",
                    {"n": n, "min_degree": k},
                    seed=rng.randint(0, 10**9),
                )
                cert = find_dense_cycle(g, k)
                assert len(cert.high_degree) >= k + 1
                assert 2 * len(cert.chords) >= (k + 1) * (k - 2)
                on_cycle = set(cert.cycle)
                for v in cert.high_degree:
                    assert sum(1 for x in g.adj[v] if x in on_cycle) >= k

    def test_chords_are_real_chords(self):
        cert = find_dense_cycle(complete(7), 5)
        edges_on_cycle = cycle_edge_set(cert.cycle)
        g = complete(7)
        for u, v in cert.chords:
            assert g.has_edge(u, v)
            assert (u, v) not in edges_on_cycle
        assert list(cert.chords) == list(chords_of_cycle(g, cert.cycle))

    @pytest.mark.parametrize("change, fragment", [
        ({"k": 1}, "k must be an integer >= 2"),
        ({"k": 4}, "cycle degree 3 < 4"),
        ({"cycle": (2, 3, 4, 9, 7, 5, 8, 6, 1)}, "differs from closure cycle"),
        ({"high_degree": (0, 3, 6, 7, 8, 9)}, "vertex 0 is not on the cycle"),
        ({"high_degree": (2, 3, 6)}, "too few high-degree vertices: 3 < 4"),
        ({"chords": ((6, 9), (3, 8), (2, 7))}, "chord list does not match"),
    ])
    def test_verify_dense_cycle_rejects(self, change, fragment):
        g = petersen()
        cert = find_dense_cycle(g, 3)
        verify_dense_cycle(g, cert)
        with pytest.raises(ValidationError, match=fragment):
            verify_dense_cycle(g, replace(cert, **change))

    def test_chords_listed_once(self, monkeypatch):
        calls = []

        def counted(g, cycle):
            calls.append(cycle)
            return chords_of_cycle(g, cycle)

        monkeypatch.setattr(lollipop, "chords_of_cycle", counted)
        g = petersen()
        cert = find_dense_cycle(g, 3)
        assert calls == [cert.cycle]
        calls.clear()
        verify_dense_cycle(g, cert)
        assert calls == [cert.cycle]


def _seed7_host():
    return generate("random_min_degree", {"n": 30, "min_degree": 3, "avg": 3}, seed=7)


class TestClosureLemmas:
    def test_audit_passes_on_engine_output(self):
        for g, k in ((complete(6), 5), (petersen(), 3), (prism(), 3)):
            cert = find_dense_cycle(g, k)
            verify_closure_lemmas(g, cert.closure)

    def test_audit_rejects_step_through_inactive_end(self):
        # The witness for 3 is a genuine spanning path, but its first step
        # makes the inactive 2 an end.  Every new end must be active: that is
        # what keeps each broken cycle edge from being a passive one.
        cycle = (0, 1, 2, 3, 4)
        witnesses = {
            4: WitnessPath(cycle, "forward"),
            1: WitnessPath(cycle, "backward"),
            3: WitnessPath(cycle, "forward", (((4, 1), 2), ((2, 4), 3))),
        }
        assert witnesses[3].sequence == (0, 1, 4, 2, 3)
        closure = ActiveClosure(
            cycle=cycle, active=frozenset(witnesses), witnesses=witnesses,
            passive_edges=frozenset(),
        )
        with pytest.raises(InternalInvariantError, match="inactive end 2"):
            verify_closure_lemmas(complete(5), closure)

    def test_audit_rejects_a_seed_ending_at_an_inactive_vertex(self):
        # the witness reaches the active 2, but from the forward seed's
        # end 4, which is not active
        cycle = (0, 1, 2, 3, 4)
        witnesses = {2: WitnessPath(cycle, "forward", (((4, 1), 2),))}
        closure = ActiveClosure(
            cycle=cycle, active=frozenset(witnesses), witnesses=witnesses,
            passive_edges=frozenset(),
        )
        with pytest.raises(InternalInvariantError, match="seed ending at inactive 4"):
            verify_closure_lemmas(complete(5), closure)

    def test_audit_rejects_a_stated_passive_edge_at_an_active_vertex(self):
        closure = find_dense_cycle(petersen(), 3).closure
        extra = edge(closure.cycle[0], closure.cycle[1])
        forged = replace(closure, passive_edges=closure.passive_edges | {extra})
        with pytest.raises(InternalInvariantError, match="passive edge set"):
            verify_closure_lemmas(petersen(), forged)

    def test_audit_rejects_tampered_witness(self):
        cert = find_dense_cycle(petersen(), 3)
        closure = cert.closure
        v, wp = next(iter(closure.witnesses.items()))
        bad = dict(closure.witnesses)
        bad[v] = WitnessPath(
            closure.cycle, wp.orientation, wp.derivation,
            claimed=wp.sequence[:-2] + (wp.sequence[-1], wp.sequence[-2]),
        )
        tampered = ActiveClosure(
            cycle=closure.cycle,
            active=closure.active,
            witnesses=bad,
            passive_edges=closure.passive_edges,
        )
        with pytest.raises(InternalInvariantError, match="does not replay"):
            verify_closure_lemmas(petersen(), tampered)

    # The seed-7 host's closure at k=3 has passive runs (3, 9, 12, 25),
    # (5, 17) and (18, 11, 0); the first sits right after active 8.  Each
    # case audits that closure against the host with one edge added at 8.
    @pytest.mark.parametrize("n, added, message", [
        (30, (8, 9), "active 8 touches the interior of a passive run at 9"),
        (30, (8, 25), "active 8 touches a passive run at 25 and 3"),
        (31, (8, 30), "active 8 has neighbors off the cycle: [30]"),
    ])
    def test_audit_rejects_active_neighbourhood(self, n, added, message):
        g = _seed7_host()
        closure = find_dense_cycle(g, 3).closure
        runs = _passive_runs(closure.cycle, closure.passive_edges)
        assert sorted(map(len, runs)) == [2, 3, 4]
        run = max(runs, key=len)
        assert run == (3, 9, 12, 25)
        assert closure.cycle[closure.cycle.index(run[0]) - 1] == 8 and 8 in closure.active
        with pytest.raises(InternalInvariantError) as caught:
            verify_closure_lemmas(Graph(n, g.edges() + [added]), closure)
        assert str(caught.value) == message


# --- the improvement loop against its reference -----------------------------
#
# The loop as it was before it kept state between closures: every closure
# builds a full cycle index and path set, the progress check takes
# `vertex_set` of each new lollipop, and path growth, cycle closing and
# witness paths are recomputed from scratch here.

def _reference_seed(cycle, orientation):
    return cycle if orientation == "forward" else (cycle[0],) + tuple(reversed(cycle[1:]))


def _reference_grow(g, p):
    on_path = set(p)
    tail = list(p)
    while True:
        outside = [v for v in sorted(g.adj[tail[-1]]) if v not in on_path]
        if not outside:
            break
        tail.append(outside[0])
        on_path.add(outside[0])
    head = deque(tail)
    while True:
        outside = [v for v in sorted(g.adj[head[0]]) if v not in on_path]
        if not outside:
            break
        head.appendleft(outside[0])
        on_path.add(outside[0])
    return tuple(head)


def _reference_close(g, p):
    for candidate in (p, tuple(reversed(p))):
        tail = candidate[-1]
        for i in range(len(candidate) - 2):
            if candidate[i] in g.adj[tail]:
                return Lollipop(path=candidate[: i + 1], cycle=candidate[i:])
    raise PreconditionError("neither end closes")


def _reference_closure(g, l):
    cycle = tuple(l.cycle)
    t = len(cycle)
    index = dict(zip(cycle, range(t)))
    on_path = set(l.path)
    witnesses = {}
    queue = deque()

    def activate(wp):
        u = wp.end
        witnesses[u] = wp
        stray = [x for x in g.adj[u] if x not in index]
        if not stray:
            queue.append(wp)
            return None
        x = min(stray)
        seq = replay(_reference_seed(cycle, wp.orientation), wp.derivation)
        if x in on_path:
            j = l.path.index(x)
            return Lollipop(path=l.path[: j + 1], cycle=l.path[j:] + seq[1:])
        return _reference_close(g, _reference_grow(g, l.path[:-1] + seq + (x,)))

    for orientation in SEEDS:
        better = activate(WitnessPath(cycle, orientation))
        if better is not None:
            return better
    while queue:
        wp = queue.popleft()
        u, forward, flips = wp.end, wp.orientation == "forward", wp.flips
        for v in sorted(g.adj[u]):
            cv = index.get(v)
            if cv is None:
                continue
            p = _position(cv, t, forward, flips)
            if p >= t - 2:
                continue
            cw = _cycle_slot(p + 1, t, forward, flips)
            if cycle[cw] in witnesses or (cv - cw) % t not in (1, t - 1):
                continue
            better = activate(wp._child(((u, v), cycle[cw]), p))
            if better is not None:
                return better
    passive = frozenset(
        edge(cycle[i - 1], cycle[i])
        for i in range(t)
        if cycle[i - 1] not in witnesses and cycle[i] not in witnesses
    )
    return ActiveClosure(cycle=cycle, active=frozenset(witnesses), witnesses=witnesses,
                         passive_edges=passive)


def _reference_loop(g, l):
    """(closure, improvements, every lollipop a closure ran on)."""
    seen = [l]
    progress = (len(vertex_set(l)), len(l.cycle))
    outcome = _reference_closure(g, l)
    while isinstance(outcome, Lollipop):
        new_progress = (len(vertex_set(outcome)), len(outcome.cycle))
        assert new_progress > progress
        progress = new_progress
        seen.append(outcome)
        outcome = _reference_closure(g, outcome)
    return outcome, len(seen) - 1, seen


def _summary(closure):
    return (closure.cycle, closure.active, closure.passive_edges,
            {u: (wp.orientation, wp.derivation) for u, wp in closure.witnesses.items()})


def _loop_with_checked_state(g, l, k):
    """Run improve_until_closed, checking before every closure that the state
    the loop keeps matches its lollipop; returns (closure, improvements,
    every lollipop a closure ran on)."""
    seen = []
    closure = lollipop.active_closure

    def checked(g, live, k):
        current = Lollipop(path=live.path, cycle=live.cycle)
        seen.append(current)
        assert len(live.members) == len(vertex_set(current))
        assert live.members == vertex_set(current)
        assert live.on_cycle == set(live.cycle)
        if live.index is not None:
            positions = {v: (key - live.base) * live.sign for v, key in live.index.items()}
            assert positions == dict(zip(live.cycle, range(len(live.cycle))))
        return closure(g, live, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lollipop, "active_closure", checked)
        result, iterations = improve_until_closed(g, l, k)
    assert len(seen) == iterations + 1
    return result, iterations, seen


def _assert_loop_matches_reference(g, l, k):
    """Returns every lollipop a closure ran on."""
    closure, iterations, seen = _loop_with_checked_state(g, l, k)
    expected, expected_iterations, expected_seen = _reference_loop(g, l)
    assert seen == expected_seen
    assert closure.cycle[0] not in closure.witnesses
    assert (_summary(closure), iterations) == (_summary(expected), expected_iterations)
    verify_closure_lemmas(g, closure)
    # every witness runs from the anchor to its own vertex on the closure's
    # cycle, as its flips place them
    cycle, t = closure.cycle, len(closure.cycle)
    for u, wp in closure.witnesses.items():
        forward = wp.orientation == "forward"
        assert wp.cycle is cycle
        assert _position(0, t, forward, wp.flips) == 0
        assert _position(cycle.index(u), t, forward, wp.flips) == t - 1
        assert cycle[_cycle_slot(t - 1, t, forward, wp.flips)] == u
    return seen


class TestLoopAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_random_hosts(self, k, data):
        n = data.draw(st.integers(k + 2, 40))
        params = {"n": n, "min_degree": k}
        if data.draw(st.booleans()):
            params["avg"] = k
        g = generate("random_min_degree", params, seed=data.draw(st.integers(0, 2**32)))
        _assert_loop_matches_reference(g, initial_lollipop(g), k)

    def test_pinned_n1300_host(self):
        g = generate("random_min_degree", {"n": 1300, "min_degree": 8}, seed=1)
        assert len(_assert_loop_matches_reference(g, initial_lollipop(g), 8)) > 100

    def test_cycle_closed_at_the_head(self):
        # No seed sees a vertex off C = (0, 1, 2, 3), so the first closure
        # pops and builds its index; the depth-1 witness (0, 1, 3, 2) then
        # sees 4.  The head 5 grows to 6, and the grown path
        # (6, 5, 0, 1, 3, 2, 4) ends at 4 of degree 1, so the new cycle
        # closes at the head and holds the grown vertex.
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (0, 5), (5, 6), (6, 0), (2, 4)])
        l = Lollipop(path=(5, 0), cycle=(0, 1, 2, 3))
        seen = _assert_loop_matches_reference(g, l, 2)
        assert seen[1:] == [Lollipop(path=(4, 2, 3, 1, 0), cycle=(0, 5, 6))]


# --- the closure's saturation exit ------------------------------------------

class _CountingDeque(deque):
    """A deque that records every instance and counts its pops."""

    made = []

    def __init__(self, *args):
        super().__init__(*args)
        self.pops = 0
        _CountingDeque.made.append(self)

    def popleft(self):
        self.pops += 1
        return super().popleft()


@pytest.fixture
def counted_queues(monkeypatch):
    """The worklists of the closures run in the test, oldest first."""
    monkeypatch.setattr(_CountingDeque, "made", [])
    monkeypatch.setattr(lollipop, "deque", _CountingDeque)
    return _CountingDeque.made


def _final_lollipop(g):
    return _reference_loop(g, initial_lollipop(g))[2][-1]


class TestSaturationExit:
    """The closure stops popping once every cycle vertex but the anchor is
    active, and reaches the same fixpoint as the reference closure."""

    def test_triangle_is_saturated_when_seeded(self, counted_queues):
        g, l = cyc(3), Lollipop(path=(0,), cycle=(0, 1, 2))
        closure = active_closure(g, l, 2)
        assert _summary(closure) == _summary(_reference_closure(g, l))
        assert closure.active == {1, 2}
        assert [q.pops for q in counted_queues] == [0]

    def test_petersen_drains_its_queue(self, counted_queues):
        g = petersen()
        l = _final_lollipop(g)
        closure = active_closure(g, l, 3)
        assert _summary(closure) == _summary(_reference_closure(g, l))
        assert (len(closure.active), len(closure.cycle) - 1) == (6, 8)
        assert [q.pops for q in counted_queues] == [6]

    def test_host_with_passive_runs(self, counted_queues):
        g = _seed7_host()
        l = _final_lollipop(g)
        closure = active_closure(g, l, 3)
        assert _summary(closure) == _summary(_reference_closure(g, l))
        assert closure.passive_edges
        assert [q.pops for q in counted_queues] == [len(closure.active)]

    def test_pinned_n1300_final_closure_pops(self, counted_queues):
        # A count, not a clock: the fixpoint of this host activates every
        # cycle vertex but the anchor, and the last activation comes after
        # 748 pops; draining the worklist would take 1299.
        g = generate("random_min_degree", {"n": 1300, "min_degree": 8}, seed=1)
        cert = find_dense_cycle(g, 8)
        assert len(cert.closure.active) == len(cert.cycle) - 1 == 1299
        assert counted_queues[-1].pops <= 748
