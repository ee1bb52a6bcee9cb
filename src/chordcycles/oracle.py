"""Brute-force certifiers, kept deliberately independent of the constructive code.

Everything here answers by exhaustion over small instances: Hamiltonian cycle
listings, unpruned rotation fixpoints, cyclic-minor searches, and chord maxima
over all cycles.  Tests use these to cross-check the constructive modules, so
this module must never import them; only the graph core is shared.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SizeGuardExceeded, ValidationError
from .graph import (
    Graph,
    check_cycle,
    chord_budget_degeneracy_bound,
    cycle_edge_set,
    degeneracy,
    edge,
    induced_subgraph,
)


def _check_guard(value: int, guard: int, what: str):
    if value > guard:
        raise SizeGuardExceeded(
            f"{what} {value} exceeds guard {guard}; pass a larger guard explicitly to proceed"
        )


# --- Hamiltonian enumeration ------------------------------------------------

def _hamiltonian_paths(g: Graph, start: int, close: bool):
    """Hamiltonian paths of g from `start`, in lexicographic order.

    With close, only canonical Hamiltonian cycles: paths whose last vertex is
    adjacent to `start` and whose second entry is smaller than their last,
    so each cycle appears once per rotation/reflection class.
    """
    n = g.n
    if close and n < 3:
        return
    nbrs = [sorted(a) for a in g.adj]
    used = [False] * n
    used[start] = True
    path = [start]
    stack = [iter(nbrs[start])]  # the untried neighbours of each path vertex
    while path:
        if len(path) == n and (not close or (path[1] < path[-1] and start in g.adj[path[-1]])):
            yield tuple(path)
        for v in stack[-1]:  # a full path has no unused neighbour left
            if not used[v]:
                used[v] = True
                path.append(v)
                stack.append(iter(nbrs[v]))
                break
        else:
            stack.pop()
            used[path.pop()] = False


def enumerate_hamiltonian_cycles(g: Graph, guard_n: int = 14) -> list[tuple]:
    """All Hamiltonian cycles of g, one representative per rotation/reflection.

    Canonical form: starts at vertex 0, second entry smaller than last entry;
    output is in lexicographic order.  Empty list when none exist.
    """
    _check_guard(g.n, guard_n, "vertex count")
    return list(_hamiltonian_paths(g, 0, True))


def first_hamiltonian_cycle(g: Graph, guard_n: int = 14) -> tuple | None:
    """Lexicographically first canonical Hamiltonian cycle, or None."""
    _check_guard(g.n, guard_n, "vertex count")
    return next(_hamiltonian_paths(g, 0, True), None)


def hamiltonian_paths_from(g: Graph, start: int, guard_n: int = 14) -> list[tuple]:
    """All Hamiltonian paths of g starting at `start`, in lexicographic order."""
    _check_guard(g.n, guard_n, "vertex count")
    if not 0 <= start < g.n:
        raise ValidationError(f"start vertex {start} not in graph")
    return list(_hamiltonian_paths(g, start, False))


# --- rotation fixpoint, no pruning -----------------------------------------

@dataclass(frozen=True)
class FullEnumeration:
    """Least fixpoint of the rotation rule over a cycle, without pruning."""

    paths: frozenset
    active: frozenset


def _one_step_rotations(g: Graph, q: tuple, cycle_edges: frozenset):
    """Every path derivable from q by one rotation.

    q ends at u.  For a pivot v = q[i] with i <= len-3 and uv an edge, the
    segment after v flips; the move is admitted only when the edge it breaks,
    v--q[i+1], lies on the reference cycle.
    """
    u = q[-1]
    for i in range(len(q) - 2):
        v = q[i]
        if v not in g.adj[u]:
            continue
        if edge(v, q[i + 1]) not in cycle_edges:
            continue
        yield q[: i + 1] + tuple(reversed(q[i + 1:]))


def _seed_paths(cycle: tuple) -> tuple:
    forward = tuple(cycle)
    backward = (cycle[0],) + tuple(reversed(cycle[1:]))
    return forward, backward


def full_active_enumeration(g: Graph, cycle, guard_t: int = 10) -> FullEnumeration:
    """Close the two cycle orientations under rotations, keeping every path.

    Paths are Hamiltonian paths of the graph induced on the cycle's vertices,
    all starting at cycle[0]; `active` collects their terminal vertices.
    """
    cycle = check_cycle(g, cycle)
    _check_guard(len(cycle), guard_t, "cycle length")
    cycle_edges = cycle_edge_set(cycle)
    seen = set(_seed_paths(cycle))
    frontier = list(seen)
    while frontier:
        new = []
        for q in frontier:
            for r in _one_step_rotations(g, q, cycle_edges):
                if r not in seen:
                    seen.add(r)
                    new.append(r)
        frontier = new
    return FullEnumeration(paths=frozenset(seen), active=frozenset(q[-1] for q in seen))


def active_path_census(g: Graph, cycle, guard_n: int | None = None) -> tuple[set, frozenset]:
    """The exhaustive census of a cycle: every Hamiltonian path of the graph
    induced on its vertices from its anchor, and the paths its unpruned
    rotation closure reaches.  guard_n, when given, raises both size guards."""
    guards = () if guard_n is None else (guard_n,)
    enum = full_active_enumeration(g, cycle, *guards)
    sub, old_ids = induced_subgraph(g, cycle)
    everything = {
        tuple(old_ids[v] for v in p)
        for p in hamiltonian_paths_from(sub, old_ids.index(cycle[0]), *guards)
    }
    return everything, enum.paths


def rotation_levels(g: Graph, cycle, levels: int, guard_t: int = 10) -> list[frozenset]:
    """The sets S_1..S_levels, each the exact one-step image of its predecessor.

    S_1 holds the two orientations; S_{i+1} holds precisely the rotations of
    members of S_i.  Containment of consecutive levels is a theorem about the
    rule, not baked into this construction, so tests can observe it honestly.
    """
    cycle = check_cycle(g, cycle)
    _check_guard(len(cycle), guard_t, "cycle length")
    if levels < 1:
        raise ValidationError("need at least one level")
    cycle_edges = cycle_edge_set(cycle)
    out = [frozenset(_seed_paths(cycle))]
    for _ in range(levels - 1):
        nxt = set()
        for q in out[-1]:
            nxt.update(_one_step_rotations(g, q, cycle_edges))
        out.append(frozenset(nxt))
    return out


# --- cyclic minors ----------------------------------------------------------

@dataclass(frozen=True)
class CyclicMinorWitness:
    """A verified cyclic model found by exhaustion.

    `arcs[i]` contracts to `target_cycle[i]`; concatenating the arcs in order
    reproduces `cycle` exactly.
    """

    subset: tuple
    cycle: tuple
    arcs: tuple
    target_cycle: tuple


def _neighbour_masks(g: Graph) -> list[int]:
    """Bit u of masks[v] is set when uv is an edge of g."""
    masks = []
    for nbrs in g.adj:
        mask = 0
        for u in nbrs:
            mask |= 1 << u
        masks.append(mask)
    return masks


def _subset_census(nb: list[int], sizes):
    """(subset, its mask, induced edge count, induced minimum degree) for every
    vertex subset of each size in `sizes`, each size in lexicographic order."""
    for size in sizes:
        for subset in itertools.combinations(range(len(nb)), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            degrees = [(nb[v] & mask).bit_count() for v in subset]
            yield subset, mask, sum(degrees) // 2, min(degrees)


def _mask_connected(nb: list[int], mask: int) -> bool:
    seen = frontier = mask & -mask
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= nb[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen == mask


def _pair_checks(target: Graph, alignments: list[tuple]) -> list[list]:
    """checks[j] lists (i, keep) for each earlier arc i < j that arc j must
    touch under some alignment; `keep` clears those alignments from a mask.

    Arcs next to each other on the cycle, the last arc and arc 0 included,
    always touch through the cycle edge between them, so they are not listed.
    """
    nt = target.n
    needs = {}
    for a, aligned in enumerate(alignments):
        pos = {vtx: i for i, vtx in enumerate(aligned)}
        for u, v in target.edges():
            key = tuple(sorted((pos[u], pos[v])))
            needs[key] = needs.get(key, 0) | 1 << a
    return [
        [
            (i, ~needs[i, j])
            for i in range(j - 1)
            if (i, j) in needs and (i, j) != (0, nt - 1)
        ]
        for j in range(nt)
    ]


def _first_cuts(seq: tuple, nb: list[int], checks: list[list], alive: int):
    """The first cuts of `seq` into len(checks) arcs, in the order of
    itertools.combinations, that leave an alignment alive; returns the cuts
    and the bit of the lowest alignment left, or None.

    Arc j is seq[cuts[j]:cuts[j + 1]] and the last arc wraps round,
    seq[cuts[-1]:] + seq[:cuts[0]].  Cuts are placed left to right; each arc
    is tested against the earlier ones as soon as it is closed, and a branch
    ends when no alignment survives its failed pairs.
    """
    size, nt = len(seq), len(checks)
    # head_nb[c] and tail_nb[c]: the neighbours of seq[:c] and of seq[c:]
    head_nb, tail_nb = [0] * (size + 1), [0] * (size + 1)
    for c in range(size):
        head_nb[c + 1] = head_nb[c] | nb[seq[c]]
        tail_nb[size - 1 - c] = tail_nb[size - c] | nb[seq[size - 1 - c]]
    cuts = [0] * nt
    arc = [0] * nt  # vertex mask of each closed arc

    def place(j: int, alive: int) -> int:
        # cuts[:j] are placed; cuts[j] closes arc j - 1, grown one vertex a step
        s, pairs = cuts[j - 1], checks[j - 1]
        grown = reach = 0
        for c in range(s + 1, size - nt + j + 1):
            x = seq[c - 1]
            grown |= 1 << x
            reach |= nb[x]
            left = alive
            for i, keep in pairs:
                if not reach & arc[i]:
                    left &= keep
            if not left:
                continue
            arc[j - 1] = grown
            cuts[j] = c
            if j < nt - 1:
                left = place(j + 1, left)
            else:  # the wrap-around last arc closes too
                wrap = tail_nb[c] | head_nb[cuts[0]]
                for i, keep in checks[nt - 1]:
                    if not wrap & arc[i]:
                        left &= keep
            if left:
                return left
        return 0

    for c0 in range(size - nt + 1):
        cuts[0] = c0
        left = place(1, alive)
        if left:
            return tuple(cuts), left & -left
    return None


def cyclic_minor_exists(g: Graph, target: Graph, guard_n: int = 14) -> CyclicMinorWitness | None:
    """Search every cycle of g for a contiguous-arc model of `target`.

    A model is a cycle of g cut into |V(target)| arcs, one per vertex of some
    Hamiltonian cycle of target taken in cyclic order, such that every target
    edge has at least one host edge between the matching arcs.  Exhaustive over
    vertex subsets, Hamiltonian cycles of the induced graph, cut positions and
    target alignments; first witness in that order is returned, else None.
    """
    _check_guard(g.n, guard_n, "vertex count")
    nt = target.n
    if nt < 3:
        raise ValidationError("target needs at least 3 vertices")
    surplus_needed = target.edge_count - nt
    complete_target = target.edge_count == nt * (nt - 1) // 2
    if complete_target:
        alignments = [tuple(range(nt))]
    else:
        alignments = []
        for tc in enumerate_hamiltonian_cycles(target):
            for flip in (False, True):
                base = tc if not flip else (tc[0],) + tuple(reversed(tc[1:]))
                for r in range(nt):
                    alignments.append(base[r:] + base[:r])
        if not alignments:
            return None  # target has no spanning cycle, so no cyclic model

    checks = _pair_checks(target, alignments)
    every_alignment = (1 << len(alignments)) - 1
    nb = _neighbour_masks(g)
    for subset, mask, edges, low in _subset_census(nb, range(nt, g.n + 1)):
        if low < 2 or edges - len(subset) < surplus_needed or not _mask_connected(nb, mask):
            continue
        sub, old_ids = induced_subgraph(g, subset)
        for local_cycle in enumerate_hamiltonian_cycles(sub, guard_n=guard_n):
            seq = tuple(old_ids[v] for v in local_cycle)
            found = _first_cuts(seq, nb, checks, every_alignment)
            if found is not None:
                cuts, first = found
                rotated = seq[cuts[0]:] + seq[: cuts[0]]
                bounds = [c - cuts[0] for c in cuts] + [len(seq)]
                return CyclicMinorWitness(
                    subset=subset,
                    cycle=rotated,
                    arcs=tuple(rotated[bounds[i]: bounds[i + 1]] for i in range(nt)),
                    target_cycle=alignments[first.bit_length() - 1],
                )
    return None


# --- chord maxima and the degeneracy corollary ------------------------------

@dataclass(frozen=True)
class ChordMaximum:
    chords: int
    cycle: tuple


def max_chords_over_cycles(g: Graph, guard_n: int = 12) -> ChordMaximum | None:
    """Maximum chord count over all cycles of g, with a witness cycle.

    Every cycle through vertex set S has exactly |E(g[S])| - |S| chords, no
    matter which spanning cycle of g[S] it is.  So the search sweeps subsets in
    decreasing order of that quantity and stops at the first one whose induced
    graph has a spanning cycle.  Returns None when g has no cycle at all.
    """
    _check_guard(g.n, guard_n, "vertex count")
    # a spanning cycle needs |E| >= |S| and min degree 2; scored from masks,
    # so only the candidates tried are built as graphs
    candidates = sorted(
        (len(subset) - edges, len(subset), subset)
        for subset, _, edges, low in _subset_census(_neighbour_masks(g), range(3, g.n + 1))
        if edges >= len(subset) and low >= 2
    )
    for negated_bound, _, subset in candidates:
        sub, old_ids = induced_subgraph(g, subset)
        local = first_hamiltonian_cycle(sub, guard_n=guard_n)
        if local is not None:
            return ChordMaximum(chords=-negated_bound, cycle=tuple(old_ids[v] for v in local))
    return None


def pell_candidates(limit: int) -> list[int]:
    """All budgets <= limit of both shapes a(a-3)/2 (a >= 3) and b^2-2b (b >= 2)."""
    if limit < 0:
        raise ValidationError("limit must be non-negative")
    first = set()
    a = 3
    while a * (a - 3) // 2 <= limit:
        first.add(a * (a - 3) // 2)
        a += 1
    second = set()
    b = 2
    while b * b - 2 * b <= limit:
        second.add(b * b - 2 * b)
        b += 1
    return sorted(first & second)


def corollary_check(g: Graph, budget: int, guard_n: int = 12) -> bool:
    """Does the degeneracy bound hold for g against this chord budget?

    True unless g both keeps every cycle below `budget` chords and still has
    degeneracy above the bound paired with that budget.  Vacuously true when
    some cycle reaches the budget.
    """
    _check_guard(g.n, guard_n, "vertex count")
    found = max_chords_over_cycles(g, guard_n=guard_n)
    if found is not None and found.chords >= budget:
        return True
    return degeneracy(g).degeneracy <= chord_budget_degeneracy_bound(budget)


def brute_degeneracy(g: Graph, guard_n: int = 8) -> int:
    """Degeneracy straight from the definition: maximin degree over subgraphs."""
    _check_guard(g.n, guard_n, "vertex count")
    if g.n == 0:
        raise ValidationError("degeneracy of the empty graph")
    best = 0
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            sub, _ = induced_subgraph(g, subset)
            best = max(best, min(sub.degree(u) for u in range(sub.n)))
    return best
