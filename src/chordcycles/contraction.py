"""Contraction plans that trade a chord-dense cycle for a denser quotient.

Starting from a dense-cycle certificate, X0 contracts the passive edges, X1
additionally merges each non-active class into its predecessor along the
quotient cycle, and X2 is whichever of the two quotients has the larger exact
average degree.  The punchline: G1 keeps minimum degree at least ceil((k+2)/2)
and G2 keeps average degree at least 2(k+1)/3.  `verify_contraction` checks
those claims as stated stages, without re-running any of the plans.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction

from .errors import InternalInvariantError, ValidationError
from .graph import (
    ContractionPlan,
    Graph,
    check_cycle,
    contract_edges,
    cycle_edge_set,
    degree_stats,
    edge,
    induced_subgraph,
)
from .lollipop import DenseCycleCertificate, passive_edges


@dataclass(frozen=True)
class StageClaim:
    """One stage as a contraction artifact states it.

    `contracted_edges` are edges of the certificate cycle in the ids of
    `induced_subgraph(g, cycle)`, that is in sorted vertex order; `graph` is
    the quotient they give, and `cycle` lists its classes in cycle order.
    """

    label: str
    graph: Graph
    cycle: tuple
    active_classes: frozenset
    contracted_edges: frozenset
    min_degree: int
    avg_degree: Fraction


@dataclass(frozen=True)
class ContractionReport(StageClaim):
    """A stage as the pipeline produced it: what the artifact states, plus
    the degree k, the contraction plan, and the chord diagnostics (n_a
    both-active, n_b one-active, m actives) measured on the passive quotient
    and carried along unchanged."""

    k: int
    plan: ContractionPlan
    n_a: int
    n_b: int
    m: int


STAGE_LABELS = ("X0", "X1", "X2")


def _renumbered(g: Graph, cycle: tuple) -> tuple[Graph, tuple, dict]:
    """G[C] numbered in sorted vertex order, C in that numbering, and the
    map from old ids to new."""
    g0, old_ids = induced_subgraph(g, cycle)
    relabel = {u: i for i, u in enumerate(old_ids)}
    return g0, tuple(relabel[u] for u in cycle), relabel


def _stage_quotient(g0: Graph, cycle0: tuple, edges) -> tuple[Graph, ContractionPlan, tuple]:
    """Contract `edges` of the cycle `cycle0` in g0: the quotient, its plan,
    and its classes in the order the cycle meets them."""
    quotient, plan = contract_edges(g0, edges, cycle=cycle0)
    return quotient, plan, tuple(plan.class_of[arc[0]] for arc in plan.arcs)


def passive_contraction(g: Graph, cert: DenseCycleCertificate) -> ContractionReport:
    """Drop everything off the cycle, then contract the passive edges.

    The passive edges are computed from the certificate's cycle and active
    set, so each active vertex is a class of its own; that it keeps its
    exact cycle degree in the quotient is asserted, not hoped for.
    """
    cycle = check_cycle(g, cert.cycle)
    active = set(cert.closure.active)
    if not active <= set(cycle):
        raise ValidationError("certificate active set strays off its cycle")

    g0, cycle0, relabel = _renumbered(g, cycle)
    passive0 = [(relabel[u], relabel[v]) for u, v in sorted(passive_edges(cycle, active))]
    quotient, plan, qcycle = _stage_quotient(g0, cycle0, passive0)

    active_classes = frozenset(plan.class_of[relabel[u]] for u in active)
    for u in active:
        if quotient.degree(plan.class_of[relabel[u]]) != g0.degree(relabel[u]):
            raise InternalInvariantError(
                f"active vertex {u} lost degree in the passive quotient"
            )

    m = len(active_classes)
    n_a, n_b = _chord_counts(quotient, qcycle, active_classes)
    if 2 * n_a + n_b < (cert.k - 2) * m:
        raise InternalInvariantError(
            f"chord count 2*{n_a}+{n_b} below the (k-2)m = {(cert.k - 2) * m} floor"
        )

    stats = degree_stats(quotient)
    return ContractionReport(
        label="X0",
        graph=quotient,
        cycle=qcycle,
        active_classes=active_classes,
        contracted_edges=plan.contracted_edges,
        min_degree=stats.min_degree,
        avg_degree=stats.avg_degree,
        k=cert.k,
        plan=plan,
        n_a=n_a,
        n_b=n_b,
        m=m,
    )


def _chord_counts(quotient: Graph, qcycle, active_classes) -> tuple[int, int]:
    """(n_a, n_b): the chords of the quotient cycle with both ends active,
    and with exactly one.

    `qcycle` must be a cycle that spans the quotient, as the producers build
    it and `_verify_stage` checks it, so every edge is a cycle edge or a
    chord, and the t >= 3 cycle edges are distinct.
    The edges at active classes are counted from neighbourhood sizes, and
    the cycle edges among them taken off.
    """
    inside = outside = 0
    for a in active_classes:
        nbrs = quotient.adj[a]
        shared = len(nbrs & active_classes)
        inside += shared
        outside += len(nbrs) - shared
    ends = [0, 0, 0]
    for a, b in zip(qcycle, qcycle[1:] + qcycle[:1]):
        ends[(a in active_classes) + (b in active_classes)] += 1
    return inside // 2 - ends[2], outside - ends[1]


def half_contraction(report0: ContractionReport) -> ContractionReport:
    """Merge non-active classes into cycle neighbors until the degree floor holds.

    The default is the textbook move: every non-active class merges with its
    predecessor along the quotient cycle (the pairs are vertex-disjoint by the
    alternation structure).  In a simple quotient that can occasionally destroy
    a chord outright, when the chord lands parallel to a cycle edge, and a
    vertex with no slack then drops below ceil((k+2)/2).  Merging is only an
    existence game, so when that happens two more pairings are tried: every
    non-active class merges with its successor instead, and then only the
    classes below the floor merge with their predecessor while the others
    stay unmerged.  The first pairing meeting the floor wins; if none does,
    that is an internal error worth hearing about.

    For k = 2 the pairing can crush the quotient to a single simple edge, so
    the plan keeps the passive quotient, whose spanning cycle already meets
    the ceil((k+2)/2) = 2 floor.
    """
    k = report0.k
    if k == 2:
        return replace(report0, label="X1")
    floor = (k + 3) // 2

    qcycle = report0.cycle
    size = len(qcycle)
    active_classes = report0.active_classes
    arcs = report0.plan.arcs
    g0 = report0.plan.host

    positions = []  # index into qcycle of each non-active class
    for i, cls in enumerate(qcycle):
        if cls in active_classes:
            continue
        before = qcycle[(i - 1) % size]
        after = qcycle[(i + 1) % size]
        if before not in active_classes or after not in active_classes:
            raise InternalInvariantError(
                f"non-active class {cls} is not isolated between active classes"
            )
        positions.append(i)
    # classes that cannot stand alone without breaking the degree floor
    forced = [i for i in positions if report0.graph.degree(qcycle[i]) < floor]

    cycle0 = tuple(v for arc in arcs for v in arc)
    base_edges = set(report0.contracted_edges)
    for assignment in _pairing_choices(positions, forced):
        # a quotient-cycle edge (class, partner) is witnessed by the host cycle
        # edge joining the two arcs' facing endpoints; each pattern merges in
        # one direction, so no two classes share a partner
        extra = {
            edge(arcs[i - 1][-1], arcs[i][0]) if side < 0
            else edge(arcs[i][-1], arcs[(i + 1) % size][0])
            for i, side in assignment.items()
        }
        quotient, plan, qcycle1 = _stage_quotient(g0, cycle0, sorted(base_edges | extra))
        stats = degree_stats(quotient)
        if stats.min_degree >= floor:
            skipped = len(positions) - len(assignment)
            break
    else:
        raise InternalInvariantError(
            f"no pairing of non-active classes reaches min degree {floor}"
        )

    if quotient.n != report0.m + skipped:
        raise InternalInvariantError(
            f"half contraction left {quotient.n} classes, "
            f"expected {report0.m} active plus {skipped} unmerged"
        )
    if quotient.n < k:
        raise InternalInvariantError("half contraction fell below k vertices")

    # map surviving active classes through the second contraction
    relabeled_active = frozenset(
        plan.class_of[arcs[i][0]] for i, cls in enumerate(qcycle) if cls in active_classes
    )
    return replace(
        report0,
        label="X1",
        graph=quotient,
        cycle=qcycle1,
        active_classes=relabeled_active,
        contracted_edges=plan.contracted_edges,
        min_degree=stats.min_degree,
        avg_degree=stats.avg_degree,
        plan=plan,
    )


def _pairing_choices(positions, forced):
    """The merge patterns tried, in order.

    Each assignment maps a non-active position to -1 (merge with predecessor)
    or +1 (merge with successor); omitted positions stay unmerged.  Pattern 0
    is the uniform predecessor pairing, pattern 1 the uniform successor
    pairing, and pattern 2 merges only the `forced` positions, those whose
    class is below the degree floor, with their predecessors.
    """
    yield {i: -1 for i in positions}
    yield {i: +1 for i in positions}
    yield {i: -1 for i in forced}


def choose_average_plan(
    report0: ContractionReport, report1: ContractionReport
) -> ContractionReport:
    """Keep whichever quotient has the strictly larger average degree.

    Comparison is exact rational; a tie keeps the passive quotient, which
    preserves more of the host.  The winner must average at least 2(k+1)/3.
    """
    chosen = report1 if report1.avg_degree > report0.avg_degree else report0
    bound = Fraction(2 * (report0.k + 1), 3)
    if chosen.avg_degree < bound:
        raise InternalInvariantError(
            f"best average degree {chosen.avg_degree} below 2(k+1)/3 = {bound}"
        )
    return replace(chosen, label="X2")


def pipeline(g: Graph, cert: DenseCycleCertificate):
    """The stages X0 (passive), X1 (half) and X2 (best average) of one
    certificate, as a contraction artifact states them."""
    report0 = passive_contraction(g, cert)
    report1 = half_contraction(report0)
    report2 = choose_average_plan(report0, report1)
    return report0, report1, report2


def verify_contraction(g: Graph, k, cycle, stages, n_a, n_b, m) -> None:
    """Check a contraction artifact's claims against the artifact alone.

    Each stage must be the cyclic minor of the certificate cycle C that its
    contracted cycle edges give, with the stated degrees; X0 must leave its
    active classes uncontracted and recount to n_a, n_b and m; X1 must keep
    min degree ceil((k+2)/2); and X2 must be X0 or X1 relabelled, averaging
    at least 2(k+1)/3.  Two contractions of the subgraph induced on C do it
    all, in O(|E(G[C])| + |C|).  Raises ValidationError on the first claim
    that fails.
    """
    cycle = check_cycle(g, cycle)
    if type(k) is not int or k < 2:
        raise ValidationError(f"k must be an integer >= 2, got {k!r}")
    if tuple(stage.label for stage in stages) != STAGE_LABELS:
        raise ValidationError("contraction stages must be X0, X1, X2 in order")
    x0, x1, x2 = stages

    g0, cycle0, _ = _renumbered(g, cycle)
    on_cycle = cycle_edge_set(cycle0)
    plan0 = _verify_stage(g0, cycle0, on_cycle, x0)
    plan1 = _verify_stage(g0, cycle0, on_cycle, x1)

    active = x0.active_classes
    if not all(0 <= c < x0.graph.n for c in active):
        raise ValidationError("X0 active classes must be classes of X0")
    for u, v in sorted(x0.contracted_edges):
        if plan0.class_of[u] in active or plan0.class_of[v] in active:
            raise ValidationError(f"X0 contracts ({u}, {v}), which touches an active class")
    recount = (*_chord_counts(x0.graph, x0.cycle, active), len(active))
    if (n_a, n_b, m) != recount:
        raise ValidationError(
            f"n_a, n_b, m are {n_a}, {n_b}, {m}; X0's chords give {recount[0]}, "
            f"{recount[1]}, {recount[2]}"
        )
    if 2 * n_a + n_b < (k - 2) * m:
        raise ValidationError(f"chord count 2*{n_a}+{n_b} below (k-2)m = {(k - 2) * m}")

    # an X0 class maps into X1 through any of its members, say its arc's first
    first = {cls: arc[0] for cls, arc in zip(x0.cycle, plan0.arcs)}
    if x1.active_classes != frozenset(plan1.class_of[first[c]] for c in active):
        raise ValidationError("X1 active classes are not the classes of X0's")
    floor = (k + 3) // 2
    if x1.min_degree < floor:
        raise ValidationError(f"X1 min degree {x1.min_degree} below ceil((k+2)/2) = {floor}")

    if _claim(x2) not in (_claim(x0), _claim(x1)):
        raise ValidationError("X2 is neither X0 nor X1")
    bound = Fraction(2 * (k + 1), 3)
    if x2.avg_degree < bound:
        raise ValidationError(f"X2 average degree {x2.avg_degree} below 2(k+1)/3 = {bound}")


def _claim(stage: StageClaim) -> tuple:
    """What a stage states apart from its label, whatever its class."""
    return tuple(getattr(stage, f.name) for f in fields(StageClaim) if f.name != "label")


def _verify_stage(g0: Graph, cycle0: tuple, on_cycle, stage: StageClaim) -> ContractionPlan:
    """Contract the stage's edges in G[C] and compare with what it states."""
    for u, v in sorted(stage.contracted_edges):
        if edge(u, v) not in on_cycle:
            raise ValidationError(
                f"{stage.label} contracts ({u}, {v}), not an edge of the certificate cycle"
            )
    quotient, plan, qcycle = _stage_quotient(g0, cycle0, stage.contracted_edges)
    if quotient != stage.graph:
        raise ValidationError(f"{stage.label} graph is not the quotient by its contracted edges")
    if stage.cycle != qcycle:
        raise ValidationError(f"{stage.label} cycle does not list its classes in cycle order")
    check_cycle(quotient, stage.cycle)
    stats = degree_stats(quotient)
    if (stage.min_degree, stage.avg_degree) != (stats.min_degree, stats.avg_degree):
        raise ValidationError(
            f"{stage.label} states min degree {stage.min_degree} and average "
            f"{stage.avg_degree}; its graph has {stats.min_degree} and {stats.avg_degree}"
        )
    return plan
