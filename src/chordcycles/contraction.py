"""Contraction plans that trade a chord-dense cycle for a denser quotient.

Starting from a dense-cycle certificate, X0 contracts the passive edges, X1
additionally merges each non-active class into its predecessor along the
quotient cycle, and X2 is whichever of the two quotients has the larger exact
average degree.  The punchline: G1 keeps minimum degree at least ceil((k+2)/2)
and G2 keeps average degree at least 2(k+1)/3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InternalInvariantError, ValidationError
from .graph import (
    ContractionPlan,
    Graph,
    check_cycle,
    chords_of_cycle,
    contract_edges,
    degree_stats,
    edge,
    induced_subgraph,
)
from .lollipop import DenseCycleCertificate


@dataclass(frozen=True)
class ContractionReport:
    """One applied contraction: the quotient, its spanning cycle of classes,
    and the chord diagnostics (n_a both-active, n_b one-active, m actives)
    measured on the passive quotient and carried along unchanged."""

    label: str
    k: int
    plan: ContractionPlan
    quotient: Graph
    quotient_cycle: tuple
    active_classes: frozenset
    host_vertices: tuple
    n_a: int
    n_b: int
    m: int


def passive_contraction(g: Graph, cert: DenseCycleCertificate) -> ContractionReport:
    """Drop everything off the cycle, then contract the passive edges.

    Active vertices are untouched by the contraction and keep their exact
    cycle degree in the quotient; that is asserted, not hoped for.
    """
    cycle = check_cycle(g, cert.cycle)
    active = set(cert.closure.active)
    if not active <= set(cycle):
        raise ValidationError("certificate active set strays off its cycle")

    g0, old_ids = induced_subgraph(g, cycle)
    relabel = {u: i for i, u in enumerate(old_ids)}
    cycle0 = tuple(relabel[u] for u in cycle)
    active0 = frozenset(relabel[u] for u in active)
    passive0 = [
        (relabel[u], relabel[v]) for u, v in sorted(cert.closure.passive_edges)
    ]

    quotient, plan = contract_edges(g0, passive0, cycle=cycle0)
    qcycle = tuple(plan.class_of[arc[0]] for arc in plan.arcs)
    if len(check_cycle(quotient, qcycle)) != quotient.n:
        raise InternalInvariantError("quotient cycle does not span the quotient")

    active_classes = frozenset(plan.class_of[u] for u in active0)
    if len(active_classes) != len(active0):
        raise InternalInvariantError("two active vertices fell into one class")
    for u in active0:
        if quotient.degree(plan.class_of[u]) != g0.degree(u):
            raise InternalInvariantError(
                f"active vertex {old_ids[u]} lost degree in the passive quotient"
            )

    m = len(active_classes)
    n_a = n_b = 0
    for a, b in chords_of_cycle(quotient, qcycle):
        hits = (a in active_classes) + (b in active_classes)
        if hits == 2:
            n_a += 1
        elif hits == 1:
            n_b += 1
    if 2 * n_a + n_b < (cert.k - 2) * m:
        raise InternalInvariantError(
            f"chord count 2*{n_a}+{n_b} below the (k-2)m = {(cert.k - 2) * m} floor"
        )

    return ContractionReport(
        label="X0",
        k=cert.k,
        plan=plan,
        quotient=quotient,
        quotient_cycle=qcycle,
        active_classes=active_classes,
        host_vertices=tuple(old_ids),
        n_a=n_a,
        n_b=n_b,
        m=m,
    )


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

    qcycle = report0.quotient_cycle
    size = len(qcycle)
    active_classes = report0.active_classes
    arcs = report0.plan.arcs
    g0 = report0.plan.host
    quotient0 = report0.quotient

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
    forced = [i for i in positions if quotient0.degree(qcycle[i]) < floor]

    cycle0 = tuple(v for arc in arcs for v in arc)
    base_edges = set(report0.plan.contracted_edges)
    best = None
    for assignment in _pairing_choices(positions, forced):
        # a quotient-cycle edge (class, partner) is witnessed by the host cycle
        # edge joining the two arcs' facing endpoints; each pattern merges in
        # one direction, so no two classes share a partner
        extra = {
            edge(arcs[i - 1][-1], arcs[i][0]) if side < 0
            else edge(arcs[i][-1], arcs[(i + 1) % size][0])
            for i, side in assignment.items()
        }
        quotient, plan = contract_edges(g0, sorted(base_edges | extra), cycle=cycle0)
        if min(quotient.degree(u) for u in range(quotient.n)) >= floor:
            best = (quotient, plan, len(positions) - len(assignment))
            break
    if best is None:
        raise InternalInvariantError(
            f"no pairing of non-active classes reaches min degree {floor}"
        )

    quotient, plan, skipped = best
    qcycle1 = tuple(plan.class_of[arc[0]] for arc in plan.arcs)
    if len(check_cycle(quotient, qcycle1)) != quotient.n:
        raise InternalInvariantError("quotient cycle does not span the quotient")
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
    return ContractionReport(
        label="X1",
        k=k,
        plan=plan,
        quotient=quotient,
        quotient_cycle=qcycle1,
        active_classes=relabeled_active,
        host_vertices=report0.host_vertices,
        n_a=report0.n_a,
        n_b=report0.n_b,
        m=report0.m,
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
    avg0 = degree_stats(report0.quotient).avg_degree
    avg1 = degree_stats(report1.quotient).avg_degree
    chosen = report1 if avg1 > avg0 else report0
    bound = Fraction(2 * (report0.k + 1), 3)
    achieved = max(avg0, avg1)
    if achieved < bound:
        raise InternalInvariantError(
            f"best average degree {achieved} below 2(k+1)/3 = {bound}"
        )
    return replace(chosen, label="X2")


def pipeline(g: Graph, cert: DenseCycleCertificate):
    """All three reports for one certificate: passive, half, and best-average."""
    report0 = passive_contraction(g, cert)
    report1 = half_contraction(report0)
    report2 = choose_average_plan(report0, report1)
    return report0, report1, report2
