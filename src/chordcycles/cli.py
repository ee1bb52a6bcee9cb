"""Command line surface for reproduction runs and certificate emission.

Exit codes: 0 success, 2 honest not-found, 1 error, 3 closure shortfall
(with a full closure dump for diagnosis).  All output is deterministic:
equal invocations produce identical bytes, randomness comes only from
--seed, and JSON is emitted with sorted keys and a versioned "schema".
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import chain

from . import minors, oracle
from .contraction import STAGE_LABELS, StageClaim, pipeline, verify_contraction
from .errors import ClosureShortfall, GraphError, PreconditionError, ValidationError
from .graph import (
    Graph,
    chords_of_cycle,
    degeneracy,
    degree_stats,
    format_rational,
    generate,
    induced_subgraph,
    parse_edge_list,
    to_dot,
)
from .lollipop import (
    SEEDS,
    ActiveClosure,
    WitnessPath,
    find_dense_cycle,
    improve_until_closed,
    initial_lollipop,
    verify_closure_lemmas,
)

SCHEMA = "1"
# Artifacts that carry a rotation closure; schema "1" stored every witness's
# full sequence, schema "2" stores only its seed orientation and derivation.
CLOSURE_SCHEMA = "2"

_TARGET_DEFAULT_K = {"K3": None, "K4": 3, "K5": 8, "K6": 8}


def _guard_kwargs() -> dict:
    """Oracle size guards, raised explicitly via LOLLIPOP_GUARD_N."""
    raw = os.environ.get("LOLLIPOP_GUARD_N")
    if raw is None:
        return {}
    try:
        return {"guard_n": int(raw)}
    except ValueError as exc:
        raise ValidationError(f"LOLLIPOP_GUARD_N must be an integer: {raw!r}") from exc


def _graph_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def _graph_from_json(obj) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValidationError("graph object needs 'n' and 'edges'")
    (n,) = _ints([obj["n"]], "graph n")
    edges = obj["edges"]
    if not isinstance(edges, list) or set(map(type, edges)) - {list} or set(map(len, edges)) - {2}:
        raise ValidationError("graph edges must be a list of [u, v] pairs")
    _ints(list(chain.from_iterable(edges)), "graph edge")
    return Graph(n, edges)


def _parse_params(raw: list[str] | None) -> dict:
    params: dict = {}
    for item in raw or []:
        for piece in item.split(","):
            if not piece:
                continue
            if "=" not in piece:
                raise ValidationError(f"expected key=value, got {piece!r}")
            key, value = piece.split("=", 1)
            try:
                params[key] = int(value)
            except ValueError:
                try:
                    params[key] = float(value)
                except ValueError:
                    params[key] = value
    return params


def _read_input(path: str):
    """An --input file: a JSON object when it starts with '{', else an edge
    list parsed into a Graph.  Undecodable input raises ValidationError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.lstrip().startswith(b"{"):
        try:
            return json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"malformed JSON input: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"input is not UTF-8 text: {exc}") from None
    return parse_edge_list(text)


def _load_graph(args) -> Graph:
    if getattr(args, "input", None):
        obj = _read_input(args.input)
        if isinstance(obj, Graph):
            return obj
        return _graph_from_json(obj["graph"] if "graph" in obj else obj)
    if getattr(args, "family", None):
        return generate(args.family, _parse_params(args.params), seed=args.seed)
    raise ValidationError("need --input or --family")


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _closure_json(closure: ActiveClosure) -> dict:
    witnesses = {}
    for v, wp in sorted(closure.witnesses.items()):
        witnesses[str(v)] = {
            "seed": wp.seed_orientation(closure.cycle),
            "derivation": [[[c[0], c[1]], w] for c, w in wp.derivation],
        }
    return {
        "cycle": list(closure.cycle),
        "active": sorted(closure.active),
        "passive_edges": [[u, v] for u, v in sorted(closure.passive_edges)],
        "witnesses": witnesses,
    }


def _ints(obj, what: str, length: int | None = None) -> tuple:
    """A JSON list of integers as a tuple, or ValidationError."""
    if not isinstance(obj, list) or (length is not None and len(obj) != length):
        size = "a list" if length is None else f"a list of {length}"
        raise ValidationError(f"{what} must be {size} integers")
    for x in obj:
        if type(x) is not int:
            raise ValidationError(f"{what} holds a non-integer {x!r}")
    return tuple(obj)


def _derivation_from_json(obj, what: str) -> tuple:
    if not isinstance(obj, list):
        raise ValidationError(f"{what} derivation must be a list")
    steps = []
    for step in obj:
        if not isinstance(step, list) or len(step) != 2:
            raise ValidationError(f"{what} derivation steps must be [[u, v], w]")
        chord = _ints(step[0], f"{what} derivation chord", 2)
        (w,) = _ints(step[1:], f"{what} derivation step")
        steps.append((chord, w))
    return tuple(steps)


def _closure_from_json(obj, schema: str) -> ActiveClosure:
    """Rebuild a closure from either schema; malformed input raises
    ValidationError.  The audit then checks what the closure claims."""
    if schema not in (SCHEMA, CLOSURE_SCHEMA):
        raise ValidationError(f"unknown closure schema {schema!r}")
    if not isinstance(obj, dict):
        raise ValidationError("closure must be an object")
    cycle = _ints(obj.get("cycle"), "closure cycle")
    active = _ints(obj.get("active"), "closure active set")
    edges = obj.get("passive_edges")
    if not isinstance(edges, list):
        raise ValidationError("closure passive_edges must be a list")
    passive = frozenset(_ints(e, "passive edge", 2) for e in edges)
    raw = obj.get("witnesses")
    if not isinstance(raw, dict):
        raise ValidationError("closure needs a 'witnesses' object")
    witnesses = {}
    for key, w in raw.items():
        vertex = int(key) if key.isascii() and key.lstrip("-").isdigit() else None
        if vertex is None or str(vertex) != key or not isinstance(w, dict):
            raise ValidationError(f"bad witness entry {key!r}")
        what = f"witness {key}"
        derivation = _derivation_from_json(w.get("derivation"), what)
        if schema == SCHEMA:
            witnesses[vertex] = WitnessPath(
                sequence=_ints(w.get("sequence"), f"{what} sequence"),
                derivation=derivation,
                seed=_ints(w.get("seed"), f"{what} seed"),
            )
        else:
            if w.get("seed") not in SEEDS:
                raise ValidationError(f"{what} has unknown seed {w.get('seed')!r}")
            witnesses[vertex] = WitnessPath(derivation=derivation, seed=w["seed"], cycle=cycle)
    return ActiveClosure(
        cycle=cycle,
        active=frozenset(active),
        witnesses=witnesses,
        passive_edges=passive,
    )


def _model_json(model: minors.CyclicMinorModel, origin: str) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "cyclic_minor",
        "origin": origin,
        "graph": _graph_json(model.host),
        "host_cycle": list(model.host_cycle),
        "arcs": [list(arc) for arc in model.arcs],
        "target": model.target_name,
        "target_graph": _graph_json(model.target),
        "target_cycle": list(model.target_cycle),
        "verified": True,
    }


def _rational(obj, what: str) -> Fraction:
    """An exact rational written as format_rational writes it, or ValidationError."""
    if isinstance(obj, str):
        try:
            value = Fraction(obj)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            if format_rational(value) == obj:
                return value
    raise ValidationError(f"{what} must be a rational like '16/3', got {obj!r}")


def _vertices(obj, what: str, g: Graph) -> tuple:
    """A JSON list of vertices of g, or ValidationError."""
    out = _ints(obj, what)
    for v in out:
        if not 0 <= v < g.n:
            raise ValidationError(f"{what} vertex {v} outside 0..{g.n - 1}")
    return out


def _model_from_json(obj) -> minors.CyclicMinorModel:
    host = _graph_from_json(obj.get("graph"))
    target = _graph_from_json(obj.get("target_graph"))
    arcs = obj.get("arcs")
    if not isinstance(arcs, list):
        raise ValidationError("arcs must be a list")
    return minors.CyclicMinorModel(
        host=host,
        host_cycle=_vertices(obj.get("host_cycle"), "host cycle", host),
        arcs=tuple(_ints(arc, "arc") for arc in arcs),
        target=target,
        target_cycle=_vertices(obj.get("target_cycle"), "target cycle", target),
        target_name=obj.get("target"),
    )


def _model_dot(model: minors.CyclicMinorModel) -> str:
    return to_dot(model.host, arcs=model.arcs, name=model.target_name.replace("'", ""))


# ---------------------------------------------------------------- commands


def _cmd_generate(args) -> int:
    g = _load_graph(args)
    if args.format == "json":
        _emit(args, _dump({"schema": SCHEMA, "kind": "graph", "graph": _graph_json(g)}))
    elif args.format == "dot":
        _emit(args, to_dot(g))
    else:
        lines = [f"# n = {g.n}"]
        lines += [f"{u} {v}" for u, v in g.edges()]
        _emit(args, "\n".join(lines))
    return 0


def _cmd_analyze(args) -> int:
    g = _load_graph(args)
    stats = degree_stats(g)
    report = degeneracy(g)
    payload = {
        "schema": SCHEMA,
        "kind": "analysis",
        "graph": _graph_json(g),
        "min_degree": stats.min_degree,
        "avg_degree": format_rational(stats.avg_degree),
        "degeneracy": report.degeneracy,
        "elimination_order": list(report.elimination_order),
    }
    if args.format == "json":
        _emit(args, _dump(payload))
    elif args.format == "dot":
        _emit(args, to_dot(g))
    else:
        _emit(
            args,
            f"n={g.n} m={g.edge_count} min_degree={stats.min_degree} "
            f"avg_degree={format_rational(stats.avg_degree)} "
            f"degeneracy={report.degeneracy}",
        )
    return 0


def _dense_cycle_json(g: Graph, cert) -> dict:
    return {
        "schema": CLOSURE_SCHEMA,
        "kind": "dense_cycle",
        "k": cert.k,
        "graph": _graph_json(g),
        "cycle": list(cert.cycle),
        "high_degree": sorted(cert.high_degree),
        "chords": [[u, v] for u, v in cert.chords],
        "iterations": cert.iterations,
        "closure": _closure_json(cert.closure),
    }


def _cmd_dense_cycle(args) -> int:
    g = _load_graph(args)
    cert = find_dense_cycle(g, args.k)
    if args.format == "json":
        _emit(args, _dump(_dense_cycle_json(g, cert)))
    elif args.format == "dot":
        _emit(args, to_dot(g, arcs=[(v,) for v in cert.cycle]))
    else:
        _emit(
            args,
            f"k={cert.k} cycle_length={len(cert.cycle)} "
            f"high_degree_vertices={len(cert.high_degree)} chords={len(cert.chords)}",
        )
    return 0


def _stage_from_json(obj: dict) -> StageClaim:
    label = obj.get("label")
    if label not in STAGE_LABELS:
        raise ValidationError(f"unknown stage label {label!r}")
    edges = obj.get("contracted_edges")
    if not isinstance(edges, list):
        raise ValidationError(f"{label} contracted_edges must be a list")
    return StageClaim(
        label=label,
        graph=_graph_from_json(obj.get("graph")),
        cycle=_ints(obj.get("cycle"), f"{label} cycle"),
        active_classes=frozenset(_ints(obj.get("active_classes"), f"{label} active_classes")),
        contracted_edges=frozenset(_ints(e, f"{label} contracted edge", 2) for e in edges),
        min_degree=_ints([obj.get("min_degree")], f"{label} min_degree")[0],
        avg_degree=_rational(obj.get("avg_degree"), f"{label} avg_degree"),
    )


def _stage_json(report) -> dict:
    stats = degree_stats(report.quotient)
    return {
        "label": report.label,
        "graph": _graph_json(report.quotient),
        "cycle": list(report.quotient_cycle),
        "active_classes": sorted(report.active_classes),
        "contracted_edges": [[u, v] for u, v in sorted(report.plan.contracted_edges)],
        "min_degree": stats.min_degree,
        "avg_degree": format_rational(stats.avg_degree),
    }


def _cmd_contract(args) -> int:
    g = _load_graph(args)
    cert = find_dense_cycle(g, args.k)
    r0, r1, r2 = pipeline(g, cert)
    payload = {
        "schema": SCHEMA,
        "kind": "contraction",
        "k": args.k,
        "graph": _graph_json(g),
        "certificate_cycle": list(cert.cycle),
        "n_a": r0.n_a,
        "n_b": r0.n_b,
        "m": r0.m,
        "stages": [_stage_json(r) for r in (r0, r1, r2)],
    }
    if args.format == "json":
        _emit(args, _dump(payload))
    elif args.format == "dot":
        _emit(args, to_dot(r2.quotient))
    else:
        lines = []
        for r in (r0, r1, r2):
            stats = degree_stats(r.quotient)
            lines.append(
                f"{r.label}: n={r.quotient.n} m={r.quotient.edge_count} "
                f"min_degree={stats.min_degree} "
                f"avg_degree={format_rational(stats.avg_degree)}"
            )
        _emit(args, "\n".join(lines))
    return 0


def _parse_target(raw: str) -> tuple[str, int | None]:
    if raw in ("K3", "K4", "K5", "K6"):
        return raw, None
    if raw.startswith("Kll:"):
        try:
            ell = int(raw.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad target {raw!r}")
        if ell < 1:
            raise ValidationError(f"bad target {raw!r}")
        return "Kll", ell
    raise ValidationError(
        f"unknown target {raw!r}: expected K3, K4, K5, K6 or Kll:<l>"
    )


def _target_graph(name: str, ell: int | None) -> tuple[Graph, tuple[int, ...]]:
    if name == "Kll":
        return minors.kll_prime_graph(ell)
    n = int(name[1])
    return generate("complete", {"n": n}), tuple(range(n))


def _named_target(name, n: int) -> Graph:
    """The canonical graph an artifact's target name stands for; K'll takes
    its side length from the target's order n."""
    if not isinstance(name, str):
        raise ValidationError(f"bad target {name!r}")
    return _target_graph(*_parse_target(f"Kll:{n // 2}" if name == "K'll" else name))[0]


def _constructive_model(g: Graph, name: str, ell: int | None, k: int | None):
    """Build the target model, routing through the contraction pipeline.

    K3 needs no preparation.  The other targets first extract a dense
    cyclic minor: min degree 3 suffices for K4, the rest want the average
    degree 6 quotient that k = 8 guarantees.  Without an explicit --k the
    pipeline degree is clamped to the host's minimum degree, so dense
    hosts below degree 8 still get their best shot.
    """
    if name == "K3":
        return minors.k3_model(g)
    want_k = k if k is not None else _TARGET_DEFAULT_K.get(name, 8)
    if k is None and g.n > 0:
        want_k = max(2, min(want_k, min(g.degree(u) for u in range(g.n))))
    cert = find_dense_cycle(g, want_k)
    r0, r1, r2 = pipeline(g, cert)
    if name == "K4":
        host, cycle = r1.quotient, r1.quotient_cycle
        return minors.k4_model(host, cycle)
    host, cycle = r2.quotient, r2.quotient_cycle
    if name == "K5":
        return minors.k5_model(host, cycle)
    if name == "K6":
        return minors.k6_from_bipartite(host, cycle)
    return minors.kll_prime_model(host, cycle, ell)


def _model_or_not_found(args, g: Graph, name: str, ell: int | None):
    """The constructive model, or None once the not-found line is printed.

    A failed precondition is a not-found only when --k was left to adapt;
    with an explicit --k it is the user's error and propagates.
    """
    try:
        model = _constructive_model(g, name, ell, args.k)
    except PreconditionError as exc:
        if args.k is not None:
            raise
        _emit(args, f"no cyclic {args.target} minor found ({exc})")
        return None
    if model is None:
        _emit(args, f"no cyclic {args.target} minor found")
    return model


def _cmd_clique_minor(args) -> int:
    g = _load_graph(args)
    name, ell = _parse_target(args.target)
    model = _model_or_not_found(args, g, name, ell)
    if model is None:
        return 2
    if args.oracle:
        target, _ = _target_graph(name, ell)
        witness = oracle.cyclic_minor_exists(g, target, **_guard_kwargs())
        if witness is None:
            raise ValidationError(
                "constructive model exists but the oracle found none"
            )
    if args.format == "json":
        _emit(args, _dump(_model_json(model, "constructive")))
    elif args.format == "dot":
        _emit(args, _model_dot(model))
    else:
        _emit(
            args,
            f"cyclic {args.target} minor: arcs "
            + " | ".join(",".join(map(str, arc)) for arc in model.arcs),
        )
    return 0


def _census(g: Graph, cycle) -> tuple[set, frozenset]:
    """The exhaustive census of a cycle: every Hamiltonian path of the graph
    induced on its vertices from its anchor, and the paths its unpruned
    rotation closure reaches.  LOLLIPOP_GUARD_N raises both size guards."""
    guard = _guard_kwargs()
    enum = oracle.full_active_enumeration(
        g, cycle, **({"guard_t": guard["guard_n"]} if guard else {})
    )
    sub, old_ids = induced_subgraph(g, cycle)
    everything = {
        tuple(old_ids[v] for v in p)
        for p in oracle.hamiltonian_paths_from(sub, old_ids.index(cycle[0]), **guard)
    }
    return everything, enum.paths


def _cmd_active_paths(args) -> int:
    g = _load_graph(args)
    lollipop = initial_lollipop(g)
    if args.full:
        everything, active_paths = _census(g, lollipop.cycle)
        total, active = len(everything), len(active_paths)
        if args.format == "json":
            payload = {
                "schema": SCHEMA,
                "kind": "active_paths",
                "full": True,
                "graph": _graph_json(g),
                "cycle": list(lollipop.cycle),
                "paths": total,
                "active": active,
                "non_active": [list(p) for p in sorted(everything - active_paths)],
            }
            _emit(args, _dump(payload))
        else:
            _emit(args, f"{total} paths, {active} active")
        return 0
    closure, _ = improve_until_closed(g, lollipop, args.k)
    if args.format == "json":
        payload = {
            "schema": CLOSURE_SCHEMA,
            "kind": "active_paths",
            "full": False,
            "k": args.k,
            "graph": _graph_json(g),
            "closure": _closure_json(closure),
        }
        _emit(args, _dump(payload))
    else:
        _emit(
            args,
            f"cycle_length={len(closure.cycle)} active={len(closure.active)} "
            f"witnesses={len(closure.witnesses)}",
        )
    return 0


def _recertify(args, obj) -> int:
    kind = obj.get("kind")
    if kind == "graph":
        _graph_from_json(obj.get("graph"))
        _emit(args, "graph ok")
        return 0
    if kind == "dense_cycle":
        g = _graph_from_json(obj.get("graph"))
        (k,) = _ints([obj.get("k")], "k")
        cycle = _ints(obj.get("cycle"), "cycle")
        closure = _closure_from_json(obj.get("closure"), obj.get("schema"))
        if closure.cycle != cycle:
            raise ValidationError("certificate cycle differs from closure cycle")
        verify_closure_lemmas(g, closure)
        chords = chords_of_cycle(g, cycle)
        if [[u, v] for u, v in chords] != obj.get("chords"):
            raise ValidationError("chord list does not match the graph")
        members = set(cycle)
        high = set(_ints(obj.get("high_degree"), "high_degree"))
        for v in sorted(high):
            if not 0 <= v < g.n:
                raise ValidationError(f"high-degree vertex {v} outside 0..{g.n - 1}")
            d = sum(1 for w in g.adj[v] if w in members)
            if d < k:
                raise ValidationError(f"vertex {v} has cycle degree {d} < {k}")
        if len(high) < k + 1:
            raise ValidationError("too few high-degree vertices")
        if 2 * len(chords) < (k + 1) * (k - 2):
            raise ValidationError("too few chords")
        _emit(args, f"dense cycle certificate ok: k={k} chords={len(chords)}")
        return 0
    if kind == "cyclic_minor":
        model = _model_from_json(obj)
        if model.target != _named_target(model.target_name, model.target.n):
            raise ValidationError(f"target graph is not {model.target_name!r}")
        if not minors.verify_model(model):
            _emit(args, "model does not verify")
            return 2
        _emit(args, f"cyclic {obj['target']} minor ok")
        return 0
    if kind == "contraction":
        if obj.get("schema") != SCHEMA:
            raise ValidationError(f"unknown contraction schema {obj.get('schema')!r}")
        g = _graph_from_json(obj.get("graph"))
        (k,) = _ints([obj.get("k")], "k")
        n_a, n_b, m = _ints([obj.get("n_a"), obj.get("n_b"), obj.get("m")], "n_a, n_b, m")
        stages = obj.get("stages")
        if not isinstance(stages, list) or len(stages) != 3 or not all(
            isinstance(stage, dict) for stage in stages
        ):
            raise ValidationError("contraction needs a list of three stage objects")
        cycle = _ints(obj.get("certificate_cycle"), "certificate cycle")
        verify_contraction(g, k, cycle, [_stage_from_json(s) for s in stages], n_a, n_b, m)
        _emit(args, f"contraction certificate ok: k={k}")
        return 0
    if kind == "active_paths":
        g = _graph_from_json(obj.get("graph"))
        if obj.get("full"):
            everything, active_paths = _census(g, _vertices(obj.get("cycle"), "cycle", g))
            if len(everything) != obj.get("paths") or len(active_paths) != obj.get("active"):
                raise ValidationError("census does not reproduce")
        else:
            closure = _closure_from_json(obj.get("closure"), obj.get("schema"))
            verify_closure_lemmas(g, closure)
        _emit(args, "active path census ok")
        return 0
    raise ValidationError(f"cannot certify artifact of kind {kind!r}")


def _cmd_certify(args) -> int:
    if args.input:
        g = _read_input(args.input)
        if not isinstance(g, Graph):
            return _recertify(args, g)
    else:
        g = _load_graph(args)
    if not args.target:
        raise ValidationError("certify needs --target (or a JSON certificate)")
    name, ell = _parse_target(args.target)
    target, _ = _target_graph(name, ell)
    if args.oracle:
        witness = oracle.cyclic_minor_exists(g, target, **_guard_kwargs())
        if witness is None:
            _emit(args, f"no cyclic {args.target} minor (exhaustive)")
            return 2
        model = minors.CyclicMinorModel(
            host=g,
            host_cycle=witness.cycle,
            arcs=witness.arcs,
            target=target,
            target_cycle=witness.target_cycle,
            target_name=name if name != "Kll" else "K'll",
        )
        if not minors.verify_model(model):
            raise ValidationError("oracle witness failed verification")
        if args.format == "json":
            _emit(args, _dump(_model_json(model, "oracle")))
        else:
            _emit(args, f"cyclic {args.target} minor found (exhaustive)")
        return 0
    model = _model_or_not_found(args, g, name, ell)
    if model is None:
        return 2
    if args.format == "json":
        _emit(args, _dump(_model_json(model, "constructive")))
    else:
        _emit(args, f"cyclic {args.target} minor found")
    return 0


def _cmd_experiment(args) -> int:
    import random

    params = _parse_params(args.params)
    count = int(params.pop("count", 20))
    n_max = int(params.pop("n_max", 48))
    if params:
        raise ValidationError(f"unknown experiment params: {sorted(params)}")
    k = args.k
    base = args.seed if args.seed is not None else 0
    rows = []
    failures = 0
    for i in range(count):
        rng = random.Random(base * 1_000_003 + i)
        n = rng.randint(k + 2, n_max)
        seed = rng.randint(0, 10**9)
        g = generate("random_min_degree", {"n": n, "min_degree": k}, seed=seed)
        row = {"id": i, "n": n, "seed": seed}
        try:
            cert = find_dense_cycle(g, k)
            r0, r1, r2 = pipeline(g, cert)
            stats1 = degree_stats(r1.quotient)
            stats2 = degree_stats(r2.quotient)
            row.update(
                high_degree=len(cert.high_degree),
                chords=len(cert.chords),
                g1_min_degree=stats1.min_degree,
                g2_avg_degree=format_rational(stats2.avg_degree),
                ok=(
                    len(cert.high_degree) >= k + 1
                    and 2 * len(cert.chords) >= (k + 1) * (k - 2)
                    and stats1.min_degree >= (k + 3) // 2
                    and stats2.avg_degree >= Fraction(2 * (k + 1), 3)
                ),
            )
        except ClosureShortfall:
            raise
        except GraphError as exc:
            row.update(ok=False, error=str(exc))
        if not row["ok"]:
            failures += 1
        rows.append(row)
    payload = {
        "schema": SCHEMA,
        "kind": "experiment",
        "k": k,
        "count": count,
        "failures": failures,
        "rows": rows,
    }
    if args.format == "json":
        _emit(args, _dump(payload))
    else:
        lines = [
            f"id={r['id']} n={r['n']} ok={r['ok']}" for r in rows
        ] + [f"failures={failures}/{count}"]
        _emit(args, "\n".join(lines))
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------- plumbing


def _add_common(sub, k_default=None, k_required=False):
    sub.add_argument("--input", help="edge list or JSON artifact")
    sub.add_argument("--family", help="generator family name")
    sub.add_argument("--params", action="append", help="family params key=value[,key=value]")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--format", choices=("json", "dot", "text"), default="text")
    sub.add_argument("--out", help="write output to a file instead of stdout")
    if k_required:
        sub.add_argument("--k", type=int, required=True)
    else:
        sub.add_argument("--k", type=int, default=k_default)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordcycles",
        description="Dense cycles, cyclic contractions and clique minors.",
    )
    cmds = parser.add_subparsers(dest="command", required=True)

    _add_common(cmds.add_parser("generate", help="emit a graph"))
    _add_common(cmds.add_parser("analyze", help="degree and degeneracy stats"))
    _add_common(cmds.add_parser("dense-cycle", help="Theorem 1 certificate"), k_required=True)
    _add_common(cmds.add_parser("contract", help="run the contraction pipeline"), k_required=True)

    cm = cmds.add_parser("clique-minor", help="construct a cyclic clique minor")
    _add_common(cm)
    cm.add_argument("--target", required=True)
    cm.add_argument("--oracle", action="store_true", help="cross-check with the oracle")

    ap = cmds.add_parser("active-paths", help="rotation closure census")
    _add_common(ap, k_default=2)
    ap.add_argument("--full", action="store_true", help="exhaustive census")

    ct = cmds.add_parser("certify", help="check a claim or re-verify a certificate")
    _add_common(ct)
    ct.add_argument("--target")
    ct.add_argument("--oracle", action="store_true", help="exhaustive search")

    ex = cmds.add_parser("experiment", help="random corpus sweep")
    _add_common(ex, k_default=3)

    return parser


_DISPATCH = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "dense-cycle": _cmd_dense_cycle,
    "contract": _cmd_contract,
    "clique-minor": _cmd_clique_minor,
    "active-paths": _cmd_active_paths,
    "certify": _cmd_certify,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    # argparse exits 2 on usage errors; that code is reserved for honest
    # not-found results, so usage problems are remapped to 1.
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _DISPATCH[args.command](args)
    except ClosureShortfall as exc:
        payload = {
            "schema": CLOSURE_SCHEMA,
            "kind": "closure_shortfall",
            "message": str(exc),
            "closure": _closure_json(exc.closure),
        }
        sys.stdout.write(_dump(payload) + "\n")
        return 3
    except (GraphError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
