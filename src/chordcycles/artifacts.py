"""The JSON artifact format: one dump, one load and one check per certifiable kind.

An artifact is an object with a versioned "schema" and a "kind"; it embeds
the graph it talks about as {"n", "edges"} and writes rationals exactly, as
strings like "16/3".  `dump_<name>(*values)` writes one, and `text` gives
its bytes: sorted keys, no spaces, so equal artifacts are equal bytes.
`load(obj)` returns `(name, values)`, type-checking every field the dump
writes and raising ValidationError otherwise, so the text of
`dump_<name>(*values)` gives back the emitted bytes.  A dump holds the
tuples the library keeps, which JSON writes as arrays, so it equals the
parsed obj as text, not as a Python object.  `certify(obj)` checks what it
states with the library's check for its kind, which `_KINDS` lists.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain

from .contraction import STAGE_LABELS, StageClaim, verify_contraction
from .errors import ValidationError
from .graph import Graph, format_rational, parse_edge_list
from .lollipop import SEEDS, ActiveClosure, DenseCycleCertificate, WitnessPath, seed_path
from .lollipop import required_active_count, verify_closure_lemmas, verify_dense_cycle
from .minors import CyclicMinorModel, target, verify_model
from .oracle import active_path_census

SCHEMA = "1"
# Artifacts that carry a rotation closure; schema "1" stored every witness's
# full sequence, schema "2" stores only its seed orientation and derivation.
CLOSURE_SCHEMA = "2"


def text(obj) -> str:
    # a dump is fresh dicts and lists around the library's tuples of ints,
    # so it holds no reference cycle to look for
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def read(path: str):
    """An --input file: the parsed artifact when it is JSON (it starts with
    '{') with a "kind", else the graph it holds as a Graph, from a bare
    {"n", "edges"} object or an edge list.  Undecodable input raises
    ValidationError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.lstrip().startswith(b"{"):
        try:
            obj = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"malformed JSON input: {exc}") from None
        return obj if "kind" in obj else input_graph(obj)
    try:
        return parse_edge_list(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"input is not UTF-8 text: {exc}") from None


def input_graph(data) -> Graph:
    """The graph `read` found: the edge list, an artifact's "graph", or a
    bare {"n", "edges"} object."""
    if isinstance(data, Graph):
        return data
    return _graph(data["graph"] if "graph" in data else data)


def load(obj) -> tuple:
    """`(name, values)` for the certifiable artifact a parsed JSON object
    states, name a key of `_KINDS`: the text of `dump_<name>(*values)` gives
    back obj's bytes when it was emitted."""
    kind, full = obj.get("kind"), None
    if kind == "active_paths":
        full = obj.get("full")
        if type(full) is not bool:
            raise ValidationError(f"full must be true or false, got {full!r}")
    for name, (stored, loader, _) in _KINDS.items():
        if stored == (kind, full):
            return name, loader(obj)
    raise ValidationError(f"cannot certify artifact of kind {kind!r}")


def certify(obj, guards=dict) -> tuple[int, str]:
    """`(exit code, line)` for what artifact obj states, by its kind's check:
    0 when it holds, 2 for a cyclic model that misses a target edge; any other
    failed claim raises GraphError.  Only a census calls `guards()`, for the
    oracle's size guards."""
    name, values = load(obj)
    return _KINDS[name][2](guards, *values)


# ---------------------------------------------------------------- fields


def _ints(obj, what: str, length: int | None = None) -> tuple:
    """A JSON list of integers as a tuple, or ValidationError."""
    if not isinstance(obj, list) or (length is not None and len(obj) != length):
        size = "a list" if length is None else f"a list of {length}"
        raise ValidationError(f"{what} must be {size} integers")
    if not set(map(type, obj)) <= {int}:
        _non_integer(obj, what)
    return tuple(obj)


def _non_integer(values, what: str):
    """Raise ValidationError naming the first element of `values` that is
    not an int (bool is not)."""
    bad = next(x for x in values if type(x) is not int)
    raise ValidationError(f"{what} holds a non-integer {bad!r}")


def _int(x, what: str, low: int | None = None) -> int:
    if type(x) is not int:
        _non_integer([x], what)
    if low is not None and x < low:
        raise ValidationError(f"{what} must be at least {low}, got {x}")
    return x


def _pairs(obj, what: str) -> list:
    """A JSON list of [u, v] integer pairs, or ValidationError."""
    if not isinstance(obj, list) or set(map(type, obj)) - {list} or set(map(len, obj)) - {2}:
        raise ValidationError(f"{what} must be a list of [u, v] pairs")
    if not set(map(type, chain.from_iterable(obj))) <= {int}:
        _non_integer(chain.from_iterable(obj), what)
    return obj


def _vertices(obj, what: str, g: Graph) -> tuple:
    """A JSON list of vertices of g, or ValidationError."""
    out = _ints(obj, what)
    for v in out:
        if not 0 <= v < g.n:
            raise ValidationError(f"{what} vertex {v} outside 0..{g.n - 1}")
    return out


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


def _schema(obj, *accepted) -> str:
    schema = obj.get("schema")
    if schema not in accepted:
        raise ValidationError(f"unknown {obj.get('kind')} schema {schema!r}")
    return schema


def _graph_json(g: Graph) -> dict:
    return {"n": g.n, "edges": g.edges()}


def _graph(obj) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValidationError("graph object needs 'n' and 'edges'")
    return Graph(_int(obj["n"], "graph n"), _pairs(obj["edges"], "graph edges"))


def _closure_json(closure: ActiveClosure) -> dict:
    witnesses = {}
    for v, wp in sorted(closure.witnesses.items()):
        witnesses[str(v)] = {
            "seed": wp.orientation,
            "derivation": wp.derivation,
        }
    return {
        "cycle": closure.cycle,
        "active": sorted(closure.active),
        "passive_edges": sorted(closure.passive_edges),
        "witnesses": witnesses,
    }


def _derivation(obj, what: str) -> tuple:
    if not isinstance(obj, list):
        raise ValidationError(f"{what} derivation must be a list")
    # derivations are a few steps long, too short for set-level type checks
    steps = []
    for step in obj:
        if type(step) is list and len(step) == 2:
            chord, w = step
            if type(chord) is list and len(chord) == 2 and type(w) is int:
                u, v = chord
                if type(u) is int and type(v) is int:
                    steps.append(((u, v), w))
                    continue
        # name the first bad step as the step-by-step reading meets it
        if not isinstance(step, list) or len(step) != 2:
            raise ValidationError(f"{what} derivation steps must be [[u, v], w]")
        chord = _ints(step[0], f"{what} derivation chord", 2)
        steps.append((chord, _int(step[1], f"{what} derivation step")))
    return tuple(steps)


def _closure(obj, schema: str) -> ActiveClosure:
    """A closure in either schema; the audit then checks what it claims."""
    if not isinstance(obj, dict):
        raise ValidationError("closure must be an object")
    cycle = _ints(obj.get("cycle"), "closure cycle")
    active = _ints(obj.get("active"), "closure active set")
    passive = frozenset(map(tuple, _pairs(obj.get("passive_edges"), "closure passive_edges")))
    raw = obj.get("witnesses")
    if not isinstance(raw, dict):
        raise ValidationError("closure needs a 'witnesses' object")
    witnesses = {}
    for key, w in raw.items():
        vertex = int(key) if key.isascii() and key.lstrip("-").isdigit() else None
        if vertex is None or str(vertex) != key or not isinstance(w, dict):
            raise ValidationError(f"bad witness entry {key!r}")
        what = f"witness {key}"
        derivation = _derivation(w.get("derivation"), what)
        if schema == SCHEMA:
            # schema 1 gave the seed as a path, which must orient the cycle
            claimed = _ints(w.get("sequence"), f"{what} sequence")
            seed = _ints(w.get("seed"), f"{what} seed")
            orientation = next((o for o in SEEDS if seed == seed_path(cycle, o)), None)
            if orientation is None:
                raise ValidationError(f"witness for {key} starts from a non-seed path")
        else:
            orientation, claimed = w.get("seed"), None
            if orientation not in SEEDS:
                raise ValidationError(f"{what} has unknown seed {orientation!r}")
        witnesses[vertex] = WitnessPath(cycle, orientation, derivation, claimed)
    return ActiveClosure(
        cycle=cycle,
        active=frozenset(active),
        witnesses=witnesses,
        passive_edges=passive,
    )


def _stage_json(stage: StageClaim, graphs: dict) -> dict:
    # X2 is X0 or X1 relabelled and holds the same graph, listed once
    if id(stage.graph) not in graphs:
        graphs[id(stage.graph)] = _graph_json(stage.graph)
    return {
        "label": stage.label,
        "graph": graphs[id(stage.graph)],
        "cycle": stage.cycle,
        "active_classes": sorted(stage.active_classes),
        "contracted_edges": sorted(stage.contracted_edges),
        "min_degree": stage.min_degree,
        "avg_degree": format_rational(stage.avg_degree),
    }


def _stage(obj: dict) -> StageClaim:
    label = obj.get("label")
    if label not in STAGE_LABELS:
        raise ValidationError(f"unknown stage label {label!r}")
    edges = _pairs(obj.get("contracted_edges"), f"{label} contracted_edges")
    return StageClaim(
        label=label,
        graph=_graph(obj.get("graph")),
        cycle=_ints(obj.get("cycle"), f"{label} cycle"),
        active_classes=frozenset(_ints(obj.get("active_classes"), f"{label} active_classes")),
        contracted_edges=frozenset(map(tuple, edges)),
        min_degree=_int(obj.get("min_degree"), f"{label} min_degree"),
        avg_degree=_rational(obj.get("avg_degree"), f"{label} avg_degree"),
    )


# ---------------------------------------------------------------- kinds


def dump_graph(g: Graph) -> dict:
    return {"schema": SCHEMA, "kind": "graph", "graph": _graph_json(g)}


def _load_graph(obj) -> tuple:
    g = _graph(obj.get("graph"))
    _schema(obj, SCHEMA)
    return (g,)


def dump_dense_cycle(g: Graph, cert: DenseCycleCertificate) -> dict:
    return {
        "schema": CLOSURE_SCHEMA,
        "kind": "dense_cycle",
        "k": cert.k,
        "graph": _graph_json(g),
        "cycle": cert.cycle,
        "high_degree": sorted(cert.high_degree),
        "chords": cert.chords,
        "iterations": cert.iterations,
        "closure": _closure_json(cert.closure),
    }


def _load_dense_cycle(obj) -> tuple:
    g = _graph(obj.get("graph"))
    schema = _schema(obj, SCHEMA, CLOSURE_SCHEMA)
    return g, DenseCycleCertificate(
        k=_int(obj.get("k"), "k"),
        cycle=_ints(obj.get("cycle"), "cycle"),
        high_degree=_ints(obj.get("high_degree"), "high_degree"),
        chords=tuple(map(tuple, _pairs(obj.get("chords"), "chords"))),
        closure=_closure(obj.get("closure"), schema),
        iterations=_int(obj.get("iterations"), "iterations", low=0),
    )


def _certify_dense_cycle(guards, g, cert):
    verify_dense_cycle(g, cert)
    return 0, f"dense cycle certificate ok: k={cert.k} chords={len(cert.chords)}"


def dump_contraction(g: Graph, k: int, cycle, stages, n_a: int, n_b: int, m: int) -> dict:
    graphs = {}
    return {
        "schema": SCHEMA,
        "kind": "contraction",
        "k": k,
        "graph": _graph_json(g),
        "certificate_cycle": cycle,
        "n_a": n_a,
        "n_b": n_b,
        "m": m,
        "stages": [_stage_json(stage, graphs) for stage in stages],
    }


def _load_contraction(obj) -> tuple:
    g = _graph(obj.get("graph"))
    _schema(obj, SCHEMA)
    stages = obj.get("stages")
    if not isinstance(stages, list) or len(stages) != 3 or not all(
        isinstance(stage, dict) for stage in stages
    ):
        raise ValidationError("contraction needs a list of three stage objects")
    return (
        g,
        _int(obj.get("k"), "k"),
        _ints(obj.get("certificate_cycle"), "certificate cycle"),
        tuple(_stage(stage) for stage in stages),
        *(_int(obj.get(key), key) for key in ("n_a", "n_b", "m")),
    )


def _certify_contraction(guards, g, k, *claims):
    verify_contraction(g, k, *claims)
    return 0, f"contraction certificate ok: k={k}"


def dump_cyclic_minor(model: CyclicMinorModel, origin: str) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "cyclic_minor",
        "origin": origin,
        "graph": _graph_json(model.host),
        "host_cycle": model.host_cycle,
        "arcs": model.arcs,
        "target": model.target_name,
        "target_graph": _graph_json(model.target),
        "target_cycle": model.target_cycle,
        "verified": True,
    }


def _load_cyclic_minor(obj) -> tuple:
    host = _graph(obj.get("graph"))
    target = _graph(obj.get("target_graph"))
    arcs = obj.get("arcs")
    if not isinstance(arcs, list):
        raise ValidationError("arcs must be a list")
    model = CyclicMinorModel(
        host=host,
        host_cycle=_vertices(obj.get("host_cycle"), "host cycle", host),
        arcs=tuple(_ints(arc, "arc") for arc in arcs),
        target=target,
        target_cycle=_vertices(obj.get("target_cycle"), "target cycle", target),
        target_name=obj.get("target"),
    )
    if not isinstance(model.target_name, str):
        raise ValidationError(f"bad target {model.target_name!r}")
    _schema(obj, SCHEMA)
    if obj.get("origin") not in ("constructive", "oracle"):
        raise ValidationError(f"unknown model origin {obj.get('origin')!r}")
    if obj.get("verified") is not True:
        raise ValidationError(f"verified must be true, got {obj.get('verified')!r}")
    return model, obj["origin"]


def _certify_cyclic_minor(guards, model, origin):
    # the label K'll takes its side length from the target's order
    name = model.target_name
    if model.target != target(f"Kll:{model.target.n // 2}" if name == "K'll" else name)[1]:
        raise ValidationError(f"target graph is not {name!r}")
    if not verify_model(model):
        return 2, "model does not verify"
    return 0, f"cyclic {name} minor ok"


def dump_census(g: Graph, cycle, paths: int, active: int, non_active) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "active_paths",
        "full": True,
        "graph": _graph_json(g),
        "cycle": cycle,
        "paths": paths,
        "active": active,
        "non_active": non_active,
    }


def _load_census(obj) -> tuple:
    g = _graph(obj.get("graph"))
    _schema(obj, SCHEMA)
    non_active = obj.get("non_active")
    if not isinstance(non_active, list):
        raise ValidationError("non_active must be a list of paths")
    return (
        g,
        _vertices(obj.get("cycle"), "cycle", g),
        _int(obj.get("paths"), "paths"),
        _int(obj.get("active"), "active"),
        tuple(_ints(p, "non_active path") for p in non_active),
    )


def _certify_census(guards, g, cycle, *stated):
    everything, active_paths = active_path_census(g, cycle, **guards())
    if (len(everything), len(active_paths), tuple(sorted(everything - active_paths))) != stated:
        raise ValidationError("census does not reproduce")
    return 0, "active path census ok"


def dump_closure(g: Graph, k: int, closure: ActiveClosure) -> dict:
    return {
        "schema": CLOSURE_SCHEMA,
        "kind": "active_paths",
        "full": False,
        "k": k,
        "graph": _graph_json(g),
        "closure": _closure_json(closure),
    }


def _load_closure(obj) -> tuple:
    g = _graph(obj.get("graph"))
    schema = _schema(obj, SCHEMA, CLOSURE_SCHEMA)
    return g, _int(obj.get("k"), "k"), _closure(obj.get("closure"), schema)


def _certify_closure(guards, g, k, closure):
    verify_closure_lemmas(g, closure)
    have, needed = len(closure.active), required_active_count(g, closure.cycle, k)
    if have < needed:
        raise ValidationError(f"closure has {have} active vertices; k = {k} needs {needed}")
    return 0, "active path census ok"


# ---------------------------------------------------------------- reports


def dump_analysis(g: Graph, stats, report) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "analysis",
        "graph": _graph_json(g),
        "min_degree": stats.min_degree,
        "avg_degree": format_rational(stats.avg_degree),
        "degeneracy": report.degeneracy,
        "elimination_order": report.elimination_order,
    }


def dump_experiment(k: int, count: int, failures: int, rows: list) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "experiment",
        "k": k,
        "count": count,
        "failures": failures,
        "rows": rows,
    }


def dump_closure_shortfall(exc) -> dict:
    return {
        "schema": CLOSURE_SCHEMA,
        "kind": "closure_shortfall",
        "message": str(exc),
        "closure": _closure_json(exc.closure),
    }


# Per certifiable kind: its stored "kind" and "full" flag, its loader, its check.
_KINDS = {
    "graph": (("graph", None), _load_graph, lambda guards, g: (0, "graph ok")),
    "dense_cycle": (("dense_cycle", None), _load_dense_cycle, _certify_dense_cycle),
    "contraction": (("contraction", None), _load_contraction, _certify_contraction),
    "cyclic_minor": (("cyclic_minor", None), _load_cyclic_minor, _certify_cyclic_minor),
    "census": (("active_paths", True), _load_census, _certify_census),
    "closure": (("active_paths", False), _load_closure, _certify_closure),
}
