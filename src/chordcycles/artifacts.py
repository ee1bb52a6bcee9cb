"""The JSON artifact format: one dump and one load per certifiable kind.

An artifact is an object with a versioned "schema" and a "kind"; it embeds
the graph it talks about as {"n", "edges"} and writes rationals exactly, as
strings like "16/3".  `dump_<name>(*values)` writes one, and `text` gives
its bytes: sorted keys, no spaces, so equal artifacts are equal bytes.
`load(obj)` returns `(name, values)`, type-checking every field the dump
writes and raising ValidationError otherwise, so the dump of what `load`
returns gives back every emitted obj.  Whether what an artifact states is
true is for the library's checks, not for `load`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain

from .contraction import STAGE_LABELS, StageClaim
from .errors import ValidationError
from .graph import Graph, format_rational, parse_edge_list
from .lollipop import SEEDS, ActiveClosure, DenseCycleCertificate, WitnessPath, seed_path
from .minors import CyclicMinorModel

SCHEMA = "1"
# Artifacts that carry a rotation closure; schema "1" stored every witness's
# full sequence, schema "2" stores only its seed orientation and derivation.
CLOSURE_SCHEMA = "2"


def text(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def read(path: str):
    """An --input file: the parsed object when it is JSON (it starts with
    '{'), else the edge list it holds as a Graph.  Undecodable input raises
    ValidationError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.lstrip().startswith(b"{"):
        try:
            return json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"malformed JSON input: {exc}") from None
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
    states: `graph`, `dense_cycle`, `contraction`, `cyclic_minor`, or one of
    the two `active_paths` forms, `census` (full) and `closure`.  The dump
    of each is `dump_<name>`, and `dump_<name>(*values)` gives back obj when
    it was emitted."""
    name = obj.get("kind")
    if name == "active_paths":
        full = obj.get("full")
        if type(full) is not bool:
            raise ValidationError(f"full must be true or false, got {full!r}")
        name = "census" if full else "closure"
    elif name not in ("graph", "dense_cycle", "contraction", "cyclic_minor"):
        raise ValidationError(f"cannot certify artifact of kind {name!r}")
    return name, _LOADS[name](obj)


# ---------------------------------------------------------------- fields


def _ints(obj, what: str, length: int | None = None) -> tuple:
    """A JSON list of integers as a tuple, or ValidationError."""
    if not isinstance(obj, list) or (length is not None and len(obj) != length):
        size = "a list" if length is None else f"a list of {length}"
        raise ValidationError(f"{what} must be {size} integers")
    for x in obj:
        if type(x) is not int:
            raise ValidationError(f"{what} holds a non-integer {x!r}")
    return tuple(obj)


def _int(x, what: str, low: int | None = None) -> int:
    (x,) = _ints([x], what)
    if low is not None and x < low:
        raise ValidationError(f"{what} must be at least {low}, got {x}")
    return x


def _pairs(obj, what: str) -> list:
    """A JSON list of [u, v] integer pairs, or ValidationError."""
    if not isinstance(obj, list) or set(map(type, obj)) - {list} or set(map(len, obj)) - {2}:
        raise ValidationError(f"{what} must be a list of [u, v] pairs")
    _ints(list(chain.from_iterable(obj)), what)
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
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def _graph(obj) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValidationError("graph object needs 'n' and 'edges'")
    return Graph(_int(obj["n"], "graph n"), _pairs(obj["edges"], "graph edges"))


def _closure_json(closure: ActiveClosure) -> dict:
    witnesses = {}
    for v, wp in sorted(closure.witnesses.items()):
        witnesses[str(v)] = {
            "seed": wp.orientation,
            "derivation": [[[c[0], c[1]], w] for c, w in wp.derivation],
        }
    return {
        "cycle": list(closure.cycle),
        "active": sorted(closure.active),
        "passive_edges": [[u, v] for u, v in sorted(closure.passive_edges)],
        "witnesses": witnesses,
    }


def _derivation(obj, what: str) -> tuple:
    if not isinstance(obj, list):
        raise ValidationError(f"{what} derivation must be a list")
    steps = []
    for step in obj:
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


def _stage_json(stage: StageClaim) -> dict:
    return {
        "label": stage.label,
        "graph": _graph_json(stage.graph),
        "cycle": list(stage.cycle),
        "active_classes": sorted(stage.active_classes),
        "contracted_edges": [[u, v] for u, v in sorted(stage.contracted_edges)],
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
        "cycle": list(cert.cycle),
        "high_degree": sorted(cert.high_degree),
        "chords": [[u, v] for u, v in cert.chords],
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


def dump_contraction(g: Graph, k: int, cycle, stages, n_a: int, n_b: int, m: int) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "contraction",
        "k": k,
        "graph": _graph_json(g),
        "certificate_cycle": list(cycle),
        "n_a": n_a,
        "n_b": n_b,
        "m": m,
        "stages": [_stage_json(stage) for stage in stages],
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


def dump_cyclic_minor(model: CyclicMinorModel, origin: str) -> dict:
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


def dump_census(g: Graph, cycle, paths: int, active: int, non_active) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "active_paths",
        "full": True,
        "graph": _graph_json(g),
        "cycle": list(cycle),
        "paths": paths,
        "active": active,
        "non_active": [list(p) for p in non_active],
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


# ---------------------------------------------------------------- reports


def dump_analysis(g: Graph, stats, report) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "analysis",
        "graph": _graph_json(g),
        "min_degree": stats.min_degree,
        "avg_degree": format_rational(stats.avg_degree),
        "degeneracy": report.degeneracy,
        "elimination_order": list(report.elimination_order),
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


_LOADS = {
    "graph": _load_graph,
    "dense_cycle": _load_dense_cycle,
    "contraction": _load_contraction,
    "cyclic_minor": _load_cyclic_minor,
    "census": _load_census,
    "closure": _load_closure,
}
