"""Command line surface for reproduction runs and certificate emission.

Exit codes: 0 success, 2 honest not-found, 1 error, 3 closure shortfall
(with a full closure dump for diagnosis).  All output is deterministic:
equal invocations produce identical bytes, randomness comes only from
--seed, and JSON is emitted with sorted keys and a versioned "schema".
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import artifacts, minors, oracle
from .contraction import pipeline
from .errors import ClosureShortfall, GraphError, PreconditionError, ValidationError
from .graph import (
    Graph,
    degeneracy,
    degree_stats,
    format_rational,
    generate,
    to_dot,
)
from .lollipop import find_dense_cycle, improve_until_closed, initial_lollipop


def _guard_kwargs() -> dict:
    """Oracle size guards, raised explicitly via LOLLIPOP_GUARD_N."""
    raw = os.environ.get("LOLLIPOP_GUARD_N")
    if raw is None:
        return {}
    try:
        return {"guard_n": int(raw)}
    except ValueError as exc:
        raise ValidationError(f"LOLLIPOP_GUARD_N must be an integer: {raw!r}") from exc


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
                params[key] = value
    return params


def _load_graph(args) -> Graph:
    if getattr(args, "input", None):
        return artifacts.input_graph(artifacts.read(args.input))
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


def _model_dot(model: minors.CyclicMinorModel) -> str:
    return to_dot(model.host, arcs=model.arcs, name=model.target_name.replace("'", ""))


# ---------------------------------------------------------------- commands


def _cmd_generate(args) -> int:
    g = _load_graph(args)
    if args.format == "json":
        _emit(args, artifacts.text(artifacts.dump_graph(g)))
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
    if args.format == "json":
        _emit(args, artifacts.text(artifacts.dump_analysis(g, stats, report)))
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


def _cmd_dense_cycle(args) -> int:
    g = _load_graph(args)
    cert = find_dense_cycle(g, args.k)
    if args.format == "json":
        _emit(args, artifacts.text(artifacts.dump_dense_cycle(g, cert)))
    elif args.format == "dot":
        _emit(args, to_dot(g, arcs=[(v,) for v in cert.cycle]))
    else:
        _emit(
            args,
            f"k={cert.k} cycle_length={len(cert.cycle)} "
            f"high_degree_vertices={len(cert.high_degree)} chords={len(cert.chords)}",
        )
    return 0


def _cmd_contract(args) -> int:
    g = _load_graph(args)
    cert = find_dense_cycle(g, args.k)
    stages = pipeline(g, cert)
    x0, _, x2 = stages
    if args.format == "json":
        artifact = artifacts.dump_contraction(g, args.k, cert.cycle, stages, x0.n_a, x0.n_b, x0.m)
        _emit(args, artifacts.text(artifact))
    elif args.format == "dot":
        _emit(args, to_dot(x2.graph))
    else:
        _emit(args, "\n".join(
            f"{s.label}: n={s.graph.n} m={s.graph.edge_count} min_degree={s.min_degree} "
            f"avg_degree={format_rational(s.avg_degree)}"
            for s in stages
        ))
    return 0


def _model_or_not_found(args, g: Graph):
    """The constructive model, or None once the not-found line is printed.

    A failed precondition is a not-found only when --k was left to adapt;
    with an explicit --k it is the user's error and propagates.
    """
    try:
        model = minors.build(g, args.target, args.k)
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
    model = _model_or_not_found(args, g)
    if model is None:
        return 2
    if args.oracle:
        witness = oracle.cyclic_minor_exists(g, model.target, **_guard_kwargs())
        if witness is None:
            raise ValidationError(
                "constructive model exists but the oracle found none"
            )
    if args.format == "json":
        _emit(args, artifacts.text(artifacts.dump_cyclic_minor(model, "constructive")))
    elif args.format == "dot":
        _emit(args, _model_dot(model))
    else:
        _emit(
            args,
            f"cyclic {args.target} minor: arcs "
            + " | ".join(",".join(map(str, arc)) for arc in model.arcs),
        )
    return 0


def _cmd_active_paths(args) -> int:
    g = _load_graph(args)
    lollipop = initial_lollipop(g)
    if args.full:
        everything, active_paths = oracle.active_path_census(g, lollipop.cycle, **_guard_kwargs())
        total, active = len(everything), len(active_paths)
        if args.format == "json":
            non_active = tuple(sorted(everything - active_paths))
            census = artifacts.dump_census(g, lollipop.cycle, total, active, non_active)
            _emit(args, artifacts.text(census))
        else:
            _emit(args, f"{total} paths, {active} active")
        return 0
    closure, _ = improve_until_closed(g, lollipop, args.k)
    if args.format == "json":
        _emit(args, artifacts.text(artifacts.dump_closure(g, args.k, closure)))
    else:
        _emit(
            args,
            f"cycle_length={len(closure.cycle)} active={len(closure.active)} "
            f"witnesses={len(closure.witnesses)}",
        )
    return 0


def _cmd_certify(args) -> int:
    if args.input:
        g = artifacts.read(args.input)
        if not isinstance(g, Graph):
            code, line = artifacts.certify(g, _guard_kwargs)
            _emit(args, line)
            return code
    else:
        g = _load_graph(args)
    if not args.target:
        raise ValidationError("certify needs --target (or a JSON certificate)")
    if args.oracle:
        label, target = minors.target(args.target)
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
            target_name=label,
        )
        if not minors.verify_model(model):
            raise ValidationError("oracle witness failed verification")
        if args.format == "json":
            _emit(args, artifacts.text(artifacts.dump_cyclic_minor(model, "oracle")))
        else:
            _emit(args, f"cyclic {args.target} minor found (exhaustive)")
        return 0
    model = _model_or_not_found(args, g)
    if model is None:
        return 2
    if args.format == "json":
        _emit(args, artifacts.text(artifacts.dump_cyclic_minor(model, "constructive")))
    else:
        _emit(args, f"cyclic {args.target} minor found")
    return 0


def _cmd_experiment(args) -> int:
    import random

    params = _parse_params(args.params)
    count = params.pop("count", 20)
    n_max = params.pop("n_max", 48)
    if params:
        raise ValidationError(f"unknown experiment params: {sorted(params)}")
    k = args.k
    if k < 2:
        raise PreconditionError("need k >= 2")
    for key, value, low in (("count", count, 0), ("n_max", n_max, k + 2)):
        if not isinstance(value, int):
            raise ValidationError(f"parameter {key!r} must be an integer, got {value!r}")
        if value < low:
            raise ValidationError(f"experiment needs {key} >= {low}")
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
            # find_dense_cycle and the pipeline raise unless the certificate
            # and both stages meet the paper's bounds
            _, x1, x2 = pipeline(g, cert)
            row.update(
                high_degree=len(cert.high_degree),
                chords=len(cert.chords),
                g1_min_degree=x1.min_degree,
                g2_avg_degree=format_rational(x2.avg_degree),
                ok=True,
            )
        except ClosureShortfall:
            raise
        except GraphError as exc:
            row.update(ok=False, error=str(exc))
            failures += 1
        rows.append(row)
    if args.format == "json":
        _emit(args, artifacts.text(artifacts.dump_experiment(k, count, failures, rows)))
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
        sys.stdout.write(artifacts.text(artifacts.dump_closure_shortfall(exc)) + "\n")
        return 3
    except (GraphError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
