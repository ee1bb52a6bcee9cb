"""Mutation fuzzer over `certify --input`.

Real artifacts of every certifiable kind are mutated in one place: a field
is dropped, a value takes another JSON type, an integer (most often a vertex
id) moves by one, two contraction stages swap, a contraction stage contracts
every edge of the certificate cycle, or a model is retargeted: its target
renamed or its target graph swapped for another target's.  Whatever
comes of it, `certify` answers with exit 0, or with exit 1 and one `error:`
line, or, for a model that does not realize its target, with exit 2, and
never lets an exception escape.  It may accept a contraction, dense-cycle or
cyclic-minor artifact only when the independent checkers in `helpers` find
its claims hold.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from chordcycles import artifacts, cli

from helpers import contraction_claims_hold, cyclic_minor_claims_hold, dense_cycle_claims_hold

SOURCES = {
    "contraction": [
        ["contract", "--family", "petersen", "--k", "3"],
        ["contract", "--family", "cycle", "--params", "n=9", "--k", "2"],
        # X0 contracts an edge here and X2 is X0; in the next, X2 is X1
        ["contract", "--family", "random_min_degree", "--params", "n=14,min_degree=3,avg=3",
         "--seed", "2", "--k", "3"],
        ["contract", "--family", "random_min_degree", "--params", "n=18,min_degree=3,avg=3",
         "--seed", "1", "--k", "3"],
    ],
    "dense_cycle": [
        ["dense-cycle", "--family", "petersen", "--k", "3"],
        ["dense-cycle", "--family", "complete", "--params", "n=6", "--k", "5"],
        ["dense-cycle", "--family", "random_min_degree", "--params", "n=14,min_degree=3,avg=3",
         "--seed", "2", "--k", "3"],
    ],
    "cyclic_minor": [
        ["clique-minor", "--family", "petersen", "--target", "K4"],
        ["clique-minor", "--family", "complete", "--params", "n=7", "--target", "K5"],
        ["certify", "--family", "complete", "--params", "n=5", "--target", "K4", "--oracle"],
        ["clique-minor", "--family", "complete", "--params", "n=8", "--target", "Kll:3"],
    ],
    "census": [
        ["active-paths", "--family", "complete", "--params", "n=5", "--full"],
        ["active-paths", "--family", "petersen", "--full"],
    ],
    "closure": [
        ["active-paths", "--family", "petersen", "--k", "3"],
        ["active-paths", "--family", "complete", "--params", "n=6"],
    ],
    "graph": [
        ["generate", "--family", "petersen"],
        ["generate", "--family", "cycle", "--params", "n=4"],
    ],
}

OTHER_TYPES = [0, 5, -1, "", "0", "X1", [], [0, 1], [[0, 1]], None, {}, {"n": 0, "edges": []}]

TARGET_NAMES = ["K3", "K4", "K5", "K6", "K'll", "Kll:1", "Kll:2", "Kll:3",
                "K2", "K7", "Kll:0", "k4"]


def _complete_json(n):
    return {"n": n, "edges": [[u, v] for u in range(n) for v in range(u + 1, n)]}


def _kll_json(ell):
    edges = [[x, ell + y] for x in range(ell) for y in range(ell)]
    edges += [[s + x, s + x + 1] for s in (0, ell) for x in range(ell - 1)]
    return {"n": 2 * ell, "edges": sorted(edges)}


TARGET_GRAPHS = [_complete_json(n) for n in (3, 4, 5, 6)] + [_kll_json(ell) for ell in (1, 2, 3)]


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def emitted():
    texts = {}
    for kind, commands in SOURCES.items():
        texts[kind] = []
        for argv in commands:
            code, out, _ = call(argv + ["--format", "json"])
            assert code == 0 and artifacts.load(json.loads(out))[0] == kind
            texts[kind].append(out)
    return texts


def test_checkers_accept_every_source(emitted):
    checkers = {"contraction": contraction_claims_hold, "dense_cycle": dense_cycle_claims_hold,
                "cyclic_minor": cyclic_minor_claims_hold}
    for kind, check in checkers.items():
        assert all(check(json.loads(text)) for text in emitted[kind]), kind


def _places(node, prefix=()):
    """(path, value) for every value below `node` in a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,), child
        yield from _places(child, prefix + (key,))


def _holder(obj, path):
    for key in path[:-1]:
        obj = obj[key]
    return obj


@st.composite
def mutants(draw, texts):
    obj = json.loads(draw(st.sampled_from(texts)))
    places = list(_places(obj))
    ops = ["drop", "retype", "shift"]
    ops += {"contraction": ["swap", "collapse"], "cyclic_minor": ["retarget"]}.get(obj["kind"], [])
    op = draw(st.sampled_from(ops))
    if op == "drop":
        path = draw(st.sampled_from([p for p, _ in places if isinstance(p[-1], str)]))
        del _holder(obj, path)[path[-1]]
    elif op == "retype":
        path = draw(st.sampled_from([p for p, _ in places]))
        _holder(obj, path)[path[-1]] = draw(st.sampled_from(OTHER_TYPES))
    elif op == "shift":
        path = draw(st.sampled_from([p for p, v in places if type(v) is int]))
        _holder(obj, path)[path[-1]] += draw(st.sampled_from([-1, 1]))
    elif op == "retarget":
        if draw(st.booleans()):
            obj["target"] = draw(st.sampled_from([x for x in TARGET_NAMES if x != obj["target"]]))
        else:
            others = [x for x in TARGET_GRAPHS if x != obj["target_graph"]]
            obj["target_graph"] = draw(st.sampled_from(others))
    elif op == "swap":
        i, j = draw(st.sampled_from([(0, 1), (0, 2), (1, 2)]))
        stages = obj["stages"]
        stages[i], stages[j] = stages[j], stages[i]
    else:
        # stage edges number the cycle's vertices in sorted order
        cycle = obj["certificate_cycle"]
        rank = {v: i for i, v in enumerate(sorted(cycle))}
        ring = [rank[v] for v in cycle]
        edges = sorted(sorted(e) for e in zip(ring, ring[1:] + ring[:1]))
        obj["stages"][draw(st.sampled_from([0, 1, 2]))]["contracted_edges"] = edges
    return obj


def certify_mutant(tmp_path, obj):
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(obj))
    code, out, err = call(["certify", "--input", str(path)])
    assert code in (0, 1, 2), (code, out, err)
    if code == 1:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
    elif code == 2:
        assert obj["kind"] == "cyclic_minor" and (out, err) == ("model does not verify\n", "")
    else:
        assert err == "" and out.count("\n") == 1 and " ok" in out, out
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=700, deadline=None)
@given(data=st.data())
def test_contraction_mutants(emitted, workdir, data):
    obj = data.draw(mutants(emitted["contraction"]))
    if certify_mutant(workdir, obj) == 0:
        assert contraction_claims_hold(obj), "certify accepted a claim that does not hold"


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_dense_cycle_mutants(emitted, workdir, data):
    obj = data.draw(mutants(emitted["dense_cycle"]))
    if certify_mutant(workdir, obj) == 0:
        assert dense_cycle_claims_hold(obj), "certify accepted a claim that does not hold"


@pytest.mark.parametrize("kind", ["cyclic_minor", "census", "closure", "graph"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_other_mutants(emitted, workdir, kind, data):
    obj = data.draw(mutants(emitted[kind]))
    if certify_mutant(workdir, obj) == 0 and kind == "cyclic_minor":
        assert cyclic_minor_claims_hold(obj), "certify accepted a claim that does not hold"
