"""The artifact format lives in `chordcycles.artifacts`: each certifiable kind
has one dump and one load, and the dump of what `load` reads is the emitted
artifact, byte for byte."""

import ast
import json
from pathlib import Path

import pytest

from chordcycles import ValidationError, artifacts, cli, find_dense_cycle, generate

EMITTERS = [
    ("graph", ["generate", "--family", "petersen"]),
    ("graph", ["generate", "--family", "complete", "--params", "n=5"]),
    ("dense_cycle", ["dense-cycle", "--family", "petersen", "--k", "3"]),
    ("dense_cycle", ["dense-cycle", "--family", "complete", "--params", "n=6", "--k", "5"]),
    ("contraction", ["contract", "--family", "petersen", "--k", "3"]),
    ("contraction", ["contract", "--family", "random_min_degree",
                     "--params", "n=40,min_degree=5", "--seed", "3", "--k", "5"]),
    ("cyclic_minor", ["clique-minor", "--family", "petersen", "--target", "K4"]),
    ("cyclic_minor", ["clique-minor", "--family", "complete", "--params", "n=8",
                      "--target", "Kll:2"]),
    ("cyclic_minor", ["certify", "--family", "complete", "--params", "n=5",
                      "--target", "K4", "--oracle"]),
    ("census", ["active-paths", "--family", "complete", "--params", "n=6", "--full"]),
    ("census", ["active-paths", "--family", "petersen", "--full"]),
    ("closure", ["active-paths", "--family", "petersen", "--k", "3"]),
    ("closure", ["active-paths", "--family", "complete", "--params", "n=6"]),
]


@pytest.mark.parametrize("name, argv", EMITTERS, ids=[" ".join(argv) for _, argv in EMITTERS])
def test_dump_of_load_is_the_emitted_artifact(tmp_path, name, argv):
    path = tmp_path / "a.json"
    assert cli.main(argv + ["--format", "json", "--out", str(path)]) == 0
    emitted = path.read_text()
    loaded, values = artifacts.load(json.loads(emitted))
    assert loaded == name
    dump = getattr(artifacts, f"dump_{name}")
    assert artifacts.text(dump(*values)) + "\n" == emitted


def test_cli_leaves_the_format_to_artifacts():
    # the CLI neither parses nor writes JSON, nor names an artifact's kind,
    # nor checks one: artifacts.certify maps each kind to its check
    tree = ast.parse(Path(cli.__file__).read_text())
    imported, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "json" not in imported
    assert [name for name in names if name.startswith("verify_")] == []
    kinds = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in (
                 "kind", "dense_cycle", "contraction", "cyclic_minor", "census", "closure")]
    assert kinds == []


def test_cli_leaves_target_names_to_minors():
    # which graph and label a target name stands for is decided in
    # minors.target, and which builder and stage it takes in minors.build
    tree = ast.parse(Path(cli.__file__).read_text())
    labels = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and node.value in ("K'll", "K3", "K4", "K5", "K6")]
    assert labels == []
    builders = {"kll_prime_graph", "k3_model", "k4_model", "k5_model",
                "k6_from_bipartite", "kll_prime_model"}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        called = getattr(node.func, "attr", getattr(node.func, "id", None))
        assert called not in builders, node.lineno
        if called == "generate" and node.args:
            first = node.args[0]
            assert not (isinstance(first, ast.Constant) and first.value == "complete"), node.lineno


def dense_cycle_obj():
    g = generate("random_min_degree", {"n": 60, "min_degree": 5}, seed=0)
    return json.loads(artifacts.text(artifacts.dump_dense_cycle(g, find_dense_cycle(g, 5))))


def non_integer_at(field, position, bad):
    """A dense-cycle artifact with `bad` at the start, middle or end of one
    of its integer lists, and a later decoy where there is room; and the
    message that names `bad`."""
    obj = dense_cycle_obj()
    if field == "graph edges":
        slots, what = obj["graph"]["edges"], "graph edges"
    elif field == "cycle":
        slots, what = obj["cycle"], "cycle"
    else:
        key, witness = max(obj["closure"]["witnesses"].items(),
                           key=lambda item: len(item[1]["derivation"]))
        slots = [step[0] for step in witness["derivation"]]
        what = f"witness {key} derivation chord"
    assert len(slots) >= 3
    at = {"start": 0, "middle": len(slots) // 2, "end": len(slots) - 1}[position]

    def put(i, value):
        if isinstance(slots[i], list):
            slots[i][1] = value
        else:
            slots[i] = value

    put(at, bad)
    if at < len(slots) - 1:
        put(len(slots) - 1, "decoy")
    return obj, f"{what} holds a non-integer {bad!r}"


NON_INTEGERS = [
    (field, position, bad)
    for field in ("graph edges", "cycle", "derivation chord")
    for position in ("start", "middle", "end")
    for bad in (True, 2.5, "7")
]


@pytest.mark.parametrize("field, position, bad", NON_INTEGERS,
                         ids=[f"{f}-{p}-{type(b).__name__}" for f, p, b in NON_INTEGERS])
def test_loader_names_the_first_non_integer(tmp_path, capsys, field, position, bad):
    obj, message = non_integer_at(field, position, bad)
    with pytest.raises(ValidationError) as caught:
        artifacts.load(obj)
    assert str(caught.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["certify", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_graph_of_stays_in_the_graph_core():
    # `_graph_of` trusts the neighbourhoods it is given, so only the graph
    # core builds with it; everything else goes through Graph(n, edges)
    for path in Path(cli.__file__).parent.glob("*.py"):
        if path.name == "graph.py":
            continue
        tree = ast.parse(path.read_text())
        names = [getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)]
        names += [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names]
        assert "_graph_of" not in names, path.name


def test_json_is_written_only_by_artifacts_text():
    # one place holds the encoder settings (sorted keys, no spaces, no
    # circular-reference check on fresh dump trees)
    writers = []
    for path in Path(cli.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                writers.append((path.name, "from json import"))
            if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps") and \
                    getattr(node.value, "id", None) == "json":
                inside = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                writers.append((path.name, max(inside, key=lambda f: f.lineno).name
                                if inside else None))
    assert writers == [("artifacts.py", "text")]
