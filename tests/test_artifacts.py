"""The artifact format lives in `chordcycles.artifacts`: each certifiable kind
has one dump and one load, and the dump of what `load` reads is the emitted
artifact, byte for byte."""

import ast
import json
from pathlib import Path

import pytest

from chordcycles import artifacts, cli

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
    # the CLI neither parses nor writes JSON, nor names an artifact's kind
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "json" not in imported
    kinds = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value == "kind"]
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
