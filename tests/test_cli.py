import json

import pytest

from chordcycles import (
    Graph, ValidationError, artifacts, cli, contract_edges, edge, find_dense_cycle, generate,
    induced_subgraph, minors, pipeline,
)
from chordcycles.errors import ClosureShortfall, InternalInvariantError
from chordcycles.lollipop import ActiveClosure, WitnessPath, seed_path

from helpers import contraction_claims_hold, min_degree_corpus


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExamples:
    def test_dense_cycle_k6(self, capsys):
        code, out, _ = run(
            capsys,
            "dense-cycle", "--family", "complete", "--params", "n=6",
            "--k", "5", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == "2"
        assert obj["kind"] == "dense_cycle"
        assert len(obj["chords"]) == 9
        assert len(obj["high_degree"]) == 6

    def test_active_paths_census(self, capsys):
        code, out, _ = run(
            capsys,
            "active-paths", "--family", "complete", "--params", "n=6", "--full",
        )
        assert code == 0
        assert out == "120 paths, 114 active\n"

    def test_contract_petersen_text(self, capsys):
        code, out, err = run(capsys, "contract", "--family", "petersen", "--k", "3")
        assert (code, err) == (0, "")
        assert out == (
            "X0: n=9 m=12 min_degree=2 avg_degree=8/3\n"
            "X1: n=6 m=9 min_degree=3 avg_degree=3\n"
            "X2: n=6 m=9 min_degree=3 avg_degree=3\n"
        )

    def test_certify_not_found_exhaustive(self, capsys):
        code, out, _ = run(
            capsys,
            "certify", "--family", "cycle", "--params", "n=4",
            "--target", "K4", "--oracle",
        )
        assert code == 2
        assert out == "no cyclic K4 minor (exhaustive)\n"


class TestExitCodes:
    def test_unknown_family_is_error(self, capsys):
        code, _, err = run(capsys, "generate", "--family", "nosuch")
        assert code == 1 and "error:" in err

    def test_missing_input_is_error(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 1 and "error:" in err

    def test_usage_error_remapped(self, capsys):
        # Missing required --k must not collide with the not-found code.
        code, _, _ = run(capsys, "dense-cycle", "--family", "petersen")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0

    def test_shortfall_dumps_closure(self, capsys, monkeypatch):
        closure = ActiveClosure(
            cycle=(0, 1, 2),
            active=frozenset({1}),
            witnesses={1: WitnessPath((0, 1, 2), "backward")},
            passive_edges=frozenset({(0, 1)}),
        )

        def explode(g, k):
            raise ClosureShortfall("needed 3 active, found 1", closure)

        monkeypatch.setattr(cli, "find_dense_cycle", explode)
        code, out, _ = run(
            capsys, "dense-cycle", "--family", "petersen", "--k", "3",
        )
        assert code == 3
        obj = json.loads(out)
        assert obj["kind"] == "closure_shortfall"
        assert obj["closure"]["cycle"] == [0, 1, 2]
        assert obj["closure"]["witnesses"]["1"] == {"seed": "backward", "derivation": []}

    def test_guard_env_plumbed(self, capsys, monkeypatch):
        monkeypatch.setenv("LOLLIPOP_GUARD_N", "4")
        code, _, err = run(
            capsys,
            "certify", "--family", "complete", "--params", "n=6",
            "--target", "K3", "--oracle",
        )
        assert code == 1 and "error:" in err

    def test_guard_env_relaxes(self, capsys, monkeypatch):
        monkeypatch.setenv("LOLLIPOP_GUARD_N", "20")
        code, out, _ = run(
            capsys,
            "certify", "--family", "complete", "--params", "n=6",
            "--target", "K3", "--oracle",
        )
        assert code == 0

    def test_bad_guard_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LOLLIPOP_GUARD_N", "soon")
        code, _, err = run(
            capsys,
            "certify", "--family", "complete", "--params", "n=6",
            "--target", "K3", "--oracle",
        )
        assert code == 1


class TestDeterminism:
    def test_identical_bytes(self, tmp_path):
        argv = [
            "dense-cycle", "--family", "random_min_degree",
            "--params", "n=40,min_degree=4", "--seed", "9", "--k", "4",
            "--format", "json",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_graph(self, tmp_path):
        base = [
            "generate", "--family", "random_min_degree",
            "--params", "n=30,min_degree=3", "--format", "json",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert cli.main(base + ["--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_experiment_rows_ordered(self, capsys):
        code, out, _ = run(
            capsys,
            "experiment", "--k", "3", "--seed", "4",
            "--params", "count=5,n_max=16", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert [r["id"] for r in obj["rows"]] == [0, 1, 2, 3, 4]
        assert obj["failures"] == 0
        assert all(r["ok"] for r in obj["rows"])


class TestExperimentErrorRows:
    """A host whose pipeline raises is a failed row, not an aborted run."""

    ARGV = ["experiment", "--k", "3", "--seed", "4", "--params", "count=5,n_max=16"]
    ERROR = "no pairing of non-active classes reaches min degree 3"

    def fail_third_host(self, monkeypatch):
        calls = []

        def third_fails(g, cert):
            calls.append(g)
            if len(calls) == 3:
                raise InternalInvariantError(self.ERROR)
            return pipeline(g, cert)

        monkeypatch.setattr(cli, "pipeline", third_fails)

    def test_json_row(self, capsys, monkeypatch):
        code, out, _ = run(capsys, *self.ARGV, "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        self.fail_third_host(monkeypatch)
        code, out, err = run(capsys, *self.ARGV, "--format", "json")
        assert (code, err) == (2, "")
        obj = json.loads(out)
        assert obj["failures"] == 1
        failed = {key: rows[2][key] for key in ("id", "n", "seed")}
        assert obj["rows"] == [*rows[:2], {**failed, "ok": False, "error": self.ERROR}, *rows[3:]]

    def test_text_row(self, capsys, monkeypatch):
        code, out, _ = run(capsys, *self.ARGV)
        assert code == 0
        lines = out.splitlines()
        assert lines[2].endswith(" ok=True") and lines[-1] == "failures=0/5"
        self.fail_third_host(monkeypatch)
        code, out, err = run(capsys, *self.ARGV)
        assert (code, err) == (2, "")
        lines[2] = lines[2].replace("ok=True", "ok=False")
        lines[-1] = "failures=1/5"
        assert out.splitlines() == lines


DENSE = ["dense-cycle", "--family", "petersen", "--k", "3"]
CLOSURE = ["active-paths", "--family", "petersen", "--k", "3"]
CENSUS = ["active-paths", "--family", "complete", "--params", "n=6", "--full"]
MINOR = ["clique-minor", "--family", "petersen", "--target", "K4"]

# Each of these certified at exit 0 while certify left the field unread or
# only partly read.
UNREAD_FIELD_TAMPERS = {
    # vertex 0 is off Petersen's certificate cycle, but its neighbours 1, 4, 5 are on it
    "off-cycle high-degree vertex": (
        DENSE, lambda obj: obj.update(high_degree=[0] + obj["high_degree"][1:]),
        "high-degree vertex 0 is not on the cycle",
    ),
    "repeated high-degree vertex": (
        DENSE, lambda obj: obj["high_degree"].append(obj["high_degree"][-1]),
        "high_degree lists a vertex twice",
    ),
    "iterations many": (DENSE, lambda obj: obj.update(iterations="many"), "non-integer 'many'"),
    "iterations -1": (DENSE, lambda obj: obj.update(iterations=-1), "iterations must be at least 0"),
    "closure k 99": (CLOSURE, lambda obj: obj.update(k=99), "k = 99 needs 100"),
    "closure k x": (CLOSURE, lambda obj: obj.update(k="x"), "k holds a non-integer 'x'"),
    "census non_active rewritten": (
        CENSUS, lambda obj: obj["non_active"].pop(), "census does not reproduce",
    ),
    "census full yes": (CENSUS, lambda obj: obj.update(full="yes"), "full must be true or false"),
    "census schema 7": (CENSUS, lambda obj: obj.update(schema="7"), "unknown active_paths schema '7'"),
    "minor verified false": (
        MINOR, lambda obj: obj.update(verified=False), "verified must be true, got False",
    ),
    "minor origin 7": (MINOR, lambda obj: obj.update(origin=7), "unknown model origin 7"),
    "minor schema 7": (MINOR, lambda obj: obj.update(schema="7"), "unknown cyclic_minor schema '7'"),
    "graph schema 7": (
        ["generate", "--family", "petersen"], lambda obj: obj.update(schema="7"),
        "unknown graph schema '7'",
    ),
}


class TestRoundTrip:
    def emit(self, tmp_path, name, argv):
        path = tmp_path / name
        assert cli.main(argv + ["--format", "json", "--out", str(path)]) == 0
        return path

    def test_all_artifact_kinds_recertify(self, tmp_path, capsys):
        emitted = [
            self.emit(tmp_path, "graph.json",
                      ["generate", "--family", "petersen"]),
            self.emit(tmp_path, "dense.json",
                      ["dense-cycle", "--family", "petersen", "--k", "3"]),
            self.emit(tmp_path, "contract.json",
                      ["contract", "--family", "complete", "--params", "n=6", "--k", "5"]),
            self.emit(tmp_path, "minor.json",
                      ["clique-minor", "--family", "petersen", "--target", "K4"]),
            self.emit(tmp_path, "census.json",
                      ["active-paths", "--family", "complete", "--params", "n=6", "--full"]),
            self.emit(tmp_path, "closure.json",
                      ["active-paths", "--family", "petersen", "--k", "3"]),
        ]
        for path in emitted:
            code, out, err = run(capsys, "certify", "--input", str(path))
            assert code == 0, (path.name, out, err)

    def test_tampered_certificate_rejected(self, tmp_path, capsys):
        path = self.emit(
            tmp_path, "dense.json",
            ["dense-cycle", "--family", "complete", "--params", "n=6", "--k", "5"],
        )
        obj = json.loads(path.read_text())
        obj["chords"] = obj["chords"][:-1]
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "certify", "--input", str(path))
        assert code == 1

    def rejected(self, capsys, path, obj, fragment):
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "certify", "--input", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert fragment in err

    def schema_1_artifact(self):
        # Schema "1" stored each witness's full sequence and its seed path.
        g = generate("petersen")
        cert = find_dense_cycle(g, 3)
        obj = artifacts.dump_dense_cycle(g, cert)
        obj["schema"] = "1"
        obj["closure"]["witnesses"] = {
            str(v): {
                "sequence": list(wp.sequence),
                "seed": list(seed_path(wp.cycle, wp.orientation)),
                "derivation": [[[c[0], c[1]], w] for c, w in wp.derivation],
            }
            for v, wp in sorted(cert.closure.witnesses.items())
        }
        return obj

    def test_schema_1_artifact_still_certifies(self, tmp_path, capsys):
        obj = self.schema_1_artifact()
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "certify", "--input", str(path))
        assert (code, err) == (0, "")
        assert out.startswith("dense cycle certificate ok")
        sequence = next(iter(obj["closure"]["witnesses"].values()))["sequence"]
        sequence[1], sequence[2] = sequence[2], sequence[1]
        self.rejected(capsys, path, obj, "does not replay")

    def test_schema_1_seed_path_must_orient_the_cycle(self, tmp_path, capsys):
        obj = self.schema_1_artifact()
        v, witness = next(iter(obj["closure"]["witnesses"].items()))
        seed = witness["seed"]
        seed[1], seed[2] = seed[2], seed[1]
        self.rejected(capsys, tmp_path / "v1.json", obj,
                      f"error: witness for {v} starts from a non-seed path\n")

    @pytest.mark.parametrize("name, derivation, fragment", [
        pytest.param(name, derivation, fragment, id=name)
        for name, derivation, fragment in (
            ("non-cycle edge", [[[5, 1], 2], [[2, 1], 5]], "breaks non-cycle edge"),
            ("not a chord", [[[5, 4], 3]], "not a chord"),
            ("wrong final end", [[[5, 1], 2]], "ends at"),
            ("unknown seed", [], "unknown seed 'sideways'"),
        )
    ])
    def test_tampered_derivation_rejected(self, tmp_path, capsys, name, derivation, fragment):
        path = self.emit(
            tmp_path, "dense.json",
            ["dense-cycle", "--family", "complete", "--params", "n=6", "--k", "5"],
        )
        obj = json.loads(path.read_text())
        c = obj["closure"]["cycle"]
        # the forward seed ends at c[5]; steps name cycle positions
        obj["closure"]["witnesses"][str(c[5])] = {
            "seed": "sideways" if name == "unknown seed" else "forward",
            "derivation": [[[c[u], c[v]], c[w]] for (u, v), w in derivation],
        }
        self.rejected(capsys, path, obj, fragment)

    @pytest.mark.parametrize("name, fragment", [
        pytest.param(name, fragment, id=name)
        for name, fragment in (
            ("no witnesses", "'witnesses'"),
            ("derivation not a list", "derivation must be a list"),
            ("non-integer vertex", "non-integer"),
            ("repeated high-degree vertex", "too few high-degree vertices"),
            ("high-degree vertex out of range", "outside 0..9"),
        )
    ])
    def test_malformed_dense_cycle_rejected(self, tmp_path, capsys, name, fragment):
        path = self.emit(tmp_path, "dense.json",
                         ["dense-cycle", "--family", "petersen", "--k", "3"])
        obj = json.loads(path.read_text())
        closure = obj["closure"]
        if name == "no witnesses":
            del closure["witnesses"]
        elif name == "derivation not a list":
            next(iter(closure["witnesses"].values()))["derivation"] = 7
        elif name == "non-integer vertex":
            closure["cycle"][0] = str(closure["cycle"][0])
        elif name == "repeated high-degree vertex":
            obj["high_degree"] = [obj["high_degree"][0]] * 4
        else:
            obj["high_degree"] = obj["high_degree"][1:] + [-1]
        self.rejected(capsys, path, obj, fragment)

    @pytest.mark.parametrize("name", list(UNREAD_FIELD_TAMPERS))
    def test_every_field_is_read(self, tmp_path, capsys, name):
        argv, tamper, fragment = UNREAD_FIELD_TAMPERS[name]
        obj = json.loads(self.emit(tmp_path, "a.json", argv).read_text())
        tamper(obj)
        self.rejected(capsys, tmp_path / "a.json", obj, fragment)

    def test_minor_target_bound_to_its_graph(self, tmp_path, capsys):
        path = self.emit(tmp_path, "k3.json", [
            "clique-minor", "--family", "complete", "--params", "n=5", "--target", "K3",
        ])
        obj = json.loads(path.read_text())
        obj["target"] = "K6"
        self.rejected(capsys, path, obj, "target graph is not 'K6'")

    def test_oracle_witness_flagged_and_recertifies(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        code = cli.main([
            "certify", "--family", "complete", "--params", "n=5",
            "--target", "K4", "--oracle", "--format", "json", "--out", str(path),
        ])
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["origin"] == "oracle"
        code, out, _ = run(capsys, "certify", "--input", str(path))
        assert code == 0


class TestMalformedInput:
    """Undecodable or incomplete input gets one `error:` line and exit 1."""

    @pytest.mark.parametrize("command, data, fragment", [
        pytest.param(command, data, fragment, id=name)
        for name, command, data, fragment in (
            ("malformed JSON", "certify", b"{bad", "malformed JSON input"),
            ("minor without graph", "certify",
             b'{"schema":"1","kind":"cyclic_minor"}', "needs 'n' and 'edges'"),
            ("contraction without graph", "certify",
             b'{"schema":"1","kind":"contraction"}', "needs 'n' and 'edges'"),
            ("string vertex count", "certify",
             b'{"kind":"dense_cycle","graph":{"n":"3","edges":[]}}', "non-integer '3'"),
            ("non-UTF-8 edge list", "analyze", b"0 1\n\xff\xfe 2\n", "not UTF-8"),
            ("minor cycle vertex out of range", "certify",
             b'{"kind":"cyclic_minor","graph":{"n":3,"edges":[[0,1],[1,2],[0,2]]},'
             b'"host_cycle":[7,0,1,2],"arcs":[[7,0],[1],[2]],"target":"K3",'
             b'"target_graph":{"n":3,"edges":[[0,1],[1,2],[0,2]]},"target_cycle":[0,1,2]}',
             "outside 0..2"),
        )
    ])
    def test_one_line_error(self, tmp_path, capsys, command, data, fragment):
        path = tmp_path / "input"
        path.write_bytes(data)
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert fragment in err

    @pytest.mark.parametrize("argv, fragment", [
        (["generate", "--family", "complete", "--params", "n=4.9"],
         "parameter 'n' must be an integer, got '4.9'"),
        (["experiment", "--params", "count=2.5"],
         "parameter 'count' must be an integer, got '2.5'"),
        (["experiment", "--params", "count=abc"],
         "parameter 'count' must be an integer, got 'abc'"),
        (["experiment", "--params", "count=-1"], "experiment needs count >= 0"),
        (["experiment", "--k", "3", "--params", "n_max=3"], "experiment needs n_max >= 5"),
        (["generate", "--family", "random_regular", "--params", "n=9,d=3", "--seed", "1"],
         "random_regular needs n*d even"),
        (["experiment", "--k", "0"], "need k >= 2"),
        (["experiment", "--k", "1", "--params", "count=2"], "need k >= 2"),
        (["generate", "--family", "random_min_degree",
          "--params", "n=10,min_degree=3,avg=-5", "--seed", "1"],
         "random_min_degree needs avg >= 0"),
        (["generate", "--family", "complete", "--params", "n"],
         "expected key=value, got 'n'"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "error")
    def test_bad_parameter(self, capsys, argv, fragment):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert fragment in err


class TestInputsAndFormats:
    def test_edge_list_input(self, tmp_path, capsys):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 2\n2 0\n")
        code, out, _ = run(capsys, "analyze", "--input", str(f))
        assert code == 0 and "n=3" in out

    def test_json_graph_input(self, tmp_path, capsys):
        f = tmp_path / "g.json"
        f.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
        code, out, _ = run(capsys, "dense-cycle", "--input", str(f), "--k", "2")
        assert code == 0

    def test_certify_reads_a_bare_json_graph(self, tmp_path, capsys):
        f = tmp_path / "k4.json"
        f.write_text(json.dumps(artifacts.dump_graph(generate("complete", {"n": 4}))["graph"]))
        assert run(capsys, "certify", "--input", str(f), "--target", "K3") == (
            0, "cyclic K3 minor found\n", "")
        code, out, err = run(capsys, "certify", "--input", str(f))
        assert (code, out) == (1, "")
        assert err == "error: certify needs --target (or a JSON certificate)\n"

    def test_certify_still_reads_an_artifact_with_a_kind(self, tmp_path, capsys):
        f = tmp_path / "k4.json"
        f.write_text(json.dumps(artifacts.dump_graph(generate("complete", {"n": 4}))))
        assert run(capsys, "certify", "--input", str(f)) == (0, "graph ok\n", "")
        assert run(capsys, "certify", "--input", str(f), "--target", "K3") == (
            0, "graph ok\n", "")

    def test_dot_output(self, capsys):
        code, out, _ = run(
            capsys, "clique-minor", "--family", "petersen",
            "--target", "K3", "--format", "dot",
        )
        assert code == 0
        assert out.startswith("graph K3 {") and "fillcolor" in out

    @pytest.mark.parametrize("argv, edges, filled", [
        (["generate", "--family", "petersen"], 15, 0),
        (["analyze", "--family", "petersen"], 15, 0),
        (["dense-cycle", "--family", "petersen", "--k", "3"], 15, 9),
        (["contract", "--family", "petersen", "--k", "3"], 9, 0),
    ], ids=lambda v: v[0] if isinstance(v, list) else str(v))
    def test_dot_format(self, capsys, argv, edges, filled):
        # dense-cycle fills the 9 vertices of its cycle; contract draws X2
        code, out, err = run(capsys, *argv, "--format", "dot")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "graph G {" and lines[-1] == "}"
        assert sum(" -- " in line for line in lines) == edges
        assert sum("fillcolor" in line for line in lines) == filled
        assert len(lines) == edges + filled + 2

    def test_random_regular_family(self, capsys):
        argv = ["generate", "--family", "random_regular", "--params", "n=10,d=3", "--seed", "4"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert run(capsys, *argv) == (code, out, err)
        header, *rows = out.splitlines()
        assert header == "# n = 10"
        degree = [0] * 10
        for row in rows:
            for v in map(int, row.split()):
                degree[v] += 1
        assert degree == [3] * 10 and len(set(rows)) == 15

    def test_text_analyze(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "icosahedron")
        assert code == 0
        assert "min_degree=5" in out and "degeneracy=5" in out

    def test_empty_param_pieces_ignored(self, capsys):
        plain = run(capsys, "analyze", "--family", "petersen")
        assert run(capsys, "analyze", "--family", "petersen", "--params", ",") == plain
        assert plain[0] == 0

    def test_rationals_printed_exactly(self, capsys):
        code, out, _ = run(
            capsys, "contract", "--family", "petersen", "--k", "3",
            "--format", "json",
        )
        obj = json.loads(out)
        assert obj["stages"][2]["avg_degree"] == "3"
        code, out, _ = run(capsys, "analyze", "--family", "petersen", "--format", "json")
        assert json.loads(out)["avg_degree"] == "3"


class TestCliqueMinorRouting:
    def test_k3_direct(self, capsys):
        code, out, _ = run(capsys, "clique-minor", "--family", "cycle",
                           "--params", "n=5", "--target", "K3")
        assert code == 0

    def test_k5_on_k7_adapts_pipeline_degree(self, capsys):
        code, out, _ = run(
            capsys, "clique-minor", "--family", "complete",
            "--params", "n=7", "--target", "K5", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["target"] == "K5"
        assert [a for a in obj["arcs"]] == [[3], [4, 5, 6], [0], [1], [2]]

    def test_k6_on_k12(self, capsys):
        code, out, _ = run(
            capsys, "clique-minor", "--family", "complete",
            "--params", "n=12", "--target", "K6", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["target"] == "K6"

    def test_certify_k6_artifact_on_k12(self, tmp_path, capsys):
        path = tmp_path / "k6.json"
        code, out, err = run(
            capsys, "certify", "--family", "complete", "--params", "n=12",
            "--target", "K6", "--format", "json", "--out", str(path),
        )
        assert (code, out, err) == (0, "", "")
        obj = json.loads(path.read_text())
        assert obj["origin"] == "constructive" and obj["target"] == "K6"
        assert obj["arcs"][0] == [11, 0]  # Y4 runs on through X1 across the wrap
        assert run(capsys, "certify", "--input", str(path))[0] == 0

    def test_certify_too_sparse_for_k5(self, capsys):
        code, out, err = run(capsys, "certify", "--family", "petersen", "--target", "K5")
        assert (code, err) == (2, "")
        assert out == "no cyclic K5 minor found (need |E| >= 3|V|, have 9 < 18)\n"

    def test_kll_target_parse(self, capsys):
        code, out, _ = run(
            capsys, "clique-minor", "--family", "complete",
            "--params", "n=8", "--target", "Kll:2", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["target"] == "K'll"

    def test_bad_target(self, capsys):
        code, _, err = run(capsys, "clique-minor", "--family", "petersen",
                           "--target", "K9")
        assert code == 1

    def test_sparse_host_inconclusive(self, capsys):
        code, out, _ = run(capsys, "clique-minor", "--family", "icosahedron",
                           "--target", "K5")
        assert code == 2
        assert "no cyclic K5 minor found" in out

    @pytest.mark.parametrize("host, target", [
        (["--family", "petersen"], "K6"),
        (["--family", "complete", "--params", "n=6"], "K6"),
        (["--family", "petersen"], "Kll:4"),
    ])
    def test_quotient_shorter_than_the_grid_is_not_found(self, capsys, host, target):
        # the X2 quotient has fewer cycle positions than the 2l grid blocks
        code, out, err = run(capsys, "clique-minor", *host, "--target", target)
        assert (code, out, err) == (2, f"no cyclic {target} minor found\n", "")

    def test_forced_k_propagates_error(self, capsys):
        code, _, err = run(
            capsys, "clique-minor", "--family", "icosahedron",
            "--target", "K5", "--k", "8",
        )
        assert code == 1


class TestParserCache:
    """The parser is built once per process; reusing it changes no output."""

    CALLS = [
        ["generate", "--family", "complete", "--params", "n=4", "--params", "n=5"],
        ["generate", "--family", "petersen"],
        ["active-paths", "--family", "complete", "--params", "n=5"],
        ["experiment", "--params", "count=2,n_max=10"],
        ["certify", "--family", "complete", "--params", "n=5", "--target", "K4", "--oracle"],
        ["certify", "--family", "complete", "--params", "n=5", "--target", "K4"],
        ["dense-cycle", "--family", "petersen"],
        ["clique-minor", "--family", "petersen", "--target", "K4", "--oracle"],
        ["clique-minor", "--family", "petersen", "--target", "K4"],
        ["analyze", "--family", "petersen", "--k", "4", "--format", "json"],
        ["analyze", "--family", "petersen"],
    ]

    def test_reused_parser_prints_what_a_fresh_one_does(self, capsys):
        fresh = []
        for argv in self.CALLS:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert fresh[6][0] == 1  # the usage error: dense-cycle needs --k
        assert cli._build_parser() is cli._build_parser()
        assert [run(capsys, *argv) for argv in self.CALLS] == fresh
        assert [run(capsys, *argv) for argv in reversed(self.CALLS)] == fresh[::-1]


TAMPER_HOST = [
    "--family", "random_min_degree", "--params", "n=40,min_degree=5", "--seed", "3", "--k", "5",
]


def _set(stage, **fields):
    return lambda obj: obj["stages"][stage].update(fields)


# Each of these certified at exit 0 while certify re-ran the pipeline and
# compared only the three stage graphs.
CONTRACTION_TAMPERS = {
    "n_a + 5": (lambda obj: obj.update(n_a=obj["n_a"] + 5), "n_a, n_b, m are"),
    "certificate cycle cut to 3": (
        lambda obj: obj.update(certificate_cycle=obj["certificate_cycle"][:3]),
        "not an edge of the graph",
    ),
    "X0 contracts [0, 1]": (_set(0, contracted_edges=[[0, 1]]), "not an edge of the certificate cycle"),
    "X1 cycle reversed": (
        lambda obj: obj["stages"][1].update(cycle=obj["stages"][1]["cycle"][::-1]),
        "X1 cycle does not list its classes in cycle order",
    ),
    "X0 active classes emptied": (_set(0, active_classes=[]), "X0's chords give 0, 0, 0"),
    "X0 min degree 99": (_set(0, min_degree=99), "X0 states min degree 99"),
    "X1 contracted edges null": (_set(1, contracted_edges=None), "X1 contracted_edges must be a list"),
    "stage label X9": (_set(2, label="X9"), "unknown stage label 'X9'"),
}


@pytest.fixture(scope="module")
def contraction_artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("contraction") / "c.json"
    assert cli.main(["contract", *TAMPER_HOST, "--format", "json", "--out", str(path)]) == 0
    return path.read_text()


class TestContractionCertificate:
    """`certify` checks a contraction artifact's claims from the artifact alone."""

    def certify(self, capsys, path, obj):
        path.write_text(json.dumps(obj))
        return run(capsys, "certify", "--input", str(path))

    @pytest.mark.parametrize("name", list(CONTRACTION_TAMPERS))
    def test_tampered_artifact_rejected(self, tmp_path, capsys, contraction_artifact, name):
        obj = json.loads(contraction_artifact)
        tamper, fragment = CONTRACTION_TAMPERS[name]
        tamper(obj)
        code, out, err = self.certify(capsys, tmp_path / "t.json", obj)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert fragment in err
        assert not contraction_claims_hold(obj)

    def test_certify_reruns_nothing(self, tmp_path, capsys, monkeypatch, contraction_artifact):
        def rerun(*args, **kwargs):
            raise AssertionError("certify re-ran the contraction pipeline")

        monkeypatch.setattr(cli, "find_dense_cycle", rerun)
        monkeypatch.setattr(cli, "pipeline", rerun)
        code, out, err = self.certify(capsys, tmp_path / "c.json", json.loads(contraction_artifact))
        assert (code, out, err) == (0, "contraction certificate ok: k=5\n", "")

    def test_every_emitted_artifact_certifies(self, tmp_path, capsys):
        # ten acceptance-corpus hosts per k, then the two hosts whose X1 needs
        # the successor pairing (pattern 1) and the floor-only pairing (pattern 2)
        hosts = [
            (f"n={g.n},min_degree={k}", seed, k)
            for k in range(2, 9)
            for g, _, _, seed in min_degree_corpus(k, 10)
        ]
        hosts += [("n=5,min_degree=3,avg=3", 979961074, 3), ("n=5,min_degree=3,avg=3", 406059994, 3)]
        path = tmp_path / "c.json"
        x1s = []
        for params, seed, k in hosts:
            argv = ["contract", "--family", "random_min_degree", "--params", params,
                    "--seed", str(seed), "--k", str(k), "--format", "json", "--out", str(path)]
            assert cli.main(argv) == 0, argv
            obj = json.loads(path.read_text())
            x0, x1, _ = obj["stages"]
            if k == 2:
                assert x1 == {**x0, "label": "X1"}
            x1s.append(x1)
            code, out, err = run(capsys, "certify", "--input", str(path))
            assert (code, out, err) == (0, f"contraction certificate ok: k={k}\n", ""), argv
            assert contraction_claims_hold(obj), argv
        pattern1, pattern2 = x1s[-2:]
        assert pattern1["contracted_edges"] == [[0, 2]]
        assert pattern2["contracted_edges"] == [] and pattern2["graph"]["n"] == 5


# ---------------------------------------------------------------- doors
# Checks on outside input that nothing else reaches: each gives one
# `error:` line and exit 1, reached the way a user reaches it.


def _cli(*argv):
    return lambda tmp_path, capsys: run(capsys, *argv)


def _certify_tampered(source, tamper):
    """certify --input on the artifact `source` emits, once tampered."""
    def door(tmp_path, capsys):
        path = tmp_path / "a.json"
        assert cli.main([*source, "--format", "json", "--out", str(path)]) == 0
        obj = json.loads(path.read_text())
        tamper(obj)
        path.write_text(json.dumps(obj))
        return run(capsys, "certify", "--input", str(path))
    return door


def _called(check, *args):
    """A library check called directly, its ValidationError as the CLI prints it."""
    def door(tmp_path, capsys):
        try:
            check(*args)
        except ValidationError as exc:
            return 1, "", f"error: {exc}\n"
        return 0, "", ""
    return door


def _two_class_x0(obj):
    """X0 restated as the true quotient of C by all but two of its edges: a
    cyclic minor of C whose cycle is two classes."""
    g = Graph(obj["graph"]["n"], obj["graph"]["edges"])
    g0, old_ids = induced_subgraph(g, obj["certificate_cycle"])
    relabel = {u: i for i, u in enumerate(old_ids)}
    ring = [relabel[u] for u in obj["certificate_cycle"]]
    t = len(ring)
    edges = [edge(ring[i], ring[(i + 1) % t]) for i in range(t) if i not in (0, t // 2)]
    quotient, plan = contract_edges(g0, edges, cycle=ring)
    obj["stages"][0].update(
        graph={"n": quotient.n, "edges": [list(e) for e in quotient.edges()]},
        cycle=[plan.class_of[arc[0]] for arc in plan.arcs],
        contracted_edges=sorted(map(list, edges)),
    )


PETERSEN_DENSE_CYCLE = ["dense-cycle", "--family", "petersen", "--k", "3"]
PETERSEN_CONTRACTION = ["contract", "--family", "petersen", "--k", "3"]
# K4 as two arcs, for the three vertices of K3
TWO_ARCS_FOR_K3 = minors.CyclicMinorModel(
    host=generate("complete", {"n": 4}), host_cycle=(0, 1, 2, 3), arcs=((0, 1), (2, 3)),
    target=generate("complete", {"n": 3}), target_cycle=(0, 1, 2), target_name="K3",
)

DOORS = {
    "dense cycle [0, 1]": (
        _certify_tampered(PETERSEN_DENSE_CYCLE, lambda obj: obj.update(
            cycle=[0, 1],
            closure={"cycle": [0, 1], "active": [], "passive_edges": [], "witnesses": {}},
        )),
        "a cycle needs at least 3 vertices",
    ),
    "stage average 1/0": (
        _certify_tampered(PETERSEN_CONTRACTION, _set(0, avg_degree="1/0")),
        "X0 avg_degree must be a rational like '16/3', got '1/0'",
    ),
    "X0 of two classes": (
        _certify_tampered(PETERSEN_CONTRACTION, _two_class_x0),
        "a cycle needs at least 3 vertices",
    ),
    "verify_model arc count": (
        _called(minors.verify_model, TWO_ARCS_FOR_K3), "arc count differs from target order",
    ),
    "experiment foo=1": (
        _cli("experiment", "--params", "foo=1"), "unknown experiment params: ['foo']",
    ),
    "complete without n": (
        _cli("generate", "--family", "complete"), "family 'complete' needs parameter 'n'",
    ),
    "complete n=0": (
        _cli("generate", "--family", "complete", "--params", "n=0"),
        "complete graph needs n >= 1",
    ),
    "complete_bipartite a=0": (
        _cli("generate", "--family", "complete_bipartite", "--params", "a=0,b=2"),
        "complete bipartite graph needs a, b >= 1",
    ),
    "cycle n=2": (
        _cli("generate", "--family", "cycle", "--params", "n=2"), "cycle needs n >= 3",
    ),
    "random_min_degree min_degree=n": (
        _cli("generate", "--family", "random_min_degree", "--params", "n=3,min_degree=3",
             "--seed", "1"),
        "random_min_degree needs 0 <= min_degree < n",
    ),
    "random_regular d=n": (
        _cli("generate", "--family", "random_regular", "--params", "n=4,d=4", "--seed", "1"),
        "random_regular needs 0 <= d < n",
    ),
}


@pytest.mark.parametrize("name", list(DOORS))
def test_door_gives_one_error_line(tmp_path, capsys, name):
    door, message = DOORS[name]
    assert door(tmp_path, capsys) == (1, "", f"error: {message}\n")
