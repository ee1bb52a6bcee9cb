"""Checks of the benchmark itself: bad outputs must count as failures.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hosts  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

cc = run.import_program()


def contract_pair(tmp_path):
    """A contract request and the certify of its artifact, on one small host."""
    wl = workloads.Workload("test", [])
    edges = hosts.random_min_degree(30, 3, random.Random(0))
    path = workloads._write(tmp_path, "h.txt", edges, wl)
    workloads.emit_and_certify(
        wl, "contract", path, 3, tmp_path / "h.json", "contract",
        workloads.contraction_check(edges, 3), "contraction certificate ok: k=3\n",
    )
    return wl.requests


def test_clean_round_has_no_failures(tmp_path):
    tally = run.Tally(contract_pair(tmp_path))
    tally.run(cc)
    tally.apply_checks()
    assert (tally.attempted, tally.failed) == (2, 0)


def test_corrupted_artifact_counts_as_failure(tmp_path):
    emit, certify = requests = contract_pair(tmp_path)
    tally = run.Tally(requests)
    tally.record(0, run.execute(cc, emit))
    artifact = json.loads(emit.out.read_bytes())
    artifact["stages"][1]["graph"]["edges"].pop()  # X1 no longer matches the pipeline
    emit.out.write_text(json.dumps(artifact))
    tally.record(1, run.execute(cc, certify))
    tally.apply_checks()
    assert tally.failed >= 1
    assert tally.messages[1].startswith("exit 1")


def emitted_artifact(tmp_path):
    """The contract request of contract_pair, run, with its artifact loaded."""
    emit, _ = requests = contract_pair(tmp_path)
    tally = run.Tally(requests)
    tally.record(0, run.execute(cc, emit))
    return tally, json.loads(emit.out.read_bytes())


def failure_after_rewrite(tally, artifact):
    tally.requests[0].out.write_text(json.dumps(artifact))
    tally.apply_checks()
    return tally.messages.get(0)


def test_stage_gaining_an_edge_counts_as_failure(tmp_path):
    # certify re-runs the pipeline, so only the independent rebuild of the
    # stage from the input can catch a faulty pipeline that emits this
    tally, artifact = emitted_artifact(tmp_path)
    assert failure_after_rewrite(tally, artifact) is None
    x2 = artifact["stages"][2]["graph"]
    present = {tuple(e) for e in x2["edges"]}
    extra = next((u, v) for u in range(x2["n"]) for v in range(u + 1, x2["n"])
                 if (u, v) not in present)
    x2["edges"] = sorted(x2["edges"] + [list(extra)])
    assert failure_after_rewrite(tally, artifact) == (
        "X2 is not the input's quotient by its contracted edges"
    )


def test_contracting_a_non_edge_counts_as_failure(tmp_path):
    tally, artifact = emitted_artifact(tmp_path)
    x1 = artifact["stages"][1]
    n0 = artifact["stages"][0]["graph"]["n"]
    cycle = artifact["certificate_cycle"]
    old_ids = sorted(cycle)
    inside = {(min(u, v), max(u, v)) for u, v in artifact["graph"]["edges"]}
    u, v = next((a, b) for a in range(n0) for b in range(a + 1, n0)
                if (min(old_ids[a], old_ids[b]), max(old_ids[a], old_ids[b])) not in inside)
    x1["contracted_edges"].append([u, v])
    assert failure_after_rewrite(tally, artifact) == (
        f"X1 contracts ({u}, {v}), not an edge of the input"
    )


def test_changed_output_bytes_count_as_failure(tmp_path):
    requests = contract_pair(tmp_path)
    first, second = run.Tally(requests), run.Tally(requests)
    first.run(cc)
    second.run(cc)
    second.same_outputs_as(first)
    assert second.failed == 0
    second.digest[0] = "0" * 64
    second.same_outputs_as(first)
    assert list(second.messages) == [0]


def test_wrong_oracle_answer_counts_as_failure():
    edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
    check = workloads.chords_check(4, edges)
    assert check(0, json.dumps([0, [0, 1, 2]]).encode()) is None
    assert check(0, json.dumps([1, [0, 1, 2]]).encode()) is not None


def test_self_times_add_up_to_the_request(tmp_path):
    from chordcycles import cli, contraction, lollipop

    emit, _ = contract_pair(tmp_path)
    tr = tracer.Tracer()
    tr.install()
    try:
        # names imported with `from .module import name` are rebound too
        assert cli.find_dense_cycle.__wrapped__ is lollipop.find_dense_cycle.__wrapped__
        assert hasattr(contraction.contract_edges, "__wrapped__")
        run.execute(cc, emit)
    finally:
        tr.uninstall()
    assert cli.find_dense_cycle is lollipop.find_dense_cycle
    assert not hasattr(cli.find_dense_cycle, "__wrapped__")
    names = {span.name for span in tr.spans}
    assert {"cli.main", "lollipop.find", "lollipop.closure", "lollipop.audit",
            "contraction.half", "graph.contract_edges", "graph.parse"} <= names
    roots = [span for span in tr.spans if span.parent < 0]
    assert [span.name for span in roots] == ["cli.main"]
    total_self = sum(a.self_time for a in tr.aggregate().values())
    assert abs(total_self - (roots[0].end - roots[0].start)) < 1e-6


def test_model_for_another_target_or_host_counts_as_failure(tmp_path):
    edges = hosts.random_min_degree(40, 8, random.Random(1))
    path = tmp_path / "m.txt"
    path.write_bytes(hosts.edge_list_text(edges))
    out = tmp_path / "m.json"
    req = workloads.Request(
        label="k4", argv=["clique-minor", "--input", str(path), "--target", "K4",
                          "--format", "json", "--out", str(out)], out=out,
    )
    outcome = run.execute(cc, req)
    assert outcome.error is None
    stages = workloads.contract_stages(cc, path, edges, 3)
    check = workloads.model_check(cc, "K4", quotient=lambda: stages()[1])
    assert check(0, outcome.data) is None
    assert workloads.model_check(cc, "K5")(0, outcome.data) == "target graph is not K5"
    # a model in a host that is not the input's quotient
    model = json.loads(outcome.data)
    present = {tuple(e) for e in model["graph"]["edges"]}
    n = model["graph"]["n"]
    extra = next((u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present)
    model["graph"]["edges"] = sorted(model["graph"]["edges"] + [list(extra)])
    assert check(0, json.dumps(model).encode()) == "model host is not the X1 quotient of the input"


def test_paired_runs_give_the_same_outputs(tmp_path):
    requests = contract_pair(tmp_path)
    plain, traced = run.Tally(requests), run.Tally(requests)
    tr = tracer.Tracer()
    run.run_paired(cc, plain, traced, tr, 0, 0)
    traced.same_outputs_as(plain)
    assert (plain.failed, traced.failed, traced.attempted) == (0, 0, 2)
    assert traced.wall == sum(traced.seconds)
    assert {span.request for span in tr.spans} == {0, 1}
