"""The four workloads: their inputs, their request schedules and their checks.

A workload is built from a seed and a round number into the requests of one
round.  The benchmark runs rounds 0, 1, 2, ...; every round draws fresh
hosts of the same shapes, so no request repeats and no result can be served
from a cache.  README.md says why each workload exists and which layer it
isolates.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import hosts

# Shapes of one round.  Host sizes are fixed, or stratified over their
# range, so that totals move little from one seed to the next.
CORPUS_PER_K = 15  # hosts per k in 2..8, n stratified over k+2..200
# Four hosts of one size: every metric of a run is then drawn from eight
# like requests spread over the whole run, not from one or two that a slow
# spell of the machine can catch.  Eight samples are too few for a tail with
# ten beyond it, so the tail is their 90th percentile.
SCALE_SIZES = (1300,) * 4
# Minor hosts come in three size classes whose requests do not overlap in
# latency, so that each quantile falls inside one class of like requests
# rather than on the edge between two, where which request lands on it
# changes from seed to seed.  Over a run's two rounds, the median falls
# among the 48 requests other than K5 on n=200 hosts, and the tail (the
# 11th largest) in the middle of the twelve K5 requests on those hosts.
MINOR_SIZES = (200,) * 6 + (350, 500)
MINOR_TARGETS = ("K4", "K5", "K6", "Kll:2", "Kll:3")
ORACLE_PLANAR = (9,) * 20 + (10,) * 4  # stacked triangulations against K5
ORACLE_APEX = (9,) * 4  # apex over a stacked triangulation against K6
# Fewer fast requests (planted, chords) than refutations, so that the median
# latency falls among the refutations rather than at the edge between the two.
ORACLE_PLANTED = (8, 9, 10, 11) * 2  # planted cyclic K5, asked for K4 and K5
ORACLE_CHORDS = (7, 8, 9)  # max_chords_over_cycles on G(n, p)

# Seconds one round takes on the reference machine (README.md).  A run does
# as many rounds as fill --seconds at that pace, so both sides of a
# comparison run the same inputs and the same number of samples whatever
# their speed.
ROUND_SECONDS = {"corpus": 4.5, "scale": 14.0, "minors": 11.0, "oracle": 9.0}
WORKLOADS = tuple(ROUND_SECONDS)


@dataclass
class Request:
    """One call of `cli.main(argv)`, or of a library function.

    `after` names an earlier request of the round that must have exited 0
    for this one to run (a certify waits for the artifact it re-verifies).
    `check` looks at the output bytes after the timed run and returns a
    failure message or None.
    """

    label: str
    argv: list[str] | None = None
    call: Callable[[], bytes] | None = None
    out: Path | None = None
    expect: tuple[int, ...] = (0,)
    search: bool = False  # asks for a model or certificate; exit 2 is "not found"
    certify: bool = False  # certify --input of an artifact this round emitted
    artifact: bool = False  # emits a JSON artifact
    after: int | None = None
    check: Callable[[int, bytes], str | None] | None = None


@dataclass
class Workload:
    name: str
    requests: list[Request]
    inputs: list[bytes] = field(default_factory=list)

    def inputs_sha256(self) -> str:
        h = hashlib.sha256()
        for blob in self.inputs:
            h.update(hashlib.sha256(blob).digest())
        return h.hexdigest()


# ---------------------------------------------------------------- checks


def _edges_of(obj) -> list[tuple[int, int]]:
    return sorted((min(u, v), max(u, v)) for u, v in obj["edges"])


def _min_avg(graph) -> tuple[int, Fraction]:
    deg = [0] * graph["n"]
    for u, v in graph["edges"]:
        deg[u] += 1
        deg[v] += 1
    return min(deg), Fraction(2 * len(graph["edges"]), graph["n"])


def _load_artifact(data: bytes, kind: str, edges) -> dict:
    obj = json.loads(data)
    if obj.get("kind") != kind:
        raise ValueError(f"artifact kind {obj.get('kind')!r}, want {kind!r}")
    if edges is not None and _edges_of(obj["graph"]) != edges:
        raise ValueError("artifact graph differs from the input graph")
    return obj


def _guarded(check):
    """Turn any exception raised by a check into its failure message."""

    @functools.wraps(check)
    def run(code, data):
        try:
            return check(code, data)
        except Exception as exc:  # a malformed output is a failed request
            return f"{type(exc).__name__}: {exc}"

    return run


def _adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _is_cycle(adj, cycle) -> bool:
    return len(cycle) >= 3 and len(set(cycle)) == len(cycle) and all(
        0 <= u < len(adj) and cycle[(i + 1) % len(cycle)] in adj[u] for i, u in enumerate(cycle)
    )


def _rotations(seq):
    seq = list(seq)
    return (seq[s:] + seq[:s] for s in range(len(seq)))


def _stage_error(adj, cycle, stage) -> str | None:
    """Rebuild one stage from the input alone and compare it with the artifact's.

    The stage is the subgraph induced on the certificate cycle, relabelled in
    sorted order, with the stage's contracted edges contracted.  Each class
    must be one run along the cycle, and the stage cycle must list the
    classes in cycle order: that matches the artifact's labels to the rebuilt
    classes, whatever rule numbered them.
    """
    old_ids = sorted(cycle)
    index = {u: i for i, u in enumerate(old_ids)}
    sub = [{index[v] for v in adj[u] if v in index} for u in old_ids]
    parent = list(range(len(old_ids)))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in stage["contracted_edges"]:
        if not (0 <= u < len(sub) and v in sub[u]):
            return f"{stage['label']} contracts ({u}, {v}), not an edge of the input"
        parent[root(u)] = root(v)
    runs = []
    for u in cycle:
        cls = root(index[u])
        if not runs or runs[-1] != cls:
            runs.append(cls)
    if len(runs) > 1 and runs[0] == runs[-1]:
        runs.pop()
    if len(set(runs)) != len(runs) or len(runs) != len({root(x) for x in range(len(sub))}):
        return f"{stage['label']} has a class that is not one run of the cycle"
    if stage["graph"]["n"] != len(runs) or sorted(stage["cycle"]) != list(range(len(runs))):
        return f"{stage['label']} has {stage['graph']['n']} vertices, the input gives {len(runs)}"
    want = _edges_of(stage["graph"])
    between = {(root(u), root(v)) for u in range(len(sub)) for v in sub[u]}
    for order in _rotations(runs):
        label = dict(zip(order, stage["cycle"]))
        got = {(label[a], label[b]) for a, b in between if label[a] < label[b]}
        if sorted(got) == want:
            return None
    return f"{stage['label']} is not the input's quotient by its contracted edges"


def contraction_check(edges, k):
    """Each stage is rebuilt from the input and X1/X2 meet the paper's floors.

    The rebuild uses only the input edges, the certificate cycle and each
    stage's contracted edges, so a stage that gains an edge, or contracts a
    non-edge, fails here even when `certify` re-runs the same faulty code.
    """

    @_guarded
    def check(code, data):
        obj = _load_artifact(data, "contraction", edges)
        adj = _adjacency(obj["graph"]["n"], edges)
        if not _is_cycle(adj, obj["certificate_cycle"]):
            return "certificate cycle is not a cycle of the input"
        for stage in obj["stages"]:
            message = _stage_error(adj, obj["certificate_cycle"], stage)
            if message is not None:
                return message
        _, x1, x2 = obj["stages"]
        min1, _ = _min_avg(x1["graph"])
        _, avg2 = _min_avg(x2["graph"])
        if min1 < (k + 3) // 2:
            return f"X1 minimum degree {min1} below ceil((k+2)/2)"
        if avg2 < Fraction(2 * (k + 1), 3):
            return f"X2 average degree {avg2} below 2(k+1)/3"
        return None

    return check


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def contract_stages(cc, path: Path, edges, k: int) -> Callable[[], list[dict]]:
    """The stages of `contract --k k` on one input, run once when first asked
    for (after the clock stopped) and checked by contraction_check.  A stage
    keeps its label, cycle and a digest of its sorted edges, so that the
    memos of a round hold little memory."""

    @functools.cache
    def stages():
        out = path.with_name(f"{path.stem}.k{k}.json")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cc.cli.main(["contract", "--input", str(path), "--k", str(k),
                                "--format", "json", "--out", str(out)])
        data = out.read_bytes()
        message = f"exit {code}" if code != 0 else contraction_check(edges, k)(code, data)
        if message is not None:
            raise ValueError(f"contract --k {k} of the input: {message}")
        return [
            {"label": st["label"], "edges": _digest(_edges_of(st["graph"])), "cycle": st["cycle"]}
            for st in json.loads(data)["stages"]
        ]

    return stages


def dense_cycle_check(edges, k):
    """The cycle is a cycle of the input and k+1 distinct vertices have k
    neighbours on it."""

    @_guarded
    def check(code, data):
        obj = _load_artifact(data, "dense_cycle", edges)
        adj = _adjacency(obj["graph"]["n"], edges)
        cycle = obj["cycle"]
        on = set(cycle)
        if not _is_cycle(adj, cycle):
            return "certificate cycle is not a cycle of the input"
        high = {v for v in obj["high_degree"] if len(adj[v] & on) >= k}
        if len(high) < k + 1:
            return f"only {len(high)} distinct vertices of cycle degree >= {k}"
        return None

    return check


def _target(name: str) -> tuple[int, list[tuple[int, int]]]:
    """Order and sorted edges of a target: K<n>, or Kll:<l>, which is K_{l,l}
    on sides 0..l-1 and l..2l-1 plus a path through each side."""
    if name.startswith("Kll:"):
        ell = int(name[4:])
        edges = [(x, ell + y) for x in range(ell) for y in range(ell)]
        edges += [(x, x + 1) for x in range(ell - 1)]
        edges += [(ell + y, ell + y + 1) for y in range(ell - 1)]
        return 2 * ell, sorted(edges)
    n = int(name[1:])
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


def model_check(cc, target: str, edges=None, origin="constructive", quotient=None):
    """A JSON model for `target` that `minors.verify_model` accepts.

    The target graph is compared with the canonical one, since the artifact's
    own target graph is what verification trusts.  An oracle model lives in
    the input itself (`edges`).  A constructive one lives in a quotient of
    the input: `quotient()` gives that stage of a contraction artifact checked
    against the input, and the model's host and cycle must be that stage's.
    """

    @_guarded
    def check(code, data):
        if code == 2:
            want = f"no cyclic {target} minor found"
            return None if data.decode().startswith(want) else f"exit 2 without {want!r}"
        obj = _load_artifact(data, "cyclic_minor", edges)
        if obj["origin"] != origin:
            return f"origin {obj['origin']!r}, want {origin!r}"
        if quotient is not None:
            stage = quotient()
            if _digest(_edges_of(obj["graph"])) != stage["edges"]:
                return f"model host is not the {stage['label']} quotient of the input"
            cycle = list(obj["host_cycle"])
            if not any(cycle == r for seq in (stage["cycle"], stage["cycle"][::-1])
                       for r in _rotations(seq)):
                return f"model cycle is not the {stage['label']} quotient's cycle"
        n, want = _target(target)
        if obj["target_graph"]["n"] != n or _edges_of(obj["target_graph"]) != want:
            return f"target graph is not {target}"
        want_graph = cc.Graph(n, want)
        model = cc.minors.CyclicMinorModel(
            host=cc.Graph(obj["graph"]["n"], obj["graph"]["edges"]),
            host_cycle=tuple(obj["host_cycle"]),
            arcs=tuple(tuple(arc) for arc in obj["arcs"]),
            target=want_graph,
            target_cycle=tuple(obj["target_cycle"]),
            target_name=obj["target"],
        )
        if not cc.minors.verify_model(model):
            return "model does not verify"
        return None

    return check


def text_check(prefix: str):
    @_guarded
    def check(code, data):
        text = data.decode()
        return None if text.startswith(prefix) else f"output {text[:80]!r} lacks {prefix!r}"

    return check


def chords_check(n, edges):
    @_guarded
    def check(code, data):
        known = hosts.max_chords_known(n, edges)
        got = json.loads(data)
        if got is None or known is None:
            return None if got is None and known is None else f"got {got}, known {known}"
        chords, cycle = got
        if chords != known:
            return f"max chords {chords}, known {known}"
        adj = {(min(u, v), max(u, v)) for u, v in edges}
        on = set(cycle)
        if len(on) != len(cycle) or len(cycle) < 3 or any(
            (min(u, cycle[(i + 1) % len(cycle)]), max(u, cycle[(i + 1) % len(cycle)])) not in adj
            for i, u in enumerate(cycle)
        ):
            return "witness is not a cycle of the graph"
        inside = sum(1 for u, v in edges if u in on and v in on)
        if inside - len(cycle) != chords:
            return "witness chord count differs from the claim"
        return None

    return check


# ---------------------------------------------------------------- builders


def _write(workdir: Path, name: str, edges, wl: Workload) -> Path:
    path = workdir / name
    blob = hosts.edge_list_text(edges)
    path.write_bytes(blob)
    wl.inputs.append(name.encode() + b"\0" + blob)
    return path


def certify_of(wl: Workload, out: Path, label: str, certified: str):
    """Append `certify --input` of the artifact the last request emits."""
    wl.requests.append(Request(
        label=label + " certify",
        argv=["certify", "--input", str(out), "--out", str(out) + ".txt"],
        out=Path(str(out) + ".txt"), certify=True, after=len(wl.requests) - 1,
        check=text_check(certified),
    ))


def emit_and_certify(wl: Workload, command, path, k, out: Path, label: str,
                     check, certified: str):
    """Append an emitting request and the certify that re-verifies its output."""
    wl.requests.append(Request(
        label=label,
        argv=[command, "--input", str(path), "--k", str(k), "--format", "json", "--out", str(out)],
        out=out, search=True, artifact=True, check=check,
    ))
    certify_of(wl, out, label, certified)


def build_corpus(seed: int, r: int, workdir: Path, cc) -> Workload:
    wl = Workload("corpus", [])
    for k in range(2, 9):
        for t in range(CORPUS_PER_K):
            rng = random.Random(f"corpus/{seed}/{r}/{k}/{t}")
            n = k + 2 + int((t + rng.random()) * (199 - k) / CORPUS_PER_K)
            edges = hosts.random_min_degree(n, k, rng)
            path = _write(workdir, f"c{k}_{t}.txt", edges, wl)
            emit_and_certify(
                wl, "contract", path, k, workdir / f"c{k}_{t}.json",
                f"r{r} contract k={k} n={n}", contraction_check(edges, k),
                f"contraction certificate ok: k={k}\n",
            )
    return wl


def build_scale(seed: int, r: int, workdir: Path, cc) -> Workload:
    wl = Workload("scale", [])
    for i, n in enumerate(SCALE_SIZES):
        edges = hosts.random_min_degree(n, 8, random.Random(f"scale/{seed}/{r}/{i}"))
        path = _write(workdir, f"s{i}.txt", edges, wl)
        emit_and_certify(
            wl, "dense-cycle", path, 8, workdir / f"s{i}.json",
            f"r{r} dense-cycle n={n}", dense_cycle_check(edges, 8),
            "dense cycle certificate ok: k=8 ",
        )
    return wl


def build_minors(seed: int, r: int, workdir: Path, cc) -> Workload:
    wl = Workload("minors", [])
    for i, n in enumerate(MINOR_SIZES):
        edges = hosts.random_min_degree(n, 8, random.Random(f"minors/{seed}/{r}/{i}"))
        path = _write(workdir, f"m{i}.txt", edges, wl)
        stages = {k: contract_stages(cc, path, edges, k) for k in (3, 8)}
        for target in MINOR_TARGETS:
            # The CLI builds K4 on X1 of the k=3 pipeline and the others on
            # X2 of the k=8 one (k is clamped to the minimum degree, here 8).
            k, x = (3, 1) if target == "K4" else (8, 2)
            out = workdir / f"m{i}_{target.replace(':', '')}.json"
            label = f"r{r} clique-minor {target} n={n}"
            wl.requests.append(Request(
                label=label,
                argv=["clique-minor", "--input", str(path), "--target", target,
                      "--format", "json", "--out", str(out)],
                out=out, expect=(0, 2), search=True, artifact=True,
                check=model_check(cc, target, quotient=lambda s=stages[k], x=x: s()[x]),
            ))
            name = "K'll" if target.startswith("Kll") else target
            certify_of(wl, out, label, f"cyclic {name} minor ok\n")
    return wl


def build_oracle(seed: int, r: int, workdir: Path, cc) -> Workload:
    wl = Workload("oracle", [])

    def refute(kind, i, n, edges, target):
        path = _write(workdir, f"o_{kind}{i}.txt", edges, wl)
        out = workdir / f"o_{kind}{i}.out"
        wl.requests.append(Request(
            label=f"r{r} oracle {kind} n={n} {target}",
            argv=["certify", "--input", str(path), "--target", target, "--oracle",
                  "--out", str(out)],
            out=out, expect=(2,), search=True,
            check=text_check(f"no cyclic {target} minor (exhaustive)\n"),
        ))

    for i, n in enumerate(ORACLE_PLANAR):
        rng = random.Random(f"oracle/{seed}/{r}/planar/{i}")
        refute("planar", i, n, hosts.stacked_triangulation(n, rng), "K5")
    for i, n in enumerate(ORACLE_APEX):
        rng = random.Random(f"oracle/{seed}/{r}/apex/{i}")
        refute("apex", i, n, hosts.apex_over_planar(n, rng), "K6")
    for i, n in enumerate(ORACLE_PLANTED):
        edges = hosts.planted_k5(n, random.Random(f"oracle/{seed}/{r}/planted/{i}"))
        path = _write(workdir, f"o_planted{i}.txt", edges, wl)
        for target in ("K4", "K5"):
            out = workdir / f"o_planted{i}_{target}.json"
            label = f"r{r} oracle planted n={n} {target}"
            wl.requests.append(Request(
                label=label,
                argv=["certify", "--input", str(path), "--target", target, "--oracle",
                      "--format", "json", "--out", str(out)],
                out=out, search=True, artifact=True,
                check=model_check(cc, target, edges, origin="oracle"),
            ))
            certify_of(wl, out, label, f"cyclic {target} minor ok\n")
    for i, n in enumerate(ORACLE_CHORDS):
        rng = random.Random(f"oracle/{seed}/{r}/chords/{i}")
        edges = hosts.random_graph(n, rng.uniform(0.35, 0.7), rng)
        wl.inputs.append(f"chords{i}:{n}:{edges}".encode())
        graph = cc.Graph(n, edges)

        def call(graph=graph):
            found = cc.oracle.max_chords_over_cycles(graph)
            return json.dumps(None if found is None else [found.chords, list(found.cycle)]).encode()

        wl.requests.append(Request(
            label=f"r{r} max_chords n={n}", call=call, check=chords_check(n, edges),
        ))
    return wl


BUILDERS = {
    "corpus": build_corpus,
    "scale": build_scale,
    "minors": build_minors,
    "oracle": build_oracle,
}


def build(name: str, seed: int, r: int, workdir: Path, cc) -> Workload:
    """Round r of a workload, its requests in a seeded random order.

    Each certify stays right after the request whose artifact it re-verifies.
    The machine's speed drifts within a run, so the order spreads every kind
    of request over the whole round and no metric draws its samples from one
    stretch of it.  The order depends on the round and not on the seed:
    a request's time depends on what the ones before it left in the process,
    so every seed runs its kinds of request in the same order.
    """
    wl = BUILDERS[name](seed, r, workdir, cc)
    units = []
    for req in wl.requests:
        if req.after is None:
            units.append([req])
        else:
            units[-1].append(req)
    random.Random(f"order/{name}/{r}").shuffle(units)
    wl.requests = []
    for unit in units:
        first = len(wl.requests)
        for req in unit:
            if req.after is not None:
                req.after = first
            wl.requests.append(req)
    return wl


def build_warmup(workdir: Path, cc) -> list[Request]:
    """One small request of every command the workloads use."""
    wl = Workload("warmup", [])
    edges = hosts.random_min_degree(40, 8, random.Random("warmup"))
    path = _write(workdir, "w.txt", edges, wl)
    emit_and_certify(wl, "contract", path, 3, workdir / "wc.json",
                     "warm contract", None, "contraction certificate ok")
    emit_and_certify(wl, "dense-cycle", path, 8, workdir / "wd.json",
                     "warm dense-cycle", None, "dense cycle certificate ok")
    small = hosts.planted_k5(7, random.Random("warmup"))
    small_path = _write(workdir, "wo.txt", small, wl)
    for argv in (
        ["clique-minor", "--input", str(path), "--target", "K4", "--format", "json",
         "--out", str(workdir / "wm.json")],
        ["certify", "--input", str(small_path), "--target", "K4", "--oracle",
         "--out", str(workdir / "wo.out")],
    ):
        wl.requests.append(Request(label="warm " + argv[0], argv=argv, out=Path(argv[-1])))
    graph = cc.Graph(6, hosts.random_graph(6, 0.6, random.Random("warmup")))
    wl.requests.append(Request(
        label="warm max_chords",
        call=lambda: repr(cc.oracle.max_chords_over_cycles(graph)).encode(),
    ))
    return wl.requests
