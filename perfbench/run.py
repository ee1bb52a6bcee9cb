"""Closed-loop benchmark of chordcycles: one client, one process, one request at a time.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Each request is a call of `chordcycles.cli.main(argv)`, or of a public
`chordcycles.oracle` function, on inputs generated from --seed (see
workloads.py and README.md).  The client waits for each reply before it
sends the next request, as a command-line caller does.  The program is
imported from `src/` next to this directory; nothing under `src/` changes.

The run goes in rounds of fresh inputs, as many as fill --seconds at the
workload's nominal round time, so every commit runs the same inputs.  With
--trace 0 it reports the end-to-end metrics.  Set-up is timed in fresh
processes started between the rounds (--setup-only), each from its start to
the point where it could send its first timed request.  With --trace 1 it
does half as many rounds and runs each request twice, untraced and with each
module's public functions wrapped (tracer.py), and reports per-layer self
times and counters per round.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The line before it holds
the details behind the metrics: sample counts, the bases of every ratio and
sha256 digests of the inputs and of all output bytes.  The per-request
digests go to .perfbench/digests-<workload>-<seed>-trace<0|1>.json.
"""

import argparse
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9  # fresh processes whose set-up time is timed, spread over the run


def import_program() -> SimpleNamespace:
    """Import chordcycles from this checkout's src/, refusing any other copy."""
    package = SRC / "chordcycles"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no chordcycles sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chordcycles
    from chordcycles import cli, minors, oracle

    if Path(chordcycles.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported chordcycles from {chordcycles.__file__}")
    return SimpleNamespace(Graph=chordcycles.Graph, cli=cli, minors=minors, oracle=oracle)


@dataclass
class Outcome:
    code: int | None
    seconds: float
    data: bytes
    digest: str
    error: str | None


def execute(cc, req: workloads.Request) -> Outcome:
    """Run one request and time it; output bytes are read after the clock stops."""
    if req.out is not None and req.out.exists():
        req.out.unlink()
    out, err = io.StringIO(), io.StringIO()
    data, error = b"", None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if req.call is not None:
                data, code = req.call(), 0
            else:
                code = cc.cli.main(req.argv)
    except Exception:
        code, error = None, "exception escaped: " + traceback.format_exc()
    seconds = time.perf_counter() - start
    if req.out is not None and req.out.exists():
        data = req.out.read_bytes()
    stdout, stderr = out.getvalue(), err.getvalue()
    if error is None and "Traceback" in stderr + stdout:
        error = "traceback in output: " + stderr[-500:]
    if error is None and code not in req.expect:
        error = f"exit {code}, expected {req.expect}: {(stderr or stdout)[-300:]!r}"
    h = hashlib.sha256(f"{code}\0".encode())
    for part in (data, stdout.encode(), stderr.encode()):
        h.update(hashlib.sha256(part).digest())
    return Outcome(code, seconds, data, h.hexdigest(), error)


class Tally:
    """Outcomes, output digests and failures of one run of a round's requests."""

    def __init__(self, requests):
        self.requests = requests
        n = len(requests)
        self.seconds = [None] * n  # None: not run, its emitting request did not exit 0
        self.code = [None] * n
        self.digest = [None] * n
        self.size = [0] * n
        self.data = [b""] * n  # library results, kept for their checks
        self.messages: dict[int, str] = {}
        self.wall = 0.0

    @property
    def ran(self) -> list[int]:
        return [i for i, s in enumerate(self.seconds) if s is not None]

    @property
    def attempted(self) -> int:
        return len(self.ran)

    @property
    def failed(self) -> int:
        return len(self.messages)

    def record(self, i, outcome: Outcome):
        self.seconds[i] = outcome.seconds
        self.code[i] = outcome.code
        self.digest[i] = outcome.digest
        self.size[i] = len(outcome.data)
        if self.requests[i].call is not None:
            self.data[i] = outcome.data
        if outcome.error is not None:
            self.messages[i] = outcome.error

    def step(self, cc, i):
        req = self.requests[i]
        if req.after is not None and self.code[req.after] != 0:
            return  # nothing to re-verify; the emitting request was counted
        self.record(i, execute(cc, req))

    def run(self, cc):
        """Issue every request once, in order; `wall` is the time taken."""
        start = time.perf_counter()
        for i in range(len(self.requests)):
            self.step(cc, i)
        self.wall = time.perf_counter() - start

    def apply_checks(self):
        """Check every output after the clock stopped."""
        for i in self.ran:
            req = self.requests[i]
            if req.check is None or i in self.messages:
                continue
            data = self.data[i] if req.call is not None else req.out.read_bytes()
            message = req.check(self.code[i], data)
            if message is not None:
                self.messages[i] = message

    def same_outputs_as(self, other: "Tally"):
        """A rerun of the same inputs must give the same bytes."""
        for i in self.ran:
            if i not in self.messages and self.digest[i] != other.digest[i]:
                self.messages[i] = "output bytes differ between the untraced and traced run"

    def failure_lines(self):
        return [f"{self.requests[i].label}: {m}" for i, m in sorted(self.messages.items())]


def run_paired(cc, plain: Tally, traced: Tally, tr: tracer.Tracer, first_id: int, r: int):
    """Run each request untraced and traced, back to back.

    Which of the two goes first alternates every two requests (mostly an
    emit and its certify) and from round to round, so that neither run is
    always the one on the warmer heap.  `wall` is then each run's summed request time.
    """
    for i in range(len(plain.requests)):
        for tally in (plain, traced) if (i // 2 + r) % 2 == 0 else (traced, plain):
            if tally is plain:
                plain.step(cc, i)
                continue
            tr.request = first_id + i
            tr.install()
            try:
                traced.step(cc, i)
            finally:
                tr.uninstall()
    for tally in (plain, traced):
        tally.wall = sum(tally.seconds[i] for i in tally.ran)


def prepare(cc, name: str, seed: int, workdir: Path):
    """Build and write round 0's inputs, then warm up: what happens between
    importing the program and the first timed request."""
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "warm").mkdir(parents=True)
    (workdir / "r0").mkdir()
    wl = workloads.build(name, seed, 0, workdir / "r0", cc)
    warm = Tally(workloads.build_warmup(workdir / "warm", cc))
    warm.run(cc)
    return wl, warm


def setup_seconds(name: str, seed: int) -> tuple[float, str]:
    """Start a fresh process that sets up as this one did; return the time
    from its start until it is ready, and the digest of its inputs."""
    start = time.time()  # the wall clock, which the child process shares
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, check=True,
    ).stdout
    ready, digest = json.loads(out.splitlines()[-1])
    return ready - start, digest


def setup_only(name: str, seed: int) -> int:
    cc = import_program()
    wl, _ = prepare(cc, name, seed, WORK / name / "setup")
    ready = time.time()
    print(json.dumps([ready, wl.inputs_sha256()]))
    shutil.rmtree(WORK / name / "setup", ignore_errors=True)
    return 0


def build_round(cc, name, seed, r):
    workdir = WORK / name / f"r{r}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.build(name, seed, r, workdir, cc)


def tail(values):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond).  With fewer than eleven samples no
    percentile has ten beyond it, and the 90th percentile, interpolated
    between the two samples around it, stands in for the tail: it varies
    less from run to run than the maximum does."""
    xs = sorted(values)
    if len(xs) <= 10:
        value = statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]
        return value, 90.0, sum(x > value for x in xs)
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10


def end_to_end(tallies, setup_s):
    pairs = [(t.requests[i], t, i) for t in tallies for i in t.ran]
    primary = [t.seconds[i] for req, t, i in pairs if not req.certify]
    certify = [t.seconds[i] for req, t, i in pairs if req.certify]
    searches = [t.code[i] for req, t, i in pairs if req.search]
    found = searches.count(0)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    wall = sum(t.wall for t in tallies)
    tail_value, tail_pct, tail_beyond = tail(primary)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (attempted / wall, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(primary), "ms"),
        "latency_tail_ms": (1000 * tail_value, "ms"),
        "certify_p50_ms": (1000 * statistics.median(certify) if certify else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "artifact_bytes": (
            sum(t.size[i] for req, t, i in pairs if req.artifact and t.code[i] == 0)
            / len(tallies), "bytes"
        ),
        "ok_ratio": (1 - failed / attempted, "ratio"),
        "found_ratio": (found / len(searches) if searches else 1.0, "ratio"),
    }
    detail = {
        "timed_wall_s": wall,
        "latency_samples": len(primary),
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples_beyond": tail_beyond,
        "certify_samples": len(certify),
        "not_found_ratio": {
            "value": (len(searches) - found) / len(searches) if searches else 0.0,
            "exit_2": len(searches) - found, "search_requests": len(searches),
        },
    }
    return metrics, detail


def per_layer(tr: tracer.Tracer, requests, traced, untraced):
    rounds = len(traced)
    agg = tr.aggregate()

    def self_s(name):
        return agg[name].self_time / rounds

    def calls(name):
        return agg[name].calls / rounds

    def outcomes(names, label):
        return sum(agg[n].outcomes[label] for n in names) / rounds

    builders = ("minors.k4", "minors.k5", "minors.k6", "minors.kll")
    names = [span.name for span in tr.spans]
    paired = sum(
        1 for span in tr.spans
        if span.name == "graph.contract_edges" and span.parent >= 0
        and names[span.parent] == "contraction.half"
    )
    halves = agg["contraction.half"].calls
    audit = agg["lollipop.audit"].inclusive
    base = sum(
        span.end - span.start for span in tr.spans
        if (span.name == "lollipop.find" and not requests[span.request].certify)
        or (span.name == "cli.main" and requests[span.request].certify)
    )
    total_self = sum(a.self_time for a in agg.values())
    request_wall = sum(t.seconds[i] for t in traced for i in t.ran)
    traced_wall = sum(t.wall for t in traced)
    untraced_wall = sum(t.wall for t in untraced)
    S, C, R = "s/round", "count/round", "ratio"
    metrics = {
        "graph.parse_s": (self_s("graph.parse"), S),
        "graph.contract_edges_s": (self_s("graph.contract_edges"), S),
        "graph.contract_edges_calls": (calls("graph.contract_edges"), C),
        "lollipop.closure_s": (self_s("lollipop.closure"), S),
        "lollipop.closure_calls": (calls("lollipop.closure"), C),
        "lollipop.audit_s": (self_s("lollipop.audit"), S),
        "lollipop.audit_calls": (calls("lollipop.audit"), C),
        "lollipop.audit_share": (audit / base if base else 0.0, R),
        "lollipop.find_self_s": (self_s("lollipop.find"), S),
        "lollipop.improvements": (outcomes(["lollipop.closure"], "Improvement"), C),
        "contraction.passive_s": (self_s("contraction.passive"), S),
        "contraction.half_s": (self_s("contraction.half"), S),
        "contraction.choose_s": (self_s("contraction.choose"), S),
        "contraction.pairings_tried": (paired / halves if halves else 0.0, R),
        "minors.k4_s": (self_s("minors.k4"), S),
        "minors.k5_s": (self_s("minors.k5"), S),
        "minors.k6_s": (self_s("minors.k6"), S),
        "minors.kll_s": (self_s("minors.kll"), S),
        "minors.grid_s": (self_s("minors.grid"), S),
        "minors.grid_calls": (calls("minors.grid"), C),
        "minors.grid_inexact": (outcomes(["minors.grid"], "inexact"), C),
        "minors.verify_s": (self_s("minors.verify"), S),
        "minors.found": (outcomes(builders, "CyclicMinorModel"), C),
        "minors.attempted": (sum(calls(n) for n in builders), C),
        "oracle.minor_search_s": (self_s("oracle.minor_search"), S),
        "oracle.minor_search_calls": (calls("oracle.minor_search"), C),
        "oracle.ham_enum_calls": (calls("oracle.ham_enum"), C),
        "oracle.ham_enum_s": (self_s("oracle.ham_enum"), S),
        "oracle.max_chords_s": (self_s("oracle.max_chords"), S),
        "oracle.first_ham_calls": (calls("oracle.first_ham"), C),
        "oracle.refuted": (outcomes(["oracle.minor_search"], "none"), C),
        "oracle.found": (outcomes(["oracle.minor_search"], "CyclicMinorWitness"), C),
        "cli.self_s": (self_s("cli.main"), S),
        "cli.requests": (calls("cli.main"), C),
        **{
            f"{layer}.self_s": (
                sum(a.self_time for n, a in agg.items() if n.split(".")[0] == layer) / rounds, S
            )
            for layer in tracer.LAYERS if layer != "cli"
        },
        "trace.overhead_ratio": (traced_wall / untraced_wall, R),
        "trace.residual_share": ((request_wall - total_self) / request_wall, R),
    }
    detail = {
        "spans": len(tr.spans),
        "audit_share_base_s_per_round": base / rounds,
        "audit_inclusive_s_per_round": audit / rounds,
        "request_wall_s_per_round": request_wall / rounds,
        "layer_self_sum_s_per_round": total_self / rounds,
        "untraced_throughput_per_s": sum(t.attempted for t in untraced) / untraced_wall,
        "traced_throughput_per_s": sum(t.attempted for t in traced) / traced_wall,
        "half_contractions_per_round": halves / rounds,
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        return setup_only(args.workload, args.seed)

    cc = import_program()
    wl, warm = prepare(cc, args.workload, args.seed, WORK / args.workload)
    warm.apply_checks()

    rounds = max(1, math.ceil(args.seconds / workloads.ROUND_SECONDS[args.workload]))
    if args.trace:
        rounds = max(1, rounds // 2)
    # set-ups timed before each round and after the last; none in a traced run
    setups = [] if args.trace else [
        SETUP_RUNS * (g + 1) // (rounds + 1) - SETUP_RUNS * g // (rounds + 1)
        for g in range(rounds + 1)
    ]
    setup_runs = []
    tr = tracer.Tracer()
    all_requests, inputs, tallies, untraced = [], [], [], []
    for r in range(rounds):
        if r:
            wl = build_round(cc, args.workload, args.seed, r)
        inputs.append(wl.inputs_sha256())
        if setups:
            setup_runs += [setup_seconds(args.workload, args.seed) for _ in range(setups[r])]
        tally = Tally(wl.requests)
        if args.trace:
            plain = Tally(wl.requests)
            run_paired(cc, plain, tally, tr, len(all_requests), r)
            tally.same_outputs_as(plain)
            untraced.append(plain)
        else:
            tally.run(cc)
        tally.apply_checks()
        for req in wl.requests:  # release the round's graphs before the next round
            req.call = req.check = None
        tallies.append(tally)
        all_requests += wl.requests
        shutil.rmtree(WORK / args.workload / f"r{r}", ignore_errors=True)

    if setups:
        setup_runs += [setup_seconds(args.workload, args.seed) for _ in range(setups[-1])]
    inputs_stable = all(digest == inputs[0] for _, digest in setup_runs)
    if args.trace:
        metrics, detail = per_layer(tr, all_requests, tallies, untraced)
    else:
        metrics, detail = end_to_end(tallies, statistics.median(t for t, _ in setup_runs))

    attempted = sum(t.attempted for t in tallies + untraced) + warm.attempted
    failed = sum(t.failed for t in tallies + untraced) + warm.failed
    digests = [
        {"request": t.requests[i].label, "exit": t.code[i], "sha256": t.digest[i]}
        for t in tallies for i in t.ran
    ]
    inputs_sha256 = hashlib.sha256("".join(inputs).encode()).hexdigest()
    report = WORK / f"digests-{args.workload}-{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"inputs_sha256": inputs_sha256, "requests": digests}, indent=1))
    shutil.rmtree(WORK / args.workload, ignore_errors=True)

    failures = [line for t in tallies + untraced + [warm] for line in t.failure_lines()]
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace, rounds=len(tallies),
        setup_runs_s=[t for t, _ in setup_runs],
        failed_ratio={"value": failed / attempted, "failed": failed, "attempted": attempted},
        inputs_sha256=inputs_sha256, inputs_stable=inputs_stable,
        outputs_sha256=hashlib.sha256(json.dumps(digests).encode()).hexdigest(),
        digests_file=str(report.relative_to(ROOT)), failures=failures[:10],
    )
    for line in failures:
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and inputs_stable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
