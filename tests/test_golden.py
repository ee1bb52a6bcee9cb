"""Golden digests of CLI output: an invocation must keep giving the same bytes.

`tests/golden.json` maps each invocation below to the sha256 of its exit
code, stdout, stderr and the bytes it wrote to `--out`.  The test replays
the list in process through `cli.main`, in a fresh directory, with
`LOLLIPOP_GUARD_N` unset.  Every invocation that writes a JSON artifact to
`--out` and exits 0 is followed by a `certify --input` of that file, which
has its own digest.

The file changes only when output is meant to change.  Regenerate it with

    PYTHONPATH=src python tests/test_golden.py --write

and name the digests that moved, and why, in CHANGES.md.  Without `--write`
the script lists the invocations whose digest differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from chordcycles import cli

GOLDEN = Path(__file__).with_name("golden.json")

# input files the invocations read, written into the replay directory first
FILES = {
    "triangle.txt": b"0 1\n1 2\n2 0\n",
    "triangle.json": b'{"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}',
    "bad.json": b"{bad",
    "minor-without-graph.json": b'{"schema":"1","kind":"cyclic_minor"}',
    "contraction-without-graph.json": b'{"schema":"1","kind":"contraction"}',
    "string-n.json": b'{"kind":"dense_cycle","graph":{"n":"3","edges":[]}}',
    "not-utf8.txt": b"0 1\n\xff\xfe 2\n",
    "minor-cycle-out-of-range.json": (
        b'{"kind":"cyclic_minor","graph":{"n":3,"edges":[[0,1],[1,2],[0,2]]},'
        b'"host_cycle":[7,0,1,2],"arcs":[[7,0],[1],[2]],"target":"K3",'
        b'"target_graph":{"n":3,"edges":[[0,1],[1,2],[0,2]]},"target_cycle":[0,1,2]}'
    ),
}

# (host arguments, pipeline degree k)
HOSTS = (
    (["--family", "petersen"], 3),
    (["--family", "complete", "--params", "n=6"], 5),
    (["--family", "icosahedron"], 5),
    (["--family", "cycle", "--params", "n=8"], 2),
    (["--family", "complete_bipartite", "--params", "a=4,b=4"], 4),
    (["--family", "random_regular", "--params", "n=30,d=4", "--seed", "2"], 4),
    (["--family", "random_min_degree", "--params", "n=40,min_degree=5", "--seed", "3"], 5),
    (["--family", "random_min_degree", "--params", "n=200,min_degree=8", "--seed", "0"], 8),
    (["--input", "triangle.txt"], 2),
    (["--input", "triangle.json"], 2),
)

TARGETS = ("K3", "K4", "K5", "K6", "Kll:1", "Kll:2", "Kll:3", "Kll:4")


def sparse_host(n, seed):
    return ["--family", "random_min_degree", "--params", f"n={n},min_degree=3,avg=3",
            "--seed", str(seed)]


def json_out(argv):
    """`argv` writing JSON to a file named after the invocation."""
    name = re.sub(r"[^A-Za-z0-9]+", "-", " ".join(argv)).strip("-")
    return [*argv, "--format", "json", "--out", f"{name}.json"]


def every_format(argv):
    return [[*argv], [*argv, "--format", "dot"], json_out(argv)]


def invocations():
    calls = [
        # README
        ["generate", "--family", "petersen", "--format", "dot"],
        ["analyze", "--family", "icosahedron"],
        ["dense-cycle", "--family", "complete", "--params", "n=6", "--k", "5", "--format", "json"],
        ["contract", "--family", "petersen", "--k", "3"],
        ["clique-minor", "--family", "complete", "--params", "n=12", "--target", "K6"],
        ["active-paths", "--family", "complete", "--params", "n=6", "--full"],
        ["certify", "--family", "icosahedron", "--target", "K5", "--oracle"],
        ["experiment", "--k", "3", "--seed", "7", "--params", "count=50,n_max=48"],
        ["dense-cycle", "--family", "petersen", "--k", "3", "--format", "json", "--out", "cert.json"],
    ]
    # every command in every format
    for host, k in HOSTS:
        calls += every_format(["generate", *host])
        calls += every_format(["analyze", *host])
        calls += every_format(["dense-cycle", *host, "--k", str(k)])
        calls += every_format(["contract", *host, "--k", str(k)])
        calls += every_format(["clique-minor", *host, "--target", "K4"])
        calls += every_format(["certify", *host, "--target", "K4"])
        calls += [["active-paths", *host, "--k", str(k)], json_out(["active-paths", *host, "--k", str(k)])]
    for host in (["--family", "complete", "--params", "n=6"], ["--family", "petersen"]):
        calls += [json_out(["active-paths", *host, "--full"])]
        calls += every_format(["certify", *host, "--target", "K4", "--oracle"])
    calls += [
        ["certify", "--family", "cycle", "--params", "n=4", "--target", "K4", "--oracle"],
        ["clique-minor", "--family", "complete", "--params", "n=6", "--target", "K4", "--oracle"],
    ]
    for k in range(2, 9):
        calls += [["experiment", "--k", str(k), "--seed", "1", "--params", "count=4,n_max=30"]]
    calls += [json_out(["experiment", "--k", "4", "--seed", "2", "--params", "count=3,n_max=20"])]
    # cyclic minors of the dense quotients, not-founds included
    for seed in range(8):
        for target in TARGETS:
            argv = ["clique-minor", "--family", "random_min_degree",
                    "--params", "n=200,min_degree=8", "--seed", str(seed), "--target", target]
            calls += [argv, json_out(argv)]
    # X1 pattern hosts: successor pairing, floor-only pairing, and the two
    # pinned hosts where no pattern reaches the floor
    for n, seed in ((5, 979961074), (5, 406059994), (12, 45718506), (27, 408633196)):
        calls += [["contract", *sparse_host(n, seed), "--k", "3"],
                  json_out(["contract", *sparse_host(n, seed), "--k", "3"]),
                  ["clique-minor", *sparse_host(n, seed), "--target", "K4"]]
    # one-line errors, exit-2 not-founds and usage errors
    for name in FILES:
        if name not in ("triangle.txt", "triangle.json"):
            calls += [["certify", "--input", name], ["analyze", "--input", name]]
    calls += [
        ["certify", "--input", "missing.json"],
        ["generate", "--family", "complete", "--params", "n=4.9"],
        ["experiment", "--params", "count=2.5"],
        ["experiment", "--params", "count=abc"],
        ["experiment", "--params", "count=-1"],
        ["experiment", "--k", "3", "--params", "n_max=3"],
        ["generate", "--family", "random_regular", "--params", "n=9,d=3", "--seed", "1"],
        ["experiment", "--k", "0"],
        ["experiment", "--k", "1", "--params", "count=2"],
        ["generate", "--family", "random_min_degree", "--params", "n=10,min_degree=3,avg=-5",
         "--seed", "1"],
        ["generate", "--family", "complete", "--params", "n"],
        ["generate", "--family", "nosuch"],
        ["generate"],
        ["dense-cycle", "--family", "petersen"],
        ["nosuch"],
        ["clique-minor", "--family", "petersen", "--target", "K9"],
        ["clique-minor", "--family", "icosahedron", "--target", "K5"],
        ["clique-minor", "--family", "icosahedron", "--target", "K5", "--k", "8"],
        ["clique-minor", "--family", "petersen", "--target", "Kll:4"],
        ["certify", "--family", "petersen"],
    ]
    return [list(argv) for argv in dict.fromkeys(map(tuple, calls))]  # the README repeats some


def digest(code: int, out: str, err: str, written: bytes | None) -> str:
    h = hashlib.sha256()
    for part in (str(code).encode(), out.encode(), err.encode(), written):
        if part is None:
            h.update(b"-")
        else:
            h.update(b"%d:" % len(part))
            h.update(part)
    return h.hexdigest()


def run(argv) -> tuple[str, bool]:
    """The digest of one invocation, and whether it wrote a JSON artifact."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    written = path.read_bytes() if path is not None and path.exists() else None
    artifact = code == 0 and written is not None and "json" in argv
    return digest(code, out.getvalue(), err.getvalue(), written), artifact


def replay(workdir) -> dict:
    """Digest of every invocation, in order, run inside `workdir`."""
    saved = {key: os.environ.pop(key, None) for key in ("LOLLIPOP_GUARD_N", "COLUMNS")}
    os.environ["COLUMNS"] = "80"  # argparse wraps usage lines to this width
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, data in FILES.items():
            Path(name).write_bytes(data)
        digests = {}
        for argv in invocations():
            digests[" ".join(argv)], artifact = run(argv)
            if artifact:
                certify = ["certify", "--input", argv[argv.index("--out") + 1]]
                digests[" ".join(certify)], _ = run(certify)
        return digests
    finally:
        os.chdir(cwd)
        for key, value in saved.items():
            os.environ.pop(key, None)
            if value is not None:
                os.environ[key] = value


def test_cli_output_matches_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    digests = replay(tmp_path)
    assert list(digests) == list(golden), "the invocation list differs from golden.json"
    changed = [key for key in golden if digests[key] != golden[key]]
    assert not changed, f"{len(changed)} invocations changed output, first: {changed[:5]}"


def main(argv) -> int:
    if argv not in ([], ["--write"]):
        print("usage: test_golden.py [--write]", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        digests = replay(tmp)
    if argv:
        GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
        print(f"wrote {len(digests)} digests to {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    changed = [key for key in digests if golden.get(key) != digests[key]]
    changed += [key for key in golden if key not in digests]
    for key in changed:
        print(key)
    print(f"{len(changed)} of {len(digests)} invocations differ from {GOLDEN.name}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
