"""Rewrite the CLI conformance corpus: the graph files and expected.json.

Run from the repository root with the package importable:

    PYTHONPATH=src python tests/corpus/regenerate.py

Every case is run in-process through netosc.cli.run, exactly as
tests/test_corpus.py replays it; expected.json keeps its argv, exit code,
stdout and stderr.  A recorded case whose run still passes the replay's
comparison keeps its recording byte for byte, so BLAS rounding inside the
tolerance moves nothing; only a case that fails it, or a new case, is
rewritten.  A change that regenerates the corpus lists each changed key in
CHANGES.md.
"""

import json
import os
import sys
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TESTS))

from conftest import (  # noqa: E402
    k3,
    path5,
    random_detailed_balance_graph,
    random_digraph,
    ring3,
    star4,
    to_edge_list,
)
from test_corpus import CORPUS, compare_case, load_cases, run_case  # noqa: E402

GOOD = {
    "ring3": to_edge_list(ring3()),
    "path5": to_edge_list(path5()),
    "star4": to_edge_list(star4()),
    "k3": to_edge_list(k3()),
    "oneway12": to_edge_list(random_digraph(np.random.default_rng(12), 12)),
    "balanced12": to_edge_list(random_detailed_balance_graph(np.random.default_rng(12), 12)),
}
BAD = {
    "empty": b"",
    "selfloop": b"a,b\nb,a\nb,b\n",
    "notutf8": b"a,b,1\n\xff\xfe,a,1\n",
    "sink": b"a,b\nb,a\nb,c\n",
    "infweight": b"a,b,1\nb,a,inf\n",
}
COMMANDS = [
    "info", "check", "decompose", "spectrum", "sqrt", "simulate",
    "fundamental", "product-form", "doubled", "centrality", "flaming", "verify",
]
STEPPED = ["simulate", "fundamental", "product-form", "doubled", "verify"]
CSV = ["simulate", "fundamental", "product-form", "doubled"]


def path(name):
    return f"graphs/{name}.csv"


def cases():
    argv = []
    for name in GOOD:                                   # every command on every graph
        argv += [[c, "--input", path(name)] for c in COMMANDS]
    for name in ("ring3", "star4", "oneway12"):
        argv += [[c, "--input", path(name), "--format", "csv", "--t-end", "0.2", "--dt", "0.01"]
                 for c in CSV]
    argv += [[c, "--input", path("path5"), "--format", "csv", "--t-end", "0"] for c in CSV]
    for name in ("ring3", "star4", "oneway12"):
        argv.append(["sqrt", "--input", path(name), "--dump-operators"])
    for name in ("ring3", "balanced12"):
        argv += [[c, "--input", path(name), "--sign", "-", "--t-end", "2"]
                 for c in ("fundamental", "product-form")]
        argv.append(["product-form", "--input", path(name), "--sign", "-", "--format", "csv",
                     "--t-end", "0.1", "--dt", "0.01"])
    argv += [
        ["verify", "--input", path("oneway12"), path("balanced12")],
        ["verify", "--input", path("ring3"), path("k3"), "--seed", "7", "--t-end", "1"],
        ["verify", "--input", path("ring3"), path("sink")],
        ["simulate", "--input", path("star4"), "--x0", "0,1,0,0", "--v0", "1,0,0,-1"],
        ["doubled", "--input", path("star4"), "--x0", "0,1,0,0", "--v0", "1,0,0,-1"],
        ["fundamental", "--input", path("ring3"), "--psi0", "0,1,0", "--t-end", "1"],
    ]
    for grid in (["--t-end", "0"], ["--t-end", "0.002"]):
        for name in ("ring3", "balanced12"):
            argv += [[c, "--input", path(name)] + grid for c in STEPPED]
    ring3_long = ["--input", path("ring3"), "--t-end", "3000", "--dt", "1e-2"]
    argv += [[c] + ring3_long for c in STEPPED]
    argv += [
        ["simulate", "--input", path("ring3"), "--format", "csv", "--t-end", "3000", "--dt", "0.1"],
        ["doubled", "--input", path("ring3"), "--t-end", "84.57", "--dt", "1e-2"],
    ]
    for name in BAD:
        argv += [[c, "--input", path(name)] for c in ("info", "check", "simulate", "doubled", "verify")]
    argv += [
        ["spectrum", "--input", path("sink")],
        ["flaming", "--input", path("sink")],
        ["centrality", "--input", path("oneway12")],
        ["info", "--input", "graphs/missing.csv"],
        ["info", "--input", "graphs"],
        [],
        ["bogus"],
        ["info"],
        ["simulate", "--input", path("ring3"), "--dt", "0"],
        ["simulate", "--input", path("ring3"), "--t-end", "-1"],
        ["simulate", "--input", path("ring3"), "--t-end", "1e5"],
        ["simulate", "--input", path("ring3"), "--x0", "1,nan,0"],
        ["simulate", "--input", path("ring3"), "--format", "xml"],
        ["info", "--input", path("ring3"), "--format", "csv"],
        ["fundamental", "--input", path("ring3"), "--sign", "x"],
        ["verify", "--input", path("ring3"), "--seed", "-1"],
        ["simulate", "--input", path("ring3"), "--x0", "1,0"],
    ]
    return argv


def main():
    graphs = CORPUS / "graphs"
    graphs.mkdir(exist_ok=True)
    for name, text in GOOD.items():
        (graphs / f"{name}.csv").write_text(text, encoding="utf-8")
    for name, data in BAD.items():
        (graphs / f"{name}.csv").write_bytes(data)
    os.environ["COLUMNS"] = "80"
    old = {}
    if (CORPUS / "expected.json").exists():
        old = {tuple(case["argv"]): case for case in load_cases()}
    recorded, rewritten = [], 0
    for argv in cases():
        code, out, err = run_case(argv)
        case = old.get(tuple(argv))
        if case is None or compare_case(case, code, out, err):
            case = {"argv": argv, "exit": code, "stdout": out, "stderr": err}
            rewritten += 1
        recorded.append(case)
    text = json.dumps(recorded, indent=1, ensure_ascii=False) + "\n"
    (CORPUS / "expected.json").write_text(text, encoding="utf-8")
    print(f"{len(recorded)} cases, {rewritten} rewritten, {len(text)} bytes")


if __name__ == "__main__":
    main()
