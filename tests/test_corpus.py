"""The CLI conformance corpus: every recorded run of tests/corpus/expected.json again.

Exit codes, stderr and every non-float field must match exactly.  Floats may move
in their last digits (BLAS rounding, the order of a product): each must stay
within FLOAT_TOL of the largest magnitude in its own JSON array (all numbers
nested in the array a key holds) or CSV row; a float outside any array, within
FLOAT_TOL of itself.  The residual keys report rounding-level values, so each
must stay under its acceptance bound and within RESIDUAL_BAND of the recorded
value (or of eps, for a recorded 0).  tests/corpus/regenerate.py rewrites the corpus from the current tree.
"""

import contextlib
import io
import json
import os
import sys
import warnings
from pathlib import Path

from netosc.cli import run

CORPUS = Path(__file__).parent / "corpus"
FLOAT_TOL = 1e-9
RESIDUAL_BAND = 10.0
RESIDUAL_FLOOR = sys.float_info.epsilon  # a recorded 0 allows rounding up to RESIDUAL_BAND eps
RESIDUAL_BOUNDS = {  # the acceptance bounds, as perfbench/workloads.py checks them
    "omega_residual": 1e-8,
    "h_residual": 1e-7,
    "eq19_residual": 1e-12,
    "eq26_residual": 1e-10,
    "theorem1_gap": 1e-5,
    "sup_gap_vs_direct": 1e-5,
    "second_order_residual": 1e-5,
    "eq22_residual": 1e-5,
}


def run_case(argv):
    """(exit code, stdout, stderr) of one CLI run inside the corpus directory;
    usage errors leave through SystemExit.  A RuntimeWarning is an error."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(CORPUS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    code = run(argv)
                except SystemExit as exc:
                    code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _leaves(value):
    """The leaves of a JSON array nested through arrays only, or None if it holds an object."""
    if isinstance(value, dict):
        return None
    if not isinstance(value, list):
        return [value]
    leaves = []
    for item in value:
        sub = _leaves(item)
        if sub is None:
            return None
        leaves += sub
    return leaves


def _same_leaves(got, want, scale, where):
    if len(got) != len(want):
        return [f"{where}: {len(got)} values, recorded {len(want)}"]
    for k, (a, b) in enumerate(zip(got, want)):
        if isinstance(b, float) and isinstance(a, float):
            if not abs(a - b) <= FLOAT_TOL * scale:
                return [f"{where}[{k}]: {a!r}, recorded {b!r}"]
        elif type(a) is not type(b) or a != b:
            return [f"{where}[{k}]: {a!r}, recorded {b!r}"]
    return []


def _scale(leaves):
    return max([abs(x) for x in leaves if isinstance(x, float)], default=0.0)


def compare_json(got, want, where="$"):
    """Mismatches of a JSON value against its recording, as messages."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"]
        out = []
        for key in want:
            if key in RESIDUAL_BOUNDS:
                out += _compare_residual(got[key], want[key], f"{where}.{key}")
            else:
                out += compare_json(got[key], want[key], f"{where}.{key}")
        return out
    want_leaves = _leaves(want)
    if isinstance(want, list) and want_leaves is None:
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: not a list of {len(want)}"]
        return [m for k, (a, b) in enumerate(zip(got, want)) for m in compare_json(a, b, f"{where}[{k}]")]
    got_leaves = _leaves(got)
    if got_leaves is None:
        return [f"{where}: {got!r}, recorded {want!r}"]
    return _same_leaves(got_leaves, want_leaves, _scale(want_leaves + got_leaves), where)


def _compare_residual(got, want, where):
    bound = RESIDUAL_BOUNDS[where.rsplit(".", 1)[1]]
    if not (isinstance(got, float) and 0 <= got <= bound):
        return [f"{where}: {got!r} over its bound {bound}"]
    if not want / RESIDUAL_BAND <= got <= max(want, RESIDUAL_FLOOR) * RESIDUAL_BAND:
        return [f"{where}: {got!r}, more than {RESIDUAL_BAND}x from the recorded {want!r}"]
    return []


def compare_csv(got, want):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return [f"csv: {len(got_lines)} lines, recorded {len(want_lines)}"]
    if got_lines[:1] != want_lines[:1]:
        return ["csv: header differs"]
    out = []
    for k, (a, b) in enumerate(zip(got_lines[1:], want_lines[1:]), start=1):
        a, b = [float(x) for x in a.split(",")], [float(x) for x in b.split(",")]
        out += _same_leaves(a, b, _scale(a + b), f"csv line {k}")
        if out:
            break
    return out


def compare_case(case, code, out, err):
    """Mismatches of one run against its recorded case."""
    if code != case["exit"] or err != case["stderr"]:
        return [f"exit {code} and stderr {err!r}, recorded {case['exit']} and {case['stderr']!r}"]
    want = case["stdout"]
    if not want or not out:
        return [] if out == want else [f"stdout {out[:80]!r}, recorded {want[:80]!r}"]
    if not want.startswith(("{", "[")):
        return compare_csv(out, want)
    if not out.endswith("\n"):
        return ["stdout does not end in a newline"]
    return compare_json(json.loads(out), json.loads(want))


def load_cases():
    return json.loads((CORPUS / "expected.json").read_text(encoding="utf-8"))


def test_cli_output_matches_the_corpus(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")          # argparse wraps usage lines to the terminal
    failures = []
    for case in load_cases():
        code, out, err = run_case(case["argv"])
        failures += [f"{' '.join(case['argv'])}: {m}" for m in compare_case(case, code, out, err)]
    assert not failures, "\n".join(failures)


def test_corpus_comparison_rejects_a_digit_above_the_tolerance():
    report = {"final_state": [[1.0, 0.25], [2e-17, 0.0]], "theorem1_gap": 1e-10, "n": 3}
    assert compare_json(report, report) == []
    moved = json.loads(json.dumps(report))
    moved["final_state"][1][0] = 3e-12              # rounding of an entry near 0: passes
    moved["theorem1_gap"] = 5e-10                   # within the residual band
    assert compare_json(moved, report) == []
    moved["final_state"][0][1] = 0.25 * (1 + 1e-8)  # one digit above the tolerance
    moved["theorem1_gap"] = 2e-9                    # outside the residual band
    moved["n"] = 3.0                                # an integer field turned float
    assert len(compare_json(moved, report)) == 3
    row = "t,node0_re,node0_im\n0,1,0\n0.01,0.5,1e-20\n"
    assert compare_csv(row.replace("1e-20", "2e-12"), row) == []
    assert compare_csv(row.replace("0.5", "0.5000001"), row) != []
