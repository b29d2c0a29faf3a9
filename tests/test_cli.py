import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import netosc
from netosc import (
    _blas,
    build_matrices,
    dynamics,
    decompose_laplacian,
    flaming_indicator,
    from_edges,
    load_edge_list,
    spectral_decomposition,
    sqrt_ops,
)
from netosc.cli import COMMANDS, build_parser, run, verify_graph
from netosc.errors import GridMismatch, NumericalFailure
from netosc.reporting import canonical_json
from netosc.symmetry import symmetrized_eigenvalues

from conftest import (
    path3,
    random_detailed_balance_graph,
    random_digraph,
    random_symmetric_graph,
    recurrence_bound,
    ring3,
    square_bytes,
    star4,
    sym2,
    symmetrized_form,
    theorem1_bound,
    to_edge_list,
    traced_peak,
)


@pytest.fixture
def graph_file(tmp_path):
    def write(g, name="g.csv"):
        p = tmp_path / name
        p.write_text(to_edge_list(g))
        return str(p)

    return write


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_flaming_ring(graph_file, capsys):
    code, report = run_json(capsys, ["flaming", "--input", graph_file(ring3())])
    assert code == 0
    assert abs(report["growth_rate"] - 0.3406) < 1e-3
    assert report["verdict"] == "divergent"


def test_centrality_path(graph_file, capsys):
    code, report = run_json(capsys, ["centrality", "--input", graph_file(path3())])
    assert code == 0
    assert report["per_node"] == [0.5, 1.0, 0.5]


def test_verify_star(graph_file, capsys):
    code, reports = run_json(
        capsys, ["verify", "--input", graph_file(star4()), "--t-end", "3"]
    )
    assert code == 0
    report = reports[0]
    assert report["sparsity_match"] is True
    assert report["eq26_residual"] <= 1e-10
    assert report["theorem1_gap"] <= 1e-5
    assert report["eq22_residual"] <= 1e-5


def test_check_and_decompose(graph_file, capsys):
    path = graph_file(sym2())
    code, report = run_json(capsys, ["check", "--input", path])
    assert code == 0
    assert report["symmetrizable"] is True
    assert report["m"] == [1.0, 1.0]

    code, report = run_json(capsys, ["decompose", "--input", path])
    assert code == 0
    assert report["split"]["LI"] == [[0.0, 0.0], [0.0, 0.0]]


def test_check_one_way(graph_file, capsys):
    code, report = run_json(capsys, ["check", "--input", graph_file(ring3())])
    assert code == 0
    assert report["symmetrizable"] is False
    assert report["violations"][0]["reason"] == "one_way_edge"


def test_sqrt_dump_operators(graph_file, capsys):
    code, report = run_json(
        capsys, ["sqrt", "--input", graph_file(ring3()), "--dump-operators"]
    )
    assert code == 0
    assert report["omega_residual"] <= 1e-8
    H = report["operators"]["H"]
    assert len(H) == 3 and len(H[0]) == 3 and len(H[0][0]) == 2


def test_deterministic_output(graph_file, capsys):
    path = graph_file(star4())
    run(["verify", "--input", path, "--seed", "7", "--t-end", "1"])
    first = capsys.readouterr().out
    run(["verify", "--input", path, "--seed", "7", "--t-end", "1"])
    assert capsys.readouterr().out == first


def test_float_arrays_serialize_as_their_python_floats():
    # canonical_json rounds a float64 array in one pass; the bytes are those of the
    # generic path, which rounds each Python float of arr.tolist()
    values = [-0.0, 0.0, np.nan, np.inf, -np.inf, 1e300, -1e-300, 5e-324, 1 / 3, 2.5e-7, 123456789.123456]
    for arr in (np.array(values), np.array(values[:10]).reshape(2, 5), np.zeros((2, 0, 3))):
        report = {"a": arr, "b": [arr, {"c": arr[::-1]}]}
        generic = {"a": arr.tolist(), "b": [arr.tolist(), {"c": arr[::-1].tolist()}]}
        assert canonical_json(report) == canonical_json(generic)
    assert canonical_json(np.array(values)) == (
        "[-0.0,0.0,NaN,Infinity,-Infinity,1e+300,-1e-300,5e-324,"
        "0.333333333333,2.5e-07,123456789.123]"
    )


def test_simulate_csv(graph_file, capsys):
    code = run(
        ["simulate", "--input", graph_file(sym2()), "--t-end", "0.01", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,node0_re,node0_im,node1_re,node1_im"
    assert len(lines) == 12


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("a,a,1\n")
    code = run(["info", "--input", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err.strip())["error"] == "SelfLoop"


def test_model_violation_exit_code(graph_file, capsys):
    code = run(["centrality", "--input", graph_file(ring3())])
    err = capsys.readouterr().err
    assert code == 4
    assert json.loads(err.strip())["error"] == "NotSymmetrizable"


def test_zero_degree_exit_code(tmp_path, capsys):
    p = tmp_path / "sink.csv"
    p.write_text("1,2,1\n")
    code = run(["doubled", "--input", str(p), "--t-end", "0.1"])
    err = capsys.readouterr().err
    assert code == 4
    assert json.loads(err.strip())["error"] == "ZeroDegreeNode"


def test_missing_file_exit_code(capsys):
    code = run(["info", "--input", "/nonexistent/path.csv"])
    assert code == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["not-a-command"])
    assert exc.value.code == 1


def test_fundamental_and_product_form(graph_file, capsys):
    path = graph_file(ring3())
    code, report = run_json(
        capsys, ["fundamental", "--input", path, "--t-end", "1", "--sign", "+"]
    )
    assert code == 0
    assert report["second_order_residual"] <= 1e-5

    code, report = run_json(
        capsys, ["product-form", "--input", path, "--t-end", "1", "--sign", "-"]
    )
    assert code == 0
    assert report["sup_gap_vs_direct"] <= 1e-5


@pytest.mark.parametrize(("fmt", "runs"), [("csv", 1), ("json", 2)])
def test_product_form_runs_the_direct_solve_only_for_its_gap(graph_file, monkeypatch, fmt, runs):
    calls, propagate = [], dynamics._propagate

    def counting_propagate(*args, **kwargs):
        calls.append(args)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_propagate", counting_propagate)
    argv = ["product-form", "--input", graph_file(ring3()), "--t-end", "1", "--format", fmt]
    assert run_captured(argv)[0] == 0
    assert len(calls) == runs


def test_fundamental_builds_no_node_space_operator(graph_file, capsys, monkeypatch):
    bundles, build_bundle = [], sqrt_ops.build_bundle

    def recording_build_bundle(*args, **kwargs):
        bundles.append(build_bundle(*args, **kwargs))
        return bundles[-1]

    monkeypatch.setattr(sqrt_ops, "build_bundle", recording_build_bundle)
    code, _ = run_json(capsys, ["fundamental", "--input", graph_file(path3()), "--t-end", "1"])
    assert code == 0
    (bundle,) = bundles
    assert not {"H", "H0", "HI", "L"} & set(vars(bundle))
    assert bundle.H.shape == (3, 3) and "H" in vars(bundle)   # derived on first read


def test_doubled_report(graph_file, capsys):
    code, report = run_json(
        capsys, ["doubled", "--input", graph_file(star4()), "--t-end", "1"]
    )
    assert code == 0
    assert report["sparsity_match"] is True
    assert report["theorem1_gap"] <= 1e-5


def test_doubled_branch_sum_is_real(graph_file, capsys):
    code, report = run_json(
        capsys, ["doubled", "--input", graph_file(ring3()), "--v0", "0,1,0.5", "--t-end", "1"]
    )
    assert code == 0
    assert [im for _, im in report["final_branch_sum"]] == [0.0, 0.0, 0.0]


PATH5 = os.path.join(os.path.dirname(__file__), "corpus", "graphs", "path5.csv")


def test_theorem1_gap_is_rounding_past_rk4s_stability_limit(capsys, monkeypatch):
    # dt sqrt(lambda_max) = 2.85 on path5, past RK4's 2 sqrt2: a gap taken against an
    # RK4 wave run read 807.7 (verify) and 460.7 (doubled), both with exit 0
    grid = ["--t-end", "200", "--dt", "1.5"]
    code, report = run_json(capsys, ["doubled", "--input", PATH5, *grid])
    assert code == 0 and report["theorem1_gap"] <= theorem1_bound(5)
    monkeypatch.setattr(dynamics, "_blocks", None)          # verify runs no trajectory
    gaps = []
    for argv in (grid, ["--t-end", "0", "--dt", "1.5", "--seed", "7"]):
        code, reports = run_json(capsys, ["verify", "--input", PATH5, *argv])
        assert code == 0
        gaps.append(reports[0]["theorem1_gap"])
    assert gaps[0] == gaps[1] <= theorem1_bound(5)


def simulate_final_state(capsys, t_end, dt):
    code, report = run_json(capsys, ["simulate", "--input", PATH5, "--t-end", t_end, "--dt", dt])
    assert code == 0 and "diverged_at" not in report
    return np.array(report["final_state"])


def test_simulate_is_the_exact_wave_run(capsys):
    # path5 is stable (lambda_max = 3.62): the exact run from |x0| = 1 stays of order 1
    L = build_matrices(load_edge_list(PATH5))[2]
    G = np.block([[np.zeros((5, 5)), np.eye(5)], [-L, np.zeros((5, 5))]])
    want = (scipy.linalg.expm(200 * G) @ np.eye(10)[0])[:5]
    got = simulate_final_state(capsys, "200", "1.0")
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_simulate_does_not_depend_on_the_step(capsys):
    # dt sqrt(lambda_max) = 2.85 at dt = 1.5 is past RK4's stability limit 2 sqrt2;
    # the exact step holds on any grid
    coarse = simulate_final_state(capsys, "199.5", "1.5")
    fine = simulate_final_state(capsys, "199.5", "1e-3")
    assert np.abs(coarse - fine).max() <= 1e-9 * np.abs(fine).max()


def test_repeated_runs_share_no_parser_state(graph_file, capsys):
    path = graph_file(ring3())
    first = run_json(capsys, ["simulate", "--input", path, "--t-end", "1"])
    run_json(capsys, ["simulate", "--input", path, "--t-end", "2", "--x0", "0,1,0"])
    assert run_json(capsys, ["simulate", "--input", path, "--t-end", "1"]) == first
    assert build_parser() is build_parser()


def test_info_and_spectrum(graph_file, capsys):
    path = graph_file(path3())
    code, report = run_json(capsys, ["info", "--input", path])
    assert code == 0
    assert report["n"] == 3 and report["num_edges"] == 4

    code, report = run_json(capsys, ["spectrum", "--input", path])
    assert code == 0
    assert report["eigenvalues"][0] == pytest.approx(0.0, abs=1e-9)
    assert report["symmetrizable"] is True


def command_report(tmp_path_factory, command, g):
    """One command's report before serialization, and the graph it read."""
    path = tmp_path_factory.getbasetemp() / "command_report.csv"
    path.write_text(to_edge_list(g))
    report = COMMANDS[command](build_parser().parse_args([command, "--input", str(path)]))
    return report, load_edge_list(path)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), balanced=st.booleans())
def test_spectrum_matches_eigh_within_rounding(tmp_path_factory, seed, n, balanced):
    rng = np.random.default_rng(seed)
    g = random_detailed_balance_graph(rng, n) if balanced else random_digraph(rng, n)
    report, g = command_report(tmp_path_factory, "spectrum", g)
    split, sd = spectral_decomposition(g)
    # eigvalsh and eigh take different LAPACK paths; on 300 random graphs with n
    # up to 300 they differed by at most 5.1 eps ||S0||_F
    bound = 16 * np.finfo(float).eps * np.linalg.norm(symmetrized_form(split.L0, split.m))
    assert np.all(np.diff(report["eigenvalues"]) >= 0)
    assert np.abs(report["eigenvalues"] - sd.eigenvalues).max() <= bound


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
def test_flaming_of_a_symmetrizable_graph_matches_the_general_solve(tmp_path_factory, seed, n):
    report, g = command_report(
        tmp_path_factory, "flaming", random_detailed_balance_graph(np.random.default_rng(seed), n)
    )
    L = build_matrices(g)[2]
    general = flaming_indicator(L)
    assert report["growth_rate"] == general.growth_rate == 0.0
    assert report["verdict"] == general.verdict == "stable"
    lam_max = symmetrized_eigenvalues(decompose_laplacian(g))[-1]
    assert report["worst_eigenvalue"] == lam_max
    assert lam_max == pytest.approx(np.linalg.eigvals(L).real.max(), rel=1e-9)


def test_flaming_of_path3_is_stable_at_its_largest_eigenvalue(graph_file, capsys):
    run(["flaming", "--input", graph_file(path3())])
    assert capsys.readouterr().out == (
        '{"growth_rate":0.0,"verdict":"stable","worst_eigenvalue":[3.0,0.0]}\n'
    )


def test_flaming_keeps_the_general_solve_where_m_leaves_the_float_range(tmp_path):
    # detailed balance holds, but m_c = 1e400: check fails, flaming does not
    p = tmp_path / "g.csv"
    p.write_text("a,b,1\nb,a,1e-200\nb,c,1\nc,b,1e-200\n")
    assert run_captured(["check", "--input", str(p)])[0] == 3
    code, out, err = run_captured(["flaming", "--input", str(p)])
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "stable"


@pytest.mark.parametrize(
    ("command", "code"),
    [("check", 3), ("decompose", 3), ("spectrum", 3), ("sqrt", 3), ("flaming", 0)],
)
def test_path_whose_m_turns_subnormal_fails_instead_of_reporting_a_cycle(tmp_path, command, code):
    # a path has no cycle, but m_c = 1e-150 * 1e-165 / 3 is subnormal: too few bits
    # for the balance test, which read it as cycle_inconsistent; flaming falls back
    p = tmp_path / "g.csv"
    p.write_text("a,b,1e-150\nb,a,1\nb,c,1e-165\nc,b,3\n")
    got, out, err = run_captured([command, "--input", str(p)])
    assert got == code
    if code:
        assert out == ""
        assert json.loads(err)["error"] == "NumericalFailure"


@pytest.mark.parametrize("command", ["check", "simulate", "sqrt"])
def test_infinite_weight_exit_code(tmp_path, capsys, command):
    p = tmp_path / "inf.csv"
    p.write_text("a,b,inf\nb,a,1\n")
    code = run([command, "--input", str(p), "--t-end", "0.01"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    report = json.loads(line)
    assert report["error"] == "NonPositiveWeight"
    assert "finite" in report["detail"]


@pytest.mark.parametrize(
    "flags",
    [
        ["--dt", "0"],
        ["--t-end", "-1"],
        ["--x0", "1,x,0"],
        ["--x0", "nan,0"],
        ["--t-end", "1e6", "--dt", "1e-9"],
        ["--seed", "-1"],
    ],
    ids=[
        "dt-zero",
        "t-end-negative",
        "x0-not-a-number",
        "x0-not-finite",
        "grid-too-long",
        "seed-negative",
    ],
)
def test_bad_numeric_flag_is_usage_error(graph_file, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--input", graph_file(sym2())] + flags)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert json.loads(err.splitlines()[-1])["error"] == "Usage"


@pytest.mark.parametrize("command", ["info", "simulate", "verify"])
@pytest.mark.parametrize(
    "flags",
    [["--t-end", "nan"], ["--t-end", "inf"], ["--t-end", "-0.5"], ["--t-end", "1e5"],
     ["--dt", "nan"], ["--dt", "inf"], ["--dt", "-0.001"], ["--dt", "0"], ["--dt", "1e-7"],
     ["--t-end", "-1e-3"], ["--dt", "-1e-3"]],
    ids=["t-end-nan", "t-end-inf", "t-end-negative", "t-end-too-many-steps",
         "dt-nan", "dt-inf", "dt-negative", "dt-0", "dt-too-many-steps",
         "t-end-negative-exponent", "dt-negative-exponent"],
)
def test_out_of_range_grid_is_one_usage_line(graph_file, command, flags):
    # the CLI reports the library's own grid check, with its message
    code, out, err = run_captured([command, "--input", graph_file(sym2())] + flags)
    assert code == 1 and out == ""
    json_lines = [line for line in err.splitlines() if line.startswith("{")]
    (report,) = [json.loads(line) for line in json_lines]
    args = build_parser().parse_args([command, "--input", "g.csv"] + flags)
    with pytest.raises(GridMismatch) as exc:
        dynamics.grid_rows(args.t_end, args.dt)
    assert report == {"error": "Usage", "detail": f"--t-end / --dt: {exc.value}"}


def test_negative_seed_is_usage_error_for_verify(graph_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--input", graph_file(sym2()), "--seed", "-1"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert json.loads(err.splitlines()[-1])["error"] == "Usage"


@pytest.mark.parametrize("t_end", ["0", "0.001"])
@pytest.mark.parametrize("command", ["fundamental", "verify"])
def test_grid_too_short_for_a_difference_still_reports_the_residual(
    graph_file, capsys, command, t_end
):
    # the three-term recurrence is checked on the step matrix, not on grid rows, so
    # one or two rows report the value of a long run, whatever the seed
    path = graph_file(star4())
    key = "eq22_residual" if command == "verify" else "second_order_residual"
    values = []
    for argv in (["--t-end", t_end], ["--t-end", "1", "--seed", "5"]):
        code, report = run_json(capsys, [command, "--input", path, *argv])
        assert code == 0
        values.append((report[0] if command == "verify" else report)[key])
    assert values[0] == values[1]
    g = star4()
    K = build_matrices(g)[2] if command == "verify" else sqrt_ops.build_bundle(g).Lambda
    assert values[0] <= recurrence_bound(K, 1e-3)


def test_fundamental_step_that_overflows_fails_with_one_line(graph_file, capsys):
    # expm(-i Omega dt) of ring3's divergent modes is not finite at dt = 1e100
    code = run(["fundamental", "--input", graph_file(ring3()), "--t-end", "0", "--dt", "1e100"])
    assert code == 3
    assert single_error_line(capsys)["error"] == "NumericalFailure"


@pytest.mark.parametrize("command", ["simulate", "product-form", "doubled", "verify"])
def test_non_finite_rk4_step_writes_no_warning(graph_file, command):
    # every step matrix is non-finite at dt = 1e100; the one-row grid still succeeds, and
    # verify's recurrence check of the non-finite step fails with its one JSON line
    argv = [command, "--input", graph_file(ring3()), "--t-end", "0", "--dt", "1e100"]
    code, out, err = run_captured(argv)
    if command == "verify":
        assert code == 3 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "NumericalFailure"
    else:
        assert code == 0 and err == ""


def test_directory_input_exit_code(tmp_path, capsys):
    code = run(["info", "--input", str(tmp_path)])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "IsADirectory"


@pytest.mark.parametrize(
    ("name", "error", "errno_"),
    [("g.csv/x", "NotADirectory", errno.ENOTDIR), ("x" * 5000, "OSError", errno.ENAMETOOLONG)],
    ids=["path-through-a-file", "name-too-long"],
)
def test_unreadable_input_exit_code(tmp_path, capsys, name, error, errno_):
    (tmp_path / "g.csv").write_text(to_edge_list(ring3()))
    path = str(tmp_path / name)
    assert run(["info", "--input", path]) == 2
    report = single_error_line(capsys)
    assert report == {"error": error, "detail": f"[Errno {errno_}] {os.strerror(errno_)}: {path!r}"}


def single_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    return json.loads(line)


@pytest.mark.parametrize("command", ["simulate", "sqrt", "centrality"])
def test_degree_overflow_exit_code(tmp_path, capsys, command):
    p = tmp_path / "heavy.csv"
    p.write_text("a,b,1e308\na,c,1e308\nb,a,1\nc,a,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([command, "--input", str(p), "--t-end", "0.01"])
    report = single_error_line(capsys)
    assert code == 2
    assert report["error"] == "DegreeOverflow"
    assert "node a" in report["detail"]



def test_dense_commands_refuse_a_graph_over_the_dense_budget(graph_file, capsys, monkeypatch):
    # a 9 x 9 array fits the budget, this graph's 10 x 10 ones do not
    path = graph_file(random_detailed_balance_graph(np.random.default_rng(1), 10))
    monkeypatch.setattr(netosc.graph, "DENSE_BYTES", 8 * 9 * 9)
    for command in ("info", "check", "centrality"):  # O(edges): no n x n array
        assert run([command, "--input", path]) == 0
    capsys.readouterr()
    for command in sorted(set(COMMANDS) - {"info", "check", "centrality"}):
        code = run([command, "--input", path, "--t-end", "0.01"])
        assert (code, single_error_line(capsys)["error"]) == (2, "GraphTooLarge"), command


@pytest.mark.parametrize(("argv", "stage", "message"), [
    (["simulate"], "dynamics.integrate_wave", "Unable to allocate 2.98 GiB"),
    (["decompose"], "reporting._normalize", ""),
    (["simulate", "--format", "csv"], "dynamics.Trajectory.to_csv", "Unable to allocate"),
], ids=["stepping", "json-text", "csv-text"])
def test_running_out_of_memory_is_one_error_line(graph_file, monkeypatch, argv, stage, message):
    # a stage or the output text that cannot be allocated: exit 3, nothing on stdout
    def exhausted(*args, **kwargs):
        monkeypatch.undo()  # once: the error line itself goes through reporting too
        raise MemoryError(message)

    monkeypatch.setattr(f"netosc.{stage}", exhausted)
    code, out, err = run_captured(argv + ["--input", graph_file(path3()), "--t-end", "0.01"])
    assert (code, out) == (3, "")
    (line,) = err.splitlines()
    assert json.loads(line) == {"error": "OutOfMemory", "detail": message or "out of memory"}


def ring12_with_three_back_links():
    """A directed 12-ring whose first three links also run back: L0 links nodes 0-3."""
    ring = [(str(i), str((i + 1) % 12)) for i in range(12)]
    return from_edges(ring + [(d, s) for s, d in ring[:3]])


@pytest.mark.parametrize("command, kind, block", [
    ("spectrum", "balanced", 12), ("flaming", "balanced", 12), ("spectrum", "oneway", 4),
])
def test_eigenvalue_requests_build_one_array_and_solve_the_linked_block(
    graph_file, capsys, monkeypatch, command, kind, block
):
    if kind == "balanced":
        g = random_detailed_balance_graph(np.random.default_rng(2), 12)
    else:
        g = ring12_with_three_back_links()
    arrays, solves = [], []
    dense, eigvalsh = netosc.graph.dense, np.linalg.eigvalsh
    monkeypatch.setattr(netosc.graph, "dense", lambda n, *a: arrays.append(n) or dense(n, *a))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda S: solves.append(S.shape) or eigvalsh(S))

    def refuse(*args):
        raise AssertionError("a dense A, D or general eigensolve")

    for owner, name in ((netosc.graph, "build_matrices"), (netosc.graph.WeightedDigraph,
                        "adjacency"), (np, "diag"), (np.linalg, "eigvals")):
        monkeypatch.setattr(owner, name, refuse)
    assert run([command, "--input", graph_file(g)]) == 0
    assert (arrays, solves) == ([12], [(block, block)])


@pytest.mark.parametrize("command, scatters, solves", [
    ("sqrt", 4, [(4, 4)]), ("fundamental", 3, [(4, 4)]), ("product-form", 3, [(4, 4)]),
    ("decompose", 2, []),
], ids=["sqrt", "fundamental", "product-form", "decompose"])
def test_mode_requests_solve_the_linked_block(
    graph_file, capsys, monkeypatch, command, scatters, solves
):
    # the eight unlinked nodes take their unit vectors as modes, with no solve; the n x n
    # scatters are S0, L0 and L for LI = L - L0 (decompose needs no S0), and sqrt scatters L
    # once more for h_residual, since the split's L goes before the root
    arrays, eighs = [], []
    dense, eigh = netosc.graph.dense, np.linalg.eigh
    monkeypatch.setattr(netosc.graph, "dense", lambda n, *a: arrays.append(n) or dense(n, *a))
    monkeypatch.setattr(np.linalg, "eigh", lambda S: eighs.append(S.shape) or eigh(S))

    def refuse(*args):
        raise AssertionError("a general eigensolve")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    argv = [command, "--input", graph_file(ring12_with_three_back_links()), "--t-end", "0.01"]
    assert run(argv) == 0
    assert (arrays, eighs) == ([12] * scatters, solves)


def test_non_utf8_input_exit_code(tmp_path, capsys):
    p = tmp_path / "binary.csv"
    p.write_bytes(b"\xff\xfe")
    code = run(["info", "--input", str(p)])
    assert code == 2
    assert single_error_line(capsys)["error"] == "NotUtf8"


RING3_LONG = ["--t-end", "3000", "--dt", "1e-2"]


def test_ring3_long_wave_run_truncates_quietly(graph_file, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["simulate", "--input", graph_file(ring3())] + RING3_LONG)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert json.loads(captured.out)["diverged_at"] == 84.56


RING3_OVERFLOW = {
    "fundamental": "fundamental-equation state overflow at t=84.35",
    "product-form": "product-form state overflow at t=84.35",
    "doubled": "doubled state overflow at t=84.57",
}


@pytest.mark.parametrize("command", ["fundamental", "product-form", "doubled"])
def test_ring3_long_first_order_run_fails_with_one_line(graph_file, capsys, command):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([command, "--input", graph_file(ring3())] + RING3_LONG)
    assert code == 3
    detail = RING3_OVERFLOW[command]
    assert single_error_line(capsys) == {"error": "NumericalFailure", "detail": detail}


def test_ring3_doubled_run_that_overflows_on_its_last_row_fails(graph_file, capsys):
    code = run(["doubled", "--input", graph_file(ring3()), "--t-end", "84.57", "--dt", "1e-2"])
    assert code == 3
    detail = RING3_OVERFLOW["doubled"]
    assert single_error_line(capsys) == {"error": "NumericalFailure", "detail": detail}


@pytest.mark.parametrize("text", ["", "# no edges\n\n"], ids=["empty", "comments-only"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_empty_graph_exit_code(tmp_path, capsys, command, text):
    p = tmp_path / "empty.csv"
    p.write_text(text)
    code = run([command, "--input", str(p)])
    assert code == 2
    assert single_error_line(capsys)["error"] == "EmptyGraph"


def test_sqrt_on_heavy_symmetric_graphs(graph_file, rng, capsys):
    # eigh rounding on weights of 1e8 is far above an absolute 1e-9 floor
    for _ in range(5):
        g = random_symmetric_graph(rng, 40)
        heavy = from_edges([(g.labels[s], g.labels[d], w * 1e8) for s, d, w in g.edges])
        code, report = run_json(capsys, ["sqrt", "--input", graph_file(heavy)])
        assert code == 0
        assert report["omega_residual"] <= 1e-8
        assert report["h_residual"] <= 1e-7


def test_tol_flag_is_usage_error(graph_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--input", graph_file(sym2()), "--tol", "1e-6"])
    assert exc.value.code == 1
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "Usage"


@pytest.mark.parametrize("command", ["info", "verify"])
def test_format_flag_is_usage_error_where_nothing_is_exported(graph_file, capsys, command):
    # these commands once took --format csv and printed JSON all the same
    with pytest.raises(SystemExit) as exc:
        run([command, "--input", graph_file(ring3()), "--format", "csv"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.splitlines()[-1])["error"] == "Usage"


@pytest.mark.parametrize("command", ["verify", "doubled"])
def test_theorem1_checks_store_no_trajectory(graph_file, command):
    g = random_digraph(np.random.default_rng(3), 60)
    path = graph_file(g)
    args = build_parser().parse_args([command, "--input", path])
    check = (lambda: verify_graph(path, args)) if command == "verify" else (
        lambda: COMMANDS["doubled"](args)
    )
    # one [s | w] trajectory of the default grid, rows * 2n float64: 20002 / n arrays of n x n
    assert traced_peak(check) < 10_001 * 2 / g.n * square_bytes(g.n)


@pytest.mark.parametrize("kind", ["one-way", "balanced"])
def test_sqrt_holds_six_n_by_n_arrays(graph_file, kind):
    # six arrays at the peak: P, L, L0, L_I and the two arrays of Lambda_I's rotation, and
    # P, Lambda, Omega, L, H and one residual buffer at h_residual; the Schur root's
    # back-transform holds five, as the split goes first.  At n = 200 it read 6.15 and 6.17
    # with numpy 2.4, against 9.15 and 7.16 before the root overwrote its Schur form; the
    # rest is the graph's edge arrays and O(n) vectors.  The bound leaves half an array for
    # other numpy versions' temporaries.  LAPACK's workspace is not traced (numpy's eigh
    # hands dsyevd ~2 n^2 float64)
    n, rng = 200, np.random.default_rng(1)
    g = random_digraph(rng, n) if kind == "one-way" else random_detailed_balance_graph(rng, n)
    args = build_parser().parse_args(["sqrt", "--input", graph_file(g)])
    assert traced_peak(lambda: COMMANDS["sqrt"](args)) < 6.7 * square_bytes(n)


def test_verify_drops_the_steps_before_the_square(graph_file):
    # eq22 and Theorem 1 first, then the two 2n x 2n steps go before op.square (eq19, eq26):
    # 22.5 n x n arrays at n = 150, against 27.9 with the steps and the square held at once
    g = random_detailed_balance_graph(np.random.default_rng(1), 150)
    path = graph_file(g)
    args = build_parser().parse_args(["verify", "--input", path])
    assert traced_peak(lambda: verify_graph(path, args)) < 24 * square_bytes(g.n)


@pytest.mark.parametrize("closure", [5e-10, 9e-10])
def test_nearly_balanced_triangle_reaches_the_spectrum(graph_file, capsys, closure):
    # the cycle closes within the detailed-balance tolerance, so every command
    # that needs the symmetrized form accepts what check accepts
    g = from_edges(
        [("a", "b", 2.0), ("b", "a", 1.0), ("b", "c", 3.0), ("c", "b", 1.0),
         ("c", "a", 1.0), ("a", "c", 6.0 * (1 + closure))]
    )
    path = graph_file(g)
    code, report = run_json(capsys, ["check", "--input", path])
    assert code == 0 and report["symmetrizable"] is True
    code, report = run_json(capsys, ["spectrum", "--input", path])
    assert code == 0 and report["eigenvalues"][0] == pytest.approx(0.0, abs=1e-9)
    code, report = run_json(capsys, ["sqrt", "--input", path])
    assert code == 0 and report["omega_residual"] <= 1e-8 and report["h_residual"] <= 1e-7
    code, report = run_json(capsys, ["centrality", "--input", path])
    assert code == 0
    out_degrees = [8.0 + 6.0 * closure, 4.0, 2.0]
    assert np.allclose(report["per_node"], np.array(out_degrees) / 2, rtol=1e-8)


@pytest.mark.parametrize(
    ("command", "text", "error", "code"),
    [
        ("sqrt", "a,b,1e308\n", "DegreeOverflow", 2),
        ("info", "a,b,1e308\na,c,1e308\n", "DegreeOverflow", 2),
        ("simulate", "n0,n1,1e200\n", "DegreeOverflow", 2),
        ("fundamental", "n0,n1,1e154\n", "DegreeOverflow", 2),
        ("check", "n1,n0,1\nn0,n1,1e-320\n", "NumericalFailure", 3),
        ("spectrum", "n1,n0,1\nn0,n1,1e-320\n", "NumericalFailure", 3),
    ],
)
def test_out_of_range_graph_fails_with_one_line(tmp_path, capsys, command, text, error, code):
    p = tmp_path / "g.csv"
    p.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--input", str(p), "--t-end", "0.01"]) == code
    assert single_error_line(capsys)["error"] == error


@pytest.mark.parametrize(
    ("command", "flag"),
    [("simulate", "--v0"), ("doubled", "--v0"), ("doubled", "--x0"), ("fundamental", "--psi0")],
)
def test_short_initial_vector_is_model_violation(graph_file, capsys, command, flag):
    code = run([command, "--input", graph_file(path3()), "--t-end", "0.01", flag, "1"])
    assert code == 4
    assert single_error_line(capsys)["error"] == "DimensionMismatch"


# CLI fuzz: random edge-list text through every subcommand
FUZZ_LABELS = ["a", "b", "c", "n0", "n1"]
VALID_WEIGHTS = ["1e-320", "1e-12", "1", "1e154", "1e200", "1e308"]
FUZZ_WEIGHTS = ["0", "-1", "nan", "inf", "x"] + VALID_WEIGHTS


@st.composite
def edge_line(draw, src, dst, weights):
    sep = draw(st.sampled_from([",", "\t", ", "]))
    fields = [src, dst]
    weight = draw(st.none() | st.sampled_from(weights))
    if weight is not None:
        fields.append(weight)
    comment = draw(st.sampled_from(["", "  # note"]))
    return sep.join(fields) + comment


FILLER = st.sampled_from(["", "# comment", "   "])


@st.composite
def valid_graph_text(draw):
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(FUZZ_LABELS), st.sampled_from(FUZZ_LABELS)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    lines = []
    for src, dst in pairs:
        lines += draw(st.lists(FILLER, max_size=1))
        lines.append(draw(edge_line(src, dst, VALID_WEIGHTS)))
    return "\n".join(lines) + "\n"


@st.composite
def mixed_graph_text(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["edge", "edge", "edge", "filler", "junk"]))
        if kind == "edge":
            src, dst = draw(st.sampled_from(FUZZ_LABELS)), draw(st.sampled_from(FUZZ_LABELS))
            lines.append(draw(edge_line(src, dst, FUZZ_WEIGHTS)))
        elif kind == "filler":
            lines.append(draw(FILLER))
        else:
            lines.append(draw(st.sampled_from(["a", "a,b,1,2", "a\t\tb"])))
    return "\n".join(lines)


def run_captured(argv):
    """(exit code, stdout, stderr) of run(argv) with warnings as errors; a usage
    error leaves through SystemExit and gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_cli_contract(path, text):
    path.write_text(text)
    for command in sorted(COMMANDS):
        code, out, err = run_captured([command, "--input", str(path), "--t-end", "0.01"])
        assert code in range(5), (command, text)
        if code:
            assert out == "", (command, text)
            (line,) = err.splitlines()
            assert "error" in json.loads(line), (command, text)
        else:
            assert err == "", (command, text)
            assert "NaN" not in out and "Infinity" not in out, (command, text)


@given(text=valid_graph_text())
def test_cli_contract_on_valid_graphs(tmp_path_factory, text):
    assert_cli_contract(tmp_path_factory.getbasetemp() / "fuzz_valid.csv", text)


@given(text=mixed_graph_text())
def test_cli_contract_on_mixed_text(tmp_path_factory, text):
    assert_cli_contract(tmp_path_factory.getbasetemp() / "fuzz_mixed.csv", text)


@pytest.fixture
def blas_pools():
    """The OpenBLAS pools netosc found, checked against the libraries mapped into
    this process; every pool's thread count is restored afterwards."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        libs = set()
    pools = _blas._pools()
    assert len(pools) == len(libs)
    saved = blas_counts(pools)
    yield pools
    for (_, _, put), count in zip(pools, saved):
        put(count)


def blas_counts(pools):
    return [get() for _, get, _ in pools]


def set_blas(pools, count):
    for _, _, put in pools:
        put(count)


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_command_runs_on_one_blas_thread_per_pool(
    blas_pools, graph_file, capsys, monkeypatch, fails
):
    if not blas_pools:
        pytest.skip("no OpenBLAS loaded")
    seen = []

    def command(args):
        seen.append(blas_counts(blas_pools))
        if fails:
            raise NumericalFailure("stop")
        return {}

    monkeypatch.setitem(COMMANDS, "info", command)
    set_blas(blas_pools, 2)
    assert run(["info", "--input", graph_file(ring3())]) == (3 if fails else 0)
    assert seen == [[1] * len(blas_pools)]
    assert blas_counts(blas_pools) == [2] * len(blas_pools)


def test_blas_scope_nests(blas_pools, graph_file, capsys):
    # a command run inside an open scope leaves the counts to the outermost scope
    if not blas_pools:
        pytest.skip("no OpenBLAS loaded")
    set_blas(blas_pools, 2)
    with _blas.single_threaded():
        assert run(["spectrum", "--input", graph_file(path3())]) == 0
        assert blas_counts(blas_pools) == [1] * len(blas_pools)
    assert blas_counts(blas_pools) == [2] * len(blas_pools)
    assert capsys.readouterr().err == ""


def test_blas_scope_without_a_pool_does_nothing(
    blas_pools, graph_file, capsys, monkeypatch, tmp_path
):
    maps = tmp_path / "maps"
    maps.write_text(
        "7f00-7f10 r-xp 00000000 08:01 42 /usr/lib/libc.so.6\n"
        "7f10-7f20 r-xp 00000000 08:01 43 /nonexistent/libopenblas.so.0\n"
    )
    # a maps file that cannot be read, or one naming an OpenBLAS that cannot be loaded
    for path in (tmp_path / "missing", maps):
        monkeypatch.setattr(_blas, "open", lambda _, **kw: open(path, **kw), raising=False)
        assert _blas._pools.__wrapped__() == ()
    monkeypatch.setattr(_blas, "_pools", _blas._pools.__wrapped__)
    seen = []
    monkeypatch.setitem(COMMANDS, "info", lambda args: seen.append(blas_counts(blas_pools)) or {})
    set_blas(blas_pools, 2)
    assert run(["info", "--input", graph_file(ring3())]) == 0
    assert seen == [[2] * len(blas_pools)]
    assert blas_counts(blas_pools) == [2] * len(blas_pools)


def test_output_does_not_depend_on_blas_threads_before_run(blas_pools, graph_file, capsys):
    # rounding in multithreaded GEMM and Schur moved these residuals in low digits
    path = graph_file(random_digraph(np.random.default_rng(1), 150))
    outs = []
    for count in (1, 2):
        set_blas(blas_pools, count)
        for argv in (["sqrt"], ["verify", "--t-end", "1"]):
            assert run(argv + ["--input", path]) == 0
            outs.append(capsys.readouterr().out)
    assert outs[:2] == outs[2:]


SCIPY_FREE = [
    ["info"], ["check"], ["decompose"], ["spectrum"], ["centrality"], ["flaming"],
    ["simulate"], ["simulate", "--format", "csv"], ["doubled"], ["doubled", "--format", "csv"],
    ["verify"],
]
# each takes a Schur root of the one-way graph: with numpy's own LAPACK none of them
# loads scipy; without it sqrt comes first, so it is the one whose call imports scipy
SCHUR_ROOTS = [["sqrt"], ["fundamental"], ["product-form"]]

# Runs in a fresh interpreter: this test process imported scipy long ago.  With
# "fallback" the LAPACKE lookup is forced empty, as on MKL or Accelerate.
DEFERRED_SCIPY_SCRIPT = """
import contextlib, ctypes, io, json, sys
import netosc, netosc.cli
from netosc import _blas
from netosc.cli import run

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def counts():
    \"\"\"Thread count of every OpenBLAS mapped into this process.\"\"\"
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return {}
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        get = next(
            getattr(handle, f"{prefix}_get_num_threads{suffix}")
            for prefix in ("scipy_openblas", "openblas")
            for suffix in ("64_", "")
            if hasattr(handle, f"{prefix}_get_num_threads{suffix}")
        )
        get.restype = ctypes.c_int
        found[lib] = get()
    return found

oneway, balanced, mode = sys.argv[1], sys.argv[2], sys.argv[3]
free, roots = json.loads(sys.argv[4]), json.loads(sys.argv[5])
if mode == "fallback":
    _blas._lapacke = lambda: None
report = {"import": scipy_modules(), "commands": [], "roots": []}
inside, deferred = [], []
trsyl = _blas.trsyl
def spy(*args):
    inside.append(counts())
    return trsyl(*args)
_blas.trsyl = spy
linalg = _blas.linalg
def linalg_spy():
    deferred.append(True)
    return linalg()
_blas.linalg = linalg_spy
with contextlib.redirect_stdout(io.StringIO()):
    for path in (balanced, oneway):
        for argv in free:
            code = run([*argv, "--input", path, "--t-end", "0.01"])
            report["commands"].append([argv, code, scipy_modules()])
    report["before"] = counts()
    for argv in roots:
        deferred.clear()
        code = run([*argv, "--input", oneway, "--t-end", "0.01"])
        report["roots"].append([argv, code, bool(deferred), "scipy.linalg" in sys.modules])
report.update(inside=inside, after=counts(), lapacke=_blas._lapacke() is not None)
print(json.dumps(report))
"""


def deferred_scipy_report(graph_file, mode):
    """Run the 12 commands in a fresh interpreter with two threads per pool."""
    rng = np.random.default_rng(3)
    oneway = graph_file(random_digraph(rng, 8), "oneway.csv")
    balanced = graph_file(random_detailed_balance_graph(rng, 8), "balanced.csv")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(netosc.__file__)), env.get("PYTHONPATH")])
    )
    argv = [oneway, balanced, mode, json.dumps(SCIPY_FREE), json.dumps(SCHUR_ROOTS)]
    proc = subprocess.run(
        [sys.executable, "-c", DEFERRED_SCIPY_SCRIPT, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == []
    # centrality refuses the one-way graph (model violation, exit 4); simulate, doubled
    # and verify build their steps with dynamics.offdiag_expm, in JSON and in CSV alike
    assert report["commands"] == [
        [command, 4 if (path, command) == (oneway, ["centrality"]) else 0, []]
        for path in (balanced, oneway)
        for command in SCIPY_FREE
    ]
    return report


def test_no_command_loads_scipy_with_numpys_lapack(graph_file):
    report = deferred_scipy_report(graph_file, "native")
    if not report["lapacke"]:
        pytest.skip("no mapped OpenBLAS exports LAPACKE dgees and dtrsyl")
    # every Schur root runs on numpy's OpenBLAS: no deferred import, no scipy module
    assert report["roots"] == [[command, 0, False, False] for command in SCHUR_ROOTS]
    # the Sylvester joins of this one-way graph run on one thread in every pool,
    # and no pool was mapped on the way
    assert report["inside"]
    for seen in report["inside"]:
        assert seen == {lib: 1 for lib in report["after"]}
    assert report["before"] == report["after"] == {lib: 2 for lib in report["after"]}


def test_scipy_loads_only_inside_a_command_that_calls_it(graph_file):
    report = deferred_scipy_report(graph_file, "fallback")
    # without numpy's LAPACK each Schur root calls the deferred import, and the
    # first call loads scipy
    assert report["roots"] == [[command, 0, True, True] for command in SCHUR_ROOTS]
    if not report["after"]:
        pytest.skip("no OpenBLAS loaded")
    # the Schur root of this one-way graph joins blocks by Sylvester solves,
    # each on one thread in every pool, scipy's own included
    assert report["inside"]
    for seen in report["inside"]:
        assert seen == {lib: 1 for lib in report["after"]}
    assert set(report["before"]) < set(report["after"])
    assert report["after"] == {lib: 2 for lib in report["after"]}


# argv fuzz: random subcommands, flags and hostile values, and inputs that cannot be read
VECTORS = ["1,0,0", "1", "0,1,0,0", "1e308,-1e308,1e308", "nan,0,0", "1,,0", "x", ""]
ARGV_FLAGS = {
    "--t-end": ["0", "0.01", "-1", "nan", "inf", "1e400", "1e20", "x", ""],
    "--dt": ["0.01", "1e100", "0", "-0.001", "-1e-3", "nan", "inf", "1e-30", "x"],
    "--seed": ["0", "7", "-1", "1.5", "x", str(2**70)],
    "--format": ["json", "csv", "xml"],
    "--sign": ["+", "-", "x"],
    "--x0": VECTORS,
    "--v0": VECTORS,
    "--psi0": VECTORS,
    "--dump-operators": [None, "1"],
    "--tol": ["1e-9"],
    "--bogus": [None, "1"],
    "-x": [None],
}
# a graph, a missing file, a directory, a path through a file and a name over NAME_MAX
ARGV_INPUTS = ["ring3.csv", "missing.csv", ".", "ring3.csv/x", "x" * 5000]


@st.composite
def hostile_argv(draw):
    argv = [draw(st.sampled_from(sorted(COMMANDS) + ["bogus"]))]
    argv += ["--input", *draw(st.lists(st.sampled_from(ARGV_INPUTS), min_size=1, max_size=2))]
    for flag in draw(st.lists(st.sampled_from(sorted(ARGV_FLAGS)), max_size=3)):
        value = draw(st.sampled_from(ARGV_FLAGS[flag]))
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=20)  # keeps tier-1 near 10 s and still reaches both OSError repros
@given(argv=hostile_argv())
def test_cli_contract_on_hostile_argv(tmp_path_factory, argv):
    # the grid values that pass the check ask for at most 10^4 steps of ring3
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.getbasetemp())
    try:
        with open("ring3.csv", "w", encoding="utf-8") as fh:
            fh.write(to_edge_list(ring3()))
        code, out, err = run_captured(argv)
    finally:
        os.chdir(cwd)
    assert code in range(5), argv
    assert "Traceback" not in err, argv
    if code:
        assert out == "", argv
        lines = err.splitlines()
        assert "error" in json.loads(lines[-1]), argv
        assert code == 1 or len(lines) == 1, argv      # only usage errors print a usage line
    else:
        assert err == "", argv
