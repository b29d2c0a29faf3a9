import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import netosc
from netosc import _blas, from_edges, sqrt_ops
from netosc.cli import COMMANDS, build_parser, run, verify_graph
from netosc.errors import NumericalFailure

from conftest import (
    path3,
    random_detailed_balance_graph,
    random_digraph,
    random_symmetric_graph,
    ring3,
    star4,
    sym2,
)


@pytest.fixture
def graph_file(tmp_path):
    def write(g, name="g.csv"):
        p = tmp_path / name
        p.write_text(g.to_edge_list())
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


def test_fundamental_builds_no_node_space_operator(graph_file, capsys, monkeypatch):
    bundles, build_bundle = [], sqrt_ops.build_bundle

    def recording_build_bundle(*args):
        bundles.append(build_bundle(*args))
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


def test_negative_seed_is_usage_error_for_verify(graph_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--input", graph_file(sym2()), "--seed", "-1"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert json.loads(err.splitlines()[-1])["error"] == "Usage"


@pytest.mark.parametrize("t_end, rows", [("0", 1), ("0.001", 2)])
@pytest.mark.parametrize("command", ["fundamental", "verify"])
def test_grid_too_short_for_the_residual_fails_with_one_line(
    graph_file, capsys, command, t_end, rows
):
    # one or two grid rows leave the centered second difference empty
    code = run([command, "--input", graph_file(star4()), "--t-end", t_end])
    assert code == 4
    report = single_error_line(capsys)
    assert report["error"] == "GridMismatch"
    assert report["detail"].endswith(f"got {rows}")


def test_directory_input_exit_code(tmp_path, capsys):
    code = run(["info", "--input", str(tmp_path)])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "IsADirectory"


def single_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    return json.loads(line)


@pytest.mark.parametrize("command", ["simulate", "sqrt"])
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
    check()                              # scipy loads outside the measurement
    tracemalloc.start()
    try:
        check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one [s | w] trajectory of the default grid: rows * 2n float64
    assert peak < 10_001 * 2 * g.n * 8


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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv)
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


def test_blas_scope_without_a_pool_does_nothing(
    blas_pools, graph_file, capsys, monkeypatch, tmp_path
):
    maps = tmp_path / "maps"
    maps.write_text(
        "7f00-7f10 r-xp 00000000 08:01 42 /usr/lib/libc.so.6\n"
        "7f10-7f20 r-xp 00000000 08:01 43 /nonexistent/libopenblas.so.0\n"
    )
    assert _blas._pools.__wrapped__(str(tmp_path / "missing")) == ()
    assert _blas._pools.__wrapped__(str(maps)) == ()
    monkeypatch.setattr(_blas, "_pools", functools.partial(_blas._pools.__wrapped__, str(maps)))
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


SCIPY_FREE = ["info", "check", "decompose", "spectrum", "centrality", "flaming", "simulate"]

# Runs in a fresh interpreter: this test process imported scipy long ago.
DEFERRED_SCIPY_SCRIPT = """
import contextlib, ctypes, io, json, sys
import netosc, netosc.cli
from netosc import sqrt_ops
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

oneway, balanced, commands = sys.argv[1], sys.argv[2], sys.argv[3:]
report = {"import": scipy_modules(), "commands": []}
inside = []
sylvester = sqrt_ops._sylvester
def spy(*args):
    inside.append(counts())
    return sylvester(*args)
sqrt_ops._sylvester = spy
with contextlib.redirect_stdout(io.StringIO()):
    for path in (balanced, oneway):
        for command in commands:
            code = run([command, "--input", path, "--t-end", "0.01"])
            report["commands"].append([command, code, scipy_modules()])
    report["before"] = counts()
    report["sqrt"] = run(["sqrt", "--input", oneway])
report.update(inside=inside, after=counts())
print(json.dumps(report))
"""


def test_scipy_loads_only_inside_a_command_that_calls_it(graph_file):
    rng = np.random.default_rng(3)
    oneway = graph_file(random_digraph(rng, 8), "oneway.csv")
    balanced = graph_file(random_detailed_balance_graph(rng, 8), "balanced.csv")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(netosc.__file__)), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", DEFERRED_SCIPY_SCRIPT, oneway, balanced, *SCIPY_FREE],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == []
    # centrality refuses the one-way graph (model violation, exit 4)
    assert report["commands"] == [
        [command, 4 if (path, command) == (oneway, "centrality") else 0, []]
        for path in (balanced, oneway)
        for command in SCIPY_FREE
    ]
    assert report["sqrt"] == 0
    if not report["after"]:
        pytest.skip("no OpenBLAS loaded")
    # the Schur root of this one-way graph joins blocks by Sylvester solves,
    # each on one thread in every pool, scipy's own included
    assert report["inside"]
    for seen in report["inside"]:
        assert seen == {lib: 1 for lib in report["after"]}
    assert set(report["before"]) < set(report["after"])
    assert report["after"] == {lib: 2 for lib in report["after"]}
