"""Benchmark of the netosc CLI: seeded workloads run through ``netosc.cli.run``.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends requests in a closed loop in this process, with stdout and
stderr captured, and checks every output.  A pass is the workload's fixed
request list; after one warm-up request per command, passes repeat until the
next one would end past ``--seconds``.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
The line before it records the workload manifest, the machine, the output
digest and the latency sample counts.

``--trace 1`` spends half the window untraced and half with the span tracer
of ``spans.py`` installed; per-layer numbers come from the traced half, and
their ratio gives ``trace.overhead_frac``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SPAWNS = 5

sys.path.insert(0, str(HERE))
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, DEFAULT_STEPS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_s": "s",
    "req_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


# --------------------------------------------------------------------------
# the client


@dataclass
class Pass:
    latencies: list = field(default_factory=list)  # per request, seconds
    cpus: list = field(default_factory=list)  # per request, process CPU of all threads
    bytes_out: int = 0
    failures: list = field(default_factory=list)
    digest: str = ""
    span_range: tuple = (0, 0)


def call_cli(cli, argv):
    """One request; returns (latency_s, cpu_s, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # an uncaught error is a failed request, not a crash
            code = f"uncaught {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, time.process_time() - c0, code, out.getvalue(), err.getvalue()


def run_pass(cli, requests, tracer=None, pass_no=0):
    p = Pass()
    digest = hashlib.sha256()
    start = len(tracer.spans) if tracer else 0
    for k, req in enumerate(requests):
        if tracer:
            tracer.request = pass_no * len(requests) + k
        latency, cpu, code, out, err = call_cli(cli, req.argv)
        p.latencies.append(latency)
        p.cpus.append(cpu)
        data = out.encode()
        p.bytes_out += len(data)
        digest.update(data)
        try:
            if code != 0:
                raise CheckFailed(f"exit {code}: {err.strip()[:200]}")
            req.check(out)
        except CheckFailed as exc:
            p.failures.append({"argv": " ".join(req.argv), "reason": str(exc)})
        del out
        gc.collect()  # the checks' garbage is not the next request's to collect
    p.digest = digest.hexdigest()
    p.span_range = (start, len(tracer.spans) if tracer else 0)
    return p


def run_window(cli, requests, seconds, tracer=None, first_pass=0):
    """Repeat passes until the next one would end past ``seconds`` (at least one)."""
    passes, durations = [], []
    t0 = time.perf_counter()
    while True:
        s = time.perf_counter()
        passes.append(run_pass(cli, requests, tracer, first_pass + len(passes)))
        durations.append(time.perf_counter() - s)
        if time.perf_counter() - t0 + statistics.median(durations) > seconds:
            return passes


# --------------------------------------------------------------------------
# metrics


def setup_seconds():
    """Median time for a fresh interpreter to finish ``import netosc.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import netosc.cli"], env=env, cwd=ROOT,
                       check=True, capture_output=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def per_request(passes, attr="latencies"):
    """Each request's median over the passes, in request-list order."""
    return [statistics.median(v) for v in zip(*(getattr(p, attr) for p in passes))]


def list_seconds(passes, attr="latencies"):
    """Time for the whole request list: the sum of per-request medians.

    Repeats of one request fall in different moments of a shared machine, so
    their median is steadier than any single pass."""
    return sum(per_request(passes, attr))


def latency_stats(passes):
    """Per-request latency is the median of that request over the passes.

    req_p50_s is their median.  req_tail_s is the highest percentile with at
    least ten requests beyond it; a list of 20 requests or fewer has none
    above the median, and its tail is the slowest request.
    """
    latencies = sorted(per_request(passes))
    m = len(latencies)
    if m > 20:
        tail, pct = latencies[m - 11], 100.0 * (m - 10) / m
    else:
        tail, pct = latencies[-1], 100.0
    return statistics.median(latencies), tail, {
        "requests": m, "passes": len(passes), "tail_percentile": pct,
    }


def end_to_end(passes, setup_s):
    p50, tail, _ = latency_stats(passes)
    return {
        "setup_s": setup_s,
        "wall_s": list_seconds(passes),
        "req_p50_s": p50,
        "req_tail_s": tail,
        "cpu_s": list_seconds(passes, "cpus"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _self(rows, *names):
    return sum(rows[n]["self_s"] for n in names if n in rows)


def _sum(rows, key, *names):
    return sum(rows[n][key] for n in names if n in rows)


def _ratio(num, den):
    return num / den if den else 0.0


def _layer_self(rows, layer):
    """A layer's self time; the CLI's excludes verify's wait on its thread pool."""
    total = sum(r["self_s"] for name, r in rows.items() if name.split(".", 1)[0] == layer)
    return total - _self(rows, "cli.cmd_verify") if layer == "cli" else total


def _symmetrizable_share(rows):
    row = rows.get("symmetry.check_symmetrizable")
    return _ratio(row["calls"] - row["raised"], row["calls"]) if row else 0.0


def self_s(*spans):
    return "s", lambda rows, p: _self(rows, *spans)


def count(key, *spans, unit="count"):
    return unit, lambda rows, p: _sum(rows, key, *spans)


INTEGRATORS = ("dynamics.integrate_wave", "dynamics.integrate_fundamental",
               "dynamics.product_form_solve")

# name -> (unit, value from one traced pass: its span rows and the Pass)
PER_LAYER = {
    **{f"{layer}.self_s": ("s", lambda rows, p, layer=layer: _layer_self(rows, layer))
       for layer in LAYERS},
    "graph.load_edge_list.self_s": self_s("graph.load_edge_list"),
    "graph.parse_edge_list.self_s": self_s("graph.parse_edge_list"),
    "graph.build_matrices.self_s": self_s("graph.build_matrices"),
    "graph.adjacency.calls": count("calls", "graph.WeightedDigraph.adjacency"),
    "graph.edges_parsed": count("edges_parsed", "graph.parse_edge_list"),
    "symmetry.check_symmetrizable.self_s": self_s("symmetry.check_symmetrizable"),
    "symmetry.decompose_laplacian.self_s": self_s("symmetry.decompose_laplacian"),
    "symmetry.symmetrize.self_s": self_s("symmetry.symmetrize"),
    "symmetry.mode_interaction_matrix.self_s": self_s("symmetry.mode_interaction_matrix"),
    "symmetry.symmetrizable_share": ("ratio", lambda rows, p: _symmetrizable_share(rows)),
    "sqrt_ops.principal_sqrt.self_s": self_s("sqrt_ops.principal_sqrt"),
    "sqrt_ops.principal_sqrt.calls": count("calls", "sqrt_ops.principal_sqrt"),
    "sqrt_ops.build_bundle.self_s": self_s("sqrt_ops.build_bundle"),
    "sqrt_ops.residuals.self_s": self_s("sqrt_ops.sqrt_residual", "sqrt_ops.node_sqrt_residual"),
    "dynamics.integrate_wave.self_s": self_s("dynamics.integrate_wave"),
    "dynamics.integrate_fundamental.self_s": self_s("dynamics.integrate_fundamental"),
    "dynamics.product_form_solve.self_s": self_s("dynamics.product_form_solve"),
    "dynamics.second_order_residual.self_s": self_s("dynamics.second_order_residual"),
    "dynamics.steps": count("steps", *INTEGRATORS),
    "dynamics.node_steps": count("node_steps", *INTEGRATORS),
    "dynamics.diverged": count("diverged", "dynamics.integrate_wave"),
    "dynamics.flaming_indicator.self_s": self_s("dynamics.flaming_indicator"),
    "dynamics.degree_centrality_energy.self_s": self_s("dynamics.degree_centrality_energy"),
    "dynamics.Trajectory.to_csv.self_s": self_s("dynamics.Trajectory.to_csv"),
    "doubled.integrate_doubled.self_s": self_s("doubled.integrate_doubled"),
    "doubled.matvec_flops": count("matvec_flops", "doubled.integrate_doubled", unit="flop"),
    "doubled.hat_H_structured.calls": count("calls", "doubled.hat_H_structured"),
    "doubled.projection_identity_check.self_s": self_s("doubled.projection_identity_check"),
    "doubled.projection_identity_check.calls": count("calls", "doubled.projection_identity_check"),
    "doubled.hat_H_squared_expansion.self_s": self_s("doubled.hat_H_squared_expansion"),
    "doubled.sparse_factors.self_s": self_s("doubled.sparse_factors"),
    "doubled.sparsity_match.self_s": self_s("doubled.sparsity_match"),
    "reporting.canonical_json.self_s": self_s("reporting.canonical_json"),
    "reporting.bytes_out": ("B", lambda rows, p: p.bytes_out),
    "cli.verify.wait_s": self_s("cli.cmd_verify"),
    "cli.verify.parallelism": ("ratio", lambda rows, p: _ratio(
        _sum(rows, "total_s", "cli.verify_graph"), _sum(rows, "total_s", "cli.cmd_verify"))),
}
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}
PER_LAYER_UNITS["trace.overhead_frac"] = "ratio"  # traced over untraced wall_s, minus 1


def per_layer(tracer, traced, untraced):
    """Median over traced passes of each per-pass value; counts stay whole."""
    rows = [tracer.summary(*p.span_range) for p in traced]
    metrics = {}
    for name, (unit, value) in PER_LAYER.items():
        v = statistics.median(value(r, p) for r, p in zip(rows, traced))
        metrics[name] = int(v) if unit in ("count", "flop", "B") else v
    metrics["trace.overhead_frac"] = list_seconds(traced) / list_seconds(untraced) - 1.0
    return metrics


def layer_shares(tracer, traced):
    rows = tracer.summary(traced[0].span_range[0], traced[-1].span_range[1])
    selfs = {layer: _layer_self(rows, layer) for layer in LAYERS}
    selfs["dynamics.Trajectory.to_csv"] = _self(rows, "dynamics.Trajectory.to_csv")  # within dynamics
    total = sum(selfs[layer] for layer in LAYERS) or 1.0
    return {name: round(v / total, 4) for name, v in selfs.items()}


# --------------------------------------------------------------------------
# records


def blas_threads():
    """Thread count of each OpenBLAS loaded in this process."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getattr(handle, fn).restype = ctypes.c_int
                found[os.path.basename(lib)] = getattr(handle, fn)()
                break
    return found


def machine_record():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "netosc_threads": os.environ.get("NETOSC_THREADS", "default"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def manifest(workload, seed, graphs, requests):
    mix = Counter(" ".join(a for a in r.argv if a != "--input" and not os.path.isabs(a))
                  for r in requests)
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "graphs": len(graphs),
        "n_range": [min(g.n for g in graphs), max(g.n for g in graphs)],
        "edges": [len(g.edges) for g in graphs],
        "symmetrizable_share": sum(g.symmetrizable for g in graphs) / len(graphs),
        "grid_steps": DEFAULT_STEPS,
        "request_mix": dict(sorted(mix.items())),
        "requests_per_pass": len(requests),
    }


# --------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_cli():
    """Import netosc.cli from this checkout's sources, or exit nonzero."""
    if not (SRC / "netosc" / "cli.py").is_file():
        sys.exit(f"perfbench: no netosc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import netosc.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "netosc":
        sys.exit(f"perfbench: imported netosc from {cli.__file__}, not from {SRC}")
    return cli


def main(argv=None):
    args = parse_args(argv)
    cli = import_cli()
    workload = WORKLOADS[args.workload]
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, setup_runs = setup_seconds()
        graphs, requests = workload.build(np.random.default_rng(args.seed), str(workdir))

        warmup = {}
        for req in requests:
            warmup.setdefault(req.command, req)
        warm = run_pass(cli, list(warmup.values()))

        tracer = Tracer() if args.trace else None
        window = args.seconds / 2 if args.trace else args.seconds
        passes = run_window(cli, requests, window)
        traced = []
        if tracer:
            tracer.install()
            try:
                traced = run_window(cli, requests, window, tracer, first_pass=len(passes))
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    timed = passes + traced
    failures = [f for p in [warm, *timed] for f in p.failures]
    digests = {p.digest for p in timed}
    if len(digests) > 1:
        failures.append({"argv": "*", "reason": "stdout differs between passes"})
    attempted = sum(len(p.latencies) for p in timed)
    failed = sum(len(p.failures) for p in timed)

    if tracer:
        metrics, units = per_layer(tracer, traced, passes), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(passes, setup_s), END_TO_END
    _, _, samples = latency_stats(passes)
    request_s = {r.label: v for r, v in zip(requests, per_request(passes))}
    record = {
        "manifest": manifest(workload, args.seed, graphs, requests),
        "machine": machine_record(),
        "stdout_sha256": sorted(digests)[0],
        "failed_frac": failed / attempted,
        "failures": failures[:10],
        "latency_samples": samples,
        "latencies_s": [p.latencies for p in passes],
        "request_s": request_s,
        "setup_runs_s": setup_runs,
    }
    if tracer:
        record["layer_self_share"] = layer_shares(tracer, traced)
        record["spans"] = len(tracer.spans)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
