"""Command-line front end: batch analysis and verification reports.

All reports are deterministic JSON (stable key order, 12-significant-digit
floats); trajectories can be exported as CSV.  Exit codes: 0 success,
1 usage, 2 input parse error, 3 numerical failure (out of memory included),
4 model violation.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

import numpy as np

from . import _blas, doubled, dynamics, graph, sqrt_ops, symmetry
from .errors import GridMismatch, NetoscError, NotSymmetrizable, OutOfMemory
from .reporting import canonical_json


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")  # -1e-3 is a value, as -0.001 is

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(canonical_json({"error": "Usage", "detail": message}) + "\n")
        sys.exit(1)


def _seed(text):
    """argparse type: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 0")
    return value


def _vector(text):
    """argparse type for a comma-separated list of finite numbers."""
    vec = np.array([float(p) for p in text.split(",")])
    if not np.all(np.isfinite(vec)):
        raise argparse.ArgumentTypeError(f"{text!r} holds a non-finite number")
    return vec


def _add_common(sub, name):
    if name == "verify":
        sub.add_argument("--input", required=True, nargs="+", help="edge-list file(s)")
    else:
        sub.add_argument("--input", required=True, help="edge-list file")
    sub.add_argument("--t-end", type=float, default=dynamics.T_END)
    sub.add_argument("--dt", type=float, default=dynamics.DT)
    if name in ("simulate", "fundamental", "product-form", "doubled"):  # they export CSV
        sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--seed", type=_seed, default=0)


@functools.cache  # one parser per process, shared by every run(); do not modify it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="netosc", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name in COMMANDS:
        sub = subs.add_parser(name)
        _add_common(sub, name)
        if name == "sqrt":
            sub.add_argument("--dump-operators", action="store_true")
        if name in ("simulate", "doubled"):
            sub.add_argument(
                "--x0", type=_vector, help="comma-separated initial positions"
            )
            sub.add_argument(
                "--v0", type=_vector, help="comma-separated initial velocities"
            )
        if name in ("fundamental", "product-form"):
            sub.add_argument("--sign", choices=("+", "-"), default="+")
            sub.add_argument(
                "--psi0", type=_vector, help="comma-separated initial mode amplitudes"
            )
    return parser


def _default_x0(n):
    x0 = np.zeros(n)
    x0[0] = 1.0
    return x0


def cmd_info(args):
    g = graph.load_edge_list(args.input)
    d = graph.out_degrees(g)
    return {
        "n": g.n,
        "num_edges": len(g.edges),
        "labels": list(g.labels),
        "out_degrees": d,
        "total_weight": float(d.sum()),
    }


def cmd_check(args):
    g = graph.load_edge_list(args.input)
    try:
        m = symmetry.check_symmetrizable(g)
        return {"symmetrizable": True, "m": m, "violations": []}
    except NotSymmetrizable as exc:
        violation = {"reason": exc.reason}
        if exc.edge is not None:
            violation["edge"] = list(exc.edge)
        return {"symmetrizable": False, "m": None, "violations": [violation]}


def cmd_decompose(args):
    g = graph.load_edge_list(args.input)
    split = symmetry.decompose_laplacian(g)
    return {
        "symmetrizable": split.is_pure_symmetrizable,
        "m": split.m,
        "violations": [],
        "split": {"L0": split.L0, "LI": split.LI},
    }


def cmd_spectrum(args):
    g = graph.load_edge_list(args.input)
    split = symmetry.decompose_laplacian(g)
    return {
        "eigenvalues": symmetry.symmetrized_eigenvalues(split),
        "m": split.m,
        "symmetrizable": split.is_pure_symmetrizable,
    }


def cmd_sqrt(args):
    g = graph.load_edge_list(args.input)
    bundle = sqrt_ops.build_bundle(g)
    report = {
        "omega_residual": sqrt_ops.sqrt_residual(bundle),
        "h_residual": sqrt_ops.node_sqrt_residual(bundle, graph.laplacian(g)),
    }
    if getattr(args, "dump_operators", False):
        report["operators"] = {  # canonical_json writes complex entries as [re, im]
            name: np.asarray(getattr(bundle, name), dtype=complex)
            for name in ("Lambda", "Omega", "Omega0", "OmegaI", "H", "H0", "HI")
        }
    return report


def cmd_simulate(args):
    g = graph.load_edge_list(args.input)
    L = graph.laplacian(g)
    x0 = _default_x0(g.n) if args.x0 is None else args.x0
    v0 = np.zeros(g.n) if args.v0 is None else args.v0
    traj = dynamics.integrate_wave(L, x0, v0, t_end=args.t_end, dt=args.dt)
    if args.format == "csv":
        return traj.to_csv()
    report = {"t_end": args.t_end, "dt": args.dt, "final_state": traj.states[-1]}
    if "diverged_at" in traj.meta:
        report["diverged_at"] = traj.meta["diverged_at"]
    return report


def cmd_fundamental(args):
    g = graph.load_edge_list(args.input)
    bundle = sqrt_ops.build_bundle(g)
    psi0 = symmetry.to_modes(_default_x0(g.n), bundle.sd) if args.psi0 is None else args.psi0
    traj = dynamics.integrate_fundamental(
        bundle.Omega, psi0, sign=args.sign, t_end=args.t_end, dt=args.dt
    )
    if args.format == "csv":
        return traj.to_csv()
    wave = dynamics.wave_propagator(bundle.Lambda, args.dt)
    residual = dynamics.recurrence_residual(traj.meta["step"], wave, bundle.Lambda, args.dt)
    return {"sign": args.sign, "final_state": traj.states[-1], "second_order_residual": residual}


def cmd_product_form(args):
    g = graph.load_edge_list(args.input)
    bundle = sqrt_ops.build_bundle(g)
    psi0 = symmetry.to_modes(_default_x0(g.n), bundle.sd) if args.psi0 is None else args.psi0
    traj, traj_I = dynamics.product_form_solve(
        bundle.omega0, bundle.OmegaI, psi0, sign=args.sign, t_end=args.t_end, dt=args.dt
    )
    if args.format == "csv":
        return traj.to_csv()
    direct = dynamics.integrate_fundamental(
        bundle.Omega, psi0, sign=args.sign, t_end=args.t_end, dt=args.dt
    )
    gap = float(np.abs(traj.states - direct.states).max())
    return {"sign": args.sign, "sup_gap_vs_direct": gap, "final_state": traj.states[-1]}


def cmd_doubled(args):
    g = graph.load_edge_list(args.input)
    f = doubled.sparse_factors(g)
    x0 = _default_x0(g.n) if args.x0 is None else args.x0
    v0 = np.zeros(g.n) if args.v0 is None else args.v0
    op = doubled.hat_H_structured(f)
    if args.format == "csv":
        x_hat0 = doubled.lift_initial_conditions(f, x0, v0)
        return doubled.integrate_doubled(op, x_hat0, t_end=args.t_end, dt=args.dt).to_csv()
    step = doubled.structured_step(op, args.dt)
    branch_sum = doubled.final_branch_sum(op, step, x0, v0, t_end=args.t_end, dt=args.dt)
    wave = dynamics.wave_propagator(graph.laplacian(g), args.dt)
    stepped = dynamics.grid_rows(args.t_end, args.dt) > 1   # a one-row run has no step to check
    return {
        "sparsity_match": doubled.sparsity_match(op, g),
        "theorem1_gap": doubled.theorem1_residual(op, step, wave) if stepped else 0.0,
        "final_branch_sum": branch_sum.astype(complex),
    }


def cmd_centrality(args):
    g = graph.load_edge_list(args.input)
    report = dynamics.degree_centrality_energy(g)
    return {"total": report.total, "per_node": report.per_node, "labels": list(g.labels)}


def cmd_flaming(args):
    ind = dynamics.graph_flaming_indicator(graph.load_edge_list(args.input))
    return {
        "growth_rate": ind.growth_rate,
        "worst_eigenvalue": ind.worst_eigenvalue,
        "verdict": ind.verdict,
    }


def verify_graph(path, args) -> dict:
    g = graph.load_edge_list(path)
    L = graph.laplacian(g)
    op = doubled.hat_H_structured(doubled.sparse_factors(g))
    step = doubled.structured_step(op, args.dt)
    wave = dynamics.wave_propagator(L, args.dt)
    report = {
        "input": os.path.basename(path),
        "sparsity_match": doubled.sparsity_match(op, g),
        "eq22_residual": dynamics.recurrence_residual(step, wave, L, args.dt),
        "theorem1_gap": doubled.theorem1_residual(op, step, wave),
    }
    del step, wave  # the two 2n x 2n steps go before op.square, eq19's and eq26's
    x_hat = np.random.default_rng(args.seed).standard_normal((100, 2 * g.n))
    report["eq19_residual"] = doubled.squared_expansion_residual(op)
    report["eq26_residual"] = doubled.projection_identity_check(op, x_hat, L)
    return report


def cmd_verify(args):
    return [verify_graph(path, args) for path in args.input]


COMMANDS = {
    "info": cmd_info,
    "check": cmd_check,
    "decompose": cmd_decompose,
    "spectrum": cmd_spectrum,
    "sqrt": cmd_sqrt,
    "simulate": cmd_simulate,
    "fundamental": cmd_fundamental,
    "product-form": cmd_product_form,
    "doubled": cmd_doubled,
    "centrality": cmd_centrality,
    "flaming": cmd_flaming,
    "verify": cmd_verify,
}


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        dynamics.grid_rows(args.t_end, args.dt)
    except GridMismatch as exc:
        parser.error(f"--t-end / --dt: {exc}")
    try:
        try:
            with _blas.single_threaded():
                result = COMMANDS[args.command](args)
                text = result if isinstance(result, str) else canonical_json(result) + "\n"
        except MemoryError as exc:  # nothing is written yet: the output text is built here too
            raise OutOfMemory(str(exc) or "out of memory") from exc
    except NetoscError as exc:
        sys.stderr.write(canonical_json(exc.payload()) + "\n")
        return exc.exit_code
    except OSError as exc:  # the input cannot be opened or read
        error = "OSError" if type(exc) is OSError else type(exc).__name__.removesuffix("Error")
        sys.stderr.write(canonical_json({"error": error, "detail": str(exc)}) + "\n")
        return 2
    sys.stdout.write(text)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
