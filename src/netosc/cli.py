"""Command-line front end: batch analysis and verification reports.

All reports are deterministic JSON (stable key order, 12-significant-digit
floats); trajectories can be exported as CSV.  Exit codes: 0 success,
1 usage, 2 input parse error, 3 numerical failure, 4 model violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import _blas, doubled, dynamics, graph, sqrt_ops, symmetry
from .errors import NetoscError, NotSymmetrizable
from .reporting import canonical_json, matrix_payload

MAX_STEPS = 10**7


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(canonical_json({"error": "Usage", "detail": message}) + "\n")
        sys.exit(1)


def _nonnegative(text):
    """argparse type: a finite number >= 0."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")
    return value


def _positive(text):
    """argparse type: a finite number > 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number > 0")
    return value


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
    sub.add_argument("--t-end", type=_nonnegative, default=10.0)
    sub.add_argument("--dt", type=_positive, default=1e-3)
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


def _bundle_for_graph(g):
    split, sd = symmetry.spectral_decomposition(g)
    lam_I = symmetry.mode_interaction_matrix(split.LI, sd)
    return sqrt_ops.build_bundle(sd, lam_I)


def _default_x0(n):
    x0 = np.zeros(n)
    x0[0] = 1.0
    return x0


def cmd_info(args):
    g = graph.load_edge_list(args.input)
    A, D, _ = graph.build_matrices(g)
    return {
        "n": g.n,
        "num_edges": len(g.edges),
        "labels": list(g.labels),
        "out_degrees": np.diag(D),
        "total_weight": float(A.sum()),
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
    split, sd = symmetry.spectral_decomposition(g)
    return {
        "eigenvalues": sd.eigenvalues,
        "m": sd.m,
        "symmetrizable": split.is_pure_symmetrizable,
    }


def cmd_sqrt(args):
    g = graph.load_edge_list(args.input)
    bundle = _bundle_for_graph(g)
    report = {
        "omega_residual": sqrt_ops.sqrt_residual(bundle),
        "h_residual": sqrt_ops.node_sqrt_residual(bundle),
    }
    if getattr(args, "dump_operators", False):
        report["operators"] = {
            "Lambda": matrix_payload(bundle.Lambda),
            "Omega": matrix_payload(bundle.Omega),
            "Omega0": matrix_payload(bundle.Omega0),
            "OmegaI": matrix_payload(bundle.OmegaI),
            "H": matrix_payload(bundle.H),
            "H0": matrix_payload(bundle.H0),
            "HI": matrix_payload(bundle.HI),
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
    bundle = _bundle_for_graph(g)
    psi0 = symmetry.to_modes(_default_x0(g.n), bundle.sd) if args.psi0 is None else args.psi0
    traj = dynamics.integrate_fundamental(
        bundle.Omega, psi0, sign=args.sign, t_end=args.t_end, dt=args.dt
    )
    if args.format == "csv":
        return traj.to_csv()
    return {
        "sign": args.sign,
        "final_state": traj.states[-1],
        "second_order_residual": dynamics.second_order_residual(traj, bundle.Lambda),
    }


def cmd_product_form(args):
    g = graph.load_edge_list(args.input)
    bundle = _bundle_for_graph(g)
    psi0 = symmetry.to_modes(_default_x0(g.n), bundle.sd) if args.psi0 is None else args.psi0
    traj, traj_I = dynamics.product_form_solve(
        bundle.omega0, bundle.OmegaI, psi0, sign=args.sign, t_end=args.t_end, dt=args.dt
    )
    direct = dynamics.integrate_fundamental(
        bundle.Omega, psi0, sign=args.sign, t_end=args.t_end, dt=args.dt
    )
    gap = float(np.abs(traj.states - direct.states).max())
    if args.format == "csv":
        return traj.to_csv()
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
    branch_sum, gap, _ = doubled.theorem1_checks(
        op, graph.laplacian(g), x0, v0, t_end=args.t_end, dt=args.dt
    )
    return {
        "sparsity_match": doubled.sparsity_match(op, g),
        "theorem1_gap": gap,
        "final_branch_sum": branch_sum.astype(complex),
    }


def cmd_centrality(args):
    g = graph.load_edge_list(args.input)
    report = dynamics.degree_centrality_energy(g)
    return {"total": report.total, "per_node": report.per_node, "labels": list(g.labels)}


def cmd_flaming(args):
    g = graph.load_edge_list(args.input)
    ind = dynamics.flaming_indicator(graph.laplacian(g))
    return {
        "growth_rate": ind.growth_rate,
        "worst_eigenvalue": ind.worst_eigenvalue,
        "verdict": ind.verdict,
    }


def verify_graph(path, args) -> dict:
    g = graph.load_edge_list(path)
    L = graph.laplacian(g)
    f = doubled.sparse_factors(g)
    op = doubled.hat_H_structured(f)
    termD, termSym, termMix = doubled.hat_H_squared_expansion(f)
    eq19 = float(
        np.linalg.norm(termD - termSym - termMix - op.matrix @ op.matrix, "fro")
    )

    rng = np.random.default_rng(args.seed)
    x0 = rng.standard_normal(g.n)
    v0 = rng.standard_normal(g.n)
    _, theorem1_gap, eq22 = doubled.theorem1_checks(
        op, L, x0, v0, t_end=args.t_end, dt=args.dt, eq22=True
    )
    eq26 = doubled.projection_identity_check(op, rng.standard_normal((100, 2 * g.n)))
    return {
        "input": os.path.basename(path),
        "sparsity_match": doubled.sparsity_match(op, g),
        "eq19_residual": eq19,
        "eq22_residual": eq22,
        "eq26_residual": eq26,
        "theorem1_gap": theorem1_gap,
    }


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
    if args.t_end / args.dt > MAX_STEPS:
        parser.error(f"--t-end / --dt asks for more than {MAX_STEPS} time steps")
    try:
        with _blas.single_threaded():
            result = COMMANDS[args.command](args)
    except NetoscError as exc:
        sys.stderr.write(canonical_json(exc.payload()) + "\n")
        return exc.exit_code
    except (FileNotFoundError, IsADirectoryError) as exc:
        error = type(exc).__name__.removesuffix("Error")
        sys.stderr.write(canonical_json({"error": error, "detail": str(exc)}) + "\n")
        return 2
    if isinstance(result, str):
        sys.stdout.write(result)
    else:
        sys.stdout.write(canonical_json(result) + "\n")
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
