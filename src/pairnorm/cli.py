"""Command line front end.

Every subcommand reads one JSON file, writes one JSON report to stdout, and
keeps human diagnostics on stderr.  Exit codes: 0 success, 1 validation
error, 2 solver non-convergence, 3 an invariant-violation report (axiom
failures, blend or bound violations).

Flags override file values, which override built-in defaults.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import approx, jsonio, sequences, spaces

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VIOLATIONS = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # keep argparse from sys.exit(2)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pairnorm", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("check-axioms", help="randomized 2-norm axiom sweep")
    p.add_argument("file", help="space JSON")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("distance", help="distance from a point to a subspace")
    p.add_argument("file", help="problem JSON with exactly one target (the point)")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", type=int)

    p = sub.add_parser("solve", help="best simultaneous approximation")
    p.add_argument("file", help="problem JSON")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--oracle", action="store_true", help="also run the grid oracle")
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--resolution", type=int, default=101)

    p = sub.add_parser("certificate", help="dual certificate for a subspace distance")
    p.add_argument("file", help="problem JSON with exactly one target (the point)")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("blend", help="objective along a segment of equal-value points")
    p.add_argument("file", help="problem JSON with a blend section (g1, g2, lambdas)")
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("uniqueness", help="exact optimal set: one point or a flat face")
    p.add_argument("file", help="problem JSON")

    p = sub.add_parser("sequence", help="finite-prefix convergence diagnostics")
    p.add_argument("file", help="sequence JSON")
    p.add_argument("--tail-from", type=int, default=None)

    return parser


def _emit(payload) -> None:
    sys.stdout.write(jsonio.dumps(jsonio.to_dict(payload)) + "\n")


def _single_target_parts(problem: approx.SimultaneousProblem):
    if problem.targets.shape[0] != 1:
        raise jsonio.ValidationError(
            "targets", "this subcommand treats the single target as the point x0"
        )
    return problem.targets[0], problem.g_basis, problem.b


def _cmd_check_axioms(args) -> int:
    space = jsonio.space_from_dict(jsonio.load_json(args.file))
    report = spaces.check_axioms(space, args.samples, seed=args.seed, tol=args.tol)
    _emit(report)
    if not report.passed:
        print(f"{len(report.violations)} axiom violation(s) found", file=sys.stderr)
        return EXIT_VIOLATIONS
    return EXIT_OK


def _overridden_solver(problem, args) -> approx.SolverConfig:
    return jsonio.apply_solver_overrides(problem.solver, tol=args.tol, max_iters=args.max_iters)


def _convergence_exit(converged: bool) -> int:
    if not converged:
        print("solver did not converge within the iteration budget", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_distance(args) -> int:
    problem, _ = jsonio.problem_from_dict(jsonio.load_json(args.file))
    _, basis, b = _single_target_parts(problem)
    cfg = _overridden_solver(problem, args)
    res = approx._fit(problem.space, problem.targets, basis, b, cfg)
    _emit({"delta": res.value, "w_star": res.point})
    return _convergence_exit(res.converged)


def _cmd_solve(args) -> int:
    problem, _ = jsonio.problem_from_dict(jsonio.load_json(args.file))
    problem.solver = _overridden_solver(problem, args)
    report = approx.solve(problem)
    payload = {"solver": problem.solver, **jsonio.to_dict(report)}
    if args.oracle:
        value, g = approx.oracle_solve(problem, args.radius, args.resolution)
        payload["oracle"] = dict(value=value, g=g, radius=args.radius, resolution=args.resolution)
    _emit(payload)
    return _convergence_exit(report.converged)


def _cmd_certificate(args) -> int:
    problem, _ = jsonio.problem_from_dict(jsonio.load_json(args.file))
    x0, basis, b = _single_target_parts(problem)
    cert = approx.certificate(problem.space, x0, basis, b)
    soundness = approx.certificate_soundness(
        problem.space, cert, x0, basis, b, samples=args.samples, seed=args.seed
    )
    _emit({**jsonio.to_dict(cert), "soundness": soundness})
    if not soundness.passed:
        print("certificate failed its sampled bound", file=sys.stderr)
        return EXIT_VIOLATIONS
    return EXIT_OK


def _cmd_blend(args) -> int:
    problem, blend = jsonio.problem_from_dict(jsonio.load_json(args.file))
    if blend is None:
        raise jsonio.ValidationError("blend", "missing required section for this subcommand")
    report = approx.blend_check(
        problem, blend["g1"], blend["g2"], blend.get("lambdas"), tol=args.tol
    )
    _emit(report)
    if not report.passed:
        print("blend exceeded the endpoint value", file=sys.stderr)
        return EXIT_VIOLATIONS
    return EXIT_OK


def _cmd_uniqueness(args) -> int:
    problem, _ = jsonio.problem_from_dict(jsonio.load_json(args.file))
    _emit(approx.uniqueness_probe(problem))
    return EXIT_OK


def _cmd_sequence(args) -> int:
    space, seq, limit, probe_dirs = jsonio.sequence_from_dict(jsonio.load_json(args.file))
    payload: dict = {}
    exit_code = EXIT_OK
    # the second half, but at least the last two elements for a 2-element prefix
    n = len(seq)
    tail_from = args.tail_from if args.tail_from is not None else min(n // 2, n - 2)
    if seq.probe_y is not None and seq.probe_z is not None:
        payload["cauchy"] = sequences.cauchy_profile(space, seq, tail_from)
    if limit is not None and seq.probe_y is not None:
        report = sequences.norm_limit_check(space, seq, limit, seq.probe_y)
        payload["norm_limit"] = report
        if not report.passed:
            print("reverse-triangle bound violated", file=sys.stderr)
            exit_code = EXIT_VIOLATIONS
    if limit is not None and probe_dirs:
        payload["convergence"] = sequences.convergence_profile(
            space, seq, limit, probe_dirs, tail_from=args.tail_from
        )
    if not payload:
        raise jsonio.ValidationError(
            "probes", "nothing to compute; provide probes y and z, or a limit"
        )
    _emit(payload)
    return exit_code


_COMMANDS = {
    "check-axioms": _cmd_check_axioms,
    "distance": _cmd_distance,
    "solve": _cmd_solve,
    "certificate": _cmd_certificate,
    "blend": _cmd_blend,
    "uniqueness": _cmd_uniqueness,
    "sequence": _cmd_sequence,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        _emit({"error": {"message": str(exc)}})
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except jsonio.ValidationError as exc:
        _emit({"error": {"field": exc.field, "message": exc.message}})
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        _emit({"error": {"message": str(exc)}})
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())
