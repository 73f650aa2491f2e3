"""Experiment driver: every verification suite and benchmark as a
seeded, deterministic subcommand.

    collisionlab lattice --n 100 --T 3 --G 2
    collisionlab simulate --algorithm coincidence-4 --point 2,4 --seed 1
    collisionlab extract --algorithm coincidence-4 --output poly.json
    collisionlab verify-gamma --n 4 --max-degree 3 --max-N 8
    collisionlab verify-identity --algorithm coincidence-4 --G 2
    collisionlab chain --algorithm coincidence-4 --G 2
    collisionlab chain --negative-control
    collisionlab setcomp --equal --n 4 --mode exact
    collisionlab bench --algorithms bht,birthday --sizes 27,64 --trials 500

Identical config and seed produce byte-identical reports.  Exit codes:
0 success, 1 runtime failure, 2 invalid configuration, 3 enumeration
cap exceeded.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import circuits
from .algorithms import collision_benchmark, erasing_setcomp_decide, erasing_setcomp_probability
from .degreebound import (
    CONSTANTS,
    chain_report_for_poly,
    family,
    identity_grid,
    identity_points,
    verify_inequality_chain,
)
from .instances import (
    ConfigError,
    EnumerationTooLarge,
    Instance,
    check_enumerable,
    divisor_points,
    quasilattice_points,
    sample_input,
    set_union_size,
    super_quasilattice_points,
)
from .lattice import VARIABLE_NAMES, LatticePoly
from .polymethod import (
    all_monomials,
    assemble_q,  # unused here; perfbench/tracer.py patches cli.assemble_q by name
    extract_polynomial,
    gamma_bruteforce_sweep,
    gamma_closed,
)
from .reports import emit_report, render_number
from .simulator import QueryAlgorithm, final_acceptance, sample_measurement

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_CONFIG = 2
EXIT_CAP = 3


def load_algorithm(name_or_path: str) -> QueryAlgorithm:
    """Builtin name, or @path / path.json for a description file."""
    if name_or_path.startswith("@"):
        return QueryAlgorithm.load(name_or_path[1:])
    if name_or_path.endswith(".json"):
        return QueryAlgorithm.load(name_or_path)
    return circuits.reference_algorithm(name_or_path)


def monomial_label(m) -> str:
    """A monomial as its report label, e.g. "x1=2;x3=2", or "1"."""
    return ";".join(f"{f.register}{f.position}={f.value}" for f in m.factors) or "1"


def config_echo(args: argparse.Namespace) -> dict:
    """Everything that determines the report content; the destination
    path is deliberately excluded so reruns are byte-identical."""
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "output")}
    cfg["subcommand"] = args.subcommand
    return cfg


def report(args, results, rows: list[dict], summary: str | None, header: list[str] | None = None) -> None:
    """The one output path: render the report (JSON from results, CSV from
    rows) and write it to --output if given, then print the summary line
    if there is one.  Without --output the report goes to stdout and the
    summary to stderr, so that stdout is the report alone."""
    text = emit_report(config_echo(args), results, rows, args.format, args.output, CONSTANTS, header)
    if summary:
        print(summary, file=sys.stdout if args.output else sys.stderr)
    if not args.output:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_lattice(args) -> int:
    grid = super_quasilattice_points if args.super_points else quasilattice_points
    slack = {} if args.slack is None else {"slack": args.slack}  # else the grid's default
    rows = [p._asdict() for p in grid(args.n, args.T, args.G, **slack)]
    summary = f"wrote {len(rows)} points to {args.output}"
    report(args, rows, rows, summary if args.output else None)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.shots < 0:
        raise ConfigError(f"--shots must be >= 0, got {args.shots}")
    alg = load_algorithm(args.algorithm)
    rng = random.Random(args.seed)
    if args.instance:
        inst = Instance.load(args.instance)
    elif args.point is not None:
        fam = family(alg.kind)
        if len(args.point) != fam.arity:
            names = ",".join(VARIABLE_NAMES[fam.arity])
            raise ConfigError(f"--point needs {names} for a {alg.kind} algorithm")
        inst = sample_input(args.point, alg.n, rng)
    else:
        raise ConfigError("simulate needs --instance or --point")
    final = alg.run(inst)
    p = final_acceptance(final, args.mode)
    result = {
        "algorithm": alg.name,
        "n": alg.n,
        "T": alg.T,
        "mode": args.mode,
        "instance": inst.to_json(),
        "acceptance_probability": p.as_fraction() if args.mode == "exact" else p,
    }
    if args.shots:
        counts: dict[str, int] = {}
        for _ in range(args.shots):
            b = sample_measurement(final, rng)
            key = f"w{b.workspace}:i{b.index}:z{b.output}"
            counts[key] = counts.get(key, 0) + 1
        result["measurements"] = dict(sorted(counts.items()))
    row = {
        "algorithm": alg.name,
        "n": alg.n,
        "mode": args.mode,
        "acceptance_probability": result["acceptance_probability"],
    }
    summary = f"acceptance_probability = {render_number(result['acceptance_probability'])}"
    report(args, result, [row], summary if args.output else None)
    return EXIT_OK


def cmd_extract(args) -> int:
    alg = load_algorithm(args.algorithm)
    poly = extract_polynomial(alg)
    result = {
        "algorithm": alg.name,
        "n": alg.n,
        "T": alg.T,
        "degree": poly.degree,
        "num_terms": len(poly.terms),
        "polynomial": poly.to_json(),
    }
    rows = [
        {
            "monomial": monomial_label(m),
            "coeff_rational": c.a,
            "coeff_sqrt2": c.b,
        }
        for m, c in poly.sorted_terms()
    ]
    summary = f"degree {poly.degree}, {len(poly.terms)} terms -> {args.output}"
    report(args, result, rows, summary if args.output else None)
    return EXIT_OK


def cmd_verify_gamma(args) -> int:
    if min(args.n) < 1:
        raise ConfigError(f"--n must be >= 1, got {min(args.n)}")
    if args.max_degree < 0:
        raise ConfigError(f"--max-degree must be >= 0, got {args.max_degree}")
    if max(args.n) > args.max_N:
        raise ConfigError(f"--n {max(args.n)} exceeds --max-N {args.max_N}: no N in [n, max_N]")
    sweep = [(n, divisor_points(n, args.max_N)) for n in args.n]
    for n, points in sweep:  # closed-form counts: fail before any monomial is built
        for point in points:
            check_enumerable(point, n, args.enum_cap)
    rows = []
    all_equal = True
    for n, points in sweep:
        monos = list(all_monomials(n, args.max_degree))
        labels = [monomial_label(m) for m in monos]
        for point in points:
            fields = {"n": n, **point._asdict()}
            brute = gamma_bruteforce_sweep(monos, point, n, cap=args.enum_cap)
            for m, label, b in zip(monos, labels, brute):
                c = gamma_closed(m, point, n)
                equal = c == b
                all_equal &= equal
                rows.append({**fields, "monomial": label, "closed": c, "brute": b, "equal": equal})
    result = {"all_equal": all_equal, "cases": len(rows)}
    report(args, {"summary": result, "rows": rows}, rows,
           f"all equal: {str(all_equal).lower()} ({len(rows)} cases)")
    return EXIT_OK if all_equal else EXIT_FAILURE


def cmd_verify_identity(args) -> int:
    alg = load_algorithm(args.algorithm)
    for pt in identity_grid(alg, args.G):  # closed-form counts: fail before extraction
        check_enumerable(pt, alg.n, args.enum_cap)
    poly = extract_polynomial(alg)
    q = family(alg.kind).assemble(poly, alg.n, alg.T)
    rows = []
    exact_everywhere = True
    for pt, p_val, q_val, pref, _ in identity_points(alg, poly, q, args.G, args.enum_cap):
        ok = p_val == pref * q_val
        exact_everywhere &= ok
        rows.append(
            {
                **pt._asdict(),
                "P": p_val,
                "q": q_val,
                "prefactor": pref,
                "abs_dev": abs(p_val - pref * q_val),
                "exact_match": ok,
            }
        )
    result = {"algorithm": alg.name, "identity_exact": exact_everywhere, "points": rows}
    report(args, result, rows, f"identity exact: {str(exact_everywhere).lower()} ({len(rows)} points)")
    return EXIT_OK if exact_everywhere else EXIT_FAILURE


def cmd_chain(args) -> int:
    if args.negative_control and args.algorithm:
        raise ConfigError("chain takes --algorithm or --negative-control, not both")
    if args.negative_control:
        try:
            float(args.steepness)
        except OverflowError:
            raise ConfigError("--steepness must fit a finite float") from None
        steep = LatticePoly(2, {(1, 0): Fraction(args.steepness)})
        chain = chain_report_for_poly(
            steep, n=args.control_n, T=args.control_T, G=args.control_G,
            label="negative-control-steep-poly",
        )
    else:
        if not args.algorithm:
            raise ConfigError("chain needs --algorithm or --negative-control")
        alg = load_algorithm(args.algorithm)
        chain = verify_inequality_chain(
            alg, G=args.G, mc_samples=args.mc_samples, seed=args.seed, cap=args.enum_cap
        )
    header, rows = chain.csv_rows()
    summary = (
        f"chain[{chain.algorithm}] d={chain.d_value:.6g} "
        f"bound={chain.derived_bound:.6g} cap={chain.degree_cap} "
        f"consistent={str(chain.consistent).lower()}"
    )
    report(args, chain.to_json(), rows, summary, header=header)
    return EXIT_OK


def cmd_setcomp(args) -> int:
    rng = random.Random(args.seed)
    n = args.n
    if args.instance:
        inst = Instance.load(args.instance)
        n = inst.n
    elif n < 1:
        raise ConfigError(f"--n must be >= 1, got {n}")
    elif args.equal:
        x = tuple(range(1, n + 1))
        y = tuple(reversed(range(1, n + 1)))
        inst = Instance(kind="setcomp", n=n, x=x, y=y)
    elif args.disjoint:
        inst = Instance(
            kind="setcomp", n=n, x=tuple(range(1, n + 1)), y=tuple(range(n + 1, 2 * n + 1))
        )
    elif args.boundary:
        overlap = n - max(1, n // 10)
        x = tuple(range(1, n + 1))
        y = tuple(range(n - overlap + 1, n + 1)) + tuple(range(n + 1, n + 1 + (n - overlap)))
        inst = Instance(kind="setcomp", n=n, x=x, y=y)
    else:
        raise ConfigError("setcomp needs --instance, --equal, --disjoint or --boundary")
    result: dict = {"n": n, "union_size": set_union_size(inst), "mode": args.mode}
    if args.mode == "shots":
        result["decision"] = erasing_setcomp_decide(inst, args.shots, rng)
        summary = f"decision = {result['decision']}"
    else:
        exact = erasing_setcomp_probability(inst)
        result["outcome1_probability"] = p = exact if args.mode == "exact" else float(exact)
        summary = f"P(1) = {render_number(p)}"
    report(args, result, [dict(result)], summary)
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = []
    for entry in args.sizes.split(","):
        try:
            sizes.append(int(entry))
        except ValueError:
            raise ConfigError(f"--sizes entry {entry!r} is not an integer") from None
    rows = [
        collision_benchmark(algorithm.strip(), n, args.trials, args.seed, budget=args.budget)
        for algorithm in args.algorithms.split(",")
        for n in sizes
    ]
    summary = f"wrote {len(rows)} benchmark rows to {args.output}"
    report(args, rows, rows, summary if args.output else None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="rng seed (echoed in reports)")
    p.add_argument("--output", type=str, default=None, help="report file path")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def add_enum_cap(p: argparse.ArgumentParser):
    """Only the subcommands that enumerate latent draws take a cap."""
    p.add_argument("--enum-cap", type=int, default=None, help="enumeration cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collisionlab",
        description="query-algorithm simulation and collision-bound verification",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("lattice", help="list admissible (g, N[, M]) points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--G", type=int, required=True)
    p.add_argument("--super", dest="super_points", action="store_true")
    p.add_argument("--slack", type=int, default=None, help="window denominator constant")
    add_common(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("simulate", help="run an algorithm on an instance")
    p.add_argument("--algorithm", required=True, help="builtin name or @file.json")
    given = p.add_mutually_exclusive_group()
    given.add_argument("--instance", type=str, default=None, help="instance file")
    given.add_argument("--point", type=lambda s: [int(v) for v in s.split(",")], default=None,
                       help="sample the instance from the family at g,N[,M]")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--shots", type=int, default=0, help="also sample measurements")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("extract", help="dump the acceptance polynomial")
    p.add_argument("--algorithm", required=True)
    add_common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify-gamma", help="closed-form vs brute-force expectations")
    p.add_argument("--n", type=int, nargs="+", default=[4])
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--max-N", type=int, default=8)
    add_common(p)
    add_enum_cap(p)
    p.set_defaults(func=cmd_verify_gamma)

    p = sub.add_parser("verify-identity", help="P = prefactor * q sweep")
    p.add_argument("--algorithm", required=True)
    p.add_argument("--G", type=int, default=2)
    add_common(p)
    add_enum_cap(p)
    p.set_defaults(func=cmd_verify_identity)

    p = sub.add_parser("chain", help="end-to-end degree-bound consistency report")
    p.add_argument("--algorithm", type=str, default=None)
    p.add_argument("--G", type=int, default=2)
    p.add_argument("--mc-samples", type=int, default=2000)
    p.add_argument("--negative-control", action="store_true",
                   help="inject a steep synthetic polynomial instead of an algorithm")
    p.add_argument("--steepness", type=int, default=10)
    p.add_argument("--control-n", type=int, default=10**9)
    p.add_argument("--control-T", type=int, default=1)
    p.add_argument("--control-G", type=int, default=10**4)
    add_common(p)
    add_enum_cap(p)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("setcomp", help="erasing-oracle set comparison demo")
    p.add_argument("--n", type=int, default=4)
    given = p.add_mutually_exclusive_group()
    given.add_argument("--instance", type=str, default=None)
    given.add_argument("--equal", action="store_true")
    given.add_argument("--disjoint", action="store_true")
    given.add_argument("--boundary", action="store_true",
                       help="union n + max(1, n // 10): 22 at n = 20, 5 at n = 4")
    p.add_argument("--mode", choices=("exact", "float", "shots"), default="exact")
    p.add_argument("--shots", type=int, default=20)
    add_common(p)
    p.set_defaults(func=cmd_setcomp)

    p = sub.add_parser("bench", help="collision-finding benchmark tables")
    p.add_argument("--algorithms", type=str, default="bht,birthday")
    p.add_argument("--sizes", type=str, default="27,64")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--budget", type=int, default=None, help="birthday query budget")
    add_common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EnumerationTooLarge, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, EnumerationTooLarge):
            return EXIT_CAP
        return EXIT_BAD_CONFIG if isinstance(exc, ConfigError) else EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
