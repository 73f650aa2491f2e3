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
from .algorithms import collision_benchmark, erasing_setcomp_decide
from .degreebound import (
    CONSTANTS,
    chain_report_for_poly,
    family,
    identity_points,
    verify_inequality_chain,
)
from .instances import (
    ConfigError,
    EnumerationTooLarge,
    Instance,
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
from .simulator import QueryAlgorithm, acceptance_probability, sample_measurement

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


def config_echo(args: argparse.Namespace) -> dict:
    """Everything that determines the report content; the destination
    path is deliberately excluded so reruns are byte-identical."""
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "output")}
    cfg["subcommand"] = args.subcommand
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_lattice(args) -> int:
    grid, slack = (super_quasilattice_points, 100) if args.super_points else (quasilattice_points, 10)
    if args.slack is not None:
        slack = args.slack
    rows = [p._asdict() for p in grid(args.n, args.T, args.G, slack=slack)]
    text = emit_report(config_echo(args), rows, rows, args.format, args.output, constants=CONSTANTS)
    if args.output:
        print(f"wrote {len(rows)} points to {args.output}")
    else:
        sys.stdout.write(text)
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
    p = acceptance_probability(alg, inst, mode=args.mode)
    result = {
        "algorithm": alg.name,
        "n": alg.n,
        "T": alg.T,
        "mode": args.mode,
        "instance": inst.to_json(),
        "acceptance_probability": p.as_fraction() if args.mode == "exact" else p,
    }
    if args.shots:
        final = alg.run(inst, mode="float")
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
    text = emit_report(config_echo(args), result, [row], args.format, args.output, constants=CONSTANTS)
    if args.output:
        print("acceptance_probability =", render_number(result["acceptance_probability"]))
    else:
        sys.stdout.write(text)
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
            "monomial": ";".join(f"{f.register}{f.position}={f.value}" for f in m.factors) or "1",
            "coeff_rational": c.a,
            "coeff_sqrt2": c.b,
        }
        for m, c in poly.sorted_terms()
    ]
    text = emit_report(config_echo(args), result, rows, args.format, args.output, constants=CONSTANTS)
    if args.output:
        print(f"degree {poly.degree}, {len(poly.terms)} terms -> {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify_gamma(args) -> int:
    if min(args.n) < 1:
        raise ConfigError(f"--n must be >= 1, got {min(args.n)}")
    if args.max_degree < 0:
        raise ConfigError(f"--max-degree must be >= 0, got {args.max_degree}")
    rows = []
    all_equal = True
    for n in args.n:
        monos = list(all_monomials(n, args.max_degree))
        for g, N in divisor_points(n, args.max_N):
            brute = gamma_bruteforce_sweep(monos, g, N, n, cap=args.enum_cap)
            for m, b in zip(monos, brute):
                c = gamma_closed(m, g, N, n)
                equal = c == b
                all_equal &= equal
                rows.append(
                    {
                        "n": n,
                        "g": g,
                        "N": N,
                        "monomial": ";".join(
                            f"{f.register}{f.position}={f.value}" for f in m.factors
                        )
                        or "1",
                        "closed": c,
                        "brute": b,
                        "equal": equal,
                    }
                )
    result = {"all_equal": all_equal, "cases": len(rows)}
    text = emit_report(
        config_echo(args), {"summary": result, "rows": rows}, rows, args.format,
        args.output, constants=CONSTANTS,
    )
    print(f"all equal: {str(all_equal).lower()} ({len(rows)} cases)")
    if not args.output:
        sys.stdout.write(text)
    return EXIT_OK if all_equal else EXIT_FAILURE


def cmd_verify_identity(args) -> int:
    alg = load_algorithm(args.algorithm)
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
    text = emit_report(config_echo(args), result, rows, args.format, args.output, constants=CONSTANTS)
    print(f"identity exact: {str(exact_everywhere).lower()} ({len(rows)} points)")
    if not args.output:
        sys.stdout.write(text)
    return EXIT_OK if exact_everywhere else EXIT_FAILURE


def cmd_chain(args) -> int:
    if args.negative_control:
        steep = LatticePoly(2, {(1, 0): Fraction(args.steepness)})
        report = chain_report_for_poly(
            steep, n=args.control_n, T=args.control_T, G=args.control_G,
            label="negative-control-steep-poly",
        )
    else:
        if not args.algorithm:
            raise ConfigError("chain needs --algorithm or --negative-control")
        alg = load_algorithm(args.algorithm)
        report = verify_inequality_chain(
            alg, G=args.G, mc_samples=args.mc_samples, seed=args.seed, cap=args.enum_cap
        )
    header, point_rows = report.csv_rows()
    rows = [dict(zip(header, row)) for row in point_rows]
    text = emit_report(config_echo(args), report.to_json(), rows, args.format, args.output, constants=CONSTANTS)
    print(
        f"chain[{report.algorithm}] d={report.d_value:.6g} "
        f"bound={report.derived_bound:.6g} 2T={2 * report.T} "
        f"consistent={str(report.consistent).lower()}"
    )
    if not args.output:
        sys.stdout.write(text)
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
        decision = erasing_setcomp_decide(inst, "shots", shots=args.shots, rng=rng)
        result["decision"] = decision
    else:
        p = erasing_setcomp_decide(inst, args.mode)
        result["outcome1_probability"] = p
    rows = [dict(result)]
    text = emit_report(config_echo(args), result, rows, args.format, args.output, constants=CONSTANTS)
    if "outcome1_probability" in result:
        print("P(1) =", render_number(result["outcome1_probability"]))
    else:
        print("decision =", result["decision"])
    if not args.output:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bench(args) -> int:
    rows = []
    for algorithm in args.algorithms.split(","):
        for n in (int(s) for s in args.sizes.split(",")):
            rows.append(
                collision_benchmark(
                    algorithm.strip(), n, args.trials, args.seed, budget=args.budget
                )
            )
    text = emit_report(config_echo(args), rows, rows, args.format, args.output, constants=CONSTANTS)
    if args.output:
        print(f"wrote {len(rows)} benchmark rows to {args.output}")
    else:
        sys.stdout.write(text)
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
    p.add_argument("--enum-cap", type=int, default=None, help="enumeration cap override")


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
    p.add_argument("--instance", type=str, default=None, help="instance file")
    p.add_argument("--point", type=lambda s: [int(v) for v in s.split(",")], default=None,
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
    p.add_argument("--instance", type=str, default=None)
    p.add_argument("--equal", action="store_true")
    p.add_argument("--disjoint", action="store_true")
    p.add_argument("--boundary", action="store_true", help="union exactly 1.1n")
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
    except EnumerationTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
