"""Command-line front end: generate, validate, solve, attack, tabulate.

Every command is deterministic given identical flags and seeds. Numeric
values are passed as decimal strings of any size. Commands that report
results print a single JSON document; ``table`` prints CSV or markdown.

Exit codes: 0 success, 1 not-found / not-applicable, 2 invalid input,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Optional, Sequence

from . import indexcalc, instance, solvers
from .errors import BudgetExceeded, MdlpError, RankDeficient

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _parse_range(text: str) -> range:
    """Inclusive 'A..B' exponent ranges."""
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected A..B") from None
    if a > b or a < 0:
        raise ValueError(f"bad range {text!r}; need 0 <= A <= B")
    return range(a, b + 1)


def _instance_summary(inst: instance.Instance) -> dict:
    return {
        "n": str(inst.n),
        "n_bits": inst.n.bit_length(),
        "t": inst.t,
        "generators": [str(g) for g in inst.generators],
        "orders": [str(r) for r in inst.orders],
        "beta": str(inst.beta),
        "has_witness": inst.witness is not None,
    }


def _hardness_payload(report: instance.HardnessReport) -> dict:
    collapse = {
        "resistant": report.collapse.resistant,
        "witness_pair": list(report.collapse.witness_pair)
        if report.collapse.witness_pair
        else None,
    }
    if report.collapse.collapse_exponent is not None:
        collapse["collapse_exponent"] = {
            "residue": str(report.collapse.collapse_exponent.residue),
            "modulus": str(report.collapse.collapse_exponent.modulus),
        }
    peel = {
        "resistant": report.peel.resistant,
        "violation": [report.peel.violation[0], str(report.peel.violation[1])]
        if report.peel.violation
        else None,
    }
    return {"collapse": collapse, "peel": peel, "verdict": report.verdict}


def _emit(
    argv: Sequence[str],
    result: dict,
    exit_status: int,
    started: float,
    inst: Optional[instance.Instance] = None,
    work: Optional[int] = None,
) -> int:
    doc = {
        "command": list(argv),
        "instance": _instance_summary(inst) if inst is not None else None,
        "result": result,
        "work": work,
        "wall_ms": round((time.perf_counter() - started) * 1000.0, 3),
        "exit_status": exit_status,
    }
    print(json.dumps(doc, indent=2))
    return exit_status


def _load_instance(path: str) -> instance.Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance.from_json_dict(json.load(fh))


def cmd_gen(args, argv) -> int:
    started = time.perf_counter()
    inst = instance.generate(
        args.seed,
        bits=args.bits,
        t=args.t,
        require_collapse_resistant=True if args.require_collapse_resistant else None,
        require_peel_resistant=True if args.require_peel_resistant else None,
        max_order_product=args.max_order_product,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(instance.dumps(inst) + "\n")
    report = instance.hardness_report(inst)
    return _emit(
        argv,
        {"written": args.out, "hardness": _hardness_payload(report)},
        EXIT_OK,
        started,
        inst,
    )


def cmd_validate(args, argv) -> int:
    started = time.perf_counter()
    inst = _load_instance(args.instance)
    report = instance.hardness_report(inst)
    return _emit(argv, _hardness_payload(report), EXIT_OK, started, inst)


def cmd_solve(args, argv) -> int:
    started = time.perf_counter()
    inst = _load_instance(args.instance)
    sol = solvers.solve(inst, args.strategy, budget=args.budget)
    if sol is None:
        return _emit(argv, {"found": False}, EXIT_NOT_FOUND, started, inst)
    payload = {
        "found": True,
        "method": sol.method,
        "exponents": [str(k) for k in sol.exponents],
    }
    return _emit(argv, payload, EXIT_OK, started, inst, work=sol.work)


def cmd_table(args, argv) -> int:
    k1s = list(_parse_range(args.k1_range))
    k2s = list(_parse_range(args.k2_range))
    rows = instance.truth_table(args.n, args.g1, args.g2, k1s, k2s)
    diverging = instance.reference_divergences(args.n, args.g1, args.g2, k1s, k2s)
    notes = []
    if diverging:
        cells = ", ".join(
            f"(k1={k1}, k2={k2}): {got} (reference says {ref})"
            for k1, k2, got, ref in diverging
        )
        notes.append(
            "note: these cells diverge from the reference table for this "
            "example, which assumed ord(19 mod 35) = 4; the true order is 6: "
            + cells
        )
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["k2\\k1"] + [str(k) for k in k1s])
        for k2, row in zip(k2s, rows):
            writer.writerow([str(k2)] + [str(v) for v in row])
        for note in notes:
            print(f"# {note}")
    else:
        header = ["k2\\k1"] + [str(k) for k in k1s]
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join(["---"] * len(header)) + "|")
        for k2, row in zip(k2s, rows):
            print("| " + " | ".join([str(k2)] + [str(v) for v in row]) + " |")
        for note in notes:
            print(f"\n*{note}*")
    return EXIT_OK


def cmd_indexcalc(args, argv) -> int:
    started = time.perf_counter()
    x = indexcalc.dlp_via_index_calculus(
        args.p, args.alpha, args.beta, bound=args.bound, seed=args.seed
    )
    payload = {
        "log": str(x),
        "verified": pow(args.alpha, x, args.p) == args.beta % args.p,
    }
    return _emit(argv, payload, EXIT_OK, started)


def cmd_rankdemo(args, argv) -> int:
    started = time.perf_counter()
    gens = [int(g) for g in args.g.split(",") if g]
    if not gens:
        raise ValueError("--g needs a comma-separated list of generators")
    report = indexcalc.relation_rank_demo(
        args.p, [args.alpha, args.alpha2], gens, args.beta
    )
    payload = {
        "orders": [str(r) for r in report.orders],
        "equal_orders": report.equal_orders,
        "proportional": report.proportional,
        "factors": [str(u) for u in report.factors] if report.factors else None,
        "ranks": {str(q): r for q, r in report.ranks.items()} if report.ranks else None,
        "note": report.note,
    }
    return _emit(argv, payload, EXIT_OK, started)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdlp",
        description="multiple-discrete-log instances: generate, validate, solve, attack",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bits", type=int, default=16)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--require-collapse-resistant", action="store_true")
    p.add_argument("--require-peel-resistant", action="store_true")
    p.add_argument("--max-order-product", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="hardness-check an instance file")
    p.add_argument("instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="recover the exponents of an instance file")
    p.add_argument("instance")
    p.add_argument("--strategy", choices=solvers.STRATEGIES, default="auto")
    p.add_argument("--budget", type=int, default=solvers.DEFAULT_SEARCH_BUDGET)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("table", help="emit the two-generator product table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g1", type=int, required=True)
    p.add_argument("--g2", type=int, required=True)
    p.add_argument("--k1-range", required=True)
    p.add_argument("--k2-range", required=True)
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("indexcalc", help="index-calculus discrete log over F_p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--bound", type=int, default=indexcalc.DEFAULT_BOUND)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_indexcalc)

    p = sub.add_parser(
        "rankdemo", help="show the rank-1 collapse of per-base log equations"
    )
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--alpha2", type=int, required=True)
    p.add_argument("--g", required=True, help="comma-separated generators")
    p.add_argument("--beta", type=int, required=True)
    p.set_defaults(func=cmd_rankdemo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the invalid-input code
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return args.func(args, argv)
    except (BudgetExceeded, RankDeficient) as exc:
        print(json.dumps({"command": argv, "error": str(exc), "exit_status": EXIT_BUDGET}))
        return EXIT_BUDGET
    except (ValueError, MdlpError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"command": argv, "error": str(exc), "exit_status": EXIT_INVALID}))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
