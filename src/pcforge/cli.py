"""Command line front end.

JSON reports go to standard output (stable key order, so reports are
byte-reproducible); human-readable text goes to standard error.  Exit
codes: 0 = true verdict or success, 1 = false verdict, 2 = usage, parse,
or precondition error, 3 = enumeration limit exceeded.

Each handler reads its input files through `_read` and returns
``(payload, message, ok)``; `main` alone builds and prints the report and
the message and turns `ok` or a typed error into the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time

from . import acceptance
from .cnf import CnfFormula, EncodingFormula, literal_key, make_clause, parse_dimacs, write_dimacs
from .deciders import DECIDER_LIMIT, is_absorbed, is_pc, is_urc, reduce_pc_irredundant, reduce_urc_irredundant
from .dual_rail import dual_rail, pc_via_dual_rail
from .errors import LimitError, NotQHornError, PcforgeError
from .families import FAMILY_NAMES, companions, gen_cycle_extension, generate
from .propagation import up_closure
from .qhorn import compile_urc_encoding, normalize, qhorn_sat, recognize_qhorn
from .semantics import enumerate_models, equivalent, is_encoding_of, prime_implicates

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

# a literal list: ASCII integers (-?[0-9]+) separated by commas or whitespace
_LITERAL_LIST = re.compile(r"[\s,]*(?:-?[0-9]+(?:[\s,]+-?[0-9]+)*[\s,]*)?", re.ASCII)


def _read(path: str, inputs: dict[str, str]) -> CnfFormula | EncodingFormula:
    """Read `path` once, record the sha256 of its bytes in `inputs`, and parse those bytes."""
    with open(path, "rb") as handle:
        data = handle.read()
    inputs[path] = hashlib.sha256(data).hexdigest()
    return parse_dimacs(data)


def _formula(parsed: CnfFormula | EncodingFormula) -> CnfFormula:
    return parsed.formula if isinstance(parsed, EncodingFormula) else parsed


def _literals(text: str) -> list[int]:
    if not _LITERAL_LIST.fullmatch(text):
        raise PcforgeError(f"bad literal list {text!r}: expected integers separated by commas or whitespace")
    return [int(tok) for tok in re.findall(r"-?[0-9]+", text)]


def _output(path: str | None, payload: dict, key: str, obj, header: str = "") -> None:
    """The -o rule: write `obj` as DIMACS, after `header`, to `path`.

    Without a path the payload gets `obj` under `key` instead: its DIMACS
    text for the key "dimacs", its clause list for any other key.
    """
    if path:
        with open(path, "w") as handle:
            handle.write(header + write_dimacs(obj))
    else:
        payload[key] = write_dimacs(obj) if key == "dimacs" else [list(c) for c in _formula(obj).clauses]


def _cmd_up(args, inputs: dict[str, str]) -> tuple[dict, str, bool]:
    formula = _formula(_read(args.file, inputs))
    result = up_closure(formula, frozenset(_literals(args.assume)))
    derived = sorted(result.literals, key=literal_key)
    payload = {"status": result.status, "derived": derived}
    if result.empty_clause is not None:
        payload["empty_clause"] = list(result.empty_clause)
    return payload, "CONFLICT" if result.conflict else " ".join(str(l) for l in derived), True


def _cmd_check(args, inputs: dict[str, str]) -> tuple[dict, str, bool]:
    formula = _formula(_read(args.file, inputs))
    payload: dict = {"property": args.property}
    if args.property == "pc-dr":
        verdict = pc_via_dual_rail(formula)
    else:
        decide = is_pc if args.property == "pc" else is_urc
        report = decide(formula, limit=args.limit, method=args.method)
        verdict = report.verdict
        if args.witness and report.witness is not None:
            payload["witness"] = sorted(report.witness, key=literal_key)
            if report.literal is not None:
                payload["witness_literal"] = report.literal
    payload["verdict"] = verdict
    return payload, f"{args.property} = {verdict}", verdict


def _cmd_primes(args, inputs: dict[str, str]) -> tuple[dict, str, bool]:
    result = prime_implicates(_formula(_read(args.file, inputs)))
    payload = {"count": len(result.clauses)}
    _output(args.output, payload, "clauses", result)
    return payload, f"{len(result.clauses)} prime implicates", True


def _cmd_equiv(args, inputs: dict[str, str]) -> tuple[dict, str, bool]:
    f1, f2 = _formula(_read(args.file1, inputs)), _formula(_read(args.file2, inputs))
    verdict = equivalent(f1, f2)
    return {"verdict": verdict}, f"equivalent = {verdict}", verdict


def _cmd_encodes(args, inputs: dict[str, str]) -> tuple[dict, str, bool]:
    parsed = _read(args.encoding, inputs)
    if isinstance(parsed, EncodingFormula):
        encoding = parsed
    else:
        encoding = EncodingFormula(parsed, tuple(parsed.variables), ())
    spec_formula = _formula(_read(args.function, inputs))
    verdict = is_encoding_of(encoding, enumerate_models(spec_formula))
    return {"verdict": verdict}, f"encodes = {verdict}", verdict


def _cmd_dr(args, inputs: dict[str, str]) -> tuple[dict, str, bool]:
    formula = _formula(_read(args.file, inputs))
    rail = dual_rail(formula)
    payload = {"meta_vars": rail.num_vars, "clauses": len(rail.clauses)}
    header = ""
    if args.output:
        # meta-variable m stands for the literal of bit m-1 of the literal vector: m itself up to n, then n - m
        n = formula.num_vars
        header = "\n".join(f"c meta {m} {m if m <= n else n - m}" for m in range(1, 2 * n + 1)) + "\n"
    _output(args.output, payload, "horn_clauses", rail, header)
    return payload, f"dual rail: {payload['clauses']} Horn clauses over {payload['meta_vars']} meta-variables", True


def _cmd_qhorn(args, inputs: dict[str, str]) -> tuple[dict, str, bool]:
    formula = _formula(_read(args.file, inputs))
    if args.action == "recognize":
        valuation = recognize_qhorn(formula)
        if valuation is None:
            return {"qhorn": False}, "NOT-QHORN", False
        weights = {str(v): float(valuation.weight(v)) for v in formula.variables}
        return {"qhorn": True, "weights": weights}, "q-Horn", True
    if args.action == "sat":
        valuation = recognize_qhorn(formula)
        if valuation is None:
            raise NotQHornError("input formula is not q-Horn")
        verdict = qhorn_sat(normalize(formula, valuation))
        return {"satisfiable": verdict}, "SAT" if verdict else "UNSAT", verdict
    # compile: the -o file is written before --verify runs
    encoding = compile_urc_encoding(formula)
    payload = {
        "input_vars": len(encoding.input_vars),
        "aux_vars": len(encoding.aux_vars),
        "clauses": len(encoding.formula.clauses),
    }
    _output(args.output, payload, "encoding_clauses", encoding)
    ok = True
    if args.verify:
        payload["verified_encoding"] = is_encoding_of(encoding, enumerate_models(formula))
        payload["verified_urc"] = is_urc(encoding.formula, limit=encoding.num_vars, method="primes").verdict
        ok = payload["verified_encoding"] and payload["verified_urc"]
    return payload, f"compiled: {payload['clauses']} clauses, {payload['aux_vars']} auxiliary variables", ok


def _cmd_gen(args, inputs: dict[str, str]) -> tuple[dict, str, bool]:
    if args.family == "cycle_ext":
        if not args.base:
            raise PcforgeError("gen cycle_ext requires --base FILE")
        if args.parameter is not None:
            raise PcforgeError("gen cycle_ext takes no parameter")
        obj = gen_cycle_extension(_formula(_read(args.base, inputs)))
    else:
        if args.parameter is None:
            raise PcforgeError(f"gen {args.family} requires a parameter")
        if args.base:
            raise PcforgeError(f"gen {args.family} takes no --base (cycle_ext only)")
        obj = generate(args.family, args.parameter)
    extra = companions(args.family, args.parameter) if args.companions else None
    if args.companions and extra is None:
        raise PcforgeError(f"gen {args.family} has no companions")
    formula = _formula(obj)
    payload = {"family": args.family, "clauses": len(formula.clauses), "num_vars": formula.num_vars}
    if args.parameter is not None:
        payload["parameter"] = args.parameter
    if isinstance(obj, EncodingFormula):
        payload["aux_vars"] = list(obj.aux_vars)
    if extra is not None:
        payload["companions"] = extra
    _output(args.output, payload, "dimacs", obj)
    subject = args.parameter if args.parameter is not None else args.base
    return payload, f"{args.family}({subject}): {payload['clauses']} clauses over {payload['num_vars']} variables", True


def _cmd_reduce(args, inputs: dict[str, str]) -> tuple[dict, str, bool]:
    formula = _formula(_read(args.file, inputs))
    reducer = reduce_pc_irredundant if args.property == "pc" else reduce_urc_irredundant
    result = reducer(formula, seed=args.seed, limit=args.limit)
    payload = {"property": args.property, "before": len(formula.clauses), "after": len(result.clauses)}
    _output(args.output, payload, "clauses", result)
    return payload, f"{payload['before']} -> {payload['after']} clauses", True


def _cmd_absorb(args, inputs: dict[str, str]) -> tuple[dict, str, bool]:
    formula = _formula(_read(args.file, inputs))
    clause = make_clause(_literals(args.clause))
    verdict = is_absorbed(clause, formula)
    return {"clause": list(clause), "verdict": verdict}, f"absorbed = {verdict}", verdict


def _cmd_suite(args, inputs: dict[str, str]) -> tuple[dict, str, bool]:
    results = acceptance.run_all(_literals(args.only))
    all_pass = all(result.passed and result.seconds <= result.budget for result in results)
    rows = [{
        "criterion": result.number,
        "title": result.title,
        "passed": result.passed,
        "seconds": round(result.seconds, 3),
        "budget": result.budget,
        "detail": result.detail,
    } for result in results]
    return {"results": rows, "all_passed": all_pass}, "\n".join(result.line for result in results), all_pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pcforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_up = sub.add_parser("up", help="unit propagation closure")
    p_up.add_argument("file")
    p_up.add_argument("--assume", default="", help="literals, e.g. '1 -2 3'")

    p_check = sub.add_parser("check", help="decide pc / urc / pc-dr")
    checks = p_check.add_subparsers(dest="property", required=True)
    for prop in ("pc", "urc"):
        p_decide = checks.add_parser(prop, help=f"decide {prop} by the primes or the naive method")
        p_decide.add_argument("file")
        p_decide.add_argument("--limit", type=int, default=DECIDER_LIMIT, help="variable cap")
        p_decide.add_argument("--witness", action="store_true")
        p_decide.add_argument("--method", choices=["naive", "primes"], default="primes")
    checks.add_parser("pc-dr", help="decide pc by dual-rail equivalence with the primes").add_argument("file")

    p_primes = sub.add_parser("primes", help="all prime implicates")
    p_primes.add_argument("file")
    p_primes.add_argument("-o", "--output")

    p_equiv = sub.add_parser("equiv", help="equivalence over a shared universe")
    p_equiv.add_argument("file1")
    p_equiv.add_argument("file2")

    p_enc = sub.add_parser("encodes", help="check an encoding against a function")
    p_enc.add_argument("encoding")
    p_enc.add_argument("function")

    p_dr = sub.add_parser("dr", help="implicational dual-rail translation")
    p_dr.add_argument("file")
    p_dr.add_argument("-o", "--output")

    p_q = sub.add_parser("qhorn", help="q-Horn recognition / satisfiability / compilation")
    actions = p_q.add_subparsers(dest="action", required=True)
    actions.add_parser("recognize", help="weights, or NOT-QHORN").add_argument("file")
    actions.add_parser("sat", help="satisfiability by the split procedure").add_argument("file")
    p_compile = actions.add_parser("compile", help="compile to a URC encoding")
    p_compile.add_argument("file")
    p_compile.add_argument("-o", "--output")
    p_compile.add_argument("--verify", action="store_true",
                           help="check the compiled result is a URC encoding (desk scale)")

    p_gen = sub.add_parser("gen", help="generate a formula family instance")
    p_gen.add_argument("family", choices=list(FAMILY_NAMES))
    p_gen.add_argument("parameter", type=int, nargs="?")
    p_gen.add_argument("-o", "--output")
    p_gen.add_argument("--companions", action="store_true")
    p_gen.add_argument("--base", help="base formula file (cycle_ext only)")

    p_red = sub.add_parser("reduce", help="greedy irredundant reduction")
    p_red.add_argument("property", choices=["pc", "urc"])
    p_red.add_argument("file")
    p_red.add_argument("--seed", type=int)
    p_red.add_argument("--limit", type=int, default=DECIDER_LIMIT)
    p_red.add_argument("-o", "--output")

    p_abs = sub.add_parser("absorb", help="absorbed-clause test")
    p_abs.add_argument("file")
    p_abs.add_argument("--clause", required=True, help="literals, e.g. '1 -2'")

    p_suite = sub.add_parser("suite", help="run the acceptance matrix")
    p_suite.add_argument("--only", default="", help="comma-separated criterion numbers")

    return parser


_HANDLERS = {
    "up": _cmd_up,
    "check": _cmd_check,
    "primes": _cmd_primes,
    "equiv": _cmd_equiv,
    "encodes": _cmd_encodes,
    "dr": _cmd_dr,
    "qhorn": _cmd_qhorn,
    "gen": _cmd_gen,
    "reduce": _cmd_reduce,
    "absorb": _cmd_absorb,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    inputs: dict[str, str] = {}
    try:
        payload, message, ok = _HANDLERS[args.command](args, inputs)
        command = f"qhorn {args.action}" if args.command == "qhorn" else args.command
        timing_ms = int((time.perf_counter() - started) * 1000)
        print(json.dumps({"command": command, "inputs": inputs, "timing_ms": timing_ms, **payload}, sort_keys=True))
        code = EXIT_TRUE if ok else EXIT_FALSE
    except LimitError as exc:
        message, code = f"limit exceeded: {exc}", EXIT_LIMIT
    except NotQHornError as exc:
        message, code = f"not q-Horn: {exc}", EXIT_FALSE
    except (PcforgeError, ValueError, OSError) as exc:
        message, code = f"error: {exc}", EXIT_USAGE
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
