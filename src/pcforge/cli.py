"""Command line front end.

JSON reports go to standard output (stable key order, so reports are
byte-reproducible); human-readable text goes to standard error.  Exit
codes: 0 = true verdict or success, 1 = false verdict, 2 = usage, parse,
or precondition error, 3 = enumeration limit exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import acceptance
from .cnf import CnfFormula, EncodingFormula, literal_key, make_clause, parse_dimacs, vector_literals, write_dimacs
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


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _load(path: str):
    with open(path, "rb") as handle:
        return parse_dimacs(handle.read())


def _load_formula(path: str) -> CnfFormula:
    parsed = _load(path)
    return parsed.formula if isinstance(parsed, EncodingFormula) else parsed


def _literals(text: str) -> list[int]:
    tokens = text.replace(",", " ").split()
    return [int(tok) for tok in tokens]


def _report(command: str, inputs: dict[str, str], payload: dict, started: float) -> dict:
    report = {"command": command, "inputs": inputs, "timing_ms": int((time.perf_counter() - started) * 1000)}
    report.update(payload)
    return report


def _emit(report: dict):
    print(json.dumps(report, sort_keys=True))


def _info(message: str):
    print(message, file=sys.stderr)


def _write_output(path: str | None, obj):
    if path:
        with open(path, "w") as handle:
            handle.write(write_dimacs(obj))


def _cmd_up(args, started: float) -> int:
    formula = _load_formula(args.file)
    assumptions = frozenset(_literals(args.assume))
    result = up_closure(formula, assumptions)
    derived = sorted(result.literals, key=literal_key)
    payload = {"status": result.status, "derived": derived}
    if result.empty_clause is not None:
        payload["empty_clause"] = list(result.empty_clause)
    _emit(_report("up", {args.file: _digest(args.file)}, payload, started))
    _info("CONFLICT" if result.conflict else " ".join(str(l) for l in derived))
    return EXIT_TRUE


def _cmd_check(args, started: float) -> int:
    formula = _load_formula(args.file)
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
    _emit(_report("check", {args.file: _digest(args.file)}, payload, started))
    _info(f"{args.property} = {verdict}")
    return EXIT_TRUE if verdict else EXIT_FALSE


def _cmd_primes(args, started: float) -> int:
    formula = _load_formula(args.file)
    result = prime_implicates(formula)
    _write_output(args.output, result)
    payload = {"count": len(result.clauses)}
    if not args.output:
        payload["clauses"] = [list(c) for c in result.clauses]
    _emit(_report("primes", {args.file: _digest(args.file)}, payload, started))
    _info(f"{len(result.clauses)} prime implicates")
    return EXIT_TRUE


def _cmd_equiv(args, started: float) -> int:
    f1, f2 = _load_formula(args.file1), _load_formula(args.file2)
    verdict = equivalent(f1, f2)
    inputs = {args.file1: _digest(args.file1), args.file2: _digest(args.file2)}
    _emit(_report("equiv", inputs, {"verdict": verdict}, started))
    _info(f"equivalent = {verdict}")
    return EXIT_TRUE if verdict else EXIT_FALSE


def _cmd_encodes(args, started: float) -> int:
    parsed = _load(args.encoding)
    if isinstance(parsed, EncodingFormula):
        encoding = parsed
    else:
        encoding = EncodingFormula(parsed, tuple(parsed.variables), ())
    spec_formula = _load_formula(args.function)
    verdict = is_encoding_of(encoding, enumerate_models(spec_formula))
    inputs = {args.encoding: _digest(args.encoding), args.function: _digest(args.function)}
    _emit(_report("encodes", inputs, {"verdict": verdict}, started))
    _info(f"encodes = {verdict}")
    return EXIT_TRUE if verdict else EXIT_FALSE


def _cmd_dr(args, started: float) -> int:
    formula = _load_formula(args.file)
    rail = dual_rail(formula)
    payload = {"meta_vars": rail.num_vars, "clauses": len(rail.clauses)}
    if args.output:
        # meta-variable m stands for the literal of bit m-1 of the literal vector
        lines = [f"c meta {meta} {vector_literals(1 << (meta - 1), formula.num_vars)[0]}"
                 for meta in range(1, rail.num_vars + 1)]
        with open(args.output, "w") as handle:
            handle.write("\n".join(lines) + "\n" + write_dimacs(rail))
    else:
        payload["horn_clauses"] = [list(c) for c in rail.clauses]
    _emit(_report("dr", {args.file: _digest(args.file)}, payload, started))
    _info(f"dual rail: {payload['clauses']} Horn clauses over {payload['meta_vars']} meta-variables")
    return EXIT_TRUE


def _cmd_qhorn(args, started: float) -> int:
    formula = _load_formula(args.file)
    inputs = {args.file: _digest(args.file)}
    if args.action == "recognize":
        valuation = recognize_qhorn(formula)
        if valuation is None:
            _emit(_report("qhorn recognize", inputs, {"qhorn": False}, started))
            _info("NOT-QHORN")
            return EXIT_FALSE
        weights = {str(v): float(valuation.weight(v)) for v in formula.variables}
        _emit(_report("qhorn recognize", inputs, {"qhorn": True, "weights": weights}, started))
        _info("q-Horn")
        return EXIT_TRUE
    if args.action == "sat":
        valuation = recognize_qhorn(formula)
        if valuation is None:
            raise NotQHornError("input formula is not q-Horn")
        verdict = qhorn_sat(normalize(formula, valuation))
        _emit(_report("qhorn sat", inputs, {"satisfiable": verdict}, started))
        _info("SAT" if verdict else "UNSAT")
        return EXIT_TRUE if verdict else EXIT_FALSE
    # compile
    encoding = compile_urc_encoding(formula)
    _write_output(args.output, encoding)
    payload = {
        "input_vars": len(encoding.input_vars),
        "aux_vars": len(encoding.aux_vars),
        "clauses": len(encoding.formula.clauses),
    }
    if args.verify:
        payload["verified_encoding"] = is_encoding_of(encoding, enumerate_models(formula))
        payload["verified_urc"] = is_urc(encoding.formula, limit=encoding.num_vars, method="primes").verdict
    if not args.output:
        payload["encoding_clauses"] = [list(c) for c in encoding.formula.clauses]
    _emit(_report("qhorn compile", inputs, payload, started))
    _info(f"compiled: {payload['clauses']} clauses, {payload['aux_vars']} auxiliary variables")
    if args.verify and not (payload["verified_encoding"] and payload["verified_urc"]):
        return EXIT_FALSE
    return EXIT_TRUE


def _cmd_gen(args, started: float) -> int:
    if args.family == "cycle_ext":
        if not args.base:
            raise PcforgeError("gen cycle_ext requires --base FILE")
        if args.parameter is not None:
            raise PcforgeError("gen cycle_ext takes no parameter")
        obj = gen_cycle_extension(_load_formula(args.base))
        inputs = {args.base: _digest(args.base)}
    else:
        if args.parameter is None:
            raise PcforgeError(f"gen {args.family} requires a parameter")
        if args.base:
            raise PcforgeError(f"gen {args.family} takes no --base (cycle_ext only)")
        obj = generate(args.family, args.parameter)
        inputs = {}
    extra = companions(args.family, args.parameter) if args.companions else None
    if args.companions and extra is None:
        raise PcforgeError(f"gen {args.family} has no companions")
    formula = obj.formula if isinstance(obj, EncodingFormula) else obj
    _write_output(args.output, obj)
    payload = {"family": args.family, "clauses": len(formula.clauses), "num_vars": formula.num_vars}
    if args.parameter is not None:
        payload["parameter"] = args.parameter
    if isinstance(obj, EncodingFormula):
        payload["aux_vars"] = list(obj.aux_vars)
    if extra is not None:
        payload["companions"] = extra
    if not args.output:
        payload["dimacs"] = write_dimacs(obj)
    _emit(_report("gen", inputs, payload, started))
    _info(f"{args.family}({args.parameter if args.parameter is not None else args.base}): "
          f"{payload['clauses']} clauses over {payload['num_vars']} variables")
    return EXIT_TRUE


def _cmd_reduce(args, started: float) -> int:
    formula = _load_formula(args.file)
    if args.property == "pc":
        result = reduce_pc_irredundant(formula, seed=args.seed, limit=args.limit)
    else:
        result = reduce_urc_irredundant(formula, seed=args.seed, limit=args.limit)
    _write_output(args.output, result)
    payload = {"property": args.property, "before": len(formula.clauses), "after": len(result.clauses)}
    if not args.output:
        payload["clauses"] = [list(c) for c in result.clauses]
    _emit(_report("reduce", {args.file: _digest(args.file)}, payload, started))
    _info(f"{payload['before']} -> {payload['after']} clauses")
    return EXIT_TRUE


def _cmd_absorb(args, started: float) -> int:
    formula = _load_formula(args.file)
    clause = make_clause(_literals(args.clause))
    verdict = is_absorbed(clause, formula)
    _emit(_report("absorb", {args.file: _digest(args.file)}, {"clause": list(clause), "verdict": verdict}, started))
    _info(f"absorbed = {verdict}")
    return EXIT_TRUE if verdict else EXIT_FALSE


def _cmd_suite(args, started: float) -> int:
    numbers = [int(tok) for tok in args.only.replace(",", " ").split()] if args.only else None
    results = []
    all_pass = True
    for result in acceptance.run_all(numbers):
        _info(result.line)
        results.append({
            "criterion": result.number,
            "title": result.title,
            "passed": result.passed,
            "seconds": round(result.seconds, 3),
            "budget": result.budget,
            "detail": result.detail,
        })
        all_pass &= result.passed and result.seconds <= result.budget
    _emit(_report("suite", {}, {"results": results, "all_passed": all_pass}, started))
    return EXIT_TRUE if all_pass else EXIT_FALSE


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
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        return _HANDLERS[args.command](args, started)
    except LimitError as exc:
        _info(f"limit exceeded: {exc}")
        return EXIT_LIMIT
    except NotQHornError as exc:
        _info(f"not q-Horn: {exc}")
        return EXIT_FALSE
    except (PcforgeError, ValueError, OSError) as exc:
        _info(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
