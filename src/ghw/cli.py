"""Command-line interface.

One subcommand per analysis route; every run emits a single JSON result
document (stable key order) to stdout or --output.  Exit codes: 0 ok,
1 usage or parse error, 2 size cap exceeded, 3 proven-theorem violation
(which would mean a bug, not mathematics).

Each command imports the modules of its route when it runs, so a call
pays start-up only for what it uses: ``ghw --route oracle`` never loads
the Groebner, resolution or analysis modules.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .errors import SIZE_CAP, CapExceeded, GhwError, TheoremViolation
from .io import (
    betti_triples,
    build_document,
    dumps_document,
    load_matrix,
    render_betti_diagram,
)

# Code and TermOrder appear at module level only in annotations, which are
# never evaluated; the commands import what they call.


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep that for caps
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {text!r}")
        return value
    return parse


def _parse_order(spec: str, n: int) -> TermOrder:
    """An --order value: KIND, or KIND:V1,...,Vn with the variable priority
    highest first and 1-based; a bare KIND means 1,2,...,n."""
    from .groebner import TermOrder

    kind, colon, vars_part = spec.partition(":")
    if kind not in ("deglex", "degrevlex"):
        raise GhwError(f"bad order spec {spec!r}: kind must be deglex or degrevlex")
    if not colon:
        return TermOrder.default(n, kind)
    try:
        prio = tuple(int(tok) - 1 for tok in vars_part.split(","))
    except ValueError:
        raise GhwError(f"bad order spec {spec!r}: variables must be integers")
    if sorted(prio) != list(range(n)):
        raise GhwError(f"bad order spec {spec!r}: need a permutation of 1..{n}")
    return TermOrder(kind, prio)


def _term_order(args, n: int) -> TermOrder:
    """The one order of a command that builds one (default degrevlex 1..n)."""
    specs = args.order or ["degrevlex"]
    if len(specs) > 1:
        raise GhwError(f"--order given {len(specs)} times; {args.command} takes one order")
    return _parse_order(specs[0], n)


def _order_list(specs: list[str], n: int) -> list[TermOrder]:
    """The orders of search or a listed union; GhwError on one given twice."""
    orders = [_parse_order(spec, n) for spec in specs]
    for i, o in enumerate(orders):
        if o in orders[:i]:
            raise GhwError(f"--order {specs[i]} repeats {o.describe()}")
    return orders


def _order_params(o: TermOrder) -> dict:
    return {
        "kind": o.kind,
        "vars": [i + 1 for i in o.priority],
    }


def _code_info(code: Code) -> dict:
    return {
        "n": code.n,
        "k": code.k,
        "nondegenerate": code.nondegenerate,
        "generator_rows": code.generator.row_strings(),
    }


def _load_code(path: str) -> Code:
    from .codes import Code

    code = Code.from_generator(load_matrix(path))
    if not code.nondegenerate:
        print(f"ghw: warning: code is degenerate (some coordinate is zero "
              f"in every codeword); top weight will stay below {code.n}",
              file=sys.stderr)
    return code


def _cmd_ghw(args) -> tuple[dict, dict | None, dict]:
    if args.route != "testset" and args.order:
        raise GhwError("--order needs --route testset")
    code = _load_code(args.matrix)
    params = {"matrix": args.matrix, "route": args.route}
    if args.route in ("oracle", "resolution"):
        from .codes import ghw_hierarchy, ghw_via_resolution

        hierarchy = ghw_hierarchy if args.route == "oracle" else ghw_via_resolution
        seq = hierarchy(code)
        result = {
            "route": args.route,
            "ghw": list(seq.values),
            "display": " ".join(str(d) for d in seq.values),
        }
    else:
        from .groebner import reduced_groebner_basis, test_set
        from .resolution import hochster_min_shifts, ideal_from_supports

        order = _term_order(args, code.n)
        params["order"] = _order_params(order)
        basis, _ = reduced_groebner_basis(code, order)
        words = test_set(basis, code)
        shifts = hochster_min_shifts(ideal_from_supports(code.n, words))
        pd = len(shifts)
        entries = []
        for i, j in enumerate(shifts, start=1):
            entries.append({"i": i, "value": j, "exact": i <= 2})
        display = " ".join(
            (str(e["value"]) if e["exact"] else f"≤{e['value']}")
            for e in entries)
        note = None
        if pd < code.k:
            missing = (f"d_{code.k}" if pd + 1 == code.k
                       else f"d_{pd + 1}..d_{code.k}")
            note = (f"pd of the test-set quotient is {pd} < k={code.k}: "
                    f"no bound for {missing}")
        result = {
            "route": "testset",
            "entries": entries,
            "pd_testset": pd,
            "k": code.k,
            "display": display,
            "note": note,
        }
    return params, _code_info(code), result


def _cmd_betti(args) -> tuple[dict, dict | None, dict]:
    from .codes import circuit_betti_table, minimal_support_codewords
    from .gf2 import word_to_string
    from .resolution import (MonomialIdeal, betti_table_hochster, ideal_from_supports,
                             min_shift_sequence)

    if args.ideal != "union-testsets" and args.all_orders:
        raise GhwError("--all-orders needs --ideal union-testsets")
    if args.ideal == "stanley-reisner" and args.order:
        raise GhwError("--order needs --ideal testset or union-testsets")
    if args.order and args.all_orders:
        raise GhwError("the union needs one source of orders: give --order or --all-orders")
    code = _load_code(args.matrix)
    params = {"matrix": args.matrix, "ideal": args.ideal}
    result: dict = {"ideal": args.ideal}
    if args.ideal == "stanley-reisner":  # already minimal and sorted
        ideal = MonomialIdeal(code.n, minimal_support_codewords(code))
    elif args.ideal == "testset":
        from .groebner import reduced_groebner_basis, test_set

        order = _term_order(args, code.n)
        params["order"] = _order_params(order)
        basis, _ = reduced_groebner_basis(code, order)
        words = test_set(basis, code)
        ideal = ideal_from_supports(code.n, words)
        result["testset_size"] = len(words)
    else:
        from .analysis import union_all_orders, union_testsets

        if args.order:
            orders = _order_list(args.order, code.n)
            params["orders"] = [_order_params(o) for o in orders]
            params["order_count"] = len(orders)
            ideal = union_testsets(code, orders)
        else:  # every order, never listed
            import math

            params["orders"] = "all-permutations"
            params["order_count"] = 2 * math.factorial(code.n)
            ideal = union_all_orders(code)
        result["union_size"] = len(ideal.gens)
    table = (circuit_betti_table(code) if args.ideal == "stanley-reisner"
             else betti_table_hochster(ideal))
    result.update({
        "generator_count": len(ideal.gens),
        "generators": [word_to_string(g, code.n) for g in ideal.gens],
        "betti": betti_triples(table),
        "pd": table.pd,
        "min_shift_sequence": [[i, j] for i, j in min_shift_sequence(table)],
        "diagram": render_betti_diagram(table),
    })
    return params, _code_info(code), result


def _cmd_gb(args) -> tuple[dict, dict | None, dict]:
    from .gf2 import word_to_string
    from .groebner import reduced_groebner_basis, test_set

    code = _load_code(args.matrix)
    order = _term_order(args, code.n)
    params = {"matrix": args.matrix, "order": _order_params(order)}
    basis, _ = reduced_groebner_basis(code, order)
    words = test_set(basis, code)
    result = {
        "squarefree_binomials": [
            [word_to_string(b.lead, code.n), word_to_string(b.trail, code.n)]
            for b in basis.binomials
        ],
        "squarefree_count": len(basis.binomials),
        "quadric_count": basis.quadric_count(),
        "total_elements": basis.total_size(),
        "standard_form_violations": len(basis.standard_form_violations),
        "test_set": [word_to_string(w, code.n) for w in words],
        "test_set_size": len(words),
    }
    return params, _code_info(code), result


def _cmd_decode(args) -> tuple[dict, dict | None, dict]:
    from .gf2 import word_from_string, word_to_string
    from .groebner import decode, reduced_groebner_basis

    code = _load_code(args.matrix)
    order = _term_order(args, code.n)
    params = {"matrix": args.matrix, "order": _order_params(order),
              "word": args.word}
    if len(args.word) != code.n:
        raise GhwError(f"word length {len(args.word)} != code length {code.n}")
    try:
        received = word_from_string(args.word)
    except ValueError as exc:
        raise GhwError(str(exc))
    _, table = reduced_groebner_basis(code, order)
    leader, codeword, weight = decode(table, received)
    result = {
        "received": args.word,
        "coset_leader": word_to_string(leader, code.n),
        "decoded": word_to_string(codeword, code.n),
        "error_weight": weight,
    }
    return params, _code_info(code), result


def _cmd_verify(args) -> tuple[dict, dict | None, dict]:
    from .analysis import verify_code

    code = _load_code(args.matrix)
    order = _term_order(args, code.n)
    params = {"matrix": args.matrix, "order": _order_params(order),
              "seed": args.seed}
    report = verify_code(code, order, seed=args.seed)
    return params, _code_info(code), report.as_dict()


def _cmd_search(args) -> tuple[dict, dict | None, dict]:
    from .analysis import counterexample_search
    from .gf2 import rref

    if args.n > SIZE_CAP:
        raise CapExceeded(f"--n {args.n} exceeds cap {SIZE_CAP}")
    if args.k > args.n:
        raise GhwError(f"--k must be at most --n={args.n}, got {args.k}")
    orders = _order_list(args.order or ["degrevlex"], args.n)
    inject = tuple(load_matrix(path) for path in args.inject or ())
    for path, matrix in zip(args.inject or (), inject):
        if matrix.ncols != args.n:
            raise GhwError(f"--inject {path}: length {matrix.ncols} != --n {args.n}")
        rank = rref(matrix)[1]
        if rank != args.k:
            raise GhwError(f"--inject {path}: dimension {rank} != --k {args.k}")
    params = {"n": args.n, "k": args.k, "trials": args.trials,
              "seed": args.seed,
              "orders": [_order_params(o) for o in orders],
              "injected": len(inject)}
    report = counterexample_search(args.n, args.k, args.trials, args.seed,
                                   orders=orders, inject=inject)
    return params, None, report.as_dict()


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghw",
        description="Generalized Hamming weights of binary linear codes via "
                    "brute force, Betti tables of the circuit ideal, and "
                    "Groebner test sets.",
        epilog="Matrix files: one row per line, space-separated 0/1 entries, "
               "blank lines and # comments ignored. Bitstrings are printed "
               "with coordinate 1 leftmost.")
    common = argparse.ArgumentParser(add_help=False)  # flags every subcommand takes
    common.add_argument("--order", action="append", metavar="KIND[:V1,...]",
                        help="degree-compatible order, deglex or degrevlex, with "
                             "the variable priority highest first, 1-based "
                             "(default: degrevlex:1,2,...,n); repeatable for "
                             "search and the union")
    common.add_argument("-o", "--output", default=None,
                        help="write the result document here instead of stdout")
    # common plus the matrix file, for every subcommand but search
    matrix = argparse.ArgumentParser(add_help=False, parents=[common])
    matrix.add_argument("matrix")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ghw", parents=[matrix], help="weight hierarchy by a chosen route")
    p.add_argument("--route", choices=("oracle", "resolution", "testset"),
                   default="oracle")
    p.set_defaults(func=_cmd_ghw)

    p = sub.add_parser("betti", parents=[matrix], help="Betti table of a code-derived ideal")
    p.add_argument("--ideal",
                   choices=("stanley-reisner", "testset", "union-testsets"),
                   default="stanley-reisner")
    p.add_argument("--all-orders", action="store_true",
                   help="union over every deglex/degrevlex priority permutation "
                        "(the default without --order)")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("gb", parents=[matrix], help="reduced Groebner basis and test set")
    p.set_defaults(func=_cmd_gb)

    p = sub.add_parser("decode", parents=[matrix],
                       help="decode a word by coset-leader reduction")
    p.add_argument("word", help="received word as a bitstring")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("verify", parents=[matrix], help="run every proven check on one code")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", parents=[common], help="randomized counterexample search")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--trials", type=_int_at_least(0), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject", action="append", metavar="FILE",
                   help="matrix file evaluated before the random stream, repeatable")
    p.set_defaults(func=_cmd_search)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    t0 = time.perf_counter()
    try:
        params, code_info, result = args.func(args)
    except CapExceeded as exc:
        print(f"ghw: size cap exceeded: {exc}", file=sys.stderr)
        return 2
    except TheoremViolation as exc:
        print(f"ghw: internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except (GhwError, OSError) as exc:
        print(f"ghw: {exc}", file=sys.stderr)
        return 1
    doc = build_document(args.command, params, code_info, result,
                         time.perf_counter() - t0, __version__)
    text = dumps_document(doc)
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not args.output:  # fd 1 takes what is still buffered, so exit flushes quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"ghw: cannot write {args.output or 'to stdout'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
