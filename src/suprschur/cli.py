"""Command line front end.

All verbs print machine-readable JSON by default (``--pretty`` switches to
plain tables where available).  Exit status: 0 on success or verified, 1 on
a verification failure, 2 on usage errors or malformed input, 3 when a
computation would exceed a resource limit, such as the monomial budget set
by SUPRSCHUR_BUDGET; a resource limit says nothing about the identity.
"""

from __future__ import annotations

import argparse
import json
import sys

from .alphabet_words import (
    ShuffleOrder,
    enumerate_cyw,
    natural_order,
    parse_order,
    parse_word,
    word_str,
)
from .errors import (
    ConstructionFailureError,
    InvalidParameterError,
    MalformedInputError,
    NotSymmetricError,
    ResourceLimitError,
    VerificationFailureError,
)
from .free_algebra import parse_ideal
from .kronecker import g_hook_oracle, g_hook_rule, g_sum_oracle, g_sum_rule, hook
from .lascoux import compose_classes, gamma_class, knuth_class_analysis
from .switchboard import build_cyw_switchboard, component_schur, components
from .symfun import (
    F_of_set,
    schur_expand,
    schur_expand_by_tableaux,
    symfunc_serialize,
    word_convert,
)
from .tableaux import (
    ColoredTableau,
    convert,
    insert,
    parse_partition,
    partition_str,
    sqread,
    validate_tableau,
)
from . import verify as verify_mod


def _emit(payload: dict, pretty_lines: list[str] | None, pretty: bool) -> None:
    if pretty and pretty_lines is not None:
        print("\n".join(pretty_lines))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_order(text: str, args, *words) -> ShuffleOrder:
    """The order named by text over 1..N, with N from --N or else the largest
    letter of the words; a letter above the order's N is malformed input."""
    top = max((x.value for w in words for x in w), default=1)
    order = parse_order(text, args.N or top)
    if top > order.N:
        raise MalformedInputError(f"letter {top} is outside the alphabet 1..{order.N} of the order")
    return order


def _cmd_kron(args) -> int:
    lam = parse_partition(args.lam)
    nu = parse_partition(args.nu)
    d = args.mu_hook_d
    g = g_hook_rule(lam, d, nu)
    payload = {
        "lambda": partition_str(lam),
        "mu": partition_str(hook(sum(lam), d)),
        "nu": partition_str(nu),
        "g": g,
        "method": "hook-rule",
    }
    code = 0
    if args.oracle_check:
        payload["oracle"] = g_hook_oracle(lam, d, nu)
        payload["match"] = payload["oracle"] == g
        code = 0 if payload["match"] else 1
    _emit(payload, [f"g = {g}"], args.pretty)
    return code


def _cmd_kron_sum(args) -> int:
    lam = parse_partition(args.lam)
    nu = parse_partition(args.nu)
    d = args.d
    g = g_sum_rule(lam, d, nu)
    payload = {
        "lambda": partition_str(lam),
        "mu": f"hooks d={d}, d={d - 1}",
        "nu": partition_str(nu),
        "g": g,
        "method": "sum",
    }
    code = 0
    if args.oracle_check:
        payload["oracle"] = g_sum_oracle(lam, d, nu)
        payload["match"] = payload["oracle"] == g
        code = 0 if payload["match"] else 1
    _emit(payload, [f"g-sum = {g}"], args.pretty)
    return code


def _cmd_cyw(args) -> int:
    lam = parse_partition(args.lam)
    words = enumerate_cyw(lam, args.d)
    payload = {"lambda": partition_str(lam), "d": args.d, "count": len(words)}
    if not args.count:
        payload["words"] = [word_str(w) for w in words]
    _emit(payload, [word_str(w) for w in words] if not args.count else [str(len(words))], args.pretty)
    return 0


def _cmd_fexpand(args) -> int:
    lam = parse_partition(args.cyw)
    words = enumerate_cyw(lam, args.d)
    order = natural_order(max(len(lam), 1))
    payload = {"lambda": partition_str(lam), "d": args.d, "method": args.method}
    code = 0
    if args.method in ("tableaux", "both"):
        by_tab = schur_expand_by_tableaux(words, order)
        payload["tableaux"] = symfunc_serialize(by_tab)
    if args.method in ("oracle", "both"):
        by_oracle = schur_expand(F_of_set(words, order))
        payload["oracle"] = symfunc_serialize(by_oracle)
    if args.method == "both":
        payload["match"] = payload["tableaux"] == payload["oracle"]
        code = 0 if payload["match"] else 1
    shown = payload.get("tableaux") or payload.get("oracle")
    pretty = [f"s[{k}] : {v}" for k, v in shown.items()]
    _emit(payload, pretty, args.pretty)
    return code


def _cmd_switchboard(args) -> int:
    lam = parse_partition(args.lam)
    board = build_cyw_switchboard(lam, args.d)
    comps = components(board)
    payload = {
        "lambda": partition_str(lam),
        "d": args.d,
        "vertices": len(board.vertices),
        "edges": len(board.edges),
        "components": [len(c) for c in comps],
    }
    if args.schur:
        payload["component_schur"] = [symfunc_serialize(f) for f in component_schur(board)]
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(board.to_dot() + "\n")
        payload["dot"] = args.dot
    _emit(payload, None, args.pretty)
    return 0


def _cmd_insert(args) -> int:
    word = parse_word(args.word)
    tab = insert(word, _parse_order(args.order, args, word))
    payload = {"word": word_str(word), "tableau": tab.to_text().splitlines()}
    _emit(payload, tab.to_text().splitlines(), args.pretty)
    return 0


def _cmd_sqread(args) -> int:
    text = args.tableau
    rows = [parse_word(part) for part in text.replace("/", "\n").splitlines() if part.strip()]
    order = _parse_order(args.order, args, *rows)
    tab = ColoredTableau.from_rows(rows, order)
    if not validate_tableau(tab):
        raise MalformedInputError("not a valid colored tableau for the order")
    word = sqread(tab)
    _emit({"word": word_str(word)}, [word_str(word)], args.pretty)
    return 0


def _cmd_convert_word(args) -> int:
    word = parse_word(args.word)
    out = word_convert(word, _parse_order(args.frm, args, word), _parse_order(args.to, args, word))
    _emit({"word": word_str(word), "converted": word_str(out)}, [word_str(out)], args.pretty)
    return 0


def _cmd_convert_tableau(args) -> int:
    rows = [parse_word(part) for part in args.tableau.replace("/", "\n").splitlines() if part.strip()]
    frm = _parse_order(args.frm, args, *rows)
    to = _parse_order(args.to, args, *rows)
    out = convert(ColoredTableau.from_rows(rows, frm), frm, to)
    _emit({"tableau": out.to_text().splitlines()}, out.to_text().splitlines(), args.pretty)
    return 0


def _cmd_lascoux(args) -> int:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    left, right = gamma_class(lam), gamma_class(mu)
    product = compose_classes(left, right)
    report = knuth_class_analysis(product)
    payload = {
        "lambda": partition_str(lam),
        "mu": partition_str(mu),
        "is_union": report["is_union"],
        "classes": [
            {"shape": partition_str(cls["shape"]), "multiplicity": cls["multiplicity"], "complete": cls["complete"]}
            for cls in report["classes"]
        ],
    }
    pretty = []
    if args.pretty:
        fmt = lambda p: "".join(map(str, p))  # noqa: E731
        header = "o".rjust(6) + " | " + " ".join(fmt(v).rjust(6) for v in right)
        pretty = [header, "-" * len(header)]
        for u in left:
            row = [fmt(compose_classes([u], [v]).most_common(1)[0][0]) for v in right]
            pretty.append(fmt(u).rjust(6) + " | " + " ".join(x.rjust(6) for x in row))
        pretty.append(f"union of Knuth classes: {report['is_union']}")
        pretty.extend(f"  shape {partition_str(cls['shape'])}" for cls in report["classes"])
    _emit(payload, pretty, args.pretty)
    return 0


def _nu_list(args) -> list[tuple[int, ...]] | None:
    return [parse_partition(args.nu)] if args.nu else None


# verify target -> runner from the parsed arguments to the target's report
VERIFY_TARGETS = {
    "jnu": lambda args: verify_mod.verify_jnu(parse_ideal(args.ideal, args.N), args.N, args.max_size, _nu_list(args)),
    "jplac": lambda args: verify_mod.verify_jplac(parse_order(args.order, args.N), args.max_size, _nu_list(args)),
    "commute-e": lambda args: verify_mod.verify_commutation(parse_ideal(args.ideal, args.N), args.max_degree, "e"),
    "commute-h": lambda args: verify_mod.verify_commutation(parse_ideal(args.ideal, args.N), args.max_degree, "h"),
    "flagged": lambda args: verify_mod.verify_flagged(args.N, args.max_alpha, args.box),
    "perp": lambda args: verify_mod.verify_perp_cyw(parse_partition(args.lam), args.d, parse_ideal(args.ideal, args.N)),
    "conjecture61": lambda args: verify_mod.verify_conjecture_jnu_kronknuth(args.N, args.max_size),
    "conversion-bijection": lambda args: verify_mod.verify_conversion_bijection(args.max_size),
    "reading-congruence": lambda args: verify_mod.verify_reading_word_congruence(args.max_size, args.N),
    "fixed-point": lambda args: verify_mod.verify_insertion_fixed_point(args.N, args.max_size),
    "nontail": lambda args: verify_mod.verify_nontail_removable(args.box, args.N),
}


def _cmd_verify(args) -> int:
    report = VERIFY_TARGETS[args.target](args)
    _emit(report, None, args.pretty)
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="suprschur", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true", help="human-readable output")
        p.add_argument("--N", type=int, default=0, help="alphabet bound (inferred when omitted)")

    p = sub.add_parser("kron", help="Kronecker coefficient, one hook shape, by the tableau rule")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu-hook-d", dest="mu_hook_d", type=int, required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--oracle-check", action="store_true")
    p.set_defaults(func=_cmd_kron)

    p = sub.add_parser("kron-sum", help="sum of two adjacent hook coefficients")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--oracle-check", action="store_true")
    p.set_defaults(func=_cmd_kron_sum)

    p = sub.add_parser("cyw", help="enumerate colored Yamanouchi words")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--count", action="store_true")
    p.set_defaults(func=_cmd_cyw)

    p = sub.add_parser("fexpand", help="Schur expansion of the Yamanouchi quasisymmetric sum")
    common(p)
    p.add_argument("--cyw", required=True, help="content partition")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", choices=["tableaux", "oracle", "both"], default="both")
    p.set_defaults(func=_cmd_fexpand)

    p = sub.add_parser("switchboard", help="canonical switch graph on the Yamanouchi words")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--dot", help="write a DOT file here")
    p.add_argument("--schur", action="store_true", help="include per-component Schur expansions")
    p.set_defaults(func=_cmd_switchboard)

    p = sub.add_parser("insert", help="insertion tableau of a colored word")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--order", default="natural")
    p.set_defaults(func=_cmd_insert)

    p = sub.add_parser("sqread", help="diagonal reading word of a tableau")
    common(p)
    p.add_argument("--tableau", required=True, help="rows separated by / or newlines")
    p.add_argument("--order", default="natural")
    p.set_defaults(func=_cmd_sqread)

    p = sub.add_parser("convert-word", help="convert a colored word between orders")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--from", dest="frm", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(func=_cmd_convert_word)

    p = sub.add_parser("convert-tableau", help="convert a colored tableau between orders")
    common(p)
    p.add_argument("--tableau", required=True)
    p.add_argument("--from", dest="frm", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(func=_cmd_convert_tableau)

    p = sub.add_parser("lascoux", help="product of two permutation classes, grouped by insertion tableau")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=_cmd_lascoux)

    p = sub.add_parser("verify", help="batch verification targets")
    common(p)
    p.add_argument("target", choices=list(VERIFY_TARGETS))
    p.add_argument("--ideal", default="kron")
    p.add_argument("--order", default="natural")
    p.add_argument("--nu", default="")
    p.add_argument("--lambda", dest="lam", default="")
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--max-alpha", type=int, default=4)
    p.add_argument("--box", type=int, default=3)
    p.set_defaults(func=_cmd_verify, N=2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameterError, MalformedInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotSymmetricError, VerificationFailureError, ConstructionFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
