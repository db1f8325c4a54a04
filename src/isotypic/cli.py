"""Command-line front end.

Commands
    irr            print the exact character table of a group file
    clifford       orbit decomposition of Irr(A) and the rank identity
    bundle-verify  fiberwise check of the bundle decomposition
    bordism        generator series for an adjacent pair (or the global sum)
    d2p            certification report for the dihedral group of order 2p

Group arguments take a JSON file path or "catalog:NAME".  Exit codes:
0 success/consistent, 1 verified-false, 2 input error, 3 cap exceeded,
4 not normal, 5 internal inconsistency, 6 base not A-trivial.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .bordism import (PowerSeries, adjacent_family_series, d2p_certify,
                      global_generator_series)
from .bundles import verify_decomposition
from .characters import character_table
from .errors import (CapExceeded, ClosureOverflow, InvalidPermutation,
                     IsotypicError, NotATrivial, NotNormal, NotOdd, NotPrime)
from .files import FileFormatError, load_bundle_file, load_group_file
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, Subgroup
from .orbits import k_decomposition_report

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_NOT_NORMAL = 4
EXIT_INCONSISTENT = 5
EXIT_NOT_A_TRIVIAL = 6


@dataclass
class Report:
    command: str
    inputs_digest: str
    results: dict
    warnings: list = field(default_factory=list)
    exit_status: int = EXIT_OK
    table_lines: list = field(default_factory=list)

    def to_json(self) -> str:
        """The report as ``json.dumps(payload, sort_keys=True, indent=2)``
        would write it, byte for byte, by ``_render``."""
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "results": self.results,
            "warnings": self.warnings,
            "exit_status": self.exit_status,
        }
        return _render(payload, "\n")


def _render(obj, pad: str) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for a value nested at
    the indent ``pad`` (a newline and that level's spaces).

    Only str-keyed dicts, lists, tuples, str, int, bool and None are
    accepted; anything else (a float, a non-str key, a numpy scalar, a set)
    raises TypeError.  A list of plain ints is joined in one call.  A dict
    object met again at the same indent within this call (reports share one
    JSON object per distinct character value) reuses its text; lists are
    not memoised, as series never repeat.
    """
    return _render_memo(obj, pad, {})


def _render_memo(obj, pad: str, memo: dict) -> str:
    """_render with memo mapping (id of a dict, indent) to its text; the
    objects stay alive in obj, so their ids are not reused meanwhile."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    inner = pad + "  "
    if kind is dict:
        if not obj:
            return "{}"
        key = (id(obj), pad)
        text = memo.get(key)
        if text is None:
            # encode_basestring_ascii raises TypeError on a key that is no str
            items = [encode_basestring_ascii(k) + ": " + _render_memo(obj[k], inner, memo)
                     for k in sorted(obj)]
            text = memo[key] = "{" + inner + ("," + inner).join(items) + pad + "}"
        return text
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        if all(type(x) is int for x in obj):
            items = map(int.__repr__, obj)
        else:
            items = [_render_memo(x, inner, memo) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)


def _digest(parts: list) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _read_for_digest(path: str) -> str:
    if path.startswith("catalog:"):
        return path
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_pair(args) -> tuple[FiniteGroup, Subgroup]:
    """The group argument and the subgroup that --normal (or the file) names."""
    G, A = load_group_file(args.group, cap=args.max_order, normal=args.normal)
    if A is None:
        raise FileFormatError("no normal subgroup named: pass --normal or add "
                              "normal_subgroup_generators to the group file")
    return G, A


def _series_lines(series: PowerSeries) -> list:
    lines = ["degree  coefficient"]
    for n, c in enumerate(series.coefficients):
        lines.append("%6d  %d" % (n, c))
    return lines


def cmd_irr(args) -> Report:
    G, _ = load_group_file(args.group, cap=args.max_order)
    table = character_table(G)
    lines = ["group %s: order %d, %d classes, exponent %d"
             % (G.name, G.order, len(table.classes), G.exponent)]
    header = "degree | " + "  ".join("c%d(%d)" % (r, s)
                                     for r, s in zip(table.class_reps, table.class_sizes))
    lines.append(header)
    texts = [str(v) for v in table.values]
    for d, row in zip(table.degrees, table.codes):
        lines.append("%6d | %s" % (d, "  ".join([texts[c] for c in row])))
    return Report(command="irr",
                  inputs_digest=_digest([args.group, _read_for_digest(args.group)]),
                  results=table.to_jsonable(), table_lines=lines)


def cmd_clifford(args) -> Report:
    G, A = _load_pair(args)
    report = k_decomposition_report(G, A)
    res = report.to_jsonable()
    lines = ["group %s, normal subgroup of order %d" % (G.name, A.order)]
    for rec in res["orbits"]:
        lines.append("orbit of irr #%d: size %d, stabilizer %d, quotient %d, "
                     "obstruction %s, count %d (omega-regular %d)"
                     % (rec["representative"], rec["orbit_size"], rec["stabilizer_order"],
                        rec["quotient_order"],
                        "trivial" if rec["obstruction_trivial"] else "NONTRIVIAL",
                        rec["twisted_count"], rec["omega_regular_count"]))
    lines.append("identity: %s" % res["identity"])
    lines.append("consistent: %s" % report.consistent)
    exit_status = EXIT_OK if report.consistent else EXIT_INCONSISTENT
    return Report(command="clifford",
                  inputs_digest=_digest([args.group, _read_for_digest(args.group), args.normal]),
                  results=res, exit_status=exit_status, table_lines=lines,
                  warnings=list(report.discrepancies) + list(report.notes))


def cmd_bundle_verify(args) -> Report:
    bundle, G, A = load_bundle_file(args.bundle, cap=args.max_order)
    if A is None:
        raise FileFormatError("bundle's group file does not name a normal subgroup")
    check = verify_decomposition(bundle, A)
    res = check.to_jsonable()
    res["group"] = G.name
    res["points"] = bundle.base.size
    lines = ["bundle over %d points, group %s" % (bundle.base.size, G.name)]
    for x, bad in check.per_point.items():  # every point, in order
        lines.append("point %d: %s" % (x, "ok" if not bad else "MISMATCH at classes %s" % bad))
    lines.append("decomposition %s" % ("verified" if check.ok else "FAILED"))
    return Report(command="bundle-verify",
                  inputs_digest=_digest([args.bundle, _read_for_digest(args.bundle)]),
                  results=res, exit_status=EXIT_OK if check.ok else EXIT_FALSE,
                  table_lines=lines)


def cmd_bordism(args) -> Report:
    results: dict
    if args.use_global:
        G, _ = load_group_file(args.group, cap=args.max_order)
        total, breakdown = global_generator_series(G, args.max_degree)
        results = {
            "group": G.name,
            "max_degree": args.max_degree,
            "localization": "generator counts after inverting the primes dividing |G|",
            "series": list(total.coefficients),
            "breakdown": {
                "class_%02d_order_%d" % (i, rep.order): {
                    "subgroup_order": rep.order,
                    "class_size": size,
                    "series": list(series.coefficients),
                }
                for i, (rep, size, series) in enumerate(breakdown)
            },
        }
        lines = ["global generator series for %s (localized away from |G|)" % G.name]
        lines += _series_lines(total)
        series = total
    else:
        G, A = _load_pair(args)
        series = adjacent_family_series(G, A, args.max_degree)
        results = {"group": G.name, "normal_subgroup_order": A.order,
                   "max_degree": args.max_degree,
                   "localization": "generator counts after inverting the primes dividing |G|",
                   "series": list(series.coefficients)}
        lines = ["adjacent-pair generator series for %s over a normal subgroup of order %d"
                 % (G.name, A.order)]
        lines += _series_lines(series)
    return Report(command="bordism",
                  inputs_digest=_digest([args.group, _read_for_digest(args.group),
                                         args.normal, args.max_degree, args.use_global]),
                  results=results, table_lines=lines)


def cmd_d2p(args) -> Report:
    report = d2p_certify(args.p, args.max_degree, cap=args.max_order)
    res = report.to_jsonable()
    ok = report.odd_vanishing and all(c >= 0 for c in report.global_series.coefficients)
    lines = ["dihedral group of order %d" % (2 * args.p)]
    lines.append("family sizes: %s" % {k: len(v) for k, v in report.families.items()})
    for adj in report.adjacency:
        lines.append("%s differs by a subgroup of order %d (class size %d), Weyl order %d"
                     % (adj["pair"], adj["differs_by_order"],
                        adj["conjugacy_class_size"], adj["weyl_order"]))
    lines.append("nontrivial character orbits: %d swapped pairs, %d fixed"
                 % (report.irr_pairs, report.irr_fixed))
    lines += _series_lines(report.global_series)
    lines.append("odd coefficients vanish: %s" % report.odd_vanishing)
    return Report(command="d2p",
                  inputs_digest=_digest([args.p, args.max_degree]),
                  results=res, exit_status=EXIT_OK if ok else EXIT_FALSE,
                  table_lines=lines)


def _int_option(name: str, least: int, message: str, base: int = 10):
    """An argparse type named ``name``: the int the text spells in ``base``
    (0 reads a 0x, 0o or 0b prefix), or ArgumentTypeError with ``message``
    when it is below ``least``."""
    def parse(text: str) -> int:
        value = int(text, base)
        if value < least:
            raise argparse.ArgumentTypeError("%s, got %s" % (message, text))
        return value

    parse.__name__ = name  # argparse names the type in "invalid ... value"
    return parse


_seed = _int_option("_seed", 0, "seed must be a non-negative integer", base=0)
_degree = _int_option("_degree", 0, "degree must be a non-negative integer")
_order = _int_option("_order", 1, "order cap must be a positive integer")


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # attached to the main parser with real defaults and to every subparser
    # with SUPPRESS, so the flags work on either side of the subcommand
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--format", choices=["table", "json"], default=dflt("table"))
    parser.add_argument("--seed", type=_seed, default=dflt(None),
                        help="accepted for compatibility; affects no output")
    parser.add_argument("--max-order", type=_order, default=dflt(DEFAULT_ORDER_CAP),
                        help="cap on the order of groups built from generators")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isotypic", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_global_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(name, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_global_options(p, suppress=True)
        return p

    p = subparser("irr", "character table of a group file")
    p.add_argument("group")
    p.set_defaults(func=cmd_irr)

    p = subparser("clifford", "orbit decomposition and rank identity")
    p.add_argument("group")
    p.add_argument("--normal", default=None,
                   help="generator indices into the file's list (e.g. '0,2'), "
                        "or trivial/full/center; defaults to the file's subgroup")
    p.set_defaults(func=cmd_clifford)

    p = subparser("bundle-verify", "verify the bundle decomposition")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_bundle_verify)

    p = subparser("bordism", "adjacent-pair or global generator series")
    p.add_argument("group")
    p.add_argument("--max-degree", type=_degree, default=20)
    # the global sum reads no normal subgroup, so naming one is an input error
    pick = p.add_mutually_exclusive_group()
    pick.add_argument("--normal", default=None)
    pick.add_argument("--global", dest="use_global", action="store_true",
                      help="sum over all conjugacy classes of subgroups")
    p.set_defaults(func=cmd_bordism)

    p = subparser("d2p", "dihedral certification report")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--max-degree", type=_degree, default=20)
    p.set_defaults(func=cmd_d2p)

    return parser


_ERROR_CODES = [
    ((FileFormatError, InvalidPermutation, NotPrime, NotOdd), EXIT_INPUT),
    ((ClosureOverflow, CapExceeded), EXIT_CAP),
    ((NotNormal,), EXIT_NOT_NORMAL),
    ((NotATrivial,), EXIT_NOT_A_TRIVIAL),
]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.func(args)
    except tuple(cls for classes, _ in _ERROR_CODES for cls in classes) as exc:
        code = next(code for classes, code in _ERROR_CODES if isinstance(exc, classes))
        print("error: %s" % exc, file=sys.stderr)
        return code
    except (IsotypicError, AssertionError) as exc:
        # an AssertionError is a failed exact check inside the package
        print("internal inconsistency: %s" % exc, file=sys.stderr)
        return EXIT_INCONSISTENT
    if args.format == "json":
        print(report.to_json())
    else:
        for line in report.table_lines:
            print(line)
        for warning in report.warnings:
            print("warning: %s" % warning)
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
