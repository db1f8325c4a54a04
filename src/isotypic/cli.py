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
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

from . import repmatrices
from .bordism import (PowerSeries, adjacent_family_series, d2p_certify,
                      global_generator_series)
from .bundles import verify_decomposition
from .catalog import CATALOG
from .characters import character_table
from .errors import (CapExceeded, ClosureOverflow, InvalidPermutation,
                     IsotypicError, NotATrivial, NotNormal, NotOdd, NotPrime)
from .files import (FileFormatError, generator_elements, load_bundle_file,
                    load_group_file)
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
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "results": self.results,
            "warnings": self.warnings,
            "exit_status": self.exit_status,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


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


def _resolve_normal(G: FiniteGroup, file_normal: Optional[Subgroup],
                    selector: Optional[str], generators) -> Subgroup:
    if selector is None:
        if file_normal is None:
            raise FileFormatError("no normal subgroup named: pass --normal or add "
                                  "normal_subgroup_generators to the group file")
        return file_normal
    if selector == "trivial":
        return G.trivial_subgroup()
    if selector == "full":
        return G.full_subgroup()
    if selector == "center":
        return G.center()
    idxs = [x for x in selector.split(",") if x != ""]
    elems = generator_elements(G, generators, idxs, "--normal selector %r" % selector)
    return G.subgroup(elems, name="A")


def _series_lines(series: PowerSeries) -> list:
    lines = ["degree  coefficient"]
    for n, c in enumerate(series.coefficients):
        lines.append("%6d  %d" % (n, c))
    return lines


def _group_generators(args) -> list:
    """Generator permutations of the group argument, for --normal resolution."""
    if args.group.startswith("catalog:"):
        entry = CATALOG[args.group.split(":", 1)[1]]
        return [list(p) for p in entry.generators]
    with open(args.group) as fh:
        return [list(p) for p in json.load(fh)["generators"]]


def cmd_irr(args) -> Report:
    G, _ = load_group_file(args.group, cap=args.max_order)
    table = character_table(G)
    lines = ["group %s: order %d, %d classes, exponent %d"
             % (G.name, G.order, len(table.classes), G.exponent)]
    header = "degree | " + "  ".join("c%d(%d)" % (r, s)
                                     for r, s in zip(table.class_reps, table.class_sizes))
    lines.append(header)
    for d, row in zip(table.degrees, table.rows):
        lines.append("%6d | %s" % (d, "  ".join(str(v) for v in row.values)))
    return Report(command="irr",
                  inputs_digest=_digest([args.group, _read_for_digest(args.group)]),
                  results=table.to_jsonable(), table_lines=lines)


def cmd_clifford(args) -> Report:
    G, file_normal = load_group_file(args.group, cap=args.max_order)
    A = _resolve_normal(G, file_normal, args.normal, _group_generators(args))
    if not G.is_normal(A):
        raise NotNormal("the chosen subgroup is not normal in %s" % G.name)
    snap = max(repmatrices.DEFAULT_SNAP_TOL, 100 * args.tol)
    report = k_decomposition_report(G, A, seed=args.seed, tol=args.tol, snap_tol=snap)
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
    bundle, G, A = load_bundle_file(args.bundle)
    if A is None:
        raise FileFormatError("bundle's group file does not name a normal subgroup")
    if not G.is_normal(A):
        raise NotNormal("the named subgroup is not normal")
    check = verify_decomposition(bundle, A, check_all_points=True)
    res = check.to_jsonable()
    res["group"] = G.name
    res["points"] = bundle.base.size
    lines = ["bundle over %d points, group %s" % (bundle.base.size, G.name)]
    for x in range(bundle.base.size):
        bad = check.per_point.get(x)
        if bad is None:
            continue
        lines.append("point %d: %s" % (x, "ok" if not bad else "MISMATCH at classes %s" % bad))
    lines.append("decomposition %s" % ("verified" if check.ok else "FAILED"))
    return Report(command="bundle-verify",
                  inputs_digest=_digest([args.bundle, _read_for_digest(args.bundle)]),
                  results=res, exit_status=EXIT_OK if check.ok else EXIT_FALSE,
                  table_lines=lines)


def cmd_bordism(args) -> Report:
    G, file_normal = load_group_file(args.group, cap=args.max_order)
    results: dict
    if args.use_global:
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
        A = _resolve_normal(G, file_normal, args.normal, _group_generators(args))
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
    report = d2p_certify(args.p, args.max_degree)
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


def _seed(text: str) -> int:
    value = int(text, 0)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a non-negative integer, got %s" % text)
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("tolerance must be a positive finite number, got %s"
                                         % text)
    return value


def _degree(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("degree must be a non-negative integer, got %s" % text)
    return value


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # attached to the main parser with real defaults and to every subparser
    # with SUPPRESS, so the flags work on either side of the subcommand
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--format", choices=["table", "json"], default=dflt("table"))
    parser.add_argument("--tol", type=_tolerance, default=dflt(repmatrices.DEFAULT_TOL),
                        help="construction residual tolerance (default 1e-8)")
    parser.add_argument("--seed", type=_seed,
                        default=dflt(repmatrices.DEFAULT_SEED),
                        help="PRNG seed for the matrix representation splitting")
    parser.add_argument("--max-order", type=int, default=dflt(DEFAULT_ORDER_CAP),
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
    p.add_argument("--normal", default=None)
    p.add_argument("--max-degree", type=_degree, default=20)
    p.add_argument("--global", dest="use_global", action="store_true",
                   help="sum over all conjugacy classes of subgroups")
    p.set_defaults(func=cmd_bordism)

    p = subparser("d2p", "dihedral certification report")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--max-degree", type=_degree, default=20)
    p.set_defaults(func=cmd_d2p)

    return parser


_ERROR_CODES = [
    ((FileFormatError, InvalidPermutation, NotPrime, NotOdd, KeyError), EXIT_INPUT),
    ((ClosureOverflow, CapExceeded), EXIT_CAP),
    ((NotNormal,), EXIT_NOT_NORMAL),
    ((NotATrivial,), EXIT_NOT_A_TRIVIAL),
]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except tuple(cls for classes, _ in _ERROR_CODES for cls in classes) as exc:
        code = next(code for classes, code in _ERROR_CODES if isinstance(exc, classes))
        print("error: %s" % exc, file=sys.stderr)
        return code
    except IsotypicError as exc:
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
