"""Command-line front end.

Subcommands: construct (build and certify a code, write a scheme file),
verify (re-check the consecutive column property), simulate (per-user
broadcast report for one demand vector), search (per-k candidate table and
budget fit), compare (exact rate/subpacketization tables against the
single-cache-point scheme).

Exit codes: 0 success or property satisfied, 1 domain error (including a
scheme too large to simulate), 2 usage error, 3 verification or simulation
failure.  With --json, errors are emitted as a
machine-readable object on stdout.  All commands are deterministic given
their flags and seed.  The first call of main builds the argparse tree
with every command but construct filled; construct's builder parsers are
made when construct is first chosen, and a builder's arguments when that
builder is first chosen.  Later calls in the process reuse the tree; help
and usage text still read COLUMNS when they print.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import analysis, caching, codes, design, schemefile
from .errors import (
    CodedCacheError,
    DecodeFailure,
    DomainError,
    IncompleteDemands,
    TooLarge,
)
from .gf import ScalarDomain, natural_domain


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc


def _component(text: str) -> tuple[list[int], int]:
    """Parse q:c0,c1,... into (gen_poly, q)."""
    head, _, tail = text.partition(":")
    try:
        q = int(head)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"component must be q:c0,c1,... got {text!r}") from exc
    return _int_list(tail), q


def _domain_from_args(args: argparse.Namespace) -> ScalarDomain:
    modulus = getattr(args, "modulus", None)
    if modulus is not None:
        return ScalarDomain.field(args.q, modulus)
    return natural_domain(args.q)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _source_params(source: schemefile.SchemeSource) -> tuple[int, int, int, int]:
    """(n, q, default alpha, num_points) of a loaded source."""
    if isinstance(source, codes.CrtCodewordSource):
        return source.n, source.q, source.k_min, source.num_codewords
    # Kronecker lifts certify at alpha = k, everything else at k + 1
    alpha = source.k if source.provenance.kind == "kron_identity" else source.k + 1
    return source.n, source.domain.q, alpha, source.num_codewords


def _print_summary(source: schemefile.SchemeSource, alpha: int,
                   cert: Optional[codes.CcpCertificate], out) -> None:
    n, q, _, num_points = _source_params(source)
    kind = source.provenance.kind
    print(f"scheme: n={n}, q={q}, {kind}; K={n * q} users, alpha={alpha}",
          file=out)
    if cert is not None:
        state = "satisfied" if cert.satisfied else "NOT satisfied"
        print(f"ccp: alpha={cert.alpha} {state} via {cert.method}", file=out)
    for transposed in (False, True):
        met = caching.code_point_metrics(n, q, alpha, num_points, transposed)
        tag = "transposed" if transposed else "base"
        print(f"{tag}: M/N={met['M_over_N']} F_s={met['F_s']} "
              f"R={met['R']} gain={met['gain']}", file=out)


_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true"}
_BASE = ("--base", {"required": True, "help": "scheme file of the base code"})
_OUT = (("--out", {"help": "scheme file to write (default: JSON to stdout)"}),
        ("--skip-certify", {**_FLAG, "help": "skip the consecutive-column-property check"}),
        ("--digest", {**_FLAG, "help": "embed a sha256 digest of the codeword matrix"}))
_FIELD = (("--q", {**_INT, "help": "alphabet size (prime power = field, else Z mod q)"}),
          ("--modulus", {"type": _int_list, "default": None,
                         "help": "irreducible polynomial for the extension field, "
                                 "comma-separated, constant term first"})) + _OUT

# construct's builders: name -> (help, arguments in help order, source factory)
_BUILDERS = {
    "mds": ("Vandermonde generator, needs q >= n",
            (("--n", _INT), ("--k", _INT)) + _FIELD,
            lambda a: codes.build_mds(a.n, a.k, _domain_from_args(a))),
    "cyclic": ("cyclic code from a generator polynomial",
               (("--n", _INT),
                ("--g", {"type": _int_list, "required": True,
                         "help": "generator polynomial, comma-separated, constant first"}))
               + _FIELD,
               lambda a: codes.build_cyclic(a.n, a.g, _domain_from_args(a))),
    "spc": ("single parity check code [I | 1]", (("--k", _INT),) + _FIELD,
            lambda a: codes.build_spc(a.k, _domain_from_args(a))),
    "claim5": ("block Vandermonde family (k=tz-1, n=t*alpha_cols, q > alpha_cols)",
               (("--t", _INT), ("--z", _INT), ("--alpha-cols", _INT)) + _FIELD,
               lambda a: codes.build_claim5(a.t, a.z, a.alpha_cols, _domain_from_args(a))),
    "claim6": ("banded block family (k=zt-1, n=(z+1)t, q >= z)",
               (("--t", _INT), ("--z", _INT)) + _FIELD,
               lambda a: codes.build_claim6(a.t, a.z, _domain_from_args(a))),
    "claim9": ("ring variant of the banded block family (z=2)",
               (("--t", _INT), ("--q", {**_INT, "help": "ring modulus"})) + _OUT,
               lambda a: codes.build_claim9(a.t, a.q)),
    "kron": ("Kronecker lift A (x) I_t of a base scheme file",
             (_BASE, ("--t", _INT)) + _OUT,
             lambda a: codes.kron_identity(_load_generator(a.base), a.t)),
    "extend": ("prepend s copies of the first alpha columns",
               (_BASE, ("--s", _INT), ("--alpha", {"type": int, "default": None})) + _OUT,
               lambda a: codes.extend_ccp(_load_generator(a.base), a.s, a.alpha)),
    "crt": ("residue source from prime-field cyclic components",
            (("--n", _INT), ("--component", {"type": _component, "action": "append",
                                             "required": True, "metavar": "q:c0,c1,...",
                                             "help": "component modulus and generator "
                                                     "polynomial (repeatable)"})) + _OUT,
            lambda a: codes.build_crt_cyclic(
                [(g, ScalarDomain.field(q)) for g, q in a.component], a.n)),
}


def cmd_construct(args: argparse.Namespace) -> int:
    source: schemefile.SchemeSource = _BUILDERS[args.builder][2](args)
    n, q, alpha, _ = _source_params(source)
    cert = None
    if not args.skip_certify:
        if isinstance(source, codes.CrtCodewordSource):
            comp_certs = [codes.check_ccp(c, alpha) for c in source.components]
            satisfied = all(c.satisfied for c in comp_certs)
            cert = codes.CcpCertificate(alpha, caching.least_z(n, alpha),
                                        satisfied, "componentwise",
                                        tuple(w for c in comp_certs for w in c.windows))
        elif source.provenance.kind == "cyclic":
            cert = codes.check_ccp_cyclic_shortcut(source)
        else:
            cert = codes.check_ccp(source, alpha)

    digests = None
    if args.digest:
        digests = {"codeword_matrix": schemefile.codeword_digest(source)}

    if args.out:
        schemefile.save_scheme(args.out, source, cert, digests)
        _print_summary(source, alpha, cert, sys.stdout)
        print(f"wrote {args.out}")
    else:
        doc = schemefile.scheme_to_dict(source, cert, digests)
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        _print_summary(source, alpha, cert, sys.stderr)
    if cert is not None and not cert.satisfied:
        return 3
    return 0


def _load_generator(path: str) -> codes.GeneratorMatrix:
    source, _ = schemefile.load_scheme(path)
    if not isinstance(source, codes.GeneratorMatrix):
        raise DomainError(f"{path} holds a residue source; this operation "
                          "needs a generator matrix")
    return source


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _print_certificate(cert: codes.CcpCertificate) -> None:
    print(f"alpha={cert.alpha} z={cert.z} method={cert.method}")
    for w in cert.windows:
        verdict = "ok" if w.ok else "FAIL"
        print(f"  window {w.index} cols={list(w.columns)}: {verdict}")
        if not w.ok:
            for name, ok in w.checks:
                if not ok:
                    print(f"    failed: {name}")
    print("satisfied" if cert.satisfied else "not satisfied")


def cmd_verify(args: argparse.Namespace) -> int:
    source, doc = schemefile.load_scheme(args.file)
    if isinstance(source, codes.CrtCodewordSource):
        alpha = args.alpha if args.alpha is not None else source.k_min
        if args.method == "cyclic":
            raise DomainError("the cyclic shortcut applies to a single "
                              "generator matrix, not a residue source")
        ok = True
        for idx, comp in enumerate(source.components):
            cert = codes.check_ccp(comp, alpha)
            print(f"component {idx} (q={comp.domain.q}):")
            _print_certificate(cert)
            ok = ok and cert.satisfied
        return 0 if ok else 3
    alpha = args.alpha if args.alpha is not None else _source_params(source)[2]
    if args.method == "cyclic":
        cert = codes.check_ccp_cyclic_shortcut(source)
    else:
        cert = codes.check_ccp(source, alpha)
    _print_certificate(cert)
    return 0 if cert.satisfied else 3


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _parse_demands(spec: str, num_users: int, num_files: int,
                   seed: int) -> list[int]:
    if num_files < 1:
        raise IncompleteDemands(f"need at least one file, got {num_files}")
    if spec == "uniform-random":
        stream = caching.byte_stream(seed + 1, 8 * num_users)
        return [int.from_bytes(stream[8 * u:8 * u + 8], "little") % num_files
                for u in range(num_users)]
    if spec.startswith("all-same:"):
        try:
            idx = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise IncompleteDemands(f"bad demand spec {spec!r}") from exc
        return [idx] * num_users
    try:
        demands = [int(x) for x in spec.split(",")]
    except ValueError as exc:
        raise IncompleteDemands(f"bad demand spec {spec!r}") from exc
    return demands


def _report_json(report: caching.SimulationReport, demands: Sequence[int],
                 transposed: bool) -> dict:
    return {
        "format": "codedcache-simulation",
        "version": 1,
        "transposed": transposed,
        "num_users": report.num_users,
        "num_files": report.num_files,
        "subfile_bytes": report.subfile_bytes,
        "F_s": report.f_s,
        "delta": report.delta,
        "rate": str(report.rate),
        "load_bytes": report.load_bytes,
        "seed": report.seed,
        "demands": list(demands),
        "all_ok": report.all_ok,
        "users": [{"user": u.user, "demanded": u.demanded,
                   "recovered": u.recovered_count,
                   "complete": u.complete, "exact": u.exact}
                  for u in report.users],
    }


def _refuse_oversize(n: int, q: int, alpha: int, num_points: int) -> None:
    """Refuse from the closed forms, before anything is enumerated, when the
    codewords or the base equations (the transposed subfiles) exceed the
    size cap, or their terms, alpha per equation, exceed the term cap.
    alpha must already have passed caching.check_alpha."""
    cap = schemefile.SIZE_CAP
    if num_points > cap:
        raise TooLarge(f"{num_points} codewords exceed the size cap {cap}")
    met = caching.code_point_metrics(n, q, alpha, num_points)
    delta = met["F_s"] * met["R"]
    if delta > cap:
        raise TooLarge(f"{delta} equations exceed the size cap {cap}")
    terms, term_cap = delta * alpha, schemefile.TERM_CAP
    if terms > term_cap:
        raise TooLarge(f"{terms} equation terms exceed the term cap {term_cap}")


def cmd_simulate(args: argparse.Namespace) -> int:
    source, _ = schemefile.load_scheme(args.file)
    n, q, default_alpha, num_points = _source_params(source)
    alpha = args.alpha if args.alpha is not None else default_alpha
    caching.check_alpha(source, alpha)
    _refuse_oversize(n, q, alpha, num_points)
    d = design.resolvable_design(design.codeword_matrix(source))
    scheme = caching.placement(d, alpha)
    graph = caching.recovery_set_graph(scheme.n, alpha)
    demands = _parse_demands(args.demands, scheme.num_users, args.files,
                             args.seed)
    plan = caching.generate_delivery(scheme, graph)
    if args.transpose:
        matrix = caching.equation_subfile_matrix(scheme, plan).transpose()
        ms = caching.scheme_from_eq_subfile(matrix)
    else:
        ms = caching.scheme_from_plan(scheme, plan)
    report = caching.simulate(ms, demands, args.files, args.bytes, args.seed)
    json.dump(_report_json(report, demands, args.transpose), sys.stdout,
              indent=2)
    sys.stdout.write("\n")
    return 0 if report.all_ok else 3


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def cmd_search(args: argparse.Namespace) -> int:
    entries = analysis.construct_candidate_set(args.n, args.q, args.cyclic_limit)
    budget_result = None
    if args.budget is not None:
        budget_result = analysis.k_max_for_budget(args.n, args.q, args.budget,
                                                  entries=entries)
    header = f"{'k':>3} {'n_prime':>7} {'z':>3} {'a_col':>5} {'found':>5}  construction"
    print(header)
    for e in entries:
        mark = ""
        if budget_result and e.k == budget_result["k_max"]:
            mark = "  <-- k_max for budget"
        print(f"{e.k:>3} {e.n_prime:>7} {e.z:>3} {e.alpha_cols:>5} "
              f"{str(e.found):>5}  {analysis._route_label(e)}{mark}")
        for note in e.notes:
            print(f"      note: {note}")
    if budget_result:
        print(f"k_max={budget_result['k_max']} F_s={budget_result['F_s']} "
              f"g_max={budget_result['g_max']} (budget {args.budget})")
    if args.csv:
        lines = ["k,n_prime,z,alpha_cols,found,construction"]
        for e in entries:
            lines.append(f"{e.k},{e.n_prime},{e.z},{e.alpha_cols},"
                         f"{e.found},\"{analysis._route_label(e)}\"")
        _write_text(args.csv, "\n".join(lines) + "\n")
    if args.json_out:
        doc = {"format": "codedcache-search", "version": 1,
               "n": args.n, "q": args.q,
               "cyclic_limit": args.cyclic_limit,
               "budget": args.budget,
               "budget_result": budget_result,
               "entries": [{"k": e.k, "n_prime": e.n_prime, "z": e.z,
                            "alpha_cols": e.alpha_cols, "found": e.found,
                            "route": list(e.route), "notes": list(e.notes)}
                           for e in entries]}
        _write_text(args.json_out, json.dumps(doc, indent=2) + "\n")
    return 0


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args: argparse.Namespace) -> int:
    points = []
    for path in args.files:
        source, _ = schemefile.load_scheme(path)
        n, q, default_alpha, num_points = _source_params(source)
        alpha = args.alpha if args.alpha is not None else default_alpha
        caching.check_alpha(source, alpha)
        sid = os.path.splitext(os.path.basename(path))[0]
        points.append({"scheme_id": sid, "n": n, "q": q, "alpha": alpha,
                       "num_points": num_points})
    rows = analysis.compare(points, include_mn=args.mn,
                            include_memory_sharing=args.memory_sharing)
    print(analysis.comparison_csv(rows), end="")
    if args.csv:
        _write_text(args.csv, analysis.comparison_csv(rows))
    if args.json_out:
        _write_text(args.json_out, analysis.comparison_json(rows))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _FillOnChoice(argparse._SubParsersAction):
    """Subparsers that fill a chosen parser just before it parses: the
    first call that picks a name in ``fills`` runs ``fills[name](parser)``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fills = {}

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        fill = self.fills.pop(values[0], None)
        if fill is not None:
            fill(self._name_parser_map[values[0]])
        super().__call__(parser, namespace, values, option_string)


def _fill_construct(con: argparse.ArgumentParser) -> None:
    """construct's builder parsers by name and help; each builder's
    arguments are added when that builder is chosen."""
    sub = con.add_subparsers(dest="builder", metavar="builder", required=True,
                             action=_FillOnChoice)
    for name, (text, arguments, _) in _BUILDERS.items():
        sub.add_parser(name, help=text)
        sub.fills[name] = functools.partial(_add_arguments, arguments)


def _add_arguments(arguments, p: argparse.ArgumentParser) -> None:
    for flag, kwargs in arguments:
        p.add_argument(flag, **kwargs)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The tree, built once and reused by main: every command but
    construct is filled here; construct's builders are filled by the first
    call that chooses them (_FillOnChoice), and parsing changes nothing else."""
    parser = argparse.ArgumentParser(
        prog="codedcache",
        description="Construct, certify, and simulate low-subpacketization "
                    "coded caching schemes from linear block codes.")
    parser.add_argument("--json", action="store_true",
                        help="emit errors as machine-readable JSON on stdout")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                action=_FillOnChoice)
    sub.add_parser("construct", help="build a code and write a scheme file"
                   ).set_defaults(func=cmd_construct)
    sub.fills["construct"] = _fill_construct

    p = sub.add_parser("verify", help="check the consecutive column property")
    p.add_argument("file", help="scheme file")
    p.add_argument("--alpha", type=int, default=None,
                   help="window width (default: k+1, residue sources: k_min)")
    p.add_argument("--method", choices=["exhaustive", "cyclic"],
                   default="exhaustive")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="report the broadcast for one demand vector")
    p.add_argument("file", help="scheme file")
    p.add_argument("--files", type=int, required=True, help="library size N")
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--bytes", type=int, default=16, help="bytes per subfile")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--demands", default="uniform-random",
                   help='"uniform-random", "all-same:i", or a comma list')
    p.add_argument("--transpose", action="store_true",
                   help="simulate the complementary-memory scheme")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("search", help="per-k candidate table for (n, q)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="subpacketization budget for k_max")
    p.add_argument("--cyclic-limit", type=int, default=10 ** 6,
                   help="candidate cap per cyclic length")
    p.add_argument("--csv", help="write the table as CSV")
    p.add_argument("--json-out", help="write the table (with routes) as JSON")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("compare", help="exact comparison table for scheme files")
    p.add_argument("files", nargs="+", help="scheme files")
    p.add_argument("--alpha", type=int, default=None,
                   help="gain parameter override for all schemes")
    p.add_argument("--mn", action="store_true",
                   help="include the single-cache-point baseline rows")
    p.add_argument("--memory-sharing", action="store_true",
                   help="include memory-sharing subpacketization bounds")
    p.add_argument("--csv", help="write the table as CSV")
    p.add_argument("--json-out", help="write the table as JSON")
    p.set_defaults(func=cmd_compare)

    return parser


def _emit_error(as_json: bool, exc: Exception) -> None:
    if as_json:
        doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        json.dump(doc, sys.stdout)
        sys.stdout.write("\n")
    else:
        print(f"error: {exc}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except DecodeFailure as exc:
        _emit_error(args.json, exc)
        return 3
    except CodedCacheError as exc:
        _emit_error(args.json, exc)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
