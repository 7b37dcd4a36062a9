"""Command-line front end.

Exit codes: 0 success, 1 witnessed failure (or failed verification),
2 input error, 3 guardrail refusal.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import certificates as certs
from .conditions import gamma, gamma2
from .errors import GraphInputError, LimitExceededError
from .multigraph import Multigraph, format_graph, load_graph, random_multigraph, write_graph
from .ndt import BoundedCover, ndt_decompose
from .packing import Packing, pack_rigid_and_trees
from .union import Decomposition, decompose


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise GraphInputError(f"--{name} is required for this command")


def _fraction(text: str) -> Fraction:
    try:
        return certs.read_number(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid fraction value: {text!r}") from None


# Each runner returns its result, the payload of a success (None for a
# condition report, which ``_run`` encodes) and its summary.

def _run_decompose(G: Multigraph, args) -> tuple[object, dict | None, str]:
    k, l = args.k, args.l
    result = decompose(G, k, l)
    if isinstance(result, Decomposition):
        return result, certs.decomposition_payload(result), (
            f"decomposable: {k} sparse class(es) + {l} forest(s)")
    return result, None, f"not decomposable ({result.condition}):"


def _run_pack(G: Multigraph, args) -> tuple[object, dict | None, str]:
    k, l = args.k, args.l
    result = pack_rigid_and_trees(G, k, l)
    if isinstance(result, Packing):
        return result, certs.packing_payload(result), (
            f"packed: {k} spanning rigid subgraph(s) + {l} spanning tree(s)")
    return result, None, "no packing:"


def _run_check(G: Multigraph, args) -> tuple[object, dict | None, str]:
    name = args.condition
    condition = certs.CONDITIONS[name]
    _require(args, *condition.params)
    report = condition.run(G, {p: getattr(args, p) for p in condition.params})
    return report, None, f"condition {name} " + ("holds" if report.holds else "fails:")


def _run_gamma(G: Multigraph, args) -> tuple[object, dict | None, str]:
    result = gamma(G) if args.which == "gamma" else gamma2(G)
    payload = certs.density_payload(args.which, result.value, result.argmax)
    return result, payload, f"{args.which} = {payload['value']} at X={sorted(result.argmax)}"


def _run_ndt(G: Multigraph, args) -> tuple[object, dict | None, str]:
    result = ndt_decompose(G, args.k, args.l)
    if isinstance(result, BoundedCover):
        payload = certs.bounded_cover_payload(result)
        return result, payload, (
            f"covered: {len(result.forests)} forest(s) + "
            f"{len(result.bounded_parts)} part(s) with max degree <= {payload['degree_bound']}"
        )
    return result, None, f"no bounded cover ({result.condition}):"


_RUNNERS = {
    "decompose": _run_decompose,
    "pack": _run_pack,
    "check": _run_check,
    "gamma": _run_gamma,
    "ndt": _run_ndt,
}


def _command_parameters(command: str, args) -> dict:
    if command == "check":
        return certs.check_parameters(args.condition, vars(args))
    if command == "gamma":
        return {"which": args.which}
    return {"k": args.k, "l": args.l}


def _run(command: str, args) -> int:
    G = load_graph(args.input)
    result, payload, summary = _RUNNERS[command](G, args)
    code = 0
    if payload is None:
        payload = certs.report_payload(G, result)
        if not result.holds:
            code = 1
            summary += certs.summarize_witness(payload["witness"])
    cert = certs.build_certificate(command, _command_parameters(command, args), G, payload)
    if args.out:
        certs.write_certificate(args.out, cert)
    print(summary)
    return code


def _cmd_verify(args) -> int:
    cert = certs.load_certificate(args.cert)
    G = load_graph(args.input)
    ok, reason = certs.verify_certificate(cert, G)
    if ok:
        print("certificate verified")
        return 0
    print(f"certificate verification FAILED: {reason}")
    return 1


def _cmd_random(args) -> int:
    G = random_multigraph(args.n, args.m, args.mult, args.seed)
    if args.out:
        write_graph(args.out, G)
        print(f"wrote random multigraph n={G.n} m={G.m} to {args.out}")
    else:
        sys.stdout.write(format_graph(G))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidpack",
        description="Sparse decompositions, rigid-subgraph/spanning-tree packings, "
        "and partition-condition checks for multigraphs, with verifiable certificates.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p):
        p.add_argument("input", help="graph file ('n m' header, then 'u v' lines)")
        p.add_argument("--out", help="certificate output path")

    p = sub.add_parser("decompose", help="decompose into k sparse classes and l forests")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--l", type=int, default=0)
    add_common(p)

    p = sub.add_parser("pack", help="pack k spanning rigid subgraphs and l spanning trees")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--l", type=int, default=0)
    add_common(p)

    p = sub.add_parser("check", help="evaluate a subset/partition condition")
    p.add_argument("condition", choices=[c for c, cond in certs.CONDITIONS.items() if cond.run])
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--d", type=_fraction, default=None,
                   help="degree bound for kwz: an integer or an exact fraction p/q")
    add_common(p)

    p = sub.add_parser("gamma", help="fractional density parameters")
    p.add_argument("which", choices=("gamma", "gamma2"))
    add_common(p)

    p = sub.add_parser("ndt", help="cover by l forests and 2k+2-l degree-bounded parts")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    add_common(p)

    p = sub.add_parser("verify", help="verify a certificate against its graph")
    p.add_argument("cert", help="certificate JSON file")
    p.add_argument("input", help="graph file the certificate refers to")

    p = sub.add_parser("random", help="generate a random multigraph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mult", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # argparse keeps no state between parse_args calls, so one parser
    # serves every main() call in the process.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.cmd == "verify":
            return _cmd_verify(args)
        if args.cmd == "random":
            return _cmd_random(args)
        return _run(args.cmd, args)
    except (GraphInputError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except LimitExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
