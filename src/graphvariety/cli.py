"""Command-line front end.

Each subcommand wraps one library operation: it reads the graph (and point,
weighting, or Gram matrix) from files, runs the operation, and emits one JSON
document.  With --out the JSON goes to that file and a one-line human summary
goes to stdout; without it the JSON itself is printed.  Errors become a JSON
object on stderr and exit code 1.  All output is deterministic for fixed
inputs and seeds.

A call builds the parser of the invoked subcommand alone.  Help, an empty
argument list, an unknown command and unrecognized arguments go to the
parser of all nine, so every help, usage and error text is the same.
"""

import argparse
import json
import sys

from .bilinear import BilinearSpace, standard_space
from .counting import DEFAULT_WORK_CAP, CountRequest, count_points
from .errors import GraphVarietyError
from .fields import RATIONALS, field_from_spec
from .graphs import degeneracy_order, parse_edge_list
from .sampling import sample_regular_point
from .serialization import (
    assignment_from_obj,
    assignment_to_obj,
    certificate_to_obj,
    count_report_to_obj,
    equations_to_obj,
    gram_terms_from_obj,
    scalar_to_str,
    splitting_report_to_obj,
    weighting_from_json,
    weighting_to_obj,
    write_canonical,
)
from .splitting import color_classes, split_forest_into_matchings, split_into_matchings
from .variety import (
    VarietyContext,
    canonical_degrees,
    expected_dimension,
    is_anti_ample,
    projective_smoothness,
    residual,
    singular_certificate,
)


def _read(path):
    with open(path) as f:
        return f.read()


def _load_json(path, parse=json.loads):
    """`parse` of the file's text; nesting too deep to decode is a ValueError."""
    try:
        return parse(_read(path))
    except RecursionError:
        raise ValueError(f"JSON in {path} is nested too deeply") from None


def _load_graph(args):
    return parse_edge_list(_read(args.graph))


def _resolve_space(args, field):
    if args.gram is not None:
        if args.form not in ("symplectic", "symmetric"):
            raise ValueError("--form must be symplectic or symmetric with --gram")
        n, terms = gram_terms_from_obj(_load_json(args.gram), field)
        if args.dim is not None and args.dim != n:
            raise ValueError(f"--dim {args.dim} does not match the {n}x{n} --gram")
        return BilinearSpace(n, args.form, terms, field)
    if args.dim is None:
        raise ValueError("--dim is required unless --gram is given")
    return standard_space(args.form, args.dim, field)


def cmd_analyze(args):
    g = _load_graph(args)
    space = _resolve_space(args, RATIONALS)
    n = space.n
    kind = space.kind
    order, d = degeneracy_order(g)
    big_d = g.max_degree()
    degrees = canonical_degrees(g, n)
    verdict = projective_smoothness(g, n, kind)
    bounds = {
        "n_ge_2_times_degeneracy": n >= 2 * d,
        "n_ge_degeneracy_plus_max_degree_minus_1": n >= d + big_d - 1,
        "n_gt_degeneracy_plus_max_degree_minus_1": n > d + big_d - 1,
        "n_gt_max_degree": n > big_d,
    }
    payload = {
        "num_vertices": str(g.num_vertices),
        "num_edges": str(g.num_edges),
        "max_degree": str(big_d),
        "degeneracy": str(d),
        "degeneracy_order": [str(v) for v in order],
        "is_forest": verdict == "smooth",
        "dimension": str(n),
        "form_kind": kind,
        "expected_dimension": str(expected_dimension(g, space)),
        "canonical_degrees": [str(x) for x in degrees],
        "anti_ample": is_anti_ample(degrees),
        "bounds": bounds,
        "projective_verdict": verdict,
        "verdict_hypothesis_met": bounds["n_ge_degeneracy_plus_max_degree_minus_1"],
    }
    summary = (
        f"{g.num_vertices} vertices, {g.num_edges} edges, max degree {big_d}, "
        f"degeneracy {d}; projective verdict: {verdict}"
    )
    return payload, summary


def cmd_sample(args):
    g = _load_graph(args)
    field = field_from_spec(args.field)
    space = _resolve_space(args, field)
    assignment = sample_regular_point(g, space, args.seed, args.bound, args.retries)
    summary = (
        f"sampled a regular member point for {g.num_vertices} vertices "
        f"over {field.name} (n={space.n}, seed={args.seed})"
    )
    return assignment_to_obj(assignment), summary


def _point_context(args):
    """The graph, the point, and the variety over the point's field, read in
    that order so the first bad input is the one reported."""
    g = _load_graph(args)
    point = assignment_from_obj(_load_json(args.point))
    return VarietyContext(g, _resolve_space(args, point.field)), point


def cmd_check(args):
    ctx, point = _point_context(args)
    res = residual(ctx, point)
    member = all(x == 0 for x in res)
    payload = {
        "is_member": member,
        "residual": [scalar_to_str(x) for x in res],
    }
    summary = f"member={member} ({ctx.graph.num_edges} edge equations checked)"
    return payload, summary


def cmd_certify(args):
    ctx, point = _point_context(args)
    cert = singular_certificate(ctx, point)
    if cert is None:
        return {"certificate": None}, "point is smooth; no certificate"
    payload = {"certificate": certificate_to_obj(cert, point.field)}
    summary = f"singular point: certificate on {len(cert.edges)} edges"
    return payload, summary


def cmd_split(args):
    """`split`, or with `split-tree` the forest splitting on D colors."""
    forest = args.command == "split-tree"
    g = _load_graph(args)
    weighting = (split_forest_into_matchings if forest else split_into_matchings)(g)
    if not args.out:  # the summary, and the verifier run it reports, go unused
        return weighting_to_obj(weighting), None
    report = color_classes(g, weighting)
    summary = (
        f"split {g.num_edges} {'forest ' if forest else ''}edges into "
        f"{report.color_count} matching classes (palette {len(weighting.colors)}, "
        f"valid={report.valid})"
    )
    return weighting_to_obj(weighting), summary


def cmd_verify_split(args):
    g = _load_graph(args)
    weighting = _load_json(args.weighting, weighting_from_json)
    report = color_classes(g, weighting)
    summary = f"valid={report.valid}, {report.color_count} classes used"
    return splitting_report_to_obj(report), summary


def cmd_count(args):
    g = _load_graph(args)
    space = _resolve_space(args, field_from_spec(args.field))
    report = count_points(CountRequest(g, space, args.cap))
    summary = (
        f"{report.count} points over F_{report.q} "
        f"(expected dimension {report.expected_dimension}, ratio {report.ratio})"
    )
    return count_report_to_obj(report), summary


def cmd_equations(args):
    g = _load_graph(args)
    space = _resolve_space(args, field_from_spec(args.field))
    return equations_to_obj(g.edges, space.terms), f"{g.num_edges} edge equations emitted"


COMMANDS = ("analyze", "sample", "check", "certify", "split", "split-tree",
            "verify-split", "count", "equations")


def build_parser(only=None):
    """The parser of every subcommand, or, when `only` names one, of that
    subcommand alone: its help, usage and errors are the same text."""
    parser = argparse.ArgumentParser(
        prog="graphvariety",
        description="Exact tools for orthogonality varieties of graphs",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", required=True, help="edge-list file: one 'u v' per line")
    common.add_argument("--out", help="write the JSON document to this file")
    space = argparse.ArgumentParser(add_help=False)
    space.add_argument("--form", default="symplectic",
                       choices=["symplectic", "symmetric", "hyperbolic"],
                       help="standard form kind (or symmetry kind with --gram)")
    space.add_argument("--dim", type=int,
                       help="ambient dimension n for a standard form")
    space.add_argument("--gram", help="JSON file with an explicit Gram matrix")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents):
        """The subcommand's parser, or None when only another one is built."""
        if only not in (None, name):
            return None
        p = sub.add_parser(name, help=help, parents=[common, *parents])
        p.set_defaults(func=func)
        return p

    command("analyze", cmd_analyze, "combinatorial and geometric summary", space)

    if p := command("sample", cmd_sample, "sample a regular member point", space):
        p.add_argument("--field", default="Q", help='"Q" or "Fp:<prime>"')
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--bound", type=int, default=10,
                       help="coordinate range for rational draws")
        p.add_argument("--retries", type=int, default=64,
                       help="rejection retries per vertex")

    if p := command("check", cmd_check, "membership of a point file", space):
        p.add_argument("--point", required=True, help="vertex assignment JSON file")

    if p := command("certify", cmd_certify, "singularity certificate at a member point", space):
        p.add_argument("--point", required=True, help="vertex assignment JSON file")

    command("split", cmd_split, "split a graph into matchings")
    command("split-tree", cmd_split, "split a forest into max-degree matchings")

    if p := command("verify-split", cmd_verify_split, "verify a vertex weighting file"):
        p.add_argument("--weighting", required=True, help="vertex weighting JSON file")

    if p := command("count", cmd_count, "exact point count over a prime field", space):
        p.add_argument("--field", required=True, help='"Fp:<prime>"')
        p.add_argument("--cap", type=int, default=DEFAULT_WORK_CAP,
                       help="work cap on the enumeration estimate")

    if p := command("equations", cmd_equations, "emit the defining edge equations", space):
        p.add_argument("--field", default="Q", help='"Q" or "Fp:<prime>"')
    return parser


def _parse(argv):
    """The parsed arguments, from the invoked subcommand's parser alone.
    Help, an empty argv, an unknown command and unrecognized arguments go
    to the full parser, whose text names every subcommand."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        args, extras = build_parser(argv[0]).parse_known_args(argv)
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    try:
        payload, summary = args.func(args)
        if args.out:
            with open(args.out, "w") as f:
                write_canonical(payload, f)
        else:
            write_canonical(payload, sys.stdout)
    except (GraphVarietyError, ValueError, TypeError, KeyError, OSError) as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        write_canonical(err, sys.stderr)
        return 1
    if args.out:
        print(summary)
    return 0
