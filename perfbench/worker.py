"""Runs the passes of one workload in-process through `graphvariety.cli.main`.

Usage: worker.py PLAN RESULT SECONDS TRACE

A single closed loop: one command at a time, each started only when the one
before it has returned.  Passes repeat while the next one is expected to end
within SECONDS (at least MIN_PASSES).  Peak RSS is read before the untimed
check phase.  With TRACE=1 one untraced pass is followed by traced passes,
and the result holds per-layer figures instead of per-command times.
"""

import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import graphvariety  # noqa: E402
from graphvariety import (  # noqa: E402
    SingularityCertificate,
    VarietyContext,
    VertexAssignment,
    VertexWeighting,
    cli,
    color_classes,
    edge_count_closed_form,
    field_from_spec,
    parse_edge_list,
    standard_space,
    verify_certificate,
)

from tracing import Tracer, aggregate  # noqa: E402

MIN_PASSES = 2
JSON_INPUTS = ("--point", "--weighting", "--gram")


def probe():
    """Seconds for a fixed Fraction and dict loop that does not touch
    graphvariety: how fast this machine runs Python arithmetic right now."""
    t = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 4000):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        table[i * 7919 % 10007] = i
    return time.perf_counter() - t


def run_pass(steps, tracer=None):
    """One pass.  Before each command, untimed, the garbage of the previous
    one is collected (a CLI call starts from a fresh heap) and the machine's
    speed is probed.  Returns ((start, end), per-step records, command
    spans)."""
    records = []
    commands = []
    t_pass = time.perf_counter()
    for st in steps:
        gc.collect()
        speed = probe()
        buf = io.StringIO()
        first = len(tracer.sid) if tracer else 0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(st["argv"])
            error = None
        except Exception as exc:  # a crash counts as a failed command
            rc, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer:
            commands.append((st["metric"], first, len(tracer.sid)))
        records.append({"rc": rc, "error": error, "seconds": t1 - t0, "probe": speed,
                        "stdout": buf.getvalue()})
    return (t_pass, time.perf_counter()), records, commands


def digest(st, rec):
    if st["out"] is not None and os.path.exists(st["out"]):
        with open(st["out"], "rb") as f:
            data = f.read()
    else:
        data = b""
    return hashlib.sha256(rec["stdout"].encode() + b"\0" + data).hexdigest()


def read_text(path):
    with open(path) as f:
        return f.read()


def load_json(path):
    return json.loads(read_text(path))


def check_output(st, rec):
    """None when the output passes its check, else the reason it fails."""
    chk = st["check"]
    if chk is None:
        return None
    kind = chk["kind"]
    obj = json.loads(rec["stdout"] if st["out"] is None else read_text(st["out"]))
    if kind == "member":
        ok = obj["is_member"] is True
    elif kind == "smooth":
        ok = obj["certificate"] is None
    elif kind == "valid":
        ok = obj["valid"] is True
    elif kind == "count":
        ok = obj["count"] == str(chk["count"])
    elif kind == "edge_count":
        ok = obj["count"] == str(edge_count_closed_form(chk["n"], chk["q"]))
    elif kind == "analyze":
        ok = (obj["num_vertices"], obj["num_edges"]) == (str(chk["vertices"]),
                                                         str(chk["edges"]))
    elif kind == "equations":
        ok = len(obj["equations"]) == chk["edges"]
    elif kind == "weighting":
        graph = parse_edge_list(read_text(chk["graph"]))
        weighting = VertexWeighting(
            colors=tuple(obj["colors"]),
            weights={int(v): tuple(int(x) for x in vec) for v, vec in obj["weights"].items()})
        ok = color_classes(graph, weighting).valid
    elif kind == "certificate":
        graph = parse_edge_list(read_text(chk["graph"]))
        raw = load_json(chk["point"])
        field = field_from_spec(raw["field"])
        vectors = raw["vectors"]
        point = VertexAssignment(field, [vectors[str(v)] for v in range(len(vectors))])
        cert_obj = obj["certificate"]
        if cert_obj is None:
            return "no certificate at a singular point"
        cert = SingularityCertificate(
            edges=tuple((int(lo), int(hi)) for lo, hi, _ in cert_obj["weights"]),
            values=tuple(field(x) for _, _, x in cert_obj["weights"]))
        ctx = VarietyContext(graph, standard_space("symplectic", chk["dim"], field))
        ok = verify_certificate(ctx, point, cert)
    else:
        raise ValueError(f"unknown check {kind!r}")
    return None if ok else f"{kind} check failed"


def run_passes(steps, seconds, min_passes):
    passes = []
    digests = []
    t_start = time.perf_counter()
    while True:
        span, records, _ = run_pass(steps)
        digests.append([digest(st, rec) for st, rec in zip(steps, records)])
        passes.append((span, records))
        elapsed = time.perf_counter() - t_start
        if len(passes) >= min_passes and elapsed + span[1] - span[0] > seconds:
            return passes, digests


def layer_figures(tracer, steps, commands):
    """Per-layer metrics of one traced pass, plus per-command detail."""
    spans = tracer.spans()
    names = tracer.names
    stats = aggregate(spans, names)
    figures = {}
    for name, (calls, self_t, total) in stats.items():
        figures[f"{name}.calls"] = calls
        figures[f"{name}.self_s"] = self_t
        figures[f"{name}.total_s"] = total
    figures.update(tracer.counters)
    palette = figures.get("splitting.palette_size", 0)
    figures["splitting.class_use_ratio"] = (
        figures.get("splitting.classes_used", 0) / palette if palette else 0.0)
    figures["cli.overhead_s"] = figures.get("cli.main.self_s", 0.0)
    figures["serialization.in_bytes"] = sum(
        os.path.getsize(st["argv"][i + 1]) for st in steps
        for i, a in enumerate(st["argv"][:-1]) if a in JSON_INPUTS)
    per_command = []
    for metric, lo, hi in commands:
        cmd_stats = aggregate(spans, names, lo, hi)
        main_total = cmd_stats.get("cli.main", [0, 0.0, 0.0])[2]
        self_sum = sum(s[1] for s in cmd_stats.values())
        top = sorted(cmd_stats.items(), key=lambda kv: -kv[1][1])[:3]
        per_command.append({
            "metric": metric,
            "main_total_s": main_total,
            "self_sum_s": self_sum,
            "degeneracy_order_calls": cmd_stats.get("graphs.degeneracy_order", [0])[0],
            "top_self": [[n, s[1]] for n, s in top],
        })
    return figures, per_command


def main(argv):
    plan_path, result_path, seconds, trace = argv[0], argv[1], float(argv[2]), argv[3] == "1"
    if not os.path.abspath(graphvariety.__file__).startswith(SRC + os.sep):
        sys.exit(f"graphvariety was imported from {graphvariety.__file__}, not {SRC}")
    plan = load_json(plan_path)
    steps = plan["steps"]
    result = {}
    if not trace:
        passes, digests = run_passes(steps, seconds, MIN_PASSES)
    else:
        passes, digests = run_passes(steps, 0, 1)
        untraced = passes[0][0][1] - passes[0][0][0]
        tracer = Tracer()
        tracer.install()
        traced = []
        t_start = time.perf_counter()
        while True:
            tracer.reset()
            tracer.on = True
            span, records, commands = run_pass(steps, tracer)
            tracer.on = False
            wall = span[1] - span[0]
            passes.append((span, records))
            digests.append([digest(st, rec) for st, rec in zip(steps, records)])
            figures, per_command = layer_figures(tracer, steps, commands)
            figures["trace_overhead_s"] = wall - untraced
            traced.append(figures)
            if time.perf_counter() - t_start + untraced + wall > seconds:
                break
        result["layers"] = {k: statistics.median(f.get(k, 0) for f in traced)
                            for k in traced[-1]}
        result["per_command"] = per_command
        result["span_count"] = len(tracer.sid)
        with gzip.open(plan["spans_out"], "wt") as f:
            json.dump({"commands": commands, **tracer.dump()}, f)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["passes"] = [[r["seconds"] for r in p[1]] for p in passes]
    result["probes"] = [r["probe"] for p in passes for r in p[1]]
    # untimed check phase: every call that crashed, exited nonzero or whose
    # output differs from the first pass fails; the last pass's outputs are
    # also checked for correctness
    failures = []
    for k, (_, records) in enumerate(passes):
        for j, (st, rec) in enumerate(zip(steps, records)):
            if rec["rc"] != 0:
                failures.append([k, st["name"], rec["error"] or f"exit code {rec['rc']}"])
            elif digests[k][j] != digests[0][j]:
                failures.append([k, st["name"], "output differs from the first pass"])
    last = len(passes) - 1
    for st, rec in zip(steps, passes[-1][1]):
        if rec["rc"] == 0:
            try:
                reason = check_output(st, rec)
            except Exception as exc:  # a malformed output fails its check
                reason = f"{type(exc).__name__}: {exc}"
            if reason:
                failures.append([last, st["name"], reason])
    result["attempted"] = len(passes) * len(steps)
    result["failures"] = failures
    result["digests"] = {st["name"]: d for st, d in zip(steps, digests[-1])}
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1:])
