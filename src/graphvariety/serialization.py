"""JSON wire formats.

Every number travels as a decimal string so arbitrarily large integers and
exact rationals survive any JSON parser untouched; booleans stay booleans.
`canonical_dumps` fixes key order and layout, making repeated runs
byte-identical; `write_canonical` streams the same text.
"""

import io
import json
from fractions import Fraction
from itertools import islice

from .fields import field_from_spec
from .splitting import VertexWeighting
from .variety import VertexAssignment


_CANONICAL = json.JSONEncoder(sort_keys=True, indent=2)


def canonical_dumps(obj):
    out = io.StringIO()
    write_canonical(obj, out)
    return out.getvalue()


def write_canonical(obj, stream):
    """Write the canonical JSON of `obj` and a newline to a text stream, in
    pieces of a few thousand encoder chunks, so neither the document nor the
    list of all its chunks is held in memory at once."""
    chunks = _CANONICAL.iterencode(obj)
    while piece := list(islice(chunks, 4096)):
        stream.write("".join(piece))
    stream.write("\n")


def scalar_to_str(x):
    if isinstance(x, (Fraction, int)):
        return str(x)
    raise TypeError(f"cannot serialize scalar {x!r}")


def assignment_to_obj(assignment):
    return {
        "field": assignment.field.name,
        "vectors": {
            str(v): [scalar_to_str(x) for x in vec]
            for v, vec in enumerate(assignment.vectors)
        },
    }


def _scalars(items, what):
    """`items`, checked to be a JSON list of strings or integers."""
    if type(items) is not list or not set(map(type, items)) <= {str, int}:
        raise ValueError(f"{what} must be a JSON list of strings or integers")
    return items


def _vectors_by_vertex(raw):
    """A JSON object's vectors in vertex order; its keys must be "0".."n-1"."""
    if type(raw) is not dict or set(raw) != {str(v) for v in range(len(raw))}:
        raise ValueError('vectors must be a JSON object keyed by vertices "0".."n-1"')
    return [_scalars(raw[str(v)], f"the vector of vertex {v}") for v in range(len(raw))]


def assignment_from_obj(obj):
    field = field_from_spec(obj["field"])
    vectors = [[field(x) for x in vec] for vec in _vectors_by_vertex(obj["vectors"])]
    return VertexAssignment(field, vectors)


def certificate_to_obj(certificate, field):
    return {
        "field": field.name,
        "weights": [
            [str(lo), str(hi), scalar_to_str(val)]
            for (lo, hi), val in zip(certificate.edges, certificate.values)
        ],
    }


def weighting_to_obj(weighting):
    # a vertex's weights repeat heavily over the palette: one string per value
    text = {x: str(x) for vec in weighting.weights.values() for x in set(vec)}
    return {
        "colors": list(weighting.colors),
        "weights": {str(v): [text[x] for x in vec] for v, vec in weighting.weights.items()},
    }


def weighting_from_obj(obj):
    colors = tuple(_scalars(obj["colors"], "colors"))
    if len(set(colors)) != len(colors):
        raise ValueError("colors must not repeat a name")
    weights = {}
    for v, vec in enumerate(_vectors_by_vertex(obj["weights"])):
        # a vertex's weights repeat heavily: convert each distinct entry once,
        # in list order, so the first bad entry is the one reported
        table = {x: int(x) for x in dict.fromkeys(vec)}
        weights[v] = tuple(map(table.__getitem__, vec))
    return VertexWeighting(colors=colors, weights=weights)


def splitting_report_to_obj(report):
    return {
        "valid": report.valid,
        "color_count": str(report.color_count),
        "per_edge": [
            {
                "edge": [str(e.edge[0]), str(e.edge[1])],
                "argmax": list(e.argmax),
                "strict": e.strict,
            }
            for e in report.per_edge
        ],
        "classes": {
            c: [[str(lo), str(hi)] for lo, hi in edges]
            for c, edges in sorted(report.classes.items())
        },
        "matching_flags": dict(sorted(report.matching_flags.items())),
    }


def count_report_to_obj(report):
    return {
        "count": str(report.count),
        "q": str(report.q),
        "expected_dimension": str(report.expected_dimension),
        "ratio": str(report.ratio),
    }


def equations_to_obj(eqs):
    # edges share their Gram terms: each term tuple object is encoded once,
    # looked up by identity, since hashing the tuple would walk all its terms;
    # the cache holds the tuple too, so its id is not reused meanwhile
    encoded = {}
    out = []
    for eq in eqs:
        key = id(eq.terms)
        if key not in encoded:
            encoded[key] = (eq.terms, [[str(i), str(j), scalar_to_str(c)] for i, j, c in eq.terms])
        out.append({"edge": [str(eq.edge[0]), str(eq.edge[1])], "terms": encoded[key][1]})
    return {"equations": out}


def gram_rows_from_obj(obj, field):
    return [[field(x) for x in _scalars(row, f"Gram row {i}")] for i, row in enumerate(obj)]
