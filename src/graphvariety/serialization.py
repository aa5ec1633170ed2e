"""JSON wire formats.

Every number travels as a decimal string so arbitrarily large integers and
exact rationals survive any JSON parser untouched; booleans stay booleans.
`write_canonical` is the one writer: every document the CLI emits, on
stdout, in an `--out` file or as an error on stderr, is
`json.dumps(obj, sort_keys=True, indent=2)` plus a newline, making repeated
runs byte-identical, without `json`'s pure-Python indent encoder.  It
streams the text, its top three levels member by member, so an `equations`
document is written an edge's members at a time and the shared term list's
text is never copied into an edge's.  A list is streamed when its first
member is a container; every list the CLI writes holds only containers or
only scalars.  Any other value, and everything below those levels, is one
piece that `_encode` builds: a list of strings is joined in C, in one join
when no string needs an escape (a list is tried as strings only when it
starts with one), and a container seen again at the same depth, such as the
one term list `equations_to_obj` gives every edge equation, is encoded at
most twice per call: its text is kept from its second encoding on, so the
text of a container met once is never held past its use.
`weighting_from_json` converts each weight vector as soon as it is parsed,
so a weighting file's palette strings are never all held at once.

`assignment_from_obj` hands a point's JSON scalars to
`variety.VertexAssignment`, which keeps only their integer form, and
`assignment_to_obj` prints from it: neither builds a `Fraction` per
coordinate.  `gram_terms_from_obj` reads a dense `--gram` matrix into the
sparse terms `bilinear.BilinearSpace` takes.
"""

import contextlib
import json
from fractions import Fraction
from math import gcd

from .bilinear import check_dimension_ceiling
from .fields import field_from_spec
from .splitting import VertexWeighting
from .variety import VertexAssignment


_CONTAINERS = (list, tuple, dict)
_quote = json.encoder.encode_basestring_ascii
_space = json.decoder.WHITESPACE.match
_decode = json.JSONDecoder().raw_decode


def write_canonical(obj, stream):
    """Write `json.dumps(obj, sort_keys=True, indent=2)` and a newline to a
    text stream, in pieces."""
    _write(obj, stream.write, "\n", {}, 3)
    stream.write("\n")


def _write(obj, write, nl, memo, levels):
    """Write `_encode(obj, nl, memo)`: a dict, or a list whose first member
    is a container, up to `levels` deep member by member, pairing each
    member with its prefix only as it is written; any other value in one
    piece."""
    if levels and isinstance(obj, dict) and obj:
        members = ((_quote(k) + ": ", v) for k, v in sorted(obj.items()))
    elif levels and isinstance(obj, (list, tuple)) and obj and isinstance(obj[0], _CONTAINERS):
        members = (("", x) for x in obj)
    else:  # past `levels`, a scalar, an empty container or a list that starts with a scalar
        write(_encode(obj, nl, memo))
        return
    inner = nl + "  "
    open_, close = "{}" if isinstance(obj, dict) else "[]"
    for i, (prefix, v) in enumerate(members):
        write(("," if i else open_) + inner + prefix)
        _write(v, write, inner, memo, levels - 1)
    write(nl + close)


def _strings(items, nl):
    """`_encode` of a nonempty list placed after `nl` if its items are all
    strings, else None: joined in C, in one join when no string needs an
    escape.  Only a list that starts with a string is tried, so a list of
    containers raises no TypeError."""
    if not isinstance(items[0], str):
        return None
    try:
        joined = "".join(items)
    except TypeError:
        return None
    inner = nl + "  "
    if joined.isascii() and joined.isprintable() and '"' not in joined and "\\" not in joined:
        body = '"' + ('",' + inner + '"').join(items) + '"'  # nothing to escape
    else:
        body = ("," + inner).join(map(_quote, items))
    return "[" + inner + body + nl + "]"


def _encode(obj, nl, memo):
    """The canonical JSON of `obj` placed after the line break and indent
    `nl`.  `memo` maps the id and depth of each container encoded in this
    call to the container, which keeps its id from being reused, and to its
    text once it has been encoded twice (None before), so a writer does not
    hold the text of every container met once, such as each edge equation,
    until it ends."""
    if isinstance(obj, str):
        return _quote(obj)
    if not isinstance(obj, _CONTAINERS):
        if obj is None or obj is True or obj is False:
            return "null" if obj is None else "true" if obj else "false"
        if isinstance(obj, int):
            return int.__repr__(obj)
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    if not isinstance(obj, dict) and (text := _strings(obj, nl)) is not None:
        return text  # too cheap to be worth a memo entry
    key = (id(obj), len(nl))
    seen = memo.get(key)
    if seen is not None and seen[1] is not None:
        return seen[1]
    inner = nl + "  "
    if isinstance(obj, dict):
        body = [_quote(k) + ": " + _encode(v, inner, memo) for k, v in sorted(obj.items())]
        text = "{" + inner + ("," + inner).join(body) + nl + "}"
    else:
        text = "[" + inner + ("," + inner).join([_encode(x, inner, memo) for x in obj]) + nl + "]"
    memo[key] = (obj, None if seen is None else text)
    return text


def scalar_to_str(x):
    if isinstance(x, (Fraction, int)):
        return str(x)
    raise TypeError(f"cannot serialize scalar {x!r}")


def assignment_to_obj(assignment):
    """The point as JSON, printed from its integer form: x / d as
    `str(Fraction(x, d))` would print it, with g = gcd(x, d) dividing both;
    residues over F_p (d = 1) as they are."""
    return {
        "field": assignment.field.name,
        "vectors": {str(v): _ratios(a, d) for v, (a, d) in enumerate(assignment.numerators)},
    }


def _ratios(a, d):
    """The strings of the x / d for x in a, d > 0."""
    if d == 1:
        return list(map(str, a))
    out = []
    for x in a:
        g = gcd(x, d)
        out.append(str(x // d) if g == d else f"{x // g}/{d // g}")
    return out


def _scalars(items, what):
    """`items`, checked to be a JSON list of strings or integers."""
    if type(items) is not list or not set(map(type, items)) <= {str, int}:
        raise ValueError(f"{what} must be a JSON list of strings or integers")
    return items


def _vectors_by_vertex(raw, vector):
    """A JSON object's vectors in vertex order, each checked and converted by
    `vector(vec, what)`; its keys must be "0".."n-1"."""
    if type(raw) is not dict or set(raw) != {str(v) for v in range(len(raw))}:
        raise ValueError('vectors must be a JSON object keyed by vertices "0".."n-1"')
    return [vector(raw[str(v)], f"the vector of vertex {v}") for v in range(len(raw))]


def assignment_from_obj(obj):
    field = field_from_spec(obj["field"])
    return VertexAssignment(field, _vectors_by_vertex(obj["vectors"], _scalars))


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
    text = {x: str(x) for x in set().union(*weighting.weights.values())}
    return {
        "colors": list(weighting.colors),
        "weights": {str(v): list(map(text.__getitem__, vec)) for v, vec in weighting.weights.items()},
    }


def _weight_vector(vec, what):
    """`vec` as a tuple of ints.  A vertex's weights repeat heavily: each
    distinct entry is converted once, in list order, so the first bad entry
    is the one reported."""
    table = {x: int(x) for x in dict.fromkeys(_scalars(vec, what))}
    return tuple(map(table.__getitem__, vec))


def _weighting(obj, vector):
    colors = obj["colors"]
    # names become JSON object keys in the verifier's report, so they must be strings
    if type(colors) is not list or not set(map(type, colors)) <= {str}:
        raise ValueError("colors must be a JSON list of strings")
    if len(set(colors)) != len(colors):
        raise ValueError("colors must not repeat a name")
    return VertexWeighting(tuple(colors), dict(enumerate(_vectors_by_vertex(obj["weights"], vector))))


def weighting_from_json(text):
    """The weighting of the JSON document `text`, converting each vector of
    the top-level "weights" object to ints as soon as it is parsed."""
    def vector(key, idx):
        vec, idx = _decode(text, idx)
        with contextlib.suppress(ValueError):  # kept as parsed, for the checks to report
            vec = _weight_vector(vec, key)
        return vec, idx

    obj, end = _value(text, _space(text, 0).end(), lambda key, idx: (
        _value(text, idx, vector) if key == "weights" else _decode(text, idx)))
    end = _space(text, end).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    # JSON gives no tuples: a tuple is a vector converted above
    return _weighting(obj, lambda vec, what: vec if type(vec) is tuple else _weight_vector(vec, what))


def _value(text, idx, member):
    """The JSON value at `text[idx]` and the index after it.  An object's
    member values are parsed by `member(key, idx)`, anything else whole."""
    if not text.startswith("{", idx):
        return _decode(text, idx)
    obj = {}
    idx = _space(text, idx + 1).end()
    if text.startswith("}", idx):
        return obj, idx + 1
    while True:
        if not text.startswith('"', idx):
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, idx)
        key, idx = json.decoder.scanstring(text, idx + 1)
        idx = _space(text, idx).end()
        if not text.startswith(":", idx):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, idx)
        obj[key], idx = member(key, _space(text, idx + 1).end())
        idx = _space(text, idx).end()
        if text.startswith("}", idx):
            return obj, idx + 1
        if not text.startswith(",", idx):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, idx)
        idx = _space(text, idx + 1).end()


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


def equations_to_obj(edges, terms):
    """The defining equations, one per edge (lo, hi) in the given order:
    each term (i, j, c) stands for c * x_{lo,i} * x_{hi,j}.  Every edge
    shares one term list, which `_encode` encodes at most twice."""
    shared = [[str(i), str(j), scalar_to_str(c)] for i, j, c in terms]
    return {"equations": [{"edge": [str(lo), str(hi)], "terms": shared} for lo, hi in edges]}


def gram_terms_from_obj(obj, field):
    """The dimension n and the nonzero terms (i, j, value) of a JSON Gram
    matrix, n rows of n scalars each, for `BilinearSpace`."""
    n = len(obj)
    check_dimension_ceiling(n)
    rows = [[field(x) for x in _scalars(row, f"Gram row {i}")] for i, row in enumerate(obj)]
    if any(len(row) != n for row in rows):
        raise ValueError(f"gram matrix must be {n}x{n}")
    return n, [(i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
