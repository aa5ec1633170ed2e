import io
import json
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from graphvariety import (
    CountRequest,
    Graph,
    PrimeField,
    RATIONALS,
    VarietyContext,
    VertexAssignment,
    VertexWeighting,
    color_classes,
    count_points,
    singular_certificate,
    split_into_matchings,
    standard_space,
)
from graphvariety.serialization import (
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
from oracles import (canonical_text, cycle_graph, cycle_singular_point, path_graph, point_key,
                     vectors, weighting_from_obj)


class TestScalars:
    def test_rationals(self):
        assert scalar_to_str(Fraction(3, 4)) == "3/4"
        assert scalar_to_str(Fraction(-3, 4)) == "-3/4"
        assert scalar_to_str(Fraction(5)) == "5"
        assert scalar_to_str(7) == "7"

    def test_prime_field(self):
        f = PrimeField(7)
        assert scalar_to_str(f(10)) == "3"


class TestCanonicalDumps:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_text({"b": "1", "a": "2"})
        assert text == '{\n  "a": "2",\n  "b": "1"\n}\n'

    @pytest.mark.parametrize("size", [0, 3, 5000])
    def test_streamed_text_equals_dumps(self, size):
        # 5000 list items give more encoder chunks than one streamed piece
        obj = {"b": [str(i) for i in range(size)], "a": {"k": True}}
        assert canonical_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"

    def test_identical_objects_give_identical_bytes(self):
        obj = {"x": ["1", "2"], "y": {"k": "3"}}
        assert canonical_text(obj) == canonical_text(json.loads(canonical_text(obj)))


# every character class `json` escapes differently, plus plain text
TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\n\x1f\x7f\u00e9\u2028\ud800\U0001f600a'),
                         st.characters()), max_size=6)
SCALARS = st.one_of(TEXT, st.integers(), st.integers(-10**40, 10**40), st.booleans(), st.none())
TREES = st.recursive(SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=5), st.lists(kids, max_size=5).map(tuple),
    st.lists(TEXT, max_size=5), st.dictionaries(TEXT, kids, max_size=5)), max_leaves=15)


@st.composite
def shared_trees(draw):
    """A tree in which one list object sits at two depths and twice at one."""
    shared = draw(st.lists(TREES, max_size=4))
    return {"top": shared, "nested": [draw(TREES), [shared, shared, {"again": shared}]],
            "rest": draw(TREES)}


class TestCanonicalText:
    """The writer gives exactly `json.dumps(obj, sort_keys=True, indent=2)`."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(TREES, shared_trees()))
    def test_matches_json_dumps(self, obj):
        expected = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        assert canonical_text(obj) == expected

    def test_a_container_met_thrice_at_one_depth(self):
        # "b" puts the three below the levels `write_canonical` streams
        shared = [["1", "2"], {"k": ["3"]}]
        obj = {"a": [shared, shared, shared], "b": [[[shared, shared, shared]]]}
        expected = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        assert canonical_text(obj) == expected

    # lists whose first member does or does not say what the rest are, at
    # the levels `write_canonical` streams and below them
    @pytest.mark.parametrize("obj", [
        ["s", ["t"]], [["t"], "s"], [1, "s"], ["s", 1], ["s", None, "t"], ["s", "t"],
        {"a": ["s", ["t"]], "b": [["t"], "s"], "c": [[1, "s"], ["s", 1]], "d": ["s", "\u00e9"]},
        {"a": [{"b": [["s", ["t"]], [["t"], "s"], ["s", "t"], [True, "s"]]}]},
        [[[["s", ["t"]], ["s", "t"]]]]])
    def test_mixed_lists(self, obj):
        expected = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        assert canonical_text(obj) == expected

    @pytest.mark.parametrize("obj", [
        Fraction(1, 2), [Fraction(1, 2)], {"a": 1.5}, 1.5, {1: "a"}, {"a": {None: "b"}},
        ["x", b"y"], {"a": [{"b": object()}]}])
    def test_unsupported_objects_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            write_canonical(obj, io.StringIO())


class TestAssignmentRoundTrip:
    def test_rational(self):
        pt = VertexAssignment(RATIONALS, [[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
        obj = assignment_to_obj(pt)
        assert obj["field"] == "Q"
        assert obj["vectors"]["0"] == ["1/2", "3"]
        back = assignment_from_obj(obj)
        assert point_key(back) == point_key(pt)

    def test_prime_field(self):
        f = PrimeField(11)
        pt = VertexAssignment(f, [[f(3), f(10)]])
        obj = assignment_to_obj(pt)
        assert obj["field"] == "Fp:11"
        assert point_key(assignment_from_obj(obj)) == point_key(pt)

    def test_vertex_keys_must_be_dense(self):
        obj = {"field": "Q", "vectors": {"0": ["1"], "2": ["1"]}}
        with pytest.raises(ValueError):
            assignment_from_obj(obj)

    def test_all_numbers_serialised_as_strings(self):
        pt = VertexAssignment(RATIONALS, [[1, 2]])
        text = canonical_text(assignment_to_obj(pt))
        payload = json.loads(text)
        assert all(isinstance(x, str) for x in payload["vectors"]["0"])


class TestAssignmentIntegerForm:
    """`assignment_to_obj` prints the integer form (a, d) itself: each
    string must be the one `str(Fraction(x, d))` gives."""

    BIG = 10**300

    @given(st.lists(st.integers(-5, 5) | st.integers(-BIG, BIG), min_size=1, max_size=6),
           st.sampled_from([1, 2, 12]) | st.integers(1, BIG))
    @example([0, -3, 4, -1], 1)
    @example([0, 0], 1)
    @example([-6, 0, 9, 4], 12)
    @example([-BIG - 1, BIG + 1, 0], 7 * BIG)
    @settings(max_examples=200, deadline=None)
    def test_rational_strings_match_fractions(self, a, d):
        g = gcd(d, *a)  # the least denominator, as the integer form holds it
        a, d = tuple(x // g for x in a), d // g
        pt = VertexAssignment.from_numerators(RATIONALS, [(a, d), ((0,) * len(a), 1)])
        vectors = assignment_to_obj(pt)["vectors"]
        assert vectors["0"] == [str(Fraction(x, d)) for x in a]
        assert vectors["1"] == ["0"] * len(a)

    @given(st.sampled_from([2, 3, 10007]), st.lists(st.integers(0, 10**6), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_residues_print_as_themselves(self, p, a):
        a = tuple(x % p for x in a)
        pt = VertexAssignment.from_numerators(PrimeField(p), [(a, 1)])
        assert assignment_to_obj(pt)["vectors"]["0"] == [str(x) for x in a]


# A plain string is [-]digits[/digits] in ASCII; the reader takes those and
# JSON ints to integers itself and hands every other string to the field.
NAMED_SCALARS = ["2/4", "-0", "007", "1/0", "5/-3", "+3", " 3", "1_0", "1.5", "1e4301",
                 "-", "\u0661\u0662", "0/0", "-0/7", "1/02", "3 ", "", "1//2", "1/2/3", "--3"]
LONG = "9" * 4301
scalar_inputs = st.one_of(
    st.integers(-10**40, 10**40),
    st.sampled_from(NAMED_SCALARS + [LONG, "-" + LONG, "1/" + LONG, LONG + "/7", LONG[1:]]),
    st.builds(lambda sign, zeros, num, den: f"{sign}{'0' * zeros}{num}" + (f"/{den}" if den else ""),
              st.sampled_from(["", "-"]), st.integers(0, 2), st.integers(0, 10**30),
              st.one_of(st.none(), st.integers(0, 10**30))),
    st.text("0123456789-/+_ .e\u0661", max_size=8),
)


def result_or_error(convert, value):
    """What `convert(value)` gives, or the type and message it raises."""
    try:
        return convert(value)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


class TestPointReader:
    """`assignment_from_obj` against the field on every scalar: the same
    values, or the same error for the first bad scalar of the point."""

    @pytest.mark.parametrize("field", [RATIONALS, PrimeField(101)], ids=lambda f: f.name)
    @given(raw=st.lists(st.lists(scalar_inputs, min_size=1, max_size=4), min_size=1,
                        max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_reader_agrees_with_the_field(self, field, raw):
        obj = {"field": field.name, "vectors": {str(v): vec for v, vec in enumerate(raw)}}
        read = result_or_error(assignment_from_obj, obj)
        expected = result_or_error(lambda vs: [[field(x) for x in vec] for vec in vs], raw)
        if isinstance(read, VertexAssignment):
            assert [list(vec) for vec in vectors(read)] == expected
            assert point_key(read) == point_key(VertexAssignment(field, expected))
            assert read.numerators == VertexAssignment(field, expected).numerators
        else:
            assert read == expected

    @pytest.mark.parametrize("field", [RATIONALS, PrimeField(101)], ids=lambda f: f.name)
    @given(raw=st.lists(st.lists(st.one_of(scalar_inputs, st.fractions()), min_size=1, max_size=4),
                        min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_constructor_agrees_with_the_reader(self, field, raw):
        """`VertexAssignment` on ints, strings and `Fraction`s: the field's
        values or its first error, and the point the reader builds from the
        same values in JSON, a `Fraction` as its string."""
        built = result_or_error(lambda vs: VertexAssignment(field, vs), raw)
        expected = result_or_error(lambda vs: [[field(x) for x in vec] for vec in vs], raw)
        if isinstance(built, VertexAssignment):
            assert [list(vec) for vec in vectors(built)] == expected
            obj = {"field": field.name, "vectors": {
                str(v): [str(x) if isinstance(x, Fraction) else x for x in vec]
                for v, vec in enumerate(raw)}}
            assert point_key(built) == point_key(assignment_from_obj(obj))
        else:
            assert built == expected

    @pytest.mark.parametrize("field", [RATIONALS, PrimeField(101)], ids=lambda f: f.name)
    def test_constructor_refuses_a_float(self, field):
        with pytest.raises(TypeError, match="^cannot coerce 0.5 into "):
            VertexAssignment(field, [[1, "2", Fraction(3, 4) if field.p is None else 3, 0.5]])

    @pytest.mark.parametrize("field", [RATIONALS, PrimeField(101)], ids=lambda f: f.name)
    @pytest.mark.parametrize("x", NAMED_SCALARS + [12, -5] + [
        pytest.param(LONG, id="4301-digits"), pytest.param("-" + LONG, id="-4301-digits"),
        pytest.param("1/" + LONG, id="1/4301-digits")])
    def test_named_scalars(self, field, x):
        obj = {"field": field.name, "vectors": {"0": ["1", x]}}
        read = result_or_error(lambda o: list(vectors(assignment_from_obj(o))[0]), obj)
        assert read == result_or_error(lambda y: [field(1), field(y)], x)

    def test_integer_form_is_reduced(self):
        obj = {"field": "Q", "vectors": {"0": ["2/4", "-6/8", "0"], "1": ["0/5", "0"], "2": ["4", "6"]}}
        assert assignment_from_obj(obj).numerators == (((2, -3, 0), 4), ((0, 0), 1), ((4, 6), 1))


class TestCertificateRoundTrip:
    def test_cycle_certificate(self):
        sp = standard_space("symplectic", 4, RATIONALS)
        cert = singular_certificate(VarietyContext(cycle_graph(4), sp), cycle_singular_point(4, sp))
        obj = certificate_to_obj(cert, RATIONALS)
        assert obj["field"] == "Q"
        assert obj["weights"][0] == ["0", "1", "1"]


class TestWeightingRoundTrip:
    def test_round_trip(self):
        w = VertexWeighting(("c1", "c2"), {0: (1, 0), 1: (0, 2), 2: (3, 0)})
        obj = weighting_to_obj(w)
        assert obj["colors"] == ["c1", "c2"]
        assert obj["weights"]["1"] == ["0", "2"]
        back = weighting_from_obj(obj)
        assert back == w

    def test_split_output_survives_the_trip(self):
        g = cycle_graph(5)
        w = split_into_matchings(g)
        back = weighting_from_obj(weighting_to_obj(w))
        assert color_classes(g, back).valid


    def test_first_bad_entry_is_reported(self):
        obj = {"colors": ["a", "b", "c", "d", "e"],
               "weights": {"0": ["1", "2", "3", "4", "5"],
                           "1": ["4", "y", "4", "x", "y"]}}
        with pytest.raises(ValueError, match="'y'") as err:
            weighting_from_obj(obj)
        assert "'x'" not in str(err.value)

    def test_repeated_entries_share_one_int(self):
        big = str(10**30)
        obj = {"colors": ["a", "b", "c", "d"], "weights": {"0": [big, "7", big, 7]}}
        vec = weighting_from_obj(obj).weights[0]
        assert vec == (10**30, 7, 10**30, 7)
        assert vec[0] is vec[2]


def outcome(read, text):
    """What `read(text)` returns, or the type and message of what it raises."""
    try:
        return read(text)
    except (ValueError, TypeError, KeyError) as exc:
        return type(exc), str(exc)


def loaded(text):
    return weighting_from_obj(json.loads(text))


def assert_read_as_loaded(text):
    expected, got = outcome(loaded, text), outcome(weighting_from_json, text)
    if isinstance(expected, tuple) and expected[0] is json.JSONDecodeError:
        # syntax errors: the wording varies with the Python version
        assert isinstance(got, tuple) and got[0] is json.JSONDecodeError, text
    else:
        assert got == expected, text


@st.composite
def weighting_documents(draw):
    """A valid weighting's JSON as any writer might lay it out: members in
    any order and spacing, keys partly escaped, extra top-level keys, and
    stale duplicate members before the ones that count."""
    k = draw(st.integers(0, 3))
    ints = st.integers(-10**30, 10**30)
    vector = st.lists(st.one_of(ints, ints.map(str)), min_size=k, max_size=k)
    space = st.text(" \t\n\r", max_size=2)

    def key(name):
        return '"' + "".join(
            f"\\u{ord(c):04x}" if ord(c) < 0x10000 and draw(st.booleans())
            else json.dumps(c, ensure_ascii=draw(st.booleans()))[1:-1] for c in name) + '"'

    def obj(members, stale):
        parts = []
        for name, value in draw(st.permutations(members)):
            if draw(st.booleans()):  # the last member of a name wins
                parts.append((name, draw(stale)))
            parts.append((name, value))
        return "{" + ",".join(draw(space) + key(name) + draw(space) + ":" + draw(space)
                              + value + draw(space) for name, value in parts) + "}"

    stale = st.one_of(TREES.map(json.dumps), st.just('["x"]'), st.just('{"0": ["x"]}'))
    n = draw(st.integers(0, 4))
    weights = obj([(str(v), json.dumps(draw(vector))) for v in range(n)], stale)
    members = [("colors", json.dumps(draw(st.lists(TEXT, min_size=k, max_size=k, unique=True)))),
               ("weights", weights)]
    extra = st.tuples(TEXT.filter(lambda name: name not in ("colors", "weights")), stale)
    return draw(space) + obj(members + draw(st.lists(extra, max_size=2)), stale) + draw(space)


class TestWeightingFromJson:
    """The streaming reader of verify-split against json.loads + weighting_from_obj."""

    @settings(max_examples=50, deadline=None)
    @given(weighting_documents())
    def test_same_weighting_as_loading_whole(self, text):
        assert weighting_from_json(text) == loaded(text)

    # no shrinking: a failure here can take minutes to shrink
    @settings(max_examples=80, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(weighting_documents(), st.data())
    def test_broken_documents_fail_as_loading_whole(self, text, data):
        cut = data.draw(st.integers(0, len(text)))
        patch = data.draw(st.sampled_from(["", '"', ",", ":", "{", "}", "]", "x", "0", "\\"]))
        assert_read_as_loaded(text[:cut] + patch + text[cut + data.draw(st.integers(0, 3)):])

    DOC = '{"colors": ["a", "b"], "weights": {"0": ["1", "0"], "1": ["0", "2"]}}'

    def test_every_character_swap_reads_as_loaded(self):
        for i in range(len(self.DOC)):
            for c in '#",:{}':
                assert_read_as_loaded(self.DOC[:i] + c + self.DOC[i + 1:])

    def test_every_truncation_is_a_json_error(self):
        for cut in range(len(self.DOC)):
            with pytest.raises(json.JSONDecodeError):
                weighting_from_json(self.DOC[:cut])

    @pytest.mark.parametrize("tail", [" x", "{}", "\n}", ',"colors": []}'])
    def test_trailing_data_is_a_json_error(self, tail):
        assert weighting_from_json(self.DOC + " \n") == loaded(self.DOC)
        with pytest.raises(json.JSONDecodeError, match="Extra data"):
            weighting_from_json(self.DOC + tail)

    @pytest.mark.parametrize("text", ["[]", '"weights"', "7", "null", '{"colors": [], "weights": []}'])
    def test_other_values_are_checked_whole(self, text):
        error = outcome(weighting_from_json, text)
        assert isinstance(error, tuple) and error == outcome(loaded, text)


class TestReportObjects:
    def test_splitting_report_shape(self):
        g = path_graph(3)
        rep = color_classes(g, split_into_matchings(g))
        obj = splitting_report_to_obj(rep)
        assert obj["valid"] is True
        assert obj["color_count"] == str(rep.color_count)
        assert all(set(e) == {"edge", "argmax", "strict"} for e in obj["per_edge"])
        for name, edges in obj["classes"].items():
            assert edges, name
            assert obj["matching_flags"][name] is True
        text = canonical_text(obj)
        assert json.loads(text) == obj

    def test_count_report_strings(self):
        g = Graph(2, [(0, 1)])
        sp = standard_space("symmetric", 2, PrimeField(3))
        obj = count_report_to_obj(count_points(CountRequest(g, sp)))
        assert obj == {
            "count": "33",
            "q": "3",
            "expected_dimension": "3",
            "ratio": "11/9",
        }

    def test_equations_shape(self):
        g = Graph(2, [(0, 1)])
        obj = equations_to_obj(g.edges, standard_space("symplectic", 2, RATIONALS).terms)
        assert obj["equations"][0]["edge"] == ["0", "1"]
        terms = obj["equations"][0]["terms"]
        assert ["0", "1", "1"] in terms and ["1", "0", "-1"] in terms


class CountingSink:
    """A text stream that keeps only the number of characters written."""

    size = 0

    def write(self, text):
        self.size += len(text)


class TestWriterMemory:
    def test_equations_are_not_held_until_the_write_ends(self):
        # a dense symmetric 128x128 Gram over Fp:10007: each of the 40 edge
        # equations repeats its 16384 terms, about 1.1 MB of text per edge
        rng = random.Random(0)
        a = [[rng.randrange(10007) for _ in range(128)] for _ in range(128)]
        terms = [(i, j, (a[i][j] + a[j][i]) % 10007) for i in range(128) for j in range(128)]
        obj = equations_to_obj([(v, v + 1) for v in range(40)], terms)
        sink = CountingSink()
        tracemalloc.start()
        try:
            write_canonical(obj, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 40 * 10**6
        assert peak < sink.size / 4


class TestGram:
    def test_round_trip(self):
        assert gram_terms_from_obj([["0", "1"], ["-1", "0"]], RATIONALS) == (
            2, [(0, 1, 1), (1, 0, -1)])
