import argparse
import json
import time

import pytest

from graphvariety import edge_count_closed_form
from graphvariety.cli import build_parser, main
from graphvariety.counting import DEFAULT_WORK_CAP
from graphvariety.graphs import MAX_VERTICES


@pytest.fixture
def graph_file(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


PATH3 = "0 1\n1 2\n"
TRIANGLE = "0 1\n1 2\n0 2\n"
C4 = "0 1\n1 2\n2 3\n0 3\n"


class TestAnalyze:
    def test_path(self, capsys, graph_file):
        g = graph_file("p.txt", PATH3)
        payload = run_json(capsys, ["analyze", "--graph", g, "--form", "symplectic", "--dim", "4"])
        assert payload["num_vertices"] == "3"
        assert payload["num_edges"] == "2"
        assert payload["degeneracy"] == "1"
        assert payload["max_degree"] == "2"
        assert payload["is_forest"] is True
        assert payload["expected_dimension"] == "10"
        assert payload["canonical_degrees"] == ["-3", "-2", "-3"]
        assert payload["anti_ample"] is True
        assert payload["projective_verdict"] == "smooth"
        assert all(payload["bounds"].values())

    def test_triangle_is_singular(self, capsys, graph_file):
        g = graph_file("t.txt", TRIANGLE)
        payload = run_json(capsys, ["analyze", "--graph", g, "--form", "symplectic", "--dim", "4"])
        assert payload["is_forest"] is False
        assert payload["projective_verdict"] == "singular"
        assert payload["verdict_hypothesis_met"] is True

    def test_low_dimension_flags_unmet_bounds(self, capsys, graph_file):
        g = graph_file("t.txt", TRIANGLE)
        payload = run_json(capsys, ["analyze", "--graph", g, "--form", "symplectic", "--dim", "2"])
        assert payload["bounds"]["n_ge_2_times_degeneracy"] is False
        assert payload["anti_ample"] is False


class TestSampleCheckCertify:
    def test_sample_then_check(self, capsys, graph_file, tmp_path):
        g = graph_file("p.txt", PATH3)
        point = str(tmp_path / "pt.json")
        code, out, _ = run(
            capsys,
            ["sample", "--graph", g, "--form", "symplectic", "--dim", "4", "--seed", "5", "--out", point],
        )
        assert code == 0
        saved = json.loads(open(point).read())
        assert saved["field"] == "Q"
        payload = run_json(
            capsys,
            ["check", "--graph", g, "--form", "symplectic", "--dim", "4", "--point", point],
        )
        assert payload["is_member"] is True
        assert all(r == "0" for r in payload["residual"])

    def test_sample_over_prime_field(self, capsys, graph_file, tmp_path):
        g = graph_file("p.txt", PATH3)
        point = str(tmp_path / "pt.json")
        code, _, _ = run(
            capsys,
            [
                "sample", "--graph", g, "--form", "symmetric", "--dim", "4",
                "--field", "Fp:101", "--out", point,
            ],
        )
        assert code == 0
        assert json.loads(open(point).read())["field"] == "Fp:101"

    def test_certify_smooth_point_returns_null(self, capsys, graph_file, tmp_path):
        g = graph_file("p.txt", PATH3)
        point = str(tmp_path / "pt.json")
        run(capsys, ["sample", "--graph", g, "--form", "symplectic", "--dim", "4", "--out", point])
        payload = run_json(
            capsys,
            ["certify", "--graph", g, "--form", "symplectic", "--dim", "4", "--point", point],
        )
        assert payload["certificate"] is None

    def test_certify_singular_cycle_point(self, capsys, graph_file, tmp_path):
        g = graph_file("c4.txt", C4)
        point = str(tmp_path / "pt.json")
        vec = ["1", "0", "0", "0"]
        (tmp_path / "pt.json").write_text(
            json.dumps({"field": "Q", "vectors": {str(v): vec for v in range(4)}})
        )
        payload = run_json(
            capsys,
            ["certify", "--graph", g, "--form", "symplectic", "--dim", "4", "--point", point],
        )
        weights = payload["certificate"]["weights"]
        assert weights == [
            ["0", "1", "1"],
            ["0", "3", "-1"],
            ["1", "2", "1"],
            ["2", "3", "1"],
        ]

    def test_check_rejects_off_variety_point(self, capsys, graph_file, tmp_path):
        g = graph_file("e.txt", "0 1\n")
        point = str(tmp_path / "pt.json")
        (tmp_path / "pt.json").write_text(
            json.dumps({"field": "Q", "vectors": {"0": ["1", "0"], "1": ["0", "1"]}})
        )
        payload = run_json(
            capsys,
            ["check", "--graph", g, "--form", "symplectic", "--dim", "2", "--point", point],
        )
        assert payload["is_member"] is False
        assert payload["residual"] == ["1"]


class TestSplitCommands:
    def test_split_and_verify(self, capsys, graph_file, tmp_path):
        g = graph_file("t.txt", TRIANGLE)
        wfile = str(tmp_path / "w.json")
        code, _, _ = run(capsys, ["split", "--graph", g, "--out", wfile])
        assert code == 0
        payload = run_json(capsys, ["verify-split", "--graph", g, "--weighting", wfile])
        assert payload["valid"] is True
        assert payload["color_count"] == "3"
        edges = sorted(e for c in payload["classes"].values() for e in c)
        assert edges == [["0", "1"], ["0", "2"], ["1", "2"]]

    def test_split_tree(self, capsys, graph_file):
        g = graph_file("p.txt", PATH3)
        payload = run_json(capsys, ["split-tree", "--graph", g])
        assert payload["colors"] == ["c1", "c2"]

    def test_split_tree_rejects_cycles(self, capsys, graph_file):
        g = graph_file("t.txt", TRIANGLE)
        code, out, err = run(capsys, ["split-tree", "--graph", g])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "NotAForestError"

    def test_split_refuses_palette_past_ceiling(self, capsys, graph_file):
        # a 40-leaf star needs 1,344,799 colors on each of its 41 vertices
        g = graph_file("star.txt", "".join(f"0 {leaf}\n" for leaf in range(1, 41)))
        start = time.perf_counter()
        code, out, err = run(capsys, ["split", "--graph", g])
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "WorkCapExceededError" and "split-tree" in error["message"]

    def test_split_star_under_ceiling(self, capsys, graph_file, tmp_path):
        g = graph_file("star.txt", "".join(f"0 {leaf}\n" for leaf in range(1, 21)))
        code, out, err = run(capsys, ["split", "--graph", g, "--out", str(tmp_path / "w.json")])
        assert code == 0, err
        assert out == "split 20 edges into 20 matching classes (palette 88199, valid=True)\n"

    @pytest.mark.parametrize("command", ["split", "split-tree"])
    def test_split_without_out_skips_the_verifier(self, capsys, graph_file, monkeypatch, command):
        g = graph_file("p.txt", PATH3)
        expected = run(capsys, [command, "--graph", g])
        assert expected[0] == 0

        def verifier(*args):
            raise RuntimeError("color_classes ran without --out")

        monkeypatch.setattr("graphvariety.cli.color_classes", verifier)
        assert run(capsys, [command, "--graph", g]) == expected

    def test_verify_split_flags_bad_weighting(self, capsys, graph_file, tmp_path):
        g = graph_file("p.txt", PATH3)
        wfile = tmp_path / "w.json"
        wfile.write_text(
            json.dumps(
                {"colors": ["c1"], "weights": {"0": ["1"], "1": ["1"], "2": ["1"]}}
            )
        )
        payload = run_json(capsys, ["verify-split", "--graph", g, "--weighting", str(wfile)])
        assert payload["valid"] is False


class TestCountCommand:
    def test_single_edge(self, capsys, graph_file):
        g = graph_file("e.txt", "0 1\n")
        payload = run_json(
            capsys,
            ["count", "--graph", g, "--form", "symmetric", "--dim", "1", "--field", "Fp:3"],
        )
        assert payload == {
            "count": "5",
            "q": "3",
            "expected_dimension": "1",
            "ratio": "5/3",
        }

    def test_cap_error(self, capsys, graph_file):
        g = graph_file("p.txt", PATH3)
        code, out, err = run(
            capsys,
            [
                "count", "--graph", g, "--form", "symmetric", "--dim", "3",
                "--field", "Fp:11", "--cap", "100",
            ],
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "WorkCapExceededError"

    def test_rational_field_rejected(self, capsys, graph_file):
        g = graph_file("e.txt", "0 1\n")
        code, _, err = run(
            capsys, ["count", "--graph", g, "--form", "symmetric", "--dim", "1", "--field", "Q"]
        )
        assert code == 1
        assert "prime" in json.loads(err)["error"]["message"]


class TestEquationsCommand:
    def test_symplectic_edge(self, capsys, graph_file):
        g = graph_file("e.txt", "0 1\n")
        payload = run_json(
            capsys, ["equations", "--graph", g, "--form", "symplectic", "--dim", "2"]
        )
        eq = payload["equations"][0]
        assert eq["edge"] == ["0", "1"]
        assert ["0", "1", "1"] in eq["terms"]
        assert ["1", "0", "-1"] in eq["terms"]


class TestGramOption:
    def test_custom_gram(self, capsys, graph_file, tmp_path):
        g = graph_file("e.txt", "0 1\n")
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps([["0", "1"], ["1", "0"]]))
        payload = run_json(
            capsys,
            ["analyze", "--graph", g, "--form", "symmetric", "--gram", str(gram)],
        )
        assert payload["dimension"] == "2"
        assert payload["form_kind"] == "symmetric"

    def test_dim_must_match_gram(self, capsys, graph_file, tmp_path):
        g = graph_file("t.txt", TRIANGLE)
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps([["0", "1"], ["1", "0"]]))
        argv = ["analyze", "--graph", g, "--form", "symmetric", "--gram", str(gram)]
        code, out, err = run(capsys, argv + ["--dim", "4"])
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and "--dim 4" in error["message"]
        assert run(capsys, argv + ["--dim", "2"]) == run(capsys, argv)

    def test_invalid_gram_rejected(self, capsys, graph_file, tmp_path):
        g = graph_file("e.txt", "0 1\n")
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps([["0", "1"], ["-1", "0"]]))
        code, _, err = run(
            capsys,
            ["analyze", "--graph", g, "--form", "symmetric", "--gram", str(gram)],
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("entries", [("1", "-1"), ("3", "4"), ("-8", "8")])
    def test_antisymmetry_is_checked_mod_p(self, capsys, graph_file, tmp_path, entries):
        # over Fp:7 each pair is antisymmetric once reduced, not as integers
        g = graph_file("e.txt", "0 1\n")
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps([["0", entries[0]], [entries[1], "0"]]))
        argv = ["--graph", g, "--form", "symplectic", "--gram", str(gram), "--field", "Fp:7"]
        payload = run_json(capsys, ["count"] + argv)
        assert payload["count"] == str(edge_count_closed_form(2, 7))
        terms = run_json(capsys, ["equations"] + argv)["equations"][0]["terms"]
        top = str(int(entries[0]) % 7)
        assert terms == [["0", "1", top], ["1", "0", str(-int(top) % 7)]]

    def test_symmetric_gram_is_not_symplectic_mod_p(self, capsys, graph_file, tmp_path):
        g = graph_file("e.txt", "0 1\n")
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps([["0", "1"], ["1", "0"]]))
        code, _, err = run(capsys, ["count", "--graph", g, "--form", "symplectic",
                                    "--gram", str(gram), "--field", "Fp:7"])
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("rows", [[], [[]], [["1", "0"], ["0"]]])
    def test_empty_or_ragged_gram_rejected(self, capsys, graph_file, tmp_path, rows):
        g = graph_file("v.txt", "0\n")
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps(rows))
        code, _, err = run(capsys, ["sample", "--graph", g, "--form", "symmetric",
                                    "--gram", str(gram)])
        assert code == 1 and "Traceback" not in err
        assert json.loads(err)["error"]["type"] == "ValueError"


class TestDimension:
    @pytest.mark.parametrize("form", ["symmetric", "symplectic", "hyperbolic"])
    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_nonpositive_dimension_rejected(self, capsys, graph_file, form, dim):
        g = graph_file("v.txt", "0\n")
        code, _, err = run(capsys, ["sample", "--graph", g, "--form", form, "--dim", dim])
        assert code == 1 and "Traceback" not in err
        assert json.loads(err)["error"]["type"] == "ValueError"


class TestErrorHandling:
    def test_missing_graph_file(self, capsys):
        code, out, err = run(capsys, ["analyze", "--graph", "/nonexistent/g.txt", "--dim", "2"])
        assert code == 1
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"

    def test_malformed_graph(self, capsys, graph_file):
        g = graph_file("bad.txt", "0 1 2\n")
        code, _, err = run(capsys, ["analyze", "--graph", g, "--dim", "2"])
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("argv", [["analyze", "--dim", "2"], ["split"]])
    def test_vertex_ceiling(self, capsys, graph_file, argv):
        # a ten-byte file must not allocate a graph on 100001 vertices
        g = graph_file("far.txt", f"0 {MAX_VERTICES}\n")
        start = time.perf_counter()
        code, out, err = run(capsys, [argv[0], "--graph", g, *argv[1:]])
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and f"limit of {MAX_VERTICES}" in error["message"]

    def test_malformed_point_json(self, capsys, graph_file, tmp_path):
        g = graph_file("e.txt", "0 1\n")
        point = tmp_path / "pt.json"
        point.write_text("{not json")
        code, _, err = run(
            capsys,
            ["check", "--graph", g, "--form", "symplectic", "--dim", "2", "--point", str(point)],
        )
        assert code == 1
        assert "error" in json.loads(err)

    def test_huge_decimal_exponent_in_point(self, capsys, graph_file, tmp_path):
        g = graph_file("e.txt", "0 1\n")
        point = tmp_path / "pt.json"
        point.write_text(json.dumps({"field": "Q", "vectors": {"0": ["1e5000", "0"],
                                                                "1": ["0", "0"]}}))
        code, _, err = run(
            capsys,
            ["check", "--graph", g, "--form", "symplectic", "--dim", "2", "--point", str(point)],
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ValueError"


class TestMalformedInputShapes:
    """Each file is well-formed JSON of the wrong shape: every reader must
    refuse it with a JSON ValueError instead of misreading it or crashing."""

    GOOD_VECTORS = {"0": ["1", "0"], "1": ["0", "1"], "2": ["1", "0"]}
    CASES = {
        # a string where a list of numbers belongs is not read per character
        "point-string-vectors": (
            "check", "--point", {"field": "Q", "vectors": {"0": "10", "1": "01", "2": "10"}},
            "must be a JSON list"),
        "weighting-string-vectors": (
            "verify-split", "--weighting",
            {"colors": ["base", "x"], "weights": {"0": "10", "1": "01", "2": "10"}},
            "must be a JSON list"),
        "gram-string-rows": ("analyze", "--gram", ["10", "01"], "must be a JSON list"),
        "weighting-weights-list": (
            "verify-split", "--weighting", {"colors": ["base"], "weights": [["10"], ["10"], ["10"]]},
            "keyed by vertices"),
        "point-field-not-string": (
            "check", "--point", {"field": 7, "vectors": GOOD_VECTORS}, "unknown field label"),
        "weighting-keys-not-0-to-n-1": (
            "verify-split", "--weighting",
            {"colors": ["c1", "c2"], "weights": {"0": ["1", "0"], "1": ["0", "2"], "2": ["3", "0"],
                                                  "7": ["0", "0"], "-1": ["0", "0"]}},
            "keyed by vertices"),
        "weighting-string-colors": (
            "verify-split", "--weighting",
            {"colors": "ab", "weights": {"0": ["1", "0"], "1": ["0", "2"], "2": ["3", "0"]}},
            "colors must be a JSON list"),
        "weighting-repeated-color": (
            "verify-split", "--weighting",
            {"colors": ["c1", "c1"], "weights": {"0": ["1", "0"], "1": ["0", "2"], "2": ["3", "0"]}},
            "repeat a name"),
        "weighting-extra-vertex": (
            "verify-split", "--weighting",
            {"colors": ["c1", "c2"], "weights": {"0": ["1", "0"], "1": ["0", "2"], "2": ["3", "0"],
                                                  "3": ["0", "0"]}},
            "exactly the vertices"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_with_json_error(self, capsys, graph_file, tmp_path, case):
        command, flag, obj, message = self.CASES[case]
        g = graph_file("p.txt", PATH3)
        data = tmp_path / "data.json"
        data.write_text(json.dumps(obj))
        argv = [command, "--graph", g, flag, str(data)]
        if command != "verify-split":
            argv += ["--form", "symmetric", "--dim", "2"]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and message in error["message"]


class TestOutFlag:
    def test_out_writes_canonical_json(self, capsys, graph_file, tmp_path):
        g = graph_file("p.txt", PATH3)
        out_file = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            ["analyze", "--graph", g, "--form", "symplectic", "--dim", "4", "--out", str(out_file)],
        )
        assert code == 0
        text = out_file.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["expected_dimension"] == "10"
        # stdout carries a short summary, not the payload
        assert "{" not in out.splitlines()[0]

    def test_repeated_runs_are_byte_identical(self, capsys, graph_file, tmp_path):
        g = graph_file("p.txt", PATH3)
        argv = ["sample", "--graph", g, "--form", "symplectic", "--dim", "4", "--seed", "9"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestSummaryLines:
    """With --out, stdout is exactly one summary line per command."""

    C4_POINT = {"field": "Q", "vectors": {str(v): ["1", "0", "0", "0"] for v in range(4)}}
    WEIGHTING = {"colors": ["c1", "c2"], "weights": {"0": ["1", "0"], "1": ["0", "2"],
                                                     "2": ["3", "0"]}}
    CASES = {
        "analyze": (PATH3, ["--dim", "4"], None,
                    "3 vertices, 2 edges, max degree 2, degeneracy 1; projective verdict: smooth"),
        "sample": (PATH3, ["--dim", "4", "--field", "Fp:7"], None,
                   "sampled a regular member point for 3 vertices over Fp:7 (n=4, seed=0)"),
        "check": (C4, ["--dim", "4"], ("--point", C4_POINT),
                  "member=True (4 edge equations checked)"),
        "certify": (C4, ["--dim", "4"], ("--point", C4_POINT),
                    "singular point: certificate on 4 edges"),
        "split": (TRIANGLE, [], None,
                  "split 3 edges into 3 matching classes (palette 17, valid=True)"),
        "split-tree": (PATH3, [], None,
                       "split 2 forest edges into 2 matching classes (palette 2, valid=True)"),
        "verify-split": (PATH3, [], ("--weighting", WEIGHTING), "valid=True, 2 classes used"),
        "count": ("0 1\n", ["--form", "symmetric", "--dim", "1", "--field", "Fp:3"], None,
                  "5 points over F_3 (expected dimension 1, ratio 5/3)"),
        "equations": (PATH3, ["--dim", "2", "--field", "Fp:5"], None, "2 edge equations emitted"),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_summary_line(self, capsys, graph_file, tmp_path, command):
        graph, extra, data, line = self.CASES[command]
        argv = [command, "--graph", graph_file("g.txt", graph), "--out", str(tmp_path / "o.json")]
        if data is not None:
            flag, obj = data
            (tmp_path / "data.json").write_text(json.dumps(obj))
            argv += [flag, str(tmp_path / "data.json")]
        code, out, err = run(capsys, argv + extra)
        assert code == 0, err
        assert out == line + "\n"


class TestOptionTable:
    """Every subcommand's options, which are required, and their defaults."""

    SPACE = {"--form": (False, "symplectic"), "--dim": (False, None), "--gram": (False, None)}
    COMMON = {"--graph": (True, None), "--out": (False, None)}
    TABLE = {
        "analyze": {**COMMON, **SPACE},
        "sample": {**COMMON, **SPACE, "--field": (False, "Q"), "--seed": (False, 0),
                   "--bound": (False, 10), "--retries": (False, 64)},
        "check": {**COMMON, **SPACE, "--point": (True, None)},
        "certify": {**COMMON, **SPACE, "--point": (True, None)},
        "split": COMMON,
        "split-tree": COMMON,
        "verify-split": {**COMMON, "--weighting": (True, None)},
        "count": {**COMMON, **SPACE, "--field": (True, None),
                  "--cap": (False, DEFAULT_WORK_CAP)},
        "equations": {**COMMON, **SPACE, "--field": (False, "Q")},
    }

    def test_table(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        table = {
            name: {a.option_strings[-1]: (a.required, a.default)
                   for a in p._actions if a.option_strings != ["-h", "--help"]}
            for name, p in sub.choices.items()
        }
        assert table == self.TABLE
