import argparse
import hashlib
import json
import platform
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from graphvariety import edge_count_closed_form, graphs
from graphvariety.bilinear import MAX_DIMENSION
from graphvariety.cli import COMMANDS, build_parser, main
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
PATH4 = "0 1\n1 2\n2 3\n"


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
        assert payload["verdict_hypothesis_met"] is False  # 2 < 2 + 2 - 1

    def test_hypothesis_flag_tracks_dimension_bound(self, capsys, graph_file):
        g = graph_file("c4.txt", C4)
        for n in range(2, 7):  # symmetric: a symplectic form needs n even
            payload = run_json(capsys, ["analyze", "--graph", g, "--form", "symmetric",
                                        "--dim", str(n)])
            d, big_d = int(payload["degeneracy"]), int(payload["max_degree"])
            assert payload["verdict_hypothesis_met"] == (n >= d + big_d - 1)
            assert payload["verdict_hypothesis_met"] \
                == payload["bounds"]["n_ge_degeneracy_plus_max_degree_minus_1"]

    # sha256 of the stdout bytes
    @pytest.mark.parametrize("text, argv, digest", [
        (TRIANGLE, ["--form", "symplectic", "--dim", "2"],
         "09570fc496448ba4476e686b5d91ca8a3250247c1c074abbb02c00208290ad86"),
        (TRIANGLE, ["--form", "symplectic", "--dim", "4"],
         "cedfe7939a29eb8ed01f9e945e5ddd5a5a62527df01d9a43b7341443f2f291a9"),
        (C4, ["--form", "symmetric", "--dim", "4"],
         "1efa68422cd92de8a8dc96ddea15f24210996c965e0d74d5709d5f318aa571df"),
        (PATH4, ["--dim", "2"],
         "1fb190b213e6d97549018af6d56f914662f99ed9870e37f19149b36e87aa4fd0"),
    ], ids=["triangle-symplectic-2", "triangle-symplectic-4", "c4-symmetric-4", "path4-2"])
    def test_pinned_output(self, capsys, graph_file, text, argv, digest):
        code, out, _ = run(capsys, ["analyze", "--graph", graph_file("g.txt", text), *argv])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def count_calls(monkeypatch, name):
    """The list of graphs passed to `graphs.<name>`, counted through every
    package module's name for it."""
    func, calls = getattr(graphs, name), []

    def counted(graph):
        calls.append(graph)
        return func(graph)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("graphvariety") and getattr(module, name, None) is func:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("command", ["analyze", "sample"])
def test_command_peels_once(capsys, graph_file, monkeypatch, command):
    calls = count_calls(monkeypatch, "degeneracy_order")
    run_json(capsys, [command, "--graph", graph_file("t.txt", TRIANGLE), "--dim", "4"])
    assert len(calls) == 1


def test_analyze_finds_components_once(capsys, graph_file, monkeypatch):
    # the payload's is_forest is read off the projective verdict's forest test
    calls = count_calls(monkeypatch, "connected_components")
    run_json(capsys, ["analyze", "--graph", graph_file("c4.txt", C4), "--dim", "4"])
    assert len(calls) == 1


def test_split_tree_finds_no_components(capsys, graph_file, monkeypatch):
    # the leaf peel is the forest test
    calls = count_calls(monkeypatch, "connected_components")
    run_json(capsys, ["split-tree", "--graph", graph_file("p.txt", PATH3)])
    assert len(calls) == 0


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

    @pytest.mark.parametrize("field", ["Q", "Fp:10007"])
    def test_sample_refuses_point_past_entry_cap(self, capsys, graph_file, field):
        # two edges naming vertex 99999 declare 10^5 vertices: 2.56e7 coordinates at n = 256
        g = graph_file("far.txt", "0 1\n99999 99998\n")
        start = time.perf_counter()
        code, out, err = run(capsys, ["sample", "--graph", g, "--dim", "256", "--field", field])
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": {
            "type": "WorkCapExceededError",
            "message": "estimated work 25600000 exceeds cap 10000000;"
                       " the point would hold |V| * n coordinates"}}

    def test_sample_refuses_before_the_degeneracy_order(self, capsys, graph_file, monkeypatch):
        # the entry cap needs only |V| and n: a refused point pays for no peel
        def peel(graph):
            raise AssertionError("degeneracy_order ran before the entry cap")

        monkeypatch.setattr("graphvariety.sampling.degeneracy_order", peel)
        g = graph_file("far.txt", "0 1\n99999 99998\n")
        code, out, err = run(capsys, ["sample", "--graph", g, "--dim", "256"])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": {
            "type": "WorkCapExceededError",
            "message": "estimated work 25600000 exceeds cap 10000000;"
                       " the point would hold |V| * n coordinates"}}

    @pytest.mark.parametrize("text, argv, message", [
        (PATH4, ["--dim", "4", "--bound", "0"], "bound must be at least 1"),
        (PATH4, ["--dim", "4", "--retries", "0"], "max_retries must be at least 1"),
        # the bound is checked before the width precondition n >= 2 * width
        (TRIANGLE, ["--dim", "2", "--bound", "0"], "bound must be at least 1"),
    ], ids=["bound-0", "retries-0", "bound-before-width"])
    def test_sample_refuses_bad_options(self, capsys, graph_file, text, argv, message):
        code, out, err = run(capsys, ["sample", "--graph", graph_file("g.txt", text), *argv])
        assert code == 1 and out == ""
        assert err == ('{\n  "error": {\n    "message": "%s",\n    "type": "ValueError"\n  }\n}\n'
                       % message)

    @pytest.mark.parametrize("option", [["--bound", "0"], ["--retries", "0"]],
                             ids=["bound-0", "retries-0"])
    def test_sample_refuses_entry_cap_before_bad_options(self, capsys, graph_file, option):
        g = graph_file("far.txt", "0 1\n99999 99998\n")
        code, out, err = run(capsys, ["sample", "--graph", g, "--dim", "256", *option])
        assert code == 1 and out == ""
        assert err == ('{\n  "error": {\n    "message": "estimated work 25600000 exceeds cap'
                       ' 10000000; the point would hold |V| * n coordinates",\n'
                       '    "type": "WorkCapExceededError"\n  }\n}\n')

    def test_sample_at_entry_cap_is_admitted(self, capsys, graph_file, monkeypatch):
        # the cap bounds |V| * n itself: at a cap of 12, path3 at n = 4 holds
        # exactly 12 coordinates and is sampled, and a fourth vertex is refused
        monkeypatch.setattr("graphvariety.sampling.WEIGHTING_CAP", 12)
        payload = run_json(capsys, ["sample", "--graph", graph_file("p.txt", PATH3), "--dim", "4"])
        assert len(payload["vectors"]) == 3
        code, _, err = run(capsys, ["sample", "--graph", graph_file("p4.txt", "0 1\n1 2\n2 3\n"),
                                    "--dim", "4"])
        assert code == 1 and json.loads(err)["error"]["type"] == "WorkCapExceededError"


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

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python converts ints of any length to strings")
    def test_split_refuses_weights_it_cannot_print(self, capsys, graph_file, tmp_path, monkeypatch):
        # a 3100-rung ladder has 3100 BFS levels and a weight of 650 digits:
        # refused from the run lists, before any dense vector or the verifier
        rungs = 3100
        rails = [(v, v + 1) for v in range(rungs - 1)]
        edges = rails + [(rungs + a, rungs + b) for a, b in rails] + [(v, rungs + v) for v in range(rungs)]
        g = graph_file("ladder.txt", "".join(f"{a} {b}\n" for a, b in edges))

        def unreachable(*args):
            raise RuntimeError("ran past the digit check")

        monkeypatch.setattr("graphvariety.splitting._expand", unreachable)
        monkeypatch.setattr("graphvariety.cli.color_classes", unreachable)
        out_file = tmp_path / "w.json"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, ["split", "--graph", g, "--out", str(out_file)])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 1 and out == "" and not out_file.exists()
        assert json.loads(err)["error"] == {
            "type": "ValueError",
            "message": "the weighting needs a weight of 650 digits, more than the 640 digits "
                       "Python converts to a string",
        }

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

    def test_cap_compares_exponents(self, capsys, graph_file):
        # the estimate 10007^800000 has 3.2 million digits: it must be
        # neither built nor printed
        g = graph_file("far.txt", "0 99999\n")
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            ["count", "--graph", g, "--form", "symmetric", "--dim", "8", "--field", "Fp:10007"],
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "WorkCapExceededError",
            "message": f"estimated work 10007^800000 exceeds cap {DEFAULT_WORK_CAP}",
        }

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

    @pytest.mark.parametrize("argv", [
        ["analyze", "--form", "symmetric"],
        ["analyze", "--form", "symplectic"],
        ["count", "--form", "hyperbolic", "--field", "Fp:3"],
    ])
    def test_dimension_ceiling(self, capsys, graph_file, argv):
        g = graph_file("e.txt", "0 1\n")
        dim = str(MAX_DIMENSION + 1)
        start = time.perf_counter()
        code, out, err = run(capsys, [argv[0], "--graph", g, "--dim", dim, *argv[1:]])
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and f"limit of {MAX_DIMENSION}" in error["message"]

    def test_gram_past_dimension_ceiling(self, capsys, graph_file, tmp_path):
        # refused before its 262,144 entries become field scalars
        g = graph_file("e.txt", "0 1\n")
        n = 2 * MAX_DIMENSION
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps([["1" if i == j else "0" for j in range(n)] for i in range(n)]))
        start = time.perf_counter()
        code, out, err = run(
            capsys, ["analyze", "--graph", g, "--form", "symmetric", "--gram", str(gram)]
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert f"limit of {MAX_DIMENSION}" in json.loads(err)["error"]["message"]

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


DEEP = "[" * 10**5 + "]" * 10**5  # past the JSON decoder's recursion limit


class TestMalformedInputShapes:
    """Each file is well-formed JSON of the wrong shape, or JSON text nested
    too deeply to decode: every reader must refuse it with a JSON ValueError
    instead of misreading it or crashing."""

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
        "point-zero-denominator": (
            "check", "--point", {"field": "Q", "vectors": dict(GOOD_VECTORS, **{"1": ["0", "1/0"]})},
            "'1/0' has a zero denominator"),
        "gram-zero-denominator": (
            "analyze", "--gram", [["1/0", "0"], ["0", "1"]], "'1/0' has a zero denominator"),
        # names are keys of the report's "classes" object, so they must be strings
        "weighting-integer-colors": (
            "verify-split", "--weighting",
            {"colors": [1, 2], "weights": {"0": ["1", "0"], "1": ["0", "2"], "2": ["3", "0"]}},
            "colors must be a JSON list of strings"),
        "point-deep": ("check", "--point", DEEP, "nested too deeply"),
        "gram-deep": ("analyze", "--gram", DEEP, "nested too deeply"),
        "weighting-deep": ("verify-split", "--weighting", DEEP, "nested too deeply"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_with_json_error(self, capsys, graph_file, tmp_path, case):
        command, flag, obj, message = self.CASES[case]
        g = graph_file("p.txt", PATH3)
        data = tmp_path / "data.json"
        data.write_text(obj if obj is DEEP else json.dumps(obj))
        argv = [command, "--graph", g, flag, str(data)]
        if command != "verify-split":
            argv += ["--form", "symmetric", "--dim", "2"]
        for out_flag in ([], ["--out", str(tmp_path / "out.json")]):  # nothing written either way
            code, out, err = run(capsys, argv + out_flag)
            assert code == 1 and out == "" and not (tmp_path / "out.json").exists()
            error = json.loads(err)["error"]
            assert error["type"] == "ValueError" and message in error["message"]


# JSON that no reader accepts at any place: null, bools, floats and containers of them
JUNK = st.recursive(st.none() | st.booleans() | st.floats(allow_nan=False),
                    lambda kids: st.lists(kids, max_size=2)
                    | st.dictionaries(st.sampled_from(["field", "vectors", "colors", "0"]), kids,
                                      max_size=2), max_leaves=4)
FUZZ_GOOD = {"--point": {"field": "Q", "vectors": {"0": ["1", "0"], "1": ["1", "0"], "2": ["1", "0"]}},
             "--gram": [["0", "1"], ["-1", "0"]],
             "--weighting": {"colors": ["c1", "c2"],
                             "weights": {"0": ["1", "0"], "1": ["0", "2"], "2": ["3", "0"]}}}
BAD_LINES = ["0 1 2", "x 1", "0 -1", "1.5", "2 2", "0 1\n1 0", "0 1e3", f"0 {MAX_VERTICES}"]


def fuzz_argv(flag, graph, data):  # the command reading the file `flag` names
    return {"--graph": ["analyze", "--graph", graph, "--dim", "2"],
            "--point": ["check", "--graph", graph, "--dim", "2", "--point", data],
            "--gram": ["analyze", "--graph", graph, "--gram", data],
            "--weighting": ["verify-split", "--graph", graph, "--weighting", data]}[flag]


@st.composite
def mutated(draw, doc):
    """`doc` with one member, at any depth, dropped or replaced by junk."""
    if not isinstance(doc, (list, dict)) or not doc or draw(st.integers(0, 3)) == 0:
        return draw(JUNK)
    doc = doc.copy()
    key = draw(st.sampled_from(sorted(doc) if isinstance(doc, dict) else range(len(doc))))
    if draw(st.integers(0, 4)) == 0:
        del doc[key]
    else:
        doc[key] = draw(mutated(doc[key]))
    return doc


@st.composite
def malformed_files(draw):
    """An input kind and a file of that kind broken somewhere: a graph with
    a bad line, a strict prefix of a good JSON file, or a mutated document."""
    flag = draw(st.sampled_from(["--graph", *FUZZ_GOOD]))
    if flag == "--graph":
        lines = draw(st.lists(st.sampled_from(["0 1", "1 2", "# note", "", "2"]), max_size=4))
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
        return flag, "\n".join(lines)
    text = json.dumps(FUZZ_GOOD[flag])
    prefix = text[:draw(st.integers(0, len(text) - 1))]
    return flag, prefix if draw(st.booleans()) else json.dumps(draw(mutated(FUZZ_GOOD[flag])))


class TestMalformedFilesFuzz:
    @given(case=malformed_files())
    @example(case=("--point", json.dumps(dict(FUZZ_GOOD["--point"], vectors={"0": ["1/0", "0"]}))))
    @example(case=("--gram", '[["1/0", "0"], ["0", "1"]]'))
    @example(case=("--weighting", json.dumps(dict(FUZZ_GOOD["--weighting"], colors=[1, 2]))))
    @example(case=("--point", DEEP))
    @example(case=("--gram", DEEP))
    @example(case=("--weighting", DEEP))
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_1_with_one_json_error(self, capsys, graph_file, case):
        flag, text = case
        graph = graph_file("g.txt", text if flag == "--graph" else PATH3)
        code, out, err = run(capsys, fuzz_argv(flag, graph, graph_file("data.json", text)))
        assert code == 1 and out == ""
        assert set(json.loads(err)) == {"error"} and set(json.loads(err)["error"]) == {"type", "message"}


class TestWeightingFileSyntax:
    """verify-split converts its file vector by vector as it parses it; a
    file that is not one JSON object still fails as a JSON error."""

    GOOD = json.dumps({"colors": ["c1", "c2"], "weights": {"0": ["1", "0"], "1": ["0", "2"],
                                                           "2": ["3", "0"]}})
    CASES = {
        "empty": ("", "JSONDecodeError"),
        "truncated-in-a-vector": (GOOD[:GOOD.index('"2":') + 9], "JSONDecodeError"),
        "truncated-after-a-key": (GOOD[:GOOD.index('"2":') + 3], "JSONDecodeError"),
        "truncated-before-the-end": (GOOD[:-1], "JSONDecodeError"),
        "trailing-data": (GOOD + "\n{}", "JSONDecodeError"),
        "top-level-list": ("[" + GOOD + "]", "TypeError"),
        "top-level-string": ('"weights"', "TypeError"),
    }

    def test_good_file_passes(self, capsys, graph_file, tmp_path):
        (tmp_path / "w.json").write_text(" \n" + self.GOOD + "\n\n")
        argv = ["verify-split", "--graph", graph_file("p.txt", PATH3),
                "--weighting", str(tmp_path / "w.json")]
        assert run_json(capsys, argv)["valid"] is True

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_with_json_error(self, capsys, graph_file, tmp_path, case):
        text, error_type = self.CASES[case]
        (tmp_path / "w.json").write_text(text)
        code, out, err = run(capsys, ["verify-split", "--graph", graph_file("p.txt", PATH3),
                                      "--weighting", str(tmp_path / "w.json")])
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == error_type


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

    def test_out_file_holds_the_stdout_bytes(self, capsys, graph_file, tmp_path):
        g = graph_file("p.txt", PATH3)
        argv = ["analyze", "--graph", g, "--form", "symplectic", "--dim", "4"]
        _, stdout, _ = run(capsys, argv)
        out_file = tmp_path / "report.json"
        assert run(capsys, argv + ["--out", str(out_file)])[0] == 0
        assert out_file.read_bytes() == stdout.encode()

    def test_unwritable_out_is_a_json_error(self, capsys, graph_file, tmp_path):
        g = graph_file("p.txt", PATH3)
        out_file = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, ["analyze", "--graph", g, "--dim", "2", "--out", str(out_file)])
        assert code == 1 and out == "" and not out_file.exists()
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"

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


def parser_text(capsys, monkeypatch, parse, argv):
    """(exit code, stdout, stderr) of `parse(argv)` at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def text_digest(text):
    return hashlib.sha256(json.dumps(list(text)).encode()).hexdigest()[:16]


class TestParserTexts:
    """Help, usage and error texts stay byte-identical now that `main`
    builds only the invoked subcommand's parser."""

    CASES = {
        "help": ["--help"], "-h": ["-h"], "empty": [], "unknown": ["frobnicate"],
        "option-before-command": ["--graph", "g", "analyze"],
        "unrecognized": ["analyze", "--graph", "g", "--bogus"],
        "missing-field": ["count", "--graph", "g"],
        "bad-int": ["sample", "--graph", "g", "--seed", "x"],
        **{f"{c} --help": [c, "--help"] for c in COMMANDS},
        **{c: [c] for c in COMMANDS},  # each misses its required options
    }
    # sha256 of [exit code, stdout, stderr], recorded with COLUMNS=80 when
    # every call built all nine parsers, on Python 3.10.13, 3.11.7 and
    # 3.12.1; argparse words some texts differently on 3.13
    PINS = {
        "help": "ebe288ce1b12b02d", "-h": "ebe288ce1b12b02d", "empty": "94880092b3c3ef29",
        "unknown": "53a1f7dd77dfd7d2", "option-before-command": "d00b30c1eb9ed4cf",
        "unrecognized": "9273b1e0f0539c25", "missing-field": "9fcb0a105db023ea",
        "bad-int": "6b0b55396d736a7e",
        "analyze --help": "c5b5cc4eb7131dad", "sample --help": "1655eaab6d84ccba",
        "check --help": "c183680513993819", "certify --help": "d38d57b3598312e5",
        "split --help": "e0f2b4ff9d20afb0", "split-tree --help": "3f78e6d2f1dc2b38",
        "verify-split --help": "00d12b528ce9e967", "count --help": "746c0321781f3d43",
        "equations --help": "7a957711efb0ce61",
        "analyze": "d47909be40b30636", "sample": "77ac587df9220f62", "check": "9569d3baf2332a48",
        "certify": "bdde9188c7028e57", "split": "2884bee446e74037", "split-tree": "3290529ccf1ab464",
        "verify-split": "93442644453f1c48", "count": "6e9c05306c89ff65", "equations": "071d5c17360dc67a",
    }
    PINS_313 = {
        **PINS, "help": "3a919a5255e03dd2", "-h": "3a919a5255e03dd2", "empty": "b06d91c0db26d533",
        "unrecognized": "aadc62770b6f7945", "verify-split --help": "27b576903e0e6faa",
        "verify-split": "58aeb5638e90866a",
    }
    VERSION_PINS = {
        "3.10.13": PINS, "3.11.7": PINS, "3.12.1": PINS,
        "3.13.0": {**PINS_313, "unknown": "fa9b82f516f9167d", "option-before-command": "d831817127cfd077"},
        "3.13.13": {**PINS_313, "unknown": "ecd814789a35378a", "option-before-command": "a5974d9681efd2a1"},
    }

    @pytest.mark.parametrize("case", CASES)
    def test_texts_are_pinned(self, capsys, monkeypatch, case):
        pins = self.VERSION_PINS.get(platform.python_version())
        if pins is None:
            pytest.skip("texts recorded on Python 3.10.13, 3.11.7, 3.12.1, 3.13.0 and 3.13.13")
        assert text_digest(parser_text(capsys, monkeypatch, main, self.CASES[case])) == pins[case]

    @pytest.mark.parametrize("case", CASES)
    def test_texts_match_the_full_parser(self, capsys, monkeypatch, case):
        argv = self.CASES[case]
        full = parser_text(capsys, monkeypatch, build_parser().parse_args, argv)
        assert parser_text(capsys, monkeypatch, main, argv) == full

    def test_commands_name_every_subcommand(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert tuple(sub.choices) == COMMANDS

    def test_one_parser_per_command(self, capsys, graph_file, monkeypatch):
        calls, add_parser = [], argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            calls.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        run_json(capsys, ["analyze", "--graph", graph_file("g.txt", PATH3), "--dim", "2"])
        assert calls == ["analyze"]
        calls.clear()
        assert parser_text(capsys, monkeypatch, main, ["-h"])[0] == 0
        assert calls == list(COMMANDS)
