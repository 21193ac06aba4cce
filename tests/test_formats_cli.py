import json
import os
import stat
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hyperwalk import FormatError, realize, tensor_difference
from hyperwalk import cli, formats, presets
from hyperwalk.cli import main


def test_graph_roundtrip():
    graph = presets.line_window_graph(3)
    text = formats.serialize_graph(graph)
    back = formats.parse_graph(text)
    assert back.labels == graph.labels
    assert back.base == graph.base
    assert back.window_radius == 3
    assert sorted(back.edges()) == sorted(graph.edges())


def test_graph_labels_holding_nul_roundtrip():
    # A label in an array too long for one line is written as it is, never
    # taken for a marker of another array.
    labels = ["\x000\x00"] + [f"v{i}" for i in range(1, 30)]
    doc = {"kind": "graph", "version": "1", "vertices": labels,
           "edges": [[labels[i], labels[i + 1]] for i in range(29)], "base": labels[0]}
    graph = formats.parse_graph(json.dumps(doc))
    text = formats.serialize_graph(graph)
    assert formats.parse_graph(text).labels == graph.labels
    assert formats.serialize_graph(formats.parse_graph(text)) == text


def test_graph_parse_errors():
    with pytest.raises(FormatError, match="line 1"):
        formats.parse_graph("{not json")
    doc = {"kind": "graph", "version": "1", "vertices": ["a"], "edges": [], "base": "a"}
    bad_kind = dict(doc, kind="tensor")
    with pytest.raises(FormatError, match="kind"):
        formats.parse_graph(json.dumps(bad_kind))
    with pytest.raises(FormatError, match="version"):
        formats.parse_graph(json.dumps(dict(doc, version="9")))
    loop = dict(doc, vertices=["a", "b"], edges=[["a", "a"], ["a", "b"]])
    with pytest.raises(ValueError, match="loop"):
        formats.parse_graph(json.dumps(loop))
    split = dict(doc, vertices=["a", "b", "c", "d"], edges=[["a", "b"], ["c", "d"]])
    from hyperwalk import DisconnectedGraphError

    with pytest.raises(DisconnectedGraphError):
        formats.parse_graph(json.dumps(split))


def test_tensor_roundtrip_preserves_fractions(c4):
    text = formats.serialize_hypergroup(c4)
    assert '"1/2"' in text
    back = formats.parse_hypergroup(text)
    assert back.tensor.rows == c4.tensor.rows
    assert back.involution == c4.involution
    residual, _ = tensor_difference(back.tensor, c4.tensor)
    assert residual == 0.0


def test_tensor_roundtrip_truncated(zlattice8):
    text = formats.serialize_hypergroup(zlattice8)
    back = formats.parse_hypergroup(text)
    assert back.tensor.truncation_radius == 8
    assert back.tensor.rows == zlattice8.tensor.rows


def test_mixed_tensor_document_serializes_as_floats():
    # A document mixing floats with ints and fractions is a float tensor:
    # it writes every constant back as a float, and that output is stable.
    doc = {"kind": "tensor", "version": "1", "size": 2,
           "entries": [[0, 0, 0, 1], [0, 1, 1, 1.0], [1, 0, 1, "1"],
                       [1, 1, 0, 0.5], [1, 1, 1, "1/4"], [1, 1, 1, "1/4"]]}
    text = formats.serialize_tensor(formats.parse_tensor(json.dumps(doc)))
    assert json.loads(text)["entries"] == [
        [0, 0, 0, 1.0], [0, 1, 1, 1.0], [1, 0, 1, 1.0], [1, 1, 0, 0.5], [1, 1, 1, 0.5]]
    assert formats.serialize_tensor(formats.parse_tensor(text)) == text


def test_value_codec():
    assert formats.decode_value("3/4") == Fraction(3, 4)
    assert formats.decode_value(1) == 1
    assert formats.decode_value(0.25) == 0.25
    assert formats.encode_value(Fraction(3, 4)) == "3/4"
    assert formats.encode_value(Fraction(2, 1)) == 2
    with pytest.raises(FormatError):
        formats.decode_value("a/b")
    with pytest.raises(FormatError):
        formats.decode_value(None)


def test_kraus_and_state_roundtrip(c4):
    fam, state = realize(c4, h_dim=2)
    back = formats.parse_kraus(formats.serialize_kraus(fam))
    assert back.d_size == fam.d_size and back.h_dim == fam.h_dim
    assert set(back.blocks) == set(fam.blocks)
    for key, mat in fam.blocks.items():
        assert np.abs(back.blocks[key] - mat).max() == 0.0
    state2 = formats.parse_state(formats.serialize_state(state))
    for a, b in zip(state.blocks, state2.blocks):
        assert np.abs(a - b).max() == 0.0


def test_state_parse_rejects_bad_trace():
    doc = {
        "kind": "state",
        "version": "1",
        "h_dim": 1,
        "blocks": [[[[0.5, 0.0]]], [[[0.4, 0.0]]]],
    }
    with pytest.raises(FormatError, match="trace"):
        formats.parse_state(json.dumps(doc))


def test_kraus_parse_rejects_duplicates():
    block = {"i": 0, "j": 0, "k": 0, "matrix": [[[1.0, 0.0]]]}
    doc = {"kind": "kraus", "version": "1", "d_size": 1, "h_dim": 1,
           "blocks": [block, dict(block)]}
    with pytest.raises(FormatError, match="duplicate"):
        formats.parse_kraus(json.dumps(doc))


# ---------------------------------------------------------------------------
# Command line.


def run_cli(*argv):
    return main(list(argv))


def test_cli_graph_hypergroup(tmp_path, capsys):
    graph_file = tmp_path / "c4.json"
    out_file = tmp_path / "c4h.json"
    assert run_cli("gen", "c4", "--out", str(graph_file)) == 0
    code = run_cli("graph-hypergroup", "--graph", str(graph_file), "--out", str(out_file))
    assert code == 0
    produced = formats.parse_hypergroup(out_file.read_text())
    assert produced.tensor.entry(1, 1, 0) == Fraction(1, 2)
    assert produced.tensor.entry(2, 2, 0) == 1
    assert "hermitian: True" in capsys.readouterr().out


def test_cli_graph_hypergroup_failure_exit(tmp_path):
    # The 4-path based at its second vertex computes fine but its constants
    # fail associativity, so the command reports a verification failure.
    from hyperwalk import pointed_graph

    graph = formats.serialize_graph(
        pointed_graph(["0", "1", "2", "3"], [(0, 1), (1, 2), (2, 3)], 1)
    )
    graph_file = tmp_path / "p4.json"
    graph_file.write_text(graph)
    assert run_cli("graph-hypergroup", "--graph", str(graph_file)) == 1


def test_cli_graph_hypergroup_empty_sphere_is_input_error(tmp_path):
    p3_file = tmp_path / "p3.json"
    assert run_cli("gen", "p3", "--out", str(p3_file)) == 0
    assert run_cli("graph-hypergroup", "--graph", str(p3_file)) == 2


def test_cli_check_graph(tmp_path, capsys):
    graph_file = tmp_path / "q3.json"
    assert run_cli("gen", "q3", "--out", str(graph_file)) == 0
    assert run_cli("check-graph", "--graph", str(graph_file)) == 0
    out = capsys.readouterr().out
    assert "condition-S: pass" in out
    assert "distance-regular: pass" in out
    p3_file = tmp_path / "p3.json"
    assert run_cli("gen", "p3", "--out", str(p3_file)) == 0
    assert run_cli("check-graph", "--graph", str(p3_file)) == 1


def test_cli_check_graph_scans_a_long_path(tmp_path, capsys):
    # path(256) has uint8 distances and 256 radii; it is not regular, so
    # distance regularity fails at the degree of its second vertex.
    graph_file = tmp_path / "p256.json"
    assert run_cli("gen", "path", "--n", "256", "--out", str(graph_file)) == 0
    capsys.readouterr()
    assert run_cli("check-graph", "--graph", str(graph_file)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "condition-S: FAIL  max residual 1.000e+00 (tol 0.0e+00), 2 checked, "
        "witness ('sphere-size', 1, '0', '1')",
        "distance-regular: FAIL  max residual 1.000e+00 (tol 0.0e+00), 2 checked, "
        "witness ('degree', 0, ('0', '0'), ('1', '1'))",
    ]


def test_cli_validate(tmp_path):
    tensor_file = tmp_path / "h.json"
    assert run_cli("gen", "s3-classes", "--out", str(tensor_file)) == 0
    assert run_cli("validate", "--tensor", str(tensor_file)) == 0
    bad_file = tmp_path / "bad.json"
    assert run_cli("gen", "c4-perturbed", "--out", str(bad_file)) == 0
    assert run_cli("validate", "--tensor", str(bad_file)) == 1


def test_cli_walk_json(tmp_path, capsys):
    kraus_file = tmp_path / "ex44.json"
    state_file = tmp_path / "s.json"
    assert run_cli("gen", "ex44", "--out", str(kraus_file)) == 0
    assert run_cli("gen", "ex44-state", "--x", "0.5", "--out", str(state_file)) == 0
    code = run_cli(
        "walk", "--kraus", str(kraus_file), "--state", str(state_file),
        "--word", "1,1", "--json",
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "report" and doc["check"] == "walk"
    assert np.abs(np.array(doc["distribution"]) - [0.5, 0.0, 0.5]).max() < 1e-12
    # Human-readable table without --json.
    assert run_cli("walk", "--kraus", str(kraus_file), "--state", str(state_file),
                   "--word", "1,1") == 0
    table = capsys.readouterr().out
    assert "probability" in table and "0.500000" in table


@pytest.mark.parametrize("block, refusal", [
    ([[0.5, 0.1], [0.0, 0.5]], "block 0 is not Hermitian"),
    ([[1.5, 0.0], [0.0, -0.5]], "block 0 has negative eigenvalue -0.5"),
])
def test_cli_walk_refuses_an_invalid_state_document(tmp_path, capsys, block, refusal):
    kraus_file = tmp_path / "ex44.json"
    state_file = tmp_path / "s.json"
    assert run_cli("gen", "ex44", "--out", str(kraus_file)) == 0
    zero = [[0.0, 0.0], [0.0, 0.0]]
    state_file.write_text(json.dumps({
        "kind": "state", "version": "1", "h_dim": 2,
        "blocks": [[[[x, 0.0] for x in row] for row in b] for b in (block, zero, zero)],
    }))
    capsys.readouterr()
    assert run_cli("walk", "--kraus", str(kraus_file), "--state", str(state_file),
                   "--word", "1") == 2
    assert capsys.readouterr().err == f"error: invalid state: {refusal}\n"


def test_cli_produce_and_verify(tmp_path, capsys):
    lo2 = tmp_path / "lo2.json"
    ex56 = tmp_path / "ex56.json"
    assert run_cli("gen", "lo2", "--out", str(lo2)) == 0
    assert run_cli("gen", "ex56", "--out", str(ex56)) == 0
    assert run_cli("verify-hb", "--kraus", str(ex56), "--tensor", str(lo2)) == 0
    assert run_cli("verify-t51", "--kraus", str(ex56), "--tensor", str(lo2)) == 0
    capsys.readouterr()

    state = tmp_path / "mixed.json"
    assert run_cli("gen", "ex55-state", "--out", str(state)) == 0
    assert run_cli("produce", "--kraus", str(ex56), "--state", str(state)) == 0
    produced = formats.parse_tensor(capsys.readouterr().out)
    assert abs(float(produced.entry(1, 0, 0)) - 0.5) < 1e-12


def test_cli_theorem_5_1_on_a_truncated_family(tmp_path, capsys):
    # Example 4.5 against the z-lattice constants of the same radius holds
    # for every state within the window; walks past it are refused.
    kraus, tensor = tmp_path / "ex45.json", tmp_path / "zl4.json"
    assert run_cli("gen", "ex45", "--radius", "4", "--out", str(kraus)) == 0
    assert run_cli("gen", "z-lattice", "--radius", "4", "--out", str(tensor)) == 0
    assert run_cli("verify-t51", "--kraus", str(kraus), "--tensor", str(tensor)) == 0
    assert "walk-vs-mixture: pass" in capsys.readouterr().out
    for site, word, code in ((0, "2,2", 0), (1, "2,1", 0), (1, "2,2", 2)):
        state = tmp_path / f"site{site}.json"
        assert run_cli("gen", "mixed-state", "--d-size", "5", "--site", str(site),
                       "--out", str(state)) == 0
        assert run_cli("walk", "--kraus", str(kraus), "--state", str(state),
                       "--word", word) == code
    err = capsys.readouterr().err
    assert err == "error: a walk of letter sum 4 from position 1 leaves the truncation radius 4\n"


def test_cli_produce_refuses_a_start_past_the_window(tmp_path, capsys):
    # Every produced row of z-lattice(6) reads a walk of up to 6 letters,
    # so from site 2 produce is refused as walk --word 3,3 is.
    tensor, kraus, state = (tmp_path / name for name in ("zl6.json", "k.json", "s.json"))
    assert run_cli("gen", "z-lattice", "--radius", "6", "--out", str(tensor)) == 0
    assert run_cli("realize", "--tensor", str(tensor), "--h-dim", "3", "--random-isometries",
                   "--out-kraus", str(kraus), "--out-state", str(tmp_path / "s0.json")) == 0
    assert run_cli("gen", "mixed-state", "--h-dim", "3", "--d-size", "7", "--site", "2",
                   "--out", str(state)) == 0
    capsys.readouterr()
    assert run_cli("produce", "--kraus", str(kraus), "--state", str(state)) == 2
    assert run_cli("walk", "--kraus", str(kraus), "--state", str(state), "--word", "3,3") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == 2 * "error: a walk of letter sum 6 from position 2 leaves the " \
        "truncation radius 6\n"


@pytest.mark.parametrize("message", ["Unable to allocate 3.83 GiB for an array", ""])
def test_cli_out_of_memory_is_one_line(tmp_path, capsys, monkeypatch, message):
    graph = tmp_path / "q3.json"
    assert run_cli("gen", "q3", "--out", str(graph)) == 0

    def exhausted(table):
        raise MemoryError(message)
    monkeypatch.setattr(cli, "check_distance_regular", exhausted)
    capsys.readouterr()
    assert run_cli("check-graph", "--graph", str(graph)) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: check-graph: out of memory ({message or 'no details'})\n"
    assert captured.out == "" and "Traceback" not in captured.err


def test_cli_realize_roundtrip(tmp_path):
    tensor_file = tmp_path / "z3.json"
    kraus_file = tmp_path / "z3.kraus.json"
    state_file = tmp_path / "z3.state.json"
    assert run_cli("gen", "z3", "--out", str(tensor_file)) == 0
    code = run_cli(
        "realize", "--tensor", str(tensor_file), "--h-dim", "2",
        "--random-isometries", "--seed", "3",
        "--out-kraus", str(kraus_file), "--out-state", str(state_file),
    )
    assert code == 0
    assert run_cli(
        "verify-t51", "--kraus", str(kraus_file), "--tensor", str(tensor_file)
    ) == 0


def test_cli_verify_graph_oracles(tmp_path):
    c4_file = tmp_path / "c4.json"
    assert run_cli("gen", "c4", "--out", str(c4_file)) == 0
    assert run_cli("verify-t24", "--graph", str(c4_file)) == 0
    assert run_cli("verify-t24", "--graph", str(c4_file), "--mode", "float") == 0
    h_file = tmp_path / "c4h.json"
    assert run_cli("gen", "c4-hypergroup", "--out", str(h_file)) == 0
    assert run_cli("verify-c26", "--tensor", str(h_file)) == 0


def test_cli_input_errors(tmp_path, capsys):
    assert run_cli("walk", "--kraus", "missing.json", "--state", "also.json",
                   "--word", "1") == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli("check-graph", "--graph", str(bad)) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli("no-such-command")
    assert exc.value.code == 2


def test_cli_mismatched_verify_is_failure(tmp_path):
    pert = tmp_path / "pert.json"
    c4h = tmp_path / "c4h.json"
    kraus = tmp_path / "k.json"
    state = tmp_path / "s.json"
    assert run_cli("gen", "c4-perturbed", "--out", str(pert)) == 0
    assert run_cli("gen", "c4-hypergroup", "--out", str(c4h)) == 0
    assert run_cli("realize", "--tensor", str(c4h), "--h-dim", "2",
                   "--out-kraus", str(kraus), "--out-state", str(state)) == 0
    assert run_cli("verify-hb", "--kraus", str(kraus), "--tensor", str(pert)) == 1


def test_cli_walk_letter_out_of_range_is_input_error(tmp_path, capsys):
    kraus = tmp_path / "ex44.json"
    state = tmp_path / "s.json"
    assert run_cli("gen", "ex44", "--out", str(kraus)) == 0
    assert run_cli("gen", "ex44-state", "--out", str(state)) == 0
    assert run_cli("walk", "--kraus", str(kraus), "--state", str(state),
                   "--word", "5") == 2
    assert "out of range" in capsys.readouterr().err


def test_cli_verify_hb_non_finite_inputs(tmp_path, capsys):
    c4h = tmp_path / "c4h.json"
    kraus = tmp_path / "k.json"
    state = tmp_path / "s.json"
    assert run_cli("gen", "c4-hypergroup", "--out", str(c4h)) == 0
    assert run_cli("realize", "--tensor", str(c4h), "--h-dim", "2",
                   "--out-kraus", str(kraus), "--out-state", str(state)) == 0
    # A NaN Kraus block is refused when the document is read.
    doc = json.loads(kraus.read_text())
    doc["blocks"][0]["matrix"][0][0] = [float("nan"), 0.0]
    nan_kraus = tmp_path / "nan-k.json"
    nan_kraus.write_text(json.dumps(doc))
    assert run_cli("verify-hb", "--kraus", str(nan_kraus), "--tensor", str(c4h)) == 2
    assert "non-finite" in capsys.readouterr().err
    # A NaN constant is refused when the document is read, too.
    doc = json.loads(c4h.read_text())
    doc["entries"] = [e[:3] + [float("nan")] if e[:3] == [1, 2, 1] else e
                      for e in doc["entries"]]
    nan_tensor = tmp_path / "nan-t.json"
    nan_tensor.write_text(json.dumps(doc))
    assert run_cli("verify-hb", "--kraus", str(kraus), "--tensor", str(nan_tensor)) == 2
    assert "non-finite" in capsys.readouterr().err


def _strict_json(text: str):
    """json.loads that refuses the bare NaN, Infinity and -Infinity tokens."""
    def refuse(token):
        raise ValueError(f"bare {token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_report_document_writes_non_finite_floats_as_strings():
    payload = {"max_residual": float("nan"), "tolerance": np.float64("inf"),
               "gaps": np.array([1.0, -np.inf]), "passed": False}
    doc = _strict_json(formats.report_document("demo", payload))
    assert (doc["max_residual"], doc["tolerance"]) == ("NaN", "Infinity")
    assert doc["gaps"] == [1.0, "-Infinity"]


def test_cli_verify_hb_json_overflowing_family(tmp_path, capsys):
    # A finite entry of 1e200 passes kraus_family, but its Gram product
    # overflows: the check fails with a NaN residual, reported as valid JSON
    # and without numpy warnings.
    kraus, z2 = tmp_path / "ex56.json", tmp_path / "z2.json"
    assert run_cli("gen", "ex56", "--out", str(kraus)) == 0
    assert run_cli("gen", "z2", "--out", str(z2)) == 0
    doc = json.loads(kraus.read_text())
    doc["blocks"][0]["matrix"][0][0] = [1e200, 0.0]
    kraus.write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("verify-hb", "--kraus", str(kraus), "--tensor", str(z2), "--json") == 1
    out, err = capsys.readouterr()
    report = _strict_json(out)
    assert report["passed"] is False and report["max_residual"] == "NaN"
    assert err == ""


@pytest.mark.parametrize("field, value", [
    ("d_size", True), ("d_size", 0), ("d_size", 2.0), ("d_size", "2"),
    ("h_dim", True), ("h_dim", -1), ("h_dim", 2.0), ("h_dim", None),
])
def test_cli_kraus_sizes_must_be_integers(tmp_path, capsys, field, value):
    kraus, z2 = tmp_path / "ex56.json", tmp_path / "z2.json"
    assert run_cli("gen", "ex56", "--out", str(kraus)) == 0
    assert run_cli("gen", "z2", "--out", str(z2)) == 0
    doc = json.loads(kraus.read_text())
    doc[field] = value
    kraus.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify-hb", "--kraus", str(kraus), "--tensor", str(z2)) == 2
    assert f"{field} must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, 1.0, 0, "1"])
def test_cli_state_h_dim_must_be_an_integer(tmp_path, capsys, value):
    kraus, state = tmp_path / "ex55.json", tmp_path / "state.json"
    assert run_cli("gen", "ex55", "--out", str(kraus)) == 0
    assert run_cli("gen", "ex55-state", "--out", str(state)) == 0
    assert run_cli("walk", "--kraus", str(kraus), "--state", str(state), "--word", "1") == 0
    doc = json.loads(state.read_text())
    doc["h_dim"] = value
    state.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("walk", "--kraus", str(kraus), "--state", str(state), "--word", "1") == 2
    assert "h_dim must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("name, command, edit, message", [
    ("c4", ["check-graph", "--graph"], {"vertices": None}, "vertices must be a list"),
    ("c4", ["check-graph", "--graph"], {"edges": 5}, "edges must be a list"),
    ("z2", ["validate", "--tensor"], {"entries": "x"}, "entries must be a list"),
    ("ex56", ["produce", "--state", "{state}", "--kraus"], {"blocks": None},
     "blocks must be a list"),
    ("ex55-state", ["walk", "--kraus", "{kraus}", "--word", "1", "--state"], {"blocks": True},
     "blocks must be a list"),
    ("ex56", ["produce", "--state", "{state}", "--kraus"], "matrix cell", "bad matrix"),
])
def test_cli_malformed_document_structure(tmp_path, capsys, name, command, edit, message):
    # Each of these escaped cli.main as a TypeError or KeyError traceback.
    paths = {"kraus": tmp_path / "ex55.json", "state": tmp_path / "state.json"}
    assert run_cli("gen", "ex55", "--out", str(paths["kraus"])) == 0
    assert run_cli("gen", "ex55-state", "--out", str(paths["state"])) == 0
    doc_path = tmp_path / "doc.json"
    assert run_cli("gen", name, "--out", str(doc_path)) == 0
    doc = json.loads(doc_path.read_text())
    if edit == "matrix cell":
        doc["blocks"][0]["matrix"][0][1] = {}
    else:
        doc.update(edit)
    doc_path.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = [part.format(**paths) for part in command] + [str(doc_path)]
    assert run_cli(*argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cell", [[True, False, 7], [True, False], [1.0, 0.0, 7], [0.5, True]])
@pytest.mark.parametrize("name, command", [
    ("ex56", ["produce", "--state", "{state}", "--kraus"]),
    ("ex55-state", ["walk", "--kraus", "{kraus}", "--word", "1", "--state"]),
])
def test_cli_refuses_bool_and_long_matrix_cells(tmp_path, capsys, cell, name, command):
    # A cell is a [re, im] pair of numbers: [true, false, 7] used to read as 1+0j.
    paths = {"kraus": tmp_path / "ex55.json", "state": tmp_path / "state.json"}
    assert run_cli("gen", "ex55", "--out", str(paths["kraus"])) == 0
    assert run_cli("gen", "ex55-state", "--out", str(paths["state"])) == 0
    doc_path = tmp_path / "doc.json"
    assert run_cli("gen", name, "--out", str(doc_path)) == 0
    doc = json.loads(doc_path.read_text())
    matrix = doc["blocks"][0]["matrix"] if name == "ex56" else doc["blocks"][0]
    matrix[0][0] = cell
    doc_path.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = [part.format(**paths) for part in command] + [str(doc_path)]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bad matrix" in captured.err
    with pytest.raises(FormatError, match="bad matrix"):
        (formats.parse_kraus if name == "ex56" else formats.parse_state)(json.dumps(doc))


def test_cli_tensor_size_must_be_an_integer(tmp_path, capsys):
    tensor = tmp_path / "z2.json"
    assert run_cli("gen", "z2", "--out", str(tensor)) == 0
    doc = json.loads(tensor.read_text())
    doc["size"] = True
    tensor.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("validate", "--tensor", str(tensor)) == 2
    assert "size must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, 1.0, 1.9, "1", None])
@pytest.mark.parametrize("name, command", [
    ("ex56", ["verify-hb", "--tensor", "{z2}", "--kraus"]),
    ("z2", ["validate", "--tensor"]),
])
def test_cli_refuses_indices_that_are_not_integers(tmp_path, capsys, value, name, command):
    # A block index used to be read with int(), so true, 1.0, 1.9 and "1"
    # each read as 1, and an entry's indices admitted true as 1.
    z2, doc_path = tmp_path / "z2.json", tmp_path / "doc.json"
    assert run_cli("gen", "z2", "--out", str(z2)) == 0
    assert run_cli("gen", name, "--out", str(doc_path)) == 0
    doc = json.loads(doc_path.read_text())
    if name == "ex56":
        block = next(block for block in doc["blocks"] if block["i"] == 1)
        block["i"], parse, message = value, formats.parse_kraus, "bad block indices"
    else:
        entry = next(entry for entry in doc["entries"] if entry[0] == 1)
        entry[0], parse, message = value, formats.parse_tensor, "bad entry indices"
    with pytest.raises(FormatError, match=message):
        parse(json.dumps(doc))
    doc_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(*[part.format(z2=z2) for part in command], str(doc_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message} in ")
    assert captured.err.count("\n") == 1


def test_cli_refuses_empty_verifications(tmp_path, capsys):
    c4 = tmp_path / "c4.json"
    c4h = tmp_path / "c4h.json"
    ex56 = tmp_path / "ex56.json"
    lo2 = tmp_path / "lo2.json"
    for name, path in (("c4", c4), ("c4-hypergroup", c4h), ("ex56", ex56), ("lo2", lo2)):
        assert run_cli("gen", name, "--out", str(path)) == 0
    assert run_cli("verify-t24", "--graph", str(c4), "--max-len", "0") == 2
    assert run_cli("verify-c26", "--tensor", str(c4h), "--max-len", "-1") == 2
    assert run_cli("verify-t51", "--kraus", str(ex56), "--tensor", str(lo2),
                   "--states", "0") == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3 and "must be at least 1" in err


def test_cli_refuses_bad_radius_and_nan_documents(tmp_path, capsys):
    window = tmp_path / "z.json"
    assert run_cli("gen", "z-window", "--radius", "3", "--out", str(window)) == 0
    doc = json.loads(window.read_text())
    doc["window_radius"] = "x"
    window.write_text(json.dumps(doc))
    assert run_cli("check-graph", "--graph", str(window)) == 2
    assert "window radius must be a nonnegative integer" in capsys.readouterr().err
    c4h = tmp_path / "c4h.json"
    assert run_cli("gen", "c4-hypergroup", "--out", str(c4h)) == 0
    doc = json.loads(c4h.read_text())
    doc["entries"] = [e[:3] + [float("nan")] if e[:3] == [1, 2, 1] else e
                      for e in doc["entries"]]
    c4h.write_text(json.dumps(doc))
    assert run_cli("validate", "--tensor", str(c4h)) == 2
    assert run_cli("verify-c26", "--tensor", str(c4h)) == 2
    assert capsys.readouterr().err.count("non-finite constant") == 2


@pytest.mark.parametrize("entries, message", [
    ([[0, 0, 0, -10**400], [0, 0, 0, 1]], "negative constant"),
    ([[0, 0, 0, "-" + "9" * 400], [0, 0, 0, 1]], "negative constant"),
    ([[0, 0, 0, 10**400]], "sums to inf"),
    ([[0, 0, 0, 0.5], [0, 0, 0, 10**400]], "sums to inf"),
], ids=["negative-int", "negative-string", "huge-int", "huge-int-after-a-float"])
def test_exact_constants_past_the_float_range_are_refused(tmp_path, capsys, entries, message):
    # Comparing such a constant, or its row sum, as a float used to escape
    # as an OverflowError traceback.
    text = json.dumps({"kind": "tensor", "version": "1", "size": 1, "entries": entries})
    with pytest.raises(ValueError, match=message):
        formats.parse_tensor(text)
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert run_cli("validate", "--tensor", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def _with_radius(path, field, radius):
    doc = json.loads(path.read_text())
    doc[field] = radius
    out = path.with_name(f"{path.stem}-{radius}.json")
    out.write_text(json.dumps(doc))
    return str(out)


def test_cli_radius_past_int64_reads_as_a_radius_past_every_sum(tmp_path, capsys):
    # c4's base distances and radii are at most 2, so a window of 7 is past
    # every base distance plus radius and every letter sum of 3 letters; a
    # truncation radius of 9 is past every start plus letter sum of 4
    # letters.  A radius past int64 must read the same, not overflow.
    graph, tensor = tmp_path / "c4.json", tmp_path / "c4h.json"
    assert run_cli("gen", "c4", "--out", str(graph)) == 0
    assert run_cli("gen", "c4-hypergroup", "--out", str(tensor)) == 0
    capsys.readouterr()
    results = []
    for window, truncation in ((7, 9), (2**70, 2**70)):
        window_graph = _with_radius(graph, "window_radius", window)
        truncated = _with_radius(tensor, "truncation_radius", truncation)
        kraus = str(tmp_path / f"kraus-{truncation}.json")
        state = str(tmp_path / f"state-{truncation}.json")
        runs = [("check-graph", "--graph", window_graph),
                ("verify-t24", "--graph", window_graph, "--max-len", "3"),
                ("realize", "--tensor", truncated, "--h-dim", "2", "--random-isometries",
                 "--seed", "7", "--out-kraus", kraus, "--out-state", state),
                ("verify-t51", "--kraus", kraus, "--tensor", truncated, "--max-len", "3"),
                ("verify-hb", "--kraus", kraus, "--tensor", truncated),
                ("walk", "--kraus", kraus, "--state", state, "--word", "2,2,2")]
        results.append([(run_cli(*argv), capsys.readouterr()) for argv in runs])
    assert [code for code, _ in results[0]] == [0] * 6
    assert results[1] == results[0]


def test_cli_gen_state_site_out_of_range(capsys):
    assert run_cli("gen", "mixed-state", "--site", "5") == 2
    assert run_cli("gen", "mixed-state", "--site", "-1", "--d-size", "3") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("out of range") == 2


@pytest.mark.parametrize("involution", [[None, 1, 2], [[0], 1, 2], 5, "012", [0.5, 1, 2],
                                        [True, 1, 2]])
def test_cli_refuses_malformed_stored_involution(tmp_path, capsys, involution):
    c4h = tmp_path / "c4h.json"
    assert run_cli("gen", "c4-hypergroup", "--out", str(c4h)) == 0
    doc = json.loads(c4h.read_text())
    doc["involution"] = involution
    c4h.write_text(json.dumps(doc))
    assert run_cli("validate", "--tensor", str(c4h)) == 2
    assert run_cli("verify-c26", "--tensor", str(c4h)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: involution must be a list of integers") == 2
    with pytest.raises(FormatError, match="involution must be a list of integers"):
        formats.stored_involution(c4h.read_text())


def test_cli_gen_state_refuses_empty_blocks(capsys):
    assert run_cli("gen", "mixed-state", "--h-dim", "0") == 2
    assert capsys.readouterr().err == "error: state blocks must be at least 1x1\n"


# ---------------------------------------------------------------------------
# Output files.


@pytest.mark.parametrize("options", [("gen", "c4", "--out", ""),
                                     ("realize", "--out-kraus", ""),
                                     ("realize", "--out-state", "")])
def test_cli_empty_output_path_is_an_input_error(tmp_path, capsys, monkeypatch, options):
    monkeypatch.chdir(tmp_path)  # realize writes its other document here
    assert run_cli("gen", "c4-hypergroup", "--out", "c4h.json") == 0
    if options[0] == "realize":
        options = ("realize", "--tensor", "c4h.json", *options[1:])
    assert run_cli(*options) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_out_overwrites_a_longer_file_to_its_new_length(tmp_path, capsys):
    out = tmp_path / "c4.json"
    out.write_bytes(b"x" * 100_000)
    assert run_cli("gen", "c4") == 0
    expected = capsys.readouterr().out
    assert run_cli("gen", "c4", "--out", str(out)) == 0
    assert out.read_bytes() == expected.encode()


def test_cli_out_writes_a_device_without_cutting_it():
    assert run_cli("gen", "c4", "--out", os.devnull) == 0


def test_cli_out_writes_a_fifo_whole(tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run_cli("gen", "z-lattice", "--radius", "40", "--out", str(fifo)) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert run_cli("gen", "z-lattice", "--radius", "40") == 0
    assert received == [capsys.readouterr().out.encode()]


def test_cli_out_creates_a_file_with_the_mode_open_gives(tmp_path):
    previous = os.umask(0o027)
    try:
        assert run_cli("gen", "c4", "--out", str(tmp_path / "new.json")) == 0
        with open(tmp_path / "opened.json", "w"):
            pass
    finally:
        os.umask(previous)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("new.json", "opened.json")]
    assert modes[0] == modes[1] == 0o640


def test_cli_produce_over_its_own_kraus_document(tmp_path, capsys):
    c4h, kraus, state = (str(tmp_path / name) for name in ("c4h.json", "k.json", "s.json"))
    assert run_cli("gen", "c4-hypergroup", "--out", c4h) == 0
    assert run_cli("realize", "--tensor", c4h, "--h-dim", "2", "--random-isometries",
                   "--out-kraus", kraus, "--out-state", state) == 0
    capsys.readouterr()
    assert run_cli("produce", "--kraus", kraus, "--state", state) == 0
    produced = capsys.readouterr().out
    assert os.path.getsize(kraus) > len(produced)
    assert run_cli("produce", "--kraus", kraus, "--state", state, "--out", kraus) == 0
    with open(kraus, encoding="utf-8") as fh:
        assert fh.read() == produced
