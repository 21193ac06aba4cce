"""The command line against the frozen seed copy in ``tests/reference``.

Every argv of the corpus runs through both ``main`` functions, each in its
own copy of the same input directory, and the two runs must agree exactly:
exit code, stdout, stderr and every file left in the directory.  Both run in
this process on the same library build, so the comparison holds on any
numpy or BLAS build.  The seed builds its parser on every call; ``main``
shares one parser across every call in the process.  Inputs whose behaviour the library changed on purpose
(refused radii, NaN constants, out-of-range sites, empty verifications) are
tested on their own in ``test_formats_cli.py``; the cases whose output the
command line changed on purpose are listed in ``CHANGED`` by id and their
new output is pinned there.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil

import pytest

from hyperwalk.cli import build_parser, main
from reference.cli_seed import GEN_NAMES, main as seed_main

# Non-default gen options for the fixtures that take any.
GEN_OPTIONS = {
    "cycle": ["--n", "6"],
    "complete": ["--n", "3"],
    "path": ["--n", "5"],
    "hypercube": ["--d", "2"],
    "z-window": ["--radius", "3"],
    "free-ball": ["--generators", "1", "--radius", "3"],
    "z-lattice": ["--radius", "4"],
    "ex44-state": ["--x", "0.25"],
    "ex45": ["--radius", "3", "--h-dim", "2"],
    "mixed-state": ["--h-dim", "2", "--d-size", "3", "--site", "1"],
}

# name -> gen argv of the documents every corpus run can read under in/.
INPUTS = {
    "c4": ["c4"],
    "q3": ["q3"],
    "p3": ["p3"],
    "z-window": ["z-window", "--radius", "3"],
    "free-ball": ["free-ball", "--radius", "2"],
    "c4h": ["c4-hypergroup"],
    "z3": ["z3"],
    "s3c": ["s3-classes"],
    "zl4": ["z-lattice", "--radius", "4"],
    "pert": ["c4-perturbed"],
    "lo2": ["lo2"],
    "ex44": ["ex44"],
    "ex44s": ["ex44-state"],
    "ex45": ["ex45", "--radius", "4"],
    "ex55": ["ex55"],
    "ex55s": ["ex55-state"],
    "ex56": ["ex56"],
}

BROKEN = {
    "broken": "{broken",
    "not-object": "[1, 2]",
    "wrong-kind": json.dumps({"kind": "state", "version": "1"}),
    "p4-at-1": json.dumps({"kind": "graph", "version": "1", "vertices": ["0", "1", "2", "3"],
                           "edges": [["0", "1"], ["1", "2"], ["2", "3"]], "base": "1"}),
}


def _doc(name):
    return f"in/{name}.json"


def _variants(*argv):
    """The argv alone, with --json, with --out, and with both."""
    argv = list(argv)
    return [argv, argv + ["--json"], argv + ["--out", "out.json"],
            argv + ["--json", "--out", "out.json"]]


def _corpus():
    cases = []
    for name in GEN_NAMES:
        cases.append(["gen", name])
        cases.append(["gen", name, "--out", f"{name}.json", "--json"])
        if name in GEN_OPTIONS:
            cases.append(["gen", name, *GEN_OPTIONS[name]])
    cases += [
        ["gen", "c4", "--n", "7", "--x", "0.1"],          # options the fixture ignores
        ["gen", "cycle", "--n", "2"],
        ["gen", "z-lattice", "--radius", "0"],
        ["gen", "ex44-state", "--x", "2"],
        ["gen", "free-ball", "--generators", "0"],
        ["gen", "mixed-state", "--h-dim", "0"],
        ["gen", "no-such-fixture"],
        ["gen", "cycle", "--n", "x"],
        ["gen", "c4", "--out", "no-dir/c4.json"],
    ]
    for graph in ("c4", "q3", "z-window", "free-ball", "p4-at-1", "p3"):
        cases += _variants("graph-hypergroup", "--graph", _doc(graph))
    for graph in ("c4", "q3", "z-window", "p3"):
        cases += _variants("check-graph", "--graph", _doc(graph))
    for tensor in ("s3c", "c4h", "zl4", "pert", "lo2"):
        cases += _variants("validate", "--tensor", _doc(tensor))
    for sigma in ("0,1,2", "0,2", "0,2,1", "x"):
        cases.append(["validate", "--tensor", _doc("c4h"), "--involution", sigma])
    realize = ["realize", "--tensor", _doc("c4h"), "--h-dim", "2"]
    cases += _variants(*realize)
    cases += _variants(*realize, "--random-isometries", "--seed", "3")
    cases += [
        ["realize", "--tensor", _doc("z3"), "--random-isometries",
         "--out-kraus", "k.json", "--out-state", "s.json"],
        ["realize", "--tensor", _doc("zl4"), "--h-dim", "3", "--random-isometries"],
        ["realize", "--tensor", _doc("s3c"), "--h-dim", "0", "--random-isometries"],
        ["realize", "--tensor", _doc("c4h"), "--h-dim", "-1", "--random-isometries"],
    ]
    walk = ["walk", "--kraus", _doc("ex44"), "--state", _doc("ex44s")]
    cases += _variants(*walk, "--word", "1,1")
    for word in ("0,2,1", "", "1,x", "5", "-1"):
        cases.append([*walk, "--word", word])
    cases.append(["walk", "--kraus", _doc("ex55"), "--state", _doc("ex55s"),
                  "--word", "1,0,1", "--json"])
    cases += _variants("produce", "--kraus", _doc("ex56"), "--state", _doc("ex55s"))
    cases.append(["produce", "--kraus", _doc("ex44"), "--state", _doc("ex44s")])
    cases.append(["produce", "--kraus", _doc("ex44"), "--state", _doc("ex55s")])
    for kraus, tensor in (("ex56", "lo2"), ("ex44", "c4h"), ("ex45", "zl4"), ("ex44", "pert")):
        pair = ["--kraus", _doc(kraus), "--tensor", _doc(tensor)]
        cases += _variants("verify-hb", *pair)
        cases += _variants("verify-t51", *pair, "--max-len", "2", "--states", "2")
    cases += [
        ["verify-hb", "--kraus", _doc("ex56"), "--tensor", _doc("lo2"), "--tol", "-1"],
        ["verify-hb", "--kraus", _doc("ex56"), "--tensor", _doc("c4h")],
        ["verify-t51", "--kraus", _doc("ex56"), "--tensor", _doc("lo2")],
        ["verify-t51", "--kraus", _doc("ex56"), "--tensor", _doc("lo2"), "--seed", "5",
         "--tol", "0"],
    ]
    for graph in ("c4", "q3", "z-window", "p3"):
        cases += _variants("verify-t24", "--graph", _doc(graph), "--max-len", "2")
    cases += [
        ["verify-t24", "--graph", _doc("c4")],
        ["verify-t24", "--graph", _doc("c4"), "--mode", "float", "--json"],
        ["verify-t24", "--graph", _doc("c4"), "--mode", "fuzzy"],
    ]
    for tensor in ("c4h", "s3c", "pert", "zl4", "lo2"):
        cases += _variants("verify-c26", "--tensor", _doc(tensor), "--max-len", "2")
    cases.append(["verify-c26", "--tensor", _doc("c4h"), "--tol", "-1"])
    # Malformed and missing documents, for every document option.
    for bad in ("broken", "not-object", "wrong-kind", "missing"):
        cases += [
            ["graph-hypergroup", "--graph", _doc(bad)],
            ["check-graph", "--graph", _doc(bad), "--json"],
            ["validate", "--tensor", _doc(bad)],
            ["realize", "--tensor", _doc(bad)],
            ["walk", "--kraus", _doc(bad), "--state", _doc("missing"), "--word", "x"],
            ["walk", "--kraus", _doc("ex44"), "--state", _doc(bad), "--word", "x"],
            ["produce", "--kraus", _doc("ex56"), "--state", _doc(bad)],
            ["verify-hb", "--kraus", _doc(bad), "--tensor", _doc("missing")],
            ["verify-t51", "--kraus", _doc("ex56"), "--tensor", _doc(bad)],
            ["verify-t24", "--graph", _doc(bad)],
            ["verify-c26", "--tensor", _doc(bad)],
        ]
    cases.append(["check-graph", "--graph", ""])
    # Argument errors and help texts.
    cases += [[], ["no-such-command"], ["walk", "--kraus", _doc("ex44")], ["--help"]]
    cases += [[command, "--help"] for command in (
        "gen", "graph-hypergroup", "check-graph", "validate", "realize", "walk",
        "produce", "verify-hb", "verify-t51", "verify-t24", "verify-c26")]
    return cases


CORPUS = _corpus()


# The cases whose output changed on purpose, pinned.  ``verify-t51 --help``
# says that --states and --seed are ignored: Theorem 5.1 is checked for every
# state, so nothing is sampled.  Its text at each terminal width (COLUMNS):
T51_HELP = {
    80: """\
usage: hyperwalk verify-t51 [-h] [--json] [--out OUT] --kraus KRAUS --tensor
                            TENSOR [--max-len MAX_LEN] [--states STATES]
                            [--seed SEED] [--tol TOL]

options:
  -h, --help         show this help message and exit
  --json             machine-readable output
  --out OUT          write the primary output document to this file
  --kraus KRAUS
  --tensor TENSOR
  --max-len MAX_LEN
  --states STATES    ignored: every state is covered
  --seed SEED        ignored: nothing is sampled
  --tol TOL
""",
    40: """\
usage: hyperwalk verify-t51 [-h]
                            [--json]
                            [--out OUT]
                            --kraus
                            KRAUS
                            --tensor
                            TENSOR
                            [--max-len MAX_LEN]
                            [--states STATES]
                            [--seed SEED]
                            [--tol TOL]

options:
  -h, --help      show this help
                  message and exit
  --json          machine-readable
                  output
  --out OUT       write the primary
                  output document to
                  this file
  --kraus KRAUS
  --tensor TENSOR
  --max-len MAX_LEN
  --states STATES
                  ignored: every state
                  is covered
  --seed SEED     ignored: nothing is
                  sampled
  --tol TOL
""",
    200: """\
usage: hyperwalk verify-t51 [-h] [--json] [--out OUT] --kraus KRAUS --tensor TENSOR [--max-len MAX_LEN] [--states STATES] [--seed SEED] [--tol TOL]

options:
  -h, --help         show this help message and exit
  --json             machine-readable output
  --out OUT          write the primary output document to this file
  --kraus KRAUS
  --tensor TENSOR
  --max-len MAX_LEN
  --states STATES    ignored: every state is covered
  --seed SEED        ignored: nothing is sampled
  --tol TOL
""",
}
CHANGED = {"verify-t51 --help": T51_HELP}


def _run(entry, argv, workdir):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = exc.code
    files = {path.relative_to(workdir).as_posix(): path.read_bytes()
             for path in sorted(workdir.rglob("*")) if path.is_file()}
    return code, out.getvalue(), err.getvalue(), files


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-inputs")
    (root / "in").mkdir()
    for name, argv in INPUTS.items():
        assert seed_main(["gen", *argv, "--out", str(root / _doc(name))]) == 0
    for name, text in BROKEN.items():
        (root / _doc(name)).write_text(text)
    return root


def test_corpus_covers_every_subcommand():
    assert len(CORPUS) == len({tuple(argv) for argv in CORPUS})
    commands = {argv[0] for argv in CORPUS if argv and not argv[0].startswith("-")}
    assert len(commands) == 12  # the 11 subcommands and one unknown name


def _case_id(argv):
    return " ".join(argv) or "<none>"


@pytest.mark.parametrize("argv", CORPUS, ids=_case_id)
def test_cli_matches_seed(argv, inputs, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    results = []
    for side, entry in (("seed", seed_main), ("new", main)):
        workdir = tmp_path / side
        shutil.copytree(inputs, workdir)
        monkeypatch.chdir(workdir)
        results.append(_run(entry, list(argv), workdir))
    if _case_id(argv) in CHANGED:
        code, out, *rest = results[1]
        assert (code, out, *rest) == (results[0][0], CHANGED[_case_id(argv)][80], *results[0][2:])
        assert out != results[0][1]
    else:
        assert results[1] == results[0]


def test_changed_cases_are_in_the_corpus():
    assert set(CHANGED) <= {_case_id(argv) for argv in CORPUS}


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


# (COLUMNS, argv): an argparse error, one help text at two terminal widths,
# a passing and a failing verification, and a walk.
SEQUENCE = [
    ("80", ["walk", "--kraus", _doc("ex44")]),
    ("40", ["verify-t51", "--help"]),
    ("200", ["verify-t51", "--help"]),
    ("80", ["verify-hb", "--kraus", _doc("ex56"), "--tensor", _doc("lo2"), "--json"]),
    ("80", ["verify-hb", "--kraus", _doc("ex44"), "--tensor", _doc("pert")]),
    ("80", ["walk", "--kraus", _doc("ex44"), "--state", _doc("ex44s"), "--word", "1,1"]),
]


def test_repeated_calls_share_the_parser_and_match_the_seed(inputs, tmp_path, monkeypatch):
    """The sequence twice through ``main`` in this process, and once through
    the seed: every call is formatted at its own width and on its own
    streams, and nothing carries over from one call to the next."""
    passes = []
    for n, entry in enumerate((main, main, seed_main)):
        workdir = tmp_path / str(n)
        shutil.copytree(inputs, workdir)
        monkeypatch.chdir(workdir)
        results = []
        for columns, argv in SEQUENCE:
            monkeypatch.setenv("COLUMNS", columns)
            results.append(_run(entry, list(argv), workdir))
        passes.append(results)
    first, second, seed = passes
    assert [code for code, *_ in first] == [2, 0, 0, 0, 1, 0]
    assert first[1][1] != first[2][1]  # the help text follows COLUMNS
    assert second == first
    for n, ((columns, argv), new, old) in enumerate(zip(SEQUENCE, first, seed)):
        if _case_id(argv) in CHANGED:
            assert new[1] == CHANGED[_case_id(argv)][int(columns)]
            new, old = new[:1] + new[2:], old[:1] + old[2:]
        assert new == old, n
