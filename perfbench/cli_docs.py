"""Workload cli-docs: the file-by-file command-line route.

Every subcommand runs in-process through ``hyperwalk.cli.main(argv)`` and
reads and writes real JSON files under .bench_out/.  Fixtures are small
ones from ``gen``; failing verifications expect exit 1 and a fixed corpus of
malformed documents expects exit 2.  Library ``serialize_*(parse_*(text))``
round trips of the same documents put writes beside reads.

With d this small, per-call overhead, parsing and validation dominate.  The
seed picks the graph relabelling, the isometry seeds, the walk words and the
command order; it never changes the amount of work.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from hyperwalk import formats
from hyperwalk.cli import main as cli_main
from core import Op, shuffled
from oracles import (
    EXIT_CODES,
    cycle_constants,
    doc_rows,
    fold_from_unit,
    line_constants,
    max_gap,
    max_row_difference,
)

NAME = "cli-docs"
TAIL_CAP = 95.0
TOL = 1e-9

# name -> (gen arguments, document kind)
FIXTURES = {
    "c4": (["c4"], "graph"),
    "q3": (["q3"], "graph"),
    "p3": (["p3"], "graph"),
    "free-ball": (["free-ball", "--generators", "2", "--radius", "3"], "graph"),
    "z-window": (["z-window", "--radius", "6"], "graph"),
    "c4-hypergroup": (["c4-hypergroup"], "hypergroup"),
    "s3-classes": (["s3-classes"], "hypergroup"),
    "z-lattice-6": (["z-lattice", "--radius", "6"], "hypergroup"),
    "z-lattice-12": (["z-lattice", "--radius", "12"], "hypergroup"),
    "lo2": (["lo2"], "tensor"),
    "c4-perturbed": (["c4-perturbed"], "tensor"),
    "ex44": (["ex44"], "kraus"),
    "ex44-state": (["ex44-state", "--x", "0.5"], "state"),
    "ex45": (["ex45", "--radius", "6"], "kraus"),
    "ex55": (["ex55"], "kraus"),
    "ex55-state": (["ex55-state"], "state"),
    "ex56": (["ex56"], "kraus"),
}

PARSERS = {
    "graph": (formats.parse_graph, formats.serialize_graph),
    "hypergroup": (formats.parse_hypergroup, formats.serialize_hypergroup),
    "tensor": (formats.parse_tensor, formats.serialize_tensor),
    "kraus": (formats.parse_kraus, formats.serialize_kraus),
    "state": (formats.parse_state, formats.serialize_state),
}


def run_cli(argv) -> tuple[int, str, str]:
    """``cli.main(argv)`` with captured output; argparse exits become codes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expected: int
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    check: object = None  # callable() -> list of failures, run on exit 0

    @property
    def name(self) -> str:
        return self.argv[0]


def run_command(cmd: Command, call) -> list[str]:
    def counts(result):
        written = sum(_size(p) for p in cmd.outputs) if result[0] == 0 else 0
        return {
            "formats.bytes_read": sum(_size(p) for p in cmd.inputs),
            "formats.bytes_written": written,
        }

    try:
        code, _out, err = call(f"cli.{cmd.name}", run_cli, list(cmd.argv),
                               refused=lambda r: r[0] == 2 == cmd.expected, counts=counts)
    except Exception as exc:  # the documented interface is exit codes
        return [f"exit: expected {cmd.expected}, raised {type(exc).__name__}: {exc}"]
    if code != cmd.expected:
        return [f"exit: expected {cmd.expected}, got {code}"]
    if code == 2 and not err.strip():
        return ["message: exit 2 without an error message"]
    if code == 0 and cmd.check is not None:
        return cmd.check()
    return []


def run_roundtrip(kind: str, text: str, call) -> list[str]:
    parse, serialize = PARSERS[kind]
    obj = call(f"formats.parse_{kind}", parse, text,
               counts=lambda r: {"formats.bytes_read": len(text)})
    back = call(f"formats.serialize_{kind}", serialize, obj,
                counts=lambda r: {"formats.bytes_written": len(r)})
    # The formats promise: exact values survive unchanged and floats
    # round-trip through repr, so a written document reads back to itself.
    return [] if back == text else [f"roundtrip: {kind} document changed"]


# ---------------------------------------------------------------------------
# Output checks, using the json module only.


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _kind_is(path, kind):
    def check():
        return [] if _load(path).get("kind") == kind else [f"kind: {path} is not a {kind}"]
    return check


def _rows_match(path, expected, exact):
    def check():
        doc = _load(path)
        if exact:
            got = {}
            for i, j, k, raw in doc["entries"]:
                got.setdefault((i, j), {})[k] = Fraction(raw)
            return [] if got == expected else ["constants: not the closed form"]
        return [] if max_row_difference(doc_rows(doc), expected) <= TOL else ["constants"]
    return check


def _matrix(raw) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in raw])


def _realized(kraus_path, state_path):
    """Completeness sum_i B^*B = 1 per (j, k), and a unit-trace state."""
    def check():
        doc = _load(kraus_path)
        d, h = doc["d_size"], doc["h_dim"]
        sums = {}
        for block in doc["blocks"]:
            m = _matrix(block["matrix"])
            key = (block["j"], block["k"])
            sums[key] = sums.get(key, 0) + m.conj().T @ m
        fails = []
        eye = np.eye(h)
        if len(sums) != d * d or any(np.abs(s - eye).max() > 1e-8 for s in sums.values()):
            fails.append("completeness")
        trace = sum(np.trace(_matrix(b)).real for b in _load(state_path)["blocks"])
        if abs(trace - 1.0) > TOL:
            fails.append("state-trace")
        return fails
    return check


def _distribution(path, expected):
    def check():
        got = _load(path)["distribution"]
        return [] if max_gap(got, expected) <= TOL else [f"distribution: {got}"]
    return check


# ---------------------------------------------------------------------------
# The malformed corpus: (name, document kind, edit of a valid document).


_DROP = object()


def _edit(**changes):
    def apply(doc):
        doc = copy.deepcopy(doc)
        for key, value in changes.items():
            if value is _DROP:
                doc.pop(key)
            else:
                doc[key] = value
        return doc
    return apply


def _entries(fn):
    def apply(doc):
        doc = copy.deepcopy(doc)
        doc["entries"] = fn(doc["entries"])
        return doc
    return apply


def _blocks(fn):
    def apply(doc):
        doc = copy.deepcopy(doc)
        doc["blocks"] = fn(doc["blocks"])
        return doc
    return apply


def _set_value(entry_key, value):
    return _entries(lambda es: [e[:3] + [value] if e[:3] == entry_key else e for e in es])


MALFORMED = [
    # Graphs, fed to check-graph (base document: c4).
    ("graph-not-object", "graph", lambda d: [1, 2]),
    ("graph-kind", "graph", _edit(kind="tensor")),
    ("graph-version", "graph", _edit(version="9")),
    ("graph-no-vertices", "graph", _edit(vertices=_DROP)),
    ("graph-short-edge", "graph", lambda d: _edit(edges=d["edges"] + [["0"]])(d)),
    ("graph-unknown-vertex", "graph", lambda d: _edit(edges=d["edges"] + [["0", "zz"]])(d)),
    ("graph-bad-base", "graph", _edit(base="zz")),
    ("graph-loop", "graph", lambda d: _edit(edges=d["edges"] + [["1", "1"]])(d)),
    ("graph-duplicate-edge", "graph", lambda d: _edit(edges=d["edges"] + [d["edges"][0]])(d)),
    ("graph-disconnected", "graph", _edit(vertices=["0", "1", "2", "3"], edges=[["0", "1"], ["2", "3"]])),
    ("graph-duplicate-label", "graph", _edit(vertices=["0", "1", "2", "2"])),
    # Tensors, fed to validate (base document: c4-hypergroup).
    ("tensor-size-string", "tensor", _edit(size="3")),
    ("tensor-size-zero", "tensor", _edit(size=0)),
    ("tensor-no-entries", "tensor", _edit(entries=_DROP)),
    ("tensor-short-entry", "tensor", _entries(lambda es: es + [[0, 0, 0]])),
    ("tensor-float-index", "tensor", _entries(lambda es: [[0.0, 0, 0, 1]] + es[1:])),
    ("tensor-bad-fraction", "tensor", _set_value([1, 1, 0], "a/b")),
    ("tensor-zero-denominator", "tensor", _set_value([1, 1, 0], "1/0")),
    ("tensor-negative", "tensor", _set_value([1, 1, 0], -0.5)),
    ("tensor-row-sum", "tensor", _set_value([1, 1, 0], "3/5")),
    ("tensor-index-range", "tensor", _entries(lambda es: es + [[0, 0, 7, 0]])),
    ("tensor-boolean", "tensor", _set_value([0, 0, 0], True)),
    ("tensor-missing-row", "tensor", _entries(lambda es: [e for e in es if e[:2] != [2, 2]])),
    # Kraus families, fed to walk with the ex44 state (base document: ex44).
    ("kraus-size-string", "kraus", _edit(d_size="3")),
    ("kraus-bad-matrix", "kraus", _blocks(lambda bs: [dict(bs[0], matrix="x")] + bs[1:])),
    ("kraus-duplicate-block", "kraus", _blocks(lambda bs: bs + [bs[0]])),
    ("kraus-missing-index", "kraus", _blocks(lambda bs: [{"i": 0, "j": 0, "matrix": bs[0]["matrix"]}] + bs[1:])),
    ("kraus-non-square", "kraus", _blocks(lambda bs: [dict(bs[0], matrix=bs[0]["matrix"][:1])] + bs[1:])),
    ("kraus-index-range", "kraus", _blocks(lambda bs: [dict(bs[0], i=7)] + bs[1:])),
    ("kraus-block-shape", "kraus", _blocks(lambda bs: [dict(bs[0], matrix=[[[1.0, 0.0]]])] + bs[1:])),
    # States, fed to walk with the ex44 family (base document: ex44-state).
    ("state-trace", "state", _blocks(lambda bs: [[[[re / 2, im / 2] for re, im in row] for row in b] for b in bs])),
    ("state-not-hermitian", "state", _blocks(lambda bs: [[[[0.5, 0.0], [0.5, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]] + bs[1:])),
    ("state-negative", "state", _blocks(lambda bs: [[[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.2, 0.0]]]] + bs[1:])),
    ("state-h-dim", "state", _edit(h_dim=3)),
    ("state-no-blocks", "state", _edit(blocks=[])),
    ("state-positions", "state", _blocks(lambda bs: bs[:2])),
]

MALFORMED_BASE = {"graph": "c4", "tensor": "c4-hypergroup", "kraus": "ex44", "state": "ex44-state"}


class Workload:
    name = NAME
    tail_cap = TAIL_CAP

    def __init__(self, seed: int, root: str):
        self.seed = seed
        rng = random.Random(seed)
        self.dir = os.path.join(root, ".bench_out", f"cli-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        for sub in ("in", "out", "gen"):
            os.makedirs(os.path.join(self.dir, sub))
        p = self.path

        for name, (args, _kind) in FIXTURES.items():
            code, _, err = run_cli(["gen", *args, "--out", p("in", name)])
            if code != 0:
                raise RuntimeError(f"gen {name} failed at set-up: {err}")
        self._write_relabelled(rng)
        self._write_p4_at_1()
        self._write_defect_inputs()
        for name, h in (("c4-hypergroup", 2), ("s3-classes", 2)):
            code, _, err = run_cli([
                "realize", "--tensor", p("in", name), "--h-dim", str(h),
                "--random-isometries", "--seed", str(rng.randrange(1000)),
                "--out-kraus", p("in", f"{name}.kraus"), "--out-state", p("in", f"{name}.state"),
            ])
            if code != 0:
                raise RuntimeError(f"realize {name} failed at set-up: {err}")
        self.malformed = []
        for mname, kind, edit in MALFORMED:
            doc = edit(_load(p("in", MALFORMED_BASE[kind])))
            with open(p("in", mname), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.malformed.append((mname, kind))
        with open(p("in", "graph-json"), "w", encoding="utf-8") as fh:
            fh.write("{broken")
        self.malformed.append(("graph-json", "graph"))

        self.words = [tuple(rng.randrange(3) for _ in range(n)) for n in (1, 2, 3)]
        self.ops = self._commands(rng.randrange(1000)) + self._roundtrips()

    def path(self, sub, name):
        return os.path.join(self.dir, sub, f"{name}.json")

    def _write_relabelled(self, rng):
        doc = _load(self.path("in", "q3"))
        labels = list(doc["vertices"])
        rng.shuffle(labels)
        rename = dict(zip(doc["vertices"], (f"u{label}" for label in labels)))
        doc["vertices"] = [rename[v] for v in doc["vertices"]]
        doc["edges"] = [[rename[a], rename[b]] for a, b in doc["edges"]]
        rng.shuffle(doc["edges"])
        doc["base"] = rename[rng.choice(list(rename))]  # Q3 is vertex-transitive
        with open(self.path("in", "q3-relabelled"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def _write_p4_at_1(self):
        # The 4-path based at its second vertex: constants compute but fail
        # associativity, a verification failure (exit 1).
        doc = {"kind": "graph", "version": "1", "vertices": ["0", "1", "2", "3"],
               "edges": [["0", "1"], ["1", "2"], ["2", "3"]], "base": "1"}
        with open(self.path("in", "p4-at-1"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def _write_defect_inputs(self):
        doc = _load(self.path("in", "c4-hypergroup"))
        doc = _set_value([1, 2, 1], float("nan"))(doc)
        with open(self.path("in", "tensor-nan"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)  # json writes the bare token NaN
        doc = _load(self.path("in", "z-window"))
        doc["window_radius"] = "x"
        with open(self.path("in", "graph-window-x"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def _commands(self, realize_seed) -> list[Op]:
        p = self.path
        ops = []

        def add(argv, expected, inputs=(), outputs=(), check=None, defect=None, label=None):
            argv = [str(a) for a in argv]
            if expected not in EXIT_CODES[argv[0]]:
                raise ValueError(f"{argv[0]} never exits with {expected}")
            cmd = Command(tuple(argv), expected, tuple(inputs), tuple(outputs), check)
            ops.append(Op(label or " ".join(argv[:2]), partial(run_command, cmd),
                          defect=defect, defect_checks=frozenset({"exit"})))

        for name, (args, kind) in FIXTURES.items():
            out = p("gen", name)
            add(["gen", *args, "--out", out], 0, outputs=[out], check=_kind_is(out, kind),
                label=f"gen {name}")

        def graph_cmd(cmd, name, expected, **kw):
            add([cmd, "--graph", p("in", name), *kw.pop("extra", [])], expected,
                inputs=[p("in", name)], label=f"{cmd} {name}", **kw)

        for name, expected, closed in (
            ("c4", 0, cycle_constants(4)), ("q3", 0, None), ("q3-relabelled", 0, None),
            ("free-ball", 0, None), ("z-window", 0, line_constants(6)),
            ("p4-at-1", 1, None), ("p3", 2, None),
        ):
            out = p("out", f"{name}.gh")
            check = _rows_match(out, closed, exact=True) if closed else _kind_is(out, "hypergroup")
            graph_cmd("graph-hypergroup", name, expected, extra=["--out", out],
                      outputs=[out], check=check)
        for name, expected in (("c4", 0), ("q3", 0), ("q3-relabelled", 0), ("free-ball", 0),
                               ("z-window", 0), ("p3", 1)):
            graph_cmd("check-graph", name, expected)
        for name, expected in (("c4", 0), ("q3-relabelled", 0), ("z-window", 0),
                               ("free-ball", 0), ("p3", 2)):
            graph_cmd("verify-t24", name, expected)
        graph_cmd("verify-t24", "c4", 0, extra=["--mode", "float"])
        graph_cmd("verify-t24", "c4", 2, extra=["--mode", "fuzzy"])

        def tensor_cmd(cmd, name, expected, extra=(), **kw):
            add([cmd, "--tensor", p("in", name), *extra], expected,
                inputs=[p("in", name)], label=f"{cmd} {name}", **kw)

        for name, expected in (("s3-classes", 0), ("c4-hypergroup", 0), ("z-lattice-6", 0),
                               ("z-lattice-12", 0), ("c4-perturbed", 1), ("lo2", 2)):
            tensor_cmd("validate", name, expected)
        tensor_cmd("validate", "c4-hypergroup", 0, extra=["--involution", "0,1,2"])
        tensor_cmd("validate", "c4-hypergroup", 2, extra=["--involution", "0,2"])
        for name, expected in (("c4-hypergroup", 0), ("s3-classes", 0),
                               ("c4-perturbed", 2), ("z-lattice-6", 2)):
            tensor_cmd("verify-c26", name, expected)

        for name, h in (("c4-hypergroup", 2), ("s3-classes", 1), ("z-lattice-6", 1)):
            kraus, state = p("out", f"{name}.kraus"), p("out", f"{name}.state")
            tensor_cmd("realize", name, 0,
                       extra=["--h-dim", h, "--random-isometries", "--seed", realize_seed,
                              "--out-kraus", kraus, "--out-state", state],
                       outputs=[kraus, state], check=_realized(kraus, state))

        c4k, c4s = p("in", "c4-hypergroup.kraus"), p("in", "c4-hypergroup.state")
        s3k = p("in", "s3-classes.kraus")

        def walk(kraus, state, word, expected, check_expected=None, defect=None, label=None):
            out = p("out", "walk")
            add(["walk", "--kraus", kraus, "--state", state, "--word", word, "--json",
                 "--out", out], expected, inputs=[kraus, state], outputs=[out],
                check=_distribution(out, check_expected) if check_expected else None,
                defect=defect, label=label or f"walk {word}")

        # Example 4.4 of the paper: the qubit walk on the 4-cycle distances.
        walk(p("in", "ex44"), p("in", "ex44-state"), "1,1", 0, [0.5, 0.0, 0.5])
        # Every map of the stationary family is the same: one step decides.
        walk(p("in", "ex55"), p("in", "ex55-state"), "1,0,1", 0, [5 / 12, 7 / 12])
        for word in self.words:
            text = ",".join(map(str, word))
            walk(c4k, c4s, text, 0, fold_from_unit(cycle_constants(4), 3, word))
        walk(c4k, c4s, "1,x", 2, label="walk bad-word")
        walk(c4k, c4s, "5", 2, defect="walk-letter-range", label="walk letter-out-of-range")
        walk(p("in", "missing"), c4s, "1", 2, label="walk missing-file")

        for kraus, state, closed in ((c4k, c4s, cycle_constants(4)),
                                     (p("in", "ex56"), p("in", "ex55-state"), None)):
            out = p("out", "produced")
            check = (_rows_match(out, closed, exact=False) if closed
                     else _kind_is(out, "tensor"))
            add(["produce", "--kraus", kraus, "--state", state, "--out", out], 0,
                inputs=[kraus, state], outputs=[out], check=check,
                label=f"produce {os.path.basename(kraus)}")

        def pair_cmd(cmd, kraus, tensor, expected, extra=(), defect=None):
            add([cmd, "--kraus", kraus, "--tensor", p("in", tensor), *extra], expected,
                inputs=[kraus, p("in", tensor)], defect=defect,
                label=f"{cmd} {os.path.basename(kraus)} {tensor}")

        t51 = ["--max-len", "2", "--states", "2"]
        for cmd, extra in (("verify-hb", ()), ("verify-t51", t51)):
            pair_cmd(cmd, p("in", "ex56"), "lo2", 0, extra)
            pair_cmd(cmd, s3k, "s3-classes", 0, extra)
        pair_cmd("verify-hb", c4k, "c4-perturbed", 1)
        pair_cmd("verify-hb", p("in", "ex45"), "z-lattice-6", 0)
        # Theorem 5.1's converse: a failed identity shows in a distribution.
        pair_cmd("verify-t51", c4k, "c4-perturbed", 0, t51)
        pair_cmd("verify-t51", p("in", "ex45"), "z-lattice-6", 0, t51, defect="t51-truncated")

        for name, kind in self.malformed:
            bad = p("in", name)
            if kind == "graph":
                add(["check-graph", "--graph", bad], 2, inputs=[bad], label=f"check-graph {name}")
            elif kind == "tensor":
                add(["validate", "--tensor", bad], 2, inputs=[bad], label=f"validate {name}")
            elif kind == "kraus":
                walk(bad, p("in", "ex44-state"), "1", 2, label=f"walk {name}")
            else:
                walk(p("in", "ex44"), bad, "1", 2, label=f"walk {name}")
        tensor_cmd("validate", "tensor-nan", 2, defect="nan-validate")
        graph_cmd("check-graph", "graph-window-x", 2, defect="window-radius-type")
        return ops

    def _roundtrips(self) -> list[Op]:
        ops = []
        for name, (_args, kind) in FIXTURES.items():
            with open(self.path("in", name), encoding="utf-8") as fh:
                text = fh.read()
            ops.append(Op(f"roundtrip {name}", partial(run_roundtrip, kind, text)))
        with open(self.path("in", "c4-hypergroup.kraus"), encoding="utf-8") as fh:
            ops.append(Op("roundtrip realized kraus", partial(run_roundtrip, "kraus", fh.read())))
        return ops

    def round(self, r: int) -> list[Op]:
        return shuffled(self.ops, self.seed, r)

    def warmup(self) -> list[Op]:
        return self.ops

    def descriptors(self) -> list[dict]:
        out = []
        for name, (_args, kind) in FIXTURES.items():
            doc = _load(self.path("in", name))
            entry = {"fixture": name, "kind": kind, "bytes": _size(self.path("in", name))}
            if kind == "graph":
                entry["vertices"] = len(doc["vertices"])
            elif kind in ("tensor", "hypergroup"):
                entry["d"] = doc["size"]
                entry["truncated"] = "truncation_radius" in doc
            elif kind == "kraus":
                d = doc["d_size"]
                entry.update(d=d, h_dim=doc["h_dim"],
                             nonzero_block_share=round(len(doc["blocks"]) / d**3, 4),
                             truncated="truncation_radius" in doc)
            out.append(entry)
        commands = {}
        for op in self.ops:
            head = op.label.split(" ", 1)[0]
            commands[head] = commands.get(head, 0) + 1
        out.append({"operations_per_round": commands,
                    "malformed_documents": len(self.malformed)})
        return out

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
