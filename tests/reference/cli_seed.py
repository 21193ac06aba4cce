"""Frozen reference copy of the command-line interface before it became
table driven.

Kept unchanged as an oracle for ``tests/test_cli_differential.py``: only
the package-relative imports are made absolute.  Do not edit this file.

Command-line interface.

Thin orchestration over the library: every subcommand parses documents, calls
one or two library operations, and prints either a human-readable summary or,
with --json, a machine document.  Exit codes: 0 success/pass, 1 verification
failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from hyperwalk import formats, presets
from hyperwalk.errors import HyperwalkError
from hyperwalk.graphs import (
    build_spheres,
    check_condition_s,
    check_distance_regular,
    free_ball_graph,
    hypercube_graph,
    line_window_graph,
    path_graph,
    complete_graph,
    cycle_graph,
    wildberger_tensor,
)
from hyperwalk.hypergroups import derive_involution, validate_hypergroup
from hyperwalk.oqrw import (
    check_hb,
    maximally_mixed_state,
    produced_tensor,
    realize,
    validate_kraus,
    walk_distribution,
)
from hyperwalk.verify import (
    random_unitary,
    verify_corollary_2_6,
    verify_theorem_2_4,
    verify_theorem_5_1,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _distribution_lines(probs) -> str:
    lines = [f"{'index':>6}  {'probability':>20}"]
    for i, p in enumerate(probs):
        lines.append(f"{i:>6}  {float(p):>20.15f}")
    return "\n".join(lines) + "\n"


def _parse_word(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        raise HyperwalkError(f"bad word {raw!r}; expected comma-separated integers") from None


# ---------------------------------------------------------------------------
# Fixture generation.


def _gen_document(args) -> str:
    name = args.name
    radius = args.radius
    if name == "c4":
        return formats.serialize_graph(presets.c4_graph())
    if name == "k2":
        return formats.serialize_graph(complete_graph(2))
    if name == "p3":
        return formats.serialize_graph(path_graph(3))
    if name == "q3":
        return formats.serialize_graph(hypercube_graph(3))
    if name == "cycle":
        return formats.serialize_graph(cycle_graph(args.n))
    if name == "complete":
        return formats.serialize_graph(complete_graph(args.n))
    if name == "path":
        return formats.serialize_graph(path_graph(args.n))
    if name == "hypercube":
        return formats.serialize_graph(hypercube_graph(args.d))
    if name == "z-window":
        return formats.serialize_graph(line_window_graph(radius))
    if name == "free-ball":
        return formats.serialize_graph(free_ball_graph(args.generators, radius))
    if name == "c4-hypergroup":
        return formats.serialize_hypergroup(presets.c4_hypergroup())
    if name == "z-lattice":
        return formats.serialize_hypergroup(presets.zlattice_hypergroup(radius))
    if name == "z2":
        return formats.serialize_hypergroup(presets.z2_hypergroup())
    if name == "z3":
        return formats.serialize_hypergroup(presets.z3_hypergroup())
    if name == "s3":
        return formats.serialize_hypergroup(presets.s3_hypergroup())
    if name == "s3-classes":
        return formats.serialize_hypergroup(presets.s3_class_hypergroup())
    if name == "lo2":
        return formats.serialize_tensor(presets.lo2_tensor())
    if name == "c4-perturbed":
        return formats.serialize_tensor(presets.perturbed_c4_tensor())
    if name == "ex44":
        return formats.serialize_kraus(presets.c4_qubit_family())
    if name == "ex44-state":
        return formats.serialize_state(presets.diagonal_qubit_state(args.x))
    if name == "ex45":
        return formats.serialize_kraus(presets.zwindow_family(radius, h_dim=args.h_dim))
    if name == "ex55":
        return formats.serialize_kraus(presets.stationary_family())
    if name == "ex55-state":
        return formats.serialize_state(presets.stationary_start_state())
    if name == "ex56":
        return formats.serialize_kraus(presets.left_zero_family())
    if name == "mixed-state":
        return formats.serialize_state(
            maximally_mixed_state(args.h_dim, args.d_size, args.site)
        )
    raise HyperwalkError(f"unknown fixture {name!r}")


GEN_NAMES = (
    "c4 k2 p3 q3 cycle complete path hypercube z-window free-ball "
    "c4-hypergroup z-lattice z2 z3 s3 s3-classes lo2 c4-perturbed "
    "ex44 ex44-state ex45 ex55 ex55-state ex56 mixed-state"
).split()


def cmd_gen(args) -> int:
    _emit(_gen_document(args), args.out)
    return 0


def cmd_graph_hypergroup(args) -> int:
    graph = formats.parse_graph(_read(args.graph))
    tensor = wildberger_tensor(graph)
    sigma = derive_involution(tensor, partial=True)
    undetermined = [i for i, s in enumerate(sigma) if s is None]
    sigma = tuple(i if s is None else s for i, s in enumerate(sigma))
    report = validate_hypergroup(tensor, sigma)
    doc = formats.serialize_tensor(
        tensor, involution=sigma, kind="hypergroup" if report.passed else "tensor"
    )
    if args.json:
        _emit(doc, args.out)
    else:
        _emit(doc, args.out)
        if undetermined:
            sys.stdout.write(
                f"involution undetermined at {undetermined}; assumed self-inverse\n"
            )
        sys.stdout.write(str(report) + "\n")
    return 0 if report.passed else 1


def cmd_check_graph(args) -> int:
    table = build_spheres(formats.parse_graph(_read(args.graph)))
    s_report = check_condition_s(table)
    dr_report = check_distance_regular(table)
    if args.json:
        _emit(
            formats.report_document(
                "graph-symmetry",
                {
                    "condition_s": s_report,
                    "distance_regular": dr_report,
                    "index_set": list(table.index_set),
                    "passed": s_report.passed,
                },
            ),
            args.out,
        )
    else:
        sys.stdout.write(f"index set: {list(table.index_set)}\n")
        sys.stdout.write(str(s_report) + "\n")
        sys.stdout.write(str(dr_report) + "\n")
    return 0 if s_report.passed else 1


def cmd_validate(args) -> int:
    text = _read(args.tensor)
    tensor = formats.parse_tensor(text)
    if args.involution:
        sigma = _parse_word(args.involution)
    else:
        sigma = formats.stored_involution(text)
        if sigma is None:
            sigma = derive_involution(tensor)
    report = validate_hypergroup(tensor, sigma)
    if args.json:
        _emit(
            formats.report_document(
                "hypergroup-axioms",
                {"passed": report.passed, "hermitian": report.hermitian,
                 "checks": list(report.checks), "involution": list(sigma)},
            ),
            args.out,
        )
    else:
        sys.stdout.write(str(report) + "\n")
    return 0 if report.passed else 1


def cmd_realize(args) -> int:
    tensor = formats.parse_tensor(_read(args.tensor))
    if args.random_isometries:
        rng = np.random.default_rng(args.seed)
        iso = {}
        for k, j in sorted(tensor.defined_pairs()):
            for i in sorted(tensor.row(k, j)):
                iso[(i, j, k)] = random_unitary(args.h_dim, rng)
    else:
        iso = None
    family, state = realize(tensor, h_dim=args.h_dim, isometries=iso)
    report = validate_kraus(family)
    _emit(formats.serialize_kraus(family), args.out_kraus)
    _emit(formats.serialize_state(state), args.out_state)
    if not args.json:
        sys.stdout.write(str(report) + "\n")
    return 0 if report.passed else 1


def cmd_walk(args) -> int:
    family = formats.parse_kraus(_read(args.kraus))
    state = formats.parse_state(_read(args.state))
    word = _parse_word(args.word)
    probs = walk_distribution(family, word, state)
    if args.json:
        _emit(formats.report_document("walk", {"word": list(word),
                                               "distribution": probs}), args.out)
    else:
        array = json.dumps([float(p) for p in probs])
        _emit(_distribution_lines(probs) + array + "\n", args.out)
    return 0


def cmd_produce(args) -> int:
    family = formats.parse_kraus(_read(args.kraus))
    state = formats.parse_state(_read(args.state))
    tensor = produced_tensor(family, state)
    _emit(formats.serialize_tensor(tensor), args.out)
    return 0


def cmd_verify_hb(args) -> int:
    family = formats.parse_kraus(_read(args.kraus))
    tensor = formats.parse_tensor(_read(args.tensor))
    report = check_hb(family, tensor, tol=args.tol)
    if args.json:
        _emit(formats.report_document("block-decomposition", report), args.out)
    else:
        sys.stdout.write(str(report) + "\n")
    return 0 if report.passed else 1


def cmd_verify_t51(args) -> int:
    family = formats.parse_kraus(_read(args.kraus))
    tensor = formats.parse_tensor(_read(args.tensor))
    report = verify_theorem_5_1(
        family,
        tensor,
        max_word_len=args.max_len,
        n_states=args.states,
        seed=args.seed,
        tol=args.tol,
    )
    if args.json:
        _emit(formats.report_document("walk-vs-mixture", report), args.out)
    else:
        sys.stdout.write(str(report) + "\n")
    return 0 if report.passed else 1


def cmd_verify_t24(args) -> int:
    graph = formats.parse_graph(_read(args.graph))
    report = verify_theorem_2_4(graph, max_word_len=args.max_len, mode=args.mode)
    if args.json:
        _emit(formats.report_document("paths-vs-fold", report), args.out)
    else:
        sys.stdout.write(str(report) + "\n")
    return 0 if report.passed else 1


def cmd_verify_c26(args) -> int:
    hypergroup = formats.parse_hypergroup(_read(args.tensor))
    report = verify_corollary_2_6(hypergroup, max_word_len=args.max_len, tol=args.tol)
    if args.json:
        _emit(formats.report_document("transition-products", report), args.out)
    else:
        sys.stdout.write(str(report) + "\n")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperwalk",
        description=(
            "Structure constants from pointed-graph random walks, open quantum "
            "random walks on distance sets, and the checks tying them together."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", help="write the primary output document to this file")
        return p

    p = add("gen", cmd_gen, "emit a named fixture document")
    p.add_argument("name", choices=GEN_NAMES)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("--generators", type=int, default=2)
    p.add_argument("--x", type=float, default=0.5)
    p.add_argument("--h-dim", type=int, default=1)
    p.add_argument("--d-size", type=int, default=2)
    p.add_argument("--site", type=int, default=0)

    p = add("graph-hypergroup", cmd_graph_hypergroup,
            "sphere-count constants of a pointed graph, validated")
    p.add_argument("--graph", required=True)

    p = add("check-graph", cmd_check_graph,
            "sphere-symmetry and distance-regularity checks")
    p.add_argument("--graph", required=True)

    p = add("validate", cmd_validate, "hypergroup axiom report for a tensor")
    p.add_argument("--tensor", required=True)
    p.add_argument("--involution", help="comma-separated permutation, overrides the document")

    p = add("realize", cmd_realize, "build the walk that reproduces a tensor")
    p.add_argument("--tensor", required=True)
    p.add_argument("--h-dim", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random-isometries", action="store_true")
    p.add_argument("--out-kraus", default="realized.kraus.json")
    p.add_argument("--out-state", default="realized.state.json")

    p = add("walk", cmd_walk, "distribution after a word of jumps")
    p.add_argument("--kraus", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--word", required=True)

    p = add("produce", cmd_produce, "two-step constants of a walk")
    p.add_argument("--kraus", required=True)
    p.add_argument("--state", required=True)

    p = add("verify-hb", cmd_verify_hb, "block-decomposition identity check")
    p.add_argument("--kraus", required=True)
    p.add_argument("--tensor", required=True)
    p.add_argument("--tol", type=float, default=1e-8)

    p = add("verify-t51", cmd_verify_t51, "walk vs mixture distributions")
    p.add_argument("--kraus", required=True)
    p.add_argument("--tensor", required=True)
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--states", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)

    p = add("verify-t24", cmd_verify_t24, "path sums vs algebra folds")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")

    p = add("verify-c26", cmd_verify_c26, "transition-matrix products vs folds")
    p.add_argument("--tensor", required=True)
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-12)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HyperwalkError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
