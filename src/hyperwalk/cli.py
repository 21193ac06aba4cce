"""Command-line interface.

Thin orchestration over the library: every subcommand parses documents, calls
one or two library operations, and prints either a human-readable summary or,
with --json, a machine document.  Exit codes: 0 success/pass, 1 verification
failure, 2 input error, 3 out of memory (one line, no traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial

from . import formats, presets
from .errors import HyperwalkError
from .graphs import build_spheres, check_condition_s, check_distance_regular, wildberger_tensor
from .hypergroups import derive_involution, validate_hypergroup
from .oqrw import check_hb, produced_tensor, realize, validate_kraus, walk_distribution
from .verify import (
    random_isometries,
    verify_corollary_2_6,
    verify_theorem_2_4,
    verify_theorem_5_1,
)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish(args, check: str, report, payload=None) -> int:
    """Print the report, or with --json emit it (or ``payload``) as a report
    document named ``check``; the exit code says whether it passed."""
    if args.json:
        _emit(formats.report_document(check, report if payload is None else payload), args.out)
    else:
        sys.stdout.write(f"{report}\n")
    return 0 if report.passed else 1


def _parse_word(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        raise HyperwalkError(f"bad word {raw!r}; expected comma-separated integers") from None


def cmd_gen(args) -> int:
    build, options = presets.FIXTURES[args.name]
    _emit(formats.serialize(build(*(getattr(args, opt) for opt in options))), args.out)
    return 0


def cmd_graph_hypergroup(args, graph) -> int:
    tensor = wildberger_tensor(graph)
    sigma = derive_involution(tensor, partial=True)
    undetermined = [i for i, s in enumerate(sigma) if s is None]
    sigma = tuple(i if s is None else s for i, s in enumerate(sigma))
    report = validate_hypergroup(tensor, sigma)
    kind = "hypergroup" if report.passed else "tensor"
    _emit(formats.serialize_tensor(tensor, involution=sigma, kind=kind), args.out)
    if not args.json:
        if undetermined:
            sys.stdout.write(
                f"involution undetermined at {undetermined}; assumed self-inverse\n"
            )
        sys.stdout.write(f"{report}\n")
    return 0 if report.passed else 1


def cmd_check_graph(args, graph) -> int:
    table = build_spheres(graph)
    s_report = check_condition_s(table)
    dr_report = check_distance_regular(table)
    if args.json:
        payload = {"condition_s": s_report, "distance_regular": dr_report,
                   "index_set": list(table.index_set), "passed": s_report.passed}
        return _finish(args, "graph-symmetry", s_report, payload)
    sys.stdout.write(f"index set: {list(table.index_set)}\n{s_report}\n{dr_report}\n")
    return 0 if s_report.passed else 1


def cmd_validate(args, tensor) -> int:
    tensor, sigma = tensor
    if args.involution:
        sigma = _parse_word(args.involution)
    elif sigma is None:
        sigma = derive_involution(tensor)
    report = validate_hypergroup(tensor, sigma)
    payload = {"passed": report.passed, "hermitian": report.hermitian,
               "checks": list(report.checks), "involution": list(sigma)}
    return _finish(args, "hypergroup-axioms", report, payload)


def cmd_realize(args, tensor) -> int:
    iso = random_isometries(tensor, args.h_dim, args.seed) if args.random_isometries else None
    family, state = realize(tensor, h_dim=args.h_dim, isometries=iso)
    report = validate_kraus(family)
    _emit(formats.serialize_kraus(family), args.out_kraus)
    _emit(formats.serialize_state(state), args.out_state)
    if not args.json:
        sys.stdout.write(f"{report}\n")
    return 0 if report.passed else 1


def cmd_walk(args, kraus, state) -> int:
    word = _parse_word(args.word)
    probs = walk_distribution(kraus, word, state)
    if args.json:
        doc = formats.report_document("walk", {"word": list(word), "distribution": probs})
    else:
        lines = [f"{'index':>6}  {'probability':>20}"]
        lines += [f"{i:>6}  {float(p):>20.15f}" for i, p in enumerate(probs)]
        doc = "\n".join(lines + [json.dumps([float(p) for p in probs])]) + "\n"
    _emit(doc, args.out)
    return 0


def cmd_produce(args, kraus, state) -> int:
    _emit(formats.serialize_tensor(produced_tensor(kraus, state)), args.out)
    return 0


def cmd_verify(check: str, run, keywords: dict[str, str], args, **documents) -> int:
    """A ``VERIFIERS`` command: ``run`` on the documents, in table order, and
    on the options, passed by the keywords ``keywords`` maps them to."""
    options = {keyword: getattr(args, dest) for keyword, dest in keywords.items()}
    return _finish(args, check, run(*documents.values(), **options))


# name -> (help, the report's check name, the library function it runs, the
# documents it reads as in ``build_parser``'s ``add``, its options).  An option
# is (flag, the function's keyword, default) or (flag, keyword, default,
# further ``add_argument`` keywords), typed by its default and listed in --help
# order.
VERIFIERS = {
    "verify-hb": (
        "block-decomposition identity check", "block-decomposition", check_hb,
        {"kraus": formats.parse_kraus, "tensor": formats.parse_tensor},
        (("--tol", "tol", 1e-8),),
    ),
    "verify-t51": (
        "walk vs mixture distributions", "walk-vs-mixture", verify_theorem_5_1,
        {"kraus": formats.parse_kraus, "tensor": formats.parse_tensor},
        (("--max-len", "max_word_len", 4),
         ("--states", "n_states", 10, {"help": "ignored: every state is covered"}),
         ("--seed", "seed", 0, {"help": "ignored: nothing is sampled"}), ("--tol", "tol", 1e-9)),
    ),
    "verify-t24": (
        "path sums vs algebra folds", "paths-vs-fold", verify_theorem_2_4,
        {"graph": formats.parse_graph},
        (("--max-len", "max_word_len", 3),
         ("--mode", "mode", "exact", {"choices": ("exact", "float")})),
    ),
    "verify-c26": (
        "transition-matrix products vs folds", "transition-products", verify_corollary_2_6,
        {"tensor": formats.parse_hypergroup},
        (("--max-len", "max_word_len", 3), ("--tol", "tol", 1e-12)),
    ),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared.

    Parsing leaves it unchanged and returns a fresh namespace each time;
    help, usage and error text are formatted when printed, at the terminal
    width and on the ``sys.stdout``/``sys.stderr`` of that moment.  Callers
    must not add to it.
    """
    parser = argparse.ArgumentParser(
        prog="hyperwalk",
        description=(
            "Structure constants from pointed-graph random walks, open quantum "
            "random walks on distance sets, and the checks tying them together."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, **documents):
        """A subcommand; ``documents`` maps a required --<option> naming a file
        to the parser of its text.  main parses them in this order and passes
        the results to ``fn`` by option name."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn, documents=documents)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", help="write the primary output document to this file")
        for option in documents:
            p.add_argument(f"--{option}", required=True)
        return p

    graph, tensor = formats.parse_graph, formats.parse_tensor
    kraus, state = formats.parse_kraus, formats.parse_state

    p = add("gen", cmd_gen, "emit a named fixture document")
    p.add_argument("name", choices=presets.FIXTURES)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("--generators", type=int, default=2)
    p.add_argument("--x", type=float, default=0.5)
    p.add_argument("--h-dim", type=int, default=1)
    p.add_argument("--d-size", type=int, default=2)
    p.add_argument("--site", type=int, default=0)

    add("graph-hypergroup", cmd_graph_hypergroup,
        "sphere-count constants of a pointed graph, validated", graph=graph)

    add("check-graph", cmd_check_graph,
        "sphere-symmetry and distance-regularity checks", graph=graph)

    p = add("validate", cmd_validate, "hypergroup axiom report for a tensor",
            tensor=formats.tensor_and_involution)
    p.add_argument("--involution", help="comma-separated permutation, overrides the document")

    p = add("realize", cmd_realize, "build the walk that reproduces a tensor", tensor=tensor)
    p.add_argument("--h-dim", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random-isometries", action="store_true")
    p.add_argument("--out-kraus", default="realized.kraus.json")
    p.add_argument("--out-state", default="realized.state.json")

    p = add("walk", cmd_walk, "distribution after a word of jumps", kraus=kraus, state=state)
    p.add_argument("--word", required=True)

    add("produce", cmd_produce, "two-step constants of a walk", kraus=kraus, state=state)

    for name, (help_text, check, run, documents, options) in VERIFIERS.items():
        keywords: dict[str, str] = {}
        p = add(name, partial(cmd_verify, check, run, keywords), help_text, **documents)
        for flag, keyword, default, *extra in options:
            keywords[keyword] = p.add_argument(
                flag, type=type(default), default=default, **(extra[0] if extra else {})
            ).dest

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        documents = {}
        for option, parse in args.documents.items():
            with open(getattr(args, option), "r", encoding="utf-8") as fh:
                documents[option] = parse(fh.read())
        return args.func(args, **documents)
    except (HyperwalkError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:
        sys.stderr.write(f"error: {args.command}: out of memory ({str(exc) or 'no details'})\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
