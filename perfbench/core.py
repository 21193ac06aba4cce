"""Operations, their outcomes, and the closed loop that times them."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from oracles import KNOWN_DEFECTS


@dataclass(frozen=True)
class Op:
    """One operation of a workload: a pipeline instance or a CLI command.

    ``run(call)`` performs it, making every library call through
    ``call(name, fn, *args, ...)`` (see tracing.Tracer.call), and returns the
    names of the checks that failed, each optionally followed by ": detail".
    ``defect`` names the known defect this operation reproduces and
    ``defect_checks`` the checks that defect makes fail.
    """

    label: str
    run: Callable
    defect: str | None = None
    defect_checks: frozenset = frozenset()

    def __post_init__(self):
        if self.defect is not None and self.defect not in KNOWN_DEFECTS:
            raise ValueError(f"unknown defect id {self.defect!r}")


@dataclass
class Tally:
    """Counts and latencies over the operations of a phase."""

    latencies_s: list = field(default_factory=list)
    by_label: dict = field(default_factory=dict)  # op label -> latencies
    attempted: int = 0
    failed: int = 0
    defects: dict = field(default_factory=dict)  # defect id -> failed ops
    unexpected: list = field(default_factory=list)  # (label, failures)

    def record(self, op: Op, latency_s: float, failures: list[str]) -> None:
        self.latencies_s.append(latency_s)
        self.by_label.setdefault(op.label, []).append(latency_s)
        self.attempted += 1
        if not failures:
            return
        self.failed += 1
        names = {f.split(":", 1)[0] for f in failures}
        if op.defect is not None and names <= op.defect_checks:
            self.defects[op.defect] = self.defects.get(op.defect, 0) + 1
        else:
            self.unexpected.append((op.label, failures))


def execute(op: Op, tracer) -> tuple[float, list[str]]:
    """Run one operation; an unexpected exception is a failure, not an abort."""
    tracer.begin_op()
    start = time.perf_counter()
    try:
        failures = op.run(tracer.call)
    except Exception as exc:  # a failed operation must not end the run
        failures = [f"raised {type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - start
    tracer.end_op()
    return latency, failures


def shuffled(ops, seed: int, round_index: int) -> list[Op]:
    """The seeded instance order of one round."""
    ops = list(ops)
    random.Random(seed * 1_000_003 + round_index).shuffle(ops)
    return ops


def run_rounds(rounds: Callable[[int], list[Op]], seconds: float, tracers, tally: Tally,
               probe):
    """Closed loop, one caller: whole rounds for about ``seconds``.

    Each round runs every operation of the workload once, so every run
    measures the same mix.  Another round starts while it is expected to
    end no later than half a round past ``seconds``.  ``tracers`` lists the
    tracer of each pass in a round (one untraced pass, or an untraced and a
    traced pass over the same operations).  Between operations ``probe``
    (calibrate.SpeedProbe) may time the reference kernel; that time is left
    out of the walls.  Returns the wall time of each pass, per round.
    """
    walls = []
    start = time.perf_counter()
    r = 0
    while True:
        ops = rounds(r)
        per_pass = []
        for tracer in tracers:
            t0, probe_before = time.perf_counter(), probe.spent_s
            for op in ops:
                latency, failures = execute(op, tracer)
                tally.record(op, latency, failures)
                probe.maybe_sample()
            per_pass.append(time.perf_counter() - t0 - (probe.spent_s - probe_before))
        walls.append(per_pass)
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / r / 2 > seconds:
            return walls
