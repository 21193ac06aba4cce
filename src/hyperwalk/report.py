"""The one report type every pass/fail check returns, and the one rule that
picks a scan's worst case and decides whether it passes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Report:
    """Outcome of one check over a scan of cases.

    ``max_residual`` is the worst residual of the scan and ``witness`` the
    first case attaining it (None when no residual is positive); a residual
    scan passes when its worst residual is within ``tolerance``.  The graph
    checks and the unit-support axiom are pass/fail rules on counts and
    signs: they report the residual at their witness instead.  ``checked``
    and ``skipped`` count the cases scanned and those left out because they
    need rows beyond a truncation.  ``note`` says what was checked, or why
    the check failed.
    """

    check: str
    passed: bool
    max_residual: float
    witness: tuple | None
    tolerance: float
    checked: int
    skipped: int = 0
    note: str = ""

    @property
    def checked_cases(self) -> int:
        """``checked`` under the name the benchmark reads."""
        return self.checked

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = (
            f"{self.check}: {status}  max residual {self.max_residual:.3e} "
            f"(tol {self.tolerance:.1e}), {self.checked} checked"
        )
        if self.skipped:
            out += f", {self.skipped} skipped"
        if self.witness is not None:
            out += f", witness {self.witness}"
        if self.note:
            out += f" [{self.note}]"
        return out


def worst_residual(residuals) -> tuple[float, int | None]:
    """The largest residual and the flat index of its first occurrence.

    A non-finite residual outranks every finite one, so NaN or inf never
    passes a tolerance test.  An empty input gives (-1.0, None).
    """
    flat = np.ravel(residuals)
    if flat.size == 0:
        return -1.0, None
    bad = ~np.isfinite(flat)
    idx = int(np.argmax(bad)) if bad.any() else int(np.argmax(flat))
    return float(flat[idx]), idx


def worst_case(residuals, witness: Callable[[int], tuple]) -> tuple[float, tuple | None]:
    """The worst of a scan's ``residuals`` (0.0 when there are none) and the
    case ``witness(n)`` at the flat index n of its first occurrence, or None
    when no residual is positive."""
    worst, n = worst_residual(residuals)
    if n is None:
        return 0.0, None
    return worst, None if worst == 0 else witness(n)


def scan_report(
    check: str,
    residuals,
    witness: Callable[[int], tuple],
    tolerance: float,
    checked: int | None = None,
    skipped: int = 0,
    note: str = "",
) -> Report:
    """The report of a scan with one row of ``residuals`` per case, in scan
    order; ``witness`` is as for ``worst_case`` and ``checked`` defaults to
    the number of rows."""
    worst, case = worst_case(residuals, witness)
    checked = len(residuals) if checked is None else checked
    return Report(check, worst <= tolerance, worst, case, tolerance, checked, skipped, note)
