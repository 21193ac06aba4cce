"""The one report type every check returns, and the worst-case rule every
residual scan reduces through."""

import numpy as np

from hyperwalk import (
    Report,
    check_condition_s,
    check_hb,
    cycle_graph,
    path_graph,
    presets,
    realize,
    validate_hypergroup,
    validate_kraus,
)
from hyperwalk.report import scan_report, worst_residual
from hyperwalk.verify import verify_theorem_2_4, verify_theorem_5_1


def test_worst_residual_rule():
    # Ties go to the first case; a non-finite residual outranks every finite
    # one, and the first non-finite case wins.
    assert worst_residual([0.5, 2.0, 2.0, 1.0]) == (2.0, 1)
    assert worst_residual([0.5, np.inf, np.nan, 9.0]) == (np.inf, 1)
    value, n = worst_residual(np.array([[1.0, 3.0], [np.nan, 2.0]]))
    assert np.isnan(value) and n == 2
    assert worst_residual([]) == (-1.0, None)


def test_scan_report_pass_fail_and_witness():
    report = scan_report("demo", np.zeros(3), lambda n: (n,), 0.0)
    assert report.passed and report.max_residual == 0.0 and report.witness is None
    assert report.checked == report.checked_cases == 3
    report = scan_report("demo", np.array([0.5, np.nan, 1.0]), lambda n: (n,), 1.0)
    assert not report.passed and np.isnan(report.max_residual) and report.witness == (1,)
    empty = scan_report("demo", np.zeros(0), lambda n: (n,), 0.0)
    assert empty.passed and empty.checked == 0 and empty.witness is None


def test_report_text():
    report = Report("demo", False, 0.25, (1, 2), 1e-8, 10, skipped=3, note="why")
    assert str(report) == ("demo: FAIL  max residual 2.500e-01 (tol 1.0e-08), 10 checked, "
                           "3 skipped, witness (1, 2) [why]")
    assert str(Report("demo", True, 0.0, None, 0.0, 4)) == (
        "demo: pass  max residual 0.000e+00 (tol 0.0e+00), 4 checked")


def test_report_text_per_check_family(c4):
    graph = str(check_condition_s(path_graph(3)))
    assert graph.startswith("condition-S: FAIL  max residual 1.000e+00")
    assert graph.endswith("witness ('sphere-size', 1, '0', '1')")

    axioms = str(validate_hypergroup(presets.perturbed_c4_tensor(), (0, 1, 2))).splitlines()
    assert [line.split(":")[0] for line in axioms] == [
        "stochasticity", "unit", "associativity", "star", "unit-support", "hermitian"]
    assert axioms[0] == "stochasticity: pass  max residual 0.000e+00 (tol 1.0e-09), 9 checked"
    assert axioms[2].startswith("associativity: FAIL  max residual 2.000e-01")
    assert axioms[2].endswith("27 checked, witness (1, 1, 2, 0)")
    assert axioms[5] == "hermitian: True"

    family, _ = realize(c4, h_dim=2)
    assert str(validate_kraus(family)).startswith("completeness: pass")
    hb = str(check_hb(family, presets.perturbed_c4_tensor()))
    assert hb.startswith("block-decomposition: FAIL") and "81 checked, witness (" in hb

    paths = str(verify_theorem_2_4(cycle_graph(4), 2))
    assert paths == "paths-vs-fold: pass  max residual 0.000e+00 (tol 0.0e+00), 12 checked [exact]"
    walk = str(verify_theorem_5_1(family, presets.perturbed_c4_tensor(), 2, n_states=2))
    assert walk.startswith("walk-vs-mixture: pass")
    assert walk.endswith("[decomposition fails; converse witness found]")
