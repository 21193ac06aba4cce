import math
from fractions import Fraction

import numpy as np
import pytest

from hyperwalk import (
    AmbiguousInvolutionError,
    Hypergroup,
    HypergroupAxiomError,
    NoCandidateError,
    NotAGroupError,
    NotInvolutiveError,
    StructureTensor,
    TruncationExceededError,
    check_isomorphism,
    derive_involution,
    hypergroup_from_group,
    multi_constants,
    structure_tensor,
    tensor_difference,
    validate_hypergroup,
)
from hyperwalk import presets
from hyperwalk.hypergroups import quotients

HALF = Fraction(1, 2)


def test_structure_tensor_rejects_bad_rows():
    with pytest.raises(ValueError, match="sums to"):
        structure_tensor(2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 0.7)])
    with pytest.raises(ValueError, match="missing"):
        structure_tensor(2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)])
    with pytest.raises(ValueError, match="negative"):
        structure_tensor(1, [(0, 0, 0, -0.5)])
    with pytest.raises(ValueError, match="out of range"):
        structure_tensor(1, [(0, 0, 1, 1)])


def test_structure_tensor_rejects_non_finite_constants():
    # A NaN row sums to NaN, which no tolerance comparison catches.
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-finite constant at"):
            structure_tensor(2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
                                 (1, 1, 0, value), (1, 1, 1, 0.5)])


def test_structure_tensor_checks_truncation_radius():
    for bad in ("x", -1, True, 2.0):
        with pytest.raises(ValueError, match="truncation radius"):
            structure_tensor(1, [(0, 0, 0, 1)], truncation_radius=bad)
    assert structure_tensor(1, [(0, 0, 0, 1)], truncation_radius=0).truncation_radius == 0


def test_c4_axioms_pass(c4):
    report = validate_hypergroup(c4.tensor, c4.involution)
    assert report.passed
    assert report.hermitian
    assert all(check.max_residual == 0.0 for check in report.checks)


def test_group_tensor_is_hypergroup(z3):
    report = validate_hypergroup(z3.tensor, z3.involution)
    assert report.passed
    assert not report.hermitian
    assert z3.involution == (0, 2, 1)


def test_perturbed_c4_fails_associativity_only():
    tensor = presets.perturbed_c4_tensor()
    report = validate_hypergroup(tensor, (0, 1, 2))
    assert not report.passed
    assoc = report.check("associativity")
    assert not assoc.passed
    assert report.check("stochasticity").passed
    assert report.check("unit").passed
    assert report.check("unit-support").passed
    # Recompute the defect at the reported witness by direct expansion.
    i, j, k, l = assoc.witness
    lhs = sum(
        tensor.entry(i, j, m) * tensor.entry(m, k, l) for m in range(3)
    )
    rhs = sum(
        tensor.entry(j, k, m) * tensor.entry(i, m, l) for m in range(3)
    )
    assert abs(float(lhs - rhs)) == pytest.approx(assoc.max_residual)
    assert assoc.max_residual == pytest.approx(0.2)
    with pytest.raises(HypergroupAxiomError):
        Hypergroup.build(tensor)


def test_multi_constants_c4(c4):
    assert multi_constants(c4.tensor, (1, 1)) == [HALF, 0, HALF]
    assert multi_constants(c4.tensor, (2,)) == [0, 0, Fraction(1)]
    # (x1 x1) x1 = x1 on the 4-cycle constants
    assert multi_constants(c4.tensor, (1, 1, 1)) == [0, Fraction(1), 0]


def test_multi_constants_zlattice(zlattice8):
    vec = multi_constants(zlattice8.tensor, (1, 1, 1))
    expected = [0] * 9
    expected[1], expected[3] = Fraction(3, 4), Fraction(1, 4)
    assert vec == expected


def test_multi_constants_fold_consistency(c4, z3):
    # Definitional recursion against direct expansion for words up to 5.
    import itertools

    for h in (c4, z3):
        tensor = h.tensor
        for n in (2, 3, 4, 5):
            for word in itertools.product(range(h.size), repeat=n):
                folded = multi_constants(tensor, word)
                prefix = multi_constants(tensor, word[:-1])
                direct = [
                    sum(prefix[j] * tensor.entry(j, word[-1], m) for j in range(h.size))
                    for m in range(h.size)
                ]
                assert folded == direct
                assert sum(folded) == 1
                assert all(q >= 0 for q in folded)


def test_multi_constants_word_errors(c4):
    with pytest.raises(ValueError):
        multi_constants(c4.tensor, ())
    with pytest.raises(IndexError):
        multi_constants(c4.tensor, (0, 3))


def test_truncation_refuses_out_of_range(zlattice8):
    tensor = zlattice8.tensor
    assert tensor.defined(4, 4)
    assert not tensor.defined(5, 4)
    with pytest.raises(TruncationExceededError):
        tensor.row(5, 4)
    with pytest.raises(TruncationExceededError):
        multi_constants(tensor, (5, 4))
    # Stays within the budget: fine.
    assert sum(multi_constants(tensor, (3, 3, 2))) == 1


def test_derive_involution(c4, z3):
    assert derive_involution(c4.tensor) == (0, 1, 2)
    assert derive_involution(z3.tensor) == (0, 2, 1)


def test_derive_involution_failures():
    no_candidate = structure_tensor(
        2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)]
    )
    with pytest.raises(NoCandidateError):
        derive_involution(no_candidate)

    ambiguous = structure_tensor(
        3,
        [
            (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1),
            (1, 0, 1, 1), (2, 0, 2, 1),
            (1, 1, 0, HALF), (1, 1, 2, HALF),
            (1, 2, 0, HALF), (1, 2, 1, HALF),
            (2, 1, 1, 1), (2, 2, 0, 1),
        ],
    )
    with pytest.raises(AmbiguousInvolutionError):
        derive_involution(ambiguous)

    cycle = structure_tensor(
        4,
        [
            (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1),
            (1, 0, 1, 1), (2, 0, 2, 1), (3, 0, 3, 1),
            (1, 2, 0, 1), (2, 3, 0, 1), (3, 1, 0, 1),
            (1, 1, 1, 1), (1, 3, 1, 1),
            (2, 1, 1, 1), (2, 2, 1, 1),
            (3, 2, 1, 1), (3, 3, 1, 1),
        ],
    )
    with pytest.raises(NotInvolutiveError):
        derive_involution(cycle)


def test_derive_involution_partial_on_truncation(zlattice8):
    partial = derive_involution(zlattice8.tensor, partial=True)
    for i, s in enumerate(partial):
        if 2 * i <= 8:
            assert s == i
        else:
            assert s is None


def test_hypergroup_from_group_fixtures():
    z2 = presets.z2_hypergroup()
    assert z2.hermitian
    assert multi_constants(z2.tensor, (1, 1)) == [Fraction(1), 0]

    s3 = presets.s3_hypergroup()
    assert s3.size == 6
    assert not s3.hermitian
    # Transpositions are self-inverse, the two 3-cycles swap.
    assert s3.involution == (0, 1, 2, 4, 3, 5)


def test_hypergroup_from_group_rejects_non_groups():
    with pytest.raises(NotAGroupError, match="identity"):
        hypergroup_from_group([[1, 0], [0, 1]])
    with pytest.raises(NotAGroupError, match="permutation"):
        hypergroup_from_group([[0, 1, 2], [1, 0, 0], [2, 0, 1]])
    with pytest.raises(NotAGroupError, match="square"):
        hypergroup_from_group([[0, 1]])
    with pytest.raises(NotAGroupError, match="inverse table"):
        hypergroup_from_group(presets.cyclic_group_table(3), inverse_table=[0, 1, 2])


def test_s3_class_constants(s3_classes):
    tensor = s3_classes.tensor
    assert s3_classes.size == 3
    assert s3_classes.hermitian
    assert tensor.dense_row(1, 1) == [Fraction(1, 3), 0, Fraction(2, 3)]
    assert tensor.dense_row(1, 2) == [0, Fraction(1), 0]
    assert tensor.dense_row(2, 2) == [HALF, 0, HALF]


def test_check_isomorphism(c4, z3):
    import itertools

    assert check_isomorphism(c4, c4, (0, 1, 2))
    with pytest.raises(ValueError, match="size mismatch"):
        check_isomorphism(c4, presets.z2_hypergroup(), (0, 1, 2))
    # Same size but incompatible structures: no map works.
    for phi in itertools.permutations(range(3)):
        assert not check_isomorphism(c4, z3, phi)
    # Inversion is an automorphism of the cyclic group algebra.
    assert check_isomorphism(z3, z3, (0, 2, 1))
    # A map not fixing the unit is never an isomorphism.
    assert not check_isomorphism(z3, z3, (1, 0, 2))


def test_validate_rejects_bad_involution(c4):
    with pytest.raises(ValueError, match="permutation"):
        validate_hypergroup(c4.tensor, (0, 1))
    with pytest.raises(ValueError, match="self-inverse"):
        validate_hypergroup(presets.s3_hypergroup().tensor, (1, 2, 0, 3, 4, 5))


def test_nan_constant_never_passes(c4):
    cube = c4.tensor.to_float().cube.copy()
    cube[1, 1, 2] = float("nan")  # set directly, past the constructor's check
    bad = StructureTensor(cube)
    report = validate_hypergroup(bad, c4.involution)
    assert not report.passed
    stochastic = report.check("stochasticity")
    assert not stochastic.passed and math.isnan(stochastic.max_residual)
    assert stochastic.witness == (1, 1)
    residual, witness = tensor_difference(bad, c4.tensor)
    assert math.isnan(residual) and witness == (1, 1, 2)
    with pytest.raises(HypergroupAxiomError, match="stochasticity"):
        Hypergroup.build(bad, c4.involution)


def test_exact_row_sums_are_rounded_once():
    # A repeated k adds up; the row sum is the exact rational, rounded once.
    with pytest.raises(ValueError, match=r"row \(0, 0\) sums to 0\.8333333333333334, not 1"):
        structure_tensor(1, [(0, 0, 0, Fraction(1, 2)), (0, 0, 0, Fraction(1, 3))])
    near = Fraction(10**10 + 1, 10**10)
    tensor = structure_tensor(1, [(0, 0, 0, near)])
    stochastic = validate_hypergroup(tensor, (0,)).check("stochasticity")
    assert stochastic.passed and stochastic.max_residual == abs(float(near) - 1.0) > 0


def test_quotients_read_the_largest_magnitude():
    # A numerator past -2**53 beside small positive ones is still divided
    # exactly and rounded once, as Python's int / int rounds it.
    numerators = np.array([[-(2**60) - 77, 3], [2, 1]])
    assert quotients(numerators, 3).tolist() == [[n / 3 for n in row] for row in numerators.tolist()]
