"""Differential tests of the dense ``StructureTensor`` against the frozen
dict-of-``Fraction`` tensor layer in ``tests/reference/tensor_loops.py``.

- Sphere-count constants of the 17 named and 400 random graphs of
  ``test_graph_differential.py``: equal ``rows`` views, values and types
  (every frozen constant is a ``Fraction``), or the same refusal.
- Tensors built from the entries of every preset, from documents mixing
  ints, floats and fractions, and from denominators past 2**63: equal
  values, each an exact tensor's constant as a ``Fraction`` and a float
  tensor's as a float (the frozen layer kept the type each value was given
  in), and the same refusals with the same messages.  Produced float
  tensors: the same radius, support and value types, and values within
  1e-15.
- On each of them and on its float copy: ``validate_hypergroup``,
  ``derive_involution``, ``multi_constants``/``fold_step`` and
  ``tensor_difference`` give the frozen layer's result bit for bit, or its
  refusal with the same message.
"""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

import hyperwalk as hw
from hyperwalk import formats, hypergroups, presets
from hyperwalk.hypergroups import fold_step
from reference import tensor_loops as ref
from test_graph_differential import SHAPES, random_graph


def _outcome(fn, *args, **kwargs):
    """The result, or the type and message of the refusal."""
    try:
        return fn(*args, **kwargs)
    except (hw.HyperwalkError, ValueError, IndexError) as exc:
        return type(exc), str(exc)


def _view(tensor, kind=None):
    """A tensor's size, radius and rows with each value as (type, value);
    ``kind`` converts each value first.  A refusal passes through."""
    if isinstance(tensor, tuple):
        return tensor
    convert = kind or (lambda v: v)
    return tensor.size, tensor.truncation_radius, {
        pair: {k: (type(convert(v)), convert(v)) for k, v in row.items()}
        for pair, row in tensor.rows.items()
    }


def _expected_view(old):
    """The frozen tensor's rows as the dense tensor holds them: an exact
    value as a ``Fraction``, any other as a float."""
    if isinstance(old, tuple):
        return old
    return _view(old, Fraction if old.is_exact else float)


def _typed(vec):
    return repr([(type(v), v) for v in vec]) if isinstance(vec, list) else repr(vec)


def _words(tensor, max_len):
    return [w for n in range(1, max_len + 1)
            for w in itertools.product(range(tensor.size), repeat=n)]


def _assert_same_algebra(new, old, max_len=2):
    """validate_hypergroup, derive_involution, multi_constants, fold_step and
    tensor_difference on the tensor and on its float copy."""
    for a, b in ((new, old), (new.to_float(), old.to_float())):
        assert _view(a) == _view(b, float if not b.is_exact else Fraction)
        for partial in (False, True):
            assert _outcome(hw.derive_involution, a, partial=partial) == \
                _outcome(ref.derive_involution, b, partial=partial)
        sigmas = {tuple(range(a.size))}
        derived = _outcome(ref.derive_involution, b, partial=False)
        if isinstance(derived, tuple) and not isinstance(derived[0], type):
            sigmas.add(derived)
        for sigma in sigmas:
            assert repr(_outcome(hw.validate_hypergroup, a, sigma)) == \
                repr(_outcome(ref.validate_hypergroup, b, sigma))
        for word in _words(a, max_len):
            folded = _outcome(hw.multi_constants, a, word)
            assert _typed(folded) == _typed(_outcome(ref.multi_constants, b, word)), word
            if not a.is_exact and isinstance(folded, list):
                for k in range(a.size):
                    step = _outcome(fold_step, a, folded, k)
                    expected = _outcome(ref.fold_step, b, folded, k)
                    if isinstance(step, np.ndarray):
                        step = step.tolist()
                        assert [type(v) for v in step] == [float] * a.size
                        expected = [float(v) for v in expected]
                    assert repr(step) == repr(expected), (word, k)
    assert repr(_outcome(hw.tensor_difference, new, new.to_float())) == \
        repr(_outcome(ref.tensor_difference, old, old.to_float()))


# ---------------------------------------------------------------------------
# Sphere-count constants.


def _assert_same_graph_tensor(graph):
    table = hw.build_spheres(graph)
    new = _outcome(hw.wildberger_tensor, table)
    old = _outcome(ref._sphere_count_tensor, table)
    assert _view(new) == _view(old)
    if not isinstance(new, tuple):
        assert all(type(v) is Fraction for row in new.rows.values() for v in row.values())
        _assert_same_algebra(new, old)


@pytest.mark.parametrize("graph", SHAPES, ids=lambda g: f"n{g.n_vertices}-base{g.base}")
def test_graph_tensor_matches_frozen_layer(graph):
    _assert_same_graph_tensor(graph)


@pytest.mark.parametrize("seed", range(400))
def test_random_graph_tensor_matches_frozen_layer(seed):
    _assert_same_graph_tensor(random_graph(seed))


@pytest.mark.parametrize("seed", [2, 28, 31])
def test_large_tree_tensor_matches_frozen_layer(seed):
    # Random trees on 200 to 400 vertices: the lcm of their sphere sizes
    # brings the common denominator past 2**63.
    rng = random.Random(seed)
    n = rng.randint(200, 400)
    edges = sorted({tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)})
    graph = hw.pointed_graph([str(v) for v in range(n)], edges, 0)
    _assert_same_graph_tensor(graph)
    assert hw.wildberger_tensor(graph).cube.dtype == object


# ---------------------------------------------------------------------------
# Tensors built from entries.


def _assert_same_entries(size, entries, truncation_radius=None):
    entries = list(entries)
    new = _outcome(hw.structure_tensor, size, entries, truncation_radius)
    old = _outcome(ref.structure_tensor, size, entries, truncation_radius)
    assert _view(new) == _expected_view(old)
    if not isinstance(new, tuple):
        assert new.is_exact == old.is_exact
        _assert_same_algebra(new, old, 3 if size <= 4 else 2)
    return new


PRESET_OPTIONS = {"n": 5, "d": 3, "radius": 4, "generators": 2, "h_dim": 2,
                  "d_size": 3, "site": 0, "x": 0.25}


def _preset_calls():
    """Every preset built with sample options, and the (size, entries,
    radius) of each ``structure_tensor`` call it makes."""
    calls, built = [], {}
    real = hypergroups.structure_tensor

    def record(size, entries, truncation_radius=None):
        calls.append((size, list(entries), truncation_radius))
        return real(size, calls[-1][1], truncation_radius)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(presets, "structure_tensor", record)
        patch.setattr(hypergroups, "structure_tensor", record)
        for name, (build, options) in presets.FIXTURES.items():
            built[name] = build(*(PRESET_OPTIONS[o] for o in options))
    return calls, built


def test_every_tensor_preset_matches_frozen_layer():
    calls, built = _preset_calls()
    tensors = [b for b in built.values() if isinstance(b, (hw.Hypergroup, hw.StructureTensor))]
    assert len(calls) == len(tensors) == 8
    for size, entries, radius in calls:
        _assert_same_entries(size, entries, radius)
    for graph in (b for b in built.values() if isinstance(b, hw.PointedGraph)):
        _assert_same_graph_tensor(graph)


def _produced_cases():
    cases = [(presets.c4_qubit_family(), presets.diagonal_qubit_state(0.25)),
             (presets.stationary_family(), presets.stationary_start_state()),
             (presets.zwindow_family(3, 2), None)]
    cases += [(hw.random_kraus_family(d, h, seed=d + h), None) for d, h in ((3, 1), (3, 2), (4, 2))]
    for hypergroup in (presets.c4_hypergroup(), presets.zlattice_hypergroup(4),
                       presets.s3_class_hypergroup()):
        cases.append((hw.realize(hypergroup, h_dim=2,
                                 isometries=hw.verify.random_isometries(hypergroup.tensor, 2, 1))[0],
                      None))
    return [(f, s or hw.maximally_mixed_state(f.h_dim, f.d_size)) for f, s in cases]


@pytest.mark.parametrize("case", range(9))
def test_produced_tensor_matches_frozen_layer(case):
    """The one-step masses round unlike the frozen two-step walk: values
    within 1e-15, with the radius, the support and the value types exact.
    The algebra is compared bit for bit on a library tensor built from the
    frozen rows."""
    family, state = _produced_cases()[case]
    new, old = hw.produced_tensor(family, state), ref.produced_tensor(family, state)
    size, radius, rows = _view(new)
    assert not new.is_exact and (size, radius) == _view(old)[:2]
    old_rows = _view(old)[2]
    assert {pair: {k: t for k, (t, _) in row.items()} for pair, row in rows.items()} == \
        {pair: {k: t for k, (t, _) in row.items()} for pair, row in old_rows.items()}
    assert max(abs(v - old_rows[pair][k][1]) for pair, row in rows.items()
               for k, (_, v) in row.items()) <= 1e-15
    entries = [(i, j, k, v) for (i, j), row in old.rows.items() for k, v in row.items()]
    _assert_same_algebra(hw.structure_tensor(size, entries, radius), old)


MIXED = [
    # ints with floats, in document order
    [[0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1], [1, 0, 1, 1], [2, 0, 2, 1],
     [1, 1, 0, 0.5], [1, 1, 2, 0.5], [1, 2, 1, 1], [2, 1, 1, 1.0], [2, 2, 0, 1]],
    # fractions, ints and floats, with a repeated entry and a dropped zero
    [[0, 0, 0, 1], [0, 1, 1, "1"], [0, 2, 2, 1.0], [1, 0, 1, 1], [2, 0, 2, 1],
     [1, 1, 0, "1/4"], [1, 1, 0, 0.25], [1, 1, 2, 0.5], [1, 2, 1, 1], [2, 1, 1, 1],
     [2, 2, 0, "3/5"], [2, 2, 0, "2/5"], [2, 2, 1, 0.0]],
    # the exact c4 constants tilted by a float, so the product is not associative
    [[0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1], [1, 0, 1, 1], [2, 0, 2, 1],
     [1, 1, 0, 0.6], [1, 1, 2, "2/5"], [1, 2, 1, 1], [2, 1, 1, 1], [2, 2, 0, 1]],
]


@pytest.mark.parametrize("entries", MIXED, ids=range(len(MIXED)))
def test_mixed_document_matches_frozen_layer(entries):
    text = json.dumps({"kind": "tensor", "version": formats.FORMAT_VERSION, "size": 3,
                       "entries": entries})
    decoded = [(i, j, k, formats.decode_value(raw)) for i, j, k, raw in entries]
    new = _assert_same_entries(3, decoded)
    assert _view(formats.parse_tensor(text)) == _view(new)


def _random_entries(seed, denominators):
    """A random size-4 tensor: unit rows at index 0 and random rows over
    denominators drawn from ``denominators``."""
    rng = random.Random(seed)
    size = 4
    entries = [(i, 0, i, Fraction(1)) for i in range(size)]
    entries += [(0, j, j, 1) for j in range(1, size)]
    for i, j in itertools.product(range(1, size), repeat=2):
        den = rng.choice(denominators)
        cuts = sorted(rng.randrange(1, den) for _ in range(size - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
        entries += [(i, j, k, Fraction(p, den)) for k, p in enumerate(parts)]
    return size, entries


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("denominators, dtype", [
    (range(2, 12), np.int64),
    ((2**31 - 1,), np.int64),  # products of two numerators pass 2**53
    ((2**63 - 25,), np.int64),  # numerators and row sums just below 2**63
    ((2**61 - 1, 2**89 - 1), object),  # common denominators past 2**63
], ids=["small", "2**31", "2**63", "past-2**63"])
def test_denominators_match_frozen_layer(seed, denominators, dtype):
    new = _assert_same_entries(*_random_entries(seed, denominators))
    assert new.cube.dtype == dtype


REFUSALS = [
    (0, [], None),
    (2, [(0, 0, 2, 1)], None),
    (2, [(1, 1, 0, 1)], 1),
    (2, [(0, 0, 0, 1)], -1),
    (2, [(0, 0, 0, 1)], True),
    (1, [(0, 0, 0, Fraction(-1, 2)), (0, 0, 0, Fraction(3, 2))], None),
    (1, [(0, 0, 0, -0.5), (0, 0, 0, 1.5)], None),
    (1, [(0, 0, 0, float("nan"))], None),
    (1, [(0, 0, 0, float("-inf"))], None),
    (2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], None),
    (2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 0.0)], None),
    (2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, Fraction(2, 3))], None),
    (2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 0.75), (1, 1, 0, 1)], None),
    (1, [(0, 0, 0, Fraction(10**30 + 1, 10**30))], None),
    (1, [(0, 0, 0, 1 + 1e-12), (0, 0, 0, -1e-12)], None),
    (3, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (0, 2, 2, 1), (2, 0, 2, 1),
         (1, 1, 2, 1)], 2),
]


@pytest.mark.parametrize("size, entries, radius", REFUSALS, ids=range(len(REFUSALS)))
def test_refusals_and_edge_rows_match_frozen_layer(size, entries, radius):
    _assert_same_entries(size, entries, radius)


@pytest.mark.parametrize("kind", [np.float16, np.float32, np.float64, np.longdouble, float])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_constant_of_any_type_is_refused(kind, value):
    with pytest.raises(ValueError, match=r"non-finite constant at \(0, 0, 0\)"):
        hw.structure_tensor(1, [(0, 0, 0, kind(value))])
    with pytest.raises(ValueError, match=r"non-finite constant at \(1, 1, 0\)"):
        hw.structure_tensor(2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
                                (1, 1, 0, kind(0.5)), (1, 1, 0, kind(value))])


C4 = [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (1, 0, 1, 1), (2, 0, 2, 1),
      (1, 1, 0, Fraction(1, 2)), (1, 1, 2, Fraction(1, 2)), (1, 2, 1, 1), (2, 1, 1, 1),
      (2, 2, 0, 1)]


NAN, INF = float("nan"), float("inf")


# C4's involution is the identity, so the unit-support rule wants Q[i,j,0] > 0
# exactly when j == i.
@pytest.mark.parametrize("changes, witness", [
    ({(1, 1, 2): NAN}, None),
    ({(1, 2, 1): INF}, None),
    ({(1, 1, 0): NAN}, (1, 1)),  # NaN where j = sigma(i)
    ({(1, 2, 0): INF}, (1, 2)),  # inf where j != sigma(i)
    ({(1, 2, 0): 0.25, (2, 1, 0): 0.5}, (2, 1)),  # the larger bad value second
    ({(1, 2, 0): 0.5, (2, 1, 0): 0.5}, (1, 2)),  # a tie: the first
    ({(1, 1, 0): NAN, (2, 1, 0): INF}, (1, 1)),  # NaN first: the NaN
    ({(1, 2, 0): 0.25, (2, 2, 0): NAN}, (1, 2)),  # a later NaN: the finite one
], ids=("at0-nan", "at1-inf", "nan-unit", "inf-unit", "larger-second", "tie", "nan-first",
        "nan-second"))
def test_bad_constant_in_the_cube_matches_frozen_layer(changes, witness):
    # NaN, inf or stray constants set directly in a tensor, past the
    # constructor's checks.
    c4, old_c4 = hw.structure_tensor(3, C4), ref.structure_tensor(3, C4)
    cube = c4.to_float().cube.copy()
    rows = {pair: dict(row) for pair, row in old_c4.rows.items()}
    for at, value in changes.items():
        cube[at] = value
        rows[at[:2]][at[2]] = value
    new, old = hw.StructureTensor(cube), ref.StructureTensor(3, rows)
    with np.errstate(invalid="ignore"):  # inf - inf in the associativity products
        report = hw.validate_hypergroup(new, (0, 1, 2))
        assert repr(report) == repr(ref.validate_hypergroup(old, (0, 1, 2)))
    assert report.check("unit-support").witness == witness
    assert repr(hw.tensor_difference(new, c4)) == repr(ref.tensor_difference(old, old_c4))
    for word in _words(new, 3):
        assert repr(hw.multi_constants(new, word)) == repr(ref.multi_constants(old, word))
