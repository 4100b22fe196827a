"""The float-range contract.

Raw input: every public entry that takes arrays checks each of them in
one gate, so a NaN or an infinite entry raises ValueError and a wrong
number of axes DimensionMismatch, whichever array it is in.

Derived matrices, as properties over inputs scaled by 2^k: inputs are
small integer matrices, PSD ones as G G^T, times 2^k with |k| <= 500, so
every input is exact and finite while products of three of them pass the
float range either way.  Every call either returns a result with no NaN
anywhere in it, or raises a PsdOrderError subclass: never a bare
ValueError, and never a numpy warning on the way.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psdorder import (
    DimensionMismatch,
    LinearModel,
    MatrixMap,
    MinusMethod,
    PsdMatrix,
    PsdOrderError,
    Relation,
    SymMatrix,
    blue_check,
    congruence_map,
    estimator_covariance,
    fit_congruence,
    inertia,
    lowner_leq,
    mc_quadratic_forms,
    minus_leq,
    model_compare,
    order_holds_many,
    order_leq,
    preserves_order,
    probe_inputs,
    projector_fixed_point_suite,
    qform_rank_criterion,
    sim_congruence,
    star_family_leq,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_PROPERTY = settings(derandomize=True, database=None, max_examples=50, deadline=None)

# the ends of the range are drawn often, where the products leave it
_EXPONENTS = st.one_of(st.sampled_from([-500, 500]), st.integers(-500, 500))


@st.composite
def _scaled(draw, rows, cols):
    entries = draw(st.lists(st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols))
    return 2.0 ** draw(_EXPONENTS) * np.array(entries, dtype=float).reshape(rows, cols)


@st.composite
def _psd(draw, n):
    g = draw(_scaled(n, n))
    return g @ g.T


_E1, _I = np.diag([1.0, 0.0]), np.eye(2)
_S = np.array([[1.0, 1.0], [0.0, 1.0]])
_X = np.array([[1.0], [0.0]])
_MODEL = LinearModel(_X, _I)
# probe samples of A -> S A S^T, then one more sample
_GIVEN = np.array([*probe_inputs(2), _I])
_OUTPUTS = _S @ _GIVEN @ _S.T

# every public entry that takes arrays from its caller: a call with those
# arrays as its arguments, and valid values of them
_RAW_ENTRIES = {
    "lowner_leq": (lowner_leq, _E1, _I),
    **{f"minus_leq/{m.value}": (lambda a, b, m=m: minus_leq(a, b, method=m), _E1, _I) for m in MinusMethod},
    "star_family_leq": (star_family_leq, _E1, _I),
    "order_leq": (lambda a, b: order_leq(a, b, Relation.LOWNER), _E1, _I),
    "order_holds_many": (lambda a, b: order_holds_many(a, b, Relation.MINUS), _E1[None], _I[None]),
    "sim_congruence": (sim_congruence, _E1, _I),
    "inertia": (inertia, _I),
    "SymMatrix": (SymMatrix, _I),
    "PsdMatrix": (PsdMatrix, _I),
    "LinearModel": (LinearModel, _X, _I),
    "model_compare": (lambda x, d: model_compare(LinearModel(x, d), _MODEL), _X, _I),
    "blue_check": (lambda l, x, d: blue_check(l, LinearModel(x, d)), _E1, _X, _I),
    "estimator_covariance": (lambda l: estimator_covariance(l, _MODEL), _E1),
    "qform_rank_criterion": (lambda a, v, mu: qform_rank_criterion([a], v, mu), _E1, _I, np.zeros(2)),
    "mc_quadratic_forms": (lambda a, v, mu: mc_quadratic_forms([a], v, mu, 8, 0), _E1, _I, np.zeros(2)),
    "congruence_map": (congruence_map, _S),
    "MatrixMap.apply": (lambda a: MatrixMap.trace_inflation().apply(a), _I[None]),
    "fit_congruence": (lambda given, outputs: fit_congruence(zip(given, outputs)), _GIVEN, _OUTPUTS),
}
# the argument that is the mean, read as a flat vector whatever its axes
_FLAT = {"qform_rank_criterion": 2, "mc_quadratic_forms": 2}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", _RAW_ENTRIES)
def test_every_raw_array_passes_one_gate(name):
    call, *args = _RAW_ENTRIES[name]
    call(*args)  # the valid arguments are accepted
    for i, arg in enumerate(args):
        for bad in (np.nan, np.inf, -np.inf):
            poisoned = arg.copy()
            poisoned.flat[-1] = bad
            with pytest.raises(ValueError, match="finite"):
                call(*args[:i], poisoned, *args[i + 1:])
        if _FLAT.get(name) != i:
            with pytest.raises(DimensionMismatch):
                call(*args[:i], arg[None], *args[i + 1:])


def _floats(obj):
    """Every float array and float of a result, through dataclasses,
    dicts, lists and tuples."""
    if isinstance(obj, SymMatrix):
        obj = obj.a
    if isinstance(obj, (float, np.ndarray)):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _floats(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _floats(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _floats(value)


def _holds_contract(call, *args):
    """call(*args) returns a result free of NaN, or raises PsdOrderError."""
    try:
        result = call(*args)
    except PsdOrderError:
        return
    assert not any(np.isnan(np.asarray(x, dtype=float)).any() for x in _floats(result))


@_PROPERTY
@given(st.data(), st.integers(1, 3), st.integers(1, 2))
def test_model_compare_keeps_the_float_range_contract(data, n, p):
    # X is scaled twice over, so X X^T spans 2^+-2000
    def call():
        models = [LinearModel(2.0 ** data.draw(_EXPONENTS) * data.draw(_scaled(n, p)), data.draw(_psd(n)))
                  for _ in range(2)]
        return model_compare(*models)

    _holds_contract(call)


@_PROPERTY
@given(st.data(), st.integers(1, 3), st.integers(1, 2), _EXPONENTS)
def test_blue_check_keeps_the_float_range_contract(data, n, p, k):
    model = LinearModel(data.draw(_scaled(n, p)), data.draw(_psd(n)), sigma2=2.0 ** k)
    _holds_contract(blue_check, data.draw(_scaled(n, n)), model)


@_PROPERTY
@given(st.data(), st.integers(1, 3), st.integers(1, 2))
def test_quadratic_forms_keep_the_float_range_contract(data, n, k):
    forms = [data.draw(_psd(n)) for _ in range(k)]
    v, mu = data.draw(_psd(n)), data.draw(_scaled(n, 1))[:, 0]
    _holds_contract(qform_rank_criterion, forms, v, mu)
    _holds_contract(mc_quadratic_forms, forms, v, mu, 64, 0)


@_PROPERTY
@given(st.data(), st.integers(2, 3), st.sampled_from(list(Relation)))
def test_a_scaled_congruence_keeps_the_float_range_contract(data, n, relation):
    # S itself is scaled twice over, so S A S^T spans 2^+-2000
    s = 2.0 ** data.draw(_EXPONENTS) * data.draw(_scaled(n, n))
    _holds_contract(lambda: preserves_order(congruence_map(s), relation, n, trials=8))
    _holds_contract(lambda: projector_fixed_point_suite(congruence_map(s), n, trials=8))


@_PROPERTY
@given(st.data(), st.integers(1, 3))
def test_fit_congruence_keeps_the_float_range_contract(data, n):
    s = data.draw(_scaled(n, n))
    samples = [(x, s @ x @ s.T) for x in probe_inputs(n)]
    samples.append((data.draw(_psd(n)), data.draw(_psd(n))))
    _holds_contract(fit_congruence, samples)


@_PROPERTY
@given(st.data(), st.integers(1, 3))
def test_sim_congruence_keeps_the_float_range_contract(data, n):
    _holds_contract(sim_congruence, data.draw(_psd(n)), data.draw(_psd(n)))
