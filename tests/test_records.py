"""The data classes of the package: every field is read-only, every object
survives a pickle round trip, the spectrum and the perturbation set compare
by identity, and the records compare field by field."""

import math
import pickle

import numpy as np
import pytest

from eigenpert import bounds as bnd
from eigenpert import harness
from eigenpert.rankone import secular_eigenvalues
from eigenpert.symmat import EigenDecomposition, PerturbationSet, Spectrum, SymmetricMatrix

SCAN_GRID = (1e2, 1e4, 1e6, 1e8)


def _examples():
    """One object of each data class, with the names of its fields."""
    spec = Spectrum([4.0, 2.0, 1.0])
    perts = PerturbationSet([[0.3, -0.2, 0.1]])
    inst = harness.gen_instance(3, 1, 1e4, 0)
    records = harness.scan(3, 1, 3, SCAN_GRID, seed=0)
    summary = harness.certify_grid(harness.default_grid(dims=(2,), ms=(1,), lambda1s=(1e2,),
                                                        seeds=(0,)))
    sol_fields = ("values", "deflated", "_slots", "_active", "_la", "_dist", "_scale", "_z_rot",
                  "_rotations")
    return {
        "Spectrum": (spec, ("lambdas",)),
        "PerturbationSet": (perts, ("vectors", "dim")),
        "Instance": (inst, ("spectrum", "perts", "seed", "meta")),
        "SymmetricMatrix": (SymmetricMatrix(np.eye(2)), ("entries",)),
        "EigenDecomposition": (EigenDecomposition([2.0, 1.0], np.eye(2)), ("values", "basis")),
        "SecularSolution": (secular_eigenvalues(spec, perts.vectors[0]), sol_fields),
        "BoundParams": (bnd.BoundParams(perts), ("perts", "d", "m", "v_bound", "v_inf", "cm",
                                                 "c1", "w", "w_psi", "v1_abs")),
        "BoundReport": (harness.certify(inst)[0], ("kind", "entries", "passed", "notes")),
        "GridPoint": (harness.GridPoint(2, 1, 1e2, 0), ("d", "m", "lambda1", "seed")),
        "CertifySummary": (summary, ("n_instances", "n_reports", "failures", "worst_slack")),
        "ScanRecord": (records[0], ("d", "m", "j", "lambda1", "ratio", "observed",
                                    "bound_rankm", "bound_rank1", "seed")),
        "SlopeFit": (harness.fit_slope(records), ("slope", "intercept", "residual_rms", "count")),
    }


CLASSES = list(_examples())


def _same(a, b) -> bool:
    """a and b hold the same data: arrays bit for bit, objects field by field."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if hasattr(a, "__dict__"):
        return _same(vars(a), vars(b))
    return a == b


@pytest.mark.parametrize("name", CLASSES)
def test_fields_are_read_only(name):
    obj, fields = _examples()[name]
    for field in fields:
        value = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is value
    with pytest.raises(AttributeError):
        obj.unknown_field = 1


@pytest.mark.parametrize("name", CLASSES)
def test_pickle_keeps_every_field(name):
    obj, fields = _examples()[name]
    back = pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(back) is type(obj)
    for field in fields:
        assert _same(getattr(back, field), getattr(obj, field)), field


def test_spectrum_and_perturbations_compare_by_identity():
    for make in (lambda: Spectrum([2.0, 1.0]), lambda: PerturbationSet([[0.5, 0.25]])):
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == object.__hash__(a) and len({a, b, a}) == 2


@pytest.mark.parametrize(
    "name, field",
    [("Instance", "seed"), ("GridPoint", "seed"), ("CertifySummary", "n_reports"),
     ("SlopeFit", "count"), ("ScanRecord", "seed")],
)
def test_records_compare_field_by_field(name, field):
    # objects built twice from the same inputs are equal (and hash equal
    # where every field hashes), and one changed field makes them differ
    obj, fields = _examples()[name]
    twin, _ = _examples()[name]
    assert twin is not obj and twin == obj and not twin != obj
    if name != "CertifySummary":  # worst_slack is a dict
        assert hash(twin) == hash(obj)
    values = {f: getattr(obj, f) for f in fields}
    changed = type(obj)(**{**values, field: values[field] + 1})
    assert changed != obj and getattr(changed, field) == values[field] + 1
