"""The stock factories' ``batch_arrays`` validate each input once and
evaluate each law once, yet stay byte-identical with the public
validating kernels (:mod:`repro.amdahl.batch`, :mod:`repro.dvfs.batch`)
and with the scalar constructors, and reject bad inputs with the same
``ValidationError`` messages."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import repro.amdahl.batch as amdahl_batch
import repro.core.batch as core_batch
import repro.dse.factories as factories
import repro.dvfs.batch as dvfs_batch
from repro.amdahl.asymmetric import AsymmetricMulticore
from repro.amdahl.batch import (
    asymmetric_power,
    asymmetric_speedup,
    asymmetric_valid_mask,
    symmetric_power,
    symmetric_speedup,
)
from repro.amdahl.symmetric import SymmetricMulticore
from repro.core.design import DesignPoint
from repro.core.errors import DomainError, ValidationError
from repro.dse.factories import (
    AsymmetricMulticoreFactory,
    DVFSOperatingPointFactory,
    SymmetricMulticoreFactory,
)
from repro.dvfs.batch import scale_design_arrays
from repro.dvfs.operating_point import DVFSConfig, scale_design

SEED = 20240429
#: Fractions with the edges f = 0 and f = 1 drawn often.
fractions = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)
leakages = st.one_of(
    st.sampled_from([0.0, 0.2, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)
#: Big-core sizes: anywhere, or near N (M = N - 1 leaves one small
#: core; M >= N are the invalid corners).
bigs = st.one_of(
    st.integers(min_value=1, max_value=300),
    st.tuples(st.just("near"), st.integers(min_value=-3, max_value=2)),
)
DESIGN = DesignPoint(name="core", area=1.3, perf=1.7, power=2.1)


def _bytes(arrays, rows=slice(None)) -> tuple[bytes, ...]:
    """The bytes of the area, perf and power columns' *rows*."""
    return tuple(
        np.asarray(column)[rows].tobytes()
        for column in (arrays.area, arrays.perf, arrays.power)
    )


def _scalar_columns(points: list[DesignPoint]) -> tuple[bytes, ...]:
    return tuple(
        np.array([getattr(p, field) for p in points], np.float64).tobytes()
        for field in ("area", "perf", "power")
    )


class TestByteIdentity:
    @seed(SEED)
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(min_value=1, max_value=1024), fractions),
            min_size=1,
            max_size=40,
        ),
        leakage=leakages,
    )
    def test_symmetric(self, rows, leakage):
        cores = np.array([c for c, _ in rows])
        f = np.array([x for _, x in rows])
        arrays = SymmetricMulticoreFactory(leakage=leakage).batch_arrays(
            {"cores": cores, "f": f}
        )
        assert arrays.valid.all()
        public = (
            cores.astype(np.float64).tobytes(),
            symmetric_speedup(cores, f).tobytes(),
            symmetric_power(cores, f, leakage).tobytes(),
        )
        assert _bytes(arrays) == public
        scalar = [
            SymmetricMulticore(int(c), float(x), leakage).design_point()
            for c, x in rows
        ]
        assert _bytes(arrays) == _scalar_columns(scalar)

    @seed(SEED)
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(min_value=2, max_value=300), bigs, fractions),
            min_size=1,
            max_size=40,
        ),
        leakage=leakages,
    )
    def test_asymmetric_with_invalid_corners(self, rows, leakage):
        rows = [
            (n, max(1, n + m[1]) if isinstance(m, tuple) else m, f)
            for n, m, f in rows
        ]
        n, m, f = (np.array(column) for column in zip(*rows))
        arrays = AsymmetricMulticoreFactory(leakage=leakage).batch_arrays(
            {"n": n, "m": m, "f": f}
        )
        valid = asymmetric_valid_mask(n, m)
        assert arrays.valid.tobytes() == valid.tobytes()
        assert arrays.area.tobytes() == n.astype(np.float64).tobytes()
        assert (arrays.perf[~valid] == 1.0).all()
        assert (arrays.power[~valid] == 1.0).all()
        n, m, f = n[valid], m[valid], f[valid]
        assert _bytes(arrays, valid)[1:] == (
            asymmetric_speedup(n, m, f).tobytes(),
            asymmetric_power(n, m, f, leakage).tobytes(),
        )
        scalar = []
        for row, ok in zip(rows, valid.tolist()):
            if ok:
                model = AsymmetricMulticore(*row, leakage=leakage)
                scalar.append(model.design_point())
            else:
                with pytest.raises(DomainError):
                    AsymmetricMulticore(*row, leakage=leakage)
        assert _bytes(arrays, valid) == _scalar_columns(scalar)

    def test_asymmetric_pinned_axes(self):
        n = np.array([2, 3, 8, 64, 64])
        factory = AsymmetricMulticoreFactory(big_core_bces=1, parallel_fraction=0.9)
        arrays = factory.batch_arrays({"n": n})
        scalar = [AsymmetricMulticore(int(x), 1, 0.9).design_point() for x in n]
        assert _bytes(arrays) == _scalar_columns(scalar)

    @seed(SEED)
    @settings(max_examples=40, deadline=None)
    @given(
        multipliers=st.lists(
            st.floats(min_value=0.01, max_value=4.0), min_size=1, max_size=40
        ),
        leakage_fraction=st.floats(min_value=0.0, max_value=1.0),
        regulator=st.booleans(),
    )
    def test_dvfs(self, multipliers, leakage_fraction, regulator):
        config = DVFSConfig(leakage_fraction=leakage_fraction)
        factory = DVFSOperatingPointFactory(
            DESIGN, config, include_regulator_area=regulator
        )
        s = np.array(multipliers)
        arrays = factory.batch_arrays({"s": s})
        public = scale_design_arrays(
            DESIGN, s, config, include_regulator_area=regulator
        )
        assert _bytes(arrays) == tuple(column.tobytes() for column in public)
        scalar = [
            scale_design(DESIGN, x, config, include_regulator_area=regulator)
            for x in multipliers
        ]
        assert _bytes(arrays) == _scalar_columns(scalar)


def _message(factory, **columns) -> str:
    with pytest.raises(ValidationError) as caught:
        factory.batch_arrays({k: np.asarray(v) for k, v in columns.items()})
    return str(caught.value)


def _got(value: float) -> str:
    return repr(np.float64(value))


class TestValidationMessages:
    """Bad inputs raise the public kernels' messages, unchanged: the
    first bad input in the scalar constructors' order, named with the
    flat index of its first offender."""

    def test_symmetric(self):
        sym = SymmetricMulticoreFactory()
        assert (
            _message(sym, cores=[True], f=[0.5])
            == "cores must be integers, got booleans"
        )
        assert _message(sym, cores=[2, 3], f=[0.5, np.nan]) == (
            f"parallel_fraction must lie in [0, 1], got {_got(np.nan)} "
            "(flat index 1)"
        )
        assert _message(sym, cores=[4, 0], f=[2.0, 0.5]) == (
            f"cores must be an integer >= 1, got {_got(0.0)} (flat index 1)"
        )
        assert _message(
            SymmetricMulticoreFactory(leakage=1.5), cores=[2], f=[0.5]
        ) == f"leakage must lie in [0, 1], got {_got(1.5)} (flat index 0)"

    def test_asymmetric(self):
        asym = AsymmetricMulticoreFactory()
        assert (
            _message(asym, n=[4], m=[True], f=[0.5])
            == "big_core_bces must be integers, got booleans"
        )
        assert _message(asym, n=[4], m=[1], f=[np.nan]) == (
            f"parallel_fraction must lie in [0, 1], got {_got(np.nan)} "
            "(flat index 0)"
        )
        assert _message(asym, n=[1], m=[1], f=[0.5]) == (
            f"total_bces must be an integer >= 2, got {_got(1.0)} (flat index 0)"
        )
        bad = AsymmetricMulticoreFactory(leakage=-0.1)
        assert _message(bad, n=[4], m=[1], f=[0.5]) == (
            f"leakage must lie in [0, 1], got {_got(-0.1)} (flat index 0)"
        )
        # Like the scalar constructor, which raises DomainError for
        # M >= N before it checks leakage: no valid row, no check.
        arrays = bad.batch_arrays(
            {"n": np.array([4]), "m": np.array([5]), "f": np.array([0.5])}
        )
        assert not arrays.valid.any()

    def test_dvfs(self):
        assert _message(DVFSOperatingPointFactory(DESIGN), s=[1.0, 0.0]) == (
            f"freq_multipliers must be > 0 and finite, got {_got(0.0)} "
            "(flat index 1)"
        )


@pytest.fixture
def checks(monkeypatch):
    """Counts ``ensure_*`` calls by input name, wherever the kernels
    and factories look them up."""
    calls: Counter = Counter()

    def counting(check):
        def wrapper(values, *args):
            calls[args[-1]] += 1
            return check(values, *args)

        return wrapper

    for name in (
        "ensure_int_at_least_array",
        "ensure_fraction_array",
        "ensure_positive_array",
    ):
        check = counting(getattr(core_batch, name))
        for module in (amdahl_batch, dvfs_batch, factories):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, check)
    return calls


class TestOneValidationPerInput:
    def test_symmetric(self, checks):
        SymmetricMulticoreFactory().batch_arrays(
            {"cores": np.arange(1, 9), "f": np.linspace(0, 1, 8)}
        )
        assert checks == {"cores": 1, "parallel_fraction": 1, "leakage": 1}

    def test_asymmetric(self, checks):
        AsymmetricMulticoreFactory().batch_arrays(
            {"n": np.array([2, 4, 8]), "m": np.array([1, 3, 2]), "f": np.full(3, 0.9)}
        )
        assert checks == {
            "total_bces": 1,
            "big_core_bces": 1,
            "parallel_fraction": 1,
            "leakage": 1,
        }

    def test_dvfs(self, checks):
        DVFSOperatingPointFactory(DESIGN).batch_arrays({"s": np.linspace(0.5, 2, 8)})
        assert checks == {"freq_multipliers": 1}

    def test_public_kernels(self, checks):
        cores, f = np.arange(1, 9), np.linspace(0, 1, 8)
        symmetric_power(cores, f, 0.2)
        assert checks == {"cores": 1, "parallel_fraction": 1, "leakage": 1}
        checks.clear()
        asymmetric_power(cores + 1, np.ones(8), f, 0.2)
        assert checks == {
            "total_bces": 1,
            "big_core_bces": 1,
            "parallel_fraction": 1,
            "leakage": 1,
        }
        checks.clear()
        scale_design_arrays(DESIGN, np.linspace(0.5, 2, 8))
        assert checks == {"freq_multipliers": 1}
