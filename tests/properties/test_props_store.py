"""Property-based store reuse: whatever chunking, worker count or grid
slicing the writer and reader pick, a store round-trip is bit-exact and
the reader evaluates exactly the points the writer never stored — with
the point-key semantics of the string keys the store's key columns
replace, on axes of any mix of value types."""

from __future__ import annotations

import math
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.design import DesignPoint
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse.batch import BatchExplorer
from repro.dse.factories import SymmetricMulticoreFactory
from repro.dse.grid import ParameterGrid, linear_range
from repro.dse.store import ResultStore, point_store_key
from repro.resilience.checkpoint import point_key

BASELINE = DesignPoint.baseline("1-BCE single core")
FRACTIONS = linear_range(0.5, 0.99, 6)


def _explorer(chunk_size: int) -> BatchExplorer:
    return BatchExplorer(
        factory=SymmetricMulticoreFactory(),
        baseline=BASELINE,
        weight=EMBODIED_DOMINATED,
        chunk_size=chunk_size,
    )


def _grid(cores: list[int]) -> ParameterGrid:
    return ParameterGrid({"cores": [float(c) for c in cores], "f": FRACTIONS})


@settings(max_examples=20, deadline=None)
@given(
    writer_chunk=st.integers(min_value=1, max_value=40),
    reader_chunk=st.integers(min_value=1, max_value=40),
    cores=st.lists(
        st.integers(min_value=1, max_value=64),
        min_size=1,
        max_size=8,
        unique=True,
    ),
)
def test_reader_chunking_never_changes_results(
    writer_chunk, reader_chunk, cores
):
    grid = _grid(cores)
    with tempfile.TemporaryDirectory() as root:
        cold = _explorer(writer_chunk).explore_arrays(
            grid, store=ResultStore(root)
        )
        reader = _explorer(reader_chunk)
        warm = reader.explore_arrays(grid, store=ResultStore(root))
        engine = reader.last_sweep
        assert engine.fresh_points == 0
        assert engine.store_points == len(grid)
        assert warm.designs == cold.designs
        assert warm.perf.tobytes() == cold.perf.tobytes()
        assert warm.ncf_fixed_work.tobytes() == cold.ncf_fixed_work.tobytes()
        assert warm.ncf_fixed_time.tobytes() == cold.ncf_fixed_time.tobytes()


@settings(max_examples=15, deadline=None)
@given(
    writer_chunk=st.integers(min_value=1, max_value=40),
    reader_chunk=st.integers(min_value=1, max_value=40),
    stored_cores=st.lists(
        st.integers(min_value=1, max_value=64),
        min_size=1,
        max_size=6,
        unique=True,
    ),
    swept_cores=st.lists(
        st.integers(min_value=1, max_value=64),
        min_size=1,
        max_size=6,
        unique=True,
    ),
)
def test_delta_sweep_evaluates_exactly_the_new_points(
    writer_chunk, reader_chunk, stored_cores, swept_cores
):
    """Arbitrarily overlapping grids: fresh evaluations == points the
    first sweep never saw, and the union run matches a cold sweep."""
    with tempfile.TemporaryDirectory() as root:
        _explorer(writer_chunk).explore_arrays(
            _grid(stored_cores), store=ResultStore(root)
        )
        swept = _grid(swept_cores)
        reader = _explorer(reader_chunk)
        delta = reader.explore_arrays(swept, store=ResultStore(root))
        new_cores = set(swept_cores) - set(stored_cores)
        assert reader.last_sweep.fresh_points == len(new_cores) * len(
            FRACTIONS
        )
        cold = _explorer(writer_chunk).explore_arrays(swept)
        assert delta.designs == cold.designs
        assert delta.ncf_fixed_work.tobytes() == cold.ncf_fixed_work.tobytes()
        assert delta.ncf_fixed_time.tobytes() == cold.ncf_fixed_time.tobytes()


@given(
    params=st.dictionaries(
        st.sampled_from(["cores", "f", "mode", "flag", "none"]),
        st.one_of(
            st.booleans(),
            st.integers(min_value=-10, max_value=10),
            st.floats(allow_nan=False),
            st.text(max_size=8),
            st.none(),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_point_keys_are_axis_order_free(params):
    reordered = dict(reversed(list(params.items())))
    assert point_store_key(params) == point_store_key(reordered)


#: Axis values of every type a point key distinguishes: ints in and
#: beyond int64, floats (signed zeros, infinities, NaN, subnormals),
#: bools, None, strings (one holding the key separator) and their NumPy
#: scalar twins.
VALUES = st.one_of(
    st.sampled_from(
        [
            0, 1, 2, -1, 2**63, -(2**63) - 1, 2**64 + 1,
            0.0, -0.0, 1.0, 2.0, 0.5, math.inf, -math.inf, math.nan,
            5e-324, -1e-310,
            True, False, None, "", "1", "a\x1eb=i1",
            np.int64(1), np.int64(7), np.float64(0.5), np.float64(-0.0),
            np.float64("nan"), np.bool_(True), np.bool_(False),
        ]
    ),
    st.integers(-4, 4),
    st.floats(width=16),
    st.text(max_size=2),
)
#: One axis: no two values compare equal, so the sweep's cache never
#: folds two rows into one and every row is the store's to serve.
AXIS = st.lists(VALUES, min_size=1, max_size=4, unique_by=lambda value: value)


@dataclass
class KeyedFactory:
    """A plain (scalar) factory whose outcome depends on the point key
    alone; it logs the key of every point it evaluates, outside its
    ``repr``, so every instance has one store fingerprint."""

    calls: list = field(default_factory=list, repr=False, compare=False)

    def __call__(self, params):
        key = point_key(params)
        self.calls.append(key)
        crc = zlib.crc32(key.encode("utf-8", "surrogatepass"))
        return DesignPoint(f"p{crc}", area=1.0 + crc % 997, perf=1.0, power=1.0)


def _keyed_explorer(chunk_size: int) -> BatchExplorer:
    return BatchExplorer(
        factory=KeyedFactory(),
        baseline=BASELINE,
        weight=EMBODIED_DOMINATED,
        chunk_size=chunk_size,
    )


@settings(max_examples=60, deadline=None)
@given(
    first=st.tuples(AXIS, AXIS),
    second=st.tuples(AXIS, AXIS),
    axes=st.integers(1, 2),
    writer_chunk=st.integers(1, 5),
    reader_chunk=st.integers(1, 5),
)
@example(
    first=([1, 2, 3, 4.0], [0.5]), second=([1, 2, 3, 4], [0.5]),
    axes=1, writer_chunk=4, reader_chunk=4,
)
@example(
    first=([-0.0, 1.0], [0.5]), second=([0.0, 1.0], [0.5]),
    axes=1, writer_chunk=2, reader_chunk=1,
)
@example(
    first=([True, 2], [0.5]), second=([1, 2], [0.5]),
    axes=2, writer_chunk=1, reader_chunk=2,
)
def test_store_serves_exactly_the_rows_whose_point_key_it_holds(
    first, second, axes, writer_chunk, reader_chunk
):
    """Sweep grid A into a store, then grid B: a row of B is served
    from the store exactly when its point-key string (the oracle)
    occurs in A — int 4 is not float 4.0, 0.0 is not -0.0, 1 is not
    True — and B's result equals a cold sweep of B."""
    names = ["cores", "f"][:axes]
    grid_a = ParameterGrid(dict(zip(names, first)))
    grid_b = ParameterGrid(dict(zip(names, second)))
    stored = {point_key(params) for params in grid_a}
    unstored = [point_key(p) for p in grid_b if point_key(p) not in stored]
    with tempfile.TemporaryDirectory() as root:
        _keyed_explorer(writer_chunk).explore_arrays(grid_a, store=ResultStore(root))
        reader = _keyed_explorer(reader_chunk)
        warm = reader.explore_arrays(grid_b, store=ResultStore(root))
    assert sorted(reader.factory.calls) == sorted(unstored)
    assert reader.last_sweep.fresh_points == len(unstored)
    assert reader.last_sweep.store_points == len(grid_b) - len(unstored)
    cold = _keyed_explorer(reader_chunk).explore_arrays(grid_b)
    assert warm.designs == cold.designs
    assert warm.perf.tobytes() == cold.perf.tobytes()
    assert warm.ncf_fixed_work.tobytes() == cold.ncf_fixed_work.tobytes()
