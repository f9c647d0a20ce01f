"""Differential oracle: the cache-blocked sparse build against the slab
build it replaced (``tests/propagation/sparse_reference.py``).

Every case compares the five build arrays byte for byte — ``indptr``,
``rows``, ``vals``, ``culled_in_sum`` and ``culled_out_max`` — with the
floats compared through their int64 bit patterns, so even a changed sign
of zero or a last-ulp drift in the culled-in sum is a mismatch.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.propagation import sparse
from repro.propagation.geometry import Placement, uniform_disk
from repro.propagation.models import (
    AttenuatedFreeSpace,
    FreeSpace,
    ObstructedUrban,
    PathLossExponent,
)
from repro.propagation.sparse import SparseGainField
from tests.propagation.sparse_reference import (
    byte_mismatches,
    reference_from_placement,
)

MODELS = {
    "free_space": FreeSpace(near_field_clamp=1e-6),
    "path_loss": PathLossExponent(exponent=3.5),
    "attenuated": AttenuatedFreeSpace(epsilon=0.002),
    "obstructed": ObstructedUrban(shadowing_db=6.0, seed=5),
}
CHUNKS = (1, 7, 128)
#: 4 models x 3 chunk sizes x 50 cases = 600 differential cases.
CASES_PER_CELL = 50
#: Sizes every cell covers: the smallest scene and both sides of the
#: default row tile; the rest are drawn log-uniformly from [2, 1500].
EDGE_COUNTS = (2, 511, 512, 513, 1500)


def _draw_case(rng, model, index):
    """One grid case: (placement, cull_gain, horizon_m)."""
    if index < len(EDGE_COUNTS):
        count = EDGE_COUNTS[index]
    else:
        count = int(round(math.exp(rng.uniform(math.log(2), math.log(1500)))))
    placement = uniform_disk(
        count, radius=1000.0, seed=int(rng.integers(2**31))
    )
    spokes = np.hypot(*(placement.positions[1:] - placement.positions[0]).T)
    cull_gain = 0.0
    if rng.random() < 0.5:
        cull_gain = float(np.median(model.power_gain(spokes)))
    mode = int(rng.integers(3))
    if mode == 0:
        horizon = None
    elif mode == 1:
        horizon = float(np.median(spokes))  # binding
    else:
        # Non-binding: at the bounding diagonal (the pass runs and
        # zeroes nothing), just above it inside the skip margin (the
        # pass still runs), or well above it (the pass is skipped).
        x, y = placement.positions.T
        diagonal = sparse._bounding_diagonal(x, y)
        horizon = diagonal * float(rng.choice([1.0, 1.0 + 1e-12, 1.5]))
    return placement, cull_gain, horizon


def _assert_same(placement, model, cull_gain, horizon, chunk, label=""):
    blocked = SparseGainField.from_placement(
        placement, model, cull_gain=cull_gain, horizon_m=horizon,
        chunk_columns=chunk,
    )
    reference = reference_from_placement(
        placement, model, cull_gain=cull_gain, horizon_m=horizon,
        chunk_columns=chunk,
    )
    assert byte_mismatches(blocked, reference) == [], label
    return blocked


class TestDifferentialGrid:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_byte_identical_to_slab_build(self, model_name, chunk):
        model = MODELS[model_name]
        seed = sorted(MODELS).index(model_name) * 10 + CHUNKS.index(chunk)
        rng = np.random.default_rng(seed)
        for index in range(CASES_PER_CELL):
            placement, cull_gain, horizon = _draw_case(rng, model, index)
            label = f"M={placement.count} cull={cull_gain} horizon={horizon}"
            _assert_same(placement, model, cull_gain, horizon, chunk, label)


class TestRowTileIsInvisible:
    @pytest.mark.parametrize("tile", [1, 3, sparse._ROW_TILE])
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_tile_size_moves_no_bit(self, monkeypatch, model_name, tile):
        monkeypatch.setattr(sparse, "_ROW_TILE", tile)
        model = MODELS[model_name]
        placement = uniform_disk(61, radius=1000.0, seed=tile)
        spokes = np.hypot(*(placement.positions[1:] - placement.positions[0]).T)
        cull_gain = float(np.median(model.power_gain(spokes)))
        for chunk in (1, 7, 128):
            for horizon in (None, float(np.median(spokes))):
                _assert_same(placement, model, cull_gain, horizon, chunk)


@st.composite
def _scenes(draw):
    count = draw(st.integers(min_value=2, max_value=40))
    coordinate = st.floats(min_value=-5e3, max_value=5e3, allow_nan=False)
    points = draw(
        st.lists(
            st.tuples(coordinate, coordinate), min_size=count, max_size=count
        )
    )
    return Placement(np.array(points, dtype=float), 1e4)


class TestRandomPlacements:
    @settings(max_examples=100, deadline=None)
    @given(
        placement=_scenes(),
        model_name=st.sampled_from(sorted(MODELS)),
        chunk=st.integers(min_value=1, max_value=50),
        tile=st.sampled_from([1, 3, sparse._ROW_TILE]),
        cull_quantile=st.sampled_from([None, 0.1, 0.5, 0.9]),
        horizon_quantile=st.sampled_from([None, 0.2, 0.5, 1.0]),
    )
    def test_matches_slab_build(
        self, placement, model_name, chunk, tile, cull_quantile,
        horizon_quantile,
    ):
        model = MODELS[model_name]
        distances = placement.distances()
        off_diagonal = distances[~np.eye(placement.count, dtype=bool)]
        cull_gain = 0.0
        if cull_quantile is not None:
            gains = model.power_gain(off_diagonal)
            cull_gain = float(np.quantile(gains, cull_quantile))
        horizon = None
        if horizon_quantile is not None:
            horizon = float(np.quantile(off_diagonal, horizon_quantile))
        with mock.patch.object(sparse, "_ROW_TILE", tile):
            _assert_same(placement, model, cull_gain, horizon, chunk)


class TestHorizonSkip:
    """The horizon pass is skipped only when no computed pair distance
    can exceed the horizon; probe both sides of that edge with a pair
    sitting exactly on the bounding-box diagonal."""

    def _corner_placement(self):
        rng = np.random.default_rng(3)
        corners = np.array([[-412.3, -97.1], [1733.9, 1204.7]])
        inside = rng.uniform(corners[0], corners[1], size=(40, 2))
        return Placement(np.vstack([corners, inside]), 2000.0)

    def _diagonal(self, placement):
        x, y = placement.positions.T
        return sparse._bounding_diagonal(x, y)

    def test_diagonal_is_the_corner_pair_distance(self):
        placement = self._corner_placement()
        dx, dy = placement.positions[0] - placement.positions[1]
        assert self._diagonal(placement) == np.sqrt(dx * dx + dy * dy)

    def test_horizon_just_below_the_diagonal_cuts_the_corner_pair(self):
        placement = self._corner_placement()
        horizon = float(np.nextafter(self._diagonal(placement), 0.0))
        for chunk in (1, 7, 128):
            field = _assert_same(
                placement, MODELS["free_space"], 0.0, horizon, chunk
            )
            assert field.gain(0, 1) == 0.0
            assert field.gain(1, 0) == 0.0

    def test_horizon_just_above_the_diagonal_cuts_nothing(self):
        placement = self._corner_placement()
        diagonal = self._diagonal(placement)
        # Inside the 1e-9 margin (the pass runs) and just past it (the
        # pass is skipped): both keep every link.
        for horizon in (
            float(np.nextafter(diagonal, math.inf)),
            diagonal * (1.0 + 2e-9),
        ):
            for chunk in (1, 7, 128):
                field = _assert_same(
                    placement, MODELS["free_space"], 0.0, horizon, chunk
                )
                assert field.nnz == placement.count * (placement.count - 1)

    @settings(max_examples=100, deadline=None)
    @given(placement=_scenes())
    def test_diagonal_bounds_every_computed_distance(self, placement):
        x, y = placement.positions.T
        dx = np.subtract.outer(x, x)
        dy = np.subtract.outer(y, y)
        distance = np.sqrt(dx * dx + dy * dy)
        assert distance.max() <= sparse._bounding_diagonal(x, y)
