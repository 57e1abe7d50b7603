from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonsched import carbon, errors, ingest
from carbonsched.timegrid import TimeGrid

UTC = timezone.utc


def _mix(power, factors, sources=None, start=datetime(2021, 1, 1, tzinfo=UTC)):
    power = np.asarray(power, dtype=float)
    n, s = power.shape
    grid = TimeGrid(start, 5, n)
    return ingest.GridMixSeries(
        timestamps=tuple(grid.timestamps()),
        sources=tuple(sources or [f"src{j}" for j in range(s)]),
        power=power,
        factors=np.asarray(factors, dtype=float),
    )


class TestComputeIntensity:
    def test_single_source(self):
        ci = carbon.compute_intensity(_mix([[50.0]] * 4, [0.4]))
        np.testing.assert_allclose(ci.values, 0.4)

    def test_symmetric_mix(self):
        ci = carbon.compute_intensity(_mix([[100.0, 100.0]] * 3, [0.0, 0.4]))
        np.testing.assert_allclose(ci.values, 0.2)

    def test_zero_total_generation(self):
        with pytest.raises(errors.ZeroTotalGeneration) as exc:
            carbon.compute_intensity(_mix(
                [[1.0, 1.0], [1.0, -1.0]], [0.0, 0.4],
                sources=("solar", "imports")))
        assert exc.value.slot == 1

    def test_five_source_scalar_oracle(self):
        # independent per-slot recomputation with plain Python floats
        rng = np.random.default_rng(42)
        power = rng.uniform(100.0, 5000.0, size=(288, 5))
        factors = rng.uniform(0.0, 0.6, size=5)
        ci = carbon.compute_intensity(_mix(power, factors))
        for t in range(288):
            total = sum(float(power[t, j]) for j in range(5))
            expected = sum(float(factors[j]) * float(power[t, j]) / total
                           for j in range(5))
            assert abs(ci.values[t] - expected) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_intensity_properties(seed):
    rng = np.random.default_rng(seed)
    n_src = int(rng.integers(2, 7))
    power = rng.uniform(1.0, 1000.0, size=(12, n_src))
    factors = rng.uniform(0.0, 1.0, size=n_src)
    ci = carbon.compute_intensity(_mix(power, factors))

    # convexity: weighted mean lies between the extreme factors
    assert np.all(ci.values >= factors.min() - 1e-12)
    assert np.all(ci.values <= factors.max() + 1e-12)

    # scale invariance
    scaled = carbon.compute_intensity(_mix(power * 7.3, factors))
    np.testing.assert_allclose(scaled.values, ci.values, rtol=1e-12)

    # column permutation invariance
    perm = rng.permutation(n_src)
    permuted = carbon.compute_intensity(_mix(power[:, perm], factors[perm]))
    np.testing.assert_allclose(permuted.values, ci.values, rtol=1e-12)
