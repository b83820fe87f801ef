"""Raw measurements versus their per-pair moment reduction.

A batch of T repetitions and the single-repetition batch over the T-fold
tiled deployment (every anchor listed T times, with its sigma and dh) hold
the same n raw measurements. The first reaches the estimators through
T-repetition moments, the second through one sample per pair, so equal
poses check that the reduction is exact.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbpose.core import Deployment, Method, RangeBatch
from uwbpose.estimators import estimate

from helpers import noisy_ranges, random_observable_deployment, random_pose


def _tiled_raw_batch(dep: Deployment, d: np.ndarray) -> RangeBatch:
    """T = 1 batch of the raw (N, M, T) ranges ``d`` over the deployment with
    every anchor repeated T times."""
    t_rep = d.shape[2]
    tiled = Deployment(
        anchors=np.tile(dep.anchors, (t_rep, 1)),
        tags=dep.tags,
        sigma=np.tile(dep.sigma, (1, t_rep)),
        dh=np.tile(dep.dh, (1, t_rep)),
    )
    columns = d.transpose(0, 2, 1).reshape(dep.num_tags, -1, 1)  # column rep * M + m
    return RangeBatch(tiled, columns)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), repeat_t=st.integers(2, 6))
def test_moment_and_raw_paths_agree(seed, repeat_t):
    rng = np.random.default_rng(seed)
    base = random_observable_deployment(rng)
    shape = base.sigma.shape
    dep = Deployment(
        anchors=base.anchors,
        tags=base.tags,
        sigma=rng.uniform(0.02, 0.3, size=shape),
        dh=rng.uniform(0.2, 2.0, size=shape),
    )
    d = noisy_ranges(dep, random_pose(rng), repeat_t, rng)
    batch = RangeBatch(dep, d)
    raw = _tiled_raw_batch(dep, d)
    for method in Method:
        reduced, expanded = estimate(batch, method), estimate(raw, method)
        assert abs(math.remainder(reduced.theta - expanded.theta, 2 * math.pi)) <= 1e-10, method
        np.testing.assert_allclose(reduced.t, expanded.t, rtol=0, atol=1e-10, err_msg=method.value)
