"""Tests for the process abstraction: drift evaluation, domain box, Lipschitz."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wormald import (
    ContractError,
    DomainBox,
    DriftEvaluationError,
    EstimationError,
    ProcessSpec,
    Trajectory,
    estimate_lipschitz,
    coupon_drift,
    evaluate_drift,
    in_domain,
    make_coupon_spec,
)
from wormald import process
from wormald.rng import make_generator


def unit_box(a, s_high=10.1):
    return DomainBox(s_low=-0.1, s_high=s_high, z_low=np.full(a, -0.1),
                     z_high=np.full(a, 1.1))


def zero_spec(a=3):
    return ProcessSpec(
        drift=lambda s, z: np.zeros(a),
        increment_bound=1.0,
        domain=unit_box(a),
    )


def test_coupon_drift_at_fresh_state():
    spec = make_coupon_spec(2, 4.0)
    out = evaluate_drift(spec, 0.0, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(out, [-1.0, 1.0, 0.0, 0.0])


def test_coupon_drift_mixed_state():
    spec = make_coupon_spec(2, 4.0)
    out = evaluate_drift(spec, 0.3, np.array([0.5, 0.5, 0.0, 0.0]))
    assert np.allclose(out, [-0.5, 0.0, 0.5, 0.0], atol=0, rtol=0)


def test_zero_drift_returns_zero_vector():
    out = evaluate_drift(zero_spec(), 1.0, np.array([0.2, 0.2, 0.2]))
    assert np.array_equal(out, np.zeros(3))


def test_drift_is_referentially_transparent():
    spec = make_coupon_spec(4, 4.0)
    z = np.array([0.3, 0.25, 0.2, 0.15, 0.05, 0.05])
    first = evaluate_drift(spec, 1.7, z)
    for _ in range(5):
        assert np.array_equal(evaluate_drift(spec, 1.7, z), first)


def test_dimension_mismatch_rejected():
    spec = make_coupon_spec(2, 4.0)
    with pytest.raises(ContractError):
        evaluate_drift(spec, 0.0, np.array([1.0, 0.0]))
    with pytest.raises(ContractError):
        in_domain(spec, 0.0, np.array([1.0, 0.0, 0.0]))


def test_wrong_drift_output_length_rejected():
    a = 3
    spec = ProcessSpec(
        drift=lambda s, z: np.zeros(a + 1),
        increment_bound=1.0,
        domain=unit_box(a),
    )
    with pytest.raises(ContractError):
        evaluate_drift(spec, 0.0, np.zeros(a))


def test_nonfinite_drift_inside_domain_raises():
    spec = ProcessSpec(
        drift=lambda s, z: np.array([np.nan]),
        increment_bound=1.0,
        domain=unit_box(1),
    )
    with pytest.raises(DriftEvaluationError):
        evaluate_drift(spec, 0.5, np.array([0.5]))
    # Outside the domain a non-finite value raises too.
    with pytest.raises(DriftEvaluationError):
        evaluate_drift(spec, 50.0, np.array([0.5]))


def test_in_domain_examples():
    spec = zero_spec(4)
    assert in_domain(spec, 1.0, np.array([0.3, 0.3, 0.2, 0.2]))
    assert not in_domain(spec, 10.1, np.array([0.3, 0.3, 0.2, 0.2]))
    assert not in_domain(spec, 1.0, np.array([1.2, 0.3, 0.2, 0.2]))


def test_in_domain_boundary_is_excluded():
    spec = zero_spec(2)
    z = np.array([0.5, 0.5])
    assert not in_domain(spec, -0.1, z)
    assert not in_domain(spec, 1.0, np.array([-0.1, 0.5]))
    assert not in_domain(spec, 1.0, np.array([0.5, 1.1]))


def test_in_domain_monotone_under_box_shrinkage():
    a = 3
    big = zero_spec(a)
    small = ProcessSpec(
        drift=big.drift,
        increment_bound=1.0,
        domain=DomainBox(0.0, 5.0, np.zeros(a), np.full(a, 0.9)),
    )
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = rng.uniform(-1, 12)
        z = rng.uniform(-0.3, 1.3, size=a)
        if in_domain(small, s, z):
            assert in_domain(big, s, z)


def test_domain_box_validation():
    with pytest.raises(ContractError):
        DomainBox(1.0, 1.0, np.zeros(2), np.ones(2))
    with pytest.raises(ContractError):
        DomainBox(0.0, 1.0, np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(ContractError):
        DomainBox(0.0, 1.0, np.zeros(2), np.ones(3))
    with pytest.raises(ContractError, match="at least one coordinate"):
        DomainBox(0.0, 1.0, np.zeros(0), np.ones(0))


def test_process_spec_validation():
    box = unit_box(2)
    drift = lambda s, z: np.zeros(2)
    with pytest.raises(ContractError):
        ProcessSpec(drift, 0.0, box)
    with pytest.raises(ContractError):
        ProcessSpec(drift, 1.0, box, lipschitz_hint=-0.5)


def test_trajectory_validation():
    with pytest.raises(ContractError):
        Trajectory(np.array([]), np.empty((0, 2)))
    with pytest.raises(ContractError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2)))
    with pytest.raises(ContractError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2)))
    with pytest.raises(ContractError):
        Trajectory(np.array([0.0, 1.0]), np.array([[0.0], [np.inf]]))


def test_trajectory_accessors_and_immutability():
    traj = Trajectory(np.array([0.0, 0.5]), np.array([[1.0, 0.0], [0.5, 0.5]]))
    assert len(traj) == 2
    assert traj.coord_count == 2
    with pytest.raises(ValueError):
        traj.z[0, 0] = 9.0


def test_lipschitz_zero_drift_is_zero():
    assert estimate_lipschitz(zero_spec(), 500, seed=1) == 0.0


def test_lipschitz_coupon_never_exceeds_one():
    spec = make_coupon_spec(5, 4.0)
    for seed in (0, 1, 2, 3, 12345):
        est = estimate_lipschitz(spec, 2000, seed=seed)
        assert 0.0 < est <= 1.0 + 1e-9


def test_lipschitz_linear_drift_close_to_three():
    spec = ProcessSpec(
        drift=lambda s, z: np.array([3.0 * z[0]]),
        increment_bound=1.0,
        domain=unit_box(1, s_high=1.0),
    )
    est = estimate_lipschitz(spec, 10_000, seed=3)
    assert 2.9 <= est <= 3.0


def test_lipschitz_nondecreasing_in_sample_count():
    spec = make_coupon_spec(3, 4.0)
    estimates = [estimate_lipschitz(spec, count, seed=99)
                 for count in (10, 100, 1000, 5000)]
    for lo, hi in zip(estimates, estimates[1:]):
        assert hi >= lo


def test_lipschitz_deterministic_and_input_checked():
    spec = make_coupon_spec(3, 4.0)
    assert estimate_lipschitz(spec, 300, seed=5) == estimate_lipschitz(spec, 300, seed=5)
    with pytest.raises(ContractError):
        estimate_lipschitz(spec, 1, seed=5)


def _lipschitz_pair_loop(spec, sample_count, seed):
    """Reference estimator: one drift call per point, pair by pair."""
    box = spec.domain
    raw = make_generator(seed).uniform(size=(sample_count, 2, 1 + spec.coord_count))
    low = np.concatenate(([box.s_low], box.z_low))
    high = np.concatenate(([box.s_high], box.z_high))
    best = 0.0
    for u, v in low + raw * (high - low):
        dist = float(np.sum(np.abs(u - v)))
        if dist == 0.0:
            continue
        fu = spec.drift(u[0], u[1:])
        fv = spec.drift(v[0], v[1:])
        best = max(best, float(np.max(np.abs(fu - fv))) / dist)
    return best


@settings(max_examples=40, deadline=None)
@given(l=st.integers(1, 12), sample_count=st.integers(2, 3000),
       block=st.integers(1, 4096), seed=st.integers(0, 2**63 - 1))
def test_lipschitz_batch_equals_pair_loop(l, sample_count, block, seed):
    spec = make_coupon_spec(l, 4.0)
    with mock.patch.object(process, "_PAIR_BLOCK", block):
        batched = estimate_lipschitz(spec, sample_count, seed)
    assert batched == _lipschitz_pair_loop(spec, sample_count, seed)


@pytest.mark.parametrize("sample_count", [4095, 4096, 4097, 3 * 4096 + 1])
def test_lipschitz_blocks_equal_pair_loop_across_block_edges(sample_count):
    assert process._PAIR_BLOCK == 4096
    spec = make_coupon_spec(3, 4.0)
    assert estimate_lipschitz(spec, sample_count, seed=11) == \
        _lipschitz_pair_loop(spec, sample_count, seed=11)


class _DegenerateFirst:
    """Generator stand-in: the first ``degenerate`` draws give equal points."""

    def __init__(self, seed, degenerate):
        self._gen = make_generator(seed)
        self._degenerate = degenerate

    def uniform(self, size):
        if self._degenerate > 0:
            self._degenerate -= 1
            return np.full(size, 0.5)
        return self._gen.uniform(size=size)


def test_lipschitz_skips_degenerate_blocks_and_raises_only_if_all_are():
    spec = make_coupon_spec(3, 4.0)
    with mock.patch.object(process, "_PAIR_BLOCK", 4), \
            mock.patch.object(process, "make_generator",
                              lambda seed: _DegenerateFirst(seed, 2)):
        est = estimate_lipschitz(spec, 12, seed=5)
        with pytest.raises(EstimationError):
            estimate_lipschitz(spec, 8, seed=5)
    # Only the last block's pairs count: the first two blocks' draws were
    # degenerate, so the estimate is that of the stream's first 4 pairs.
    assert est == _lipschitz_pair_loop(spec, 4, seed=5)


@settings(max_examples=40, deadline=None)
@given(l=st.integers(1, 12), batch=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
def test_coupon_drift_batch_equals_single_points(l, batch, seed):
    drift = coupon_drift(l)
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 4.0, size=batch)
    # Rounding to one decimal gives equal neighbours and zeros of both signs.
    z = np.round(rng.uniform(-0.1, 1.1, size=(l + 2, batch)), 1)
    out = drift(s, z)
    assert out.shape == z.shape
    columns = np.stack([drift(s[j], z[:, j]) for j in range(batch)], axis=1)
    assert out.tobytes() == columns.tobytes()
    spec = make_coupon_spec(l, 4.0)
    checked = evaluate_drift(spec, s, z)
    points = np.stack([evaluate_drift(spec, s[j], z[:, j]) for j in range(batch)], axis=1)
    assert checked.tobytes() == points.tobytes()


def _coupon_drift_slices(l):
    """Reference coupon drift, written coordinate by coordinate."""
    def drift(s, z):
        out = np.empty(z.shape)
        out[0] = -z[0]
        out[1 : l + 1] = z[0:l] - z[1 : l + 1]
        out[l + 1] = z[l]
        return out
    return drift


@settings(max_examples=40, deadline=None)
@given(l=st.integers(1, 12), batch=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
def test_coupon_linear_matrix_is_the_drift(l, batch, seed):
    drift = coupon_drift(l)
    assert np.array_equal(drift(0.0, np.eye(l + 2)), make_coupon_spec(l).linear)
    reference = _coupon_drift_slices(l)
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 4.0, size=batch)
    # Rounding to one decimal gives equal neighbours and zeros of both signs.
    for z in (rng.uniform(-0.1, 1.1, size=(l + 2, batch)),
              np.round(rng.uniform(-0.1, 1.1, size=(l + 2, batch)), 1)):
        pairs = [(drift(s, z), reference(s, z))]
        pairs += [(drift(s[j], z[:, j]), reference(s[j], z[:, j])) for j in range(batch)]
        for got, want in pairs:
            assert got.shape == want.shape
            # Equal values; only an exact zero may differ in sign: -z_0 at
            # z_0 = 0 is -0.0 in the slices and +0.0 in the product.
            assert np.array_equal(got, want)
            nonzero = want != 0
            assert got[nonzero].tobytes() == want[nonzero].tobytes()


def test_process_spec_linear_contract():
    a = 3
    spec = ProcessSpec(lambda s, z: -z, 1.0, unit_box(a), linear=(-np.eye(a)).tolist())
    assert spec.linear.shape == (a, a) and spec.linear.dtype == float
    assert not spec.linear.flags.writeable
    for bad in (np.eye(a + 1), np.eye(a)[:, :2], np.ones(a), np.full((a, a), np.nan),
                np.diag([1.0, np.inf, 1.0])):
        with pytest.raises(ContractError, match="linear"):
            ProcessSpec(lambda s, z: -z, 1.0, unit_box(a), linear=bad)


def test_evaluate_drift_batch_contract():
    spec = zero_spec(3)
    z = np.full((3, 5), 0.2)
    # a drift that does not depend on the point may answer a batch with (a,)
    assert np.array_equal(evaluate_drift(spec, np.zeros(5), z), np.zeros((3, 5)))
    with pytest.raises(ContractError):
        evaluate_drift(spec, np.zeros(4), z)  # one s per column
    with pytest.raises(ContractError):
        evaluate_drift(spec, 0.0, np.full((2, 5), 0.2))


def test_lipschitz_constant_vector_drift_is_zero():
    spec = ProcessSpec(
        drift=lambda s, z: np.array([1.5, -2.0]),
        increment_bound=1.0,
        domain=unit_box(2),
    )
    assert estimate_lipschitz(spec, 500, seed=4) == 0.0


def test_lipschitz_wrong_batch_shape_rejected():
    spec = ProcessSpec(
        drift=lambda s, z: np.zeros(3),
        increment_bound=1.0,
        domain=unit_box(2),
    )
    with pytest.raises(ContractError):
        estimate_lipschitz(spec, 100, seed=4)


@pytest.mark.parametrize("drift", [
    lambda s, z: np.array([np.nan]),
    lambda s, z: np.where(z > 0.5, np.nan, 3.0 * z),
], ids=["nan_everywhere", "nan_above_half"])
def test_lipschitz_nonfinite_drift_raises(drift):
    # A NaN ratio compares false against any bound: an estimator that let
    # these pairs drop out would report 0.0 or ~3.0 and pass any hint.
    spec = ProcessSpec(
        drift=drift,
        increment_bound=1.0,
        domain=unit_box(1, s_high=1.0),
    )
    with pytest.raises(DriftEvaluationError):
        estimate_lipschitz(spec, 1000, seed=3)
