"""Loss stack oracles: hand-computed confidence/target/trajectory cases,
filter boundaries, winner selection, additivity, and a finite-difference
check of the assembled loss."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanecast import diffcore as dc
from lanecast import losses
from lanecast.errors import ContractError


def simplex(rng, k=6):
    p = rng.random(k)
    return p / p.sum()


class TestDisplacementError:
    """`mode_displacements`: max over steps of the pointwise L2 distance."""

    def test_identity_zero(self):
        s = np.random.default_rng(0).normal(size=(1, 5, 2))
        assert losses.mode_displacements(dc.Tensor(s), s[0]).data.tolist() == [0.0]

    def test_constant_unit_offset(self):
        s = np.zeros((4, 2))
        t = s + [1.0, 0.0]
        assert losses.mode_displacements(dc.Tensor(t[None]), s).data.tolist() == [1.0]

    def test_three_four_five(self):
        s = np.zeros((6, 2))
        t = s.copy()
        t[2] = [3.0, 4.0]
        got = losses.mode_displacements(dc.Tensor(np.stack([t, s])), s)
        assert got.data.tolist() == [5.0, 0.0]

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            losses.mode_displacements(dc.Tensor(np.zeros((1, 3, 2))), np.zeros((4, 2)))


class TestGtConfidence:
    def test_equal_errors_uniform(self):
        s = np.zeros((2, 3, 2))
        s[:, :, 0] = 2.0
        np.testing.assert_allclose(
            losses.gt_confidence(s, np.zeros((3, 2))), [0.5, 0.5], atol=1e-12)

    def test_zero_and_ln3(self):
        s = np.zeros((2, 1, 2))
        s[1, 0, 0] = math.log(3.0)
        np.testing.assert_allclose(
            losses.gt_confidence(s, np.zeros((1, 2))), [0.75, 0.25], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = rng.normal(size=(6, 4, 2)) * 10
            c = losses.gt_confidence(s, rng.normal(size=(4, 2)))
            np.testing.assert_allclose(c.sum(), 1.0, atol=1e-12)
            assert np.all(c > 0)

    def test_shift_invariance_of_errors(self):
        # modes on the x axis at distance d_k from a GT pinned at the origin
        # have displacement error exactly d_k; shifting all by a constant
        # must not change the distribution
        def conf_at(ds):
            s = np.zeros((len(ds), 1, 2))
            s[:, 0, 0] = ds
            return losses.gt_confidence(s, np.zeros((1, 2)))

        base = conf_at([0.5, 1.7, 3.0])
        shifted = conf_at([0.5 + 11, 1.7 + 11, 3.0 + 11])
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_tensor_path_matches_numpy_path(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=(6, 5, 2))
        gt = rng.normal(size=(5, 2))
        a = losses.gt_confidence(s, gt)
        b = losses.gt_confidence(dc.Tensor(s), gt).data
        np.testing.assert_allclose(a, b, atol=1e-15)


class TestConfidenceLoss:
    def test_kl_self_is_zero_exactly(self):
        p = np.array([0.2, 0.3, 0.5])
        assert float(losses.confidence_loss(dc.Tensor(p), dc.Tensor(p.copy())).data) == 0.0

    def test_hand_case_ln2(self):
        val = losses.confidence_loss(
            dc.Tensor(np.array([0.5, 0.5])), dc.Tensor(np.array([1.0, 0.0])))
        np.testing.assert_allclose(float(val.data), math.log(2.0), atol=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            kl = float(losses.confidence_loss(
                dc.Tensor(simplex(rng)), dc.Tensor(simplex(rng))).data)
            assert kl >= 0.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_property(self, seed):
        rng = np.random.default_rng(seed)
        kl = float(losses.confidence_loss(
            dc.Tensor(simplex(rng)), dc.Tensor(simplex(rng))).data)
        assert kl >= 0.0

    def test_zero_prob_prediction_hits_floor_not_inf(self):
        val = losses.confidence_loss(
            dc.Tensor(np.array([0.0, 1.0])), dc.Tensor(np.array([0.5, 0.5])))
        assert math.isfinite(float(val.data))


class TestConfFilter:
    def test_perfect_kept(self):
        end = np.zeros((6, 2))
        assert losses.conf_filter(end, np.zeros(2))

    def test_all_far_dropped(self):
        end = np.full((6, 2), 10.0)
        assert not losses.conf_filter(end, np.zeros(2))

    def test_boundary_inclusive(self):
        end = np.full((6, 2), 50.0)
        end[3] = [2.0, 0.0]
        assert losses.conf_filter(end, np.zeros(2))
        end[3] = [2.0 + 1e-9, 0.0]
        assert not losses.conf_filter(end, np.zeros(2))


class TestTargetLoss:
    def test_perfect_zero(self):
        targets = dc.Tensor(np.zeros((1, 6, 2)))
        val, n, _ = losses.target_loss(targets, np.zeros((1, 2)), [True])
        assert float(val.data) == 0.0 and n == 1

    def test_half_meter_offset_hand_value(self):
        t = np.full((1, 6, 2), 100.0)
        t[0, 2] = [0.5, 0.0]  # winner: offset (0.5, 0)
        val, _, winners = losses.target_loss(dc.Tensor(t), np.zeros((1, 2)), [True])
        assert winners[0] == 2
        np.testing.assert_allclose(float(val.data), 0.0625, atol=1e-12)

    def test_winner_tie_takes_lowest_mode(self):
        t = np.zeros((1, 3, 2))
        t[0] = [[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]  # modes 0 and 1 tie
        winners = losses.select_winners(t, np.zeros((1, 2)))
        assert winners[0] == 0

    def test_winner_invariant_under_error_scaling(self):
        rng = np.random.default_rng(4)
        t = rng.normal(size=(3, 6, 2))
        gt = np.zeros((3, 2))
        base = losses.select_winners(t, gt)
        scaled = losses.select_winners(t * 3.7, gt * 3.7)
        np.testing.assert_array_equal(base, scaled)

    def test_masked_out_actor_ignored(self):
        t = np.zeros((2, 6, 2))
        t[1] += 1e6  # would dominate if counted
        val, n, _ = losses.target_loss(dc.Tensor(t), np.zeros((2, 2)),
                                       [True, False])
        assert n == 1
        assert float(val.data) == 0.0

    def test_no_actors_returns_zero(self):
        val, n, _ = losses.target_loss(dc.Tensor(np.ones((2, 6, 2))),
                                       np.zeros((2, 2)), [False, False])
        assert n == 0 and float(val.data) == 0.0


class TestTrajectoryLoss:
    def test_perfect_zero(self):
        traj = dc.Tensor(np.zeros((1, 6, 5, 2)))
        val, n = losses.trajectory_loss(traj, np.zeros((1, 5, 2)), [True],
                                        np.zeros(1, dtype=int))
        assert float(val.data) == 0.0 and n == 1

    def test_last_step_excluded(self):
        rng = np.random.default_rng(5)
        traj = rng.normal(size=(1, 6, 5, 2))
        gt = rng.normal(size=(1, 5, 2))
        winners = np.array([3])
        a, _ = losses.trajectory_loss(dc.Tensor(traj), gt, [True], winners)
        bumped = traj.copy()
        bumped[0, 3, -1] += 123.0
        b, _ = losses.trajectory_loss(dc.Tensor(bumped), gt, [True], winners)
        assert float(a.data) == float(b.data)

    def test_uniform_half_meter_x_offset(self):
        t_steps = 5
        traj = np.zeros((1, 6, t_steps, 2))
        traj[0, 0, :, 0] = 0.5
        gt = np.zeros((1, t_steps, 2))
        val, _ = losses.trajectory_loss(dc.Tensor(traj), gt, [True],
                                        np.zeros(1, dtype=int))
        # x components contribute 0.125 each, y components 0
        np.testing.assert_allclose(float(val.data), 0.0625, atol=1e-12)

    def test_single_step_rejected(self):
        with pytest.raises(ContractError):
            losses.trajectory_loss(dc.Tensor(np.zeros((1, 6, 1, 2))),
                                   np.zeros((1, 1, 2)), [True],
                                   np.zeros(1, dtype=int))


def synthetic_heads(rng, a=2, k=6, t=4, dtype=np.float64):
    store = dc.ParamStore(dtype)
    store.add("targets", rng.normal(size=(a, k, 2)) * 2)
    store.add("traj", rng.normal(size=(a, k, t, 2)) * 2)
    store.add("logits", rng.normal(size=(a, k)))
    return store


class TestTotalLoss:
    def _gt(self, rng, a=2, t=4):
        return rng.normal(size=(a, t, 2))

    def test_s1_additivity(self):
        rng = np.random.default_rng(6)
        store = synthetic_heads(rng)
        gt = self._gt(rng)
        traj = dc.reshape(store["targets"], (2, 6, 1, 2))  # stage one's one-step trajectories
        loss, bd = losses.total_loss(store["targets"], traj, store["logits"],
                                     gt, [True, True], [True, True])
        assert bd.stage == "S1"
        assert abs(bd.total - (bd.conf + bd.target)) < 1e-9
        assert bd.traj == 0.0
        np.testing.assert_allclose(float(loss.data), bd.total, atol=1e-9)

    def test_s2_additivity_and_nonnegative(self):
        rng = np.random.default_rng(7)
        store = synthetic_heads(rng)
        gt = self._gt(rng)
        loss, bd = losses.total_loss(store["targets"], store["traj"],
                                     store["logits"], gt, [True, True], [True, True])
        assert abs(bd.total - (bd.conf + bd.target + bd.traj)) < 1e-9
        for part in (bd.conf, bd.target, bd.traj):
            assert part >= 0.0

    def test_s2_perfect_prediction_zero_regression(self):
        rng = np.random.default_rng(8)
        a, k, t = 2, 6, 4
        gt = self._gt(rng, a, t)
        traj = np.stack([np.stack([g] * k) for g in gt])
        targets = traj[:, :, -1, :]
        logits = np.full((a, k), 3.0)  # uniform confidence
        loss, bd = losses.total_loss(
            dc.Tensor(targets), dc.Tensor(traj), dc.Tensor(logits),
            gt, [True, True], [True, True])
        assert bd.target == 0.0 and bd.traj == 0.0
        # all modes identical: gt confidence is uniform and matches exactly
        np.testing.assert_allclose(bd.conf, 0.0, atol=1e-12)

    def test_s1_confidence_uses_endpoints_only(self):
        rng = np.random.default_rng(10)
        a, k, t = 1, 4, 5
        targets = rng.normal(size=(a, k, 2)) * 0.5
        gt_end = np.zeros((1, 2))
        s1_modes = targets[0][:, None, :]
        full = np.concatenate(
            [rng.normal(size=(k, t - 1, 2)) * 50, s1_modes], axis=1)
        c_endpoint = losses.gt_confidence(s1_modes, gt_end)
        c_truncated = losses.gt_confidence(full[:, -1:, :], gt_end)
        np.testing.assert_allclose(c_endpoint, c_truncated, atol=1e-15)

    def test_missing_gt_actor_excluded(self):
        rng = np.random.default_rng(11)
        store = synthetic_heads(rng)
        gt = np.stack([rng.normal(size=(4, 2)), np.zeros((4, 2))])
        loss, bd = losses.total_loss(store["targets"], store["traj"],
                                     store["logits"], gt, [True, False], [True, True])
        assert bd.n_target == 1
        gt[1] = 1e6  # a row without a future is not read
        other, _ = losses.total_loss(store["targets"], store["traj"],
                                     store["logits"], gt, [True, False], [True, True])
        assert other.data.tobytes() == loss.data.tobytes()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        store = synthetic_heads(rng)
        gt = self._gt(rng)

        def fn(s):
            loss, _ = losses.total_loss(s["targets"], s["traj"], s["logits"],
                                        gt, [True, True], [True, True])
            return loss

        worst, _ = dc.grad_check(fn, store, seed=0)
        assert worst < 1e-6
