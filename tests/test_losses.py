import math

import numpy as np
import pytest

from sulcikit.errors import (
    IndexOutOfRangeError,
    NonFiniteError,
    ZeroVectorError,
)
from sulcikit.losses import (
    EmbeddingBatch,
    contrastive_loss,
    contrastive_loss_grad,
    cosine_similarity,
    finite_difference_check,
    multitask_loss,
    nt_xent_pair,
    optimize_embeddings_demo,
    seg_loss_grad,
    soft_dice_loss,
    tversky_loss,
)
from sulcikit.oracles import brute_force_contrastive, brute_force_pair_term

FOUR_ROW_BATCH = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])


class TestCosineSimilarity:
    def test_identical_unit_vectors(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_fixture_eight_ninths(self):
        assert cosine_similarity([1.0, 2.0, 2.0], [2.0, 1.0, 2.0]) == pytest.approx(
            8.0 / 9.0, abs=1e-12
        )

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])


class TestNtXentPair:
    def test_degenerate_batch_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((2, 8))
        assert nt_xent_pair(rows, 0, 1, 1.0) == 0.0
        assert nt_xent_pair(rows, 1, 0, 0.1) == 0.0

    def test_four_row_fixture(self):
        value = nt_xent_pair(FOUR_ROW_BATCH, 0, 1, 1.0)
        assert value == pytest.approx(math.log(1.0 + 2.0 / math.e), abs=1e-12)
        assert value == pytest.approx(
            brute_force_pair_term(FOUR_ROW_BATCH, 0, 1, 1.0), abs=1e-12
        )

    def test_nonnegative_on_random_batches(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rows = rng.standard_normal((6, 5))
            i, j = rng.choice(6, size=2, replace=False)
            assert nt_xent_pair(rows, int(i), int(j), 0.5) >= 0.0

    def test_index_validation(self):
        with pytest.raises(IndexOutOfRangeError):
            nt_xent_pair(FOUR_ROW_BATCH, 0, 4, 1.0)
        with pytest.raises(IndexOutOfRangeError):
            nt_xent_pair(FOUR_ROW_BATCH, 2, 2, 1.0)

    def test_matches_brute_force_on_random_batches(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            rows = rng.standard_normal((8, 4))
            value = nt_xent_pair(rows, 3, 6, 0.7)
            assert value == pytest.approx(
                brute_force_pair_term(rows, 3, 6, 0.7), abs=1e-10
            )


class TestContrastiveLoss:
    def test_degenerate_batch(self):
        rng = np.random.default_rng(3)
        assert contrastive_loss(rng.standard_normal((2, 16)), 0.5) == 0.0

    def test_four_row_fixture(self):
        value = contrastive_loss(FOUR_ROW_BATCH, 1.0)
        assert value == pytest.approx(math.log(1.0 + 2.0 / math.e), abs=1e-12)
        assert value == pytest.approx(brute_force_contrastive(FOUR_ROW_BATCH, 1.0), abs=1e-12)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rows = rng.standard_normal((8, 6))
            value = contrastive_loss(rows, 0.5)
            assert value >= 0.0
            assert value == pytest.approx(brute_force_contrastive(rows, 0.5), abs=1e-10)

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((8, 10))
        base = contrastive_loss(rows, 0.5)
        scaled = rows.copy()
        scaled[2] *= 3.0
        assert abs(contrastive_loss(scaled, 0.5) - base) < 1e-6

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((8, 10))
        q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        assert abs(contrastive_loss(rows @ q, 0.5) - contrastive_loss(rows, 0.5)) < 1e-6

    def test_pair_block_permutation_invariance(self):
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((8, 5))
        perm = np.array([2, 3, 6, 7, 0, 1, 4, 5])
        assert contrastive_loss(rows[perm], 0.5) == pytest.approx(
            contrastive_loss(rows, 0.5), abs=1e-12
        )

    def test_embedding_batch_wrapper(self):
        batch = EmbeddingBatch(FOUR_ROW_BATCH)
        assert contrastive_loss(batch, 1.0) == contrastive_loss(FOUR_ROW_BATCH, 1.0)
        assert batch.n_pairs == 2

    def test_batch_rejects_odd_rows(self):
        with pytest.raises(ValueError):
            EmbeddingBatch(np.ones((3, 4)))

    def test_batch_rejects_zero_row(self):
        rows = np.ones((4, 4))
        rows[1] = 0.0
        with pytest.raises(ZeroVectorError):
            EmbeddingBatch(rows)


class TestContrastiveGradient:
    def test_degenerate_batch_zero_gradient(self):
        rng = np.random.default_rng(8)
        grad = contrastive_loss_grad(rng.standard_normal((2, 8)), 0.5)
        assert np.array_equal(grad, np.zeros((2, 8)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((4, 8))
        err = finite_difference_check("contrastive", {"batch": rows, "temperature": 0.5})
        assert err < 1e-5

    def test_gradient_orthogonal_to_rows(self):
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((8, 6))
        grad = contrastive_loss_grad(rows, 0.5)
        for g, z in zip(grad, rows):
            cosine = np.dot(g, z) / (np.linalg.norm(g) * np.linalg.norm(z))
            assert abs(cosine) < 1e-6

    def test_tiny_temperature_stays_finite(self):
        # max subtraction must prevent overflow at similarity/tau ~ 1000
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((8, 6))
        loss = contrastive_loss(rows, temperature=0.001)
        grad = contrastive_loss_grad(rows, temperature=0.001)
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()

    @pytest.mark.parametrize("seed", [5, 6])
    def test_saturated_softmax_keeps_relative_precision(self, seed):
        # at tau = 0.001 each anchor's softmax puts nearly all its mass on the
        # positive, so softmax - onehot cancels and the gradient is ~1e-11
        # (seed 5) or ~1e-45 (seed 6); the reference is a central difference
        # in 120-digit arithmetic
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((4, 10))
        grad = contrastive_loss_grad(rows, 0.001)
        with mp.workdps(120):
            tau, h = mp.mpf("0.001"), mp.mpf("1e-50")

            def loss(rows):
                unit = [[v / mp.sqrt(sum(w * w for w in row)) for v in row] for row in rows]
                total = 0
                for i, u in enumerate(unit):
                    logit = [sum(a * b for a, b in zip(u, w)) / tau for w in unit]
                    lse = mp.log(sum(mp.exp(x) for j, x in enumerate(logit) if j != i))
                    total += lse - logit[i ^ 1]
                return total / len(rows)

            for v in rng.standard_normal((3, 4, 10)):
                plus = [[mp.mpf(a) + h * b for a, b in zip(r, d)] for r, d in zip(rows, v)]
                minus = [[mp.mpf(a) - h * b for a, b in zip(r, d)] for r, d in zip(rows, v)]
                exact = (loss(plus) - loss(minus)) / (2 * h)
                err = abs(exact - np.sum(grad * v)) / (np.abs(grad).max() * np.abs(v).sum())
                assert err < 1e-12


class TestSegLosses:
    def test_dice_perfect_prediction(self):
        target = np.array([1.0, 0.0, 1.0, 0.0]).reshape(1, 2, 2)
        assert soft_dice_loss(target, target, smooth=0.0) == 0.0

    def test_dice_total_miss(self):
        pred = np.zeros((1, 2, 2))
        target = np.ones((1, 2, 2))
        assert soft_dice_loss(pred, target, smooth=0.0) == 1.0

    def test_dice_fixture_one_third(self):
        pred = np.array([1.0, 1.0, 0.0, 0.0]).reshape(1, 1, 4)
        target = np.array([1.0, 0.0, 0.0, 0.0]).reshape(1, 1, 4)
        assert soft_dice_loss(pred, target, smooth=0.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_tversky_reduces_to_dice_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pred = rng.random((4, 4, 4))
            target = (rng.random((4, 4, 4)) < 0.4).astype(float)
            d = soft_dice_loss(pred, target, smooth=0.0)
            t = tversky_loss(pred, target, 0.5, 0.5, smooth=0.0)
            assert d == t

    def test_tversky_perfect_prediction(self):
        target = np.array([1.0, 0.0, 1.0, 1.0]).reshape(1, 1, 4)
        assert tversky_loss(target, target, 0.3, 0.9, smooth=0.0) == 0.0

    def test_tversky_beta_fixture(self):
        pred = np.array([1.0, 1.0, 0.0, 0.0]).reshape(1, 1, 4)
        target = np.array([1.0, 0.0, 0.0, 0.0]).reshape(1, 1, 4)
        value = tversky_loss(pred, target, alpha=0.5, beta=1.0, smooth=0.0)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_voxel_permutation_invariance(self):
        rng = np.random.default_rng(12)
        pred = rng.random(27)
        target = (rng.random(27) < 0.5).astype(float)
        perm = rng.permutation(27)
        a = soft_dice_loss(pred.reshape(3, 3, 3), target.reshape(3, 3, 3), smooth=0.5)
        b = soft_dice_loss(
            pred[perm].reshape(3, 3, 3), target[perm].reshape(3, 3, 3), smooth=0.5
        )
        assert a == pytest.approx(b, abs=1e-12)

    def test_grid_mismatch_raises(self, unit_grid):
        from sulcikit.errors import GridMismatchError
        from sulcikit.losses import ProbabilityVolume
        from sulcikit.volume import BinaryMask

        pred = ProbabilityVolume(unit_grid((2, 2, 2)), np.zeros((2, 2, 2)))
        target = BinaryMask(unit_grid((3, 3, 3)), np.zeros((3, 3, 3), dtype=bool))
        with pytest.raises(GridMismatchError):
            soft_dice_loss(pred, target)

    def test_probability_volume_bounds(self, unit_grid):
        from sulcikit.losses import ProbabilityVolume

        with pytest.raises(ValueError):
            ProbabilityVolume(unit_grid((2, 2, 2)), np.full((2, 2, 2), 1.5))


class TestSegGradients:
    def test_degenerate_all_zero_is_finite(self):
        pred = np.zeros((3, 3, 3))
        target = np.zeros((3, 3, 3))
        grad = seg_loss_grad("dice", pred, target, smooth=1.0)
        assert np.isfinite(grad).all()

    def test_dice_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        pred = rng.uniform(0.05, 0.95, (6, 6, 6))
        target = (rng.random((6, 6, 6)) < 0.3).astype(float)
        err = finite_difference_check(
            "dice", {"pred": pred, "target": target, "smooth": 1.0}
        )
        assert err < 1e-5

    def test_tversky_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        pred = rng.uniform(0.05, 0.95, (4, 4, 4))
        target = (rng.random((4, 4, 4)) < 0.3).astype(float)
        err = finite_difference_check(
            "tversky",
            {"pred": pred, "target": target, "smooth": 1.0, "alpha": 0.3, "beta": 0.7},
        )
        assert err < 1e-5

    def test_tversky_gradient_equals_dice_at_half(self):
        rng = np.random.default_rng(15)
        pred = rng.uniform(0.05, 0.95, (4, 4, 4))
        target = (rng.random((4, 4, 4)) < 0.4).astype(float)
        dice_grad = seg_loss_grad("dice", pred, target, smooth=0.0)
        tv_grad = seg_loss_grad("tversky", pred, target, 0.5, 0.5, smooth=0.0)
        assert np.array_equal(dice_grad, tv_grad)

    @pytest.mark.parametrize("loss, params", [
        ("dice", {"smooth": -1e-5}),
        ("tversky", {"smooth": -1e-5}),
        ("tversky", {"alpha": -1.0}),
        ("tversky", {"beta": -0.5}),
    ], ids=["dice-smooth", "tversky-smooth", "tversky-alpha", "tversky-beta"])
    def test_negative_parameters_rejected_like_the_losses(self, loss, params):
        pred = np.full((2, 2, 2), 0.5)
        target = np.ones((2, 2, 2))
        value = soft_dice_loss if loss == "dice" else tversky_loss
        with pytest.raises(ValueError):
            value(pred, target, **params)
        with pytest.raises(ValueError):
            seg_loss_grad(loss, pred, target, **params)

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError, match="'dice' or 'tversky'"):
            seg_loss_grad("jaccard", np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))


class TestMultitaskLoss:
    def test_zero_case(self):
        assert multitask_loss(0.0, 0.0) == 0.0

    def test_sum(self):
        assert multitask_loss(0.3, 0.55) == pytest.approx(0.85, abs=1e-12)

    def test_commutes(self):
        assert multitask_loss(0.2, 0.7) == multitask_loss(0.7, 0.2)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            multitask_loss(float("nan"), 0.0)
        with pytest.raises(NonFiniteError):
            multitask_loss(0.0, float("inf"))


class TestFiniteDifferenceCheck:
    def test_degenerate_contrastive_error_zero(self):
        rng = np.random.default_rng(16)
        rows = rng.standard_normal((2, 6))
        assert finite_difference_check("contrastive", {"batch": rows}) == 0.0

    def test_contrastive_eight_by_sixteen(self):
        rng = np.random.default_rng(17)
        rows = rng.standard_normal((8, 16))
        err = finite_difference_check(
            "contrastive", {"batch": rows, "temperature": 0.5}, eps=1e-4
        )
        assert err < 1e-5

    def test_dice_small_eps(self):
        rng = np.random.default_rng(18)
        pred = rng.uniform(0.1, 0.9, (4, 4, 4))
        target = (rng.random((4, 4, 4)) < 0.5).astype(float)
        err = finite_difference_check(
            "dice", {"pred": pred, "target": target, "smooth": 1.0}, eps=1e-5
        )
        assert err < 1e-5

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_check("entropy", {})


class TestDescentDemo:
    def test_degenerate_batch_flat_zero(self):
        rng = np.random.default_rng(19)
        trajectory = optimize_embeddings_demo(rng.standard_normal((2, 8)), steps=10)
        assert all(record.loss == 0.0 for record in trajectory)

    def test_descent_improves_alignment(self):
        rng = np.random.default_rng(20)
        rows = rng.standard_normal((16, 16))
        trajectory = optimize_embeddings_demo(rows, temperature=0.5, steps=200, step_size=0.5)
        assert len(trajectory) == 201
        assert trajectory[-1].loss < trajectory[0].loss
        assert trajectory[-1].positive_similarity > trajectory[-1].negative_similarity

    def test_deterministic_trajectory(self):
        rng_a = np.random.default_rng(21)
        rng_b = np.random.default_rng(21)
        t_a = optimize_embeddings_demo(rng_a.standard_normal((8, 8)), steps=20)
        t_b = optimize_embeddings_demo(rng_b.standard_normal((8, 8)), steps=20)
        assert t_a == t_b
