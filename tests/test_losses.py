import math

import numpy as np
import pytest

from oracles import alignment_loss, contrastive_loss, task_loss


class TestTaskLoss:
    def test_qe_zero_at_target(self):
        loss, grad = task_loss("qe", 0.5, 0.5)
        assert loss == 0.0
        assert grad == 0.0

    def test_qe_unit_error(self):
        loss, grad = task_loss("qe", 1.0, 0.0)
        assert loss == 1.0
        assert grad == 2.0

    def test_nli_uniform_is_ln3(self):
        loss, grad = task_loss("nli", (1 / 3, 1 / 3, 1 / 3), 0)
        assert loss == pytest.approx(math.log(3.0), abs=1e-12)
        assert grad[0] == pytest.approx(-3.0, abs=1e-12)
        assert grad[1] == grad[2] == 0.0

    def test_label_range_checks(self):
        with pytest.raises(ValueError):
            task_loss("qe", 0.5, 1.2)
        with pytest.raises(ValueError):
            task_loss("nli", (0.3, 0.3, 0.4), 5)
        with pytest.raises(ValueError):
            task_loss("chrf", 0.5, 0.5)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        eps = 1e-6
        for _ in range(50):
            p = rng.uniform(0.05, 0.95)
            y = rng.uniform(0, 1)
            _, grad = task_loss("sts", p, y)
            fd = (task_loss("sts", p + eps, y)[0] - task_loss("sts", p - eps, y)[0]) / (2 * eps)
            assert grad == pytest.approx(fd, abs=1e-6)


class TestContrastiveLoss:
    def test_hinge_boundary_is_zero(self):
        loss, grad = contrastive_loss(1.0, 1, margin=1.0)
        assert loss == 0.0
        assert grad == 0.0

    def test_zero_similarity_negative_is_zero(self):
        loss, grad = contrastive_loss(0.0, 0, margin=1.0)
        assert loss == 0.0
        assert grad == 0.0

    def test_near_margin_positive(self):
        loss, _ = contrastive_loss(0.96, 1, margin=1.0)
        assert loss == pytest.approx(0.0008, abs=1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            d = rng.uniform(-1, 1)
            y = int(rng.integers(0, 2))
            m = rng.uniform(0.05, 1.0)
            loss, _ = contrastive_loss(d, y, m)
            assert loss >= 0.0

    def test_zero_exactly_when_expected(self):
        assert contrastive_loss(0.7, 1, margin=0.7)[0] == 0.0
        assert contrastive_loss(0.9, 1, margin=0.7)[0] == 0.0
        assert contrastive_loss(0.6, 1, margin=0.7)[0] > 0.0
        assert contrastive_loss(0.0, 0, margin=0.7)[0] == 0.0
        assert contrastive_loss(0.1, 0, margin=0.7)[0] > 0.0

    def test_gradient_matches_finite_differences_off_hinge(self):
        rng = np.random.default_rng(2)
        eps = 1e-7
        checked = 0
        while checked < 100:
            d = rng.uniform(-0.99, 0.99)
            y = int(rng.integers(0, 2))
            m = rng.uniform(0.1, 1.0)
            if abs(m - d) < 1e-3:  # documented non-differentiable point
                continue
            _, grad = contrastive_loss(d, y, m)
            fd = (contrastive_loss(d + eps, y, m)[0] - contrastive_loss(d - eps, y, m)[0]) / (2 * eps)
            assert grad == pytest.approx(fd, abs=1e-6)
            checked += 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            contrastive_loss(0.5, 2, 1.0)
        with pytest.raises(ValueError):
            contrastive_loss(1.5, 1, 1.0)
        with pytest.raises(ValueError):
            contrastive_loss(0.5, 1, 0.0)


class TestAlignmentLoss:
    def test_identical_pairs_zero(self):
        rng = np.random.default_rng(3)
        pairs = [(v, v.copy()) for v in rng.normal(size=(4, 6))]
        loss, grads = alignment_loss(pairs)
        assert loss == pytest.approx(0.0, abs=1e-12)
        for g in grads:
            assert np.allclose(g, 0.0, atol=1e-12)

    def test_orthogonal_pair_contributes_one(self):
        loss, _ = alignment_loss([(np.array([1.0, 0.0]), np.array([0.0, 1.0]))])
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_sum_of_cosine_gaps(self):
        # cosines 0.5 and 1.0 -> loss 0.5
        x1 = np.array([1.0, 0.0])
        y1 = np.array([0.5, math.sqrt(3) / 2])
        x2 = np.array([2.0, 2.0])
        y2 = np.array([1.0, 1.0])
        loss, _ = alignment_loss([(x1, y1), (x2, y2)])
        assert loss == pytest.approx(0.5, abs=1e-12)

    def test_zero_norm_member_convention(self):
        loss, grads = alignment_loss([(np.zeros(3), np.ones(3))])
        assert loss == 1.0
        assert np.array_equal(grads[0], np.zeros(3))

    def test_bounded_by_two_per_pair(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            pairs = [(rng.normal(size=4), rng.normal(size=4)) for _ in range(k)]
            loss, _ = alignment_loss(pairs)
            assert 0.0 <= loss <= 2.0 * k

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        eps = 1e-6
        pairs = [(rng.normal(size=5), rng.normal(size=5)) for _ in range(5)]
        _, grads = alignment_loss(pairs)
        for which, (x, y) in enumerate(pairs):
            for k in range(len(x)):
                bumped_up = [(
                    x + eps * np.eye(len(x))[k] if i == which else xi, yi
                ) for i, (xi, yi) in enumerate(pairs)]
                bumped_down = [(
                    x - eps * np.eye(len(x))[k] if i == which else xi, yi
                ) for i, (xi, yi) in enumerate(pairs)]
                fd = (alignment_loss(bumped_up)[0] - alignment_loss(bumped_down)[0]) / (2 * eps)
                assert grads[which][k] == pytest.approx(fd, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            alignment_loss([(np.zeros(3), np.zeros(4))])
