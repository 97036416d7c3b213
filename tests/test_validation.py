import tracemalloc

import numpy as np
import pytest

from qemine.corpus import NLIRecord, QERecord, STSRecord
from qemine.errors import NotFittedError
from qemine.validation import (
    all_finite,
    as_nli_data,
    as_pair_scores,
    as_text_pairs,
    check_is_fitted,
)


class TestAllFinite:
    def test_finite_arrays(self):
        assert all_finite(np.arange(6.0).reshape(2, 3))
        assert all_finite(np.zeros(0, np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rejects_each_non_finite_value(self, bad, dtype):
        values = np.ones((3, 5), dtype)
        values[1, 3] = bad
        assert not all_finite(values)
        assert not all_finite(values.T)

    def test_finite_entries_whose_sum_overflows(self):
        # the tests turn numpy's overflow warning into an error
        assert all_finite(np.full(4, 3e38, np.float32))
        assert all_finite(np.array([np.finfo(np.float64).max] * 2 + [-np.finfo(np.float64).max]))

    def test_allocates_no_mask_for_finite_entries(self):
        values = np.ones((1000, 1000), np.float32)
        tracemalloc.start()
        try:
            assert all_finite(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.size // 10


class TestAsTextPairs:
    def test_accepts_records_and_tuples(self):
        items = [
            QERecord("src", "tgt", 0.5),
            STSRecord("s1", "s2", 0.4),
            NLIRecord("p", "h", 1),
            ("plain a", "plain b"),
        ]
        assert as_text_pairs(items) == (
            ["src", "s1", "p", "plain a"], ["tgt", "s2", "h", "plain b"]
        )

    def test_rejects_a_bare_string(self):
        # one pair passed flat is two strings, not two pairs
        with pytest.raises(ValueError, match="item 0 must be"):
            as_text_pairs(["source sentence", "target sentence"])


class TestAsPairScores:
    def test_qe_records(self):
        a, b, y = as_pair_scores([QERecord("x", "y", 0.25)])
        assert (a, b) == (["x"], ["y"])
        assert y.dtype == np.float64
        assert y[0] == 0.25

    def test_sts_records_use_similarity(self):
        _, _, y = as_pair_scores([STSRecord("x", "y", 0.8)])
        assert y[0] == 0.8

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            as_pair_scores([("a", "b", 1.5)])

    @pytest.mark.parametrize("item", [("a", "b"), NLIRecord("p", "h", 1)],
                             ids=["2-tuple", "NLIRecord"])
    def test_rejects_an_item_without_a_score(self, item):
        with pytest.raises(ValueError, match="item 1 must be a QERecord/STSRecord"):
            as_pair_scores([("x", "y", 0.5), item])

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, score):
        # NaN passes any < or > bound check, so it must be rejected as such
        with pytest.raises(ValueError, match=rf"got {score!r} for pair 1"):
            as_pair_scores([("a", "b", 0.5), ("c", "d", score)])


class TestAsNliData:
    def test_labels_validated(self):
        _, _, labels = as_nli_data([NLIRecord("p", "h", 2), ("x", "y", 0)])
        assert labels.tolist() == [2, 0]
        with pytest.raises(ValueError):
            as_nli_data([("x", "y", 9)])

    def test_rejects_a_fractional_label(self):
        with pytest.raises(ValueError, match="got 1.7 for pair 1"):
            as_nli_data([("x", "y", 0), ("p", "h", 1.7)])


class TestCheckIsFitted:
    def test_raises_with_estimator_name(self):
        class Thing:
            encoder_ = None

        with pytest.raises(NotFittedError, match="Thing"):
            check_is_fitted(Thing(), "encoder_")

    def test_passes_when_set(self):
        class Thing:
            encoder_ = object()

        check_is_fitted(Thing(), "encoder_")
