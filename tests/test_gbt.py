"""Boosted trees: prior start, gradient steps, shift invariance."""

import numpy as np
import pytest

from flowgate.errors import DataError
from flowgate.models.gbt import (
    GbtParams,
    _grow_regression,
    fit_gbt,
    predict_gbt,
    predict_scores,
)

from conftest import conflict_free_table, make_table


def _two_blob_table(n_per, rng, d=2, gap=4.0):
    X = np.concatenate(
        [rng.normal(-gap / 2, 1, size=(n_per, d)), rng.normal(gap / 2, 1, size=(n_per, d))]
    )
    y = np.concatenate([np.zeros(n_per, dtype=np.int64), np.ones(n_per, dtype=np.int64)])
    return make_table(X, y)


def test_zero_rounds_predicts_the_prior_argmax():
    y = np.array([0, 0, 0, 1])
    table = make_table(np.arange(4, dtype=np.float64)[:, None], y)
    model = fit_gbt(table, GbtParams(n_rounds=0))
    assert predict_gbt(model, table).tolist() == [0, 0, 0, 0]


def test_zero_learning_rate_never_moves_off_the_prior():
    table = conflict_free_table(50, 2, 2, seed=1)
    model = fit_gbt(table, GbtParams(n_rounds=5, learning_rate=0.0))
    majority = int(np.argmax(np.bincount(table.labels)))
    assert predict_gbt(model, table).tolist() == [majority] * 50


def test_balanced_classes_start_from_equal_base_scores():
    y = np.array([0, 1, 0, 1])
    table = make_table(np.arange(4, dtype=np.float64)[:, None], y)
    model = fit_gbt(table, GbtParams(n_rounds=0))
    assert model.base_score[0] == model.base_score[1]


def test_one_shallow_round_separates_a_clean_boundary():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    model = fit_gbt(X, GbtParams(n_rounds=1, max_depth=1), labels=y)
    assert predict_gbt(model, X).tolist() == [0, 0, 1, 1]


def test_more_rounds_do_not_hurt_training_accuracy_much():
    rng = np.random.default_rng(8)
    table = _two_blob_table(100, rng)
    few = fit_gbt(table, GbtParams(n_rounds=2))
    many = fit_gbt(table, GbtParams(n_rounds=20))
    acc_few = float(np.mean(predict_gbt(few, table) == table.labels))
    acc_many = float(np.mean(predict_gbt(many, table) == table.labels))
    assert acc_many >= acc_few - 1e-12
    assert acc_many >= 0.97


@pytest.mark.filterwarnings("error")
def test_zero_lambda_saturated_boosting_raises_no_warning():
    # learning rate 1 without regularization drives hessians to exactly 0
    rng = np.random.default_rng(0)
    table = _two_blob_table(40, rng)
    model = fit_gbt(table, GbtParams(n_rounds=30, learning_rate=1.0, l2_lambda=0.0))
    assert predict_gbt(model, table).tolist() == table.labels.tolist()


@pytest.mark.filterwarnings("error")
def test_zero_hessian_side_scores_zero_and_keeps_the_best_split():
    # the first boundary leaves a zero-hessian row alone on the left (0/0);
    # its term scores 0, so the best split at 2.5 is still found
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    g = np.array([0.0, -1.0, -1.0, 1.0])
    h = np.array([0.0, 1.0, 1.0, 1.0])
    root = _grow_regression(X, g, h, max_depth=1, lam=0.0)
    assert (root.feature, root.threshold) == (0, 2.5)


def test_feature_shift_leaves_predictions_unchanged():
    rng = np.random.default_rng(5)
    table = _two_blob_table(60, rng)
    model = fit_gbt(table, GbtParams(n_rounds=5))
    shifted = make_table(table.feature_matrix() + 1000.0, table.labels)
    model_shifted = fit_gbt(shifted, GbtParams(n_rounds=5))
    assert np.array_equal(
        predict_gbt(model, table), predict_gbt(model_shifted, shifted)
    )


def test_scores_have_one_column_per_class():
    table = conflict_free_table(30, 2, 3, seed=3)
    model = fit_gbt(table, GbtParams(n_rounds=2))
    scores = predict_scores(model, table)
    assert scores.shape == (30, 3)
    assert np.array_equal(np.argmax(scores, axis=1), predict_gbt(model, table))


def test_deterministic_without_any_seed():
    table = conflict_free_table(80, 3, 2, seed=7)
    a = fit_gbt(table, GbtParams(n_rounds=4))
    b = fit_gbt(table, GbtParams(n_rounds=4))
    assert np.array_equal(predict_scores(a, table), predict_scores(b, table))


def test_params_validation():
    with pytest.raises(DataError):
        GbtParams(n_rounds=-1)
    with pytest.raises(DataError):
        GbtParams(learning_rate=1.5)
    with pytest.raises(DataError):
        GbtParams(max_depth=0)
    with pytest.raises(DataError):
        GbtParams(l2_lambda=-1.0)


def test_width_mismatch_rejected():
    table = conflict_free_table(20, 2, 2, seed=0)
    model = fit_gbt(table, GbtParams(n_rounds=1))
    with pytest.raises(DataError):
        predict_gbt(model, np.zeros((3, 5)))
