"""Majority-class baseline and its closed-form scores under imbalance."""

from fractions import Fraction

import numpy as np
import pytest

from flowgate.errors import DataError
from flowgate.metrics import confusion_matrix, evaluate
from flowgate.models.baseline import majority_baseline, predict_baseline

from conftest import make_table


def _imbalanced(n0: int, n1: int):
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return make_table(np.arange(y.size, dtype=np.float64)[:, None], y)


def test_picks_most_frequent_class():
    model = majority_baseline(_imbalanced(30, 70))
    assert model.majority_class == 1
    assert model.train_ratio == 0.7


def test_tie_goes_to_lowest_class_id():
    model = majority_baseline(_imbalanced(50, 50))
    assert model.majority_class == 0


def test_predict_is_constant():
    model = majority_baseline(_imbalanced(3, 1))
    out = predict_baseline(model, np.zeros((5, 1)))
    assert out.tolist() == [0, 0, 0, 0, 0]
    table = _imbalanced(2, 2)
    assert model.predict(table).tolist() == [0, 0, 0, 0]


def test_closed_forms_at_four_fifths():
    # test share r = 4/5: accuracy r, precision r^2, recall r, f1 2r^2/(1+r)
    train = _imbalanced(80, 20)
    test = _imbalanced(40, 10)
    model = majority_baseline(train)
    report = evaluate(
        confusion_matrix(test.labels, model.predict(test), test.n_classes)
    )
    r = Fraction(4, 5)
    assert report.accuracy == float(r)
    assert report.precision == float(r * r)
    assert report.recall == float(r)
    assert report.f1 == float(2 * r * r / (1 + r))
    assert report.f1 == pytest.approx(0.7111111111111111, abs=0.0)


def test_closed_forms_hold_for_any_share():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n0 = int(rng.integers(2, 400))
        n1 = int(rng.integers(1, n0))
        test = _imbalanced(n0, n1)
        model = majority_baseline(test)
        report = evaluate(
            confusion_matrix(test.labels, model.predict(test), test.n_classes)
        )
        r = Fraction(n0, n0 + n1)
        assert report.accuracy == float(r)
        assert report.precision == float(r * r)
        assert report.f1 == float(2 * r * r / (1 + r))


def test_empty_train_rejected():
    table = make_table(np.zeros((0, 1)), np.zeros(0, dtype=np.int64), ("a",))
    with pytest.raises(DataError):
        majority_baseline(table)
