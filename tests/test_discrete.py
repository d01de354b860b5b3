import dataclasses
import itertools
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurious_lens import DiscreteConfig, run_discrete_experiment
from spurious_lens import discrete
from spurious_lens.cli import _json_data
from spurious_lens.discrete import (
    DiscreteDataset,
    LinearClassifier,
    Split,
    SplitReport,
    evaluate_splits,
    sample_discrete_dataset,
    train_contrastive_perfect,
    train_supervised,
)
from spurious_lens.errors import (ConfigError, InsufficientDataError, NonconvergenceError,
                                  ParseError)
from spurious_lens.inputs import load_config, read_text
from spurious_lens.synthetic import MAX_SAMPLES

from newton_reference import row_major_minimize

BASE = DiscreteConfig(num_classes=2, p_inv=0.75, p_spu=0.9, n_train=3000)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def chi2_pvalue(chi2: float, dof: int) -> float:
    return float(mpmath.gammainc(dof / 2, chi2 / 2, mpmath.inf, regularized=True))


def draw_test_splits(config, n_test, seed):
    return (sample_discrete_dataset(config, Split.RAND, seed, size=n_test),
            sample_discrete_dataset(config, Split.REV, seed, size=n_test))


def colors_of(data):
    """Each row's color, read from its exact one-hot color block."""
    return data.features[:, data.config.num_classes:].argmax(axis=1)


def cross_entropy(weights, x, labels):
    """Mean cross-entropy of the logits x W^T at labels, with its gradient in
    W and the softmax probabilities, row by row."""
    n = x.shape[0]
    logits = x @ weights.T
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    z = exp.sum(axis=1, keepdims=True)
    idx = np.arange(n)
    loss = float(np.mean(np.log(z[:, 0]) - logits[idx, labels]))
    p = exp / z
    residual = p.copy()
    residual[idx, labels] -= 1.0
    return loss, residual.T @ x / n, p


def objective(weights, x, labels):
    """The trainers' objective, cross-entropy plus RIDGE/2 ||W||^2, and its gradient."""
    loss, grad, _ = cross_entropy(weights, x, labels)
    return (loss + discrete.RIDGE / 2 * float(np.sum(weights ** 2)),
            grad + discrete.RIDGE * weights)


def dense_newton(x, labels, k):
    """The objective's minimizer by Newton's method on the full Hessian,
    solved by np.linalg.solve, with step halving: the reference for
    discrete._minimize at small k."""
    n, d = x.shape
    w = np.zeros((k, d))
    for _ in range(100):
        loss, grad = objective(w, x, labels)
        if np.linalg.norm(grad) <= 1e-13:
            break
        p = cross_entropy(w, x, labels)[2]
        # H[(a, b), (c, e)] = sum_i (p_ia [a = c] - p_ia p_ic) x_ib x_ie / n + RIDGE [a = c, b = e]
        curvature = np.einsum("ia,ac->iac", p, np.eye(k)) - np.einsum("ia,ic->iac", p, p)
        hessian = np.einsum("iac,ib,ie->abce", curvature, x, x).reshape(k * d, k * d) / n
        hessian += discrete.RIDGE * np.eye(k * d)
        step = np.linalg.solve(hessian, -grad.ravel()).reshape(k, d)
        t = 1.0
        while objective(w + t * step, x, labels)[0] > loss and t > 1e-12:
            t /= 2
        w = w + t * step
    return w


class TestConfig:
    def test_defaults(self):
        assert BASE.feature_dim == 4
        assert BASE.feature_noise == 0.1

    def test_one_color_per_class(self):
        cfg = DiscreteConfig(num_classes=5, p_inv=0.75, p_spu=0.2, n_train=100)
        assert cfg.feature_dim == 10

    @pytest.mark.parametrize("kwargs", [
        dict(num_classes=1),
        dict(p_inv=0.5),                         # at the 1/k chance floor
        dict(p_inv=1.1),
        dict(p_spu=0.4),                         # below 1/k
        dict(num_classes=3, p_spu=0.3),
        dict(p_spu=1.01),
        dict(n_train=0),
        dict(feature_noise=-0.1),
    ])
    def test_rejections(self, kwargs):
        base = dict(num_classes=2, p_inv=0.75, p_spu=0.9, n_train=100)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            DiscreteConfig(**base)

    # k = 2 classes and 2 colors take 32 bytes a row
    @pytest.mark.parametrize("kwargs,named", [
        (dict(num_classes=MAX_SAMPLES + 1), "num_classes must be <= 9223372036854775807"),
        (dict(n_train=MAX_SAMPLES + 1), "n_train must be <= 9223372036854775807"),
        (dict(num_classes=10**18), "training features would take"),
        (dict(n_train=MAX_SAMPLES // 32 + 1), "training features would take"),
    ])
    def test_rejects_sizes_numpy_cannot_represent(self, kwargs, named):
        base = dict(num_classes=2, p_inv=0.75, p_spu=0.9, n_train=30)
        base.update(kwargs)
        with pytest.raises(ConfigError, match=named):
            DiscreteConfig(**base)

    def test_admits_the_largest_representable_training_split(self):
        # a config allocates nothing; this one's training features would
        # take just under 2**63 bytes
        cfg = DiscreteConfig(num_classes=2, p_inv=0.75, p_spu=0.9, n_train=MAX_SAMPLES // 32)
        assert cfg.n_train * cfg.feature_dim * 8 <= MAX_SAMPLES

    def test_json_round_trip(self):
        cfg = DiscreteConfig(num_classes=3, p_inv=0.8, p_spu=0.75, n_train=500, seed=9)
        text = json.dumps(_json_data(cfg))
        assert load_config(DiscreteConfig, text) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseError):
            load_config(DiscreteConfig, json.dumps(
                {"num_classes": 2, "p_inv": 0.75, "p_spu": 0.9,
                 "n_train": 10, "colour": 1}))

    def test_bad_json_rejected(self):
        with pytest.raises(ParseError):
            load_config(DiscreteConfig, "{not json")

    def test_non_object_rejected(self):
        with pytest.raises(ParseError):
            load_config(DiscreteConfig, "[1, 2]")

    def test_missing_required_field(self):
        with pytest.raises(ParseError):
            load_config(DiscreteConfig, '{"num_classes": 2}')

    @pytest.mark.parametrize("field,value", [
        *((name, True) for name in ("num_classes", "p_inv", "p_spu", "n_train",
                                    "feature_noise", "seed")),
        *((name, 3.0) for name in ("num_classes", "n_train", "seed")),
    ])
    def test_loader_rejects_mistyped_field(self, field, value):
        obj = {"num_classes": 3, "p_inv": 0.75, "p_spu": 0.9, "n_train": 10,
               field: value}
        with pytest.raises(ParseError, match=rf"\b{field}\b"):
            load_config(DiscreteConfig, json.dumps(obj))

    @pytest.mark.parametrize("value", [[0, 1], [2, 1]])
    @pytest.mark.parametrize("field", ["biased_classes", "biased_colors"])
    def test_loader_rejects_removed_bias_field(self, field, value):
        # the biased pair is the constant discrete.BIASED: a config that sets
        # it is rejected, even at the old default (0, 1)
        obj = {"num_classes": 3, "p_inv": 0.75, "p_spu": 0.9, "n_train": 10,
               field: value}
        with pytest.raises(ParseError, match=rf"unknown config fields: \['{field}'\]"):
            load_config(DiscreteConfig, json.dumps(obj))

    @pytest.mark.parametrize("value", [None, 3, 5])
    def test_loader_rejects_removed_num_colors(self, value):
        # there are as many colors as classes: a config that sets the count is
        # rejected, even at the old default, null or num_classes
        obj = {"num_classes": 3, "p_inv": 0.75, "p_spu": 0.9, "n_train": 10,
               "num_colors": value}
        with pytest.raises(ParseError, match=r"unknown config fields: \['num_colors'\]"):
            load_config(DiscreteConfig, json.dumps(obj))

    def test_loader_keeps_integer_for_float_field(self):
        cfg = load_config(DiscreteConfig, json.dumps(
            {"num_classes": 3, "p_inv": 1, "p_spu": 0.9, "n_train": 10}))
        assert type(cfg.p_inv) is int


class TestSampling:
    def test_shapes_and_dtypes(self):
        data = sample_discrete_dataset(BASE, Split.TRAIN, seed=0, size=50)
        assert data.features.shape == (50, BASE.feature_dim)
        assert data.object_labels.shape == (50,)
        assert len(data) == 50

    @pytest.mark.parametrize("split", list(Split))
    def test_features_are_stored_feature_major(self, split):
        # the minimizer reads features.T, which must then be a view, not a copy
        data = sample_discrete_dataset(BASE, split, seed=0, size=50)
        assert data.features.T.flags.c_contiguous

    def test_size_defaults_to_n_train(self):
        data = sample_discrete_dataset(BASE, Split.TRAIN, seed=0)
        assert len(data) == BASE.n_train

    def test_size_must_be_positive(self):
        with pytest.raises(ConfigError):
            sample_discrete_dataset(BASE, Split.TRAIN, seed=0, size=0)

    def test_deterministic_and_seed_sensitive(self):
        a = sample_discrete_dataset(BASE, Split.TRAIN, seed=11, size=200)
        b = sample_discrete_dataset(BASE, Split.TRAIN, seed=11, size=200)
        c = sample_discrete_dataset(BASE, Split.TRAIN, seed=12, size=200)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_splits_draw_distinct_streams(self):
        rand = sample_discrete_dataset(BASE, Split.RAND, seed=5, size=300)
        rev = sample_discrete_dataset(BASE, Split.REV, seed=5, size=300)
        assert not np.array_equal(rand.object_labels, rev.object_labels) or \
            not np.array_equal(colors_of(rand), colors_of(rev))

    def test_noiseless_faithful_object_block_is_exact_one_hot(self):
        cfg = DiscreteConfig(num_classes=3, p_inv=1.0, p_spu=0.9,
                             n_train=500, feature_noise=0.0)
        data = sample_discrete_dataset(cfg, Split.TRAIN, seed=1)
        obj = data.features[:, :3]
        expected = np.eye(3)[data.object_labels]
        assert np.array_equal(obj, expected)
        color = data.features[:, 3:]
        assert np.array_equal(color, np.eye(3)[colors_of(data)])

    def test_object_flip_rate_matches_p_inv(self):
        cfg = DiscreteConfig(num_classes=4, p_inv=0.8, p_spu=0.25,
                             n_train=60_000, feature_noise=0.0)
        data = sample_discrete_dataset(cfg, Split.TRAIN, seed=3)
        shown = data.features[:, :4].argmax(axis=1)
        faithful = (shown == data.object_labels).mean()
        assert 0.794 <= faithful <= 0.806
        # flips never land on the true class
        flipped = shown != data.object_labels
        assert flipped.any()

    def test_train_bias_rate(self):
        cfg = DiscreteConfig(num_classes=2, p_inv=0.75, p_spu=0.9, n_train=100_000)
        data = sample_discrete_dataset(cfg, Split.TRAIN, seed=2)
        for cls in discrete.BIASED:  # each biased class carries its own color
            hits = colors_of(data)[data.object_labels == cls] == cls
            assert 0.894 <= hits.mean() <= 0.906

    def test_train_miss_avoids_biased_color(self):
        cfg = DiscreteConfig(num_classes=4, p_inv=0.75, p_spu=0.5, n_train=40_000)
        data = sample_discrete_dataset(cfg, Split.TRAIN, seed=8)
        mask = data.object_labels == 0
        rate = (colors_of(data)[mask] == 0).mean()
        # misses shift off color 0, so the hit rate is exactly p_spu in law
        assert abs(rate - 0.5) < 0.02

    def test_rev_bias_swaps_colors(self):
        cfg = DiscreteConfig(num_classes=2, p_inv=0.75, p_spu=0.9, n_train=60_000)
        data = sample_discrete_dataset(cfg, Split.REV, seed=6)
        swapped_rate = (colors_of(data)[data.object_labels == 0] == 1).mean()
        assert 0.89 <= swapped_rate <= 0.91

    def test_rand_colors_uniform_per_class(self):
        cfg = DiscreteConfig(num_classes=3, p_inv=0.8, p_spu=0.9, n_train=30_000)
        data = sample_discrete_dataset(cfg, Split.RAND, seed=123)
        for cls in range(3):
            counts = np.bincount(colors_of(data)[data.object_labels == cls],
                                 minlength=3)
            expected = counts.sum() / 3
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            assert chi2_pvalue(chi2, dof=2) > 0.01

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           split=st.sampled_from(list(Split)))
    def test_color_block_always_one_hot(self, seed, split):
        data = sample_discrete_dataset(BASE, split, seed=seed, size=64)
        color = data.features[:, BASE.num_classes:]
        assert np.array_equal(color.sum(axis=1), np.ones(64))
        assert set(np.unique(color)) <= {0.0, 1.0}


class TestLossAndTraining:
    def test_minimizer_beats_zero_weights(self):
        # the objective at W = 0 is log k
        data = sample_discrete_dataset(BASE, Split.TRAIN, seed=0, size=128)
        x, y = data.features, data.object_labels
        assert objective(np.zeros((2, BASE.feature_dim)), x, y)[0] == pytest.approx(
            math.log(2), abs=1e-12)
        trained = train_supervised(data).weights
        assert objective(trained, x, y)[0] < math.log(2)

    def test_gradient_matches_finite_differences(self):
        # the oracle of the gradient tests below
        rng = np.random.default_rng(0)
        data = sample_discrete_dataset(BASE, Split.TRAIN, seed=1, size=20)
        x, y = data.features, data.object_labels
        w = rng.normal(size=(2, BASE.feature_dim))
        grad = objective(w, x, y)[1]
        eps = 1e-6
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                bump = np.zeros_like(w)
                bump[i, j] = eps
                fd = (objective(w + bump, x, y)[0] - objective(w - bump, x, y)[0]) / (2 * eps)
                assert abs(fd - grad[i, j]) <= 1e-5

    def test_separable_problem_fits_to_high_accuracy(self):
        cfg = DiscreteConfig(num_classes=3, p_inv=1.0, p_spu=1 / 3,
                             n_train=600, feature_noise=0.0)
        data = sample_discrete_dataset(cfg, Split.TRAIN, seed=4)
        model = train_supervised(data)
        acc = (model.predict(data.features) == data.object_labels).mean()
        assert acc >= 0.99

    def test_object_head_is_the_supervised_model(self):
        # disjoint heads with an additive objective: the object head's
        # minimizer is the supervised one
        data = sample_discrete_dataset(BASE, Split.TRAIN, seed=7, size=400)
        assert np.array_equal(train_contrastive_perfect(data).weights,
                              train_supervised(data).weights)

    @pytest.mark.parametrize("trainer", [train_supervised, train_contrastive_perfect])
    def test_trainers_take_no_generator(self, trainer):
        # a minimizer has no start to draw
        data = sample_discrete_dataset(BASE, Split.TRAIN, seed=0, size=50)
        with pytest.raises(TypeError):
            trainer(data, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_label_out_of_range_rejected(self, bad):
        x = np.eye(3, BASE.feature_dim)
        for objects in (np.array([0, bad, 1]), np.array([0, 1])):
            with pytest.raises(ConfigError):
                DiscreteDataset(BASE, Split.TRAIN, x, object_labels=objects)


def grid_splits(num_classes):
    """Training splits over p_inv, feature_noise and seed at n_train 3000."""
    for p_inv, noise, seed in itertools.product((0.75, 1.0), (0.0, 0.1, 1.0), (0, 1)):
        cfg = DiscreteConfig(num_classes=num_classes, p_inv=p_inv, p_spu=0.9,
                             n_train=3000, feature_noise=noise)
        yield (p_inv, noise, seed), sample_discrete_dataset(cfg, Split.TRAIN, seed=seed)


class TestMinimizer:
    """The oracle is the objective itself: its gradient vanishes at the
    returned weights, which a dense Newton solve and the row-major,
    unpreconditioned kernel (tests/newton_reference.py) reproduce."""

    @pytest.mark.parametrize("num_classes", [2, 3, 5, 12])
    def test_gradient_vanishes(self, num_classes):
        # k = 12 at p_spu 0.9 leaves (class, color) training cells empty, and
        # p_inv = 1 makes the classes separable: only the ridge bounds W there
        for case, data in grid_splits(num_classes):
            w = train_supervised(data).weights
            grad = objective(w, data.features, data.object_labels)[1]
            assert np.linalg.norm(grad) <= 1e-9, case

    @pytest.mark.parametrize("num_classes", [2, 3, 5, 12])
    def test_matches_the_row_major_kernel(self, num_classes):
        # the objective is RIDGE-strongly convex, so two points whose
        # gradients are g and g' lie within (||g|| + ||g'||) / RIDGE of each
        # other; the largest gap seen is 2.1e-10, at k = 12, p_inv 1,
        # noise 0, seed 1, where the reference stops at ||g'|| = 6.6e-14
        for case, data in grid_splits(num_classes):
            x, labels = data.features, data.object_labels
            w = discrete._minimize(x, labels, num_classes)
            want = row_major_minimize(x, labels, num_classes)
            gaps = [np.linalg.norm(objective(v, x, labels)[1]) for v in (w, want)]
            assert np.linalg.norm(w - want) <= sum(gaps) / discrete.RIDGE, case
            assert np.abs(w - want).max() <= 1e-9, case

    @pytest.mark.parametrize("num_classes", [2, 5, 12])
    def test_row_major_features_give_the_same_bits(self, num_classes):
        # both layouts give the minimizer the same d x n operand
        for case, data in grid_splits(num_classes):
            x, labels = data.features, data.object_labels
            assert np.array_equal(discrete._minimize(x, labels, num_classes),
                                  discrete._minimize(np.ascontiguousarray(x), labels,
                                                     num_classes)), case

    @pytest.mark.parametrize("p_inv,noise", [(0.75, 0.1), (1.0, 0.0), (0.75, 1.0)])
    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_matches_dense_newton(self, num_classes, p_inv, noise):
        cfg = DiscreteConfig(num_classes=num_classes, p_inv=p_inv, p_spu=0.9,
                             n_train=1000, feature_noise=noise)
        data = sample_discrete_dataset(cfg, Split.TRAIN, seed=2)
        want = dense_newton(data.features, data.object_labels, num_classes)
        assert np.abs(train_supervised(data).weights - want).max() <= 1e-8

    def test_ends_where_the_gradient_stops_falling(self, monkeypatch):
        # at ridge 1e-3 on this noiseless separable split the ninth step starts
        # at a gradient norm of 3.2e-10 and predicts a decrease of 2.1e-17
        # against an objective of 0.017: a stop at ||g|| <= 1e-10 would leave a
        # line search to backtrack on rounding noise, and the decrement stop
        # ends the descent there
        monkeypatch.setattr(discrete, "RIDGE", 1e-3)
        cfg = DiscreteConfig(num_classes=2, p_inv=1.0, p_spu=0.9, n_train=3000,
                             feature_noise=0.0)
        data = sample_discrete_dataset(cfg, Split.TRAIN, seed=0)
        w = train_supervised(data).weights
        assert np.linalg.norm(objective(w, data.features, data.object_labels)[1]) <= 1e-9

    def test_newton_steps_are_bounded(self, monkeypatch):
        # with no decrement stop the floor case above keeps taking steps that
        # leave the objective unchanged: the Armijo test's slack rounds away
        monkeypatch.setattr(discrete, "RIDGE", 1e-3)
        monkeypatch.setattr(discrete, "_DECREMENT", 0.0)
        cfg = DiscreteConfig(num_classes=2, p_inv=1.0, p_spu=0.9, n_train=3000,
                             feature_noise=0.0)
        data = sample_discrete_dataset(cfg, Split.TRAIN, seed=0)
        with pytest.raises(NonconvergenceError,
                           match=r"^the descent did not end within 50 Newton steps$"):
            train_supervised(data)

    @pytest.mark.parametrize("num_classes", [2, 5, 12])
    def test_singular_gram_matrix(self, num_classes):
        # an all-zero and a duplicated feature column make X^T X singular;
        # only RIDGE keeps the preconditioner's d x d matrix invertible
        cfg = DiscreteConfig(num_classes=num_classes, p_inv=0.75, p_spu=0.9, n_train=1000)
        data = sample_discrete_dataset(cfg, Split.TRAIN, seed=3)
        x = np.column_stack([data.features, np.zeros(len(data)), data.features[:, 1]])
        assert np.linalg.matrix_rank(x.T @ x) < x.shape[1]
        w = discrete._minimize(x, data.object_labels, num_classes)
        assert np.linalg.norm(objective(w, x, data.object_labels)[1]) <= 1e-9
        assert np.abs(w.sum(axis=0)).max() <= 1e-12
        # the ridge alone acts on a weight whose feature is always 0
        assert not w[:, -2].any()

    @pytest.mark.parametrize("num_classes", [2, 3, 5, 12])
    def test_weights_sum_to_zero_over_classes(self, num_classes):
        # the softmax ignores a shift shared by all rows of W and the ridge
        # does not, so the minimizer is the representative whose rows sum to 0
        cfg = DiscreteConfig(num_classes=num_classes, p_inv=0.75, p_spu=0.9, n_train=1000)
        w = train_supervised(sample_discrete_dataset(cfg, Split.TRAIN, seed=3)).weights
        assert np.abs(w.sum(axis=0)).max() <= 1e-12

    @pytest.mark.parametrize("num_classes", [2, 5])
    def test_row_order_does_not_move_the_minimizer(self, num_classes):
        cfg = DiscreteConfig(num_classes=num_classes, p_inv=0.75, p_spu=0.9, n_train=1000)
        data = sample_discrete_dataset(cfg, Split.TRAIN, seed=3)
        order = np.random.default_rng(0).permutation(len(data))
        shuffled = discrete._minimize(data.features[order], data.object_labels[order],
                                      num_classes)
        assert np.abs(shuffled - train_supervised(data).weights).max() <= 1e-12

    @pytest.mark.parametrize("num_classes", [3, 5])
    def test_relabelled_classes_permute_the_weight_rows(self, num_classes):
        cfg = DiscreteConfig(num_classes=num_classes, p_inv=0.75, p_spu=0.9, n_train=1000)
        data = sample_discrete_dataset(cfg, Split.TRAIN, seed=3)
        relabel = np.random.default_rng(1).permutation(num_classes)
        w = discrete._minimize(data.features, relabel[data.object_labels], num_classes)
        assert np.abs(w[relabel] - train_supervised(data).weights).max() <= 1e-12

    def test_duplicated_rows_keep_the_minimizer(self):
        # the objective takes the mean cross-entropy, so it does not move
        data = sample_discrete_dataset(BASE, Split.TRAIN, seed=3, size=1000)
        w = discrete._minimize(np.vstack([data.features] * 2),
                               np.concatenate([data.object_labels] * 2), 2)
        assert np.abs(w - train_supervised(data).weights).max() <= 1e-12

    @pytest.mark.parametrize("num_classes", [2, 5])
    def test_badly_scaled_features_still_converge(self, num_classes):
        # features 1000 times larger stretch the Hessian's spread of
        # eigenvalues a million-fold, and the gradient's scale a thousand-fold
        cfg = DiscreteConfig(num_classes=num_classes, p_inv=0.75, p_spu=0.9, n_train=1000)
        data = sample_discrete_dataset(cfg, Split.TRAIN, seed=3)
        x = 1e3 * data.features
        with np.errstate(all="raise"):
            w = discrete._minimize(x, data.object_labels, num_classes)
        assert np.linalg.norm(objective(w, x, data.object_labels)[1]) <= 1e-6

    def test_featureless_rows_give_zero_weights(self):
        # the gradient at W = 0 is then 0: the first step predicts no decrease
        labels = np.arange(10) % 3
        assert np.array_equal(discrete._minimize(np.zeros((10, 6)), labels, 3),
                              np.zeros((3, 6)))

    @pytest.mark.parametrize("rows", [1, 300])
    def test_one_class_present(self, rows):
        # the cross-entropy alone has no minimizer when every row has one
        # label; the ridge gives the objective one, which predicts that label
        cfg = DiscreteConfig(num_classes=3, p_inv=0.75, p_spu=0.9, n_train=rows)
        x = sample_discrete_dataset(cfg, Split.TRAIN, seed=3).features
        labels = np.full(rows, 2)
        w = discrete._minimize(x, labels, 3)
        assert np.linalg.norm(objective(w, x, labels)[1]) <= 1e-9
        assert np.array_equal(LinearClassifier(w).predict(x), labels)

    def test_larger_ridge_shrinks_the_weights(self, monkeypatch):
        # ||W|| of a ridge minimizer does not grow with the ridge
        data = sample_discrete_dataset(BASE, Split.TRAIN, seed=3, size=300)
        norms = []
        for ridge in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
            monkeypatch.setattr(discrete, "RIDGE", ridge)
            norms.append(np.linalg.norm(train_supervised(data).weights))
        assert norms == sorted(norms, reverse=True)
        assert norms[-1] < norms[0]

    def test_failed_line_search_names_its_step(self):
        # a NaN feature makes every trial objective NaN
        data = sample_discrete_dataset(BASE, Split.TRAIN, seed=0, size=50)
        x = data.features.copy()
        x[3, 0] = np.nan
        with pytest.raises(NonconvergenceError, match=r"40 step halvings \(Newton step 1\)$"):
            discrete._minimize(x, data.object_labels, 2)


class TestOneHeadPerRun:
    def test_no_color_head_is_trained(self, monkeypatch):
        cfg = DiscreteConfig(num_classes=3, p_inv=0.8, p_spu=0.9, n_train=200, seed=4)
        n_seeds = 2
        calls, minimize = [], discrete._minimize

        def counting_minimize(x, labels, k):
            calls.append(labels)
            return minimize(x, labels, k)

        monkeypatch.setattr(discrete, "_minimize", counting_minimize)
        monkeypatch.setattr(discrete, "N_TEST", 100)
        run_discrete_experiment(cfg, n_seeds=n_seeds)
        trains = [sample_discrete_dataset(cfg, Split.TRAIN, cfg.seed + i)
                  for i in range(n_seeds)]
        assert all(not np.array_equal(t.object_labels, colors_of(t)) for t in trains)
        # one descent per seed, on the object labels, scored under both methods
        assert len(calls) == n_seeds
        for labels, train in zip(calls, trains):
            assert np.array_equal(labels, train.object_labels)


def naive_contrastive_loss(weights, x, objects, colors, k, c):
    """The image-to-text contrastive loss with a perfect language side, over
    all k·c captions: image i embeds as W x_i, caption (j, m) as [e_j; e_m],
    and each row takes the cross-entropy over every caption at its own
    (object, color) caption, caption (j, m) being column j·c + m."""
    captions = np.array([np.concatenate([np.eye(k)[j], np.eye(c)[m]])
                         for j in range(k) for m in range(c)])
    scores = x @ weights.T @ captions.T
    top = scores.max(axis=1)
    lse = np.log(np.exp(scores - top[:, None]).sum(axis=1)) + top
    return float(np.mean(lse - scores[np.arange(len(x)), objects * c + colors])), scores


class TestContrastiveReduction:
    """The contrastive loss over all captions splits into the object and the
    color cross-entropies of disjoint heads, since log Σ_{j,m} e^{a_j + b_m}
    = lse(a) + lse(b), and so does the ridge penalty on the stacked weights:
    the reason the object head is trained alone."""

    @pytest.mark.parametrize("num_classes", [5, 2])
    def test_naive_loss_is_object_plus_color_cross_entropy(self, num_classes):
        cfg = DiscreteConfig(num_classes=num_classes, p_inv=0.75, p_spu=0.9, n_train=500)
        data = sample_discrete_dataset(cfg, Split.TRAIN, seed=0)
        x, objects, colors = data.features, data.object_labels, colors_of(data)
        k = c = num_classes
        w = np.random.default_rng(1).normal(size=(k + c, cfg.feature_dim))

        def naive(weights):
            return naive_contrastive_loss(weights, x, objects, colors, k, c)[0]

        lo, go, _ = cross_entropy(w[:k], x, objects)
        lc, gc, _ = cross_entropy(w[k:], x, colors)
        assert naive(w) == pytest.approx(lo + lc, rel=1e-13)
        eps, fd = 1e-6, np.zeros_like(w)
        for index in np.ndindex(w.shape):
            bump = np.zeros_like(w)
            bump[index] = eps
            fd[index] = (naive(w + bump) - naive(w - bump)) / (2 * eps)
        assert np.abs(fd - np.vstack([go, gc])).max() <= 1e-8
        # the best caption's object is the object head's prediction
        test = sample_discrete_dataset(cfg, Split.RAND, seed=0, size=2000)
        _, scores = naive_contrastive_loss(w, test.features, test.object_labels,
                                           colors_of(test), k, c)
        assert np.array_equal(scores.argmax(axis=1) // c,
                              LinearClassifier(w[:k]).predict(test.features))

    @pytest.mark.parametrize("num_classes", [5, 2])
    def test_heads_minimized_apart_minimize_the_ridge_contrastive_objective(self, num_classes):
        cfg = DiscreteConfig(num_classes=num_classes, p_inv=0.75, p_spu=0.9, n_train=500)
        data = sample_discrete_dataset(cfg, Split.TRAIN, seed=0)
        x, objects, colors = data.features, data.object_labels, colors_of(data)
        k = c = num_classes

        def naive(weights):
            return (naive_contrastive_loss(weights, x, objects, colors, k, c)[0]
                    + discrete.RIDGE / 2 * float(np.sum(weights ** 2)))

        w = np.vstack([train_contrastive_perfect(data).weights,
                       discrete._minimize(x, colors, c)])
        assert naive(w) == pytest.approx(objective(w[:k], x, objects)[0]
                                         + objective(w[k:], x, colors)[0], rel=1e-13)
        # the naive objective is strictly convex, so a zero gradient there
        # makes the stacked heads its one minimizer
        eps, fd = 1e-6, np.zeros_like(w)
        for index in np.ndindex(w.shape):
            bump = np.zeros_like(w)
            bump[index] = eps
            fd[index] = (naive(w + bump) - naive(w - bump)) / (2 * eps)
        assert np.abs(fd).max() <= 1e-8


class TestEvaluation:
    @pytest.mark.parametrize("weights", [np.zeros(3), np.array([[np.nan]])],
                             ids=["one-dimensional", "non-finite"])
    def test_classifier_rejects_malformed_weights(self, weights):
        with pytest.raises(ConfigError, match="finite 2-D matrix"):
            LinearClassifier(weights)

    def test_split_report_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            SplitReport(method="supervised", acc_rand_biased=1.2,
                        acc_rev_biased=0.5, acc_rest=None)

    @pytest.mark.parametrize("column", ["acc_rand_biased", "acc_rev_biased"])
    def test_split_report_rejects_missing_biased_accuracy(self, column):
        values = dict(acc_rand_biased=0.5, acc_rev_biased=0.5, acc_rest=None)
        values[column] = None
        with pytest.raises(ConfigError):
            SplitReport(method="supervised", **values)

    def test_empty_biased_subset_is_insufficient_data(self):
        # with 50 classes, 10 test rows per split miss both biased classes
        # on the Rev split of seed 2
        cfg = DiscreteConfig(num_classes=50, p_inv=0.75, p_spu=0.9, n_train=20)
        model = LinearClassifier(np.zeros((50, cfg.feature_dim)))
        with pytest.raises(InsufficientDataError, match=r"Rev test split .*\[0, 1\]"):
            evaluate_splits("supervised", model, *draw_test_splits(cfg, n_test=10, seed=2))

    def test_rest_is_none_for_two_classes(self):
        model = LinearClassifier(np.zeros((2, BASE.feature_dim)))
        report = evaluate_splits("supervised", model, *draw_test_splits(BASE, 500, seed=0))
        assert report.acc_rest is None
        assert report.method == "supervised"

    def test_rest_present_beyond_biased_pair(self):
        cfg = DiscreteConfig(num_classes=3, p_inv=0.8, p_spu=0.9, n_train=100)
        model = LinearClassifier(np.zeros((3, cfg.feature_dim)))
        report = evaluate_splits("contrastive", model, *draw_test_splits(cfg, 500, seed=0))
        assert report.acc_rest is not None
        assert report.method == "contrastive"

    def test_rest_is_none_when_the_rand_split_has_no_other_class(self):
        cfg = DiscreteConfig(num_classes=3, p_inv=0.8, p_spu=0.9, n_train=100)
        rev = sample_discrete_dataset(cfg, Split.REV, seed=0, size=50)
        rand = DiscreteDataset(cfg, Split.RAND, rev.features, object_labels=rev.object_labels % 2)
        model = LinearClassifier(np.zeros((3, cfg.feature_dim)))
        assert evaluate_splits("supervised", model, rand, rev).acc_rest is None

    def test_perfect_oracle_scores_one_everywhere(self):
        cfg = DiscreteConfig(num_classes=3, p_inv=1.0, p_spu=0.9,
                             n_train=100, feature_noise=0.0)
        oracle = LinearClassifier(
            np.hstack([np.eye(3), np.zeros((3, 3))]))
        report = evaluate_splits("supervised", oracle, *draw_test_splits(cfg, 2000, seed=1))
        assert report.acc_rand_biased == 1.0
        assert report.acc_rev_biased == 1.0
        assert report.acc_rest == 1.0

    def test_same_seed_shares_test_draws(self):
        model = LinearClassifier(np.eye(2, BASE.feature_dim))
        a = evaluate_splits("supervised", model, *draw_test_splits(BASE, 800, seed=9))
        b = evaluate_splits("supervised", model, *draw_test_splits(BASE, 800, seed=9))
        assert a == b

    def test_rejects_swapped_splits(self):
        model = LinearClassifier(np.zeros((2, BASE.feature_dim)))
        rand, rev = draw_test_splits(BASE, 100, seed=0)
        train = sample_discrete_dataset(BASE, Split.TRAIN, seed=0, size=100)
        for splits in ((rev, rand), (train, rev), (rand, rand)):
            with pytest.raises(ConfigError, match="Rand and Rev"):
                evaluate_splits("supervised", model, *splits)


class TestExperiment:
    def test_reversed_bias_punishes_spurious_reliance(self):
        summaries, _ = run_discrete_experiment(BASE, n_seeds=5)
        for summary in summaries:
            assert summary.rev_mean < summary.rand_mean - 0.20

    def test_methods_agree_on_object_task(self):
        summaries, _ = run_discrete_experiment(BASE, n_seeds=3)
        sup, con = summaries
        assert sup.method == "supervised" and con.method == "contrastive"
        assert abs(sup.rand_mean - con.rand_mean) <= 0.05
        assert abs(sup.rev_mean - con.rev_mean) <= 0.05

    def test_rand_accuracy_increases_with_p_inv(self):
        means = []
        for p_inv in (0.75, 0.9):
            cfg = DiscreteConfig(num_classes=2, p_inv=p_inv, p_spu=0.9,
                                 n_train=3000)
            summaries, _ = run_discrete_experiment(cfg, n_seeds=3)
            means.append(summaries[0].rand_mean)
        assert means[0] < means[1]

    def test_per_seed_reports_pinned(self):
        # the reports given when each method drew its own test splits; one
        # shared draw per seed did not move them, nor did schedule 4's
        # minimizer in place of schedule 3's 400 epochs
        config = load_config(DiscreteConfig, read_text(CONFIGS / "discrete_k2.json"))
        _, per_seed = run_discrete_experiment(config, n_seeds=2)
        assert per_seed == [
            SplitReport("supervised", 0.49375, 0.09775, None),
            SplitReport("supervised", 0.50225, 0.10025, None),
            SplitReport("contrastive", 0.49375, 0.09775, None),
            SplitReport("contrastive", 0.50225, 0.10025, None),
        ]

    def test_reports_match_the_row_major_kernel(self, monkeypatch):
        # the per-seed reports of 30 configs, seeds 0-2, do not move when
        # the reference kernel trains the heads
        for k, p_inv, noise in itertools.product((2, 3, 5, 8, 12), (0.75, 1.0),
                                                 (0.0, 0.1, 1.0)):
            cfg = DiscreteConfig(num_classes=k, p_inv=p_inv, p_spu=0.9, n_train=3000,
                                 feature_noise=noise)
            _, per_seed = run_discrete_experiment(cfg, n_seeds=3)
            with monkeypatch.context() as patch:
                patch.setattr(discrete, "_minimize", row_major_minimize)
                assert run_discrete_experiment(cfg, n_seeds=3)[1] == per_seed, (k, p_inv, noise)

    def test_draws_each_split_once_per_seed(self, monkeypatch):
        draws, scored = [], []

        def counting_sample(config, split, seed, size=None):
            data = sample_discrete_dataset(config, split, seed, size)
            draws.append((seed, data))
            return data

        def recording_evaluate(method, model, rand, rev):
            scored.append((method, rand, rev))
            return evaluate_splits(method, model, rand, rev)

        monkeypatch.setattr(discrete, "sample_discrete_dataset", counting_sample)
        monkeypatch.setattr(discrete, "evaluate_splits", recording_evaluate)
        cfg = DiscreteConfig(num_classes=3, p_inv=0.8, p_spu=0.9, n_train=200, seed=4)
        monkeypatch.setattr(discrete, "N_TEST", 300)
        run_discrete_experiment(cfg, n_seeds=2)
        assert [(seed, d.split, len(d)) for seed, d in draws] == [
            (seed, split, size) for seed in (4, 5)
            for split, size in ((Split.TRAIN, 200), (Split.RAND, 300), (Split.REV, 300))]
        # one model per seed, scored once
        assert len(scored) == 2
        for index, (method, rand, rev) in enumerate(scored):
            assert method == "supervised"
            assert rand is draws[3 * index + 1][1] and rev is draws[3 * index + 2][1]

    @pytest.mark.parametrize("num_classes", [2, 5, 12])
    def test_contrastive_reports_are_the_supervised_ones(self, monkeypatch, num_classes):
        # schedule 3: one head per seed, scored under both names
        monkeypatch.setattr(discrete, "N_TEST", 1000)
        cfg = DiscreteConfig(num_classes=num_classes, p_inv=0.75, p_spu=0.9, n_train=600,
                             seed=3)
        (sup, con), per_seed = run_discrete_experiment(cfg, n_seeds=3)
        assert [r.method for r in per_seed] == ["supervised"] * 3 + ["contrastive"] * 3
        for a, b in zip(per_seed[:3], per_seed[3:]):
            assert b == dataclasses.replace(a, method="contrastive")
        assert (sup.method, con.method) == ("supervised", "contrastive")
        assert con[1:] == sup[1:]

    def test_supervised_summary_is_schedule_4s(self):
        # the benchmark's k = 5 config at seed 2001, as schedule 4 reports it
        cfg = DiscreteConfig(num_classes=5, p_inv=0.75, p_spu=0.9, n_train=3000, seed=2001)
        (sup, _), _ = run_discrete_experiment(cfg, n_seeds=5)
        assert sup == discrete.MethodSummary(
            "supervised", 5, 0.44298294785161596, 0.030248949651160123,
            0.0598810466525467, 0.01200576311300741,
            0.7625220056943117, 0.008253947063965782)

    def test_deterministic(self, monkeypatch):
        monkeypatch.setattr(discrete, "N_TEST", 1000)
        a = run_discrete_experiment(BASE, n_seeds=2)
        b = run_discrete_experiment(BASE, n_seeds=2)
        assert a == b

    def test_single_seed_has_zero_std(self, monkeypatch):
        monkeypatch.setattr(discrete, "N_TEST", 1000)
        summaries, reports = run_discrete_experiment(BASE, n_seeds=1)
        assert len(reports) == 2
        for summary in summaries:
            assert summary.n_seeds == 1
            assert summary.rand_std == 0.0
            assert summary.rev_std == 0.0
            assert summary.rest_std is None

    def test_rejects_zero_seeds(self):
        with pytest.raises(ConfigError):
            run_discrete_experiment(BASE, n_seeds=0)

    def test_summary_json_dict(self, monkeypatch):
        monkeypatch.setattr(discrete, "N_TEST", 500)
        summaries, _ = run_discrete_experiment(BASE, n_seeds=1)
        d = _json_data(summaries[0])
        assert d["method"] == "supervised"
        assert set(d) == {"method", "n_seeds", "rand_mean", "rand_std",
                          "rev_mean", "rev_std", "rest_mean", "rest_std"}
