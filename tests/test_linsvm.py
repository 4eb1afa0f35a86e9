import inspect
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from stancelab import linsvm
from stancelab.corpus import (
    CorpusError,
    Dataset,
    LabeledInstance,
    ProfileTable,
    StanceLabel,
)
from stancelab.features import (
    ALL_FLAGS,
    NETWORK_FLAG_SOURCES,
    FeatureSetSelector,
    FeatureSpace,
    build_feature_space,
    extract_features,
    index_rows,
)
from stancelab.linsvm import (
    BUNDLE_FORMAT,
    LinearModel,
    MODE_CLASSES,
    MODE_FITS,
    TrainConfig,
    _check_rows,
    _read_weights,
    decision_values,
    dual_coordinate_descent,
    load_bundle,
    predict,
    save_bundle,
    train_ovr,
)

from dcd_reference import reference_dcd
from output_reference import class_weights
from qp_oracle import dual_objective, gram_matrix, random_problem, solve_svm_dual

TIGHT = TrainConfig(C=1.0, tol=1e-10, max_iter=20000)


def row(indices):
    return np.asarray(indices, dtype=np.int64)


def toy_space(size, selector=None):
    selector = selector or FeatureSetSelector.of("TXT")
    return FeatureSpace(tuple(f"txtw:f{i:03d}" for i in range(size)), selector)


def fit_binary(rows, y, dim, config):
    """The binary-mode separator of train_ovr, +1 meaning Favor: its Favor
    weights and bias."""
    labels = [StanceLabel.FAVOR if v > 0 else StanceLabel.AGAINST for v in y]
    model = train_ovr(rows, labels, "binary", config, toy_space(dim))
    return model.weights[0], float(model.biases[0])


def make_model(weights, biases, mode):
    weights = np.asarray(weights, dtype=np.float64)
    return LinearModel(
        weights=weights,
        biases=np.asarray(biases, dtype=np.float64),
        mode=mode,
        space=toy_space(weights.shape[1]),
        config=TrainConfig(),
    )


def two_row_reference(model):
    """Per-class weights and biases as train_ovr stored them before a model
    held one row per fit: a binary fit (w, b) as [-w, w] and [-b, b]."""
    w, b = model.weights, model.biases
    if model.mode == "binary":
        return np.vstack([-w, w]), np.concatenate([-b, b])
    return w, b


class TestTrainBinary:
    def test_separable_pair_signs(self):
        w, b = fit_binary([row([0]), row([1])], [1, -1], 2, TIGHT)
        assert w[0] + b > 0
        assert w[1] + b < 0

    def test_separable_pair_matches_hand_solution(self):
        # Dual optimum is alpha=(1,1): w=(1,-1), b=0, margins exactly +-1.
        w, b = fit_binary([row([0]), row([1])], [1, -1], 2, TIGHT)
        assert np.allclose(w, [1.0, -1.0], atol=1e-8)
        assert abs(b) < 1e-8

    @pytest.mark.parametrize("loss", ["hinge", "squared_hinge"])
    def test_objective_matches_oracle_on_random_problems(self, loss):
        rng = np.random.default_rng(7)
        for _ in range(40):
            rows, y, dim = random_problem(rng)
            c = float(rng.choice([0.1, 1.0, 10.0]))
            config = TrainConfig(C=c, tol=1e-10, max_iter=20000, loss=loss)
            w, alpha, _ = dual_coordinate_descent(rows, y, dim, config)
            K = gram_matrix(rows, y, dim, c, loss)
            _, oracle_obj = solve_svm_dual(rows, y, dim, c, loss)
            assert dual_objective(K, alpha) == pytest.approx(oracle_obj, abs=1e-6)

    def test_duplicated_data_with_halved_c_gives_same_boundary(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rows, y, dim = random_problem(rng, max_points=3, max_dim=3)
            w1, b1 = fit_binary(rows, y.tolist(), dim, TIGHT)
            w2, b2 = fit_binary(
                rows + rows,
                y.tolist() + y.tolist(),
                dim,
                TrainConfig(C=0.5, tol=1e-10, max_iter=20000),
            )
            assert np.allclose(w1, w2, atol=1e-6)
            assert b1 == pytest.approx(b2, abs=1e-6)

    def test_dual_feasibility_and_kkt(self):
        # At convergence every alpha lies in [0, C]; zero-alpha examples
        # satisfy y*f(x) >= 1 - tol (slack constant kappa = 1).
        rng = np.random.default_rng(3)
        config = TrainConfig(C=1.0, tol=1e-6, max_iter=20000)
        for _ in range(20):
            rows, y, dim = random_problem(rng)
            w, alpha, _ = dual_coordinate_descent(rows, y, dim, config)
            assert np.all(alpha >= 0.0)
            assert np.all(alpha <= config.C + 1e-12)
            for i, idx in enumerate(rows):
                if alpha[i] == 0.0:
                    margin = y[i] * (w[idx].sum() + w[dim])
                    assert margin >= 1.0 - config.tol

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        rows, y, dim = random_problem(rng)
        config = TrainConfig(seed=42)
        w1, b1 = fit_binary(rows, y.tolist(), dim, config)
        w2, b2 = fit_binary(rows, y.tolist(), dim, config)
        assert np.array_equal(w1, w2)
        assert b1 == b2

    def test_single_class_is_degenerate(self):
        with pytest.raises(ValueError, match="no AGAINST examples"):
            fit_binary([row([0]), row([1])], [1, 1], 2, TrainConfig())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            fit_binary([row([0]), row([2])], [1, -1], 2, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(C=0.0)
        with pytest.raises(ValueError):
            TrainConfig(tol=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(max_iter=0)
        with pytest.raises(ValueError):
            TrainConfig(loss="logistic")
        for field, value in [("max_iter", 2.5), ("max_iter", True), ("seed", "x"),
                             ("seed", 1.5), ("seed", False), ("min_df", 1.5),
                             ("min_df", True)]:
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                TrainConfig(**{field: value})
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(seed=-1)
        with pytest.raises(ValueError, match=r"seed must be < 2\*\*64"):
            TrainConfig(seed=2**64)
        with pytest.raises(ValueError, match="min_df must be >= 1"):
            TrainConfig(min_df=0)


@st.composite
def solver_problems(draw, max_n=30):
    """Boolean rows (some empty, some repeated, some longer than numpy's
    8-wide and 128-wide pairwise-sum blocks), labels and a config."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([1, 3, 12, 300]))
    n = draw(st.integers(1, max_n))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    repeat = draw(st.sampled_from([0.0, 0.3, 0.8]))
    rows = []
    for _ in range(n):
        if rows and rng.random() < repeat:
            rows.append(rows[int(rng.integers(len(rows)))].copy())
        else:
            rows.append(np.flatnonzero(rng.random(dim) < density).astype(np.int64))
    y = rng.choice([-1.0, 1.0], size=n)
    config = TrainConfig(
        C=draw(st.sampled_from([0.01, 0.5, 1.0, 3.0, 1000.0])),
        tol=draw(st.sampled_from([1e-12, 1e-4, 0.5])),
        max_iter=draw(st.sampled_from([1, 2, 7, 1000])),
        seed=draw(st.integers(0, 3)),
        loss=draw(st.sampled_from(["hinge", "squared_hinge"])),
    )
    return rows, y, dim, config


@st.composite
def all_at_bound_problems(draw, max_pairs=15):
    """Hinge problems whose every alpha ends at C: one row repeated with
    as many +1 as -1 labels, so alpha=C everywhere keeps w at zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([1, 3, 12]))
    x = np.flatnonzero(rng.random(dim) < 0.5).astype(np.int64)
    n = 2 * draw(st.integers(1, max_pairs))
    y = rng.permutation(np.repeat([1.0, -1.0], n // 2))
    config = TrainConfig(
        C=draw(st.sampled_from([0.01, 0.5, 1.0, 3.0])),
        tol=draw(st.sampled_from([1e-12, 1e-4, 0.5])),
        seed=draw(st.integers(0, 3)),
    )
    return [x.copy() for _ in range(n)], y, dim, config


def projected_gradients(rows, y, dim, config, w, alpha):
    """|projected gradient| of every coordinate at the returned point."""
    upper = config.C if config.loss == "hinge" else np.inf
    diag = 0.0 if config.loss == "hinge" else 1.0 / (2.0 * config.C)
    g = np.array([y[i] * (w[idx].sum() + w[dim]) for i, idx in enumerate(rows)])
    g += diag * alpha - 1.0
    pg = np.where(alpha <= 0.0, np.minimum(g, 0.0),
                  np.where(alpha >= upper, np.maximum(g, 0.0), g))
    return np.abs(pg)


class TestStoppingRule:
    """A fit that stops before max_iter has just made an epoch over all n
    coordinates in which each one's projected gradient was below tol when
    it was visited. Right after its own step a coordinate's projected
    gradient is 0, and each later step j of that epoch moves it by at most
    (|x_i & x_j| + 1) * tol / Q_jj. So at the returned point, recomputed
    here, coordinate i violates by less than tol * sum_j (|x_i & x_j| + 1)
    / Q_jj, up to rounding. Plain "below tol" does not hold: that epoch's
    later steps can push an earlier coordinate past it."""

    @staticmethod
    def violation_bounds(rows, dim, config, w, alpha):
        n = len(rows)
        x = np.zeros((n, dim + 1))
        for i, idx in enumerate(rows):
            x[i, idx] = 1.0
        x[:, dim] = 1.0
        shared = x @ x.T  # |x_i & x_j| + 1
        diag = 0.0 if config.loss == "hinge" else 1.0 / (2.0 * config.C)
        qjj = shared.diagonal() + diag
        spread = (shared / qjj).sum(axis=1) - shared.diagonal() / qjj
        # Rounding: each of the epoch's n steps and the recomputed margin
        # round every weight they touch.
        scale = np.abs(x * w).sum(axis=1) + 1.0 + diag * alpha
        slack = 8 * (n + dim + 2) * np.finfo(float).eps * scale
        return config.tol * spread + slack

    @settings(max_examples=150, deadline=None)
    @given(problem=st.one_of(solver_problems(), all_at_bound_problems()))
    def test_converged_fit_meets_the_rule_over_all_coordinates(self, problem):
        rows, y, dim, config = problem
        w, alpha, epochs = dual_coordinate_descent(rows, y, dim, config)
        if epochs == config.max_iter:
            event("capped")
            return
        event("converged")
        violations = projected_gradients(rows, y, dim, config, w, alpha)
        bounds = self.violation_bounds(rows, dim, config, w, alpha)
        assert np.all(violations < bounds)

    @settings(max_examples=30, deadline=None)
    @given(problem=all_at_bound_problems())
    def test_all_at_bound_ends_with_every_alpha_at_c(self, problem):
        rows, y, dim, config = problem
        _, alpha, _ = dual_coordinate_descent(rows, y, dim, config)
        assert np.all(alpha == config.C)

    @settings(max_examples=50, deadline=None)
    @given(problem=st.one_of(solver_problems(max_n=5),
                             all_at_bound_problems(max_pairs=2)))
    def test_tight_fit_matches_the_oracle_objective(self, problem):
        rows, y, dim, config = problem
        config = replace(config, C=min(config.C, 10.0), tol=1e-10,
                         max_iter=20000)
        _, alpha, epochs = dual_coordinate_descent(rows, y, dim, config)
        if epochs == config.max_iter:
            # An ill-conditioned squared-hinge problem, such as one 300-wide
            # row with both labels, needs more epochs than this at 1e-10.
            event("capped")
            return
        event("converged")
        K = gram_matrix(rows, y, dim, config.C, config.loss)
        _, oracle_obj = solve_svm_dual(rows, y, dim, config.C, config.loss)
        assert dual_objective(K, alpha) == pytest.approx(oracle_obj, abs=1e-6)


class TestSolverIterates:
    """The trainer reproduces the reference loop's iterates bitwise, so a
    faster loop cannot change bundles, predictions or master.csv."""

    @staticmethod
    def assert_same_iterates(rows, y, dim, config):
        w, alpha, epochs = dual_coordinate_descent(rows, y, dim, config)
        ref_w, ref_alpha, ref_epochs = reference_dcd(rows, y, dim, config)
        assert np.array_equal(w, ref_w)
        assert w.tobytes() == ref_w.tobytes()  # also tells 0.0 from -0.0
        assert np.array_equal(alpha, ref_alpha)
        assert alpha.tobytes() == ref_alpha.tobytes()
        assert epochs == ref_epochs
        return epochs

    @settings(max_examples=150, deadline=None)
    @given(problem=st.one_of(solver_problems(), all_at_bound_problems()))
    def test_matches_reference_loop(self, problem):
        self.assert_same_iterates(*problem)

    @pytest.mark.parametrize("loss", ["hinge", "squared_hinge"])
    def test_matches_reference_loop_when_the_epoch_cap_is_hit(self, loss):
        rng = np.random.default_rng(17)
        dim = 200
        rows = [np.flatnonzero(rng.random(dim) < 0.3) for _ in range(40)]
        rows += [rows[0].copy(), rows[1].copy(), np.array([], dtype=np.int64)]
        y = rng.choice([-1.0, 1.0], size=len(rows))
        config = TrainConfig(C=2.0, tol=1e-12, max_iter=5, loss=loss)
        assert self.assert_same_iterates(rows, y, dim, config) == config.max_iter

    def test_pinned_iterates_under_every_numpy(self):
        # A hand-built problem, no numpy.random: no row holds more than 7
        # entries, so every margin's np.add.reduce is a plain left-to-right
        # loop in every numpy. The visiting order is the package's own, so
        # these bits may not change with the installed numpy; CI runs this
        # on an older numpy too.
        rows = [row(r) for r in ([0, 1, 2], [1, 3], [2, 4, 5], [0, 5, 6, 7],
                                 [3, 6], [1, 2, 7], [4], [0, 3, 5], [6, 7], [2, 5],
                                 [], [1, 4, 6], [0, 1, 2, 3, 4, 5, 6])]
        y = np.array([1.0, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, -1, 1])
        config = TrainConfig(C=0.5, tol=1e-3, seed=21)
        w, alpha, epochs = dual_coordinate_descent(rows, y, 8, config)
        assert [v.hex() for v in w.tolist()] == [
            "0x1.53599ff3df051p-1", "-0x1.359350a3ec0d7p-2", "0x1.f416686a37fcdp-3",
            "-0x1.9ac9a851f606cp-1", "0x1.7d059a1a8dff2p-1", "-0x1.7d062f8c97decp-4",
            "0x1.4d667fcf7c13ep-3", "0x1.4d667fcf7c13ep-3", "0x1.acac8de3b7ebcp-4",
        ]
        half = "0x1.0000000000000p-1"  # C: at the upper bound
        assert [v.hex() for v in alpha.tolist()] == [
            half, "0x1.359350a3ec0d6p-2", "0x1.f416686a37fcdp-3",
            "0x1.4d667fcf7c13ep-3", *[half] * 9,
        ]
        assert epochs == 11

    def test_contract_read_by_the_bench_tracer(self):
        # bench/traced.py observes the solver by these parameter names and
        # derives coord_steps, at_bound_ratio and dup_row_ratio from its
        # arguments and the returned alpha and epoch count.
        params = inspect.signature(dual_coordinate_descent).parameters
        assert tuple(params) == ("rows", "y", "dim", "config")
        rows = [np.array([0, 2]), np.array([1]), np.array([], dtype=np.int64)]
        w, alpha, epochs = dual_coordinate_descent(
            rows=rows, y=np.array([1.0, -1.0, 1.0]), dim=3, config=TrainConfig()
        )
        assert isinstance(w, np.ndarray) and w.dtype == np.float64
        assert w.shape == (4,)
        assert isinstance(alpha, np.ndarray) and alpha.dtype == np.float64
        assert alpha.shape == (3,)
        assert type(epochs) is int and 1 <= epochs <= TrainConfig().max_iter


class TestTrainOvr:
    def _rows(self, labels, dim=4):
        rng = np.random.default_rng(17)
        return [np.flatnonzero(rng.random(dim) < 0.6) for _ in labels]

    def test_ternary_shape_and_class_order(self):
        labels = [StanceLabel.AGAINST, StanceLabel.FAVOR, StanceLabel.NONE] * 2
        space = toy_space(4)
        model = train_ovr(self._rows(labels), labels, "ternary", TrainConfig(), space)
        assert model.classes == (
            StanceLabel.AGAINST,
            StanceLabel.FAVOR,
            StanceLabel.NONE,
        )
        assert model.weights.shape == (3, 4)
        assert model.mode == "ternary"

    def test_binary_drops_none_and_never_predicts_it(self):
        labels = [
            StanceLabel.AGAINST,
            StanceLabel.FAVOR,
            StanceLabel.NONE,
            StanceLabel.FAVOR,
        ]
        model = train_ovr(
            self._rows(labels), labels, "binary", TrainConfig(), toy_space(4)
        )
        assert model.mode == "binary"
        assert model.classes == (StanceLabel.AGAINST, StanceLabel.FAVOR)
        rng = np.random.default_rng(0)
        rows = [np.flatnonzero(rng.random(4) < 0.5) for _ in range(50)]
        assert StanceLabel.NONE not in predict(model, rows)

    def test_binary_all_one_class_errors(self):
        labels = [StanceLabel.FAVOR, StanceLabel.FAVOR]
        with pytest.raises(ValueError, match="AGAINST"):
            train_ovr(
                self._rows(labels), labels, "binary", TrainConfig(), toy_space(4)
            )

    def test_missing_class_error_names_topic(self):
        labels = [StanceLabel.AGAINST, StanceLabel.FAVOR]
        with pytest.raises(ValueError, match="NONE.*alpha"):
            train_ovr(
                self._rows(labels),
                labels,
                "ternary",
                TrainConfig(),
                toy_space(4),
                topic="alpha",
            )


class TestDecisionAndPredict:
    def test_zero_everything_scores_zero(self):
        model = make_model(np.zeros((3, 2)), np.zeros(3), "ternary")
        scores = decision_values(model, [row([])])
        assert np.array_equal(scores, np.zeros((1, 3)))

    def test_dot_product(self):
        model = make_model([[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]], np.zeros(3),
                           "ternary")
        assert decision_values(model, [row([0])])[0, 0] == 2.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 40))
    def test_binary_equals_the_two_row_sum_to_the_bit(self, data, dim):
        # A one-row gather or a 1-D reduce would round differently from the
        # two-row sum that binary scores were computed with before.
        floats = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True)
        w = np.array(data.draw(st.lists(floats, min_size=dim, max_size=dim)))
        b = data.draw(floats)
        rows = data.draw(st.lists(
            st.one_of(st.just([]), st.integers(0, dim - 1).map(lambda i: [i]),
                      st.sets(st.integers(0, dim - 1)).map(sorted)).map(row),
            min_size=1, max_size=10,
        ))
        model = make_model([w], [b], "binary")
        weights, biases = two_row_reference(model)
        expected = np.array([weights[:, idx].sum(axis=1) + biases for idx in rows])
        assert decision_values(model, rows).tobytes() == expected.tobytes()

    def test_binary_sign_convention(self):
        # Single margin s: Favor score +s, Against score -s.
        model = make_model([[1.0, -2.0]], [-1.5], "binary")
        [scores] = decision_values(model, [row([1])])
        assert scores[0] == pytest.approx(3.5)  # Against = -s
        assert scores[1] == pytest.approx(-3.5)
        assert predict(model, [row([1])]) == [StanceLabel.AGAINST]

    def test_tie_breaks_to_against(self):
        model = make_model(np.zeros((3, 2)), np.zeros(3), "ternary")
        assert predict(model, [row([0, 1])]) == [StanceLabel.AGAINST]

    def test_argmax(self):
        model = make_model(np.zeros((3, 2)), [0.2, 0.9, 0.1], "ternary")
        assert predict(model, [row([])]) == [StanceLabel.FAVOR]

    def test_dimension_mismatch(self):
        model = make_model(np.zeros((3, 2)), np.zeros(3), "ternary")
        with pytest.raises(ValueError, match="out of range"):
            decision_values(model, [row([0]), row([4])])

    @given(
        scores=st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3
        ),
        scale=st.floats(0.01, 1000.0),
    )
    @example(scores=[-5e-324, 0.0, 0.0], scale=0.5)
    def test_argmax_invariant_under_positive_rescaling(self, scores, scale):
        scaled = [s * scale for s in scores]
        # Rounding (or underflow to 0) can turn two distinct scores into an
        # exact tie, which predict resolves to the earlier class by design.
        assume(len(set(scaled)) == len(set(scores)))
        model_a = make_model(np.zeros((3, 2)), scores, "ternary")
        model_b = make_model(np.zeros((3, 2)), scaled, "ternary")
        x = [row([])]
        assert predict(model_a, x) == predict(model_b, x)



def vector_rule(idx, dim):
    """The rule for one row, checked on its own: in range at both ends and
    strictly increasing."""
    if idx.size:
        if idx[0] < 0 or idx[-1] >= dim:
            return False
        if np.any(np.diff(idx) <= 0):
            return False
    return True


@st.composite
def row_batches(draw):
    """Rows over dim columns: sorted sets (valid), empty rows, and free
    lists that may repeat, fall out of order or leave the space."""
    dim = draw(st.integers(0, 5))
    rows = draw(st.lists(
        st.one_of(
            st.sets(st.integers(0, max(dim - 1, 0))).map(sorted),
            st.just([]),
            st.lists(st.integers(-1, dim), max_size=4),
        ).map(row),
        max_size=6,
    ))
    return rows, dim


class TestRowCheck:
    @settings(max_examples=300, deadline=None)
    @given(batch=row_batches())
    @example(batch=([], 3))
    @example(batch=([row([]), row([0, 2])], 3))
    @example(batch=([row([]), row([2, 0])], 3))
    @example(batch=([row([1]), row([]), row([0])], 3))
    @example(batch=([row([0, 1]), row([]), row([1, 1])], 3))
    @example(batch=([row([0]), row([]), row([3])], 3))
    def test_accepts_exactly_what_the_vector_rule_accepts(self, batch):
        rows, dim = batch
        accepted = all(vector_rule(r, dim) for r in rows)
        event("accepted" if accepted else "rejected")
        if accepted:
            _check_rows(rows, dim)
        else:
            with pytest.raises(ValueError):
                _check_rows(rows, dim)

    @settings(max_examples=300, deadline=None)
    @given(batch=row_batches(), chunk=st.integers(1, 3))
    def test_chunks_accept_what_the_whole_batch_accepts(self, batch, chunk):
        rows, dim = batch
        with mock.patch.object(linsvm, "_ROW_CHECK_CHUNK", chunk):
            if all(vector_rule(r, dim) for r in rows):
                _check_rows(rows, dim)
            else:
                with pytest.raises(ValueError):
                    _check_rows(rows, dim)

    @pytest.mark.parametrize("count", [255, 256, 257, 512, 513])
    def test_chunk_boundaries(self, count):
        dim = 5
        # Empty rows, and rows whose first index is below the last row's.
        rows = [row([]) if i % 3 == 0 else row(sorted({i % dim, i * 7 % dim}))
                for i in range(count)]
        _check_rows(rows, dim)
        _check_rows([row([])] * count, dim)
        for at in (0, 254, 255, 256, 257, count - 1):
            for bad, message in ((row([3, 1]), "strictly increasing"),
                                 (row([2, 2]), "strictly increasing"),
                                 (row([0, dim]), "out of range"),
                                 (row([-1]), "out of range")):
                if at < count:
                    with pytest.raises(ValueError, match=message):
                        _check_rows(rows[:at] + [bad] + rows[at + 1:], dim)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 6),
           mode=st.sampled_from(sorted(MODE_CLASSES)))
    def test_predict_is_the_per_row_argmax(self, data, dim, mode):
        classes = MODE_CLASSES[mode]
        rows = data.draw(st.lists(
            st.sets(st.integers(0, dim - 1)).map(sorted).map(row), max_size=8
        ))
        # Small integer weights, so exact ties between classes are common.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        fits = len(MODE_FITS[mode])
        model = make_model(
            rng.integers(-2, 3, size=(fits, dim)), rng.integers(-1, 2, size=fits), mode
        )
        scores = decision_values(model, rows)
        assert scores.shape == (len(rows), len(classes))
        weights, biases = two_row_reference(model)
        expected = [
            classes[int(np.argmax(weights[:, r].sum(axis=1) + biases))] for r in rows
        ]
        assert predict(model, rows) == expected
        assert predict(model, []) == []


class TestClassWeights:
    def test_inverse_map(self):
        space = FeatureSpace(("txtw:a", "txtw:b"), FeatureSetSelector.of("TXT"))
        model = LinearModel(
            weights=np.array([[0.5, -0.9], [0.0, 0.0], [0.0, 0.0]]),
            biases=np.zeros(3),
            mode="ternary",
            space=space,
            config=TrainConfig(),
        )
        assert class_weights(model, StanceLabel.AGAINST) == {
            "txtw:a": 0.5,
            "txtw:b": -0.9,
        }

    def test_binary_maps_are_sign_flipped(self):
        model = make_model([[0.3, -0.7, 0.1]], [0.2], "binary")
        favor = class_weights(model, StanceLabel.FAVOR)
        against = class_weights(model, StanceLabel.AGAINST)
        assert set(favor) == set(against)
        for name in favor:
            assert against[name] == -favor[name]

    def test_unknown_class_rejected(self):
        model = make_model(np.zeros((1, 2)), np.zeros(1), "binary")
        with pytest.raises(ValueError, match="NONE"):
            class_weights(model, StanceLabel.NONE)


class TestBundle:
    def _trained_model(self, mode="ternary", config=TrainConfig(seed=9)):
        rng = np.random.default_rng(23)
        labels = [
            StanceLabel.AGAINST, StanceLabel.FAVOR, StanceLabel.NONE,
            StanceLabel.AGAINST, StanceLabel.FAVOR, StanceLabel.NONE,
        ]
        dim = 6
        rows = [np.flatnonzero(rng.random(dim) < 0.5) for _ in labels]
        return train_ovr(rows, labels, mode, config, toy_space(dim)), dim

    @pytest.mark.parametrize("mode", ["ternary", "binary"])
    def test_round_trip_is_bitwise(self, tmp_path, mode):
        model, dim = self._trained_model(mode)
        save_bundle(model, tmp_path / "bundle", topic="alpha")
        loaded, meta = load_bundle(tmp_path / "bundle")
        assert sorted(p.name for p in (tmp_path / "bundle").iterdir()) == [
            "metadata.json", "weights.tsv"]
        assert meta["topic"] == "alpha"
        assert meta["format"] == BUNDLE_FORMAT and "classes" not in meta
        assert loaded.classes == model.classes
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.biases, model.biases)
        assert len(model.epochs) == len(MODE_FITS[mode])
        assert loaded.epochs == model.epochs
        rng = np.random.default_rng(1)
        rows = [np.flatnonzero(rng.random(dim) < 0.5) for _ in range(200)]
        before = decision_values(model, rows)
        after = decision_values(loaded, rows)
        assert np.array_equal(before, after)
        assert predict(model, rows) == predict(loaded, rows)

    def test_bundle_config_round_trips(self, tmp_path):
        for mode in MODE_CLASSES:
            model, _ = self._trained_model(mode, TrainConfig(seed=9, min_df=2))
            save_bundle(model, tmp_path / mode)
            loaded, meta = load_bundle(tmp_path / mode)
            assert loaded.config == model.config
            assert meta["config"]["min_df"] == 2

    # 2.0 == 2 and True == 1 in Python, so a value check alone passes both.
    @pytest.mark.parametrize("fmt", ["missing", 1, 2, 4, 3.0, "3", True],
                             ids=["missing", "1", "2", "4", "float", "string", "true"])
    def test_any_other_format_is_refused(self, tmp_path, fmt):
        model, _ = self._trained_model()
        save_bundle(model, tmp_path / "b")
        meta_path = tmp_path / "b" / "metadata.json"
        meta = json.loads(meta_path.read_text())
        if fmt == "missing":
            del meta["format"]
        else:
            meta["format"] = fmt
        meta_path.write_text(json.dumps(meta))
        message = f"{meta_path}: not a bundle of format {BUNDLE_FORMAT}; retrain it"
        with pytest.raises(CorpusError, match=re.escape(message)):
            load_bundle(tmp_path / "b")

    def test_a_refused_name_leaves_the_old_bundle(self, tmp_path):
        model, _ = self._trained_model()
        save_bundle(model, tmp_path / "b", topic="alpha")
        before = {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}
        names = model.space.names[:-1] + ("txtw:a\nb",)
        refused = replace(model, space=replace(model.space, names=names))
        with pytest.raises(CorpusError, match="'txtw:a\\\\nb': cannot write a line break"):
            save_bundle(refused, tmp_path / "b", topic="alpha")
        assert {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()} == before

    @pytest.mark.parametrize("mode,cls", [("binary", "FAVOR"), ("ternary", "NONE")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["weight", "bias"])
    def test_non_finite_weights_are_refused_before_the_directory(
        self, tmp_path, mode, cls, bad, where
    ):
        model, _ = self._trained_model(mode)
        weights, biases = model.weights.copy(), model.biases.copy()
        if where == "weight":
            weights[-1, 0] = bad
        else:
            biases[-1] = bad
        with pytest.raises(CorpusError, match=f"class {cls}: .* not finite"):
            save_bundle(replace(model, weights=weights, biases=biases), tmp_path / "b")
        assert not (tmp_path / "b").exists()


class TestReadWeights:
    """A damaged weights.tsv names the file and the line at fault."""

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("txtw:a\t0.5\t1\nno tab line\n", 2, "expected a feature and 2 finite weights"),
            ("txtw:a\t0.5\t1\ntxtw:b\t1\n", 2, "expected a feature and 2 finite weights"),
            ("txtw:a\t0.5\t1\n\n", 2, "expected a feature and 2 finite weights"),
            ("txtw:a\t0.5\t1\ntxtw:b\t1\tnan\n", 2, "finite weights"),
            ("txtw:a\t0.5\t1\ntxtw:b\tone\t1\n", 2, "could not convert"),
            ("txtw:a\t0\t0\ntxtw:b\t1\t1\ntxtw:a\t2\t2\n", 3,
             "feature 'txtw:a' appears twice"),
        ],
        ids=["no-tab", "one-weight", "blank", "nan", "not-a-number", "repeated"],
    )
    def test_error_names_file_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "weights.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusError) as info:
            _read_weights(path, 2)
        assert str(info.value).startswith(f"{path}: line {line}: ")
        assert message in str(info.value)

    def test_names_may_hold_tabs(self, tmp_path):
        path = tmp_path / "weights.tsv"
        path.write_text("a\t\t1\t2\n\t3\t-0.0\n\tb\t5e-324\t6\n", encoding="utf-8")
        names, weights = _read_weights(path, 2)
        assert names == ["a\t", "", "\tb"]
        assert weights.tobytes() == np.array([[1, 3, 5e-324], [2, -0.0, 6]]).tobytes()


# Text and set members as they reach the extractor from memory: any
# character, or any with line breaks, tabs and lone surrogates mixed in.
TEXTS = {
    "readable": st.text(st.characters(exclude_characters="\n\r"), max_size=12),
    "awkward": st.text(
        st.one_of(st.characters(), st.sampled_from("\n\r\t \ud800İ")), max_size=12
    ),
}


@st.composite
def extracted_bundles(draw):
    """A model over every feature name the extractor emits for some data."""
    text = TEXTS[draw(st.sampled_from(sorted(TEXTS)))]
    profiles = ProfileTable.from_sets({
        user: {field: draw(st.lists(text, max_size=3))
               for _, field in NETWORK_FLAG_SOURCES.values()}
        for user in ("u1", "u2")
    })
    instances = tuple(
        LabeledInstance(str(i), draw(st.sampled_from(["u1", "u2"])), "A",
                        draw(text), StanceLabel.NONE)
        for i in range(draw(st.integers(1, 4)))
    )
    dataset = Dataset(instances, profiles, ("A",))
    selector = FeatureSetSelector(frozenset(ALL_FLAGS))
    sets = [extract_features(inst, profiles, selector) for inst in instances]
    sets.append({"txtw:x"})  # never empty
    space = build_feature_space(sets, selector)
    mode = draw(st.sampled_from(sorted(MODE_CLASSES)))
    fits = len(MODE_FITS[mode])
    # Weights of every magnitude, from a drawn seed (drawing each one
    # would make large spaces slow to generate).
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (fits, space.size)
    weights = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    weights[rng.random(shape) < 0.3] = 0.0
    biases = rng.normal(size=fits)
    model = LinearModel(weights, biases, mode, space, TrainConfig())
    return model, dataset


def _round_trips(name: str) -> bool:
    if "\n" in name or "\r" in name:
        return False
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


class TestBundleRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(extracted_bundles())
    def test_extracted_names_read_back_or_are_refused(self, bundle):
        model, dataset = bundle
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bundle"
            readable = all(map(_round_trips, model.space.names))
            event("written" if readable else "refused")
            if not readable:
                with pytest.raises(CorpusError, match="could not read it back"):
                    save_bundle(model, path)
                assert list(path.iterdir()) == []
                return
            save_bundle(model, path, topic="A")
            loaded, _ = load_bundle(path)
        assert loaded.space.names == model.space.names
        assert loaded.classes == model.classes and loaded.mode == model.mode
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.biases, model.biases)
        rows = index_rows(model.space, dataset.instances, dataset)
        loaded_rows = index_rows(loaded.space, dataset.instances, dataset)
        assert all(np.array_equal(a, b) for a, b in zip(rows, loaded_rows))
        assert predict(loaded, loaded_rows) == predict(model, rows)
