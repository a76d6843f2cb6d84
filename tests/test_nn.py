import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from neurospeaker import nn
from neurospeaker.core import make_rng
from neurospeaker.errors import DimensionError, InputError


def small_params(seed, input_dim=5, n_classes=3, filters=6, hidden=8, dtype=np.float64):
    return nn.init_classifier(
        input_dim, n_classes, make_rng(seed),
        tcn_filters=filters, tcn_width=3, gru_hidden=hidden, dtype=dtype,
    )


def random_instance(seed, batch=3, t=7, input_dim=5, n_classes=3, min_pre_gap=2e-3):
    """Draw (params, x, lengths, labels); redraw until no pre-ReLU activation
    sits close enough to zero to poison the finite-difference oracle."""
    for attempt in range(40):
        params = small_params(seed * 1000 + attempt)
        x = make_rng(seed * 1000 + attempt + 1).standard_normal((batch, t, input_dim))
        lengths = np.full(batch, t)
        lengths[0] = max(1, t - 2)
        labels = make_rng(seed * 1000 + attempt + 2).integers(0, n_classes, size=batch)
        cols = nn._im2col(x, params.tcn.width)
        pre = cols @ params.tcn.kernels.reshape(params.tcn.n_filters, -1).T + params.tcn.biases
        if np.min(np.abs(pre)) > min_pre_gap:
            return params, x, lengths, labels
    raise AssertionError("could not find a kink-safe instance")


def zero_grads(params):
    """A gradient tree of zeros shaped like ``params``."""
    zeros = copy.deepcopy(params)
    for _, arr in zeros.named_arrays():
        arr[...] = 0.0
    return zeros


def finite_difference_check(params, x, lengths, labels, h=1e-4):
    _, _, cache = nn.forward_batch(params, x, lengths, labels)
    grads = dict(nn.backward(cache, params).named_arrays())

    def loss_at():
        _, loss, _ = nn.forward_batch(params, x, lengths, labels)
        return loss

    worst = 0.0
    for name, arr in params.named_arrays():
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss_at()
            arr[idx] = orig - h
            down = loss_at()
            arr[idx] = orig
            fd = (up - down) / (2.0 * h)
            worst = max(worst, abs(fd - g[idx]) / max(1.0, abs(g[idx])))
    return worst


class TestTcn:
    def test_zero_weights_zero_output(self):
        params = small_params(0)
        params.tcn.kernels[:] = 0.0
        params.tcn.biases[:] = 0.0
        out, _ = nn.tcn_forward_batch(make_rng(1).standard_normal((1, 9, 5)), params.tcn)
        np.testing.assert_array_equal(out, 0.0)

    def test_single_tap_kernel_shifts_input(self):
        params = small_params(0)
        params.tcn.kernels[:] = 0.0
        params.tcn.biases[:] = 0.0
        # center tap of a width-3 kernel looks one step into the past
        params.tcn.kernels[0, 1, 2] = 1.0
        x = make_rng(2).standard_normal((8, 5))
        out, _ = nn.tcn_forward_batch(x[None], params.tcn)
        expected = np.maximum(np.concatenate([[0.0], x[:-1, 2]]), 0.0)
        np.testing.assert_allclose(out[0, :, 0], expected, atol=1e-12)

    def test_causality_future_perturbation(self):
        params = small_params(3)
        x = make_rng(4).standard_normal((1, 10, 5))
        base, _ = nn.tcn_forward_batch(x, params.tcn)
        x2 = x.copy()
        x2[0, -1] += 100.0
        out, _ = nn.tcn_forward_batch(x2, params.tcn)
        np.testing.assert_array_equal(base[0, :-1], out[0, :-1])

    def test_dimension_mismatch(self):
        params = small_params(0)
        with pytest.raises(DimensionError):
            nn.tcn_forward_batch(np.zeros((1, 4, 6)), params.tcn)


class TestGru:
    def test_zero_weights_zero_state(self):
        params = small_params(0)
        for arr in (params.gru.w_update, params.gru.w_reset, params.gru.w_cand,
                    params.gru.b_update, params.gru.b_reset, params.gru.b_cand):
            arr[:] = 0.0
        out, _ = nn.gru_forward_batch(make_rng(5).standard_normal((1, 6, 6)), params.gru, np.array([6]))
        np.testing.assert_array_equal(out, 0.0)

    def test_single_step_equals_cell(self):
        params = small_params(6)
        x = make_rng(7).standard_normal((1, 6))
        out, _ = nn.gru_forward_batch(x[None], params.gru, np.array([1]))
        g = params.gru
        f = 6
        z = 1 / (1 + np.exp(-(x[0] @ g.w_update[:, :f].T + g.b_update)))
        r = 1 / (1 + np.exp(-(x[0] @ g.w_reset[:, :f].T + g.b_reset)))
        c = np.tanh(x[0] @ g.w_cand[:, :f].T + g.b_cand)
        expected = (1 - z) * c  # h0 = 0
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_outputs_bounded(self):
        params = small_params(8)
        x = 5.0 * make_rng(9).standard_normal((1, 40, 6))
        out, _ = nn.gru_forward_batch(x, params.gru, np.array([40]))
        assert np.all(np.abs(out) < 1.0)

    def test_last_valid_step_respected(self):
        params = small_params(10)
        x = make_rng(11).standard_normal((2, 9, 6))
        lengths = np.array([5, 9])
        last, _ = nn.gru_forward_batch(x, params.gru, lengths)
        solo, _ = nn.gru_forward_batch(x[:1, :5], params.gru, np.array([5]))
        np.testing.assert_allclose(last[0], solo[0], atol=1e-12)

    @pytest.mark.parametrize("lengths", [[0, 4], [4, 5], [4], [4, 4, 4]])
    def test_bad_lengths_rejected(self, lengths):
        params = small_params(10)
        x = make_rng(11).standard_normal((2, 4, 6))
        with pytest.raises(InputError):
            nn.gru_forward_batch(x, params.gru, np.array(lengths))

    def test_forward_batch_rejects_bad_lengths(self):
        params = small_params(10)
        x = make_rng(11).standard_normal((2, 4, 5))
        for lengths in ([0, 4], [4, 5]):
            with pytest.raises(InputError):
                nn.forward_batch(params, x, np.array(lengths))


def _two_branch_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    GRID = np.concatenate([
        [0.0, -0.0, 1e-8, -1e-8, 88.0, -88.0, 1e4, -1e4, np.inf, -np.inf],
        np.linspace(-120.0, 120.0, 4801),
        make_rng(30).standard_normal(2000) * 10.0,
    ])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_two_branch_formula(self, dtype):
        x = self.GRID.astype(dtype)
        with np.errstate(over="raise"):
            got = nn._sigmoid(x)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.view(np.uint8), _two_branch_sigmoid(x).view(np.uint8))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_propagates(self, dtype):
        x = np.array([np.nan, 0.5, -np.nan, -3.0], dtype=dtype).reshape(2, 2)
        with np.errstate(over="raise"):
            got = nn._sigmoid(x)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(x))


def _reference_gru_last(x, lengths, gru):
    """Float64, one sequence and one step at a time, from the module
    docstring's gate equations with scipy's expit as the sigmoid."""
    f = gru.input_dim
    w = {g: np.asarray(getattr(gru, f"w_{g}"), dtype=np.float64) for g in ("update", "reset", "cand")}
    b = {g: np.asarray(getattr(gru, f"b_{g}"), dtype=np.float64) for g in ("update", "reset", "cand")}
    out = []
    for seq, n in zip(np.asarray(x, dtype=np.float64), lengths):
        h = np.zeros(gru.hidden)
        for x_t in seq[:n]:
            z = expit(w["update"][:, :f] @ x_t + w["update"][:, f:] @ h + b["update"])
            r = expit(w["reset"][:, :f] @ x_t + w["reset"][:, f:] @ h + b["reset"])
            c = np.tanh(w["cand"][:, :f] @ x_t + w["cand"][:, f:] @ (r * h) + b["cand"])
            h = z * h + (1.0 - z) * c
        out.append(h)
    return np.array(out)


class TestFloat32Path:
    """The production dtype against float64: the finite-difference gate only
    covers float64 at hidden size 8, so these cover width 128 in float32."""

    T = 24
    LENGTHS = np.array([1, T // 2, T])

    def _instance(self, dtype=np.float32):
        params = nn.init_classifier(43, 4, make_rng(31), tcn_filters=128, gru_hidden=128, dtype=dtype)
        x = (2.0 * make_rng(32).standard_normal((3, self.T, 43))).astype(np.float32)
        return params, x

    def test_gru_forward_matches_float64_reference(self):
        params, _ = self._instance()
        x = make_rng(33).standard_normal((3, self.T, 128)).astype(np.float32)
        last, _ = nn.gru_forward_batch(x, params.gru, self.LENGTHS)
        assert last.dtype == np.float32
        # float32 rounding over at most 24 steps of width 128 stays near 2.4e-7
        np.testing.assert_allclose(last, _reference_gru_last(x, self.LENGTHS, params.gru), rtol=1e-5, atol=2e-6)

    def test_backward_matches_float64(self):
        params, x = self._instance()
        params64, _ = self._instance(np.float64)
        for (_, wide), (_, narrow) in zip(params64.named_arrays(), params.named_arrays()):
            wide[...] = narrow  # the same float32 values, held in float64
        labels = np.array([0, 3, 1])
        probs32, _, cache32 = nn.forward_batch(params, x, self.LENGTHS, labels)
        probs64, _, cache64 = nn.forward_batch(params64, x.astype(np.float64), self.LENGTHS, labels)
        np.testing.assert_allclose(probs32, probs64, rtol=1e-5, atol=1e-6)
        # float32 gradients sit within about 5e-7 of each tensor's largest entry
        g64 = dict(nn.backward(cache64, params64).named_arrays())
        for name, g in nn.backward(cache32, params).named_arrays():
            assert g.dtype == np.float32, name
            np.testing.assert_allclose(g, g64[name], rtol=1e-4, atol=1e-5 * np.max(np.abs(g64[name])), err_msg=name)


class TestDenseSoftmax:
    def test_uniform_for_zero_weights(self):
        params = nn.DenseParams(np.zeros((4, 8)), np.zeros(4))
        probs = nn.dense_softmax(np.ones((1, 8)), params)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_dominant_logit(self):
        params = nn.DenseParams(np.zeros((4, 2)), np.array([10.0, 0.0, 0.0, 0.0]))
        probs = nn.dense_softmax(np.zeros((1, 2)), params)
        assert np.argmax(probs[0]) == 0
        assert probs[0, 0] > 0.99

    def test_shift_invariance(self):
        params = nn.DenseParams(make_rng(0).standard_normal((5, 8)), np.zeros(5))
        state = make_rng(1).standard_normal((1, 8))
        base = nn.dense_softmax(state, params)
        params.biases += 7.3
        shifted = nn.dense_softmax(state, params)
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_simplex_on_many_random_inputs(self):
        params = nn.DenseParams(make_rng(2).standard_normal((6, 8)), make_rng(3).standard_normal(6))
        states = make_rng(4).standard_normal((10_000, 8)) * 5.0
        probs = nn.dense_softmax(states, params)
        assert np.all(probs > 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        # extreme logits may underflow to zero but must stay normalized
        extreme = nn.dense_softmax(states * 100.0, params)
        assert np.all(extreme >= 0)
        np.testing.assert_allclose(extreme.sum(axis=1), 1.0, atol=1e-9)


class TestCrossEntropy:
    """The mean loss ``forward_batch`` returns for a labelled batch."""

    @staticmethod
    def _loss(n_classes, labels, biases, dtype=np.float64):
        params = small_params(25, n_classes=n_classes, dtype=dtype)
        params.dense.weights[:] = 0.0
        params.dense.biases[:] = biases
        x = make_rng(26).standard_normal((len(labels), 6, 5)).astype(dtype)
        lengths = np.array([6, 4, 1][: len(labels)])
        _, loss, _ = nn.forward_batch(params, x, lengths, np.array(labels))
        return loss

    def test_uniform_four_classes(self):
        assert abs(self._loss(4, [1, 3, 0], 0.0) - math.log(4)) < 1e-12

    def test_uniform_eight_classes(self):
        assert abs(self._loss(8, [5, 7], 0.0) - math.log(8)) < 1e-12

    def test_perfect_prediction_zero_loss(self):
        assert self._loss(4, [2, 2, 2], [0.0, 0.0, 1000.0, 0.0]) == 0.0

    def test_floor_prevents_infinity(self):
        # The label's float32 probability underflows to 0 and is floored.
        loss = self._loss(3, [1, 1], [1000.0, 0.0, 0.0], dtype=np.float32)
        assert loss == float(-np.log(np.float32(nn.PROB_FLOOR)))
        assert abs(loss - (-math.log(1e-12))) < 1e-6


class TestBackward:
    def test_finite_difference_small_instance(self):
        params, x, lengths, labels = random_instance(1)
        assert finite_difference_check(params, x, lengths, labels) < 1e-4

    def test_zero_loss_batch_gives_near_zero_dense_gradients(self):
        params = small_params(12)
        x = make_rng(13).standard_normal((2, 5, 5))
        lengths = np.array([5, 5])
        probs, _, cache = nn.forward_batch(params, x, lengths, np.array([0, 1]))
        # force the cached probabilities to a perfect prediction
        cache.probs = np.eye(3)[[0, 1]].astype(float)
        grads = nn.backward(cache, params)
        np.testing.assert_allclose(grads.dense.weights, 0.0, atol=1e-12)
        np.testing.assert_allclose(grads.dense.biases, 0.0, atol=1e-12)

    def test_duplicated_batch_keeps_mean_gradient(self):
        params = small_params(14)
        x = make_rng(15).standard_normal((2, 6, 5))
        lengths = np.array([6, 4])
        labels = np.array([2, 0])
        _, _, cache = nn.forward_batch(params, x, lengths, labels)
        g1 = dict(nn.backward(cache, params).named_arrays())
        x2 = np.concatenate([x, x], axis=0)
        _, _, cache2 = nn.forward_batch(
            params, x2, np.concatenate([lengths, lengths]), np.concatenate([labels, labels])
        )
        g2 = dict(nn.backward(cache2, params).named_arrays())
        for name in g1:
            np.testing.assert_allclose(g1[name], g2[name], rtol=1e-12, atol=1e-13)

    def test_padding_contributes_no_gradient_or_prediction(self):
        params = small_params(16)
        x = make_rng(17).standard_normal((1, 5, 5))
        labels = np.array([1])
        probs1, _, cache1 = nn.forward_batch(params, x, np.array([5]), labels)
        padded = np.concatenate([x, 99.0 * np.ones((1, 3, 5))], axis=1)
        probs2, _, cache2 = nn.forward_batch(params, padded, np.array([5]), labels)
        np.testing.assert_array_equal(probs1, probs2)
        g1 = dict(nn.backward(cache1, params).named_arrays())
        g2 = dict(nn.backward(cache2, params).named_arrays())
        for name in g1:
            np.testing.assert_allclose(g1[name], g2[name], atol=1e-12)


class TestForwardOnly:
    """An unlabelled pass stores no backward cache and predicts the same bits."""

    @pytest.mark.parametrize("input_dim", [13, 30, 43])
    def test_unlabelled_probs_equal_labelled(self, input_dim):
        for batch in [*range(1, 34), 64, 100, 101]:
            rng = make_rng(1000 * input_dim + batch)
            params = nn.init_classifier(input_dim, 4, rng)
            t = int(rng.integers(1, 60))
            lengths = rng.integers(1, t + 1, size=batch)
            lengths[0] = t
            x = rng.standard_normal((batch, t, input_dim)).astype(np.float32)
            labels = rng.integers(0, 4, size=batch)
            unlabelled, _, _ = nn.forward_batch(params, x, lengths)
            labelled, _, _ = nn.forward_batch(params, x, lengths, labels)
            np.testing.assert_array_equal(unlabelled, labelled, err_msg=f"batch {batch}")

    def test_unlabelled_pass_keeps_no_cache_and_cannot_backpropagate(self):
        params = small_params(18)
        x = make_rng(19).standard_normal((3, 6, 5))
        _, loss, cache = nn.forward_batch(params, x, np.array([6, 2, 4]))
        assert loss is None
        assert cache.tcn_cache is None and cache.gru_cache is None
        with pytest.raises(InputError):
            nn.backward(cache, params)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = small_params(18)
        before = {name: arr.copy() for name, arr in params.named_arrays()}
        state = nn.adam_init(params)
        nn.adam_step(params, zero_grads(params), state)
        assert state.step == 1
        for name, arr in params.named_arrays():
            np.testing.assert_array_equal(arr, before[name])

    def test_first_step_magnitude_is_lr(self):
        params = small_params(19)
        before = {name: arr.copy() for name, arr in params.named_arrays()}
        grads = zero_grads(params)
        for _, arr in grads.named_arrays():
            arr[:] = 0.37  # constant gradient: |update| ~= lr * sign
        state = nn.adam_init(params, lr=1e-3)
        nn.adam_step(params, grads, state)
        for name, arr in params.named_arrays():
            step = before[name] - arr
            np.testing.assert_allclose(step, 1e-3, rtol=0.01)

    def test_scalar_quadratic_convergence_matches_oracle(self):
        # independent scalar Adam simulation (the oracle)
        lr = 0.01
        w, m, v = 1.0, 0.0, 0.0
        for t in range(1, 201):
            g = 2.0 * w
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            w -= lr * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
        oracle_w = w
        assert abs(oracle_w) < 0.05

        # drive the packaged optimizer over a 1-element parameter tree
        params = small_params(20)
        for _, arr in params.named_arrays():
            arr[:] = 1.0
        state = nn.adam_init(params, lr=lr)
        for _ in range(200):
            grads = zero_grads(params)
            for name, arr in grads.named_arrays():
                arr[:] = 2.0 * dict(params.named_arrays())[name]
            nn.adam_step(params, grads, state)
        for _, arr in params.named_arrays():
            np.testing.assert_allclose(arr, oracle_w, rtol=1e-9, atol=1e-12)


class TestDeterminism:
    def test_init_bit_identical(self):
        a = small_params(21)
        b = small_params(21)
        for (_, x), (_, y) in zip(a.named_arrays(), b.named_arrays()):
            np.testing.assert_array_equal(x, y)

    def test_training_steps_bit_identical(self):
        def run():
            params = small_params(22)
            state = nn.adam_init(params)
            x = make_rng(23).standard_normal((4, 6, 5))
            lengths = np.full(4, 6)
            labels = np.array([0, 1, 2, 0])
            for _ in range(5):
                _, _, cache = nn.forward_batch(params, x, lengths, labels)
                nn.adam_step(params, nn.backward(cache, params), state)
            return params

        a, b = run(), run()
        for (_, x), (_, y) in zip(a.named_arrays(), b.named_arrays()):
            np.testing.assert_array_equal(x, y)


def explicit_init_classifier(input_dim, n_speakers, rng, tcn_filters, tcn_width, gru_hidden, dtype):
    """The classifier initialisation written out layer by layer: Glorot
    draws for the TCN kernels, the three GRU weight matrices and the dense
    weights, in that order, and zero biases."""
    def glorot(shape):
        fan_out, fan_in = shape[0], int(np.prod(shape[1:]))
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape).astype(dtype)

    gru_weights = (gru_hidden, tcn_filters + gru_hidden)
    return {
        "tcn.kernels": glorot((tcn_filters, tcn_width, input_dim)),
        "tcn.biases": np.zeros(tcn_filters, dtype=dtype),
        "gru.w_update": glorot(gru_weights),
        "gru.w_reset": glorot(gru_weights),
        "gru.w_cand": glorot(gru_weights),
        "gru.b_update": np.zeros(gru_hidden, dtype=dtype),
        "gru.b_reset": np.zeros(gru_hidden, dtype=dtype),
        "gru.b_cand": np.zeros(gru_hidden, dtype=dtype),
        "dense.weights": glorot((n_speakers, gru_hidden)),
        "dense.biases": np.zeros(n_speakers, dtype=dtype),
    }


class TestParameterLayout:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tcn_width", [2, 3])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_init_equals_explicit_layer_by_layer_init(self, seed, tcn_width, dtype):
        dims = dict(tcn_filters=6, tcn_width=tcn_width, gru_hidden=5)
        params = nn.init_classifier(43, 4, make_rng(seed), dtype=dtype, **dims)
        expected = explicit_init_classifier(43, 4, make_rng(seed), dtype=dtype, **dims)
        names = [name for name, _ in params.named_arrays()]
        assert names == list(expected)
        for name, arr in params.named_arrays():
            assert arr.dtype == dtype
            assert arr.tobytes() == expected[name].tobytes(), name

    def test_named_arrays_yields_parameters_in_order(self):
        assert [name for name, _ in small_params(1).named_arrays()] == list(nn.PARAMETERS)

    def test_parameter_shapes_match_initialised_shapes(self):
        params = nn.init_classifier(13, 3, make_rng(2), tcn_filters=4, tcn_width=2, gru_hidden=7)
        shapes = nn.parameter_shapes(13, 3, tcn_width=2, tcn_filters=4, gru_hidden=7)
        assert list(shapes) == list(nn.PARAMETERS)
        assert {name: arr.shape for name, arr in params.named_arrays()} == shapes

    def test_from_arrays_inverts_named_arrays(self):
        params = small_params(3)
        rebuilt = nn.ClassifierParams.from_arrays([arr for _, arr in params.named_arrays()])
        for (name, a), (_, b) in zip(params.named_arrays(), rebuilt.named_arrays()):
            assert a is b, name


class TestPadBatch:
    def test_shapes_and_lengths(self):
        seqs = [np.ones((4, 3)), np.ones((7, 3)), np.ones((2, 3))]
        x, lengths = nn.pad_batch(seqs)
        assert x.shape == (3, 7, 3)
        assert lengths.tolist() == [4, 7, 2]
        assert np.all(x[2, 2:] == 0.0)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            nn.pad_batch([np.ones((4, 3)), np.ones((4, 2))])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            nn.pad_batch([])


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_tcn_causality_property(t, seed):
    params = small_params(24)
    x = make_rng(seed).standard_normal((1, t, 5))
    base, _ = nn.tcn_forward_batch(x, params.tcn)
    x2 = x.copy()
    x2[0, -1] += 10.0
    out, _ = nn.tcn_forward_batch(x2, params.tcn)
    np.testing.assert_array_equal(base[0, :-1], out[0, :-1])
