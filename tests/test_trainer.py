"""Forward/backward correctness, optimizer behavior, and reproducibility."""

import math
import struct

import numpy as np
import pytest

from bloomemb.codec import PackedInstances, SparseInstance, encode_batch
from bloomemb.data import DataError, SyntheticSpec, generate_synthetic
from bloomemb.hashing import HashMatrix, build_hash_matrix, identity_hash_matrix
from bloomemb.trainer import (NetworkSpec, OptimizerSpec, _apply_update,
                              _cross_entropy, _gradients, _OptimizerState,
                              _step, _target_bits, backward_and_step,
                              forward_batch, gradients, init_network,
                              multi_hot, network_from_bytes, network_to_bytes,
                              train)


def small_net(sizes, seed=0, dtype=np.float64):
    return init_network(NetworkSpec(layer_sizes=sizes, init_seed=seed), dtype=dtype)


def set_bits_of(dense):
    """A dense target as the loss kernel takes it: the sorted flat indices
    of its nonzero entries and their values."""
    codes = np.flatnonzero(dense)
    return codes, dense.take(codes)


class TestForward:
    def test_zero_weight_network_is_uniform(self):
        net = small_net((4, 3))
        for w in net.weights:
            w[:] = 0.0
        out = forward_batch(net, np.array([[1.0, 0.0, 1.0, 0.0]]))
        assert np.allclose(out, 1 / 3)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            net = small_net((6, 4, 3), seed=seed)
            out = forward_batch(net, rng.random((4, 6)))
            assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-6

    def test_matches_hand_rolled_oracle_2_2_2(self):
        net = small_net((2, 2, 2))
        net.weights[0][:] = [[0.1, -0.2], [0.3, 0.4]]
        net.biases[0][:] = [0.01, -0.02]
        net.weights[1][:] = [[0.5, -0.5], [0.25, 0.75]]
        net.biases[1][:] = [0.0, 0.1]
        x = [1.0, 2.0]
        # independent arithmetic: z1 -> relu -> z2 -> softmax
        z1 = [0.1 * 1 + 0.3 * 2 + 0.01, -0.2 * 1 + 0.4 * 2 - 0.02]
        a1 = [max(v, 0.0) for v in z1]
        z2 = [a1[0] * 0.5 + a1[1] * 0.25 + 0.0,
              a1[0] * -0.5 + a1[1] * 0.75 + 0.1]
        exps = [math.exp(v) for v in z2]
        expected = [e / sum(exps) for e in exps]
        out = forward_batch(net, np.array([x]))
        assert np.allclose(out[0], expected, rtol=1e-12)

    def test_accepts_bloom_vector(self):
        net = small_net((4, 2))
        out = forward_batch(net, np.array([[1, 0, 1, 0]], dtype=np.uint8))
        assert out.shape == (1, 2)

    def test_size_mismatch(self):
        net = small_net((4, 2))
        with pytest.raises(ValueError):
            forward_batch(net, np.ones((1, 3)))

    @pytest.mark.parametrize("sizes, weights, bias, x", [
        pytest.param((2, 2), np.inf, 0.0, [[1.0, 1.0]], id="inf-weight"),
        pytest.param((2, 2, 2), 0.5, [0.0, np.nan], [[1.0, 1.0]],
                     id="nan-hidden-bias"),
        # only the second row goes wrong: its logits overflow to [+inf, 0],
        # or both to -inf, so the row max is inf or -inf
        pytest.param((2, 2), [[0.0, 0.0], [1e308, 0.0]], 0.0,
                     [[1.0, 0.0], [0.0, 4.0]], id="logit-overflows-to-inf"),
        pytest.param((2, 2), [[0.0, 0.0], [-1e308, -1e308]], 0.0,
                     [[1.0, 0.0], [0.0, 4.0]], id="row-of-minus-inf-logits")])
    def test_nonfinite_reported(self, sizes, weights, bias, x):
        # weights and bias set the first layer
        net = small_net(sizes)
        net.weights[0][:] = weights
        net.biases[0][:] = bias
        with pytest.raises(FloatingPointError,
                           match="^non-finite activation in forward pass$"):
            forward_batch(net, np.array(x))


class TestLoss:
    def test_perfect_prediction_loss_vanishes(self):
        target = np.array([[0.0, 1.0, 0.0]])
        almost_one = np.array([[5e-13, 1.0 - 1e-12, 5e-13]])
        loss = _cross_entropy(almost_one, *set_bits_of(target))
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_uniform_prediction_single_bit_target(self):
        m = 7
        probs = np.full((1, m), 1 / m)
        target = np.eye(m)[2:3]
        assert _cross_entropy(probs, *set_bits_of(target)) == pytest.approx(math.log(m))

    def test_matches_arithmetic_oracle(self):
        # mean over a batch of rows of the per-row cross-entropy against the
        # multi-hot target normalized to sum 1; a zero target entry adds 0
        rng = np.random.default_rng(5)
        cases = []
        for _ in range(100):
            m = int(rng.integers(2, 9))
            batch = int(rng.integers(1, 5))
            raw = rng.random((batch, m))
            probs = raw / raw.sum(axis=1, keepdims=True)
            bits = np.zeros((batch, m))
            for row in bits:
                row[rng.choice(m, size=rng.integers(1, m + 1), replace=False)] = 1
            cases.append((probs, bits / bits.sum(axis=1, keepdims=True)))
        # a zero target on a probability of exactly 0
        cases.append((np.array([[0.0, 0.25, 0.75], [0.5, 0.5, 0.0]]),
                      np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0]])))
        for probs, t in cases:
            batch, m = t.shape
            oracle = sum(-sum(t[b, i] * math.log(probs[b, i]) for i in range(m)
                              if t[b, i])
                         for b in range(batch)) / batch
            assert _cross_entropy(probs, *set_bits_of(t)) == pytest.approx(oracle)

    def test_allocates_less_than_the_probabilities(self, traced_peak):
        # a (128, 2000) float32 batch with 6 target bits per row: only the
        # nonzero entries are gathered, nothing of the batch's size is made
        rng = np.random.default_rng(15)
        raw = rng.random((128, 2000), dtype=np.float32)
        probs = raw / raw.sum(axis=1, keepdims=True)
        t = np.zeros_like(probs)
        for row in t:
            row[rng.choice(2000, size=6, replace=False)] = 1 / 6
        assert traced_peak(_cross_entropy, probs, *set_bits_of(t)) < probs.nbytes

    def test_all_zero_target_rejected(self):
        # train refuses a profile whose encoded target cannot be normalized
        rng = np.random.default_rng(14)
        dataset = tiny_dataset(rng)
        dataset[3] = (dataset[3][0], SparseInstance.from_items(20, []))
        net = small_net((20, 4, 20), seed=1)
        with pytest.raises(ValueError, match="^profile 3 has no target items$"):
            train(net, dataset, None, None, OptimizerSpec("adam"), epochs=1)


class TestGradients:
    def _random_batch(self, rng, n, n_in, n_out):
        x = (rng.random((n, n_in)) < 0.4).astype(np.float64)
        t = rng.random((n, n_out))
        t /= t.sum(axis=1, keepdims=True)
        return x, t

    def test_finite_difference_check_5_4_3(self):
        rng = np.random.default_rng(7)
        net = small_net((5, 4, 3), seed=1, dtype=np.float64)
        x, t = self._random_batch(rng, 8, 5, 3)
        _, grads = gradients(net, x, t)
        h = 1e-6
        for param, grad in zip(net.parameters(), grads):
            flat = param.reshape(-1)
            gflat = grad.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                lo_plus, _ = gradients(net, x, t)
                flat[idx] = orig - h
                lo_minus, _ = gradients(net, x, t)
                flat[idx] = orig
                numeric = (lo_plus - lo_minus) / (2 * h)
                denom = max(abs(numeric), abs(gflat[idx]), 1e-8)
                assert abs(numeric - gflat[idx]) / denom < 1e-4

    def test_zero_learning_rate_is_noop(self):
        rng = np.random.default_rng(2)
        net = small_net((4, 3), seed=3)
        before = [p.copy() for p in net.parameters()]
        x, t = self._random_batch(rng, 5, 4, 3)
        for kind in ("sgd", "adam"):
            backward_and_step(net, (x, t), OptimizerSpec(kind, learning_rate=0.0))
            for p, b in zip(net.parameters(), before):
                assert np.array_equal(p, b)

    def test_single_sgd_step_decreases_loss(self):
        rng = np.random.default_rng(4)
        net = small_net((6, 3), seed=5)  # linear-softmax toy
        x, t = self._random_batch(rng, 16, 6, 3)
        loss0, _ = gradients(net, x, t)
        backward_and_step(net, (x, t),
                          OptimizerSpec("sgd", learning_rate=0.01, momentum=0.0))
        loss1, _ = gradients(net, x, t)
        assert loss1 < loss0

    def test_gradient_clipping_bounds_update(self):
        rng = np.random.default_rng(6)
        net = small_net((4, 3), seed=7)
        x, t = self._random_batch(rng, 4, 4, 3)
        _, grads = gradients(net, x, t)
        raw_norm = math.sqrt(sum(float((g ** 2).sum()) for g in grads))
        clip = raw_norm / 2
        before = [p.copy() for p in net.parameters()]
        backward_and_step(net, (x, t),
                          OptimizerSpec("sgd", learning_rate=1.0, momentum=0.0,
                                        clip_norm=clip))
        delta = math.sqrt(sum(float(((p - b) ** 2).sum())
                              for p, b in zip(net.parameters(), before)))
        assert delta == pytest.approx(clip, rel=1e-6)

    def test_nan_target_is_a_non_finite_loss(self):
        net = small_net((2, 2))
        with pytest.raises(FloatingPointError, match="^non-finite training loss$"):
            gradients(net, np.array([[1.0, 1.0]]), np.array([[np.nan, 1.0]]))

    def test_empty_batch_rejected(self):
        net = small_net((2, 2))
        with pytest.raises(ValueError):
            backward_and_step(net, (np.empty((0, 2)), np.empty((0, 2))),
                              OptimizerSpec("sgd"))

    @pytest.mark.parametrize("first,given", [
        (OptimizerSpec("adam"), OptimizerSpec("adam", learning_rate=0.0)),
        (OptimizerSpec("sgd"), OptimizerSpec("adam"))], ids=["adam-lr-0", "sgd-adam"])
    def test_step_with_another_optimizer_than_its_state_is_rejected(self, first,
                                                                   given):
        net = small_net((4, 3), seed=3)
        x, t = self._random_batch(np.random.default_rng(8), 5, 4, 3)
        _, state = backward_and_step(net, (x, t), first)
        before = [p.copy() for p in net.parameters()]
        with pytest.raises(ValueError, match="differs from the state's"):
            backward_and_step(net, (x, t), given, state)
        for p, b in zip(net.parameters(), before):
            assert np.array_equal(p, b)


def _textbook_update(params, grads, first, second, spec, t):
    """Momentum SGD or Adam (Kingma & Ba, 2015) in plain expressions, the
    reference that `_apply_update` must equal bit for bit."""
    if spec.clip_norm is not None:
        # a float64 scale, so float32 gradients are scaled in float64
        total = np.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                            for g in grads))
        if total > spec.clip_norm:
            for g in grads:
                g *= spec.clip_norm / total
    lr, b1, b2 = spec.learning_rate, spec.beta1, spec.beta2
    for p, g, m, v in zip(params, grads, first, second):
        if spec.kind == "sgd":
            m *= spec.momentum
            m -= lr * g
            p += m
            continue
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)


class TestUpdate:
    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_equals_textbook_oracle_bit_for_bit(self, kind, dtype, clip_norm):
        rng = np.random.default_rng(16)
        net = small_net((37, 19, 23), seed=4, dtype=dtype)
        spec = OptimizerSpec(kind, learning_rate=0.01, clip_norm=clip_norm)
        state = _OptimizerState(net, spec)
        params = [p.copy() for p in net.parameters()]
        first = [np.zeros_like(p) for p in params]
        second = [np.zeros_like(p) for p in params]
        for t in range(1, 6):
            grads = [rng.standard_normal(p.shape).astype(dtype) for p in params]
            _textbook_update(params, [g.copy() for g in grads], first, second,
                             spec, t)
            _apply_update(net, grads, state)
            for got, want in zip(net.parameters(), params):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_scratch_is_one_array_the_size_of_the_largest_parameter(self, dtype):
        # each update uses a view of it, so a step holds each parameter four
        # times (weights, gradients, two moments) plus this one array
        net = small_net((37, 19, 23), seed=4, dtype=dtype)
        state = _OptimizerState(net, OptimizerSpec("adam"))
        largest = max(p.size for p in net.parameters())
        assert state.scratch.shape == (largest,) and state.scratch.dtype == dtype

    @pytest.mark.parametrize("kind,clip_norm", [
        ("adam", None), ("sgd", None), ("adam", 1.0), ("sgd", 1.0)],
        ids=["adam", "sgd", "adam-clip-1.0", "sgd-clip-1.0"])
    def test_steady_state_step_allocates_under_one_parameter(self, kind,
                                                              clip_norm,
                                                              traced_peak):
        net = init_network(NetworkSpec(layer_sizes=(2000, 100, 2000)))
        state = _OptimizerState(net, OptimizerSpec(kind, clip_norm=clip_norm))
        rng = np.random.default_rng(17)
        grads = [rng.standard_normal(p.shape, dtype=np.float32)
                 for p in net.parameters()]
        _apply_update(net, grads, state)  # warm-up
        assert traced_peak(_apply_update, net, grads, state) < net.weights[0].nbytes


def step_inputs():
    """A 2000-100-2000 net and a batch of 128 rows with 6 input and 6 target
    bits per row."""
    rng = np.random.default_rng(18)
    net = init_network(NetworkSpec(layer_sizes=(2000, 100, 2000)))
    x = np.zeros((128, 2000), dtype=np.float32)
    t = np.zeros_like(x)
    for xr, tr in zip(x, t):
        xr[rng.choice(2000, size=6, replace=False)] = 1
        tr[rng.choice(2000, size=6, replace=False)] = 1 / 6
    return net, x, t


class TestStep:
    def test_warm_step_allocates_under_one_batch_array(self, traced_peak):
        # every array of the step's size is one its state owns
        net, x, t = step_inputs()
        spec = OptimizerSpec("adam")
        _, state = backward_and_step(net, (x, t), spec)  # warm-up
        assert traced_peak(backward_and_step, net, (x, t), spec, state) < x.nbytes

    @pytest.mark.parametrize("kind,bound", [("adam", 5.5), ("sgd", 3.5)])
    def test_cold_step_peak_in_parameter_bytes(self, kind, bound, traced_peak):
        # the first step allocates its state: the moments, the gradients,
        # Adam's one scratch array, as large as the largest parameter, and the
        # passes' buffers,
        # whose backward pass reuses the forward pass's spent arrays
        net, x, t = step_inputs()
        params = sum(p.nbytes for p in net.parameters())
        peak = traced_peak(backward_and_step, net, (x, t), OptimizerSpec(kind))
        assert peak < bound * params


def tiny_dataset(rng, n=60, d=20):
    profiles = []
    for _ in range(n):
        items = rng.choice(d, size=4, replace=False) + 1
        profiles.append((SparseInstance.from_items(d, items[:2]),
                         SparseInstance.from_items(d, items[2:])))
    return profiles


class TestTrain:
    def test_identity_scale_matches_no_embedding(self):
        rng = np.random.default_rng(10)
        dataset = tiny_dataset(rng)
        ident = identity_hash_matrix(20)
        runs = []
        for h in (None, ident):
            net = small_net((20, 8, 20), seed=2, dtype=np.float64)
            report = train(net, dataset, h, h, OptimizerSpec("adam", 0.01),
                           epochs=3, batch_size=16, shuffle_seed=4)
            runs.append(report.epoch_losses)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("collisions", [False, True],
                             ids=["identity", "k3-collisions"])
    def test_epochs_zero_loss_is_the_dense_loss_over_the_batches(self,
                                                                 collisions):
        # batches of 16 in split order, the last one short, each scored by
        # the loss kernel against its dense encoded targets normalized to
        # sum 1, taken as their nonzero entries
        dataset = tiny_dataset(np.random.default_rng(23))
        dataset[0] = (dataset[0][0], SparseInstance.from_items(20, [1, 2]))
        h = _collision_matrix() if collisions else None
        matrix = identity_hash_matrix(20) if h is None else h
        net = small_net((matrix.m, 5, matrix.m), seed=6, dtype=np.float32)
        report = train(net, dataset, h, h, OptimizerSpec("adam"), epochs=0,
                       batch_size=16)
        total = 0
        for s in range(0, len(dataset), 16):
            part = dataset[s:s + 16]
            x = encode_batch([pair[0] for pair in part], matrix).astype(np.float32)
            t = encode_batch([pair[1] for pair in part], matrix).astype(np.float32)
            t /= t.sum(axis=1, keepdims=True)
            total += _cross_entropy(forward_batch(net, x), *set_bits_of(t)) * len(part)
        assert report.final_loss == total / len(dataset)

    def test_epochs_zero_leaves_network_untouched(self):
        rng = np.random.default_rng(11)
        dataset = tiny_dataset(rng)
        net = small_net((20, 5, 20), seed=6)
        before = [p.copy() for p in net.parameters()]
        report = train(net, dataset, None, None, OptimizerSpec("adam"), epochs=0)
        assert report.epochs == 0
        assert report.epoch_losses == []
        assert math.isfinite(report.final_loss) and report.final_loss >= 0
        for p, b in zip(net.parameters(), before):
            assert np.array_equal(p, b)

    @pytest.mark.parametrize("n,epochs,batch_size,message", [
        (60, 1, 0, "^batch_size must be >= 1, got 0$"),
        (60, 1, -5, "^batch_size must be >= 1, got -5$"),
        (60, -1, 128, "^epochs must be >= 0$"),
        (0, 1, 128, "^the split holds no profiles$")],
        ids=["batch-size-0", "batch-size--5", "epochs--1", "empty-split"])
    def test_rejects_bad_arguments_leaving_the_network(self, n, epochs, batch_size,
                                                       message):
        dataset = tiny_dataset(np.random.default_rng(13), n=n)
        net = small_net((20, 5, 20), seed=6)
        before = [p.copy() for p in net.parameters()]
        with pytest.raises(ValueError, match=message):
            train(net, dataset, None, None, OptimizerSpec("adam"), epochs=epochs,
                  batch_size=batch_size)
        for p, b in zip(net.parameters(), before):
            assert np.array_equal(p, b)

    def test_loss_decreases_on_synthetic_task(self):
        ds = generate_synthetic(SyntheticSpec(d=50, n=400, n_clusters=5,
                                              profile_size_min=4,
                                              profile_size_max=8, noise=0.02,
                                              test_size=0.0, seed=3))
        net = small_net((50, 16, 50), seed=3)
        report = train(net, ds.train_profiles(), None, None,
                       OptimizerSpec("adam", learning_rate=0.005),
                       epochs=5, batch_size=32, shuffle_seed=1)
        diffs = np.diff(report.epoch_losses)
        assert (diffs < 0).all()

    def test_bit_identical_given_seeds(self):
        rng = np.random.default_rng(12)
        dataset = tiny_dataset(rng)
        losses = []
        for _ in range(2):
            net = small_net((20, 6, 20), seed=9)
            report = train(net, dataset, None, None,
                           OptimizerSpec("sgd", 0.05), epochs=2,
                           batch_size=8, shuffle_seed=7)
            losses.append(report.epoch_losses)
        assert losses[0] == losses[1]

    def test_peak_is_below_the_encoded_split(self, traced_peak):
        # the split encoded in one piece is an (n, m) uint8 array per side;
        # train holds the packed split and one batch's buffers
        dataset = tiny_dataset(np.random.default_rng(20), n=4000, d=500)
        net = small_net((500, 16, 500), seed=1, dtype=np.float32)
        peak = traced_peak(train, net, dataset, None, None, OptimizerSpec("adam"),
                           epochs=1, batch_size=32)
        assert peak < 4000 * 500

    @pytest.mark.parametrize("side,h_in,h_out", [
        ("input", identity_hash_matrix(30), None),
        ("output", None, build_hash_matrix(20, 10, 2, 0))], ids=["input-d", "output-m"])
    def test_a_matrix_that_does_not_fit_is_a_data_fault(self, side, h_in, h_out):
        # the data's 20 items against a d = 30 matrix; a 10-bit output
        # against a 20-unit network
        net = small_net((20, 4, 20), seed=1)
        with pytest.raises(DataError, match=f"^{side} hash matrix has"):
            train(net, tiny_dataset(np.random.default_rng(13)), h_in, h_out,
                  OptimizerSpec("adam"), epochs=1)

    def test_wall_times_recorded(self):
        rng = np.random.default_rng(13)
        dataset = tiny_dataset(rng)
        net = small_net((20, 4, 20), seed=1)
        report = train(net, dataset, None, None, OptimizerSpec("adam"), epochs=2)
        assert len(report.epoch_times) == 2
        assert all(t >= 0 for t in report.epoch_times)


def _plain_train(net, dataset, h_in, h_out, spec, epochs, batch_size,
                 shuffle_seed):
    """`train` in plain expressions, the reference it must equal bit for
    bit: the split encoded up front, a fresh array per operation and the
    update of `_textbook_update`. Updates `net` and returns the epoch losses."""
    x_bits = encode_batch([pair[0] for pair in dataset], h_in)
    t_bits = encode_batch([pair[1] for pair in dataset], h_out)
    t_sum = t_bits.sum(axis=1)
    n, dtype, last = len(dataset), net.dtype, len(net.weights) - 1
    params = net.parameters()
    first = [np.zeros_like(p) for p in params]
    second = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(shuffle_seed)
    losses, step = [], 0
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for s in range(0, n, batch_size):
            idx = order[s:s + batch_size]
            x = x_bits[idx].astype(dtype)
            t = t_bits[idx].astype(dtype)
            t /= t_sum[idx, None].astype(dtype)
            acts, pre = [x], []
            for l, (w, b) in enumerate(zip(net.weights, net.biases)):
                z = acts[-1] @ w + b
                pre.append(z)
                if l < last:
                    acts.append(np.maximum(z, 0))
                else:
                    e = np.exp(z - z.max(axis=1, keepdims=True))
                    acts.append(e / e.sum(axis=1, keepdims=True))
            probs, hit = acts[-1], t != 0
            logp = np.log(np.maximum(probs[hit].astype(np.float64), 1e-12))
            total += float(-(t[hit] * logp).sum() / len(idx)) * len(idx)
            dz = (probs - t) / len(idx)
            grads = []
            for l in range(last, -1, -1):
                grads[:0] = [acts[l].T @ dz, dz.sum(axis=0)]
                if l > 0:
                    slope = (pre[l - 1] > 0).astype(dtype)
                    slope[pre[l - 1] == 0] = 0.5
                    dz = (dz @ net.weights[l].T) * slope
            step += 1
            _textbook_update(params, grads, first, second, spec, step)
        losses.append(total / n)
    return losses


def _collision_matrix() -> HashMatrix:
    """k = 3 over d = 20, m = 12, where items 1 and 2 share bit 1."""
    rows = build_hash_matrix(20, 12, 3, 5).rows.copy()
    rows[0], rows[1] = (1, 2, 3), (1, 4, 5)
    return HashMatrix(d=20, m=12, k=3, seed=5, rows=rows)


class TestTrainOracle:
    @pytest.mark.parametrize("matrix,batch_size", [
        (identity_hash_matrix(20), 16),    # a short last batch of 12
        (identity_hash_matrix(20), 100),   # one batch of all 60
        (_collision_matrix(), 16)], ids=["identity-16", "identity-100", "k3-16"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_equals_plain_expressions_bit_for_bit(self, kind, dtype, matrix,
                                                 batch_size):
        dataset = tiny_dataset(np.random.default_rng(19))
        # items 1 and 2 in one target: 6 projections set 5 bits under k = 3;
        # an empty input first in the first batch, while the biases are 0,
        # puts hidden pre-activations at the ReLU kink
        dataset[0] = (dataset[0][0], SparseInstance.from_items(20, [1, 2]))
        first = np.random.default_rng(5).permutation(len(dataset))[0]
        dataset[first] = (SparseInstance.from_items(20, []), dataset[first][1])
        spec = OptimizerSpec(kind, learning_rate=0.01)
        sizes = (matrix.m, 8, 6, matrix.m)
        net, ref = small_net(sizes, seed=3, dtype=dtype), small_net(sizes, seed=3,
                                                                    dtype=dtype)
        report = train(net, dataset, matrix, matrix, spec, epochs=2,
                       batch_size=batch_size, shuffle_seed=5)
        want = _plain_train(ref, dataset, matrix, matrix, spec, 2, batch_size, 5)
        assert report.epoch_losses == want
        for got, exp in zip(net.parameters(), ref.parameters()):
            assert got.dtype == exp.dtype
            assert np.array_equal(got, exp)

    def test_collision_matrix_sets_five_bits_for_items_1_and_2(self):
        target = SparseInstance.from_items(20, [1, 2])
        assert encode_batch([target], _collision_matrix()).sum() == 5


class TestSetBitStep:
    """The dense entry points against the set-bit kernels that `train`
    steps with, on the same target."""

    @staticmethod
    def batch(dtype):
        # 128 rows of 1-4 target items under k = 3 over m = 12: many rows
        # set fewer bits than their items project to
        rng = np.random.default_rng(22)
        matrix = build_hash_matrix(40, 12, 3, 6)
        net = small_net((30, 9, 12), seed=8, dtype=dtype)
        targets = PackedInstances.of([SparseInstance.from_items(
            40, rng.choice(40, size=rng.integers(1, 5), replace=False) + 1)
            for _ in range(128)])
        bits = encode_batch(targets, matrix).astype(dtype)
        assert (bits.sum(axis=1) < targets.sizes * matrix.k).sum() > 32
        dense = bits / bits.sum(axis=1, keepdims=True)
        x = (rng.random((128, 30)) < 0.2).astype(dtype)
        return net, x, dense, _target_bits(targets, matrix, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_equal_the_set_bit_kernel_bit_for_bit(self, dtype):
        net, x, dense, (codes, values) = self.batch(dtype)
        assert np.array_equal(codes, np.flatnonzero(dense))
        assert values.dtype == dtype and np.array_equal(values, dense.take(codes))
        loss, grads = gradients(net, x, dense)
        grads = [g.copy() for g in grads]
        want_loss, want = _gradients(net, x, codes, values)
        assert loss == want_loss
        for got, exp in zip(grads, want):
            assert np.array_equal(got, exp)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_backward_and_step_equals_the_set_bit_step(self, kind, dtype):
        net, x, dense, (codes, values) = self.batch(dtype)
        ref = small_net((30, 9, 12), seed=8, dtype=dtype)
        spec = OptimizerSpec(kind, learning_rate=0.01)
        state, ref_state = None, None
        for _ in range(2):
            loss, state = backward_and_step(net, (x, dense), spec, state)
            want, ref_state = _step(ref, x, codes, values, spec, ref_state)
            assert loss == want
        for got, exp in zip(net.parameters(), ref.parameters()):
            assert np.array_equal(got, exp)

    def test_dense_target_of_another_shape_is_rejected(self):
        net = small_net((4, 3))
        with pytest.raises(ValueError, match="^target shape"):
            gradients(net, np.ones((2, 4)), np.full((2, 4), 0.25))
        with pytest.raises(ValueError, match="^target shape"):
            gradients(net, np.ones((2, 4)), np.full((1, 3), 1 / 3))


class TestCheckpoints:
    def test_round_trip(self):
        net = small_net((7, 5, 3), seed=42, dtype=np.float32)
        loaded = network_from_bytes(network_to_bytes(net))
        assert loaded.spec.layer_sizes == (7, 5, 3)
        for a, b in zip(net.parameters(), loaded.parameters()):
            assert np.array_equal(a, b)

    def test_round_trip_preserves_forward(self, tmp_path):
        net = small_net((6, 4, 2), seed=8, dtype=np.float32)
        path = tmp_path / "model.bin"
        path.write_bytes(network_to_bytes(net))
        loaded = network_from_bytes(path.read_bytes())
        x = np.linspace(0, 1, 6)[None, :]
        assert np.array_equal(forward_batch(net, x), forward_batch(loaded, x))

    def test_layout_is_frozen(self):
        # sizes (2, 3, 1): W0 (2, 3), b0 (3,), W1 (3, 1), b1 (1,), 13 floats
        values = np.arange(13, dtype=np.float32) / 4
        data = (b"BENC" + struct.pack("<4I", 3, 2, 3, 1)
                + struct.pack("<13f", *values.tolist()))
        net = network_from_bytes(data)
        assert net.spec.layer_sizes == (2, 3, 1)
        params = net.parameters()
        assert [p.shape for p in params] == [(2, 3), (3,), (3, 1), (1,)]
        assert np.array_equal(np.concatenate([p.ravel() for p in params]), values)
        assert all(p.dtype == np.float32 and p.flags.writeable for p in params)
        assert network_to_bytes(net) == data

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            network_from_bytes(b"XXXX" + b"\0" * 16)


class TestMultiHot:
    def test_scatter(self):
        instances = [SparseInstance.from_items(5, [1, 5]),
                     SparseInstance.from_items(5, [])]
        out = multi_hot(instances, 5)
        assert out.tolist() == [[1, 0, 0, 0, 1], [0, 0, 0, 0, 0]]
