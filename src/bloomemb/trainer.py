"""Minimal feed-forward trainer for Bloom-encoded inputs and targets.

Dense layers with ReLU hidden activations and a softmax output, trained
on batches with categorical cross-entropy against multi-hot targets
normalized to a distribution. Inputs and targets are encoded by hash
matrices; the no-embedding baseline uses the identity matrix. A target
is sparse: row i of a batch's target is 1/count_i at the count_i bits its
items set and 0 elsewhere, so a train step takes it as those bits' sorted
flat indices ``i * m + b`` and their values, and the loss and its gradient
read and write only those entries of the softmax.
Optimizers: SGD with momentum and Adam. Everything is plain numpy;
training runs in float32 by default, gradient checking uses float64
networks.

A warm train step allocates nothing of batch or parameter size. The
optimizer state owns every array the step writes: each layer's
pre-activation and activation, the softmax output (computed in place), the
gradients and Adam's scratch. The batch-sized ones are sized for the
largest batch, and a shorter batch uses their leading rows. Adam's
scratch is one array the size of the largest parameter, and each
parameter's update uses a view of its leading entries, so a step holds
each parameter four times (weights, gradients and both moments) plus that
array. The backward pass and the update write into arrays whose values are
spent: the loss gradient into the softmax, a hidden layer's gradient into
its activation and its ReLU slope into its pre-activation, Adam's
denominator into the gradient. Every operation keeps the plain expression and its order, so
losses and weights match the plain expressions bit for bit. ``train``
encodes each batch's inputs, a view of the packed split, straight into a
buffer it owns and takes its target's set bits from
:func:`~bloomemb.codec.set_bits`, so it never holds the encoded split nor
a (batch, m) target. :func:`gradients` and :func:`backward_and_step` take
a dense target and pass its nonzero entries, in row-major order, to the
same kernels.

Weight init is scaled uniform, U(-sqrt(1/fan_in), +sqrt(1/fan_in)), from
a seeded generator; with fixed init and shuffle seeds a training run is
bit-reproducible in the same build.

Checkpoint format, written by ``network_to_bytes`` and read by
``network_from_bytes`` (pure functions of the bytes; the caller opens the
file): 4-byte magic ``BENC``, little-endian uint32 layer count, that many
little-endian uint32 layer sizes, then per layer the weight matrix
(row-major, fan_in x fan_out) followed by the bias vector, all
little-endian float32.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codec import (PackedInstances, PackedPairs, SparseInstance, encode_batch,
                    encode_rows, set_bits)
from .data import DataError
from .hashing import HashMatrix, identity_hash_matrix

_CHECKPOINT_MAGIC = b"BENC"
_LOSS_EPS = 1e-12
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class NetworkSpec:
    layer_sizes: tuple[int, ...]
    init_seed: int = 0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2:
            raise ValueError("a network needs at least input and output layers")
        if any(s < 1 for s in sizes):
            raise ValueError(f"all layer sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "layer_sizes", sizes)


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str  # "sgd" (momentum) or "adam"
    learning_rate: float = 0.001
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    clip_norm: float | None = None

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not self.learning_rate >= 0:
            raise ValueError("learning rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 < b < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {b}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be None or > 0, got {self.clip_norm}")


@dataclass
class TrainReport:
    epochs: int
    final_loss: float
    epoch_losses: list[float]
    epoch_times: list[float]
    wall_time: float


class Network:
    """Dense feed-forward network; weights[l] has shape (fan_in, fan_out)."""

    def __init__(self, spec: NetworkSpec, weights: list[np.ndarray],
                 biases: list[np.ndarray], dtype=np.float32):
        self.spec = spec
        self.weights = weights
        self.biases = biases
        self.dtype = np.dtype(dtype)

    @property
    def n_in(self) -> int:
        return self.spec.layer_sizes[0]

    @property
    def n_out(self) -> int:
        return self.spec.layer_sizes[-1]

    def parameters(self) -> list[np.ndarray]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]


def init_network(spec: NetworkSpec, dtype=np.float32) -> Network:
    rng = np.random.default_rng(spec.init_seed)
    weights, biases = [], []
    sizes = spec.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(1.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return Network(spec, weights, biases, dtype=dtype)


class _StepBuffers:
    """Every array of batch size that a step writes, for up to `rows` rows.

    A batch of b rows uses the leading b rows of each. ``out[l]`` is layer
    l's pre-activation, and for the output layer its softmax, computed in
    place; ``act[l]`` is hidden layer l's ReLU. ``grads`` are the gradients
    in parameter order. The backward pass writes into spent arrays: the
    loss gradient into the softmax once the loss is taken, and hidden layer
    l's gradient into ``act[l]`` once the next layer's weight gradient is
    taken, then times its ReLU slope, which overwrites ``out[l]``. The
    target is no buffer: a step takes it as its set bits.
    """

    def __init__(self, net: Network, rows: int):
        dtype = net.dtype
        sizes = net.spec.layer_sizes
        self.rows = rows
        self.out = [np.empty((rows, s), dtype) for s in sizes[1:]]
        self.act = [np.empty((rows, s), dtype) for s in sizes[1:-1]]
        self.grads = [np.empty_like(p) for p in net.parameters()]


def _softmax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row softmax of z, in place: subtract the row max, exp, divide; and the
    (B, 1) row sums it divided by.

    Once the max is subtracted, every entry lies in [-inf, 0] and the max
    entry is 0, so a sum is at least 1 and finite, unless the row's max was
    NaN or +-inf, which makes it NaN. So the output is finite exactly where
    its row sums are.
    """
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    sums = z.sum(axis=1, keepdims=True)
    z /= sums
    return z, sums


def forward_batch(net: Network, x: np.ndarray,
                  buffers: _StepBuffers | None = None) -> np.ndarray:
    """(B, n_in) inputs -> (B, n_out) softmax probabilities.

    Every layer writes into `buffers`, a fresh set when None. The result is
    a view of them, valid only until the buffers are next used.
    """
    if x.ndim != 2 or x.shape[1] != net.n_in:
        raise ValueError(f"input shape {x.shape} does not match n_in={net.n_in}")
    b = x.shape[0]
    if buffers is None:
        buffers = _StepBuffers(net, b)
    a = np.ascontiguousarray(x, dtype=net.dtype)
    last = len(net.weights) - 1
    # an overflow ends in a non-finite output, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        for l, (w, bias) in enumerate(zip(net.weights, net.biases)):
            z = np.matmul(a, w, out=buffers.out[l][:b])
            z += bias
            if l < last:
                a = np.maximum(z, 0, out=buffers.act[l][:b])
        probs, sums = _softmax(z)
    if not np.isfinite(sums).all():
        raise FloatingPointError("non-finite activation in forward pass")
    return probs


def _cross_entropy(probs: np.ndarray, codes: np.ndarray,
                   values: np.ndarray) -> float:
    """The loss kernel: mean cross-entropy of (B, m) probabilities against
    the target that is `values` at the sorted flat indices `codes` and 0
    elsewhere. The probabilities there are gathered, taken to float64,
    clamped at a small epsilon and logged; summed in the order of `codes`,
    the row-major order of a boolean mask, the products add up as a dense
    target's would.
    """
    logp = probs.take(codes).astype(np.float64)
    np.maximum(logp, _LOSS_EPS, out=logp)
    np.log(logp, out=logp)
    return float(-(values * logp).sum() / probs.shape[0])


class _OptimizerState:
    """Moments of each parameter, the scratch of its update and the buffers
    of the step's passes.

    The update's arrays are allocated here, once: Adam's scratch and
    clipping's float64 squares, each one array the size of the largest
    parameter, of which each parameter uses a view of the leading entries.
    SGD scales the gradient in place; Adam writes its step term
    into the scratch and its denominator into the gradient, which is spent
    once both moments are updated. The passes' buffers are allocated on the
    first batch with more rows than any before. So a warm step allocates
    nothing of batch or parameter size.
    """

    def __init__(self, net: Network, spec: OptimizerSpec):
        self.spec = spec
        self.step = 0
        params = net.parameters()
        self.momenta = [np.zeros_like(p) for p in params]
        if spec.kind == "adam":
            self.second = [np.zeros_like(p) for p in params]
            self.scratch = np.empty(max(p.size for p in params),
                                    np.result_type(*params))
        self.squares = (None if spec.clip_norm is None
                        else np.empty(max(p.size for p in params), np.float64))
        self._buffers: _StepBuffers | None = None

    def buffers(self, net: Network, rows: int) -> _StepBuffers:
        """The passes' buffers, reallocated when `rows` exceeds theirs."""
        if self._buffers is None or self._buffers.rows < rows:
            self._buffers = _StepBuffers(net, rows)
        return self._buffers


def _clip_gradients(grads: list[np.ndarray], max_norm: float,
                    squares: np.ndarray) -> None:
    """Scale `grads` in place to a joint L2 norm of at most `max_norm`.

    Each gradient is squared in float64 into the leading entries of
    `squares`; a contiguous array sums in the same pairwise order whatever
    its shape, so the norm equals that of the float64 copies.
    """
    total = np.sqrt(sum(float(np.square(g.ravel(), out=squares[:g.size],
                                        dtype=np.float64).sum())
                        for g in grads))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            g *= scale


def _apply_update(net: Network, grads: list[np.ndarray],
                  state: _OptimizerState) -> None:
    """One optimizer step on `net`'s parameters; overwrites `grads`, as
    clipping does."""
    spec = state.spec
    params = net.parameters()
    if spec.clip_norm is not None:
        _clip_gradients(grads, spec.clip_norm, state.squares)
    lr = spec.learning_rate
    if spec.kind == "sgd":
        for p, g, v in zip(params, grads, state.momenta):
            v *= spec.momentum
            np.multiply(lr, g, out=g)
            v -= g
            p += v
    else:
        # p -= lr * m_hat / (sqrt(v_hat) + eps) with m_hat = m / (1 - b1^t)
        # and v_hat = v / (1 - b2^t), one operation at a time in that order.
        # Folding the bias corrections into lr would change the rounding.
        state.step += 1
        t = state.step
        b1, b2 = spec.beta1, spec.beta2
        for p, g, m, v in zip(params, grads, state.momenta, state.second):
            u = state.scratch[:p.size].reshape(p.shape)
            m *= b1
            np.multiply(1 - b1, g, out=u)
            m += u
            v *= b2
            np.multiply(1 - b2, g, out=u)
            u *= g
            v += u
            np.divide(m, 1 - b1 ** t, out=u)
            np.divide(v, 1 - b2 ** t, out=g)
            np.sqrt(g, out=g)
            g += _ADAM_EPS
            np.multiply(lr, u, out=u)
            u /= g
            p -= u


def _dense_target(net: Network, x: np.ndarray,
                  targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, n_out) targets, taken to net.dtype, as the sorted flat indices of
    their nonzero entries and their values: what the kernels take in their
    place."""
    targets, shape = np.asarray(targets, net.dtype), (x.shape[0], net.n_out)
    if targets.shape != shape:
        raise ValueError(f"target shape {targets.shape} does not match {shape}")
    codes = np.flatnonzero(targets)
    return codes, targets.take(codes)


def gradients(net: Network, x: np.ndarray, targets: np.ndarray,
              buffers: _StepBuffers | None = None
              ) -> tuple[float, list[np.ndarray]]:
    """Batch loss and analytic gradients in parameter order (W0, b0, W1, ...)
    against dense (B, n_out) targets, through :func:`_gradients`."""
    return _gradients(net, x, *_dense_target(net, x, targets), buffers)


def _gradients(net: Network, x: np.ndarray, codes: np.ndarray,
               values: np.ndarray, buffers: _StepBuffers | None = None
               ) -> tuple[float, list[np.ndarray]]:
    """The gradient kernel: batch loss and gradients against the target
    that is `values`, in net.dtype, at the sorted distinct flat indices
    `codes` and 0 elsewhere.

    Both passes write into `buffers`, a fresh set when None; the gradients
    returned are its ``grads``. The softmax minus the target is the softmax
    with `values` subtracted at `codes`, since p - 0 is p.
    """
    b = x.shape[0]
    if buffers is None:
        buffers = _StepBuffers(net, b)
    x = np.ascontiguousarray(x, dtype=net.dtype)
    probs = forward_batch(net, x, buffers)
    loss = _cross_entropy(probs, codes, values)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite training loss")
    # probs is the leading rows of a C-contiguous buffer: the reshape is a view
    dz = probs
    dz.reshape(-1)[codes] -= values
    dz /= b
    grads = buffers.grads
    for l in range(len(net.weights) - 1, -1, -1):
        np.sum(dz, axis=0, out=grads[2 * l + 1])                     # bias
        a = x if l == 0 else buffers.act[l - 1][:b]
        np.matmul(a.T, dz, out=grads[2 * l])                         # weight
        if l > 0:
            da = np.matmul(dz, net.weights[l].T, out=a)
            # (1 + sign z) / 2: 1 above the ReLU kink, 0 below, and the
            # symmetric 0.5 at it
            z = buffers.out[l - 1][:b]
            slope = np.sign(z, out=z)
            slope += 1
            slope *= 0.5
            dz = np.multiply(da, slope, out=da)
    return loss, grads


def backward_and_step(net: Network, batch: tuple[np.ndarray, np.ndarray],
                      optimizer: OptimizerSpec,
                      state: _OptimizerState | None = None
                      ) -> tuple[float, _OptimizerState]:
    """One gradient step on (inputs, normalized dense targets); returns the
    batch loss. A `state` from an earlier step must carry the same
    `optimizer`."""
    x, targets = batch
    return _step(net, x, *_dense_target(net, x, targets), optimizer, state)


def _step(net: Network, x: np.ndarray, codes: np.ndarray, values: np.ndarray,
          optimizer: OptimizerSpec, state: _OptimizerState | None
          ) -> tuple[float, _OptimizerState]:
    """:func:`backward_and_step` on the target of :func:`_gradients`."""
    if x.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    if state is None:
        state = _OptimizerState(net, optimizer)
    elif state.spec != optimizer:
        raise ValueError(f"optimizer {optimizer} differs from the state's {state.spec}")
    # an overflowing step leaves non-finite weights the next forward rejects
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grads = _gradients(net, x, codes, values,
                                 state.buffers(net, x.shape[0]))
        _apply_update(net, grads, state)
    return loss, state


def multi_hot(instances: Sequence[SparseInstance], dim: int) -> np.ndarray:
    """(n, dim) multi-hot matrix: the encoding by the identity matrix."""
    return encode_batch(instances, identity_hash_matrix(dim))


def packed_split(net: Network, split: Sequence[tuple[SparseInstance, SparseInstance]],
                 hash_in: HashMatrix | None, hash_out: HashMatrix | None
                 ) -> tuple[PackedPairs, HashMatrix, HashMatrix]:
    """`split` packed by :meth:`PackedPairs.of` and both matrices (None = the
    identity), checked for :func:`train` and ``evaluate_model``: an empty split
    or target raises ValueError, a matrix that does not fit DataError."""
    if not split:
        raise ValueError("the split holds no profiles")
    data = PackedPairs.of(split)
    # a target with c >= 1 items sets a bit, so it can be normalized and ranked
    empty = np.flatnonzero(data.targets.sizes == 0)
    if empty.size:
        raise ValueError(f"profile {empty[0]} has no target items")
    d = data.d
    matrices = [identity_hash_matrix(d) if h is None else h for h in (hash_in, hash_out)]
    for side, matrix, width in zip(("input", "output"), matrices, (net.n_in, net.n_out)):
        if (matrix.m, matrix.d) != (width, d):
            raise DataError(f"{side} hash matrix has d={matrix.d}, m={matrix.m}; the "
                            f"network has {width} {side} units, the data {d} items")
    return data, *matrices


def _target_bits(targets: PackedInstances, matrix: HashMatrix,
                 dtype) -> tuple[np.ndarray, np.ndarray]:
    """The encoded `targets` normalized to sum 1, as the sorted flat indices
    of their set bits and the values there: 1/count_i on row i, in `dtype`,
    count_i being its distinct bits, which the float sum of its ones gives
    exactly. Each target must set a bit."""
    codes = set_bits(targets, matrix)
    owner = codes // matrix.m
    counts = np.bincount(owner, minlength=len(targets)).astype(dtype)
    return codes, (1 / counts)[owner]


def train(net: Network,
          dataset: Sequence[tuple[SparseInstance, SparseInstance]],
          hash_in: HashMatrix | None,
          hash_out: HashMatrix | None,
          optimizer: OptimizerSpec,
          epochs: int,
          batch_size: int = 128,
          shuffle_seed: int = 0) -> TrainReport:
    """Train on encoded inputs/targets; hash_in/hash_out None = identity.

    `dataset` is a :class:`PackedPairs` split or a list of pairs, both
    taken by :func:`packed_split`; each batch is a view of it. Targets are
    the encoded multi-hot vectors normalized to sum 1, which each step
    takes as their set bits (:func:`_target_bits`). Batch order is a seeded
    permutation per epoch, so runs are reproducible. A diverging step
    raises FloatingPointError naming its 1-based epoch.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    data, hash_in, hash_out = packed_split(net, dataset, hash_in, hash_out)
    n = len(data)
    rows = min(batch_size, n)
    x_buf = np.empty((rows, net.n_in), net.dtype)

    def batches(order: np.ndarray):
        """(inputs in net.dtype, encoded into the leading rows of one buffer,
        and the target's set bits and their values), in `order`."""
        for s in range(0, n, batch_size):
            batch = data[order[s:s + batch_size]]
            xb = encode_rows(batch.inputs, hash_in, x_buf[:len(batch)])
            yield xb, *_target_bits(batch.targets, hash_out, net.dtype)

    rng = np.random.default_rng(shuffle_seed)
    state = _OptimizerState(net, optimizer)
    epoch_losses: list[float] = []
    epoch_times: list[float] = []
    start = time.perf_counter()
    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        total = 0.0
        try:
            for xb, codes, values in batches(rng.permutation(n)):
                loss, state = _step(net, xb, codes, values, optimizer, state)
                total += loss * xb.shape[0]
        except FloatingPointError as exc:
            raise FloatingPointError(f"epoch {epoch}: {exc}") from exc
        epoch_losses.append(total / n)
        epoch_times.append(time.perf_counter() - t0)
    if epochs == 0:
        # untouched network: report its current loss over the dataset
        buffers = state.buffers(net, rows)
        total = sum(_cross_entropy(forward_batch(net, xb, buffers), codes, values)
                    * xb.shape[0] for xb, codes, values in batches(np.arange(n)))
        final = total / n
    else:
        final = epoch_losses[-1]
    return TrainReport(epochs=epochs, final_loss=final,
                       epoch_losses=epoch_losses, epoch_times=epoch_times,
                       wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def network_to_bytes(net: Network) -> bytes:
    sizes = net.spec.layer_sizes
    return b"".join([_CHECKPOINT_MAGIC, np.array([len(sizes), *sizes], "<u4").tobytes(),
                     *(p.astype("<f4").tobytes() for p in net.parameters())])


def network_from_bytes(data: bytes) -> Network:
    """The network a checkpoint holds; its parameters are views of one
    float32 array, read in one pass and split at the layer sizes."""
    if data[:4] != _CHECKPOINT_MAGIC:
        raise ValueError("not a network checkpoint (bad magic)")
    (count,) = np.frombuffer(data, dtype="<u4", count=1, offset=4).tolist()
    sizes = np.frombuffer(data, dtype="<u4", count=count, offset=8).tolist()
    layers = list(zip(sizes, sizes[1:]))
    # in Python integers: a product of two sizes can wrap in int64
    if 8 + 4 * (count + sum((i + 1) * o for i, o in layers)) != len(data):
        raise ValueError("checkpoint size does not match layer sizes")
    spec = NetworkSpec(layer_sizes=sizes)
    # the size check bounds every prefix sum by the parameter count
    flat = np.frombuffer(data, dtype="<f4", offset=8 + 4 * count).astype(np.float32)
    params = np.split(flat, np.cumsum([n for i, o in layers for n in (i * o, o)])[:-1])
    weights = [w.reshape(shape) for w, shape in zip(params[0::2], layers)]
    return Network(spec, weights, params[1::2])
