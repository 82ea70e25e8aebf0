"""Minimal feed-forward trainer for Bloom-encoded inputs and targets.

Dense layers with ReLU hidden activations and a softmax output, trained
on batches with categorical cross-entropy against multi-hot targets
normalized to a distribution. Inputs and targets are encoded by hash
matrices; the no-embedding baseline uses the identity matrix.
Optimizers: SGD with momentum and Adam. Everything is plain numpy;
training runs in float32 by default, gradient checking uses float64
networks.

Outside the forward and backward passes a train step allocates nothing of
parameter size: the optimizer state owns the scratch buffers its update
works in, and the update keeps the textbook operation order, so the
weights match the plain expressions bit for bit. The cross-entropy loss
reads only the target's nonzero entries.

Weight init is scaled uniform, U(-sqrt(1/fan_in), +sqrt(1/fan_in)), from
a seeded generator; with fixed init and shuffle seeds a training run is
bit-reproducible in the same build.

Checkpoint format: 4-byte magic ``BENC``, little-endian uint32 layer
count, that many little-endian uint32 layer sizes, then per layer the
weight matrix (row-major, fan_in x fan_out) followed by the bias vector,
all little-endian float32.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .codec import SparseInstance, encode_batch
from .hashing import HashMatrix, identity_hash_matrix

_CHECKPOINT_MAGIC = b"BENC"
_LOSS_EPS = 1e-12


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
    epsilon: float = 1e-8
    clip_norm: float | None = None

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not self.learning_rate >= 0:
            raise ValueError("learning rate must be >= 0")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 < b < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {b}")


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
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def init_network(spec: NetworkSpec, dtype=np.float32) -> Network:
    rng = np.random.default_rng(spec.init_seed)
    weights, biases = [], []
    sizes = spec.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(1.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return Network(spec, weights, biases, dtype=dtype)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward_batch(net: Network, x: np.ndarray,
                  keep_cache: bool = False):
    """(B, n_in) inputs -> (B, n_out) softmax probabilities (+ cache)."""
    if x.ndim != 2 or x.shape[1] != net.n_in:
        raise ValueError(f"input shape {x.shape} does not match n_in={net.n_in}")
    a = np.ascontiguousarray(x, dtype=net.dtype)
    activations = [a]
    pre = []
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        if l < last:
            a = np.maximum(z, 0)
        else:
            # a non-finite logit makes NaNs here; the check below reports them
            with np.errstate(invalid="ignore", over="ignore"):
                a = _softmax(z)
        if keep_cache:
            pre.append(z)
            activations.append(a)
    if not np.isfinite(a).all():
        raise FloatingPointError("non-finite activation in forward pass")
    if keep_cache:
        return a, (activations, pre)
    return a


def loss_cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy of (B, m) probabilities against (B, m) targets.

    Each target row is a distribution: a multi-hot target normalized to sum 1.
    Only the target's nonzero entries contribute, so only they are read: the
    probabilities under them are gathered, taken to float64, clamped at a
    small epsilon and logged; a zero target entry adds 0 whatever its
    probability.
    """
    hit = targets != 0
    logp = probs[hit].astype(np.float64)
    np.maximum(logp, _LOSS_EPS, out=logp)
    np.log(logp, out=logp)
    return float(-(targets[hit] * logp).sum() / probs.shape[0])


class _OptimizerState:
    """Moments of each parameter plus the scratch buffers of its update.

    The buffers are allocated here, once, so that a step allocates nothing
    of parameter size: Adam needs two per parameter, SGD one.
    """

    def __init__(self, net: Network, spec: OptimizerSpec):
        self.spec = spec
        self.step = 0
        params = net.parameters()
        self.momenta = [np.zeros_like(p) for p in params]
        if spec.kind == "adam":
            self.second = [np.zeros_like(p) for p in params]
            self.scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        else:
            self.scratch = [(np.empty_like(p),) for p in params]


def _clip_gradients(grads: list[np.ndarray], max_norm: float) -> None:
    total = np.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            g *= scale


def _apply_update(net: Network, grads: list[np.ndarray],
                  state: _OptimizerState) -> None:
    spec = state.spec
    params = net.parameters()
    if spec.clip_norm is not None:
        _clip_gradients(grads, spec.clip_norm)
    lr = spec.learning_rate
    if spec.kind == "sgd":
        for p, g, v, (u,) in zip(params, grads, state.momenta, state.scratch):
            v *= spec.momentum
            np.multiply(lr, g, out=u)
            v -= u
            p += v
    else:
        # p -= lr * m_hat / (sqrt(v_hat) + eps) with m_hat = m / (1 - b1^t)
        # and v_hat = v / (1 - b2^t), one operation at a time in that order.
        # Folding the bias corrections into lr would change the rounding.
        state.step += 1
        t = state.step
        b1, b2 = spec.beta1, spec.beta2
        for p, g, m, v, (u, w) in zip(params, grads, state.momenta,
                                      state.second, state.scratch):
            m *= b1
            np.multiply(1 - b1, g, out=u)
            m += u
            v *= b2
            np.multiply(1 - b2, g, out=u)
            u *= g
            v += u
            np.divide(m, 1 - b1 ** t, out=u)
            np.divide(v, 1 - b2 ** t, out=w)
            np.sqrt(w, out=w)
            w += spec.epsilon
            np.multiply(lr, u, out=u)
            u /= w
            p -= u


def gradients(net: Network, x: np.ndarray, targets: np.ndarray
              ) -> tuple[float, list[np.ndarray]]:
    """Batch loss and analytic gradients in parameter order (W0, b0, W1, ...)."""
    probs, (activations, pre) = forward_batch(net, x, keep_cache=True)
    t = np.ascontiguousarray(targets, dtype=net.dtype)
    loss = loss_cross_entropy(probs, t)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite training loss")
    batch = x.shape[0]
    dz = (probs - t) / batch
    grads: list[np.ndarray] = []
    for l in range(len(net.weights) - 1, -1, -1):
        grads.append(dz.sum(axis=0))                 # bias
        grads.append(activations[l].T @ dz)          # weight
        if l > 0:
            da = dz @ net.weights[l].T
            z = pre[l - 1]
            slope = (z > 0).astype(net.dtype)
            slope[z == 0] = 0.5  # symmetric derivative at the ReLU kink
            dz = da * slope
    grads.reverse()
    return loss, grads


def backward_and_step(net: Network, batch: tuple[np.ndarray, np.ndarray],
                      optimizer: OptimizerSpec,
                      state: _OptimizerState | None = None
                      ) -> tuple[float, _OptimizerState]:
    """One gradient step on (inputs, normalized targets); returns batch loss."""
    x, targets = batch
    if x.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    if state is None:
        state = _OptimizerState(net, optimizer)
    loss, grads = gradients(net, x, targets)
    _apply_update(net, grads, state)
    return loss, state


def multi_hot(instances: Sequence[SparseInstance], dim: int) -> np.ndarray:
    """(n, dim) multi-hot matrix: the encoding by the identity matrix."""
    return encode_batch(instances, identity_hash_matrix(dim))


def train(net: Network,
          dataset: Sequence[tuple[SparseInstance, SparseInstance]],
          hash_in: HashMatrix | None,
          hash_out: HashMatrix | None,
          optimizer: OptimizerSpec,
          epochs: int,
          batch_size: int = 128,
          shuffle_seed: int = 0) -> TrainReport:
    """Train on encoded inputs/targets; hash_in/hash_out None = identity.

    Targets are the encoded multi-hot vectors normalized to sum 1. Batch
    order is a seeded permutation per epoch, so runs are reproducible. A
    diverging step raises FloatingPointError naming its 1-based epoch.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if hash_in is None:
        hash_in = identity_hash_matrix(dataset[0][0].d)
    if hash_out is None:
        hash_out = identity_hash_matrix(dataset[0][1].d)
    x_bits = encode_batch([pair[0] for pair in dataset], hash_in)
    t_bits = encode_batch([pair[1] for pair in dataset], hash_out)
    if x_bits.shape[1] != net.n_in:
        raise ValueError(f"encoded input width {x_bits.shape[1]} != n_in {net.n_in}")
    if t_bits.shape[1] != net.n_out:
        raise ValueError(f"encoded target width {t_bits.shape[1]} != n_out {net.n_out}")
    t_sum = t_bits.sum(axis=1)
    if (t_sum == 0).any():
        raise ValueError("encoded target with no set bits")

    n = x_bits.shape[0]

    def batches(order: np.ndarray):
        """(inputs, targets normalized to sum 1) in net.dtype, in `order`."""
        for s in range(0, n, batch_size):
            idx = order[s:s + batch_size]
            xb = x_bits[idx].astype(net.dtype)
            tb = t_bits[idx].astype(net.dtype)
            tb /= t_sum[idx, None].astype(net.dtype)
            yield xb, tb

    rng = np.random.default_rng(shuffle_seed)
    state = _OptimizerState(net, optimizer)
    epoch_losses: list[float] = []
    epoch_times: list[float] = []
    start = time.perf_counter()
    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        total = 0.0
        try:
            for xb, tb in batches(rng.permutation(n)):
                loss, state = backward_and_step(net, (xb, tb), optimizer, state)
                total += loss * xb.shape[0]
        except FloatingPointError as exc:
            raise FloatingPointError(f"epoch {epoch}: {exc}") from exc
        epoch_losses.append(total / n)
        epoch_times.append(time.perf_counter() - t0)
    if epochs == 0:
        # untouched network: report its current loss over the dataset
        total = sum(loss_cross_entropy(forward_batch(net, xb), tb) * xb.shape[0]
                    for xb, tb in batches(np.arange(n)))
        final = total / n
    else:
        final = epoch_losses[-1]
    return TrainReport(epochs=epochs, final_loss=final,
                       epoch_losses=epoch_losses, epoch_times=epoch_times,
                       wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_network(net: Network, destination) -> None:
    sizes = net.spec.layer_sizes
    parts = [_CHECKPOINT_MAGIC, struct.pack("<I", len(sizes))]
    parts.append(struct.pack(f"<{len(sizes)}I", *sizes))
    for w, b in zip(net.weights, net.biases):
        parts.append(w.astype("<f4").tobytes(order="C"))
        parts.append(b.astype("<f4").tobytes(order="C"))
    payload = b"".join(parts)
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        Path(destination).write_bytes(payload)


def load_network(source, dtype=np.float32) -> Network:
    if hasattr(source, "read"):
        data = source.read()
    else:
        data = Path(source).read_bytes()
    if data[:4] != _CHECKPOINT_MAGIC:
        raise ValueError("not a network checkpoint (bad magic)")
    (count,) = struct.unpack("<I", data[4:8])
    offset = 8 + 4 * count
    sizes = struct.unpack(f"<{count}I", data[8:offset])
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w_bytes = 4 * fan_in * fan_out
        w = np.frombuffer(data, dtype="<f4", count=fan_in * fan_out,
                          offset=offset).reshape(fan_in, fan_out)
        offset += w_bytes
        b = np.frombuffer(data, dtype="<f4", count=fan_out, offset=offset)
        offset += 4 * fan_out
        weights.append(w.astype(dtype))
        biases.append(b.astype(dtype))
    if offset != len(data):
        raise ValueError("checkpoint size does not match layer sizes")
    spec = NetworkSpec(layer_sizes=tuple(int(s) for s in sizes))
    return Network(spec, weights, biases, dtype=dtype)
