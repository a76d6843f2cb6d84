"""The sequence classifier: causal TCN, GRU, dense softmax, trained with Adam.

Forward and backward passes are written out explicitly over numpy arrays.
Batches are padded to the longest sequence with a per-sequence valid length;
the GRU state is read at each sequence's last valid step, so padded frames
contribute nothing to predictions or gradients.

Gate math (per time step, row-major batches)::

    z_t = sigmoid(x_t Wz^T + h_{t-1} Uz^T + bz)          update gate
    r_t = sigmoid(x_t Wr^T + h_{t-1} Ur^T + br)          reset gate
    c_t = tanh   (x_t Wc^T + (r_t * h_{t-1}) Uc^T + bc)  candidate
    h_t = z_t * h_{t-1} + (1 - z_t) * c_t

Wg and Ug are stored jointly as one (hidden x (input + hidden)) matrix per
gate and split into views where needed. The forward pass takes one sigmoid
per step over the joint z|r pre-activation and caches the gates as one
(B, T, 2 * hidden) array, update gate first; backward keeps the gate
pre-activation gradients as one (B, T, 3 * hidden) array, z|r|c, whose
column blocks feed the weight gradients. ``_sigmoid`` evaluates exactly
the two textbook branches, 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x))
below, without boolean masks, so its bits match the branchy form and exp
never overflows. The TCN's input is data, so backward forms no gradient
for it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionError, InputError, NumericError


@dataclass
class TcnLayerParams:
    """Causal 1-D convolution bank: tap k of ``kernels[f, k, :]`` multiplies
    the input ``width - 1 - k`` steps in the past."""

    kernels: np.ndarray  # (filters, width, input_dim)
    biases: np.ndarray  # (filters,)

    @property
    def n_filters(self) -> int:
        return self.kernels.shape[0]

    @property
    def width(self) -> int:
        return self.kernels.shape[1]

    @property
    def input_dim(self) -> int:
        return self.kernels.shape[2]


@dataclass
class GruLayerParams:
    """One weight matrix per gate, shaped (hidden, input + hidden), plus biases."""

    w_update: np.ndarray
    w_reset: np.ndarray
    w_cand: np.ndarray
    b_update: np.ndarray
    b_reset: np.ndarray
    b_cand: np.ndarray

    @property
    def hidden(self) -> int:
        return self.w_update.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_update.shape[1] - self.hidden


@dataclass
class DenseParams:
    weights: np.ndarray  # (n_out, hidden)
    biases: np.ndarray  # (n_out,)

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]


# The classifier's tensors, in ``named_arrays`` and checkpoint order.
PARAMETERS = (
    "tcn.kernels", "tcn.biases",
    "gru.w_update", "gru.w_reset", "gru.w_cand",
    "gru.b_update", "gru.b_reset", "gru.b_cand",
    "dense.weights", "dense.biases",
)


@dataclass
class ClassifierParams:
    tcn: TcnLayerParams
    gru: GruLayerParams
    dense: DenseParams

    @property
    def input_dim(self) -> int:
        return self.tcn.input_dim

    @property
    def n_speakers(self) -> int:
        return self.dense.n_out

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        tcn, gru, dense = self.tcn, self.gru, self.dense
        return zip(PARAMETERS, (
            tcn.kernels, tcn.biases,
            gru.w_update, gru.w_reset, gru.w_cand, gru.b_update, gru.b_reset, gru.b_cand,
            dense.weights, dense.biases,
        ))

    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray]) -> ClassifierParams:
        """The parameters from their arrays in ``PARAMETERS`` order."""
        return cls(
            TcnLayerParams(*arrays[:2]), GruLayerParams(*arrays[2:8]), DenseParams(*arrays[8:])
        )


def parameter_shapes(
    input_dim: int, n_speakers: int, tcn_width: int, tcn_filters: int, gru_hidden: int
) -> dict[str, tuple[int, ...]]:
    """The shape of each of ``PARAMETERS``, in that order."""
    gru_weights = (gru_hidden, tcn_filters + gru_hidden)
    return dict(zip(PARAMETERS, (
        (tcn_filters, tcn_width, input_dim), (tcn_filters,),
        gru_weights, gru_weights, gru_weights,
        (gru_hidden,), (gru_hidden,), (gru_hidden,),
        (n_speakers, gru_hidden), (n_speakers,),
    )))


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], dtype) -> np.ndarray:
    fan_out, fan_in = shape[0], int(np.prod(shape[1:]))
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_classifier(
    input_dim: int,
    n_speakers: int,
    rng: np.random.Generator,
    tcn_filters: int = 128,
    tcn_width: int = 3,
    gru_hidden: int = 128,
    dtype=np.float32,
) -> ClassifierParams:
    """Seeded Glorot-uniform weight matrices and kernels, zero biases, drawn
    in ``PARAMETERS`` order."""
    if n_speakers < 2:
        raise InputError(f"need at least 2 speakers, got {n_speakers}")
    shapes = parameter_shapes(input_dim, n_speakers, tcn_width, tcn_filters, gru_hidden)
    return ClassifierParams.from_arrays([
        _glorot(rng, shape, dtype) if len(shape) > 1 else np.zeros(shape, dtype=dtype)
        for shape in shapes.values()
    ])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``1/(1+exp(-x))`` for x >= 0 and ``exp(x)/(1+exp(x))`` below, bit for
    bit, without masks. ``exp`` only sees -|x|, so it cannot overflow, and
    e = exp(-|x|) <= 1 makes max(e, x >= 0) the numerator of either branch
    (``np.maximum`` is a vector loop; ``np.where`` is about 4x slower)."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, (x >= 0).astype(x.dtype)) / (1.0 + e)


def _im2col(x: np.ndarray, width: int) -> np.ndarray:
    """(B, T, D) -> (B, T, width*D) with causal left zero-padding."""
    b, t, d = x.shape
    padded = np.concatenate([np.zeros((b, width - 1, d), dtype=x.dtype), x], axis=1)
    cols = np.empty((b, t, width * d), dtype=x.dtype)
    for k in range(width):
        cols[:, :, k * d : (k + 1) * d] = padded[:, k : k + t, :]
    return cols


def tcn_forward_batch(x: np.ndarray, params: TcnLayerParams, keep_cache: bool = True):
    """Causal convolution + ReLU over a (B, T, D) batch; returns output and
    the cache for backward, or None when ``keep_cache`` is false."""
    if x.shape[2] != params.input_dim:
        raise DimensionError(f"TCN expects {params.input_dim} input dims, got {x.shape[2]}")
    cols = _im2col(x, params.width)
    flat_w = params.kernels.reshape(params.n_filters, -1)
    pre = cols @ flat_w.T + params.biases
    out = np.maximum(pre, 0.0)
    return out, ((cols, pre > 0) if keep_cache else None)


def tcn_backward_batch(d_out, cache, params: TcnLayerParams) -> TcnLayerParams:
    """Parameter gradients only: the TCN input is data, so no input gradient."""
    cols, active = cache
    d_pre = d_out * active
    b, t, _ = d_pre.shape
    d_flat = d_pre.reshape(b * t, -1).T @ cols.reshape(b * t, -1)
    return TcnLayerParams(
        kernels=d_flat.reshape(params.kernels.shape),
        biases=d_pre.sum(axis=(0, 1)),
    )


def gru_forward_batch(
    x: np.ndarray, params: GruLayerParams, lengths: np.ndarray, keep_cache: bool = True
):
    """Run the recurrence over a padded (B, T, F) batch.

    Returns the per-sequence state at its last valid step plus the cache for
    backpropagation through time, or None when ``keep_cache`` is false; then
    no per-step state is stored.
    """
    b, t, f = x.shape
    h_dim = params.hidden
    if f != params.input_dim:
        raise DimensionError(f"GRU expects {params.input_dim} input dims, got {f}")
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (b,):
        raise InputError(f"need one length per sequence: {lengths.shape} for batch {b}")
    if np.any(lengths < 1) or np.any(lengths > t):
        raise InputError("lengths must lie in 1..T")
    wx = np.concatenate(
        [params.w_update[:, :f], params.w_reset[:, :f], params.w_cand[:, :f]], axis=0
    )
    uc = np.ascontiguousarray(params.w_cand[:, f:])
    u_zr = np.concatenate([params.w_update[:, f:], params.w_reset[:, f:]], axis=0)

    x_proj = x.reshape(b * t, f) @ wx.T
    x_proj = x_proj.reshape(b, t, 3 * h_dim)
    x_proj[:, :, :h_dim] += params.b_update
    x_proj[:, :, h_dim : 2 * h_dim] += params.b_reset
    x_proj[:, :, 2 * h_dim :] += params.b_cand

    if keep_cache:
        h_all = np.zeros((b, t + 1, h_dim), dtype=x.dtype)
        zr_all = np.empty((b, t, 2 * h_dim), dtype=x.dtype)
        c_all = np.empty((b, t, h_dim), dtype=x.dtype)
    h = np.zeros((b, h_dim), dtype=x.dtype)
    last = np.empty((b, h_dim), dtype=x.dtype)
    ends = set(lengths.tolist())
    # (u @ h^T)^T gives the same bits as h @ u^T on OpenBLAS (checked at batch
    # sizes 1-128) and runs about 1.6x faster at small batches.
    for step in range(t):
        zr = _sigmoid(x_proj[:, step, : 2 * h_dim] + (u_zr @ h.T).T)
        z, r = zr[:, :h_dim], zr[:, h_dim:]
        c = np.tanh(x_proj[:, step, 2 * h_dim :] + (uc @ (r * h).T).T)
        h = z * h + (1.0 - z) * c
        if keep_cache:
            zr_all[:, step] = zr
            c_all[:, step] = c
            h_all[:, step + 1] = h
        if step + 1 in ends:
            done = lengths == step + 1
            last[done] = h[done]

    cache = (x, h_all, zr_all, c_all, lengths, (wx, uc, u_zr)) if keep_cache else None
    return last, cache


def gru_backward_batch(d_last, cache, params: GruLayerParams):
    x, h_all, zr_all, c_all, lengths, (wx, uc, u_zr) = cache
    b, t, f = x.shape
    h_dim = params.hidden
    ends = set(lengths.tolist())

    da = np.empty((b, t, 3 * h_dim), dtype=x.dtype)
    a_zr = np.empty((b, 2 * h_dim), dtype=x.dtype)
    az, ar = a_zr[:, :h_dim], a_zr[:, h_dim:]
    dh = np.zeros((b, h_dim), dtype=x.dtype)
    for step in range(t - 1, -1, -1):
        if step + 1 in ends:
            dh = dh + np.where((lengths == step + 1)[:, None], d_last, 0.0)
        z = zr_all[:, step, :h_dim]
        r = zr_all[:, step, h_dim:]
        c = c_all[:, step]
        h_prev = h_all[:, step]
        one_minus_z = 1.0 - z
        dz = dh * (h_prev - c)
        dc = dh * one_minus_z
        dh_next = dh * z
        np.multiply(dz * z, one_minus_z, out=az)
        ac = dc * (1.0 - c * c)
        d_rh = ac @ uc
        dr = d_rh * h_prev
        np.multiply(dr * r, 1.0 - r, out=ar)
        da[:, step, : 2 * h_dim] = a_zr
        da[:, step, 2 * h_dim :] = ac
        dh = dh_next + d_rh * r + a_zr @ u_zr

    h_prev_all = h_all[:, :t, :].reshape(b * t, h_dim)
    rh_all = (zr_all[:, :, h_dim:] * h_all[:, :t, :]).reshape(b * t, h_dim)
    x_flat = x.reshape(b * t, f)
    da_flat = da.reshape(b * t, 3 * h_dim)
    az_flat, ar_flat, ac_flat = (da_flat[:, k * h_dim : (k + 1) * h_dim] for k in range(3))

    grads = GruLayerParams(
        w_update=np.concatenate([az_flat.T @ x_flat, az_flat.T @ h_prev_all], axis=1),
        w_reset=np.concatenate([ar_flat.T @ x_flat, ar_flat.T @ h_prev_all], axis=1),
        w_cand=np.concatenate([ac_flat.T @ x_flat, ac_flat.T @ rh_all], axis=1),
        b_update=az_flat.sum(axis=0),
        b_reset=ar_flat.sum(axis=0),
        b_cand=ac_flat.sum(axis=0),
    )
    d_x = da_flat @ wx
    return d_x.reshape(b, t, f), grads


def dense_softmax(state: np.ndarray, params: DenseParams) -> np.ndarray:
    """Linear layer over (B, hidden) states, then softmax with max
    subtraction; rows sum to 1."""
    logits = state @ params.weights.T + params.biases
    logits = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(logits)
    return expd / expd.sum(axis=1, keepdims=True)


PROB_FLOOR = 1e-12


@dataclass
class ForwardCache:
    x: np.ndarray
    labels: np.ndarray
    tcn_cache: tuple | None
    gru_cache: tuple | None
    last_state: np.ndarray
    probs: np.ndarray


def forward_batch(
    params: ClassifierParams, x: np.ndarray, lengths: np.ndarray, labels: np.ndarray | None = None
) -> tuple[np.ndarray, float | None, ForwardCache]:
    """Full forward pass over a padded batch.

    Returns (probs, mean loss or None when unlabelled, cache for backward).
    An unlabelled pass cannot be backpropagated, so it keeps no layer caches.
    """
    x = np.asarray(x)
    lengths = np.asarray(lengths, dtype=np.int64)
    if x.ndim != 3:
        raise InputError("forward_batch expects (B, T, D) input")
    keep = labels is not None
    tcn_out, tcn_cache = tcn_forward_batch(x, params.tcn, keep)
    last, gru_cache = gru_forward_batch(tcn_out, params.gru, lengths, keep)
    probs = dense_softmax(last, params.dense)
    loss = None
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        picked = np.maximum(probs[np.arange(len(labels)), labels], PROB_FLOOR)
        loss = float(np.mean(-np.log(picked)))
    cache = ForwardCache(x, labels, tcn_cache, gru_cache, last, probs)
    return probs, loss, cache


def backward(cache: ForwardCache, params: ClassifierParams) -> ClassifierParams:
    """Exact gradients of the mean batch loss for every parameter."""
    if cache.labels is None:
        raise InputError("backward needs a labelled forward pass")
    b = cache.probs.shape[0]
    d_logits = cache.probs.astype(cache.x.dtype, copy=True)
    d_logits[np.arange(b), cache.labels] -= 1.0
    d_logits /= b
    dense_grads = DenseParams(
        weights=d_logits.T @ cache.last_state,
        biases=d_logits.sum(axis=0),
    )
    d_last = d_logits @ params.dense.weights
    d_tcn_out, gru_grads = gru_backward_batch(d_last, cache.gru_cache, params.gru)
    tcn_grads = tcn_backward_batch(d_tcn_out, cache.tcn_cache, params.tcn)
    grads = ClassifierParams(tcn=tcn_grads, gru=gru_grads, dense=dense_grads)
    for name, arr in grads.named_arrays():
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite gradient in {name}")
    return grads


@dataclass
class AdamState:
    """Bias-corrected Adam moments keyed by parameter name."""

    lr: float
    beta1: float
    beta2: float
    epsilon: float
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def adam_init(
    params: ClassifierParams,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> AdamState:
    m = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    v = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    return AdamState(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon, step=0, m=m, v=v)


def adam_step(
    params: ClassifierParams, grads: ClassifierParams, state: AdamState
) -> ClassifierParams:
    """In-place bias-corrected update; returns ``params`` for chaining."""
    state.step += 1
    b1c = 1.0 - state.beta1**state.step
    b2c = 1.0 - state.beta2**state.step
    grad_map = dict(grads.named_arrays())
    for name, arr in params.named_arrays():
        g = grad_map[name]
        if g.shape != arr.shape:
            raise DimensionError(f"gradient shape {g.shape} != parameter shape {arr.shape} for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        update = (m / b1c) / (np.sqrt(v / b2c) + state.epsilon)
        arr -= state.lr * update.astype(arr.dtype)
    return params


def pad_batch(sequences: list[np.ndarray], dtype=None) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length (T_i, D) arrays into (B, T_max, D) plus lengths."""
    if not sequences:
        raise InputError("cannot pad an empty batch")
    dims = {s.shape[1] for s in sequences}
    if len(dims) != 1:
        raise DimensionError(f"inconsistent feature dims in batch: {sorted(dims)}")
    if dtype is None:
        dtype = sequences[0].dtype
    lengths = np.array([s.shape[0] for s in sequences], dtype=np.int64)
    out = np.zeros((len(sequences), int(lengths.max()), dims.pop()), dtype=dtype)
    for i, s in enumerate(sequences):
        out[i, : s.shape[0], :] = s
    return out, lengths
