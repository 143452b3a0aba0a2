"""Dense-tensor layers with hand-written reverse-mode gradients.

The dtype follows the input: a layer computes in its input's dtype and
allocates its buffers in it.  Models run in float32 (`Layer.astype`); the
gradient checks run the same code in float64.  Tensors are batch-first:
sequence tensors are (batch, steps, features).  Each layer caches what its
backward pass needs during a training-mode forward only; an inference
forward keeps nothing, so a backward after it raises instead of reusing an
older batch's cache, and threads may share one model for scoring.  Backward
returns the input gradient and accumulates parameter gradients in .grads;
`Dense`, `Conv1d` and `Lstm` also take `input_grad=False`, which returns None
instead, for a model's first layer, whose input gradient nobody reads.
Gradients are validated against central finite differences in the test suite.
"""
from __future__ import annotations

import numpy as np
from scipy.special import expit as sigmoid

from ..blocks import fan_out, row_blocks
from ..errors import DataError


def glorot(rng: np.random.Generator, n_in: int, n_out: int, shape: tuple[int, ...]) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _shape_error(layer: "Layer", expected: str, got: tuple[int, ...]):
    raise DataError(f"{type(layer).__name__}: expected input shaped {expected}, got {got}")


class Layer:
    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.children: list[tuple[str, "Layer"]] = []

    def __getattr__(self, name):
        # saved activations live in single-underscore attributes; reaching for
        # one that does not exist means backward ran before a training forward
        if name.startswith("_") and not name.startswith("__"):
            raise DataError(f"{type(self).__name__}.backward called before forward")
        raise AttributeError(name)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _walk(self):
        """This layer and every descendant, depth-first."""
        yield self
        for _, child in self.children:
            yield from child._walk()

    def named_params(self, prefix: str = ""):
        """(name, param, grad) triples for every trainable array, depth-first."""
        for k in self.params:
            yield prefix + k, self.params[k], self.grads[k]
        for child_name, child in self.children:
            yield from child.named_params(f"{prefix}{child_name}.")

    def named_arrays(self, prefix: str = ""):
        """(name, array) for every parameter and buffer; serialization order."""
        for k in self.params:
            yield prefix + k, self.params[k]
        for k in self.buffers:
            yield prefix + k, self.buffers[k]
        for child_name, child in self.children:
            yield from child.named_arrays(f"{prefix}{child_name}.")

    def astype(self, dtype) -> "Layer":
        """Cast every parameter, gradient and buffer, depth-first; returns self.

        The parameters become views into one contiguous array, `param_buffer`,
        in `named_params` order, and the gradients views into `grad_buffer`,
        so an optimizer can update them all as one array.  The layer this is
        called on owns both; a later astype lays them out afresh.
        """
        slots = []
        for layer in self._walk():
            for k in layer.buffers:
                layer.buffers[k] = layer.buffers[k].astype(dtype)
            slots += [(layer, k) for k in layer.params]
        size = sum(layer.params[k].size for layer, k in slots)
        self.param_buffer = np.empty(size, dtype=dtype)
        self.grad_buffer = np.empty(size, dtype=dtype)
        offset = 0
        for layer, k in slots:
            end = offset + layer.params[k].size
            for arrays, flat in ((layer.params, self.param_buffer), (layer.grads, self.grad_buffer)):
                view = flat[offset:end].reshape(arrays[k].shape)
                view[...] = arrays[k]
                arrays[k] = view
            offset = end
        return self

    def zero_grads(self):
        for k in self.grads:
            self.grads[k][...] = 0.0
        for _, child in self.children:
            child.zero_grads()

    def _keep(self, training: bool, *state):
        """Save what backward needs after a training forward; an inference
        forward drops it, so a backward that follows one fails loudly."""
        if training:
            self._cache = state
        else:
            self.__dict__.pop("_cache", None)

    def _register(self, name: str, value: np.ndarray):
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)


class Sequential(Layer):
    def __init__(self, layers: list[Layer]):
        super().__init__()
        self.layers = layers
        self.children = [(str(i), l) for i, l in enumerate(layers)]

    def forward(self, x, training=False):
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad, input_grad=True):
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        if input_grad:
            return self.layers[0].backward(grad)
        return self.layers[0].backward(grad, input_grad=False)


class Dense(Layer):
    """Affine map on the last axis."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        super().__init__()
        self.n_in, self.n_out = n_in, n_out
        self._register("w", glorot(rng, n_in, n_out, (n_in, n_out)))
        self._register("b", np.zeros(n_out))

    def forward(self, x, training=False):
        if x.shape[-1] != self.n_in:
            _shape_error(self, f"(..., {self.n_in})", x.shape)
        self._keep(training, x)
        return x @ self.params["w"] + self.params["b"]

    def backward(self, grad, input_grad=True):
        (x,) = self._cache
        x2 = x.reshape(-1, self.n_in)
        g2 = grad.reshape(-1, self.n_out)
        self.grads["w"] += x2.T @ g2
        self.grads["b"] += g2.sum(axis=0)
        return grad @ self.params["w"].T if input_grad else None


class Relu(Layer):
    """x where x > 0, else +0.0 (NaN and -0.0 included); the bits of
    np.where(x > 0, x, 0.0), forward and backward."""

    def forward(self, x, training=False):
        self._keep(training, x > 0)
        out = np.fmax(x, 0.0)
        out += 0.0   # fmax may keep -0.0; -0.0 + 0.0 is +0.0
        return out

    def backward(self, grad):
        (mask,) = self._cache
        # all-ones bits where the mask holds, all-zero (+0.0) bits elsewhere
        bits = np.dtype(f"u{grad.itemsize}")
        return (grad.view(bits) & np.negative(mask, dtype=bits)).view(grad.dtype)


class Dropout(Layer):
    """Inverted-scaling dropout: inference is an exact pass-through."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        if not 0 <= p < 1:
            raise DataError(f"dropout rate must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng

    def forward(self, x, training=False):
        mask = None
        if training and self.p > 0:
            # drawn in float64 in any dtype, so a seed gives the same mask
            mask = (self.rng.random(x.shape) >= self.p).astype(x.dtype) * x.dtype.type(1 / (1 - self.p))
        self._keep(training, mask)
        return x if mask is None else x * mask

    def backward(self, grad):
        (mask,) = self._cache
        return grad if mask is None else grad * mask


class Conv1d(Layer):
    """Dilated 1-d convolution over the time axis with zero same-padding;
    output length equals input length for any dilation."""

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator,
                 kernel: int = 3, dilation: int = 1):
        super().__init__()
        if kernel % 2 != 1:
            raise DataError("same-padding requires an odd kernel size")
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.dilation = kernel, dilation
        self._register("w", glorot(rng, kernel * in_ch, out_ch, (kernel, in_ch, out_ch)))
        self._register("b", np.zeros(out_ch))

    def forward(self, x, training=False):
        if x.ndim != 3 or x.shape[-1] != self.in_ch:
            _shape_error(self, f"(batch, steps, {self.in_ch})", x.shape)
        b, t, _ = x.shape
        pad = self.dilation * (self.kernel - 1) // 2
        # windows[:, s, k] = x[:, s + k * dilation - pad], zero outside the input;
        # a tap may lie wholly outside it when t <= dilation
        windows = np.zeros((b, t, self.kernel, self.in_ch), dtype=x.dtype)
        for k in range(self.kernel):
            shift = k * self.dilation - pad
            lo, hi = max(0, -shift), min(t, t - shift)
            if lo < hi:
                windows[:, lo:hi, k] = x[:, lo + shift:hi + shift]
        self._keep(training, windows, pad)
        out = windows.reshape(b, t, -1) @ self.params["w"].reshape(-1, self.out_ch)
        return out + self.params["b"]

    def backward(self, grad, input_grad=True):
        windows, pad = self._cache
        b, t, _ = grad.shape
        g2 = grad.reshape(-1, self.out_ch)
        win2 = windows.reshape(-1, self.kernel * self.in_ch)
        self.grads["w"] += (win2.T @ g2).reshape(self.kernel, self.in_ch, self.out_ch)
        self.grads["b"] += g2.sum(axis=0)
        if not input_grad:
            return None
        dxp = np.zeros((b, t + 2 * pad, self.in_ch), dtype=grad.dtype)
        for k in range(self.kernel):
            dxp[:, k * self.dilation:k * self.dilation + t, :] += grad @ self.params["w"][k].T
        return dxp[:, pad:pad + t, :]


class Lstm(Layer):
    """LSTM over the full sequence (gates i, f, g, o); returns all hidden states."""

    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator):
        super().__init__()
        self.n_in, self.n_hidden = n_in, n_hidden
        w = np.empty((n_in + n_hidden, 4 * n_hidden))
        w[:n_in] = glorot(rng, n_in, n_hidden, (n_in, 4 * n_hidden))
        for gate in range(4):   # orthogonal recurrent blocks train much faster
            w[n_in:, gate * n_hidden:(gate + 1) * n_hidden] = orthogonal(rng, n_hidden)
        self._register("w", w)
        b = np.zeros(4 * n_hidden)
        b[n_hidden:2 * n_hidden] = 1.0   # forget-gate bias keeps early gradients alive
        self._register("b", b)

    def forward(self, x, training=False):
        if x.ndim != 3 or x.shape[-1] != self.n_in:
            _shape_error(self, f"(batch, steps, {self.n_in})", x.shape)
        b, t, _ = x.shape
        nh = self.n_hidden
        h = np.zeros((b, nh), dtype=x.dtype)
        c = np.zeros((b, nh), dtype=x.dtype)
        steps = []
        out = np.empty((b, t, nh), dtype=x.dtype)
        for step in range(t):
            zin = np.concatenate([x[:, step, :], h], axis=1)
            z = zin @ self.params["w"] + self.params["b"]
            gi = sigmoid(z[:, :nh])
            gf = sigmoid(z[:, nh:2 * nh])
            gg = np.tanh(z[:, 2 * nh:3 * nh])
            go = sigmoid(z[:, 3 * nh:])
            c_new = gf * c + gi * gg
            tc = np.tanh(c_new)
            h = go * tc
            out[:, step, :] = h
            if training:
                steps.append((zin, gi, gf, gg, go, c, c_new, tc))
            c = c_new
        self._keep(training, *steps)
        return out

    def backward(self, grad, input_grad=True):
        b, t, nh = grad.shape
        dw = self.grads["w"]
        db = self.grads["b"]
        dh_next = np.zeros((b, nh), dtype=grad.dtype)
        dc_next = np.zeros((b, nh), dtype=grad.dtype)
        dx = np.empty((b, t, self.n_in), dtype=grad.dtype) if input_grad else None
        for step in range(t - 1, -1, -1):
            zin, gi, gf, gg, go, c_prev, c_new, tc = self._cache[step]
            dh = grad[:, step, :] + dh_next
            dgo = dh * tc
            dc = dh * go * (1.0 - tc * tc) + dc_next
            dgi = dc * gg
            dgf = dc * c_prev
            dgg = dc * gi
            dz = np.concatenate([
                dgi * gi * (1 - gi),
                dgf * gf * (1 - gf),
                dgg * (1 - gg * gg),
                dgo * go * (1 - go),
            ], axis=1)
            dw += zin.T @ dz
            db += dz.sum(axis=0)
            # the whole product even without dx: dh_next alone, from
            # W[n_in:], rounds differently
            dzin = dz @ self.params["w"].T
            if input_grad:
                dx[:, step, :] = dzin[:, :self.n_in]
            dh_next = dzin[:, self.n_in:]
            dc_next = dc * gf
        return dx


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along axis, computed in place: x is overwritten and returned."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


ATTENTION_BLOCK_SCORES = 1 << 18   # least scores per block of the attention core


class MultiHeadAttention(Layer):
    """Bidirectional self-attention; head_dim * heads must equal dim.

    The core (scores, softmax, their product with the values, and its
    backward) works on each (batch, head) pair alone: every product is one
    2-d matrix product per pair and the softmax works per row.  So it runs
    over fixed blocks of batch rows, fanned out over the CPUs
    (`blocks.fan_out`), with the bytes of one whole-batch call.  The
    projections and the weight gradients stay whole, on the calling thread.
    """

    def __init__(self, dim: int, rng: np.random.Generator, heads: int = 4):
        super().__init__()
        if dim % heads != 0:
            raise DataError(f"attention dim {dim} not divisible by heads {heads}")
        self.dim, self.heads, self.head_dim = dim, heads, dim // heads
        for name in ("wq", "wk", "wv", "wo"):
            self._register(name, glorot(rng, dim, dim, (dim, dim)))
        for name in ("bq", "bk", "bv", "bo"):
            self._register(name, np.zeros(dim))

    def _split(self, x):
        b, t, _ = x.shape
        return x.reshape(b, t, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, x):
        b, h, t, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * d)

    def _core(self, run, b, t):
        """run(lo, hi) over batch rows lo:hi in blocks of at least
        ATTENTION_BLOCK_SCORES scores; a batch of one block runs in one call."""
        rows = -(-ATTENTION_BLOCK_SCORES // (self.heads * t * t))
        if rows >= b:
            run(0, b)
        else:
            fan_out(run, row_blocks(b, rows), rows)

    def forward(self, x, training=False):
        if x.ndim != 3 or x.shape[-1] != self.dim:
            _shape_error(self, f"(batch, steps, {self.dim})", x.shape)
        p = self.params
        q = self._split(x @ p["wq"] + p["bq"])
        k = self._split(x @ p["wk"] + p["bk"])
        v = self._split(x @ p["wv"] + p["bv"])
        b, h, t, d = q.shape
        attn = np.empty((b, h, t, t), dtype=q.dtype)
        ctx = np.empty((b, h, t, d), dtype=q.dtype)

        def run(lo, hi):
            scores = np.matmul(q[lo:hi], k[lo:hi].transpose(0, 1, 3, 2), out=attn[lo:hi])
            scores /= self.head_dim ** 0.5   # a Python float: float32 stays float32
            np.matmul(softmax(scores, axis=-1), v[lo:hi], out=ctx[lo:hi])

        self._core(run, b, t)
        ctx = self._merge(ctx)
        self._keep(training, x, q, k, v, attn, ctx)
        return ctx @ p["wo"] + p["bo"]

    def backward(self, grad):
        x, q, k, v, attn, ctx = self._cache
        p, g = self.params, self.grads
        b, t, _ = x.shape

        g["wo"] += ctx.reshape(-1, self.dim).T @ grad.reshape(-1, self.dim)
        g["bo"] += grad.reshape(-1, self.dim).sum(axis=0)
        dctx = self._split(grad @ p["wo"].T)
        dq, dk, dv = (np.empty_like(dctx, order="C") for _ in range(3))

        def run(lo, hi):
            a, dc = attn[lo:hi], dctx[lo:hi]
            dscores = dc @ v[lo:hi].transpose(0, 1, 3, 2)   # dattn, made dscores in place
            np.matmul(a.transpose(0, 1, 3, 2), dc, out=dv[lo:hi])
            dscores -= (dscores * a).sum(axis=-1, keepdims=True)
            dscores *= a
            dscores /= self.head_dim ** 0.5
            np.matmul(dscores, k[lo:hi], out=dq[lo:hi])
            np.matmul(dscores.transpose(0, 1, 3, 2), q[lo:hi], out=dk[lo:hi])

        self._core(run, b, t)

        dx = np.zeros_like(x)
        x2 = x.reshape(-1, self.dim)
        for name_w, name_b, d in (("wq", "bq", dq), ("wk", "bk", dk), ("wv", "bv", dv)):
            d2 = self._merge(d).reshape(-1, self.dim)
            g[name_w] += x2.T @ d2
            g[name_b] += d2.sum(axis=0)
            dx += (d2 @ p[name_w].T).reshape(x.shape)
        return dx


class BatchNorm(Layer):
    """Normalizes each feature over all leading axes; running statistics are
    updated only in training mode (momentum 0.9) and used at inference."""

    def __init__(self, dim: int, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__()
        self.dim, self.momentum, self.eps = dim, momentum, eps
        self._register("gamma", np.ones(dim))
        self._register("beta", np.zeros(dim))
        self.buffers["running_mean"] = np.zeros(dim)
        self.buffers["running_var"] = np.ones(dim)

    def forward(self, x, training=False):
        if x.shape[-1] != self.dim:
            _shape_error(self, f"(..., {self.dim})", x.shape)
        flat = x.reshape(-1, self.dim)
        if training:
            mean = flat.mean(axis=0)
            var = flat.var(axis=0)
            m = self.momentum
            self.buffers["running_mean"][...] = m * self.buffers["running_mean"] + (1 - m) * mean
            self.buffers["running_var"][...] = m * self.buffers["running_var"] + (1 - m) * var
        else:
            mean = self.buffers["running_mean"]
            var = self.buffers["running_var"]
        ivar = 1.0 / np.sqrt(var + self.eps)
        xhat = (flat - mean) * ivar
        self._keep(training, xhat, ivar, x.shape)
        return (self.params["gamma"] * xhat + self.params["beta"]).reshape(x.shape)

    def backward(self, grad):
        xhat, ivar, shape = self._cache
        g2 = grad.reshape(-1, self.dim)
        self.grads["gamma"] += (g2 * xhat).sum(axis=0)
        self.grads["beta"] += g2.sum(axis=0)
        dxhat = g2 * self.params["gamma"]
        n = g2.shape[0]
        dx = (ivar / n) * (n * dxhat - dxhat.sum(axis=0)
                           - xhat * (dxhat * xhat).sum(axis=0))
        return dx.reshape(shape)


class LayerNorm(Layer):
    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim, self.eps = dim, eps
        self._register("gamma", np.ones(dim))
        self._register("beta", np.zeros(dim))

    def forward(self, x, training=False):
        if x.shape[-1] != self.dim:
            _shape_error(self, f"(..., {self.dim})", x.shape)
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        ivar = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * ivar
        self._keep(training, xhat, ivar)
        return self.params["gamma"] * xhat + self.params["beta"]

    def backward(self, grad):
        xhat, ivar = self._cache
        self.grads["gamma"] += (grad * xhat).reshape(-1, self.dim).sum(axis=0)
        self.grads["beta"] += grad.reshape(-1, self.dim).sum(axis=0)
        dxhat = grad * self.params["gamma"]
        d = self.dim
        return (ivar / d) * (d * dxhat - dxhat.sum(axis=-1, keepdims=True)
                             - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))


class FeedForward(Layer):
    """Dense(dim -> inner) + rectifier + Dense(inner -> dim); inner defaults to 2*dim."""

    def __init__(self, dim: int, rng: np.random.Generator, inner: int | None = None):
        super().__init__()
        inner = inner if inner is not None else 2 * dim
        self.net = Sequential([Dense(dim, inner, rng), Relu(), Dense(inner, dim, rng)])
        self.children = [("net", self.net)]

    def forward(self, x, training=False):
        return self.net.forward(x, training=training)

    def backward(self, grad):
        return self.net.backward(grad)


class TakeLast(Layer):
    """(batch, steps, features) -> (batch, features): the last step."""

    def forward(self, x, training=False):
        self._keep(training, x.shape)
        return x[:, -1, :]

    def backward(self, grad):
        (shape,) = self._cache
        dx = np.zeros(shape, dtype=grad.dtype)
        dx[:, -1, :] = grad
        return dx


class RepeatVector(Layer):
    """(batch, features) -> (batch, steps, features)."""

    def __init__(self, steps: int):
        super().__init__()
        self.steps = steps

    def forward(self, x, training=False):
        return np.broadcast_to(x[:, None, :], (x.shape[0], self.steps, x.shape[1])).copy()

    def backward(self, grad):
        return grad.sum(axis=1)


class TransformerEncoderLayer(Layer):
    """Post-norm encoder block: x -> LN(x + DO(MHA(x))) -> LN(. + DO(FF(.)))."""

    def __init__(self, dim: int, rng: np.random.Generator, heads: int = 4,
                 inner: int | None = None, dropout: float = 0.2):
        super().__init__()
        self.attn = MultiHeadAttention(dim, rng, heads=heads)
        self.drop1 = Dropout(dropout, rng=_child_rng(rng))
        self.norm1 = LayerNorm(dim)
        self.ff = FeedForward(dim, rng, inner=inner)
        self.drop2 = Dropout(dropout, rng=_child_rng(rng))
        self.norm2 = LayerNorm(dim)
        self.children = [("attn", self.attn), ("drop1", self.drop1), ("norm1", self.norm1),
                         ("ff", self.ff), ("drop2", self.drop2), ("norm2", self.norm2)]

    def forward(self, x, training=False):
        a = self.drop1.forward(self.attn.forward(x, training), training)
        h = self.norm1.forward(x + a, training)
        f = self.drop2.forward(self.ff.forward(h, training), training)
        return self.norm2.forward(h + f, training)

    def backward(self, grad):
        dh = self.norm2.backward(grad)
        dh = dh + self.ff.backward(self.drop2.backward(dh))
        dx = self.norm1.backward(dh)
        return dx + self.attn.backward(self.drop1.backward(dx))


def _child_rng(rng: np.random.Generator) -> np.random.Generator:
    """Independent child stream so dropout masks don't perturb init draws."""
    return np.random.default_rng(rng.integers(0, 2 ** 63 - 1))
