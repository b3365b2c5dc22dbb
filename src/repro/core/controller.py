"""RNN controller with REINFORCE (paper Figure 1 / Zoph's NAS).

The controller emits the child network's hyperparameters one decision at
a time: for each layer, a filter-size token then a filter-count token
(Table 2 choice lists).  Two implementations:

* :class:`LstmController` -- the paper-faithful one: a single-layer LSTM
  whose input at step ``t`` is the embedding of the previous decision,
  with one softmax head per decision kind.  Trained by REINFORCE
  (policy gradient ascent on ``advantage * log pi``) with Adam, full
  backpropagation-through-time implemented by hand in NumPy.
* :class:`TabularController` -- independent per-step softmax logits,
  same REINFORCE update.  No recurrence, so it cannot model
  inter-decision correlations, but it is fast, has few knobs, and makes
  convergence behaviour easy to verify in tests.

Both share the :class:`Controller` protocol used by the search loop.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.core.search_space import SearchSpace


@dataclass
class ControllerSample:
    """One sampled token sequence plus what the update step needs."""

    tokens: list[int]
    log_prob: float
    cache: object | None = None


@dataclass
class ControllerBatch:
    """A batch of samples drawn together, plus the batched activations.

    ``cache`` holds whatever the controller's vectorized backward pass
    needs (batched, so it cannot live on the individual samples); batches
    assembled from sequential :meth:`Controller.sample` calls carry
    ``cache=None`` and are updated sample-by-sample instead.
    """

    samples: list[ControllerSample]
    cache: object | None = None

    def __len__(self) -> int:
        return len(self.samples)


class Controller(Protocol):
    """Policy over token sequences, updatable from (sample, advantage).

    The batch methods are part of the protocol (every built-in
    controller vectorizes them), but the search loop degrades
    gracefully: a legacy controller implementing only ``sample`` /
    ``update`` still works at any ``batch_size`` via the per-sample
    fallback in :mod:`repro.core.search`.
    """

    def sample(self, rng: np.random.Generator) -> ControllerSample:
        """Draw one token sequence from the current policy."""
        ...

    def update(self, sample: ControllerSample, advantage: float) -> float:
        """One REINFORCE step; returns the policy-gradient loss."""
        ...

    def sample_batch(
        self, rng: np.random.Generator, batch_size: int
    ) -> ControllerBatch:
        """Draw ``batch_size`` token sequences from the current policy."""
        ...

    def update_batch(
        self, batch: ControllerBatch, advantages: list[float]
    ) -> float:
        """One REINFORCE step on the mean per-sample gradient.

        Returns the mean policy-gradient loss.  A single-sample batch
        is one :meth:`update` step up to rounding: the tabular
        controller's two paths differ in the last bit.  That is why the
        search loop picks scalar or batched calls by the run's
        ``batch_size``, not by the size of the batch in hand.
        """
        ...

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of all learnable state.

        Together with :meth:`load_state_dict` this is what makes a
        search checkpointable: restoring the state and the RNG stream
        reproduces the remaining trajectory exactly; the built-in
        controllers pack it (:meth:`_AdamState.state_dict`) to round-trip
        bit for bit.  A third-party controller without these methods
        still searches fine but cannot be checkpointed.
        """
        ...

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        Must leave the controller byte-identical to the one snapshotted:
        parameters, optimizer moments and step count included.  The
        built-in controllers also read the older list form.
        """
        ...


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _not_finite(step: int) -> ValueError:
    return ValueError(f"controller probabilities at step {step} are not finite")


def _cdf(probs: np.ndarray, step: int) -> np.ndarray:
    """The normalised CDF ``Generator.choice(n, p=probs)`` bisects.

    Raises :class:`ValueError` naming ``step`` when ``probs`` is not
    finite: every NaN a softmax can produce makes the total NaN.
    """
    cdf = probs.cumsum()
    total = cdf[-1]
    if not math.isfinite(total):
        raise _not_finite(step)
    cdf /= total
    return cdf


def _choice(rng: np.random.Generator, probs: np.ndarray, step: int) -> int:
    """One categorical draw, as ``Generator.choice(n, p=probs)`` makes it.

    Same CDF, one uniform and a right-bisection, so it consumes the RNG
    stream exactly like ``choice`` without that call's argument checks.
    """
    return int(np.count_nonzero(_cdf(probs, step) <= rng.random()))


def _choice_rows(
    rng: np.random.Generator, probs: np.ndarray, step: int
) -> np.ndarray:
    """Vectorized row-wise categorical draw.

    Mirrors :func:`_choice`'s arithmetic (normalised CDF, one uniform
    draw per row, right-bisection) so a one-row batch consumes the RNG
    stream exactly like the sequential sampler.
    """
    cdf = probs.cumsum(axis=1)
    if not np.isfinite(cdf[:, -1]).all():
        raise _not_finite(step)
    cdf /= cdf[:, -1:]
    u = rng.random(len(probs))
    return (cdf <= u[:, None]).sum(axis=1)


def _batch_samples(
    token_matrix: np.ndarray, log_probs: np.ndarray
) -> list[ControllerSample]:
    """One sample per row; ``tolist`` yields the Python ints and floats
    that per-element ``int``/``float`` calls would, in one pass."""
    return [
        ControllerSample(tokens=tokens, log_prob=log_prob)
        for tokens, log_prob in zip(token_matrix.tolist(), log_probs.tolist())
    ]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of ``x`` clipped to [-30, 30].

    ``maximum``/``minimum`` give ``np.clip``'s values without its
    per-call argument handling; the rest runs in place on one temporary.
    """
    out = np.maximum(x, -30.0)
    np.minimum(out, 30.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _check_batch_size(batch_size: int) -> None:
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")


def _check_advantages(batch: ControllerBatch, advantages) -> np.ndarray:
    advantages = np.asarray(advantages, dtype=float)
    if advantages.shape != (len(batch),):
        raise ValueError(
            f"expected {len(batch)} advantages, got shape {advantages.shape}"
        )
    return advantages


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive slices of ``flat`` reshaped to ``shapes`` (views)."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


class _AdamState:
    """Adam over one flat parameter vector.

    The registered arrays are copied, in order, into one contiguous
    float64 vector ``flat``; ``params`` are views into it that replace
    the originals.  The gradient and both moments are flat vectors with
    the same layout (``grads``, ``m`` and ``v`` are their views), so a
    step is a handful of ufuncs however many arrays there are.
    """

    #: Byte order and width of :meth:`state_dict`'s packed vectors.
    DTYPE = "<f8"

    def __init__(self, params: list[np.ndarray], lr: float):
        shapes = [p.shape for p in params]
        self.flat = np.concatenate([p.ravel() for p in params])
        self.grad_flat = np.zeros_like(self.flat)
        self.m_flat = np.zeros_like(self.flat)
        self.v_flat = np.zeros_like(self.flat)
        self.params = _views(self.flat, shapes)
        self.grads = _views(self.grad_flat, shapes)
        self.m = _views(self.m_flat, shapes)
        self.v = _views(self.v_flat, shapes)
        self.lr = lr
        self.t = 0

    def zero_grad(self) -> None:
        """Clear the gradient buffer before an update accumulates into it."""
        self.grad_flat.fill(0.0)

    def step(self) -> None:
        """One bias-corrected Adam update from the gradient buffer."""
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        bias1 = 1 - b1**self.t
        bias2 = 1 - b2**self.t
        g, m, v = self.grad_flat, self.m_flat, self.v_flat
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        self.flat -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + eps)

    def _vectors(self) -> tuple:
        return ("params", self.flat), ("m", self.m_flat), ("v", self.v_flat)

    def state_dict(self) -> dict:
        """Base64 of the little-endian float64 ``flat``, ``m_flat`` and
        ``v_flat``, plus the parameter shapes and the step count."""
        return {
            "dtype": self.DTYPE,
            "shapes": [list(p.shape) for p in self.params],
            "t": self.t,
            **{key: base64.b64encode(
                vector.astype(self.DTYPE, copy=False).tobytes()
            ).decode("ascii") for key, vector in self._vectors()},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place.  Every check runs
        before the first copy, so a state that fails changes nothing."""
        dtype, shapes = state["dtype"], [list(p.shape) for p in self.params]
        if dtype != self.DTYPE:
            raise ValueError(f"packed dtype {dtype!r} is not {self.DTYPE!r}")
        if state["shapes"] != shapes:
            raise ValueError(f"packed shapes {state['shapes']} != {shapes}")
        decoded = []
        for key, target in self._vectors():
            raw = base64.b64decode(state[key], validate=True)
            if len(raw) != target.nbytes:
                raise ValueError(f"packed {key} does not fit shape "
                                 f"{target.shape}")
            decoded.append(np.frombuffer(raw, dtype=self.DTYPE))
        self.t = int(state["t"])
        for (_, target), values in zip(self._vectors(), decoded):
            target[...] = values

    def _load_list_state(self, state: dict) -> None:
        """Restore list-form moments in place, through the views."""
        if len(state["m"]) != len(self.m) or len(state["v"]) != len(self.v):
            raise ValueError(
                f"Adam state has {len(state['m'])} moment arrays, "
                f"expected {len(self.m)}"
            )
        self.t = int(state["t"])
        for target, source in zip(self.m, state["m"]):
            _copy_into(target, source, "Adam first moment")
        for target, source in zip(self.v, state["v"]):
            _copy_into(target, source, "Adam second moment")


def _copy_into(target: np.ndarray, source, what: str) -> None:
    """Copy serialized values into an existing array, shape-checked.

    In-place copy (rather than rebinding) keeps ``target`` a view into
    its optimizer's flat buffer, which the Adam step updates.
    """
    values = np.asarray(source, dtype=target.dtype)
    if values.shape != target.shape:
        raise ValueError(
            f"{what}: shape {values.shape} does not match {target.shape}"
        )
    target[...] = values


def _cell_backward(dh, dc_next, gates, g, c_prev, tanh_c, dz) -> np.ndarray:
    """LSTM cell backward for one step, unbatched or batched.

    Writes the pre-activation gradient into ``dz`` (last axis ``4 * hs``,
    gate order i, f, g, o; it must hold finite values on entry) and
    returns the gradient flowing to the previous cell state.
    """
    hs = dh.shape[-1]
    i, f, o = gates[..., :hs], gates[..., hs:2 * hs], gates[..., 3 * hs:]
    dc = dh * o * (1 - tanh_c ** 2) + dc_next
    # Sigmoid gates: dz = d_gate * gate * (1 - gate), in that order.
    # Their d_gate go in first, then two multiplies span all four blocks;
    # the tanh block g is overwritten with its own derivative last.
    np.multiply(dc, g, out=dz[..., :hs])
    np.multiply(dc, c_prev, out=dz[..., hs:2 * hs])
    np.multiply(dh, tanh_c, out=dz[..., 3 * hs:])
    dz *= gates
    dz *= 1 - gates
    dz[..., 2 * hs:3 * hs] = dc * i * (1 - g ** 2)
    return dc * f


class LstmController:
    """Single-layer LSTM policy with per-decision-kind heads.

    All parameters live in one contiguous float64 vector owned by the
    Adam optimizer; ``start_embedding``, ``w_lstm``, ``b_lstm``,
    ``embeddings[kind]`` and ``heads[kind]`` are views into it.  The
    gradient and both Adam moments are flat vectors with the same
    layout, so an update accumulates into preallocated views and steps
    the optimizer once over the whole vector.
    """

    def __init__(
        self,
        space: SearchSpace,
        hidden_size: int = 32,
        embed_size: int = 16,
        lr: float = 0.01,
        entropy_weight: float = 0.0,
        seed: int = 0,
    ):
        if hidden_size <= 0 or embed_size <= 0:
            raise ValueError("hidden_size and embed_size must be positive")
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if entropy_weight < 0:
            raise ValueError(
                f"entropy_weight must be >= 0, got {entropy_weight}"
            )
        self.space = space
        self.hidden_size = hidden_size
        self.embed_size = embed_size
        self.entropy_weight = entropy_weight
        self._kinds = tuple(
            space.decision_kind(step) for step in range(space.num_decisions)
        )
        rng = np.random.default_rng(seed)
        h, e = hidden_size, embed_size
        scale = 0.1
        # Embedding tables: one per decision kind, plus the start token.
        self.embeddings = {
            kind: rng.normal(0, scale, size=(len(choices), e))
            for kind, choices in self._kind_choices().items()
        }
        self.start_embedding = rng.normal(0, scale, size=(e,))
        # LSTM: z = [h_prev, x] @ W + b; gates i, f, g, o.
        self.w_lstm = rng.normal(0, scale, size=(h + e, 4 * h))
        self.b_lstm = np.zeros(4 * h)
        # Output heads per decision kind.
        self.heads = {
            kind: (
                rng.normal(0, scale, size=(h, len(choices))),
                np.zeros(len(choices)),
            )
            for kind, choices in self._kind_choices().items()
        }
        # Move every parameter into the optimizer's flat buffer, laid
        # out in _param_list() order, and keep the named views.
        self._adam = _AdamState(self._param_list(), lr)
        (self.start_embedding, self.w_lstm, self.b_lstm, self.embeddings,
         self.heads) = self._named(self._adam.params)
        self._grad = self._named(self._adam.grads)

    def _kind_choices(self) -> dict[str, tuple]:
        # Derived in per-layer token order: classic spaces yield
        # filter_size then filter_count (the seed's dict order, which
        # also fixes the RNG draw order at init), conv-type-searching
        # spaces prepend conv_type.
        kinds: dict[str, tuple] = {}
        for step in range(self.space.decisions_per_layer):
            kind = self.space.decision_kind(step)
            if kind not in kinds:
                kinds[kind] = self.space.choices_at(step)
        return kinds

    def _param_list(self) -> list[np.ndarray]:
        params = [self.start_embedding, self.w_lstm, self.b_lstm]
        for kind in sorted(self.embeddings):
            params.append(self.embeddings[kind])
        for kind in sorted(self.heads):
            params.extend(self.heads[kind])
        return params

    def _named(self, arrays: list[np.ndarray]) -> tuple:
        """``(start_embedding, w_lstm, b_lstm, embeddings, heads)`` from
        ``arrays`` laid out in :meth:`_param_list` order."""
        it = iter(arrays)
        start_embedding, w_lstm, b_lstm = next(it), next(it), next(it)
        embeddings = {kind: next(it) for kind in sorted(self.embeddings)}
        heads = {kind: (next(it), next(it)) for kind in sorted(self.heads)}
        # The dicts keep token order, which state_dict() writes out.
        return (start_embedding, w_lstm, b_lstm,
                {kind: embeddings[kind] for kind in self.embeddings},
                {kind: heads[kind] for kind in self.heads})

    # -- forward -------------------------------------------------------------

    def _cell(self, h: np.ndarray, c: np.ndarray, x: np.ndarray) -> tuple:
        """One LSTM step on unbatched or batched (leading axis) state.

        One clipped sigmoid over all ``4 * hs`` pre-activations gives
        the i, f and o gates; sigmoid is elementwise, so slicing it
        matches a sigmoid per gate.  Returns ``(concat, gates, g, c,
        tanh_c, h)`` with ``c`` and ``h`` the new state.
        """
        hs = self.hidden_size
        concat = np.concatenate([h, x], axis=-1)
        z = concat @ self.w_lstm + self.b_lstm
        gates = _sigmoid(z)
        i, f, o = gates[..., :hs], gates[..., hs:2 * hs], gates[..., 3 * hs:]
        g = np.tanh(z[..., 2 * hs:3 * hs])
        c = f * c + i * g
        tanh_c = np.tanh(c)
        return concat, gates, g, c, tanh_c, o * tanh_c

    def sample(
        self,
        rng: np.random.Generator,
        force_tokens: list[int] | None = None,
    ) -> ControllerSample:
        """Sample a token sequence, caching activations for BPTT.

        ``force_tokens`` scores a fixed sequence under the current
        policy instead of sampling (used for off-policy analysis and
        exact log-probability queries).
        """
        if force_tokens is not None:
            self.space.check_tokens(force_tokens)
        h = np.zeros(self.hidden_size)
        c = np.zeros(self.hidden_size)
        tokens: list[int] = []
        log_prob = 0.0
        steps: list[tuple] = []
        x = self.start_embedding
        for step, kind in enumerate(self._kinds):
            c_prev = c
            concat, gates, g, c, tanh_c, h = self._cell(h, c_prev, x)
            w_head, b_head = self.heads[kind]
            probs = _softmax(h @ w_head + b_head)
            if force_tokens is not None:
                token = force_tokens[step]
            else:
                token = _choice(rng, probs, step)
            log_prob += float(np.log(probs[token] + 1e-12))
            steps.append(
                (kind, concat, gates, g, c_prev, tanh_c, h, probs, token)
            )
            tokens.append(token)
            x = self.embeddings[kind][token]
        return ControllerSample(tokens=tokens, log_prob=log_prob, cache=steps)

    def sample_batch(
        self, rng: np.random.Generator, batch_size: int
    ) -> ControllerBatch:
        """Sample ``batch_size`` sequences with one matmul per step.

        The whole batch advances through the LSTM together, so the cost
        of the Python-level recurrence is paid once per step instead of
        once per step per candidate.
        """
        _check_batch_size(batch_size)
        b, hs = batch_size, self.hidden_size
        h = np.zeros((b, hs))
        c = np.zeros((b, hs))
        x = np.repeat(self.start_embedding[None, :], b, axis=0)
        rows = np.arange(b)
        log_probs = np.zeros(b)
        token_rows: list[np.ndarray] = []
        steps: list[tuple] = []
        for step, kind in enumerate(self._kinds):
            c_prev = c
            concat, gates, g, c, tanh_c, h = self._cell(h, c_prev, x)
            w_head, b_head = self.heads[kind]
            probs = _softmax_rows(h @ w_head + b_head)
            toks = _choice_rows(rng, probs, step)
            log_probs += np.log(probs[rows, toks] + 1e-12)
            steps.append(
                (kind, concat, gates, g, c_prev, tanh_c, h, probs, toks)
            )
            token_rows.append(toks)
            x = self.embeddings[kind][toks]
        samples = _batch_samples(np.stack(token_rows, axis=1), log_probs)
        return ControllerBatch(samples=samples, cache=steps)

    # -- backward ------------------------------------------------------------

    def update(self, sample: ControllerSample, advantage: float) -> float:
        """REINFORCE step: ascend ``advantage * log pi`` (+ entropy bonus)."""
        steps = sample.cache
        if steps is None:
            raise ValueError("sample has no cached activations; was it "
                             "produced by this controller's sample()?")
        self._adam.zero_grad()
        grad_start, grad_w_lstm, grad_b_lstm, grad_emb, grad_heads = self._grad
        hs = self.hidden_size
        dh_next = np.zeros(hs)
        dc_next = np.zeros(hs)
        dx_next: np.ndarray | None = None
        dz = np.zeros(4 * hs)
        loss = 0.0
        for step in reversed(steps):
            kind, concat, gates, g, c_prev, tanh_c, h, probs, token = step
            # Loss = -A * log pi - w_H * H; dlogits accordingly.  The
            # copy with 1 taken off the token is probs - one_hot.
            d_logits = probs.copy()
            d_logits[token] -= 1.0
            d_logits *= advantage
            loss += -advantage * float(np.log(probs[token] + 1e-12))
            if self.entropy_weight:
                log_p = np.log(probs + 1e-12)
                entropy = -float((probs * log_p).sum())
                d_logits += self.entropy_weight * probs * (log_p + entropy)
                loss += -self.entropy_weight * entropy
            w_head, _ = self.heads[kind]
            grad_w_head, grad_b_head = grad_heads[kind]
            # The broadcast product is np.outer(h, d_logits) exactly.
            grad_w_head += h[:, None] * d_logits
            grad_b_head += d_logits
            dh = d_logits @ w_head.T + dh_next
            # The *next* step's input embedding was this step's token.
            if dx_next is not None:
                grad_emb[kind][token] += dx_next
            dc_next = _cell_backward(dh, dc_next, gates, g, c_prev, tanh_c,
                                     dz)
            grad_w_lstm += concat[:, None] * dz
            grad_b_lstm += dz
            d_concat = dz @ self.w_lstm.T
            dh_next = d_concat[:hs]
            dx_next = d_concat[hs:]
        if dx_next is not None:
            grad_start += dx_next
        self._adam.step()
        return loss

    def update_batch(
        self, batch: ControllerBatch, advantages: list[float]
    ) -> float:
        """Vectorized REINFORCE: one BPTT pass and one Adam step.

        The per-sample gradients are averaged, so the update magnitude
        is comparable across batch sizes; a one-sample batch reproduces
        :meth:`update` exactly.
        """
        adv = _check_advantages(batch, advantages)
        steps = batch.cache
        if steps is None:
            raise ValueError("batch has no cached activations; was it "
                             "produced by this controller's sample_batch()?")
        b = len(batch)
        self._adam.zero_grad()
        grad_start, grad_w_lstm, grad_b_lstm, grad_emb, grad_heads = self._grad
        hs = self.hidden_size
        rows = np.arange(b)
        dh_next = np.zeros((b, hs))
        dc_next = np.zeros((b, hs))
        dx_next: np.ndarray | None = None
        dz = np.zeros((b, 4 * hs))
        loss = 0.0
        for step in reversed(steps):
            kind, concat, gates, g, c_prev, tanh_c, h, probs, tokens = step
            d_logits = probs.copy()
            d_logits[rows, tokens] -= 1.0
            d_logits *= adv[:, None]
            picked = np.log(probs[rows, tokens] + 1e-12)
            loss += float(-(adv * picked).sum())
            if self.entropy_weight:
                log_p = np.log(probs + 1e-12)
                entropy = -(probs * log_p).sum(axis=1)
                d_logits += self.entropy_weight * probs * (
                    log_p + entropy[:, None]
                )
                loss += -self.entropy_weight * float(entropy.sum())
            w_head, _ = self.heads[kind]
            grad_w_head, grad_b_head = grad_heads[kind]
            grad_w_head += h.T @ d_logits
            grad_b_head += d_logits.sum(axis=0)
            dh = d_logits @ w_head.T + dh_next
            # The *next* step's input embedding was this step's token.
            if dx_next is not None:
                np.add.at(grad_emb[kind], tokens, dx_next)
            dc_next = _cell_backward(dh, dc_next, gates, g, c_prev, tanh_c,
                                     dz)
            grad_w_lstm += concat.T @ dz
            grad_b_lstm += dz.sum(axis=0)
            d_concat = dz @ self.w_lstm.T
            dh_next = d_concat[:, :hs]
            dx_next = d_concat[:, hs:]
        if dx_next is not None:
            grad_start += dx_next.sum(axis=0)
        self._adam.grad_flat /= b
        self._adam.step()
        return loss / b

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """All learnable state (weights + Adam), packed by the optimizer."""
        return {"type": type(self).__name__, **self._adam.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output, or the list form (no
        ``params``), in place; the space and sizes must match."""
        _check_state_type(state, type(self).__name__)
        if "params" in state:
            self._adam.load_state_dict(state)
        else:
            self._load_list_state(state)

    def _load_list_state(self, state: dict) -> None:
        """Restore list-form state: one nested list per named array."""
        _copy_into(self.start_embedding, state["start_embedding"],
                   "start_embedding")
        _copy_into(self.w_lstm, state["w_lstm"], "w_lstm")
        _copy_into(self.b_lstm, state["b_lstm"], "b_lstm")
        if set(state["embeddings"]) != set(self.embeddings):
            raise ValueError(
                f"embedding kinds {sorted(state['embeddings'])} do not "
                f"match {sorted(self.embeddings)}"
            )
        if set(state["heads"]) != set(self.heads):
            raise ValueError(
                f"head kinds {sorted(state['heads'])} do not match "
                f"{sorted(self.heads)}"
            )
        for kind, table in state["embeddings"].items():
            _copy_into(self.embeddings[kind], table, f"embeddings[{kind}]")
        for kind, head in state["heads"].items():
            w, b = self.heads[kind]
            _copy_into(w, head["w"], f"heads[{kind}].w")
            _copy_into(b, head["b"], f"heads[{kind}].b")
        self._adam._load_list_state(state["adam"])


def _check_state_type(state: dict, expected: str) -> None:
    found = state.get("type")
    if found != expected:
        raise ValueError(
            f"state_dict was produced by {found!r}, cannot load into "
            f"{expected}"
        )


class RandomController:
    """Uniform random policy -- the no-learning baseline.

    ``update`` is a no-op; useful for isolating how much of a search
    outcome the REINFORCE learning actually contributes (controller
    ablation) and as a worst-case in tests.
    """

    def __init__(self, space: SearchSpace):
        self.space = space

    def sample(
        self,
        rng: np.random.Generator,
        force_tokens: list[int] | None = None,
    ) -> ControllerSample:
        """Uniform token sequence (or score a fixed one)."""
        if force_tokens is not None:
            self.space.check_tokens(force_tokens)
            tokens = list(force_tokens)
        else:
            tokens = self.space.random_tokens(rng)
        log_prob = -sum(
            float(np.log(len(self.space.choices_at(s))))
            for s in range(self.space.num_decisions)
        )
        return ControllerSample(tokens=tokens, log_prob=log_prob, cache=None)

    def update(self, sample: ControllerSample, advantage: float) -> float:
        """No learning: always returns 0."""
        del sample, advantage
        return 0.0

    def sample_batch(
        self, rng: np.random.Generator, batch_size: int
    ) -> ControllerBatch:
        """``batch_size`` independent uniform samples."""
        _check_batch_size(batch_size)
        return ControllerBatch(
            samples=[self.sample(rng) for _ in range(batch_size)]
        )

    def update_batch(
        self, batch: ControllerBatch, advantages: list[float]
    ) -> float:
        """No learning: always returns 0."""
        _check_advantages(batch, advantages)
        return 0.0

    def state_dict(self) -> dict:
        """Stateless policy: only the type tag."""
        return {"type": type(self).__name__}

    def load_state_dict(self, state: dict) -> None:
        """Stateless policy: verifies the type tag only."""
        _check_state_type(state, type(self).__name__)


class TabularController:
    """Independent softmax logits per decision step (REINFORCE).

    ``logits[step]`` are views into the Adam optimizer's flat buffer,
    as :class:`LstmController`'s parameters are.
    """

    def __init__(self, space: SearchSpace, lr: float = 0.15, seed: int = 0):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.space = space
        self._adam = _AdamState(
            [np.zeros(len(space.choices_at(step)))
             for step in range(space.num_decisions)],
            lr,
        )
        self.logits = self._adam.params
        del seed  # deterministic init; kept for interface symmetry

    def sample(
        self,
        rng: np.random.Generator,
        force_tokens: list[int] | None = None,
    ) -> ControllerSample:
        """Sample each step independently (or score ``force_tokens``)."""
        if force_tokens is not None:
            self.space.check_tokens(force_tokens)
        tokens: list[int] = []
        log_prob = 0.0
        for step, step_logits in enumerate(self.logits):
            probs = _softmax(step_logits)
            if force_tokens is not None:
                token = force_tokens[step]
            else:
                token = _choice(rng, probs, step)
            log_prob += float(np.log(probs[token] + 1e-12))
            tokens.append(token)
        return ControllerSample(tokens=tokens, log_prob=log_prob, cache=None)

    def update(self, sample: ControllerSample, advantage: float) -> float:
        """REINFORCE on the per-step categorical distributions."""
        self._adam.zero_grad()
        loss = 0.0
        for step_logits, grad, token in zip(
            self.logits, self._adam.grads, sample.tokens
        ):
            probs = _softmax(step_logits)
            # advantage * (probs - one_hot), built in the gradient view.
            grad[...] = probs
            grad[token] -= 1.0
            grad *= advantage
            loss += -advantage * float(np.log(probs[token] + 1e-12))
        self._adam.step()
        return loss

    def sample_batch(
        self, rng: np.random.Generator, batch_size: int
    ) -> ControllerBatch:
        """Vectorized sampling: one categorical draw batch per step."""
        _check_batch_size(batch_size)
        b = batch_size
        log_probs = np.zeros(b)
        token_rows: list[np.ndarray] = []
        for step, step_logits in enumerate(self.logits):
            probs = _softmax(step_logits)
            # Every batch row shares this step's distribution, so compute
            # the CDF once and broadcast against the per-row uniforms --
            # same arithmetic (and RNG stream) as _choice_rows.
            cdf = _cdf(probs, step)
            u = rng.random(b)
            toks = (cdf[None, :] <= u[:, None]).sum(axis=1)
            log_probs += np.log(probs[toks] + 1e-12)
            token_rows.append(toks)
        token_matrix = np.stack(token_rows, axis=1)
        samples = _batch_samples(token_matrix, log_probs)
        return ControllerBatch(samples=samples, cache=token_matrix)

    def update_batch(
        self, batch: ControllerBatch, advantages: list[float]
    ) -> float:
        """One Adam step on the mean per-sample REINFORCE gradient."""
        adv = _check_advantages(batch, advantages)
        b = len(batch)
        tokens = np.asarray([s.tokens for s in batch.samples])
        loss = 0.0
        for step, (step_logits, grad) in enumerate(
            zip(self.logits, self._adam.grads)
        ):
            probs = _softmax(step_logits)
            toks = tokens[:, step]
            # mean_b adv_b * (probs - onehot_b), without materialising
            # the (b, n) one-hot matrix.
            np.multiply(probs, adv.mean(), out=grad)
            np.subtract.at(grad, toks, adv / b)
            loss += float(-(adv * np.log(probs[toks] + 1e-12)).sum()) / b
        self._adam.step()
        return loss

    def state_dict(self) -> dict:
        """Per-step logits plus Adam state, packed by the optimizer."""
        return {"type": type(self).__name__, **self._adam.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output, or the list form (no
        ``params``), in place; the search space must match."""
        _check_state_type(state, type(self).__name__)
        if "params" in state:
            self._adam.load_state_dict(state)
        else:
            self._load_list_state(state)

    def _load_list_state(self, state: dict) -> None:
        """Restore list-form state: one list of logits per step."""
        if len(state["logits"]) != len(self.logits):
            raise ValueError(
                f"state has {len(state['logits'])} logit vectors, "
                f"expected {len(self.logits)}"
            )
        for target, source in zip(self.logits, state["logits"]):
            _copy_into(target, source, "logits")
        self._adam._load_list_state(state["adam"])


# --- Registry entries -----------------------------------------------------
#
# Factory contract: factory(space, seed) -> Controller.  Plans name
# controllers by these keys (see repro.plans.SearchPlan.controller).

from repro.registry import CONTROLLERS


@CONTROLLERS.register("lstm")
def _lstm_factory(space: SearchSpace, seed: int) -> LstmController:
    """The paper's LSTM policy (the default across all experiments)."""
    return LstmController(space, seed=seed)


@CONTROLLERS.register("tabular")
def _tabular_factory(space: SearchSpace, seed: int) -> TabularController:
    """Independent per-step softmax logits (controller ablation)."""
    return TabularController(space, seed=seed)


@CONTROLLERS.register("random")
def _random_factory(space: SearchSpace, seed: int) -> RandomController:
    """Uniform random policy (no-learning baseline; seed unused)."""
    del seed  # stateless policy: sampling draws from the run's RNG stream
    return RandomController(space)
