"""Per-array LSTM and tabular controllers: the oracle for the flat-buffer ones.

This is the controllers' original code.  Every parameter, Adam moment
and gradient is its own array, each gate gets its own clipped sigmoid,
B=1 sampling draws through ``Generator.choice(p=...)`` and every update
builds a fresh gradient per array.  Nothing at runtime calls it; the
exactness wall in ``test_controller.py`` requires
:mod:`repro.core.controller` to reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.controller import ControllerBatch, ControllerSample
from repro.core.search_space import SearchSpace


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _choice_rows(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(len(probs))
    return (cdf <= u[:, None]).sum(axis=1)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30, 30)))


class AdamState:
    """Adam over a list of separately allocated arrays."""

    def __init__(self, params: list[np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        """One bias-corrected Adam update, array by array."""
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        bias1 = 1 - b1**self.t
        bias2 = 1 - b2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


class ReferenceLstmController:
    """The original LSTM controller (same constructor and RNG draws)."""

    def __init__(
        self,
        space: SearchSpace,
        hidden_size: int = 32,
        embed_size: int = 16,
        lr: float = 0.01,
        entropy_weight: float = 0.0,
        seed: int = 0,
    ):
        self.space = space
        self.hidden_size = hidden_size
        self.embed_size = embed_size
        self.entropy_weight = entropy_weight
        rng = np.random.default_rng(seed)
        h, e = hidden_size, embed_size
        scale = 0.1
        self.embeddings = {
            kind: rng.normal(0, scale, size=(len(choices), e))
            for kind, choices in self._kind_choices().items()
        }
        self.start_embedding = rng.normal(0, scale, size=(e,))
        self.w_lstm = rng.normal(0, scale, size=(h + e, 4 * h))
        self.b_lstm = np.zeros(4 * h)
        self.heads = {
            kind: (
                rng.normal(0, scale, size=(h, len(choices))),
                np.zeros(len(choices)),
            )
            for kind, choices in self._kind_choices().items()
        }
        self._adam = AdamState(self._param_list(), lr)

    def _kind_choices(self) -> dict[str, tuple]:
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

    def sample(self, rng: np.random.Generator) -> ControllerSample:
        """Sample one sequence, drawing through ``Generator.choice``."""
        h = np.zeros(self.hidden_size)
        c = np.zeros(self.hidden_size)
        tokens: list[int] = []
        log_prob = 0.0
        steps: list[dict] = []
        x = self.start_embedding
        for step in range(self.space.num_decisions):
            kind = self.space.decision_kind(step)
            h_prev, c_prev = h, c
            concat = np.concatenate([h_prev, x])
            z = concat @ self.w_lstm + self.b_lstm
            hs = self.hidden_size
            i = _sigmoid(z[:hs])
            f = _sigmoid(z[hs:2 * hs])
            g = np.tanh(z[2 * hs:3 * hs])
            o = _sigmoid(z[3 * hs:])
            c = f * c_prev + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            w_head, b_head = self.heads[kind]
            logits = h @ w_head + b_head
            probs = _softmax(logits)
            token = int(rng.choice(len(probs), p=probs))
            log_prob += float(np.log(probs[token] + 1e-12))
            steps.append(
                dict(
                    kind=kind, concat=concat, i=i, f=f, g=g, o=o,
                    c_prev=c_prev, tanh_c=tanh_c, h=h, probs=probs,
                    token=token,
                )
            )
            tokens.append(token)
            x = self.embeddings[kind][token]
        return ControllerSample(tokens=tokens, log_prob=log_prob, cache=steps)

    def sample_batch(
        self, rng: np.random.Generator, batch_size: int
    ) -> ControllerBatch:
        """Sample ``batch_size`` sequences with one matmul per step."""
        b, hs = batch_size, self.hidden_size
        h = np.zeros((b, hs))
        c = np.zeros((b, hs))
        x = np.repeat(self.start_embedding[None, :], b, axis=0)
        log_probs = np.zeros(b)
        token_rows: list[np.ndarray] = []
        steps: list[dict] = []
        for step in range(self.space.num_decisions):
            kind = self.space.decision_kind(step)
            c_prev = c
            concat = np.concatenate([h, x], axis=1)
            z = concat @ self.w_lstm + self.b_lstm
            i = _sigmoid(z[:, :hs])
            f = _sigmoid(z[:, hs:2 * hs])
            g = np.tanh(z[:, 2 * hs:3 * hs])
            o = _sigmoid(z[:, 3 * hs:])
            c = f * c_prev + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            w_head, b_head = self.heads[kind]
            logits = h @ w_head + b_head
            probs = _softmax_rows(logits)
            toks = _choice_rows(rng, probs)
            log_probs += np.log(probs[np.arange(b), toks] + 1e-12)
            steps.append(
                dict(
                    kind=kind, concat=concat, i=i, f=f, g=g, o=o,
                    c_prev=c_prev, tanh_c=tanh_c, h=h,
                    probs=probs, tokens=toks,
                )
            )
            token_rows.append(toks)
            x = self.embeddings[kind][toks]
        token_matrix = np.stack(token_rows, axis=1)
        samples = [
            ControllerSample(
                tokens=[int(t) for t in token_matrix[row]],
                log_prob=float(log_probs[row]),
            )
            for row in range(b)
        ]
        return ControllerBatch(samples=samples, cache=steps)

    def update(self, sample: ControllerSample, advantage: float) -> float:
        """REINFORCE step with a fresh gradient array per parameter."""
        steps = sample.cache
        grads = {id(p): np.zeros_like(p) for p in self._param_list()}

        def grad_of(param: np.ndarray) -> np.ndarray:
            return grads[id(param)]

        hs = self.hidden_size
        dh_next = np.zeros(hs)
        dc_next = np.zeros(hs)
        dx_next: np.ndarray | None = None
        loss = 0.0
        for t in range(len(steps) - 1, -1, -1):
            s = steps[t]
            probs, token = s["probs"], s["token"]
            one_hot = np.zeros_like(probs)
            one_hot[token] = 1.0
            d_logits = advantage * (probs - one_hot)
            loss += -advantage * float(np.log(probs[token] + 1e-12))
            if self.entropy_weight:
                log_p = np.log(probs + 1e-12)
                entropy = -float((probs * log_p).sum())
                d_logits += self.entropy_weight * probs * (log_p + entropy)
                loss += -self.entropy_weight * entropy
            w_head, b_head = self.heads[s["kind"]]
            grad_of(w_head)[...] += np.outer(s["h"], d_logits)
            grad_of(b_head)[...] += d_logits
            dh = d_logits @ w_head.T + dh_next
            if dx_next is not None:
                grad_of(self.embeddings[s["kind"]])[token] += dx_next
            do = dh * s["tanh_c"]
            dc = dh * s["o"] * (1 - s["tanh_c"] ** 2) + dc_next
            di = dc * s["g"]
            df = dc * s["c_prev"]
            dg = dc * s["i"]
            dc_next = dc * s["f"]
            dz = np.concatenate([
                di * s["i"] * (1 - s["i"]),
                df * s["f"] * (1 - s["f"]),
                dg * (1 - s["g"] ** 2),
                do * s["o"] * (1 - s["o"]),
            ])
            grad_of(self.w_lstm)[...] += np.outer(s["concat"], dz)
            grad_of(self.b_lstm)[...] += dz
            d_concat = dz @ self.w_lstm.T
            dh_next = d_concat[:hs]
            dx_next = d_concat[hs:]
        if dx_next is not None:
            grad_of(self.start_embedding)[...] += dx_next
        params = self._param_list()
        self._adam.step([grads[id(p)] for p in params])
        return loss

    def update_batch(
        self, batch: ControllerBatch, advantages: list[float]
    ) -> float:
        """Vectorized REINFORCE on the mean per-sample gradient."""
        adv = np.asarray(advantages, dtype=float)
        steps = batch.cache
        b = len(batch)
        grads = {id(p): np.zeros_like(p) for p in self._param_list()}

        def grad_of(param: np.ndarray) -> np.ndarray:
            return grads[id(param)]

        hs = self.hidden_size
        rows = np.arange(b)
        dh_next = np.zeros((b, hs))
        dc_next = np.zeros((b, hs))
        dx_next: np.ndarray | None = None
        loss = 0.0
        for t in range(len(steps) - 1, -1, -1):
            s = steps[t]
            probs, tokens = s["probs"], s["tokens"]
            one_hot = np.zeros_like(probs)
            one_hot[rows, tokens] = 1.0
            d_logits = adv[:, None] * (probs - one_hot)
            picked = np.log(probs[rows, tokens] + 1e-12)
            loss += float(-(adv * picked).sum())
            if self.entropy_weight:
                log_p = np.log(probs + 1e-12)
                entropy = -(probs * log_p).sum(axis=1)
                d_logits += self.entropy_weight * probs * (
                    log_p + entropy[:, None]
                )
                loss += -self.entropy_weight * float(entropy.sum())
            w_head, b_head = self.heads[s["kind"]]
            grad_of(w_head)[...] += s["h"].T @ d_logits
            grad_of(b_head)[...] += d_logits.sum(axis=0)
            dh = d_logits @ w_head.T + dh_next
            if dx_next is not None:
                np.add.at(grad_of(self.embeddings[s["kind"]]), tokens, dx_next)
            do = dh * s["tanh_c"]
            dc = dh * s["o"] * (1 - s["tanh_c"] ** 2) + dc_next
            di = dc * s["g"]
            df = dc * s["c_prev"]
            dg = dc * s["i"]
            dc_next = dc * s["f"]
            dz = np.concatenate([
                di * s["i"] * (1 - s["i"]),
                df * s["f"] * (1 - s["f"]),
                dg * (1 - s["g"] ** 2),
                do * s["o"] * (1 - s["o"]),
            ], axis=1)
            grad_of(self.w_lstm)[...] += s["concat"].T @ dz
            grad_of(self.b_lstm)[...] += dz.sum(axis=0)
            d_concat = dz @ self.w_lstm.T
            dh_next = d_concat[:, :hs]
            dx_next = d_concat[:, hs:]
        if dx_next is not None:
            grad_of(self.start_embedding)[...] += dx_next.sum(axis=0)
        params = self._param_list()
        self._adam.step([grads[id(p)] / b for p in params])
        return loss / b


class ReferenceTabularController:
    """The original tabular controller (independent per-step logits)."""

    def __init__(self, space: SearchSpace, lr: float = 0.15):
        self.space = space
        self.logits = [
            np.zeros(len(space.choices_at(step)))
            for step in range(space.num_decisions)
        ]
        self._adam = AdamState(self.logits, lr)

    def sample(self, rng: np.random.Generator) -> ControllerSample:
        """Sample each step through ``Generator.choice``."""
        tokens: list[int] = []
        log_prob = 0.0
        for step_logits in self.logits:
            probs = _softmax(step_logits)
            token = int(rng.choice(len(probs), p=probs))
            log_prob += float(np.log(probs[token] + 1e-12))
            tokens.append(token)
        return ControllerSample(tokens=tokens, log_prob=log_prob, cache=None)

    def sample_batch(
        self, rng: np.random.Generator, batch_size: int
    ) -> ControllerBatch:
        """One categorical draw batch per step."""
        b = batch_size
        log_probs = np.zeros(b)
        token_rows: list[np.ndarray] = []
        for step_logits in self.logits:
            probs = _softmax(step_logits)
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            u = rng.random(b)
            toks = (cdf[None, :] <= u[:, None]).sum(axis=1)
            log_probs += np.log(probs[toks] + 1e-12)
            token_rows.append(toks)
        token_matrix = np.stack(token_rows, axis=1)
        samples = [
            ControllerSample(
                tokens=[int(t) for t in token_matrix[row]],
                log_prob=float(log_probs[row]),
            )
            for row in range(b)
        ]
        return ControllerBatch(samples=samples, cache=token_matrix)

    def update(self, sample: ControllerSample, advantage: float) -> float:
        """REINFORCE with a fresh gradient per step."""
        grads = []
        loss = 0.0
        for step_logits, token in zip(self.logits, sample.tokens):
            probs = _softmax(step_logits)
            one_hot = np.zeros_like(probs)
            one_hot[token] = 1.0
            grads.append(advantage * (probs - one_hot))
            loss += -advantage * float(np.log(probs[token] + 1e-12))
        self._adam.step(grads)
        return loss

    def update_batch(
        self, batch: ControllerBatch, advantages: list[float]
    ) -> float:
        """One Adam step on the mean per-sample gradient."""
        adv = np.asarray(advantages, dtype=float)
        b = len(batch)
        tokens = np.asarray([s.tokens for s in batch.samples])
        grads = []
        loss = 0.0
        for step, step_logits in enumerate(self.logits):
            probs = _softmax(step_logits)
            toks = tokens[:, step]
            grad = probs * adv.mean()
            np.subtract.at(grad, toks, adv / b)
            grads.append(grad)
            loss += float(-(adv * np.log(probs[toks] + 1e-12)).sum()) / b
        self._adam.step(grads)
        return loss
