"""Reverse-direction attentional encoder-decoder (WRL words -> UL symbols).

The source side is always the well-resourced language and the target
side the unwritten-language symbol sequence, so that every UL symbol
receives one normalized attention row. The decoder is teacher-forced
everywhere: reference translations are available even at test time, and
attention extraction runs the same attention and cell steps with dropout
off, and without the readout, which only the loss reads.

The attention softmax is tempered (default T=10) during both training
and extraction so the two distributions match.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from . import numerics as nm
from .corpus import ParallelCorpus, ParallelUtterance, Vocabulary, open_text
from .errors import ConfigError, DataError, NumericalError
from .numerics import Tensor


CLIP_NORM = 5.0  # gradients are rescaled to at most this global L2 norm
MAXOUT_POOL = 2  # readout units per maxout unit
FORCED_DECODE_ROWS = 128  # the most utterances `forced_decode_corpus` decodes as one batch
WEIGHT_TOL = 1e-6  # how far an attention weight or row sum may stray from [0, 1] and 1


@dataclass
class AlignerConfig:
    cell_size: int = 64  # also the width of both embeddings
    temperature: float = 10.0
    dropout: float = 0.5
    batch_size: int = 32
    learning_rate: float = 0.001
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        if self.cell_size <= 0 or self.batch_size <= 0 or self.learning_rate <= 0:
            raise ConfigError("cell size, batch size and learning rate must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("max epochs and patience must be at least 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError("dtype must be float32 or float64, got %r" % self.dtype)

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)


@dataclass
class AttentionMatrix:
    """Soft alignment of UL symbols (rows) to WRL words (columns)."""

    utt_id: str
    weights: np.ndarray  # (T, A), rows sum to 1

    @property
    def num_symbols(self) -> int:
        return self.weights.shape[0]

    @property
    def num_words(self) -> int:
        return self.weights.shape[1]

    def validate(self) -> None:
        w = self.weights
        if not np.all(np.isfinite(w)):
            raise NumericalError("%s: non-finite attention weight" % self.utt_id)
        if np.any(w < -WEIGHT_TOL) or np.any(w > 1 + WEIGHT_TOL):
            raise NumericalError("%s: attention weights outside [0, 1]" % self.utt_id)
        sums = w.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > WEIGHT_TOL):
            raise NumericalError("%s: attention row sums deviate from 1" % self.utt_id)


class AlignerModel:
    """All learned parameters, as views of one flat array `flat` in the order of
    `parameters()` with their gradients in `flat_grad`, and their vocabularies."""

    def __init__(self, config: AlignerConfig, wrl_vocab: Vocabulary, ul_vocab: Vocabulary,
                 rng: Optional[np.random.Generator] = None):
        self.config = config
        self.wrl_vocab = wrl_vocab
        self.ul_vocab = ul_vocab
        n = config.cell_size
        dt = config.np_dtype
        rng = rng or np.random.default_rng(config.seed)

        def u(shape):
            return Tensor(nm.uniform_init(rng, shape, dtype=dt))

        self.src_embed = u((len(wrl_vocab), n))
        self.tgt_embed = u((len(ul_vocab), n))
        self.enc_fwd = nm.lstm_init(rng, n, n, dtype=dt)
        self.enc_bwd = nm.lstm_init(rng, n, n, dtype=dt)
        self.dec = nm.lstm_init(rng, 3 * n, n, dtype=dt)  # E(w_cur) + context
        self.init_W = u((2 * n, n))
        self.init_b = Tensor(np.zeros(n, dtype=dt))
        self.attn_W1 = u((2 * n, n))
        self.attn_W2 = u((n, n))
        self.attn_b2 = Tensor(np.zeros(n, dtype=dt))
        self.attn_v = u((n, 1))
        self.out_W1 = u((4 * n, MAXOUT_POOL * n))  # s_prev + E(w_prev) + context
        self.out_b1 = Tensor(np.zeros(MAXOUT_POOL * n, dtype=dt))
        self.out_W2 = u((n, len(ul_vocab)))
        self.out_b2 = Tensor(np.zeros(len(ul_vocab), dtype=dt))
        self.flat, self.flat_grad = nm.share_buffers(self.parameters())

    def parameters(self) -> dict[str, Tensor]:
        ps = {
            "src_embed": self.src_embed,
            "tgt_embed": self.tgt_embed,
            "init.W": self.init_W,
            "init.b": self.init_b,
            "attn.W1": self.attn_W1,
            "attn.W2": self.attn_W2,
            "attn.b2": self.attn_b2,
            "attn.v": self.attn_v,
            "out.W1": self.out_W1,
            "out.b1": self.out_b1,
            "out.W2": self.out_W2,
            "out.b2": self.out_b2,
        }
        ps.update(self.enc_fwd.tensors("enc_fwd"))
        ps.update(self.enc_bwd.tensors("enc_bwd"))
        ps.update(self.dec.tensors("dec"))
        return ps

    def set_parameters(self, values: dict[str, np.ndarray]) -> None:
        """Load every parameter. A missing, unknown or misshapen one raises ConfigError:
        the values are not the parameters of this model's config."""
        params = self.parameters()
        missing = sorted(set(params) - set(values))
        if missing:
            raise ConfigError("checkpoint lacks parameter(s) %s" % ", ".join(missing))
        for name, arr in values.items():
            if name not in params:
                raise ConfigError("unknown parameter %r in checkpoint" % name)
            if params[name].data.shape != arr.shape:
                raise ConfigError("parameter %r shape mismatch" % name)
            params[name].data[...] = arr  # into the view of `flat`

    # -- forward pieces ----------------------------------------------------

    def encode(self, src_ids: np.ndarray, rng=None, train: bool = False,
               cache: Optional[dict] = None) -> tuple[np.ndarray, np.ndarray]:
        """Bidirectional encoding of (B, A) source ids on arrays, without a tape.

        Returns the states h (B, A, 2n), forward then backward half, and
        the initial decoder state s0 (B, n), a nonlinear transform of the
        final forward/backward states. A dict passed as `cache` receives
        what `_encode_backward` needs.
        """
        src_ids = np.atleast_2d(np.asarray(src_ids))
        if src_ids.size == 0:
            raise NumericalError("empty source sequence")
        if src_ids.min() < 0 or src_ids.max() >= len(self.wrl_vocab):
            raise NumericalError("source id outside vocabulary range")
        cfg = self.config
        B, A = src_ids.shape
        n, dt = cfg.cell_size, cfg.np_dtype
        x = self.src_embed.data[src_ids.T]  # (A, B, n)
        mask = None
        if train and cfg.dropout > 0:  # A draws of (B, n), one per position
            mask = nm.dropout_mask(rng, x.shape, cfg.dropout)
            nm.apply_dropout(x, mask, cfg.dropout)
        fwd = _lstm_forward(self.enc_fwd, x)
        bwd = _lstm_forward(self.enc_bwd, x[::-1])
        h = np.empty((B, A, 2 * n), dtype=dt)
        h[..., :n] = fwd[0][1:].transpose(1, 0, 2)
        h[..., n:] = bwd[0][:0:-1].transpose(1, 0, 2)
        final = np.concatenate([fwd[0][A], bwd[0][A]], axis=-1)
        s0 = np.tanh(nm.check_finite(final @ self.init_W.data + self.init_b.data, "s0"))
        if cache is not None:
            cache.update(src_ids=src_ids, mask=mask, x=x, fwd=fwd, bwd=bwd, final=final, s0=s0)
        return h, s0

    def _encode_backward(self, cache: dict, dh: np.ndarray, ds0: np.ndarray) -> None:
        """Reverse pass of `encode` from dL/dh (B, A, 2n) and dL/ds0 (B, n)."""
        n = self.config.cell_size
        dpre = ds0 * (1.0 - cache["s0"] * cache["s0"])
        self.init_W.grad += cache["final"].T @ dpre
        self.init_b.grad += dpre.sum(axis=0)
        dfinal = dpre @ self.init_W.data.T
        dh = dh.transpose(1, 0, 2)  # (A, B, 2n)
        dh_fwd, dh_bwd = dh[..., :n].copy(), dh[::-1, :, n:].copy()  # in reading order
        dh_fwd[-1] += dfinal[:, :n]
        dh_bwd[-1] += dfinal[:, n:]
        x = cache["x"]
        dx = _lstm_backward(self.enc_fwd, x, cache["fwd"], dh_fwd)
        dx += _lstm_backward(self.enc_bwd, x[::-1], cache["bwd"], dh_bwd)[::-1]
        if cache["mask"] is not None:
            nm.apply_dropout(dx, cache["mask"], self.config.dropout)
        _accumulate_rows(self.src_embed, cache["src_ids"].T, dx)

    def attend(self, h: np.ndarray, s_prev: np.ndarray,
               h_proj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One attention read on arrays: scores v^T tanh(W1 h_i + W2 s + b2).

        h (B, A, 2n) and h_proj = h W1 (B, A, n), which is the same at
        every decoder step. Returns (alpha (B, A), context (B, 2n), the
        tanh activations (B, A, n)); alpha rows sum to 1 under the
        configured temperature.
        """
        pre = h_proj + (s_prev @ self.attn_W2.data + self.attn_b2.data)[:, None, :]
        act = np.tanh(nm.check_finite(pre, "attend"))
        x = (act @ self.attn_v.data)[..., 0] / self.config.temperature
        ex = np.exp(x - x.max(axis=-1, keepdims=True))
        alpha = ex / ex.sum(axis=-1, keepdims=True)
        ctx = (alpha[:, :, None] * h).sum(axis=1)
        return alpha, ctx, act

    def decode_step(self, s_prev: np.ndarray, c_prev: np.ndarray, e_cur: np.ndarray,
                    h: np.ndarray, h_proj: np.ndarray):
        """One teacher-forced decoder step on arrays.

        Reads the attention at state s_prev, then advances the decoder
        cell on [E(w_cur), context], where E(w_cur) is the embedding of
        the ground-truth current symbol (after dropout). Returns (alpha,
        context, gates, c, s).
        """
        alpha, ctx, _ = self.attend(h, s_prev, h_proj)
        x = np.concatenate([e_cur, ctx], axis=-1)
        gates, c, _, s = nm.lstm_step(self.dec, x, s_prev, c_prev)
        return alpha, ctx, gates, c, s

    def decode(self, h: np.ndarray, h_proj: np.ndarray, s0: np.ndarray, tgt_ids: np.ndarray,
               rng=None, train: bool = False, cache: Optional[dict] = None):
        """Teacher-forced decoding of a batch on arrays, without a tape.

        h (B, A, 2n), h_proj = h W1 and s0 (B, n) come from the encoder;
        tgt_ids is (B, T). Only the attention read and the cell run step
        by step. The readout never feeds back into the state, so
        linear -> maxout -> linear -> cross-entropy runs once over all
        T*B rows. Returns (nll (T, B), alphas (T, B, A)). A dict passed
        as `cache` receives what `_decode_backward` cannot rebuild; it
        rebuilds the attention activations, the cell inputs and the
        readout inputs from it, bit for bit.
        """
        cfg = self.config
        B, T = tgt_ids.shape
        n, dt, rate = cfg.cell_size, cfg.np_dtype, cfg.dropout
        drop = train and rate > 0
        cur_ids = tgt_ids.T  # (T, B)
        prev_ids = np.vstack([np.full((1, B), self.ul_vocab.bos_id), cur_ids[:-1]])
        e_cur = self.tgt_embed.data[cur_ids]
        masks = [np.empty((T, B, k), dtype=bool) for k in (n, 4 * n, n)] if drop else None
        S = np.empty((T + 1, B, n), dtype=dt)  # S[t] is the state step t reads
        C = np.zeros((T + 1, B, n), dtype=dt)
        S[0] = s0
        alphas = np.empty((T, B, h.shape[1]), dtype=dt)
        ctxs = np.empty((T, B, 2 * n), dtype=dt)
        if cache is not None:
            gates = np.empty((T, B, 4 * n), dtype=dt)
        for t in range(T):
            if drop:  # e_prev, mix, e_cur: the order of the per-step graph
                for m in masks:
                    m[t] = nm.dropout_mask(rng, (B, m.shape[-1]), rate)
                nm.apply_dropout(e_cur[t], masks[2][t], rate)
            alphas[t], ctxs[t], g, C[t + 1], S[t + 1] = self.decode_step(
                S[t], C[t], e_cur[t], h, h_proj)
            if cache is not None:
                gates[t] = g
        del e_cur
        # (T, B, k) @ (k, m): numpy calls BLAS once per step, so each row is
        # bit for bit what a step-by-step readout gives
        mix = self._readout_input(S, ctxs, prev_ids, masks)
        blocks = mix @ self.out_W1.data
        del mix
        blocks += self.out_b1.data
        blocks = nm.check_finite(blocks, "readout").reshape(T * B, MAXOUT_POOL, n)
        hidden = blocks.max(axis=1)
        winner = _first_max(blocks, hidden) if cache is not None else None
        del blocks
        logits = hidden.reshape(T, B, n) @ self.out_W2.data
        logits += self.out_b2.data
        logits = nm.check_finite(logits.reshape(T * B, -1), "logits")
        top = logits.max(axis=-1, keepdims=True)
        gold = logits[np.arange(T * B), cur_ids.reshape(-1)]
        logits -= top
        ex = np.exp(logits, out=logits)
        nll = np.log(ex.sum(axis=-1)) + top[:, 0] - gold
        nm.check_finite(nll, "nll")
        if cache is not None:
            cache.update(h=h, h_proj=h_proj, cur_ids=cur_ids, prev_ids=prev_ids, masks=masks,
                         S=S, C=C, alphas=alphas, ctxs=ctxs, gates=gates, winner=winner,
                         hidden=hidden, ex=ex)
        return nll.reshape(T, B), alphas

    def _readout_input(self, S: np.ndarray, ctxs: np.ndarray, prev_ids: np.ndarray,
                       masks: Optional[list]) -> np.ndarray:
        """The readout's input (T, B, 4n): [s_prev, E(w_prev), context] after dropout."""
        e_prev = self.tgt_embed.data[prev_ids]
        if masks is not None:
            nm.apply_dropout(e_prev, masks[0], self.config.dropout)
        mix = np.concatenate([S[: len(ctxs)], e_prev, ctxs], axis=-1)
        if masks is not None:
            nm.apply_dropout(mix, masks[1], self.config.dropout)
        return mix

    def _attention_acts(self, h_proj: np.ndarray, states: np.ndarray) -> np.ndarray:
        """The tanh activations (T, B, A, n) that `attend` computes from the
        states (T, B, n), bit for bit: numpy multiplies the stack by W2 with one
        BLAS call of B rows per step, as `attend` does."""
        sp = states @ self.attn_W2.data
        sp += self.attn_b2.data
        acts = h_proj + sp[:, :, None, :]
        return np.tanh(acts, out=acts)

    def _decode_backward(self, cache: dict, dnll: np.ndarray):
        """Reverse pass of `decode` from dL/dnll (T, B).

        Back-propagation through time covers only the cell and the
        attention read; every weight gradient is one matmul over the
        stacked steps. The last step's cell output is never read, so that
        cell gets no gradient. Returns dL/dh, dL/dh_proj and dL/ds0.
        """
        cfg = self.config
        T, B = dnll.shape
        n, rate = cfg.cell_size, cfg.dropout
        S, C, alphas, ctxs, gates = (cache[k] for k in ("S", "C", "alphas", "ctxs", "gates"))
        masks, cur_ids = cache["masks"], cache["cur_ids"]
        # readout over all T*B rows
        dlogits = cache["ex"] / cache["ex"].sum(axis=-1, keepdims=True)
        dlogits[np.arange(T * B), cur_ids.reshape(-1)] -= 1.0
        dlogits *= dnll.reshape(-1, 1)
        self.out_W2.grad += cache["hidden"].T @ dlogits
        self.out_b2.grad += dlogits.sum(axis=0)
        # input gradients through (T, B, k) matmuls as well: the attention
        # gradients are sums over A that nearly cancel, so they would amplify
        # a change in the last bit of dL/dcontext
        dhidden = (dlogits.reshape(T, B, -1) @ self.out_W2.data.T).reshape(T * B, 1, n)
        del dlogits
        dblocks = (cache["winner"] * dhidden).reshape(T * B, -1)
        del dhidden
        mix = self._readout_input(S, ctxs, cache["prev_ids"], masks).reshape(T * B, 4 * n)
        self.out_W1.grad += mix.T @ dblocks
        del mix
        self.out_b1.grad += dblocks.sum(axis=0)
        dmix = dblocks.reshape(T, B, -1) @ self.out_W1.data.T
        del dblocks
        if masks is not None:
            nm.apply_dropout(dmix, masks[1], rate)
        de_prev, dctx_read = dmix[..., n: 2 * n], dmix[..., 2 * n:]
        # back-propagation through time: cell, then attention, per step
        h, W2, v = cache["h"], self.attn_W2.data, self.attn_v.data
        acts = self._attention_acts(cache["h_proj"], S[:T])
        tc = np.tanh(C[1:])
        dpre = np.zeros_like(gates)
        de_cur = np.zeros_like(de_prev)
        dctx = np.empty_like(dctx_read)
        dscore = np.empty_like(alphas)
        dsp = np.empty((T, B, n), dtype=dmix.dtype)
        dh_proj = np.zeros(h.shape[:-1] + (n,), dtype=dmix.dtype)
        ds, dc = None, 0.0  # dL/d(state) and dL/d(cell) of what step t + 1 reads
        for t in reversed(range(T)):
            ds_t, dctx[t] = dmix[t, :, :n], dctx_read[t]
            if t < T - 1:
                o = gates[t, :, 2 * n: 3 * n]
                dc = dc + ds * o * (1.0 - tc[t] * tc[t])
                dpre[t] = nm.lstm_cell_grad(gates[t], C[t], dc, ds * tc[t])
                dx = dpre[t] @ self.dec.W.data.T
                de_cur[t], dctx[t] = dx[:, :n], dctx[t] + dx[:, n:]
                ds_t = ds_t + dpre[t] @ self.dec.U.data.T
                dc = dc * gates[t, :, n: 2 * n]
            dalpha = (dctx[t][:, None, :] * h).sum(axis=-1)
            a = alphas[t]
            dscore[t] = (dalpha - (dalpha * a).sum(axis=-1, keepdims=True)) * a / cfg.temperature
            dpre_attn = (dscore[t][:, :, None] * v[:, 0]) * (1.0 - acts[t] * acts[t])
            dh_proj += dpre_attn
            dsp[t] = dpre_attn.sum(axis=1)
            ds = ds_t + dsp[t] @ W2.T
        del tc, dpre_attn
        self.attn_v.grad += acts.reshape(-1, n).T @ dscore.reshape(-1, 1)
        del acts, dscore
        self.attn_W2.grad += S[:T].reshape(-1, n).T @ dsp.reshape(-1, n)
        self.attn_b2.grad += dsp.reshape(-1, n).sum(axis=0)
        del dsp
        if T > 1:
            dpre = dpre[:-1].reshape(-1, 4 * n)
            e_cur = self.tgt_embed.data[cur_ids[:-1]]
            if masks is not None:
                nm.apply_dropout(e_cur, masks[2][:-1], rate)
            xs = np.concatenate([e_cur, ctxs[:-1]], axis=-1).reshape(-1, 3 * n)
            del e_cur
            self.dec.W.grad += xs.T @ dpre
            del xs
            self.dec.U.grad += S[: T - 1].reshape(-1, n).T @ dpre
            self.dec.b.grad += dpre.sum(axis=0)
        del dpre
        if masks is not None:
            nm.apply_dropout(de_prev, masks[0], rate)
            nm.apply_dropout(de_cur, masks[2], rate)
        ids = np.concatenate([cache["prev_ids"], cur_ids])
        _accumulate_rows(self.tgt_embed, ids, np.concatenate([de_prev, de_cur]))
        return alphas.transpose(1, 2, 0) @ dctx.transpose(1, 0, 2), dh_proj, ds

    def forward_batch(self, src_ids: np.ndarray, tgt_ids: np.ndarray, tgt_mask: np.ndarray,
                      rng=None, train: bool = False):
        """Full teacher-forced pass over one bucketed batch.

        src_ids (B, A) with no padding (bucketed by source length);
        tgt_ids (B, T) PAD-padded, each row ending with EOS before the
        padding; tgt_mask (B, T) marks real positions. Returns the
        scalar loss (mean over utterances of summed symbol NLL), the
        per-utterance losses (B,) and the attention rows (T, B, A). The
        loss is the batch's only Tensor. Its closure overwrites
        `flat_grad` with the batch's gradient and returns the views by
        name, last parameter first: `clip_global_norm` adds up the norm
        in that order, and another order changes its last bits and so
        the trained model.
        """
        enc, dec = {}, {}
        h, s0 = self.encode(src_ids, rng=rng, train=train, cache=enc)
        nll, alphas = self.decode(h, h @ self.attn_W1.data, s0, tgt_ids,
                                  rng=rng, train=train, cache=dec)
        weights = tgt_mask.T.astype(self.config.np_dtype)
        per_utt = (nll * weights).sum(axis=0)  # adds the steps in order
        k = 1.0 / per_utt.size

        def bwd(g):
            self.flat_grad[...] = 0.0  # each view is added to once, the decoder cell's not at T = 1
            dh, dh_proj, ds0 = self._decode_backward(dec, weights * (g * k))
            n = self.config.cell_size
            self.attn_W1.grad += h.reshape(-1, 2 * n).T @ dh_proj.reshape(-1, n)
            self._encode_backward(enc, dh + dh_proj @ self.attn_W1.data.T, ds0)
            return {name: p.grad for name, p in reversed(self.parameters().items())}

        loss = Tensor(nm.check_finite(np.asarray(per_utt.sum()) * k, "loss"), backward=bwd)
        return loss, per_utt, alphas


def _lstm_forward(params: nm.LSTMParams, x: np.ndarray):
    """Run one cell over x (A, B, in) in order, from zero state and cell.

    Returns (H, C, gates): H and C (A + 1, B, n) hold the state and
    cell before step 0 and after each step, gates (A, B, 4n).
    """
    A, B, _ = x.shape
    n = params.hidden_size
    H = np.zeros((A + 1, B, n), dtype=x.dtype)
    C = np.zeros_like(H)
    gates = np.empty((A, B, 4 * n), dtype=x.dtype)
    for i in range(A):
        gates[i], C[i + 1], _, H[i + 1] = nm.lstm_step(params, x[i], H[i], C[i])
    return H, C, gates


def _lstm_backward(params: nm.LSTMParams, x: np.ndarray, run, dh: np.ndarray) -> np.ndarray:
    """Back-propagation through time for `_lstm_forward`.

    run is its (H, C, gates) and dh (A, B, n) the gradient each step's
    state receives from outside the recurrence. Accumulates the cell's
    weight gradients, each one matmul over all steps, and returns dL/dx.
    """
    H, C, gates = run
    A, n = len(gates), params.hidden_size
    tc = np.tanh(C[1:])
    dpre = np.empty_like(gates)
    ds, dc = dh[A - 1], 0.0  # dL/d(state), dL/d(cell) of step i
    for i in reversed(range(A)):
        if i < A - 1:
            ds = dh[i] + dpre[i + 1] @ params.U.data.T
        dc = dc + ds * gates[i, :, 2 * n: 3 * n] * (1.0 - tc[i] * tc[i])
        dpre[i] = nm.lstm_cell_grad(gates[i], C[i], dc, ds * tc[i])
        dc = dc * gates[i, :, n: 2 * n]
    flat = dpre.reshape(-1, 4 * n)
    params.W.grad += x.reshape(-1, x.shape[-1]).T @ flat
    params.U.grad += H[:A].reshape(-1, n).T @ flat
    params.b.grad += flat.sum(axis=0)
    return dpre @ params.W.data.T


def _accumulate_rows(table: Tensor, ids: np.ndarray, d_rows: np.ndarray) -> None:
    """Add d_rows (..., d) to the gradient rows `ids` (...) of an embedding table.

    A one-hot matmul, because np.add.at is more than ten times slower here.
    """
    onehot = (np.arange(len(table.data))[:, None] == ids.reshape(-1)).astype(d_rows.dtype)
    table.grad += onehot @ d_rows.reshape(-1, table.data.shape[1])


def _first_max(blocks: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Mask of the block that wins each maxout unit; a tie goes to the first.

    blocks (N, pool, n), top = blocks.max(axis=1). Comparing block by
    block is much faster than argmax over the short middle axis.
    """
    win = blocks == top[:, None, :]
    taken = win[:, 0].copy()
    for k in range(1, blocks.shape[1]):
        win[:, k] &= ~taken
        taken |= win[:, k]
    return win


# ---------------------------------------------------------------------------
# Batching

def _encode_utterance(model: AlignerModel, utt: ParallelUtterance):
    src = np.array([model.wrl_vocab.id(w, allow_unk=True) for w in utt.wrl_words],
                   dtype=np.int64)
    tgt = np.array([model.ul_vocab.id(s) for s in utt.ul_symbols] + [model.ul_vocab.eos_id],
                   dtype=np.int64)
    return src, tgt


def _bucket_batches(corpus: Sequence[ParallelUtterance], batch_size: int,
                    rng: Optional[np.random.Generator], shuffle: bool) -> list[list[int]]:
    """Group utterance indices into batches of equal source length; `rng` shuffles
    them, and is not read without `shuffle`."""
    buckets: dict[int, list[int]] = {}
    order = np.arange(len(corpus))
    if shuffle:
        rng.shuffle(order)
    for i in order:
        buckets.setdefault(len(corpus[i].wrl_words), []).append(int(i))
    batches = []
    for length in sorted(buckets):
        idxs = buckets[length]
        for k in range(0, len(idxs), batch_size):
            batches.append(idxs[k: k + batch_size])
    if shuffle:
        perm = rng.permutation(len(batches))
        batches = [batches[j] for j in perm]
    return batches


def _pack_batch(model: AlignerModel, utts: Sequence[ParallelUtterance]):
    pairs = [_encode_utterance(model, u) for u in utts]
    A = len(pairs[0][0])
    if any(len(s) != A for s, _ in pairs):
        raise NumericalError("batch mixes source lengths")
    T = max(len(t) for _, t in pairs)
    src = np.stack([s for s, _ in pairs])
    tgt = np.full((len(pairs), T), model.ul_vocab.pad_id, dtype=np.int64)
    mask = np.zeros((len(pairs), T), dtype=bool)
    for b, (_, t) in enumerate(pairs):
        tgt[b, : len(t)] = t
        mask[b, : len(t)] = True
    return src, tgt, mask


# ---------------------------------------------------------------------------
# Training

@dataclass
class TrainingLog:
    """Per epoch: losses, mean gradient norm before clipping, share of clipped
    batches, dev attention entropy and wall time."""

    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_dev_loss: float = math.inf


def evaluate_loss(model: AlignerModel,
                  corpus: ParallelCorpus) -> tuple[float, float, Optional[float]]:
    """Mean per-utterance NLL, per-symbol perplexity and attention entropy (no dropout).

    The entropy is the mean of H(alpha) / log A over the real (non-pad)
    decoder steps, EOS included, of utterances with A > 1 source words:
    1 is a uniform read, 0 a hard one. It is None when no such step
    exists.
    """
    total_nll, total_syms, n_utts = 0.0, 0, 0
    entropy, entropy_rows = 0.0, 0
    # source-length buckets of up to 64 in corpus order, through the full `decode`
    for batch in _bucket_batches(corpus.utterances, 64, None, shuffle=False):
        utts = [corpus.utterances[i] for i in batch]
        src, tgt, msk = _pack_batch(model, utts)
        h, s0 = model.encode(src)
        nll, alphas = model.decode(h, h @ model.attn_W1.data, s0, tgt)
        real = msk.T.astype(nll.dtype)
        total_nll += float((nll * real).sum(axis=0).sum())
        total_syms += int(msk.sum())
        n_utts += len(utts)
        A = alphas.shape[-1]
        if A > 1:
            a = alphas[msk.T].astype(np.float64)
            row_entropy = -(a * np.log(np.where(a > 0, a, 1.0))).sum(axis=-1)
            entropy += float(row_entropy.sum()) / math.log(A)
            entropy_rows += len(row_entropy)
    return (total_nll / n_utts, math.exp(total_nll / total_syms),
            entropy / entropy_rows if entropy_rows else None)


def train(corpus_train: ParallelCorpus, corpus_dev: ParallelCorpus,
          config: AlignerConfig) -> tuple[AlignerModel, TrainingLog]:
    """Adam training with early stopping on dev cross-entropy.

    Returns the model restored to its best-dev checkpoint plus a log of
    per-epoch train/dev losses, gradient statistics, dev attention
    entropy and wall time. Deterministic for a fixed seed, apart from
    `epoch_s`. Prints nothing.
    """
    if len(corpus_train) == 0:
        raise DataError("empty training corpus")
    rng = np.random.default_rng(config.seed)
    model = AlignerModel(config, corpus_train.wrl_vocab, corpus_train.ul_vocab, rng=rng)
    adam = nm.AdamState()
    log = TrainingLog()
    best_params = None
    bad_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        batches = _bucket_batches(corpus_train.utterances, config.batch_size, rng, shuffle=True)
        train_nll, n_utts = 0.0, 0
        grad_norms = []
        for batch in batches:
            utts = [corpus_train.utterances[i] for i in batch]
            src, tgt, msk = _pack_batch(model, utts)
            try:
                loss, per_utt, _ = model.forward_batch(src, tgt, msk, rng=rng, train=True)
                grads = nm.backward(loss)
            except NumericalError as exc:
                raise NumericalError(
                    "training diverged at epoch %d (%s)" % (epoch, exc)
                ) from exc
            grad_norms.append(nm.clip_global_norm(grads, model.flat_grad, CLIP_NORM))
            nm.adam_update(model.flat, model.flat_grad, adam, lr=config.learning_rate)
            train_nll += float(per_utt.sum())
            n_utts += len(utts)
        dev_loss, dev_ppl, dev_entropy = (
            evaluate_loss(model, corpus_dev) if len(corpus_dev)
            else (train_nll / n_utts, 0.0, None)
        )
        log.epochs.append({
            "epoch": epoch,
            "train_loss": train_nll / n_utts,
            "dev_loss": dev_loss,
            "dev_perplexity": dev_ppl,
            "grad_norm_mean": sum(grad_norms) / len(grad_norms),
            # clip_global_norm rescales exactly when this holds
            "clip_frac": sum(g > CLIP_NORM for g in grad_norms) / len(grad_norms),
            "dev_attn_entropy": dev_entropy,
            "epoch_s": time.perf_counter() - t0,
        })
        if dev_loss < log.best_dev_loss - 1e-9:
            log.best_dev_loss = dev_loss
            log.best_epoch = epoch
            best_params = model.flat.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
    if best_params is not None:
        model.flat[...] = best_params
    return model, log


# ---------------------------------------------------------------------------
# Forced decoding / attention extraction

def _forced_decode_chunks(corpus: ParallelCorpus) -> list[list[int]]:
    """Utterance indices by source-length bucket, each bucket sorted by target
    length, longest first (ties in corpus order), and cut into the fewest chunks of
    at most FORCED_DECODE_ROWS, whose sizes differ by at most one."""
    buckets: dict[int, list[int]] = {}
    for i, u in enumerate(corpus.utterances):
        buckets.setdefault(len(u.wrl_words), []).append(i)
    chunks = []
    for length in sorted(buckets):
        idxs = sorted(buckets[length], key=lambda i: -len(corpus.utterances[i].ul_symbols))
        k = -(-len(idxs) // FORCED_DECODE_ROWS)
        chunks += [idxs[j * len(idxs) // k: (j + 1) * len(idxs) // k] for j in range(k)]
    return chunks


def forced_decode_corpus(model: AlignerModel, corpus: ParallelCorpus) -> dict[str, AttentionMatrix]:
    """Attention matrices for every utterance, in corpus order, one row per UL
    symbol: the EOS step is never run.

    Only the encoder and the attention-plus-cell recurrence run: the readout
    has no say in the attention. Each chunk of `_forced_decode_chunks` is one
    batch. Step t passes on only the rows still decoding, which the sort by
    target length makes a prefix of the batch. The prefix keeps at least two
    rows, and a finished row's extra steps are thrown away: numpy sends a
    one-row product down another BLAS path, whose sums can differ in the last
    bit. So the bits of a matrix do not depend on the other utterances,
    unless it is alone in its source-length bucket. An unknown UL symbol
    raises DataError naming its line (the utterance's position in the
    corpus) and the utterance.
    """
    out = dict.fromkeys(u.id for u in corpus)
    table = model.tgt_embed.data
    for chunk in _forced_decode_chunks(corpus):
        utts = [corpus.utterances[i] for i in chunk]
        try:
            src, tgt, _ = _pack_batch(model, utts)
        except DataError:  # name the first utterance, in corpus order, with an unknown symbol
            line, u, sym = next((k, u, s) for k, u in enumerate(corpus, 1)
                                for s in u.ul_symbols if s not in model.ul_vocab)
            raise DataError("line %d, utterance %s: symbol %r is not in the model's vocabulary"
                            % (line, u.id, sym)) from None
        h, s = model.encode(src)
        h_proj = h @ model.attn_W1.data
        c = np.zeros_like(s)
        lengths = np.array([len(u.ul_symbols) for u in utts])
        T = lengths[0]
        live = np.maximum((lengths[:, None] > np.arange(T)).sum(axis=0), min(2, len(utts)))
        alphas = np.empty((T, len(utts), src.shape[1]), dtype=h.dtype)
        for t, b in enumerate(live.tolist()):
            alphas[t, :b], _, _, c[:b], s[:b] = model.decode_step(
                s[:b], c[:b], table[tgt[:b, t]], h[:b], h_proj[:b])
        for b, (u, n) in enumerate(zip(utts, lengths.tolist())):
            m = AttentionMatrix(u.id, alphas[:n, b].astype(np.float64))
            m.validate()
            out[u.id] = m
    return out


# ---------------------------------------------------------------------------
# Attention matrix I/O

def write_attention_matrices(path: str, matrices: dict[str, AttentionMatrix]) -> None:
    """Plain text: `id T A` header then T rows of A weights, per utterance."""
    with open(path, "w", encoding="utf-8") as f:
        for utt_id in sorted(matrices):
            m = matrices[utt_id]
            row = " ".join(["%.10e"] * m.num_words) + "\n"
            f.write(("%s %d %d\n" + row * m.num_symbols)
                    % (utt_id, m.num_symbols, m.num_words, *m.weights.ravel().tolist()))


def read_attention_matrices(path: str) -> dict[str, AttentionMatrix]:
    """Inverse of `write_attention_matrices`.

    Streams the file one utterance at a time: besides the matrices it
    returns, it holds only the text of the header and rows it is parsing.
    Raises DataError on a file that is not UTF-8 text, on a malformed or
    truncated file, on an utterance id that appears twice and on a matrix
    that fails `AttentionMatrix.validate`.
    """
    out: dict[str, AttentionMatrix] = {}
    with open_text(path) as f:
        lines = ((k, fields) for k, l in enumerate(f, 1) if (fields := l.split()))
        for k, head in lines:
            try:
                utt_id, T, A = head[0], int(head[1]), int(head[2])
            except (IndexError, ValueError):
                T = A = 0
            if len(head) != 3 or T < 1 or A < 1:
                raise DataError("%s:%d: expected a header `id T A`" % (path, k))
            if utt_id in out:
                raise DataError("%s:%d: utterance %s appears twice" % (path, k, utt_id))
            # a T beyond what islice takes is beyond any file: the body is truncated
            body = list(itertools.islice(lines, min(T, sys.maxsize)))
            if len(body) < T:
                raise DataError("%s: %s is truncated, %d of %d rows"
                                % (path, utt_id, len(body), T))
            for k, fields in body:
                if len(fields) != A:
                    raise DataError("%s:%d: %d weights, expected %d" % (path, k, len(fields), A))
            try:
                w = np.array([fields for _, fields in body], dtype=float)
            except ValueError:
                raise DataError("%s: %s has a non-numeric weight" % (path, utt_id)) from None
            m = AttentionMatrix(utt_id, w)
            try:
                m.validate()
            except NumericalError as e:
                raise DataError("%s: %s" % (path, e)) from None
            out[utt_id] = m
    return out


# ---------------------------------------------------------------------------
# Checkpoints: the parameters in a .npz, the config and vocabularies in a JSON sidecar

CHECKPOINT_VERSION = 1


def sidecar_path(path: str) -> str:
    """The file beside checkpoint `path` that holds its config and vocabularies."""
    return path + ".json"


def save_model(path: str, model: AlignerModel) -> None:
    """`param/<name>` arrays and the format's `__version__` at `path`; the config and
    both token lists, in id order, at `sidecar_path(path)`."""
    arrays = {"param/" + k: v.data for k, v in model.parameters().items()}
    arrays["__version__"] = np.asarray(CHECKPOINT_VERSION)
    nm.save_archive(path, arrays)
    with open(sidecar_path(path), "w", encoding="utf-8") as f:
        json.dump({"config": asdict(model.config),
                   "wrl_tokens": model.wrl_vocab.tokens(),
                   "ul_tokens": model.ul_vocab.tokens()}, f, indent=2)
        f.write("\n")


def _sidecar_vocabulary(name: str, tokens) -> Vocabulary:
    """The vocabulary of sidecar list `name`: strings, none reserved, none twice."""
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
        raise TypeError("%s is not a list of strings" % name)
    vocab = Vocabulary(tokens)  # DataError on a reserved token
    if len(vocab.tokens()) < len(tokens):  # Vocabulary keeps a repeated token once
        twice = next(t for t, n in Counter(tokens).items() if n > 1)
        raise ValueError("%s holds token %r twice" % (name, twice))
    return vocab


def _sidecar_config(values: dict) -> AlignerConfig:
    """The config of the sidecar's JSON values, each of its field's type: an integer
    may stand for a float, but a boolean is no number. ConfigError if one is not."""
    kinds = {f.name: type(f.default) for f in fields(AlignerConfig)}
    for key, raw in values.items():
        if key not in kinds:
            raise ConfigError("unknown config key %r for AlignerConfig" % key)
        if not (type(raw) is kinds[key] or (kinds[key] is float and type(raw) is int)):
            raise ConfigError("%s = %s is not of type %s"
                              % (key, json.dumps(raw), kinds[key].__name__))
    return AlignerConfig(**{k: kinds[k](v) for k, v in values.items()})


def load_model(path: str) -> AlignerModel:
    """The model that `save_model` wrote at `path`. DataError, naming the file at
    fault, if either file is not of this format or the parameters in the .npz do not
    fit the config in the sidecar."""
    sidecar = sidecar_path(path)
    with open(sidecar, encoding="utf-8") as f:
        try:
            values = json.load(f)
            if not isinstance(values["config"], dict):
                raise TypeError("config is not an object")
            vocabs = [_sidecar_vocabulary(k, values[k]) for k in ("wrl_tokens", "ul_tokens")]
        except (ValueError, KeyError, TypeError) as e:
            raise DataError("%s: not an aligner sidecar (%s: %s)"
                            % (sidecar, type(e).__name__, e)) from None
    try:  # a bad setting, or one the parameters in the .npz do not fit
        config = _sidecar_config(values["config"])
        version, params = nm.load_archive(path, "a checkpoint", lambda arrays: (
            int(arrays["__version__"]),
            {k[len("param/"):]: v for k, v in arrays.items() if k.startswith("param/")}))
        if version != CHECKPOINT_VERSION:
            raise DataError("%s: unsupported checkpoint version %d" % (path, version))
        model = AlignerModel(config, *vocabs)
        model.set_parameters(params)
    except ConfigError as e:
        raise DataError("%s: %s" % (sidecar, e)) from None
    return model
