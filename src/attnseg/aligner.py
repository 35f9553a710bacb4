"""Reverse-direction attentional encoder-decoder (WRL words -> UL symbols).

The source side is always the well-resourced language and the target
side the unwritten-language symbol sequence, so that every UL symbol
receives one normalized attention row. The decoder is teacher-forced
everywhere: reference translations are available even at test time, and
attention extraction runs the same forced decoding with dropout off.

The attention softmax is tempered (default T=10) during both training
and extraction so the two distributions match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import numerics as nm
from .corpus import CorpusError, ParallelCorpus, ParallelUtterance, Vocabulary
from .numerics import Tensor


class AlignerError(RuntimeError):
    pass


class AlignerConfigError(AlignerError):
    """An AlignerConfig setting out of range: a config error, not a numerical one."""


@dataclass
class AlignerConfig:
    cell_size: int = 64
    embed_dim: Optional[int] = None  # defaults to cell_size
    temperature: float = 10.0
    dropout: float = 0.5
    batch_size: int = 32
    learning_rate: float = 0.001
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0
    clip_norm: float = 5.0
    maxout_pool: int = 2
    include_eos_row: bool = False
    dtype: str = "float32"

    def __post_init__(self):
        if self.embed_dim is None:
            self.embed_dim = self.cell_size
        if self.cell_size <= 0 or self.batch_size <= 0 or self.learning_rate <= 0:
            raise AlignerConfigError("cell size, batch size and learning rate must be positive")
        if self.temperature <= 0:
            raise AlignerConfigError("temperature must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise AlignerConfigError("dropout must be in [0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise AlignerConfigError("dtype must be float32 or float64, got %r" % self.dtype)

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

    def validate(self, tol: float = 1e-6) -> None:
        w = self.weights
        if not np.all(np.isfinite(w)):
            raise AlignerError("%s: non-finite attention weight" % self.utt_id)
        if np.any(w < -tol) or np.any(w > 1 + tol):
            raise AlignerError("%s: attention weights outside [0, 1]" % self.utt_id)
        sums = w.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > tol):
            raise AlignerError("%s: attention row sums deviate from 1" % self.utt_id)


class AlignerModel:
    """All learned parameters plus the vocabularies they are bound to."""

    def __init__(self, config: AlignerConfig, wrl_vocab: Vocabulary, ul_vocab: Vocabulary,
                 rng: Optional[np.random.Generator] = None):
        self.config = config
        self.wrl_vocab = wrl_vocab
        self.ul_vocab = ul_vocab
        n = config.cell_size
        d = config.embed_dim
        dt = config.np_dtype
        rng = rng or np.random.default_rng(config.seed)
        pool = config.maxout_pool
        mix_dim = n + d + 2 * n  # s_prev + E(w_prev) + context

        def u(shape):
            return Tensor(nm.uniform_init(rng, shape, dtype=dt), requires_grad=True)

        self.src_embed = u((len(wrl_vocab), d))
        self.tgt_embed = u((len(ul_vocab), d))
        self.enc_fwd = nm.lstm_init(rng, d, n, dtype=dt)
        self.enc_bwd = nm.lstm_init(rng, d, n, dtype=dt)
        self.dec = nm.lstm_init(rng, d + 2 * n, n, dtype=dt)
        self.init_W = u((2 * n, n))
        self.init_b = Tensor(np.zeros(n, dtype=dt), requires_grad=True)
        self.attn_W1 = u((2 * n, n))
        self.attn_W2 = u((n, n))
        self.attn_b2 = Tensor(np.zeros(n, dtype=dt), requires_grad=True)
        self.attn_v = u((n, 1))
        self.out_W1 = u((mix_dim, pool * n))
        self.out_b1 = Tensor(np.zeros(pool * n, dtype=dt), requires_grad=True)
        self.out_W2 = u((n, len(ul_vocab)))
        self.out_b2 = Tensor(np.zeros(len(ul_vocab), dtype=dt), requires_grad=True)

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
        for name, t in ps.items():
            t.name = name  # backward() keys its gradient map on tensor names
        return ps

    def set_parameters(self, values: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        for name, arr in values.items():
            if name not in params:
                raise AlignerError("unknown parameter %r in checkpoint" % name)
            if params[name].data.shape != arr.shape:
                raise AlignerError("parameter %r shape mismatch" % name)
            params[name].data = arr.astype(self.config.np_dtype)

    # -- forward pieces ----------------------------------------------------

    def encode(self, src_ids: np.ndarray, rng=None, train: bool = False) -> tuple[Tensor, Tensor]:
        """Bidirectional encoding of (B, A) source ids.

        Returns the states h (B, A, 2n), forward then backward half, and
        the initial decoder state (nonlinear transform of the final
        forward/backward states).
        """
        src_ids = np.atleast_2d(np.asarray(src_ids))
        if src_ids.size == 0:
            raise AlignerError("empty source sequence")
        if src_ids.min() < 0 or src_ids.max() >= len(self.wrl_vocab):
            raise AlignerError("source id outside vocabulary range")
        B, A = src_ids.shape
        n = self.config.cell_size
        dt = self.config.np_dtype
        zeros = Tensor(np.zeros((B, n), dtype=dt))
        emb = []
        for i in range(A):
            e = nm.rows(self.src_embed, src_ids[:, i])
            if train and self.config.dropout > 0:
                e = nm.dropout(e, self.config.dropout, rng, train=True)
            emb.append(e)
        hf, cf = zeros, zeros
        fwd = []
        for i in range(A):
            hf, cf = nm.lstm_step(self.enc_fwd, emb[i], (hf, cf))
            fwd.append(hf)
        hb, cb = zeros, zeros
        bwd = [None] * A
        for i in reversed(range(A)):
            hb, cb = nm.lstm_step(self.enc_bwd, emb[i], (hb, cb))
            bwd[i] = hb
        h = nm.concat([nm.stack(fwd, axis=1), nm.stack(bwd, axis=1)], axis=-1)
        final = nm.concat([fwd[-1], bwd[0]], axis=-1)
        s0 = nm.tanh(nm.linear(final, self.init_W, self.init_b))
        return h, s0

    def attend(self, h: Tensor, s_prev: Tensor,
               h_proj: Optional[Tensor] = None) -> tuple[Tensor, Tensor]:
        """One attention read: scores via v^T tanh(W1 h_i + W2 s + b2).

        h (B, A, 2n); h_proj = h W1 (B, A, n) may be passed in, since it
        is the same at every decoder step. Returns (alpha (B, A),
        context (B, 2n)); alpha rows sum to 1 under the configured
        temperature.
        """
        B, A, _ = h.shape
        if h_proj is None:
            h_proj = nm.matmul(h, self.attn_W1)
        sp = nm.linear(s_prev, self.attn_W2, self.attn_b2)
        pre = nm.tanh(nm.add(h_proj, nm.reshape(sp, (B, 1, -1))))
        e = nm.reshape(nm.matmul(pre, self.attn_v), (B, A))
        alpha = nm.softmax_with_temperature(e, self.config.temperature)
        ctx = nm.sum_axis(nm.mul(nm.reshape(alpha, (B, A, 1)), h), axis=1)
        return alpha, ctx

    def decode_step(self, s_prev: tuple[Tensor, Tensor], w_prev: np.ndarray, w_cur: np.ndarray,
                    h: Tensor, h_proj: Tensor, rng=None, train: bool = False):
        """Teacher-forced decoder step.

        Emits logits over UL symbols from (s_prev, E(w_prev), context)
        and advances the state with the ground-truth current symbol
        w_cur. Returns (logits, alpha, new_state).
        """
        s_h, s_c = s_prev
        alpha, ctx = self.attend(h, s_h, h_proj)
        e_prev = nm.rows(self.tgt_embed, w_prev)
        if train and self.config.dropout > 0:
            e_prev = nm.dropout(e_prev, self.config.dropout, rng, train=True)
        mix = nm.concat([s_h, e_prev, ctx], axis=-1)
        if train and self.config.dropout > 0:
            mix = nm.dropout(mix, self.config.dropout, rng, train=True)
        hidden = nm.maxout(nm.linear(mix, self.out_W1, self.out_b1), self.config.maxout_pool)
        logits = nm.linear(hidden, self.out_W2, self.out_b2)
        e_cur = nm.rows(self.tgt_embed, w_cur)
        if train and self.config.dropout > 0:
            e_cur = nm.dropout(e_cur, self.config.dropout, rng, train=True)
        s_new = nm.lstm_step(self.dec, nm.concat([e_cur, ctx], axis=-1), (s_h, s_c))
        return logits, alpha, s_new

    def forward_batch(self, src_ids: np.ndarray, tgt_ids: np.ndarray, tgt_mask: np.ndarray,
                      rng=None, train: bool = False):
        """Full teacher-forced pass over one bucketed batch.

        src_ids (B, A) with no padding (bucketed by source length);
        tgt_ids (B, T) PAD-padded, each row ending with EOS before the
        padding; tgt_mask (B, T) marks real positions. Returns the
        scalar loss (mean over utterances of summed symbol NLL),
        per-utterance losses, and the per-step attention rows.
        """
        B, T = tgt_ids.shape
        n = self.config.cell_size
        dt = self.config.np_dtype
        h, s0 = self.encode(src_ids, rng=rng, train=train)
        h_proj = nm.matmul(h, self.attn_W1)
        state = (s0, Tensor(np.zeros((B, n), dtype=dt)))
        bos = np.full(B, self.ul_vocab.bos_id, dtype=np.int64)
        prev = bos
        step_losses = []
        alphas = []
        for t in range(T):
            cur = tgt_ids[:, t]
            logits, alpha, state = self.decode_step(state, prev, cur, h, h_proj,
                                                    rng=rng, train=train)
            step_losses.append(nm.cross_entropy(logits, cur))
            alphas.append(alpha)
            prev = cur
        masked = nm.mul(nm.stack(step_losses, axis=0), Tensor(tgt_mask.T.astype(dt)))
        per_utt = nm.sum_axis(masked, axis=0)  # adds the steps in order
        loss = nm.mean_all(per_utt)
        return loss, per_utt, alphas


# ---------------------------------------------------------------------------
# Batching

def _encode_utterance(model: AlignerModel, utt: ParallelUtterance):
    src = np.array([model.wrl_vocab.id(w, allow_unk=True) for w in utt.wrl_words],
                   dtype=np.int64)
    tgt = np.array([model.ul_vocab.id(s) for s in utt.ul_symbols] + [model.ul_vocab.eos_id],
                   dtype=np.int64)
    return src, tgt


def _bucket_batches(corpus: Sequence[ParallelUtterance], batch_size: int,
                    rng: np.random.Generator, shuffle: bool) -> list[list[int]]:
    """Group utterance indices into batches of equal source length."""
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
        raise AlignerError("batch mixes source lengths")
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
    """Per-epoch losses, mean gradient norm before clipping and share of clipped batches."""

    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_dev_loss: float = math.inf


def evaluate_loss(model: AlignerModel, corpus: ParallelCorpus) -> tuple[float, float]:
    """Mean per-utterance NLL and per-symbol perplexity on a corpus (no dropout)."""
    total_nll, total_syms, n_utts = 0.0, 0, 0
    rng = np.random.default_rng(0)
    batches = _bucket_batches(corpus.utterances, 64, rng, shuffle=False)
    for batch in batches:
        utts = [corpus.utterances[i] for i in batch]
        src, tgt, msk = _pack_batch(model, utts)
        _, per_utt, _ = model.forward_batch(src, tgt, msk, train=False)
        total_nll += float(per_utt.data.sum())
        total_syms += int(msk.sum())
        n_utts += len(utts)
    return total_nll / n_utts, math.exp(total_nll / total_syms)


def train(corpus_train: ParallelCorpus, corpus_dev: ParallelCorpus,
          config: AlignerConfig, quiet: bool = True) -> tuple[AlignerModel, TrainingLog]:
    """Adam training with early stopping on dev cross-entropy.

    Returns the model restored to its best-dev checkpoint plus a log of
    per-epoch train/dev losses. Deterministic for a fixed seed.
    """
    if len(corpus_train) == 0:
        raise CorpusError("empty training corpus")
    rng = np.random.default_rng(config.seed)
    model = AlignerModel(config, corpus_train.wrl_vocab, corpus_train.ul_vocab, rng=rng)
    params = model.parameters()
    adam = nm.AdamState()
    log = TrainingLog()
    best_params: dict[str, np.ndarray] = {}
    bad_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        batches = _bucket_batches(corpus_train.utterances, config.batch_size, rng, shuffle=True)
        train_nll, n_utts = 0.0, 0
        grad_norms = []
        for batch in batches:
            utts = [corpus_train.utterances[i] for i in batch]
            src, tgt, msk = _pack_batch(model, utts)
            try:
                loss, per_utt, _ = model.forward_batch(src, tgt, msk, rng=rng, train=True)
                grads = nm.backward(loss)
            except nm.NumericsError as exc:
                raise AlignerError(
                    "training diverged at epoch %d (%s)" % (epoch, exc)
                ) from exc
            grad_norms.append(nm.clip_global_norm(grads, config.clip_norm))
            nm.adam_update(params, grads, adam, lr=config.learning_rate)
            train_nll += float(per_utt.data.sum())
            n_utts += len(utts)
        dev_loss, dev_ppl = (
            evaluate_loss(model, corpus_dev) if len(corpus_dev) else (train_nll / n_utts, 0.0)
        )
        log.epochs.append({
            "epoch": epoch,
            "train_loss": train_nll / n_utts,
            "dev_loss": dev_loss,
            "dev_perplexity": dev_ppl,
            "grad_norm_mean": sum(grad_norms) / len(grad_norms),
            # clip_global_norm rescales exactly when this holds
            "clip_frac": sum(config.clip_norm > 0 and g > config.clip_norm
                             for g in grad_norms) / len(grad_norms),
        })
        if not quiet:
            print("epoch %3d  train %.4f  dev %.4f  ppl %.4f"
                  % (epoch, train_nll / n_utts, dev_loss, dev_ppl))
        if dev_loss < log.best_dev_loss - 1e-9:
            log.best_dev_loss = dev_loss
            log.best_epoch = epoch
            best_params = {k: v.data.copy() for k, v in params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
    if best_params:
        model.set_parameters(best_params)
    return model, log


# ---------------------------------------------------------------------------
# Forced decoding / attention extraction

def forced_decode_corpus(model: AlignerModel, corpus: ParallelCorpus) -> dict[str, AttentionMatrix]:
    """Attention matrices for every utterance; EOS row dropped unless configured."""
    out: dict[str, AttentionMatrix] = {}
    rng = np.random.default_rng(0)
    batches = _bucket_batches(corpus.utterances, 64, rng, shuffle=False)
    for batch in batches:
        utts = [corpus.utterances[i] for i in batch]
        src, tgt, msk = _pack_batch(model, utts)
        _, _, alphas = model.forward_batch(src, tgt, msk, train=False)
        # alphas: list of T tensors (B, A)
        stacked = np.stack([a.data for a in alphas], axis=1)  # (B, T, A)
        for b, u in enumerate(utts):
            T = len(u.ul_symbols)
            rows_keep = T + 1 if model.config.include_eos_row else T
            m = AttentionMatrix(u.id, stacked[b, :rows_keep].astype(np.float64))
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
            f.write("%s %d %d\n" % (utt_id, m.num_symbols, m.num_words))
            for row in m.weights:
                f.write(" ".join("%.10e" % v for v in row) + "\n")


def read_attention_matrices(path: str) -> dict[str, AttentionMatrix]:
    """Inverse of `write_attention_matrices`.

    Raises CorpusError, a data error, on a malformed or truncated file,
    on an utterance id that appears twice and on a matrix that fails
    `AttentionMatrix.validate`.
    """
    out: dict[str, AttentionMatrix] = {}
    with open(path, encoding="utf-8") as f:
        lines = [(k, l.split()) for k, l in enumerate(f, 1) if l.strip()]
    i = 0
    while i < len(lines):
        k, head = lines[i]
        try:
            utt_id, T, A = head[0], int(head[1]), int(head[2])
        except (IndexError, ValueError):
            T = A = 0
        if len(head) != 3 or T < 1 or A < 1:
            raise CorpusError("%s:%d: expected a header `id T A`" % (path, k))
        if utt_id in out:
            raise CorpusError("%s:%d: utterance %s appears twice" % (path, k, utt_id))
        body = lines[i + 1: i + 1 + T]
        if len(body) < T:
            raise CorpusError("%s: %s is truncated, %d of %d rows" % (path, utt_id, len(body), T))
        for k, fields in body:
            if len(fields) != A:
                raise CorpusError("%s:%d: %d weights, expected %d" % (path, k, len(fields), A))
        try:
            w = np.array([[float(v) for v in fields] for _, fields in body])
        except ValueError:
            raise CorpusError("%s: %s has a non-numeric weight" % (path, utt_id)) from None
        m = AttentionMatrix(utt_id, w)
        try:
            m.validate()
        except AlignerError as e:
            raise CorpusError("%s: %s" % (path, e)) from None
        out[utt_id] = m
        i += 1 + T
    return out


# ---------------------------------------------------------------------------
# Checkpoints

def save_model(path: str, model: AlignerModel) -> None:
    meta = {
        "cell_size": model.config.cell_size,
        "embed_dim": model.config.embed_dim,
        "temperature": model.config.temperature,
        "maxout_pool": model.config.maxout_pool,
    }
    nm.save_checkpoint(path, model.parameters(), meta)


def load_model(path: str, config: AlignerConfig,
               wrl_vocab: Vocabulary, ul_vocab: Vocabulary) -> AlignerModel:
    values, meta = nm.load_checkpoint(path)
    if int(meta.get("cell_size", config.cell_size)) != config.cell_size:
        raise AlignerError("checkpoint cell size does not match config")
    model = AlignerModel(config, wrl_vocab, ul_vocab)
    model.set_parameters(values)
    return model
