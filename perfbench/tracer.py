"""Span tracer that wraps the program's public functions from outside.

`Tracer.install()` replaces functions and methods of the attnseg modules
with wrappers that record a span (name, start, end, parent) around each
call, plus a few counts read from the call's arguments and result.
`uninstall()` puts the originals back, so untraced passes run the
program exactly as shipped. Spans stay in memory until `write()`.
"""

from __future__ import annotations

import json
import os
import time

from attnseg import aligner, aud, baselines, cli, corpus, metrics, numerics, segmenter

NAME, START, END, PARENT, ATTRS, TENSORS = range(6)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _forward_attrs(args, kwargs, _result):
    mask = args[3]
    return {"batch": int(mask.shape[0]), "steps": int(mask.shape[1]),
            "pad": int(mask.size - mask.sum()),
            "train": bool(_arg(args, kwargs, 5, "train", False))}


def _frames(feats_list):
    return sum(f.features.shape[0] for f in feats_list)


# (owner, attribute, span name, attrs(args, kwargs, result) or None)
TARGETS = [
    (cli, "write_manifest", "cli.manifest", None),
    (corpus, "load_parallel_corpus", "corpus.load_parallel_corpus", None),
    (corpus, "load_gold_segmentation", "corpus.load_gold_segmentation", None),
    (corpus, "write_segmentations", "corpus.write_segmentations", None),
    (corpus, "split_train_dev", "corpus.split_train_dev", None),
    (numerics, "backward", "numerics.backward", None),
    (numerics, "adam_update", "numerics.adam_update", None),
    (numerics, "clip_global_norm", "numerics.clip_global_norm", None),
    (numerics, "lstm_step", "numerics.lstm_step", None),
    (aligner, "train", "aligner.train",
     lambda a, k, r: {"batch_size": a[2].batch_size, "epochs": len(r[1].epochs)}),
    (aligner, "evaluate_loss", "aligner.evaluate_loss", None),
    (aligner, "forced_decode_corpus", "aligner.forced_decode_corpus",
     lambda a, k, r: {"utts": len(a[1])}),
    (aligner, "write_attention_matrices", "aligner.write_attention_matrices",
     lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    (aligner, "read_attention_matrices", "aligner.read_attention_matrices", None),
    (aligner, "save_model", "aligner.save_model", None),
    (aligner, "load_model", "aligner.load_model", None),
    (aligner.AlignerModel, "forward_batch", "aligner.forward_batch", _forward_attrs),
    (aligner.AlignerModel, "encode", "aligner.encode", None),
    (aligner.AlignerModel, "attend", "aligner.attend", None),
    (aligner.AlignerModel, "decode_step", "aligner.decode_step", None),
    (segmenter, "segment_corpus", "segmenter.segment_corpus", None),
    (baselines, "proportional_segment_corpus", "baselines.proportional_segment_corpus", None),
    (baselines, "dpseg_segment_corpus", "baselines.dpseg_segment_corpus", None),
    (baselines.DpsegSampler, "sweep", "baselines.dpseg_sweep",
     lambda a, k, r: {"sites": sum(len(s) - 1 for s in a[0].sequences)}),
    (metrics, "evaluate", "metrics.evaluate", None),
    (metrics, "write_report", "metrics.write_report", None),
    (aud, "read_wav", "aud.read_wav", None),
    (aud, "extract_mfcc", "aud.extract_mfcc",
     lambda a, k, r: {"frames": r.features.shape[0]}),
    (aud, "save_features", "aud.save_features", None),
    (aud, "load_features", "aud.load_features", None),
    (aud, "init_model", "aud.init_model", None),
    (aud, "train_phone_loop", "aud.train_phone_loop",
     lambda a, k, r: {"frames": _frames(a[0]), "iterations": a[1].iterations,
                      "units": r[0].num_units}),
    (aud, "decode_units", "aud.decode_units",
     lambda a, k, r: {"frames": a[1].features.shape[0]}),
    (aud, "write_timed_units", "aud.write_timed_units", None),
    (aud, "save_aud_model", "aud.save_aud_model", None),
    (aud, "load_aud_model", "aud.load_aud_model", None),
    (aud.AudModel, "emission_loglik", "aud.emission_loglik", None),
    (aud.AudModel, "component_log_post", "aud.component_log_post", None),
    (aud.AudModel, "log_transitions", "aud.log_transitions", None),
] + [(cli, name, "cli." + name[4:], None)
     for name in ("cmd_synth", "cmd_mfcc", "cmd_aud_train", "cmd_aud_decode",
                  "cmd_train_aligner", "cmd_force_align", "cmd_segment",
                  "cmd_baseline_proportional", "cmd_baseline_dpseg", "cmd_evaluate")]


class Tracer:
    """In-memory spans; each is [name, start, end, parent index, attrs, tensors created]."""

    def __init__(self):
        self.spans: list[list] = []
        self.tensors = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, fn, name, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, self.tensors]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
                rec[TENSORS] = self.tensors - rec[TENSORS]
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span of its own, e.g. one benchmark pass."""
        return self.wrap(fn, name)(*args)

    def install(self) -> None:
        for owner, attr, name, attrs in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, name, attrs))
        init = numerics.Tensor.__init__
        self._saved.append((numerics.Tensor, "__init__", init))

        def counted_init(tensor, *args, **kwargs):
            self.tensors += 1
            init(tensor, *args, **kwargs)

        numerics.Tensor.__init__ = counted_init

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, attrs, tensors) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "tensors": tensors}
                if attrs:
                    rec.update(attrs)
                f.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics

CLI_STAGES = ("mfcc", "aud_train", "aud_decode", "train_aligner", "force_align", "segment",
              "baseline_proportional", "baseline_dpseg", "evaluate")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer figures over the traced passes; a layer a workload does not run reads 0."""
    by_name: dict[str, list[int]] = {}
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def dur(i):
        return spans[i][END] - spans[i][START]

    def ids(name, keep=None):
        return [i for i in by_name.get(name, []) if keep is None or keep(i)]

    def total(name, keep=None):
        return sum(dur(i) for i in ids(name, keep))

    def attr_sum(name, key, keep=None):
        return sum(spans[i][ATTRS][key] for i in ids(name, keep))

    def under(i, name):
        """Nearest enclosing span called `name`, or -1."""
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        return p

    def training(i):
        return spans[i][ATTRS]["train"]

    def in_training(i):
        p = under(i, "aligner.forward_batch")
        return p >= 0 and training(p)

    train_batches = ids("aligner.forward_batch", training)
    n_tb = len(train_batches)
    epochs = attr_sum("aligner.train", "epochs")
    batch_size = max([spans[i][ATTRS]["batch_size"] for i in ids("aligner.train")], default=0)
    decoded = attr_sum("aligner.forced_decode_corpus", "utts")
    attends = ids("aligner.attend", in_training)
    mfcc_frames = attr_sum("aud.extract_mfcc", "frames")
    em_frame_iters = sum(spans[i][ATTRS]["frames"] * spans[i][ATTRS]["iterations"]
                         for i in ids("aud.train_phone_loop"))
    viterbi_frames = attr_sum("aud.decode_units", "frames")
    loops = ids("aud.train_phone_loop")
    writes = ids("aligner.write_attention_matrices")

    def per_call_ms(name):
        return 1000 * _ratio(total(name), len(ids(name)))

    m = {
        "numerics.backward_ms_per_batch": per_call_ms("numerics.backward"),
        "numerics.adam_ms_per_batch": per_call_ms("numerics.adam_update"),
        "numerics.clip_ms_per_batch": per_call_ms("numerics.clip_global_norm"),
        "numerics.tape_nodes_per_train_batch":
            _ratio(sum(spans[i][TENSORS] for i in train_batches), n_tb),
        "numerics.lstm_step_calls_per_batch":
            _ratio(len(ids("numerics.lstm_step", in_training)), n_tb),
        "numerics.tape_nodes_per_decode_utt":
            _ratio(sum(spans[i][TENSORS] for i in ids("aligner.forced_decode_corpus")),
                   decoded),
        "aligner.epoch_s": _ratio(total("aligner.train"), epochs),
        "aligner.forward_ms_per_batch": 1000 * _ratio(sum(dur(i) for i in train_batches), n_tb),
        "aligner.encode_ms_per_batch": 1000 * _ratio(total("aligner.encode", in_training), n_tb),
        "aligner.attend_ms_per_step": 1000 * _ratio(sum(dur(i) for i in attends), len(attends)),
        "aligner.dev_eval_s_per_epoch": _ratio(total("aligner.evaluate_loss"), epochs),
        "aligner.batch_occupancy":
            _ratio(attr_sum("aligner.forward_batch", "batch", training), n_tb * batch_size),
        "aligner.target_pad_frac": _ratio(
            attr_sum("aligner.forward_batch", "pad", training),
            sum(spans[i][ATTRS]["batch"] * spans[i][ATTRS]["steps"] for i in train_batches)),
        "aligner.forced_decode_ms_per_utt":
            1000 * _ratio(total("aligner.forced_decode_corpus"), decoded),
        "aligner.matrix_write_s": total("aligner.write_attention_matrices") / passes,
        "aligner.matrix_read_s": total("aligner.read_attention_matrices") / passes,
        "aligner.matrix_bytes": float(spans[writes[-1]][ATTRS]["bytes"]) if writes else 0.0,
        "segmenter.segment_corpus_s": total("segmenter.segment_corpus") / passes,
        "baselines.proportional_s": total("baselines.proportional_segment_corpus") / passes,
        "baselines.dpseg_s_per_sweep": _ratio(total("baselines.dpseg_sweep"),
                                              len(ids("baselines.dpseg_sweep"))),
        "baselines.dpseg_sites_per_s": _ratio(attr_sum("baselines.dpseg_sweep", "sites"),
                                              total("baselines.dpseg_sweep")),
        "metrics.evaluate_s": total("metrics.evaluate") / passes,
        "corpus.load_s": (total("corpus.load_parallel_corpus")
                          + total("corpus.load_gold_segmentation")) / passes,
        "corpus.write_segmentations_s": total("corpus.write_segmentations") / passes,
        "aud.mfcc_ms_per_kframe": 1000 * _ratio(total("aud.extract_mfcc"), mfcc_frames / 1000),
        "aud.em_s_per_kframe_iter": _ratio(total("aud.train_phone_loop"), em_frame_iters / 1000),
        "aud.emission_s": (total("aud.emission_loglik")
                           + total("aud.component_log_post")) / passes,
        "aud.transitions_s": total("aud.log_transitions") / passes,
        "aud.em_self_s": sum(dur(i) - child_time[i] for i in loops) / passes,
        "aud.viterbi_ms_per_kframe":
            1000 * _ratio(total("aud.decode_units"), viterbi_frames / 1000),
        "aud.active_units": float(spans[loops[-1]][ATTRS]["units"]) if loops else 0.0,
    }
    for stage in CLI_STAGES:
        m["cli.%s_s" % stage] = _ratio(total("cli." + stage), len(ids("cli." + stage)))
    m["cli.manifest_s"] = total("cli.manifest") / passes
    stage_spans = {i for stage in CLI_STAGES for i in ids("cli." + stage)}
    covered = sum(dur(i) for i, s in enumerate(spans) if s[PARENT] in stage_spans)
    m["trace.coverage_frac"] = _ratio(covered, sum(dur(i) for i in stage_spans))
    return m
