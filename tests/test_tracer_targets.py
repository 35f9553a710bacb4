"""The benchmark tracer finds every function it wraps.

`perfbench/tracer.py` looks the program's functions up by name when a
traced run starts, so renaming one breaks the traced benchmark. This
test installs the tracer the same way, without a benchmark run.
"""

import importlib
import os

import numpy as np

from attnseg import numerics
from test_aligner import oracle_case

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def test_install_finds_every_target_and_uninstall_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracer")
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracer.TARGETS]
    A, T = 3, 4
    model, src, tgt, mask = oracle_case(A, T, 2, seed=1)
    t = tracer.Tracer()
    t.install()
    try:
        loss, _, _ = model.forward_batch(src, tgt, mask, rng=np.random.default_rng(0),
                                         train=True)
        numerics.backward(loss)
    finally:
        t.uninstall()
    assert [getattr(owner, attr) for owner, attr, _, _ in tracer.TARGETS] == originals
    names = [s[tracer.NAME] for s in t.spans]
    assert names.count("aligner.forward_batch") == names.count("aligner.encode") == 1
    assert names.count("numerics.lstm_step") == 2 * A + T  # both encoder directions, decoder
    assert names.count("aligner.decode_step") == T
    assert t.tensors == 1  # the loss
