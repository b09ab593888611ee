"""The names the benchmark in ``perfbench/`` wraps, patches or calls still exist.

Its tracer records a wrapped name that is gone as missing instead of
failing, which turns that name's per-layer metric into null; these checks
make such a rename fail here instead.
"""

import inspect
import os

from sublm import corpus, lm, tensor

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import bench
    import tracing

    tracer = tracing.Tracer()
    bench.install_tracing(tracer)
    try:
        assert not tracer.missing
    finally:
        tracer.uninstall()


def test_patched_and_called_names_exist():
    assert callable(lm.full_softmax_nll)
    assert callable(tensor.Graph)
    with tensor.Graph(rng=None):
        pass
    inspect.signature(corpus.encode_corpus).bind({}, None, None)
