"""The package names the benchmark harness in perfbench/ looks up still exist,
and verify's fault-injection table matches the kernels the harness times.

perfbench/tracing.py reads per-layer figures by the qualified names of the
functions it wraps, and perfbench/workloads.py drives the program through
its public API. Without this check a rename would surface only when the
benchmark runs.
"""

import importlib.util
import os
import re

from revunet import verify

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

# looked up by workloads.py through an instance or an attribute-name string,
# which a scan for module.name does not see
INDIRECT = ("engine.MemoryLedger.element_map", "unet.Model.forward", "unet.Model.dtype")


def _source(name):
    with open(os.path.join(PERFBENCH, name)) as f:
        return f.read()


def _exists(qualname):
    layer, *attrs = qualname.split(".")
    obj = importlib.import_module("revunet." + layer)
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_names_the_benchmark_looks_up_exist():
    tracing = _tracing()

    # quoted qualified names, minus the metric keys the tracer writes (m["..."])
    traced = set(re.findall(r'(?<!m\[)"((?:%s)\.[A-Za-z_][\w.]*)"' % "|".join(tracing.LAYERS),
                            _source("tracing.py")))
    traced |= {"ops." + fn for pair in tracing.KERNELS.values() for fn in pair}
    assert "engine.RevBlock.backward" in traced and "verify.oracle_suite" in traced
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = set(tracer.names)
    finally:
        tracer.uninstall()
    assert sorted(traced - wrapped) == []

    used = set(re.findall(
        r"\b((?:cli|engine|memplan|phantoms|tensor|training|unet|verify)(?:\.[A-Za-z_]\w*)+)",
        _source("workloads.py")))
    assert "training.Adam.step" in used and "cli.main" in used
    assert [q for q in sorted(used | set(INDIRECT)) if not _exists(q)] == []


def test_fault_injection_covers_the_benchmark_kernels():
    # the op table is kept twice: the kinds gradcheck can corrupt and the
    # kernels the benchmark times must stay the same backward functions
    kernels = _tracing().KERNELS
    assert verify._CORRUPT_TARGETS == {kind: bwd for kind, (_, bwd) in kernels.items()}
