"""The four benchmark workloads, each driven through the program's public API.

Load model: one process, closed loop, a single caller that starts the next
operation only after the previous one returns. Each workload provides

  setup(seed, workdir)  generate the seeded inputs under workdir, build and
                        save models, run one warm-up operation; -> state
  timed(state, seconds, tracer)
                        run operations for `seconds`; -> (op durations,
                        number of operations whose output check failed)
  memory(state)         one operation under tracemalloc, untimed; -> bytes
                        allocated above the level at its start
  checks(state)         run-level output checks; -> {name: passed}

Every output check runs outside the timed intervals.
"""

import contextlib
import gc
import io
import math
import os
import time
import tracemalloc

import numpy as np

from revunet import cli, engine, memplan, phantoms, tensor, training, unet, verify

from tracing import IDLE, Patches

TRAIN_CONFIG = unet.UNetConfig(widths=(8, 16, 32), image_size=(32, 32, 32),
                               block_kind="mbconv", expand_ratio=2)
TRAIN_PHANTOMS = 20
TRAIN_PRECISION = "single"
# more steps than any run reaches; the timed run is ended from Adam.step
UNBOUNDED_STEPS = 10 ** 6
MEMORY_STEPS = 3

SEGMENT_CONFIG = unet.UNetConfig(widths=(8, 16, 32, 64), image_size=(64, 64, 64),
                                 block_kind="standard")
SEGMENT_SIZE = 60

GRADCHECK_CONFIG = "mbconv-base"


class _Stop(Exception):
    """Raised from the wrapped Adam.step to end the program's loop on time."""


def _set_op(tracer, op):
    if tracer is not None:
        tracer.op = op


class Workload:
    """Defaults for the figures only the train workloads have."""

    def ledger_peak(self, state):
        return 0

    def loss_final(self, state):
        return 0.0


class Train(Workload):
    """One optimizer step of training.train; time between Adam.step returns."""

    def __init__(self, strategy):
        self.strategy = strategy

    def setup(self, seed, workdir):
        corpus = os.path.join(workdir, "corpus")
        phantoms.write_corpus(corpus, TRAIN_PHANTOMS, TRAIN_CONFIG.image_size[0], seed)
        pairs, _ = phantoms.read_corpus(corpus)
        state = {"seed": seed, "pairs": pairs}
        self._train(state, steps=1)
        return state

    def _train(self, state, steps=UNBOUNDED_STEPS, seconds=None, on_step=None):
        """Run the program's loop; -> (Adam.step return times, losses, records)."""
        returns, losses = [], []
        step, loss = training.Adam.step, training.soft_dice_loss

        def timed_step(opt, lr):
            step(opt, lr)
            returns.append(time.perf_counter())
            if seconds is not None and returns[-1] - returns[0] >= seconds:
                raise _Stop
            if on_step is not None:
                on_step(len(returns))

        def captured_loss(*args, **kwargs):
            out = loss(*args, **kwargs)
            losses.append(out[0])
            return out

        patches = Patches()
        patches.set(training.Adam, "step", timed_step)
        patches.set(training, "soft_dice_loss", captured_loss)
        records = None
        try:
            _, records = training.train(
                TRAIN_CONFIG, state["pairs"], seed=state["seed"], steps=steps,
                precision=TRAIN_PRECISION, strategy=self.strategy)
        except _Stop:
            pass
        finally:
            patches.restore()
        return returns, losses, records

    def timed(self, state, seconds, tracer=None):
        _set_op(tracer, IDLE)
        # operation k runs from the k-th Adam.step return to the next one
        returns, losses, _ = self._train(
            state, seconds=seconds, on_step=lambda k: _set_op(tracer, k - 1))
        _set_op(tracer, IDLE)
        state["losses"] = losses
        failed = sum(not math.isfinite(x) for x in losses[1:])
        return list(np.diff(returns)), failed

    def memory(self, state):
        marks = []

        def mark(_):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()

        _start_tracing()
        try:
            _, _, records = self._train(state, steps=MEMORY_STEPS, on_step=mark)
        finally:
            tracemalloc.stop()
        state["memory_records"] = [r for r in records if r["kind"] == "step"]
        # the first step also builds the model, so it is not counted
        return max(peak - start[0] for start, (_, peak) in zip(marks, marks[1:]))

    def ledger_peak(self, state):
        return max(r["peak_ledger_bytes"] for r in state["memory_records"])

    def loss_final(self, state):
        return float(np.mean(state["losses"][-10:]))

    def checks(self, state):
        replay = [r["loss"] for r in state["memory_records"]]
        # the closed-form estimate must name exactly what the ledger holds
        # at the end of a forward pass of the trained configuration
        model = unet.build(TRAIN_CONFIG, state["seed"], TRAIN_PRECISION, self.strategy)
        ledger = engine.MemoryLedger()
        volume = state["pairs"][0][0].astype(model.dtype)
        model.forward(volume, engine.Tape(ledger))
        estimate = memplan.estimate(TRAIN_CONFIG, self.strategy, TRAIN_PRECISION)
        return {
            "memory_pass_replays_timed_losses_bitwise": replay == state["losses"][:len(replay)],
            "ledger_equals_estimate": ledger.element_map() == memplan.element_map(estimate),
        }


def _start_tracing():
    # a full collection first, so that the collector runs at the same points
    # of every memory pass and the peak does not depend on earlier garbage
    gc.collect()
    tracemalloc.start()


class CallLoop(Workload):
    """An operation that is one call, its output checked after it returns."""

    def timed(self, state, seconds, tracer=None):
        durations, failed = [], 0
        deadline = time.perf_counter() + seconds
        while True:
            _set_op(tracer, len(durations))
            start = time.perf_counter()
            out = self.op(state)
            end = time.perf_counter()
            _set_op(tracer, IDLE)
            durations.append(end - start)
            failed += not self.check(state, out)
            if end >= deadline:
                return durations, failed

    def memory(self, state):
        _start_tracing()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = self.op(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        state["memory_ok"] = self.check(state, out)
        return peak - start

    def checks(self, state):
        return {"warmup_output_ok": state["warmup_ok"],
                "memory_pass_output_ok": state["memory_ok"]}


class Segment(CallLoop):
    """One in-process `revunet segment` call on a saved standard-block model."""

    def setup(self, seed, workdir):
        phantom = phantoms.make_phantom(seed, SEGMENT_SIZE)
        volume = os.path.join(workdir, "volume.rvt")
        tensor.tensor_write(phantom.volume, volume)
        model = unet.build(SEGMENT_CONFIG, seed, "single")
        model_dir = os.path.join(workdir, "model")
        model.save(model_dir)
        # reference label map: an in-process forward and argmax
        padded, record = unet.pad_to_grid(phantom.volume, SEGMENT_CONFIG.levels)
        logits = unet.crop_to_record(model.forward(padded, None), record)
        labels = np.argmax(logits, axis=1)[0].astype(np.float32)
        expected = os.path.join(workdir, "expected.rvt")
        tensor.tensor_write(labels.reshape((1, 1) + labels.shape), expected)
        with open(expected, "rb") as f:
            expected_bytes = f.read()
        out = os.path.join(workdir, "labels.rvt")
        state = {"argv": ["segment", "--model", model_dir, "--volume", volume, "--out", out],
                 "out": out, "expected": expected_bytes}
        state["warmup_ok"] = self.check(state, self.op(state))
        return state

    def op(self, state):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(state["argv"])

    def check(self, state, code):
        with open(state["out"], "rb") as f:
            return code == 0 and f.read() == state["expected"]


class Gradcheck(CallLoop):
    """One verify.gradcheck_report call followed by one memplan.claims_report."""

    def setup(self, seed, workdir):
        state = {"seed": seed}
        state["warmup_ok"] = self.check(state, self.op(state))
        return state

    def op(self, state):
        report = verify.gradcheck_report(GRADCHECK_CONFIG, state["seed"])
        memplan.claims_report("single")
        return report

    def check(self, state, report):
        return report["pass"]


WORKLOADS = {
    "train-rev": lambda: Train("reversible"),
    "train-storeall": lambda: Train("store-all"),
    "segment-conv": Segment,
    "gradcheck": Gradcheck,
}
