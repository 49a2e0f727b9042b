"""Out-of-program tracing: wrap the package's public functions with spans.

The wrappers are installed from the benchmark's own files, the way
`revunet.verify.corrupted_vjp` patches `ops`: the attribute is replaced
with a wrapper and put back afterwards. Every module-level alias of a
wrapped function elsewhere in the package (`from .tensor import ...`) is
rebound too, so a call is seen whichever name it goes through. After
`Patches.restore()` every patched attribute is checked to be the original
object again, so an untraced run measures the unmodified program.

Spans are kept in memory, one column per field, and written as JSONL at
the end: name, start, end, parent span index (-1 at top level), the
workload operation the span ran in, and an optional measurement. The
operation is an integer index, or SETUP, CHECK or IDLE.
"""

import array
import importlib
import inspect
import json
import statistics
import sys
import time

# the layers whose public functions are traced
LAYERS = ("ops", "engine", "unet", "training", "phantoms", "tensor", "verify", "memplan")

# op kind -> (forward function, backward function) in revunet.ops
KERNELS = {
    "conv3d": ("conv3d", "conv3d_bwd"),
    "pointwise": ("pointwise_conv3d", "pointwise_conv3d_bwd"),
    "depthwise": ("depthwise_conv3d", "depthwise_conv3d_bwd"),
    "groupnorm": ("group_norm", "group_norm_bwd"),
    "relu": ("relu", "relu_bwd"),
    "maxpool": ("maxpool3d", "maxpool3d_bwd"),
    "upsample": ("trilinear_upsample", "trilinear_upsample_bwd"),
}
FLOP_KINDS = ("conv3d", "depthwise", "pointwise")

# operation tags other than an operation index
IDLE, SETUP, CHECK = -1, -2, -3
_TAG_NAMES = {IDLE: None, SETUP: "setup", CHECK: "check"}


class Patches:
    """Attribute replacements undone in reverse order, then checked."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self):
        saved, self._saved = self._saved, []
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
        first = {}
        for owner, name, original in saved:
            first.setdefault((id(owner), name), (owner, name, original))
        for owner, name, original in first.values():
            if vars(owner)[name] is not original:
                raise RuntimeError("%s.%s was not restored" % (owner.__name__, name))


def _conv_flops(args, mult):
    # x is args[0], the kernel args[1]: every kernel element meets every
    # output voxel once, one multiply and one add
    x, w = args[0], args[1]
    return 2 * mult * w.size * x.shape[0] * x.shape[2] * x.shape[3] * x.shape[4]


def _extra_for(qualname):
    """Per-call measurement taken from a call's arguments or result."""
    for kind in FLOP_KINDS:
        fwd, bwd = KERNELS[kind]
        if qualname == "ops." + fwd:
            return lambda args, out: _conv_flops(args, 1)
        if qualname == "ops." + bwd:
            # input gradient and weight gradient: twice the forward work
            return lambda args, out: _conv_flops(args, 2)
    if qualname == "tensor.tensor_read":
        return lambda args, out: out.nbytes
    if qualname == "tensor.tensor_write":
        return lambda args, out: args[0].nbytes
    return None


class Tracer:
    def __init__(self):
        self.op = IDLE
        self.names = []
        self.name_ids = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("q")
        self.ops = array.array("q")
        self.extras = {}
        self._stack = []
        self._patches = Patches()

    def _wrap(self, qualname, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, ops, extras = self.parents, self.ops, self.extras
        stack, clock = self._stack, time.perf_counter
        extra = _extra_for(qualname)
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if extra is not None:
                extras[index] = extra(args, out)
            return out

        return wrapper

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module("revunet." + layer)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if _traceable(obj):
                    wrapped[obj] = self._wrap("%s.%s" % (layer, name), obj)
                elif inspect.isclass(obj):
                    self._install_methods(layer, obj)
        # rebind each function under every name the package holds it by
        for modname, module in list(sys.modules.items()):
            if modname != "revunet" and not modname.startswith("revunet."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.set(module, name, wrapped[obj])

    def _install_methods(self, layer, cls):
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            binder = type(member) if isinstance(member, (classmethod, staticmethod)) else None
            fn = member.__func__ if binder else member
            if _traceable(fn):
                wrapper = self._wrap("%s.%s.%s" % (layer, cls.__name__, name), fn)
                self._patches.set(cls, name, binder(wrapper) if binder else wrapper)

    def uninstall(self):
        self._patches.restore()

    def write_jsonl(self, path):
        names, extras = self.names, self.extras
        with open(path, "w") as f:
            for i, (n, start, end, parent, op) in enumerate(
                    zip(self.name_ids, self.starts, self.ends, self.parents, self.ops)):
                f.write(json.dumps({"name": names[n], "start": start, "end": end,
                                    "parent": parent, "op": _TAG_NAMES.get(op, op),
                                    "extra": extras.get(i)}) + "\n")

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for parent, d in zip(self.parents, durations):
            if parent >= 0:
                own[parent] -= d
        return own

    def layer_metrics(self, op_durations):
        """Per-layer figures of the traced operations, per operation.

        op_durations[k] is the wall time of operation k. Spans tagged SETUP
        and CHECK feed only phantoms.make_phantom_s and memplan.estimate_s.
        """
        n = len(op_durations)
        names, parents, ops = self.names, self.parents, self.ops
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        counted = [0 <= op < n for op in ops]
        total = [0.0] * len(names)
        calls = [0] * len(names)
        extra = [0] * len(names)
        phase_total = {}
        for i, (name_id, op, d) in enumerate(zip(self.name_ids, ops, durations)):
            if counted[i]:
                total[name_id] += d
                calls[name_id] += 1
                extra[name_id] += self.extras.get(i, 0)
            elif op in (SETUP, CHECK):
                key = (op, names[name_id])
                phase_total[key] = phase_total.get(key, 0.0) + d
        by_name = {name: i for i, name in enumerate(names)}

        def per_op(*qualnames):
            return sum(total[by_name[q]] for q in qualnames) / n

        m = {}
        kernels = []
        for kind, pair in KERNELS.items():
            for phase, fn in zip(("fwd", "bwd"), pair):
                q = "ops." + fn
                kernels.append(q)
                m["ops.%s.%s.s" % (kind, phase)] = per_op(q)
                m["ops.%s.%s.calls" % (kind, phase)] = calls[by_name[q]] / n
                if kind in FLOP_KINDS:
                    busy = total[by_name[q]]
                    m["ops.%s.%s.gflops" % (kind, phase)] = (
                        extra[by_name[q]] / busy / 1e9 if busy else 0.0)
        m["ops.share"] = per_op(*kernels) * n / sum(op_durations)

        m["engine.rev.forward_s"] = per_op("engine.RevBlock.forward")
        m["engine.rev.backward_s"] = per_op("engine.RevBlock.backward")
        # F and G forwards re-run on scratch tapes inside the reversible backward
        seq_fwd, rev_bwd = by_name["engine.Sequential.forward"], by_name["engine.RevBlock.backward"]
        m["engine.rev.recompute_s"] = sum(
            d for i, (name_id, parent, d) in enumerate(zip(self.name_ids, parents, durations))
            if counted[i] and name_id == seq_fwd and parent >= 0
            and self.name_ids[parent] == rev_bwd) / n
        # kernel time under Model.forward/backward; a parent precedes its children
        model = {by_name["unet.Model.forward"], by_name["unet.Model.backward"]}
        kernel_ids = {by_name[q] for q in kernels}
        under_model = [False] * len(durations)
        kernel_under_model = 0.0
        for i, (name_id, parent, d) in enumerate(zip(self.name_ids, parents, durations)):
            under_model[i] = name_id in model or (parent >= 0 and under_model[parent])
            if counted[i] and name_id in kernel_ids and under_model[i]:
                kernel_under_model += d
        m["engine.glue_s"] = per_op("unet.Model.forward", "unet.Model.backward") \
            - kernel_under_model / n
        m["engine.ledger.registers"] = calls[by_name["engine.MemoryLedger.register"]] / n

        m["unet.forward_s"] = per_op("unet.Model.forward")
        m["unet.backward_s"] = per_op("unet.Model.backward")
        m["unet.load_s"] = per_op("unet.Model.load")
        m["unet.pad_crop_s"] = per_op("unet.pad_to_grid", "unet.crop_to_record")
        m["tensor.read_s"] = per_op("tensor.tensor_read")
        m["tensor.write_s"] = per_op("tensor.tensor_write")
        m["tensor.read_bytes"] = extra[by_name["tensor.tensor_read"]] / n
        m["tensor.write_bytes"] = extra[by_name["tensor.tensor_write"]] / n
        m["phantoms.augment_s"] = per_op("phantoms.augment")
        m["phantoms.make_phantom_s"] = phase_total.get((SETUP, "phantoms.make_phantom"), 0.0)
        m["training.loss_s"] = per_op("training.soft_dice_loss")
        m["training.adam_s"] = per_op("training.Adam.step")
        m["training.zero_grads_s"] = per_op("unet.Model.zero_grads")
        m["verify.roundtrip_s"] = per_op("verify.roundtrip_suite")
        m["verify.oracle_s"] = per_op("verify.oracle_suite")
        m["verify.fd_primitive_s"] = per_op("verify.fd_primitive_suite")
        m["verify.fd_network_s"] = per_op("verify.fd_network_suite")
        m["verify.equivalence_s"] = per_op("verify.strategy_equivalence_suite")
        m["memplan.claims_s"] = per_op("memplan.claims_report")
        m["memplan.estimate_s"] = phase_total.get((CHECK, "memplan.estimate"), 0.0)

        # share of each operation's wall time inside some traced call: the
        # durations of its outermost spans, which equal the summed self
        # times of all its spans
        covered = [0.0] * n
        for i, (op, parent, d) in enumerate(zip(ops, parents, durations)):
            if counted[i] and (parent < 0 or ops[parent] != op):
                covered[op] += d
        m["trace.coverage"] = statistics.median([c / d for c, d in zip(covered, op_durations)])
        return m

    def top_self_times(self, n_ops, count=15):
        """The span names with the most self time per operation."""
        acc = {}
        for name_id, op, own in zip(self.name_ids, self.ops, self.self_times()):
            if 0 <= op < n_ops:
                name = self.names[name_id]
                acc[name] = acc.get(name, 0.0) + own
        ranked = sorted(acc.items(), key=lambda kv: -kv[1])[:count]
        return {name: t / n_ops for name, t in ranked}


def _traceable(obj):
    # a generator's span would close before its body runs, so generators
    # (engine.walk, Model.leaves, Model.parameters) are left unwrapped
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)
