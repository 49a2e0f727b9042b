"""Static-graph execution engine with two backward storage strategies.

Every node saves a fixed, documented context for its backward pass:

  ============  =========================================
  node          saved context (ledger reason)
  ============  =========================================
  conv          input (pointwise, standard and depthwise)
  group norm    xhat, rstd; with its ReLU fused in, nothing
                more: the ReLU runs in place on the group
                norm's output, and backward rebuilds its
                input gamma*xhat + beta bit for bit
  maxpool       idx (argmax indices, one per output voxel)
  upsample      nothing (linear; VJP is the transpose)
  rev block     nothing under store-all beyond what its
                sub-blocks save; only its output ("out")
                under reversible
  level         nothing (its children save their own)
  add           nothing
  ============  =========================================

The MemoryLedger counts exactly the arrays registered under these rules.
Parameters are never counted. Scratch contexts materialized during the
reversible backward (to re-run F and G) are deliberately unregistered:
they exist one block at a time and are what the reversible strategy
trades compute for.

A rev block splits its input, and in backward its output gradient, into
channel halves by views, under either strategy, and writes both halves of
its result (y, x for `inverse`, dx in backward) into one array it
allocates itself. The only copies are the two halves a store-all tape
saves, F's input x2 and G's input y1: a saved half-view would pin the
whole tensor while the ledger counts only half of it. No node writes into
an array that another node returned.
"""

import numpy as np

from . import ops
from .tensor import ShapeError, channel_halves, ew_add, ew_sub

STRATEGIES = ("store-all", "reversible")


class EngineError(RuntimeError):
    pass


class MemoryLedger:
    """Exact element/byte accounting of tensors retained for backward."""

    def __init__(self):
        self.entries = {}      # (node, reason) -> {"op", "elements", "bytes"}, registration order
        self.retained_elements = 0
        self.retained_bytes = 0
        self.peak_elements = 0
        self.peak_bytes = 0

    def register(self, node, reason, op, arr):
        key = (node, reason)
        if key in self.entries:
            raise EngineError("duplicate ledger entry %s/%s" % key)
        self.entries[key] = {"op": op, "elements": int(arr.size), "bytes": int(arr.nbytes)}
        self.retained_elements += arr.size
        self.retained_bytes += arr.nbytes
        self.peak_elements = max(self.peak_elements, self.retained_elements)
        self.peak_bytes = max(self.peak_bytes, self.retained_bytes)

    def release(self, node, reason):
        entry = self.entries.pop((node, reason), None)
        if entry is None:
            return
        self.retained_elements -= entry["elements"]
        self.retained_bytes -= entry["bytes"]

    def element_map(self):
        """{(node, reason): elements} for exact comparison against the estimate."""
        return {k: v["elements"] for k, v in self.entries.items()}

    def report(self):
        entries = [
            {"node": node, "reason": reason, "op": e["op"],
             "elements": e["elements"], "bytes": e["bytes"]}
            for (node, reason), e in self.entries.items()
        ]
        return {
            "schema_version": 1,
            "entries": entries,
            "retained_elements": int(self.retained_elements),
            "retained_bytes": int(self.retained_bytes),
            "peak_elements": int(self.peak_elements),
            "peak_bytes": int(self.peak_bytes),
        }


class Tape:
    """Per-execution store of saved contexts (in topological order), their
    ledger, and the parameter version and strategy of the model forward that
    filled it. Nodes hold no strategy: RevBlock reads it from the tape."""

    def __init__(self, ledger=None):
        self.ctx = {}
        self.ledger = ledger
        self.version = None
        self.strategy = "reversible"

    def save(self, name, reason, op, arr):
        self.ctx[(name, reason)] = arr
        if self.ledger is not None:
            self.ledger.register(name, reason, op, arr)

    def take(self, name, reason):
        arr = self.ctx.pop((name, reason))
        if self.ledger is not None:
            self.ledger.release(name, reason)
        return arr


class Node:
    """One named operation; subclasses implement forward/backward."""

    op = "node"

    def __init__(self, name):
        self.name = name
        self.grads = {}

    def param_items(self):
        return [(attr, getattr(self, attr)) for attr in self.grads]

    def children(self):
        return []

    def init_params(self, gen):
        pass

    def zero_grads(self):
        for g in self.grads.values():
            g[...] = 0

    def forward(self, x, tape):
        raise NotImplementedError

    def backward(self, dy, tape):
        raise NotImplementedError


class Conv(Node):
    """k x k x k convolution, zero "same" padding, stride 1; pointwise when
    k = 1, one filter per channel (cout = cin) when depthwise."""

    def __init__(self, name, cin, cout, k, dtype, depthwise=False, bias=False):
        super().__init__(name)
        if depthwise and bias:
            raise ValueError("depthwise convs carry no bias")
        self.op = "depthwise" if depthwise else "pointwise" if k == 1 else "conv"
        self.w = np.zeros((cout, 1 if depthwise else cin, k, k, k), dtype=dtype)
        self.b = np.zeros(cout, dtype=dtype) if bias else None
        self.grads = {"w": np.zeros_like(self.w)}
        if bias:
            self.grads["b"] = np.zeros_like(self.b)

    def init_params(self, gen):
        std = np.sqrt(2.0 / self.w[0].size)
        self.w[...] = gen.standard_normal(self.w.shape, dtype=self.w.dtype) * self.w.dtype.type(std)

    def forward(self, x, tape):
        # ops are looked up per call so that patched ops (fault injection,
        # tracing) take effect on existing nodes
        if self.op == "depthwise":
            y = ops.depthwise_conv3d(x, self.w)
        else:
            y = (ops.pointwise_conv3d if self.op == "pointwise" else ops.conv3d)(x, self.w, self.b)
        if tape is not None:
            tape.save(self.name, "input", self.op, x)
        return y

    def backward(self, dy, tape):
        x = tape.take(self.name, "input")
        if self.op == "depthwise":
            (dx, dw), db = ops.depthwise_conv3d_bwd(x, self.w, dy), None
        else:
            bwd = ops.pointwise_conv3d_bwd if self.op == "pointwise" else ops.conv3d_bwd
            dx, dw, db = bwd(x, self.w, dy, self.b is not None)
        self.grads["w"] += dw
        if db is not None:
            self.grads["b"] += db
        return dx


class GroupNorm(Node):
    """Group norm, followed by a ReLU when ``relu``: the pair is one node
    with one context, xhat and rstd, saved under the group norm's name."""

    op = "groupnorm"

    def __init__(self, name, c, dtype, relu=False):
        super().__init__(name)
        self.c = c
        self.group_size = ops.group_size_for(c)
        self.relu = relu
        self.gamma = np.ones(c, dtype=dtype)
        self.beta = np.zeros(c, dtype=dtype)
        self.grads = {"gamma": np.zeros_like(self.gamma), "beta": np.zeros_like(self.beta)}

    def forward(self, x, tape):
        if x.shape[1] != self.c:
            raise ShapeError("%s expects %d channels, got %d" % (self.name, self.c, x.shape[1]))
        y, xhat, rstd = ops.group_norm(x, self.gamma, self.beta, self.group_size, tape is not None)
        if self.relu:
            ops.relu(y, out=y)
        if tape is not None:
            tape.save(self.name, "xhat", self.op, xhat)
            tape.save(self.name, "rstd", self.op, rstd)
        return y

    def backward(self, dy, tape):
        xhat = tape.take(self.name, "xhat")
        rstd = tape.take(self.name, "rstd")
        if self.relu:
            # the ReLU's input, by the multiply and add group_norm made, is
            # overwritten by the masked dy, which then serves as dxhat's buffer
            pre = np.multiply(self.gamma.reshape(1, self.c, 1, 1, 1), xhat)
            pre += self.beta.reshape(1, self.c, 1, 1, 1)
            dy = ops.relu_bwd(pre, dy, out=pre)
        dx, dgamma, dbeta = ops.group_norm_bwd(xhat, rstd, self.gamma, dy,
                                               overwrite_dy=self.relu)
        self.grads["gamma"] += dgamma
        self.grads["beta"] += dbeta
        return dx


class MaxPool2(Node):
    op = "maxpool"

    def forward(self, x, tape):
        y, idx = ops.maxpool3d(x, tape is not None)
        if tape is not None:
            tape.save(self.name, "idx", self.op, idx)
        return y

    def backward(self, dy, tape):
        return ops.maxpool3d_bwd(tape.take(self.name, "idx"), dy)


class Upsample2(Node):
    op = "upsample"

    def forward(self, x, tape):
        return ops.trilinear_upsample(x)

    def backward(self, dy, tape):
        return ops.trilinear_upsample_bwd(dy)


class Sequential(Node):
    op = "sequential"

    def __init__(self, name, nodes):
        super().__init__(name)
        self.nodes = list(nodes)

    def children(self):
        return self.nodes

    def forward(self, x, tape):
        for node in self.nodes:
            x = node.forward(x, tape)
        return x

    def backward(self, dy, tape):
        for node in reversed(self.nodes):
            dy = node.backward(dy, tape)
        return dy


class RevBlock(Node):
    """Additive-coupling reversible block: y1 = x1 + F(x2), y2 = x2 + G(y1).

    The tape's strategy decides what is kept. Under store-all F and G save
    their contexts on the tape, so they are handed copies of x2 and y1.
    Under reversible they save nothing; backward reconstructs
    x2 = y2 - G(y1) from the stored output and re-runs G then F exactly
    once each on one unregistered scratch tape. Everything else is the same
    coupling on channel-half views (see the module docstring).
    """

    op = "rev"

    def __init__(self, name, f, g):
        super().__init__(name)
        self.f = f
        self.g = g

    def children(self):
        return [self.f, self.g]

    def forward(self, x, tape):
        inner = tape if tape is not None and tape.strategy == "store-all" else None
        x1, x2 = channel_halves(x)
        y = np.empty_like(x)
        y1, y2 = channel_halves(y)
        # F and G save their inputs only on a store-all tape: hand them copies there
        ew_add(x1, self.f.forward(x2 if inner is None else x2.copy(), inner), out=y1)
        ew_add(x2, self.g.forward(y1 if inner is None else y1.copy(), inner), out=y2)
        if tape is not None and inner is None:
            tape.save(self.name, "out", self.op, y)
        return y

    def inverse(self, y):
        y1, y2 = channel_halves(y)
        x = np.empty_like(y)
        x1, x2 = channel_halves(x)
        ew_sub(y2, self.g.forward(y1, None), out=x2)
        ew_sub(y1, self.f.forward(x2, None), out=x1)
        return x

    def backward(self, dy, tape):
        dy1, dy2 = channel_halves(dy)
        dx = np.empty_like(dy)
        dx1, dx2 = channel_halves(dx)
        if tape.strategy == "store-all":
            ew_add(dy1, self.g.backward(dy2, tape), out=dx1)
            ew_add(dy2, self.f.backward(dx1, tape), out=dx2)
        else:
            y1, y2 = channel_halves(tape.take(self.name, "out"))
            # one tape suffices: G's backward takes back all G saved before F saves
            scratch = Tape()
            x2 = ew_sub(y2, self.g.forward(y1, scratch))
            ew_add(dy1, self.g.backward(dy2, scratch), out=dx1)
            self.f.forward(x2, scratch)
            ew_add(dy2, self.f.backward(dx1, scratch), out=dx2)
        return dx


def walk(node):
    """Yield leaf nodes (parameter holders and primitives) in the order a taped
    forward runs them; a forward without a tape reduces before it upsamples."""
    kids = node.children()
    if not kids:
        yield node
        return
    for child in kids:
        yield from walk(child)
