"""Span recorder that wraps the program's public functions from outside.

Every public function defined in a layer module is replaced, in every
``tabmtl`` module that holds it, by a wrapper that records one span: its name
(``<module>.<function>``), start, end, parent span and op id. So a call that
``train.py`` makes through its own ``forward`` name is seen as
``network.forward``. Spans stay in memory until ``write``.

A name that a later version of the program no longer defines is listed in
``absent`` and its metrics read zero; the run goes on.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("dataset", "network", "optim", "train", "metrics", "attrib", "cli")

# called once per CSV cell; a span each would cost more than the work it times
EXCLUDED = {"dataset.format_cell"}


def _macs_per_row(topology) -> int:
    """Multiply-adds of one forward pass per input row, from the layer shapes."""
    total, width = 0, topology.input_dim
    for units in topology.shared_layers:
        total += width * units
        width = units
    for head in topology.heads:
        a = width
        for units in (*head.hidden_layers, head.output_dim):
            total += a * units
            a = units
    return total


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _forward_flop(args, kwargs, result):
    state, batch = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 1, "batch")
    return 2 * len(batch) * _macs_per_row(state.topology)


def _backward_flop(args, kwargs, result):
    # one matmul for the weight gradient and one for the input gradient per layer
    state, targets = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 2, "targets")
    return 4 * len(targets[0]) * _macs_per_row(state.topology)


def _file_bytes(pos, name):
    def measure(args, kwargs, result):
        return Path(_arg(args, kwargs, pos, name)).stat().st_size
    return measure


# extra figures recorded per call: span name -> (figure, function of the call)
EXTRAS = {
    "network.forward": ("flop", _forward_flop),
    "network.backward": ("flop", _backward_flop),
    "dataset.write_dataset_csv": ("bytes", _file_bytes(1, "path")),
    "network.save_model": ("bytes", _file_bytes(1, "path")),
}


class Tracer:
    def __init__(self, expected: dict[str, tuple[str, ...]]):
        """``expected`` maps a layer to the function names the report cites."""
        self.spans: list[tuple] = []   # (op, id, parent, name, start, end)
        self.extras: list[tuple] = []  # (op, name, figure, value)
        self.stack: list[int] = []
        self.next_id = 0
        self.op = -1
        self.patches: list[tuple] = []  # (module, attribute, original)
        self.absent = sorted(
            f"{layer}.{fn}" for layer, fns in expected.items() for fn in fns
            if not inspect.isfunction(getattr(sys.modules.get(f"tabmtl.{layer}"), fn, None))
        )
        self.wrappers = {}  # original function -> its wrapper
        for layer in LAYERS:
            module = sys.modules.get(f"tabmtl.{layer}")
            for name, obj in vars(module).items() if module else ():
                span = f"{layer}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_") and span not in EXCLUDED):
                    self.wrappers[obj] = self._wrap(span, obj)

    # --- patching ------------------------------------------------------------

    def install(self) -> None:
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "tabmtl"]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self.wrappers:
                    self.patches.append((module, attr, obj))
                    setattr(module, attr, self.wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.patches):
            setattr(module, attr, original)
        self.patches.clear()

    def _wrap(self, span: str, fn):
        extra = EXTRAS.get(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.spans.append((self.op, sid, parent, span, start, end))
            if extra is not None:
                try:
                    value = extra[1](args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    value = None  # the program's signature moved; figure unknown
                self.extras.append((self.op, span, extra[0], value))
            return result

        return wrapper

    # --- ops -------------------------------------------------------------------

    def run_op(self, op_id: int, call):
        """Run ``call`` as op ``op_id`` under a root span named ``op``."""
        self.op = op_id
        sid = self.next_id
        self.next_id += 1
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((op_id, sid, -1, "op", start, end))

    def summarize(self, op_id: int) -> dict:
        """Per-name calls, inclusive and self time, and extras of one op."""
        spans = [s for s in self.spans if s[0] == op_id]
        child = defaultdict(float)
        for _, _, parent, _, start, end in spans:
            child[parent] += end - start
        fns: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for _, sid, _, name, start, end in spans:
            entry = fns[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[sid]
        for op, name, figure, value in self.extras:
            if op == op_id:
                entry = fns[name]
                current = entry.get(figure, 0)
                entry[figure] = None if value is None or current is None else current + value
        return {"op_s": fns.pop("op")["s"], "spans": len(spans) - 1, "functions": dict(fns)}

    def write(self, path: Path) -> None:
        """All spans, one JSON array per line: op, id, parent, name, start, end."""
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
