"""Span tracing of csirecip from outside the library.

A :class:`Tracer` wraps every public function of each csirecip module and
installs the wrapper at every module binding that callers use (so
``keygen.cwt`` is traced as well as ``wavelet.cwt``).  Wrappers are
installed only for the duration of one traced op and removed afterwards,
so untraced ops run the library exactly as shipped.

Each span records name, start, end, parent span, op id, whether the call
raised, and a work count for the few functions that have one.  While an
op is traced, the numpy.fft transforms are wrapped as well, and each adds
the size of its input to the innermost open span: that span's
``fft_points`` counts the FFT work it did itself, whatever the padding.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy

LAYERS = ("authsim", "chansim", "cli", "keygen", "metrics", "reconstruct",
          "traces", "wavelet")

# span record fields
NAME, START, END, PARENT, OP, RAISED, WORK, FFT = range(8)

# numpy.fft transforms whose input size counts as a span's fft_points
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")


def _stream_bytes(index: int):
    """Counter of the bytes a call moves through its stream argument ``index``."""
    return (lambda args: args[index].tell(),
            lambda args, out, before: (args[index].tell() - before,))


def _xcorr_lag_points(args, out, before):
    return (len(out.lags) * len(args[0]),)


def _make_keys_blocks(args, out, before):
    kept, skipped = len(out[0]), out[1]
    return (kept, kept + skipped)


# name -> (counter, state taken before the call from its positional args,
#          work tuple computed after it from (args, result, state)).
# A one-element work tuple is reported per op, a (part, whole) pair as a ratio.
COUNTERS = {
    "traces.parse_csi_csv": ("bytes", *_stream_bytes(0)),
    "traces.write_csi_csv": ("bytes", *_stream_bytes(1)),
    "metrics.xcorr_lag": ("lag_points", None, _xcorr_lag_points),
    "keygen.make_keys": ("block_keep_ratio", None, _make_keys_blocks),
}


class Tracer:
    """Collects spans for traced ops; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object, object]] = []
        self.functions: set[str] = set()
        self._collect_bindings()
        for name in FFT_FUNCS:
            fn = getattr(numpy.fft, name)
            self._patches.append((numpy.fft, name, fn, self._count_fft(fn)))

    def _collect_bindings(self) -> None:
        mods = [sys.modules["csirecip"]] + [
            sys.modules[f"csirecip.{layer}"] for layer in LAYERS
        ]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"csirecip.{layer}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
                    self.functions.add(f"{layer}.{name}")
        for mod in mods:
            for attr, value in vars(mod).items():
                if id(value) in wrappers:
                    self._patches.append((mod, attr, *wrappers[id(value)]))

    def _wrap(self, name: str, fn):
        _, pre, post = COUNTERS.get(name, (None, None, None))
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(args) if pre else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, False, None, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if post:
                rec[WORK] = post(args, out, before)
            return out

        return traced

    def _count_fft(self, fn):
        """Wrap a numpy.fft transform to add its input size to the innermost span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if stack:
                spans[stack[-1]][FFT] += numpy.size(a)
            return fn(a, *args, **kwargs)

        return counted

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Trace the calls made inside the block as op ``op_id``."""
        self._op = op_id
        for mod, attr, _fn, wrapped in self._patches:
            setattr(mod, attr, wrapped)
        try:
            yield
        finally:
            for mod, attr, fn, _wrapped in self._patches:
                setattr(mod, attr, fn)
            self._op = None
            self._stack.clear()

    def knows(self, metric: str) -> bool:
        """Whether ``metric`` names a layer, a traced function or the tracer."""
        parts = metric.split(".")
        return (parts[0] == "trace" or (len(parts) == 2 and parts[0] in LAYERS)
                or ".".join(parts[:2]) in self.functions)

    def layer_metrics(self, ops: set[int]) -> dict[str, float]:
        """Per-op self times, call counts and work counts over ``ops``."""
        child = defaultdict(float)
        for s in self.spans:
            if s[OP] in ops and s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        raised = defaultdict(int)
        work = {}
        fft_points = defaultdict(int)
        n_spans = 0
        for i, s in enumerate(self.spans):
            if s[OP] not in ops:
                continue
            n_spans += 1
            name = s[NAME]
            own_ms = 1e3 * (s[END] - s[START] - child[i])
            self_ms[name] += own_ms
            self_ms[name.split(".")[0]] += own_ms
            calls[name] += 1
            raised[name] += s[RAISED]
            fft_points[name] += s[FFT]
            if s[WORK] is not None:
                prev = work.get(name, (0,) * len(s[WORK]))
                work[name] = tuple(p + w for p, w in zip(prev, s[WORK]))

        n = max(len(ops), 1)
        out = {f"{name}.self_ms": ms / n for name, ms in self_ms.items()}
        out.update({f"{name}.calls": c / n for name, c in calls.items()})
        out.update({f"{name}.fft_points": p / n for name, p in fft_points.items() if p})
        sel = "reconstruct.select_reciprocal_freqs"
        if calls[sel]:
            out[f"{sel}.hit_ratio"] = 1.0 - raised[sel] / calls[sel]
        for name, totals in work.items():
            key = f"{name}.{COUNTERS[name][0]}"
            if len(totals) == 1:
                out[key] = totals[0] / n
            elif totals[1]:
                out[key] = totals[0] / totals[1]
        out["trace.spans_per_op"] = n_spans / n
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line: op, id, parent, name, start, end, raised."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps([s[OP], i, s[PARENT], s[NAME], s[START], s[END],
                                    s[RAISED]]) + "\n")
