"""Out-of-program tracing of vastsum's public functions.

`Tracer.install()` wraps each function in `TARGETS` and rebinds every name
bound to it in every loaded `vastsum` module (for example `knapsack_select`
lives in both `decoder` and `losses`, `decode_summary` in `decoder`,
`evaluation` and `cli`). A wrapper records one span per call: name, start,
end, parent span and step id, kept in memory until `write_spans`. Self time
is a span's duration minus its direct children's. `layer_metrics()` turns
the spans and the counters the hooks collect into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import time
from collections import Counter
from contextlib import contextmanager

# The tape's primitives; a name missing from diffcore is skipped.
PRIMITIVES = (
    "matmul", "add", "subtract", "multiply", "mean_over_sets", "layer_norm",
    "softmax_rows", "gelu", "sigmoid", "exp", "log", "square", "clip",
    "gather_rows", "depthwise_conv1d", "pointwise_conv1d", "concat_last", "scale",
)

TARGETS = tuple(("diffcore", p) for p in PRIMITIVES) + (
    ("diffcore", "backward"),
    ("scorer", "project_and_embed"),
    ("scorer", "segment_tokenize"),
    ("scorer", "segment_transformer"),
    ("scorer", "gated_fusion"),
    ("scorer", "temporal_refine"),
    ("prob_head", "forward"),
    ("losses", "tvsum_nll"),
    ("losses", "ranking_hinge"),
    ("losses", "kl_standard_normal"),
    ("losses", "stability_loss"),
    ("losses", "total_loss"),
    ("decoder", "knapsack_select"),
    ("decoder", "decode_summary"),
    ("timeline", "expand_scores"),
    ("timeline", "assign_segment_ids"),
    ("trainer", "build_video_loss"),
    ("trainer", "draw_noise"),
    ("trainer", "clip_global_norm"),
    ("trainer", "adamw_step"),
    ("trainer", "predict_scores"),
    ("checkpoint", "save_params"),
    ("checkpoint", "load_params"),
    ("data", "load_dataset"),
    ("evaluation", "kendall_tau"),
    ("evaluation", "spearman_rho"),
    ("evaluation", "average_ranks"),
    ("evaluation", "flip_rate"),
)

# Node kinds the tape records in tvsum training; one count metric each.
NODE_KINDS = (
    "const", "param", "matmul", "add", "subtract", "multiply", "mean-over-set",
    "layer-norm", "softmax-rows", "gelu", "sigmoid", "exp", "log", "square", "clip",
    "gather-rows", "depthwise-conv1d", "pointwise-conv1d", "concat-last-dim",
    "scalar-scale",
)

# A call to one of these with no traced caller starts a new step id: a
# training video-step starts at draw_noise, an inference request at predict.
STEP_ROOTS = {"trainer.draw_noise", "trainer.predict_scores", "decoder.decode_summary",
              "evaluation.flip_rate"}

# Self time in ms per call, for every target but the primitives and backward.
PER_CALL_MS = tuple(f"{m}.{a}" for m, a in TARGETS[len(PRIMITIVES) + 1:])

STEP = "trainer.build_video_loss"
KNAPSACK = "decoder.knapsack_select"
FLIP = "evaluation.flip_rate"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent, step]
        self.stack: list[int] = []
        self.step = 0
        self.kinds: Counter = Counter()  # node kinds summed over backward calls
        self.backward_calls = 0
        self.knapsack_cells = 0
        self.repeats = [0, 0]  # [solves equal to the batch's first, solves after the first]
        self.batch: list | None = None
        self.clips = [0, 0]  # [rescaled, calls]
        self.bytes: Counter = Counter()
        self.bytes_calls: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        root = name in STEP_ROOTS
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if root and not stack:
                self.step += 1
            span = [nid, 0, 0, stack[-1] if stack else -1, self.step]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _hooks(self, name: str):
        """(before, after) callbacks that collect a target's counters."""
        if name == "diffcore.backward":
            def after(args, kwargs, result):
                self.backward_calls += 1
                self.kinds.update(node.kind for node in args[0].nodes)
            return None, after
        if name == KNAPSACK:
            def after(args, kwargs, result):
                inst = args[0] if args else kwargs["instance"]
                self.knapsack_cells += len(inst.weights) * (inst.capacity + 1)
                if self.batch is not None:
                    self.batch.append(result.tobytes())
            return None, after
        if name in ("losses.stability_loss", FLIP):
            def before(args, kwargs):
                self.batch = []

            def after(args, kwargs, result):
                first, rest = self.batch[0], self.batch[1:]
                self.repeats[0] += sum(sel == first for sel in rest)
                self.repeats[1] += len(rest)
                self.batch = None
            return before, after
        if name == "trainer.clip_global_norm":
            def after(args, kwargs, result):
                self.clips[0] += result is not args[0]
                self.clips[1] += 1
            return None, after
        if name == "checkpoint.save_params":
            def after(args, kwargs, result):
                self._count_bytes(name, args[1] if len(args) > 1 else kwargs["path"])
            return None, after
        if name in ("checkpoint.load_params", "data.load_dataset"):
            def before(args, kwargs):
                self._count_bytes(name, args[0] if args else kwargs["path"])
            return before, None
        return None, None

    def _count_bytes(self, name, path):
        self.bytes[name] += os.path.getsize(path)
        self.bytes_calls[name] += 1

    @contextmanager
    def install(self):
        """Rebind every target in every vastsum module for the block's duration."""
        import vastsum

        modules = {m.name: importlib.import_module(f"vastsum.{m.name}")
                   for m in pkgutil.iter_modules(vastsum.__path__)}
        patched = []
        for module_name, attr in TARGETS:
            fn = getattr(modules[module_name], attr, None)
            if fn is None:
                continue
            name = f"{module_name}.{attr}"
            wrapper = self.wrap(name, fn, *self._hooks(name))
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        patched.append((module, key, fn))
        try:
            yield self
        finally:
            for module, key, fn in reversed(patched):
                setattr(module, key, fn)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[int]:
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def _ancestor_names(self, index: int) -> set[str]:
        names = set()
        parent = self.spans[index][3]
        while parent >= 0:
            names.add(self.names[self.spans[parent][0]])
            parent = self.spans[parent][3]
        return names

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        self_ns = self.self_times()
        total_ns: Counter = Counter()
        calls: Counter = Counter()
        prim_ns_in_step = 0
        knap_in_step = knap_in_flip = 0
        primitives = {f"diffcore.{p}" for p in PRIMITIVES}
        for i, span in enumerate(self.spans):
            name = self.names[span[0]]
            total_ns[name] += self_ns[i]
            calls[name] += 1
            if name in primitives or name == KNAPSACK:
                above = self._ancestor_names(i)
                if name == KNAPSACK:
                    knap_in_step += STEP in above
                    knap_in_flip += FLIP in above
                elif STEP in above:
                    prim_ns_in_step += self_ns[i]

        def ratio(num, den):
            return num / den if den else 0.0

        steps = calls[STEP]
        out: dict[str, tuple[float, str]] = {
            "diffcore.nodes_per_step": (ratio(sum(self.kinds.values()), self.backward_calls), "count"),
        }
        for kind in NODE_KINDS:
            out[f"diffcore.nodes_per_step.{kind}"] = (ratio(self.kinds[kind], self.backward_calls), "count")
        out["diffcore.primitive_ms_per_step"] = (ratio(prim_ns_in_step, steps) / 1e6, "ms")
        out["diffcore.backward_ms_per_step"] = (
            ratio(total_ns["diffcore.backward"], calls["diffcore.backward"]) / 1e6, "ms")
        for name in PER_CALL_MS:
            out[f"{name}_ms"] = (ratio(total_ns[name], calls[name]) / 1e6, "ms")
        out["decoder.knapsack_calls_per_step"] = (ratio(knap_in_step, steps), "count")
        out["decoder.knapsack_calls_per_flip_rate"] = (ratio(knap_in_flip, calls[FLIP]), "count")
        out["decoder.knapsack_ns_per_cell"] = (ratio(total_ns[KNAPSACK], self.knapsack_cells), "ns")
        out["decoder.knapsack_repeat_share"] = (ratio(*self.repeats), "share")
        out["trainer.clip_active_share"] = (ratio(*self.clips), "share")
        for name, metric in (("checkpoint.save_params", "checkpoint.save_bytes"),
                             ("checkpoint.load_params", "checkpoint.load_bytes"),
                             ("data.load_dataset", "data.load_bytes")):
            out[metric] = (ratio(self.bytes[name], self.bytes_calls[name]), "bytes")
        return out

    def write_spans(self, path: str) -> None:
        """One CSV row per span; parent is a row index (-1 for none)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,step\n")
            for nid, start, end, parent, step in self.spans:
                fh.write(f"{self.names[nid]},{start},{end},{parent},{step}\n")
