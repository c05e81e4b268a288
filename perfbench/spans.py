"""Span tracing for the benchmark's traced run.

Each traced function is wrapped in every ``metasgld`` module namespace that
holds it, because callers look names up in their own module: ``meta_sgld``
calls its own ``batch_grad`` binding, not ``model.batch_grad``.  A wrapper
records one span (name, start, end, parent) per call.  Spans are kept in
memory and written out once, after the run.

A function that no longer exists is skipped, and its metrics are absent from
the summary rather than failing the run.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Dict, List

# (span name, module in metasgld, function).  Several functions may share one
# span name: both CSV writers count as the records layer.
TRACED = (
    ("cli.parse_config", "cli", "parse_config"),
    ("cli.run_experiment", "cli", "run_experiment"),
    ("core.derive_stream", "core", "derive_stream"),
    ("task_env.sample_task", "task_env", "sample_task"),
    ("task_env.sample_dataset", "task_env", "sample_dataset"),
    ("task_env.sample_minibatch", "task_env", "sample_minibatch"),
    ("model.batch_grad", "model", "batch_grad"),
    ("model.batch_risk", "model", "batch_risk"),
    ("meta_sgld.draw_task_batch", "meta_sgld", "draw_task_batch"),
    ("meta_sgld.inner_adapt", "meta_sgld", "inner_adapt"),
    ("meta_sgld.estimate_eps_u", "meta_sgld", "estimate_eps_u"),
    ("meta_sgld.outer_step", "meta_sgld", "outer_step"),
    ("bounds.assemble_alt_bound", "bounds", "assemble_alt_bound"),
    ("evaluate.observed_gap", "evaluate", "observed_gap"),
    ("evaluate.adapt_eval", "evaluate", "adapt_eval"),
    ("joint_sgld.joint_loss_grad", "joint_sgld", "joint_loss_grad"),
    ("joint_sgld.joint_sgld_step", "joint_sgld", "joint_sgld_step"),
    ("joint_sgld.run_joint_sgld", "joint_sgld", "run_joint_sgld"),
    ("records.write", "records", "write_csv"),
    ("records.write", "cli", "_write_joint_csv"),
)

# Span name -> the call's arguments that sum to the number of tasks it handles.
TASK_ARGS = {"evaluate.observed_gap": ("n_train_probe", "n_test")}

# Inner paths called directly by the meta step are the live (replica-0) paths;
# the others are the Monte-Carlo replicas.
LIVE_CHILD, LIVE_PARENT = "meta_sgld.inner_adapt", "meta_sgld.outer_step"


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.nested = array("b")   # 1 if a span of the same name encloses it
        self.tasks: Dict[str, int] = {}
        self._stack = [-1]
        self._depth: List[int] = []

    def install(self, package: str = "metasgld") -> None:
        """Wrap every TRACED function found in the already-imported package."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for span, module, func in TRACED:
            fn = getattr(sys.modules.get(f"{package}.{module}"), func, None)
            if not callable(fn):
                continue
            if span not in self.names:
                self.names.append(span)
                self._depth.append(0)
            wrapped = self._wrap(fn, self.names.index(span), span)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)

    def _wrap(self, fn, name_id: int, span: str):
        clock = time.perf_counter_ns
        stack, depth = self._stack, self._depth
        task_args = TASK_ARGS.get(span)
        sig = inspect.signature(fn) if task_args else None
        if sig is not None and not set(task_args) <= set(sig.parameters):
            sig = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs).arguments
                self.tasks[span] = (self.tasks.get(span, 0)
                                    + sum(int(bound[a]) for a in task_args))
            idx = len(self.name_of)
            self.name_of.append(name_id)
            self.parent.append(stack[-1])
            self.nested.append(depth[name_id] > 0)
            self.end.append(0)
            stack.append(idx)
            depth[name_id] += 1
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                depth[name_id] -= 1
                stack.pop()

        return traced

    def summary(self, time_scale: float = 1.0) -> Dict[str, float]:
        """``<span>.calls``, ``<span>.s`` and ``<span>.self_s`` for every
        installed span, plus the live-path time and task counts.

        ``.s`` sums the outermost spans of a name, so recursion is not
        counted twice; ``.self_s`` is a span's duration minus the time its
        direct children cover.  Seconds are multiplied by ``time_scale``.
        """
        n = len(self.name_of)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        k = len(self.names)
        calls, total, own = [0] * k, [0] * k, [0] * k
        for i in range(n):
            nid = self.name_of[i]
            calls[nid] += 1
            own[nid] += dur[i] - child[i]
            if not self.nested[i]:
                total[nid] += dur[i]
        out: Dict[str, float] = {}
        for nid, span in enumerate(self.names):
            out[f"{span}.calls"] = calls[nid]
            out[f"{span}.s"] = total[nid] * time_scale / 1e9
            out[f"{span}.self_s"] = own[nid] * time_scale / 1e9
        if LIVE_CHILD in self.names and LIVE_PARENT in self.names:
            c, p = self.names.index(LIVE_CHILD), self.names.index(LIVE_PARENT)
            live = sum(dur[i] for i in range(n) if self.name_of[i] == c
                       and self.parent[i] >= 0
                       and self.name_of[self.parent[i]] == p)
            out[f"{LIVE_CHILD}.live_s"] = live * time_scale / 1e9
        for span, count in self.tasks.items():
            out[f"{span}.tasks"] = count
        return out

    def write(self, path: str) -> None:
        """Write all spans as tab-separated rows: id, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.name_of)):
                fh.write(f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i]}"
                         f"\t{self.end[i]}\t{self.parent[i]}\n")
