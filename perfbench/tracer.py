"""Per-layer tracing of eatcl from outside the package.

``Tracer.install`` replaces every public function of the given modules,
and the public methods of the classes they define, with a timing wrapper.
Names are imported across modules (``from .nets import forward`` binds
``forward`` in nets, attacks, metrics and strategies), so every binding of
a wrapped function in every loaded ``eatcl`` module is replaced, and
``uninstall`` puts each one back.

Spans are aggregated as they close, per (name, parent name), where the
parent is the innermost enclosing wrapped call. A span's self time is its
duration minus the durations of its wrapped children.
"""

from __future__ import annotations

import inspect
import sys
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _batch(index, name):
    return lambda args, kwargs, *_: len(_arg(args, kwargs, index, name))


def _grad_rows(args, kwargs, *_):
    return len(_arg(args, kwargs, 1, "grads").input_grads)


def _summed_grad_rows(args, kwargs, *_):
    return len(args[0].input_grads) + len(args[1].input_grads)


def _mixed_batch(args, kwargs, *_):
    x_mem = _arg(args, kwargs, 3, "x_mem")
    return len(_arg(args, kwargs, 1, "x_cur")) + (0 if x_mem is None else len(x_mem))


def _entry_refs(args, kwargs):
    return sys.getrefcount(_arg(args, kwargs, 1, "entry"))


def _slot_written(args, kwargs, result, refs_before):
    """1 if reservoir_insert kept its entry: a stored entry gains exactly one
    reference (CPython reference counts), whether appended or put in a slot."""
    return int(_entry_refs(args, kwargs) > refs_before)


# Rows of work per call, counted after the call returns, from
# (args, kwargs, result, value of the BEFORE hook or None). For sgd_step and
# add_grads, the rows behind the gradients applied; for reservoir_insert,
# the slots written (each call offers one row).
ROWS = {
    "nets.forward": _batch(1, "x"),
    "nets.backward": _batch(1, "x"),
    "nets.softmax_ce": _batch(0, "logits"),
    "nets.ce_loss_and_grads": _batch(1, "x"),
    "nets.sgd_step": _grad_rows,
    "nets.add_grads": _summed_grad_rows,
    "attacks.attack": _batch(1, "x"),
    "attacks.pgd": _batch(1, "x"),
    "attacks.fgsm": _batch(1, "x"),
    "attacks.input_grad": _batch(1, "x"),
    "attacks.project_linf": _batch(0, "x_adv"),
    "replay.sample": lambda args, kwargs, *_: _arg(args, kwargs, 1, "batch_size"),
    "replay.sample_arrays": lambda args, kwargs, result, _: len(result[0]),
    "replay.reservoir_insert": _slot_written,
    "metrics.predict": _batch(1, "x"),
    "metrics.clean_accuracy": _batch(1, "test"),
    "metrics.robustness": _batch(1, "test"),
    "metrics.prev_task_rate": _batch(2, "ae"),
    "strategies.at_minibatch_step": _mixed_batch,
    "strategies.cat_minibatch_step": _mixed_batch,
    "strategies.der_terms": _batch(1, "buf_x"),
}
BEFORE = {"replay.reservoir_insert": _entry_refs}


def _public_functions(module):
    """(owner, attribute, name) for the module's public functions and the
    public methods of the classes it defines."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, f"{short}.{attr}"
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield obj, meth, f"{short}.{meth}"


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "eatcl" or n.startswith("eatcl."))]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # (name, parent name or None) -> [calls, rows, total seconds, self seconds]
        self.stats: dict[tuple[str, str | None], list] = {}
        self._stack: list[list] = []  # [name, seconds spent in wrapped children]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        clock, stack, stats = self.clock, self._stack, self.stats
        rows, before = ROWS.get(name), BEFORE.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            state = before(args, kwargs) if before is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += took
            rec = stats.get((name, parent))
            if rec is None:
                rec = stats[(name, parent)] = [0, 0, 0.0, 0.0]
            rec[0] += 1
            if rows is not None:
                rec[1] += rows(args, kwargs, result, state)
            rec[2] += took
            rec[3] += took - frame[1]
            return result

        traced.__wrapped__ = fn
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced._perfbench_tracer = self
        return traced

    def install(self, modules) -> None:
        """Wrap the public functions of ``modules`` at every binding in every
        loaded eatcl module, and the public methods of their classes."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        package = _package_modules()
        for module in modules:
            for owner, attr, name in _public_functions(module):
                original = vars(owner)[attr]
                wrapper = self.wrap(name, original)
                if inspect.isclass(owner):
                    self._undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in package:
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, binding, original))
                            setattr(mod, binding, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def bindings_restored(self, modules) -> bool:
        """True when no loaded eatcl module or class of ``modules`` still
        holds a wrapper made by this tracer."""
        owners = _package_modules()
        owners += [obj for m in modules for obj in vars(m).values()
                   if inspect.isclass(obj) and obj.__module__ == m.__name__]
        return not any(getattr(v, "_perfbench_tracer", None) is self
                       for owner in owners for v in vars(owner).values())

    def totals(self) -> dict[str, list]:
        """Per name, summed over parents: [calls, rows, total s, self s]."""
        out: dict[str, list] = {}
        for (name, _), rec in self.stats.items():
            acc = out.setdefault(name, [0, 0, 0.0, 0.0])
            for i, v in enumerate(rec):
                acc[i] += v
        return out

    def rows_under(self, name: str, parent_prefix: str) -> int:
        return sum(rec[1] for (n, parent), rec in self.stats.items()
                   if n == name and parent is not None
                   and parent.startswith(parent_prefix))

    def top_level_seconds(self) -> float:
        return sum(rec[2] for (_, parent), rec in self.stats.items() if parent is None)
