"""Spans around calls into mkernel's public functions, recorded from outside.

`Tracer.install` rebinds each traced function, in every loaded ``mkernel``
module that holds it, to a wrapper that times the call; `uninstall` puts the
originals back. No file of the program is edited. Spans nest: a span's self
time is its duration minus the time its child spans cover, so the self times
of all spans inside an op add up to the op's traced wall time, apart from the
benchmark's own glue code around the call.

Spans are aggregated by name (total time, self time, calls) as they close;
hooks add work counts taken from a call's arguments or result.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name). A class attribute is written "Class.method".
TARGETS = [
    ("mkernel.kernels", "MatrixKernel.eval_pairs", "kernels.eval_pairs"),
    ("mkernel.kernels", "gram_blocks", "kernels.gram_blocks"),
    ("mkernel.kernels", "build_kernel", "kernels.build_kernel"),
    ("mkernel.certify", "assemble_gram", "certify.assemble_gram"),
    ("mkernel.certify", "certify_psd", "certify.certify_psd"),
    ("mkernel.certify", "random_search_witness", "certify.random_search_witness"),
    ("mkernel.integral", "measure_gram", "integral.measure_gram"),
    ("mkernel.integral", "equivalence_harness", "integral.equivalence_harness"),
    ("mkernel.integral", "discretization_gap", "integral.discretization_gap"),
    ("mkernel.integral", "random_test_functions", "integral.random_test_functions"),
    ("mkernel.integral", "mercer_test_function", "integral.mercer_test_function"),
    ("mkernel.integral", "quadform", "integral.quadform"),
    ("mkernel.spectral", "nystrom_decompose", "spectral.nystrom_decompose"),
    ("mkernel.spectral", "trace_functional", "spectral.trace_functional"),
    ("mkernel.applications.energy", "minimize_energy", "energy.minimize_energy"),
    ("mkernel.applications.energy", "discrete_energy", "energy.discrete_energy"),
    ("mkernel.applications.control", "assemble_control_qp", "control.assemble_control_qp"),
    ("mkernel.applications.control", "solve_qp", "control.solve_qp"),
    ("mkernel.applications.estimation", "ridge_estimate", "estimation.ridge_estimate"),
    ("mkernel.applications.estimation", "load_dataset_csv", "estimation.load_dataset_csv"),
    ("mkernel.cli", "main", "cli.main"),
]


def _held_bytes(blocks, flat) -> int:
    """Bytes held by a block array and its flattened copy, once each unless shared."""
    total = blocks.nbytes
    if not np.may_share_memory(blocks, flat):
        total += flat.nbytes
    return total


def _count_pairs(counts, args, result):
    counts["kernels.pairs"] += len(args[1])


def _gram_size(counts, args, result):
    held = _held_bytes(result.blocks, result.data)
    counts["certify.gram_bytes_max"] = max(counts["certify.gram_bytes_max"], held)


def _measure_gram_size(counts, args, result):
    held = _held_bytes(result.blocks, result.flat)
    counts["integral.measure_gram_bytes_max"] = max(counts["integral.measure_gram_bytes_max"], held)


def _test_functions(counts, args, result):
    counts["integral.test_functions"] += len(result)


def _iterations(counts, args, result):
    counts["energy.iterations"] += result.iterations


HOOKS = {
    "kernels.eval_pairs": _count_pairs,
    "certify.assemble_gram": _gram_size,
    "integral.measure_gram": _measure_gram_size,
    "integral.random_test_functions": _test_functions,
    "energy.minimize_energy": _iterations,
}


class Tracer:
    """Aggregates span times and work counts while installed."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # child time accumulated by each open span
        self._saved = []  # (owner, attribute, original) to restore

    def wrap(self, fn, name):
        hook = HOOKS.get(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                self.total[name] += dur
                self.self_time[name] += dur - child
                self.calls[name] += 1
            if hook is not None:
                hook(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, attr, name in TARGETS:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._saved.append((owner, meth, original))
                setattr(owner, meth, self.wrap(original, name))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, name)
            # Rebind every module-level name that refers to this function, so
            # calls through `from .x import f` copies are traced as well.
            for other in list(sys.modules.values()):
                mname = getattr(other, "__name__", "")
                if not (mname == "mkernel" or mname.startswith("mkernel.")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._saved.append((other, key, original))
                        setattr(other, key, wrapper)

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def span_self_sum(self) -> float:
        return sum(self.self_time.values())
