"""Spans around calls into hmge, recorded from outside the package.

``Tracer.install`` replaces selected public functions and methods of the
loaded ``hmge`` modules with timing wrappers; ``Tracer.restore`` puts every
original object back. Nothing under ``src/`` is changed. A function that
another hmge module imported by name (``from .multiplex import ...``) is
replaced under every name that refers to it, so calls between modules are
seen too.

Each span records (name, stage, epoch, start, end). ``stage`` is the
pipeline stage the benchmark is in; ``epoch`` is the training epoch while
``training.train`` runs its loop and None elsewhere (including the final
encode inside ``train``). Tape ops also get their pullback wrapped, so their
backward time lands in the epoch's ``.bwd`` spans.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# Tape ops reported one by one; every other op is summed under "other".
NAMED_OPS = (
    "spmm",
    "spmm_var",
    "csr_normalize",
    "csr_combine_stack",
    "csr_combine",
    "matmul",
    "batched_matmul",
    "batched_matvec",
    "mix_stack",
    "stack_matrices",
    "relu",
    "tanh",
    "row_normalize_signed",
    "permute_rows",
    "bilinear_form",
)
# Public autodiff functions that are not tape ops.
NOT_OPS = ("sigmoid_value", "uniform_weights", "grad_check")

# (module, attribute) pairs timed as plain spans named "<module>.<attribute>".
MODULE_FUNCTIONS = (
    ("sbm", "save_dataset"),
    ("multiplex", "save_multiplex"),
    ("multiplex", "load_multiplex"),
    ("multiplex", "normalize_adjacency"),
    ("model", "init_params"),
    ("model", "build_latent_structure"),
    ("model", "build_embedding_chain"),
    ("training", "build_loss_nodes"),
    ("evaluation", "split_links"),
    ("evaluation", "link_scores"),
    ("evaluation", "auc_roc"),
    ("evaluation", "average_precision"),
    ("evaluation", "logistic_fit"),
    ("evaluation", "classify"),
)
# (module, class, method) triples timed as "<module>.<class>.<method>".
METHODS = (
    ("model", "EncodePlan", "__init__"),
    ("training", "AdamState", "step"),
    ("autodiff", "SpmmPlan", "matmul"),
    ("autodiff", "SpmmPlan", "matmul_transpose"),
    ("autodiff", "SpmmPlan", "grad_values"),
    ("autodiff", "NormalizePlan", "forward"),
    ("autodiff", "NormalizePlan", "backward"),
)


def hmge_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hmge" or name.startswith("hmge."))]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple, float] = {}
        self.stage: str | None = None
        self.epoch: int | None = None
        self.alloc_peak_bytes = 0
        self._in_train = False
        self._encode_depth = 0
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _epoch_key(self):
        if self._in_train and self._encode_depth == 0:
            return self.epoch
        return None

    def count(self, name: str, amount: float = 1) -> None:
        key = (name, self.stage, self._epoch_key())
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, self.stage, self._epoch_key(), start,
                               time.perf_counter()))

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _op(self, group, fn, node_type):
        fwd, bwd = f"autodiff.{group}.fwd", f"autodiff.{group}.bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(f"autodiff.{group}.calls")
            node = self.call(fwd, fn, *args, **kwargs)
            if isinstance(node, node_type) and node._backward is not None:
                pullback = node._backward
                node._backward = lambda g: self.call(bwd, pullback, g)
            return node
        return wrapper

    def _train(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._in_train, self.epoch = True, -1
            try:
                return self.call("training.train", fn, *args, **kwargs)
            finally:
                self._in_train, self.epoch = False, None
        return wrapper

    def _lift_params(self, fn):
        # train() lifts the parameters once at the start of every epoch.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_train and self._encode_depth == 0:
                self.epoch += 1
            return self.call("model.lift_params", fn, *args, **kwargs)
        return wrapper

    def _encode(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._encode_depth += 1
            try:
                return self.call("model.encode", fn, *args, **kwargs)
            finally:
                self._encode_depth -= 1
        return wrapper

    def _generate(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return self.call("sbm.generate_multiplex", fn, *args, **kwargs)
            finally:
                self.alloc_peak_bytes = max(self.alloc_peak_bytes,
                                            tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return wrapper

    def _backward(self, fn):
        @functools.wraps(fn)
        def wrapper(tape, loss):
            self.count("autodiff.tape.nodes", len(tape.nodes))
            self.count("autodiff.tape.value_bytes",
                       sum(n.value.nbytes for n in tape.nodes if n.value is not None))
            return self.call("autodiff.Tape.backward", fn, tape, loss)
        return wrapper

    def _grad_values(self, fn):
        # Bytes crossing the call boundary: both dense operands and the result.
        @functools.wraps(fn)
        def wrapper(plan, g, h):
            out = self.call("autodiff.SpmmPlan.grad_values", fn, plan, g, h)
            self.count("autodiff.SpmmPlan.grad_values.bytes", g.nbytes + h.nbytes + out.nbytes)
            return out
        return wrapper

    # -- install / restore -------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in hmge_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        import hmge.autodiff as ad
        import hmge.evaluation
        import hmge.model
        import hmge.multiplex
        import hmge.sbm
        import hmge.training

        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m.__name__.split(".")[-1]: m for m in hmge_modules()}
        for mod, attr in MODULE_FUNCTIONS:
            fn = getattr(mods[mod], attr)
            self._replace_everywhere(fn, self._timed(f"{mod}.{attr}", fn))
        for mod, cls_name, attr in METHODS:
            cls = getattr(mods[mod], cls_name)
            fn = cls.__dict__[attr]
            wrapper = (self._grad_values(fn) if attr == "grad_values"
                       else self._timed(f"{mod}.{cls_name}.{attr}", fn))
            self._replace_method(cls, attr, wrapper)
        self._replace_method(ad.Tape, "backward", self._backward(ad.Tape.backward))
        for fn, make in ((hmge.training.train, self._train),
                         (hmge.model.lift_params, self._lift_params),
                         (hmge.model.encode, self._encode),
                         (hmge.sbm.generate_multiplex, self._generate)):
            self._replace_everywhere(fn, make(fn))
        for attr, fn in list(vars(ad).items()):
            if (callable(fn) and getattr(fn, "__module__", None) == ad.__name__
                    and not attr.startswith("_") and not isinstance(fn, type)
                    and attr not in NOT_OPS):
                group = attr if attr in NAMED_OPS else "other"
                self._replace_everywhere(fn, self._op(group, fn, ad.Node))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
