"""Spans around the program's public functions, installed from outside.

A wrapper replaces a function where its callers look it up (a module or
class attribute), so `closed_forms.hyp_pfq` and `basis.hyp_pfq` are both
wrapped, not only `scalars.hyp_pfq`.  While tracing is enabled each call
records a span [name, start, end, parent index]; spans stay in memory and
are written out when the job ends.  A span's self time is its duration
minus the time its child spans cover.

The recursive, lru-cached `closed_forms._poch` is not wrapped: a wrapper
would double its stack depth and move the depth at which it raises
RecursionError.  Its `cache_info()` is read instead.
"""

import functools
import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []
        self.counts = {}
        self._stack = []

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr by a span-recording wrapper.  `observe(args,
        result)` may add to `counts` after each traced call."""
        setattr(owner, attr, self._spanned(getattr(owner, attr), name, observe))

    def wrap_classmethod(self, cls, attr: str, name: str) -> None:
        fn = cls.__dict__[attr].__func__
        setattr(cls, attr, classmethod(self._spanned(fn, name, None)))

    def _spanned(self, fn, name: str, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Count calls without a span, for functions too hot to time."""
        fn = getattr(owner, attr)
        counts = self.counts
        counts[key] = 0

        def wrapper(*args):
            if self.enabled:
                counts[key] += 1
            return fn(*args)

        setattr(owner, attr, wrapper)

    def add(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def layers(self) -> dict:
        """Flat per-layer values: `<span>.calls`, `<span>.self_s`, counts."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = dict(self.counts)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = (out.get(f"{name}.self_s", 0.0)
                                     + (end - start) - covered[i])
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every polyconv module the workloads use."""
    from polyconv import (basis, cli, closed_forms, convmat, generic_conv,
                          oracle, scalars)

    def pfq_terms(args, result):
        # a terminating pFq sums t + 1 terms, -t its least nonpositive
        # integer numerator parameter
        ints = [scalars.as_integer(a) for a in args[0]]
        tracer.add("scalars.hyp_pfq.terms",
                   1 + min(-k for k in ints if k is not None and k <= 0))

    def zero_hit(args, result):
        tracer.add("closed_forms.structural_zero.hits", bool(result))

    for module in (closed_forms, basis):
        tracer.wrap(module, "hyp_pfq", "scalars.hyp_pfq", pfq_terms)
    tracer.wrap(closed_forms, "log10_abs", "scalars.log10_abs")
    tracer.count_calls(scalars.Scalar, "_binop", "scalars.binop.calls")

    tracer.wrap(closed_forms, "rho_closed", "closed_forms.rho_closed")
    tracer.wrap(closed_forms, "rho_closed_vector",
                "closed_forms.rho_closed_vector")
    tracer.wrap(convmat, "rho_closed_vector", "closed_forms.rho_closed_vector",
                lambda args, result: tracer.add("convmat.rho_vectors"))
    tracer.wrap(closed_forms, "magnitude_grid", "closed_forms.magnitude_grid")
    tracer.wrap(closed_forms, "structural_zero",
                "closed_forms.structural_zero", zero_hit)

    tracer.wrap(convmat, "build_matrix", "convmat.build_matrix")
    tracer.wrap(convmat.ConvMatrix, "matvec", "convmat.matvec")
    tracer.wrap(convmat, "convolve_series", "convmat.convolve_series")

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "read_series", "cli.read_series")
    tracer.wrap(cli, "run_verification", "cli.run_verification")
    tracer.wrap(closed_forms, "write_magnitude_csv", "cli.write")
    tracer.wrap(convmat, "write_matrix_dense_csv", "cli.write")

    tracer.wrap_classmethod(basis.GenericBasisData, "from_family",
                            "basis.from_family")
    tracer.wrap(basis, "monomial_expansion_b", "basis.monomial_expansion_b")
    tracer.wrap(basis, "endpoint_derivative", "basis.endpoint_derivative")
    tracer.wrap(generic_conv, "rho_vector", "generic_conv.rho_vector")

    for attr in ("oracle_rho", "convolve_exact", "project_to_family",
                 "to_monomial"):
        tracer.wrap(oracle, attr, f"oracle.{attr}")
