"""Per-layer spans recorded from outside the program.

``install()`` replaces chosen gvand functions with timing wrappers at
every import site: the defining module, every gvand module that bound
the same function object by ``from ... import``, and class attributes
for methods.  Nothing under src/ changes; uninstalling restores the
originals.

A span is (name, start_ns, end_ns, parent_index).  Spans stay in memory
for one pass; ``summarize`` turns them into the per-layer metrics.
"""

import math
import sys
import time

# (module, attribute, span name).  "Class.method" patches a class attribute.
WRAPPED = (
    ("gvand.cli", "_build_parser", "cli.args"),
    ("gvand.cli", "_load_support", "cli.load"),
    ("gvand.cli", "_emit", "cli.emit"),
    ("gvand.exponents", "componentwise_min", "exponents.componentwise_min"),
    ("gvand.exponents", "affine_dimension", "exponents.affine_dimension"),
    ("gvand.exponents", "d_gamma", "exponents.d_gamma"),
    ("gvand.exponents", "normalize", "exponents.normalize"),
    ("gvand.exponents", "reduce_to_span_coordinates", "exponents.reduce_to_span_coordinates"),
    ("gvand.exponents", "smith_normal_form", "exponents.smith_normal_form"),
    ("gvand.irreducibility", "decide", "irreducibility.decide"),
    ("gvand.irreducibility", "verify_certificate", "irreducibility.verify_certificate"),
    ("gvand.vandermonde", "vandermonde_determinant", "vandermonde.det"),
    ("gvand.vandermonde", "row_expansion", "vandermonde.row_expansion"),
    ("gvand.kernels", "mul_terms", "kernels.mul_terms"),
    ("gvand.kernels", "add_terms", "kernels.add_terms"),
    ("gvand.kernels", "addmul_terms", "kernels.addmul_terms"),
    ("gvand.poly", "SparsePoly.to_terms_json", "poly.to_terms_json"),
    ("gvand.poly", "SparsePoly.exact_divide", "poly.exact_divide"),
    ("gvand.poly", "SparsePoly.__pow__", "poly.pow"),
    ("gvand.poly", "SparsePoly.frobenius_root", "poly.frobenius_root"),
    ("gvand.poly", "SparsePoly.evaluate", "poly.evaluate"),
    ("gvand.tropical", "decide_tropical_irreducibility", "tropical.decide"),
    ("gvand.tropical", "regular_subdivision", "tropical.regular_subdivision"),
    ("gvand.linalg", "solve_affine", "linalg.solve_affine"),
    ("gvand.linalg", "fraction_rank", "linalg.fraction_rank"),
    ("gvand.oracle", "line_case_factor", "oracle.line"),
    ("gvand.oracle", "classical_divisibility_check", "oracle.classical"),
    ("gvand.oracle", "jacobian_independence_evidence", "oracle.jacobian"),
    ("gvand.oracle", "polygon_indecomposability", "oracle.polygon"),
)

# The per-layer metrics, in report order: name -> unit.
METRICS = {
    "cli.main.self_s": "s",
    "cli.args.s": "s",
    "cli.load.s": "s",
    "cli.emit.s": "s",
    "cli.emit.bytes": "bytes",
    "exponents.calls": "count",
    "exponents.s": "s",
    "irreducibility.decide.calls": "count",
    "irreducibility.decide.s": "s",
    "irreducibility.verify_certificate.self_s": "s",
    "vandermonde.det.calls": "count",
    "vandermonde.det.s": "s",
    "vandermonde.det.terms": "count",
    "vandermonde.row_expansion.calls": "count",
    "vandermonde.row_expansion.s": "s",
    "kernels.mul_terms.calls": "count",
    "kernels.add_terms.calls": "count",
    "kernels.s": "s",
    "kernels.term_products": "count",
    "poly.to_terms_json.s": "s",
    "poly.to_terms_json.terms": "count",
    "poly.exact_divide.calls": "count",
    "poly.exact_divide.s": "s",
    "poly.pow.s": "s",
    "poly.frobenius_root.s": "s",
    "poly.evaluate.calls": "count",
    "poly.evaluate.s": "s",
    "tropical.decide.calls": "count",
    "tropical.decide.s": "s",
    "tropical.regular_subdivision.calls": "count",
    "tropical.regular_subdivision.s": "s",
    "tropical.subsets_tried": "count",
    "linalg.solve_affine.calls": "count",
    "linalg.solve_affine.s": "s",
    "linalg.fraction_rank.s": "s",
    "oracle.line.calls": "count",
    "oracle.line.s": "s",
    "oracle.line.unlucky": "count",
    "oracle.line.success_ratio": "ratio",
    "oracle.classical.s": "s",
    "oracle.jacobian.s": "s",
    "oracle.polygon.s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

# Counters that must repeat exactly for a fixed seed.
EXACT = tuple(
    name
    for name in METRICS
    if name.endswith(".calls")
    or name
    in (
        "kernels.term_products",
        "vandermonde.det.terms",
        "tropical.subsets_tried",
        "poly.to_terms_json.terms",
        "cli.emit.bytes",
        "oracle.line.unlucky",
    )
)

ROOT = "cli.main"  # the benchmark's own span around one cli.main call


class Tracer:
    """Span recorder plus the exact counters computed from call arguments."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent]
        self.stack = []
        self.counts = {
            "kernels.term_products": 0,
            "vandermonde.det.terms": 0,
            "tropical.subsets_tried": 0,
            "poly.to_terms_json.terms": 0,
            "oracle.line.unlucky": 0,
        }
        self._restore = []

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()

    def _wrap(self, name, fn):
        tracer = self
        counts = self.counts
        count = _COUNTERS.get(name)
        unlucky = sys.modules["gvand.errors"].SpecializationUnluckyError

        def wrapper(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except unlucky:
                if name == "oracle.line":
                    counts["oracle.line.unlucky"] += 1
                raise
            finally:
                tracer.close()
            if count is not None:
                count(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every function in WRAPPED at each site that holds it."""
        gvand_modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("gvand") and m]
        for modname, attr, name in WRAPPED:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in gvand_modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()


def _count_mul(counts, args, result):
    counts["kernels.term_products"] += len(args[0]) * len(args[1])


def _count_det(counts, args, result):
    counts["vandermonde.det.terms"] += result.n_terms


def _count_subsets(counts, args, result):
    support = args[0]
    counts["tropical.subsets_tried"] += math.comb(support.N, support.n + 1)


def _count_json_terms(counts, args, result):
    counts["poly.to_terms_json.terms"] += len(result)


_COUNTERS = {
    "kernels.mul_terms": _count_mul,
    "vandermonde.det": _count_det,
    "tropical.regular_subdivision": _count_subsets,
    "poly.to_terms_json": _count_json_terms,
}


def summarize(tracer: Tracer, wall_ns: int, emit_bytes: int) -> dict:
    """Per-layer metrics of one traced pass (trace.overhead is filled in by the caller)."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    def layer(i):
        return spans[i][0].split(".", 1)[0]

    calls = {}
    outer_ns = {}  # span name -> time in spans not nested in the same name
    layer_ns = {}  # layer -> time in spans not nested in the same layer
    self_ns = {}
    covered = 0
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
        if parent < 0:
            covered += dur
            continue
        if not _nested_in(spans, i, lambda j: spans[j][0] == name):
            outer_ns[name] = outer_ns.get(name, 0) + dur
        if not _nested_in(spans, i, lambda j: spans[j][0] != ROOT and layer(j) == layer(i)):
            lay = layer(i)
            layer_ns[lay] = layer_ns.get(lay, 0) + dur

    def s(ns):
        return ns / 1e9

    def c(name):
        return calls.get(name, 0)

    exponent_calls = sum(v for k, v in calls.items() if k.startswith("exponents."))
    line_calls = c("oracle.line")
    unlucky = tracer.counts["oracle.line.unlucky"]
    return {
        "cli.main.self_s": s(self_ns.get(ROOT, 0)),
        "cli.args.s": s(outer_ns.get("cli.args", 0)),
        "cli.load.s": s(outer_ns.get("cli.load", 0)),
        "cli.emit.s": s(outer_ns.get("cli.emit", 0)),
        "cli.emit.bytes": emit_bytes,
        "exponents.calls": exponent_calls,
        "exponents.s": s(layer_ns.get("exponents", 0)),
        "irreducibility.decide.calls": c("irreducibility.decide"),
        "irreducibility.decide.s": s(outer_ns.get("irreducibility.decide", 0)),
        "irreducibility.verify_certificate.self_s": s(self_ns.get("irreducibility.verify_certificate", 0)),
        "vandermonde.det.calls": c("vandermonde.det"),
        "vandermonde.det.s": s(outer_ns.get("vandermonde.det", 0)),
        "vandermonde.det.terms": tracer.counts["vandermonde.det.terms"],
        "vandermonde.row_expansion.calls": c("vandermonde.row_expansion"),
        "vandermonde.row_expansion.s": s(outer_ns.get("vandermonde.row_expansion", 0)),
        "kernels.mul_terms.calls": c("kernels.mul_terms"),
        "kernels.add_terms.calls": c("kernels.add_terms"),
        "kernels.s": s(layer_ns.get("kernels", 0)),
        "kernels.term_products": tracer.counts["kernels.term_products"],
        "poly.to_terms_json.s": s(outer_ns.get("poly.to_terms_json", 0)),
        "poly.to_terms_json.terms": tracer.counts["poly.to_terms_json.terms"],
        "poly.exact_divide.calls": c("poly.exact_divide"),
        "poly.exact_divide.s": s(outer_ns.get("poly.exact_divide", 0)),
        "poly.pow.s": s(outer_ns.get("poly.pow", 0)),
        "poly.frobenius_root.s": s(outer_ns.get("poly.frobenius_root", 0)),
        "poly.evaluate.calls": c("poly.evaluate"),
        "poly.evaluate.s": s(outer_ns.get("poly.evaluate", 0)),
        "tropical.decide.calls": c("tropical.decide"),
        "tropical.decide.s": s(outer_ns.get("tropical.decide", 0)),
        "tropical.regular_subdivision.calls": c("tropical.regular_subdivision"),
        "tropical.regular_subdivision.s": s(outer_ns.get("tropical.regular_subdivision", 0)),
        "tropical.subsets_tried": tracer.counts["tropical.subsets_tried"],
        "linalg.solve_affine.calls": c("linalg.solve_affine"),
        "linalg.solve_affine.s": s(outer_ns.get("linalg.solve_affine", 0)),
        "linalg.fraction_rank.s": s(outer_ns.get("linalg.fraction_rank", 0)),
        "oracle.line.calls": line_calls,
        "oracle.line.s": s(outer_ns.get("oracle.line", 0)),
        "oracle.line.unlucky": unlucky,
        "oracle.line.success_ratio": (line_calls - unlucky) / line_calls if line_calls else 0.0,
        "oracle.classical.s": s(outer_ns.get("oracle.classical", 0)),
        "oracle.jacobian.s": s(outer_ns.get("oracle.jacobian", 0)),
        "oracle.polygon.s": s(outer_ns.get("oracle.polygon", 0)),
        "trace.coverage": covered / wall_ns if wall_ns else 0.0,
    }


def _nested_in(spans, i, pred) -> bool:
    j = spans[i][3]
    while j >= 0:
        if pred(j):
            return True
        j = spans[j][3]
    return False
