"""Outside-in tracing of rdmap's public layer functions.

The traced run wraps the public functions of each module from here, so the
program itself stays untouched.  Each wrapped call records a span
``(id, name, layer, start, end, parent, op, attrs)`` in memory; per-element
calls (``multiply``) only bump a counter, because a span per element would
cost more than the work it measures.  Wrappers are installed for one op and
removed afterwards, so untraced ops run the unmodified program.

Names that a later version of rdmap no longer has are skipped; the metrics
they feed then read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

# (module, attribute path) -> layer.  A function is rebound in every rdmap
# module that imported it by name, so calls across modules are seen too.
SPANS = {
    ("groups", "Group.ball"): "groups.ball",
    ("operators", "compression_matrix"): "operators.compression",
    ("operators", "opnorm_bracket"): "operators.solve",
    ("operators", "opnorm_lower"): "operators.solve",
    ("operators", "opnorm_upper"): "operators.upper",
    ("multipliers", "apply"): "multipliers",
    ("multipliers", "certified_scale"): "multipliers",
    ("multipliers", "scaled_multiplier"): "multipliers",
    ("multipliers", "tail_bound"): "multipliers",
    ("multipliers", "lemma_norm_bound"): "multipliers",
    ("multipliers", "pointwise_defect_bound"): "multipliers",
    ("multipliers", "map_defect"): "multipliers",
    ("harness", "run_grid"): "harness",
    ("harness", "rd_sample_report"): "harness",
    ("harness", "rows_to_csv"): "harness.export",
    ("harness", "rows_to_json"): "harness.export",
    ("kernels", "length_kernel"): "kernels.matrix",
    ("kernels", "schoenberg_kernel"): "kernels.matrix",
    ("kernels", "cn_check_matrix"): "kernels.eig",
    ("kernels", "psd_check"): "kernels.eig",
    ("serialize", "parse_group_text"): "serialize.parse",
    ("serialize", "group_from_json"): "serialize.parse",
    ("serialize", "ring_from_json"): "serialize.parse",
    ("serialize", "kernel_from_json"): "serialize.parse",
    ("serialize", "canonical_json"): "serialize.emit",
    ("serialize", "group_to_json"): "serialize.emit",
    ("serialize", "ring_to_json"): "serialize.emit",
    ("serialize", "bracket_to_json"): "serialize.emit",
    ("serialize", "cn_verdict_to_json"): "serialize.emit",
    ("serialize", "psd_verdict_to_json"): "serialize.emit",
    ("cli", "main"): "cli.main",
}

COUNTED = {
    ("groups", "FreeGroup.multiply"): "groups.multiply_calls",
    ("groups", "FreeAbelianGroup.multiply"): "groups.multiply_calls",
    ("groups", "CyclicGroup.multiply"): "groups.multiply_calls",
}

# Two sparse complex mat-vecs per power iteration (A v, then A^H w), each
# 8 real flops per stored entry.  Computed from counts, not measured.
FLOPS_PER_NNZ_ITER = 16


def _binding_sites(module: str, path: str, modules: list) -> list:
    """Every (namespace, name) through which rdmap code reaches ``path``."""
    owner = importlib.import_module(f"rdmap.{module}")
    *outer, leaf = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    fn = getattr(owner, leaf, None)
    if fn is None:
        return []
    if isinstance(owner, type):
        return [(owner, leaf, fn)]
    return [(m, name, fn) for m in modules for name, value in vars(m).items() if value is fn]


class Tracer:
    """Span recorder; install around one op, aggregate at the end."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.first_pass_counts: Counter = Counter()
        self.op = None
        self._stack: list = []
        modules = [importlib.import_module("rdmap")] + [
            importlib.import_module(f"rdmap.{m}")
            for m in ("groups", "kernels", "operators", "multipliers", "harness", "serialize", "cli")
        ]
        # (namespace, name, original, wrapper), resolved once
        self._sites = []
        for (module, path), layer in SPANS.items():
            for target, name, fn in _binding_sites(module, path, modules):
                self._sites.append((target, name, fn, self._span_wrapper(path.split(".")[-1], layer, fn)))
        for (module, path), counter in COUNTED.items():
            for target, name, fn in _binding_sites(module, path, modules):
                self._sites.append((target, name, fn, self._count_wrapper(counter, fn)))

    def install(self, op_id) -> None:
        self.op = op_id
        for target, name, _, wrapper in self._sites:
            setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original, _ in self._sites:
            setattr(target, name, original)
        self.op = None

    def _span_wrapper(self, name, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [sid, name, layer, 0.0, 0.0, parent, tracer.op, {}]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer._stack.pop()
            _annotate(name, span[7], args, kwargs, result, fn)
            return result

        return traced

    def _count_wrapper(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer figures: self times of the best pass, counts of the first.

        Op ids are ``(pass, op key)``.  A layer's self time is its spans'
        durations minus the part their traced children cover.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s[5] is not None:
                child_time[s[5]] += s[4] - s[3]
        self_s = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            self_s[s[2]][s[6][0]] += (s[4] - s[3]) - child_time[s[0]]
        best = {layer: min(per_pass.values()) for layer, per_pass in self_s.items()}

        first = [s for s in self.spans if s[6][0] == 0]
        balls = [s for s in first if s[2] == "groups.ball"]
        comps = [s for s in first if s[2] == "operators.compression"]
        brackets = [s for s in first if s[1] == "opnorm_bracket" and "iters" in s[7]]
        nnz_under = defaultdict(int)
        for c in comps:
            nnz_under[c[5]] += c[7]["nnz"]
        return {
            "groups.ball_s": best.get("groups.ball", 0.0),
            "groups.ball_builds": len(balls),
            "groups.ball_distinct_ratio": _ratio(len({s[7]["key"] for s in balls}), len(balls)),
            "groups.multiply_calls": self.first_pass_counts.get("groups.multiply_calls", 0),
            "operators.compression_s": best.get("operators.compression", 0.0),
            "operators.compression_m": _ratio(sum(c[7]["m"] for c in comps), len(comps)),
            "operators.compression_nnz": sum(c[7]["nnz"] for c in comps),
            "operators.compression_hit_ratio": _ratio(
                sum(c[7]["nnz"] for c in comps), sum(c[7]["m"] * c[7]["supp"] for c in comps)
            ),
            "operators.solve_s": best.get("operators.solve", 0.0),
            "operators.solve_iters": sum(b[7]["iters"] for b in brackets),
            "operators.solve_capped_ratio": _ratio(sum(b[7]["capped"] for b in brackets), len(brackets)),
            "operators.solve_flops_computed": sum(
                b[7]["iters"] * FLOPS_PER_NNZ_ITER * nnz_under[b[0]] for b in brackets
            ),
            "operators.upper_s": best.get("operators.upper", 0.0),
            "multipliers.s": best.get("multipliers", 0.0),
            "harness.self_s": best.get("harness", 0.0),
            "harness.export_s": best.get("harness.export", 0.0),
            "kernels.matrix_s": best.get("kernels.matrix", 0.0),
            "kernels.matrix_pairs": sum(s[7].get("pairs", 0) for s in first if s[2] == "kernels.matrix"),
            "kernels.eig_s": best.get("kernels.eig", 0.0),
            "serialize.parse_s": best.get("serialize.parse", 0.0),
            "serialize.emit_s": best.get("serialize.emit", 0.0),
        }

    def snapshot_first_pass_counts(self) -> None:
        self.first_pass_counts = Counter(self.counts)

    def dump(self) -> list:
        return [
            {"id": s[0], "name": s[1], "layer": s[2], "start": s[3], "end": s[4],
             "parent": s[5], "op": s[6], **s[7]}
            for s in self.spans
        ]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _annotate(name, attrs, args, kwargs, result, fn) -> None:
    """Attach the counts a span's layer metrics need, read from public results."""
    if name == "ball":
        group, radius = args[0], args[1] if len(args) > 1 else kwargs.get("n")
        attrs["key"] = f"{group!r}:{radius}"
    elif name == "compression_matrix":
        f = args[1] if len(args) > 1 else kwargs["f"]
        attrs.update(m=result.size, nnz=int(result.entries.nnz), supp=len(f.terms))
    elif name == "opnorm_bracket":
        attrs["iters"] = result.iterations
        attrs["capped"] = result.iterations >= _bound_arg(fn, args, kwargs, "max_iters")
    elif name in ("length_kernel", "schoenberg_kernel"):
        m = result.size
        attrs["pairs"] = m * (m + 1) // 2


def _bound_arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]
