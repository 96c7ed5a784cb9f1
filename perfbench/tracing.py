"""Spans and counters at shellbound's module boundaries, bound at run time.

Nothing in the package is edited: :meth:`Tracer.install` replaces each
traced function or method with a wrapper, everywhere the package binds
it (``from .surface_operator import assemble`` gives ``rayleigh_ritz``
its own name for the same function, and that name is wrapped too).
``direct_oracle.lobpcg`` is wrapped so that the operator and the
preconditioner handed to scipy are counted at the solver boundary.

A span records its name, start, end and parent; a span's self time is
its duration minus that of its direct children. Spans stay in memory;
:func:`layer_metrics` turns them into the per-layer metrics listed in
``metrics.json``.
"""

from __future__ import annotations

import functools
import time

# (module, attribute) pairs; "Class.method" names a method.
TRACED = (
    ("cli", "main"),
    ("symbols", "DispersionSymbol.evaluate"),
    ("symbols", "DispersionSymbol.find_minimum"),
    ("surface", "build_mesh"),
    ("surface", "tubular_chart"),
    ("potentials", "Potential.kernel_matrix"),
    ("potentials", "Potential.evaluate"),
    ("potentials", "tabulated_from_file"),
    ("kernels", "gaussian_mix"),
    ("kernels", "squared_distances"),
    ("surface_operator", "assemble"),
    ("surface_operator", "count_negative"),
    ("rayleigh_ritz", "certify"),
    ("spin_orbit", "assemble_spin_kernel"),
    ("spin_orbit", "gauge_deviation"),
    ("direct_oracle", "build_hamiltonian"),
    ("direct_oracle", "count_below"),
)
MODULES = ("cli", "symbols", "surface", "potentials", "kernels", "surface_operator",
           "rayleigh_ritz", "spin_orbit", "direct_oracle")


class Tracer:
    """Wraps the traced callables and keeps the spans they record."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, note]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, note=None):
        """``fn`` recording one span per call; ``note(args, result)`` fills its note."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def install(self):
        import importlib

        modules = {name: importlib.import_module(f"shellbound.{name}") for name in MODULES}
        for module_name, attribute in TRACED:
            module = modules[module_name]
            span_name = f"{module_name}.{attribute.split('.')[-1]}"
            note = NOTES.get(span_name)
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                self._replace(owner, method, self.wrap(span_name, owner.__dict__[method], note))
                continue
            original = getattr(module, attribute)
            wrapper = self.wrap(span_name, original, note)
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._replace(other, key, wrapper)
        oracle = modules["direct_oracle"]
        self._replace(oracle, "lobpcg", self._wrap_lobpcg(oracle.lobpcg, oracle.LinearOperator))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _replace(self, owner, key, value):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def _wrap_lobpcg(self, lobpcg, linear_operator):
        def counted(name, op):
            fn = self.wrap(name, op.dot, _note_columns)
            return linear_operator(op.shape, matvec=fn, matmat=fn, dtype=op.dtype)

        def solver(A, X, *args, M=None, **kwargs):
            A = counted("direct_oracle.apply", A)
            if M is not None:
                M = counted("direct_oracle.precond", M)
            return lobpcg(A, X, *args, M=M, **kwargs)

        return self.wrap("direct_oracle.lobpcg", solver)


def _note_columns(args, result):
    block = args[0]
    return block.shape[1] if block.ndim == 2 else 1


def _note_pairs(args, result):
    return {"pairs": int(result.shape[0]) * int(result.shape[1]), "bytes": int(result.nbytes)}


def _note_keep(args, result):
    return {"args": args, "result": result}


NOTES = {
    "kernels.gaussian_mix": _note_pairs,
    "kernels.squared_distances": _note_pairs,
    "potentials.kernel_matrix": _note_pairs,
    "rayleigh_ritz.certify": _note_keep,
    "direct_oracle.count_below": _note_keep,
}


def _useful_eps_steps(certificate) -> tuple[int, int]:
    """(steps a search stopping at the first negative-definite eps needs, steps taken)."""
    import numpy as np

    steps = len(certificate.matrices)
    for index, h in enumerate(certificate.matrices):
        if h.size == 0 or float(np.linalg.eigvalsh(h)[-1]) < 0.0:
            return index + 1, steps
    return steps, steps


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one set of spans (one job or one whole pass)."""
    children_time = [0.0] * len(spans)
    ancestors_named: list[frozenset] = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children_time[parent] += end - start
            ancestors_named.append(ancestors_named[parent] | {spans[parent][0]})
        else:
            ancestors_named.append(frozenset())

    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - children_time[index]
        if name not in ancestors_named[index]:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1

    def note_sum(name, key):
        return sum(s[4][key] for s in spans if s[0] == name and s[4])

    kernel_pairs = sum(
        s[4]["pairs"] for i, s in enumerate(spans)
        if s[0].startswith("kernels.") and s[4] and not any(a.startswith("kernels.") for a in ancestors_named[i])
    )
    useful = steps = 0
    for s in spans:
        if s[0] == "rayleigh_ritz.certify" and s[4]:
            u, n = _useful_eps_steps(s[4]["result"])
            useful, steps = useful + u, steps + n
    converged = wanted = 0
    worst_ratio = 0.0
    for s in spans:
        if s[0] == "direct_oracle.count_below" and s[4]:
            ham, outcome = s[4]["args"][0], s[4]["result"]
            tolerance = 1e-8 * ham.spectral_scale
            converged += sum(1 for r in outcome.residuals if r < tolerance)
            wanted += len(outcome.residuals)
            worst_ratio = max([worst_ratio] + [float(r) / tolerance for r in outcome.residuals])

    return {
        "cli.self_s": self_time.get("cli.main", 0.0),
        "symbols.evaluate_s": total.get("symbols.evaluate", 0.0),
        "kernels.gaussian_mix_s": total.get("kernels.gaussian_mix", 0.0),
        "kernels.pairs": kernel_pairs,
        "potentials.kernel_matrix_s": total.get("potentials.kernel_matrix", 0.0),
        "potentials.kernel_matrix.self_s": self_time.get("potentials.kernel_matrix", 0.0),
        "potentials.kernel_matrix.calls": calls.get("potentials.kernel_matrix", 0),
        "potentials.kernel_matrix.pairs": note_sum("potentials.kernel_matrix", "pairs"),
        "potentials.kernel_matrix.bytes": note_sum("potentials.kernel_matrix", "bytes"),
        "surface_operator.assemble_s": total.get("surface_operator.assemble", 0.0),
        "surface_operator.assemble.calls": calls.get("surface_operator.assemble", 0),
        "rayleigh_ritz.certify_s": total.get("rayleigh_ritz.certify", 0.0),
        "rayleigh_ritz.self_s": self_time.get("rayleigh_ritz.certify", 0.0),
        "rayleigh_ritz.eps_steps": steps,
        "rayleigh_ritz.useful_eps_frac": useful / steps if steps else 0.0,
        "spin_orbit.assemble_spin_kernel_s": total.get("spin_orbit.assemble_spin_kernel", 0.0),
        "spin_orbit.gauge_deviation_s": total.get("spin_orbit.gauge_deviation", 0.0),
        "direct_oracle.build_hamiltonian_s": total.get("direct_oracle.build_hamiltonian", 0.0),
        "direct_oracle.count_below_s": total.get("direct_oracle.count_below", 0.0),
        "direct_oracle.apply.calls": calls.get("direct_oracle.apply", 0),
        "direct_oracle.apply.columns": sum(s[4] or 0 for s in spans if s[0] == "direct_oracle.apply"),
        "direct_oracle.apply_s": total.get("direct_oracle.apply", 0.0),
        "direct_oracle.precond.calls": calls.get("direct_oracle.precond", 0),
        "direct_oracle.precond_s": total.get("direct_oracle.precond", 0.0),
        "direct_oracle.lobpcg.chunks": calls.get("direct_oracle.lobpcg", 0),
        "direct_oracle.lobpcg.self_s": self_time.get("direct_oracle.lobpcg", 0.0),
        "direct_oracle.converged_frac": converged / wanted if wanted else 0.0,
        "direct_oracle.worst_residual_ratio": worst_ratio,
    }


def split_by_root(spans, root="cli.main") -> list[list]:
    """The spans under each top-level ``root`` span, parents re-indexed."""
    groups: list[list] = []
    remap: dict[int, int] = {}
    for index, span in enumerate(spans):
        if span[3] < 0:
            if span[0] != root:
                continue
            groups.append([])
            remap = {}
            parent = -1
        elif span[3] in remap:
            parent = remap[span[3]]
        else:
            continue
        remap[index] = len(groups[-1])
        groups[-1].append(span[:3] + [parent, span[4]])
    return groups
