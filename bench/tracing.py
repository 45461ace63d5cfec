"""Per-layer tracing from outside the package.

lcuout modules import each other's functions by name, so a call such as
``svd`` inside ``recovery.svp_complete`` goes through ``recovery``'s own
global.  ``Patches`` therefore rebinds a function in every ``lcuout`` module
namespace that holds it, and restores every binding on exit.  The tracer's
wrappers record one span per call (name, start, end, parent, operation id)
in memory; per-call counters (bytes, solver iterations) are taken from the
call's arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

from stats import median, self_times, tail

# Public functions traced, by defining module.  Each span is named
# "<module>.<function>"; CircuitSpec construction (including its unitarity
# validation) is traced through __post_init__ as "circuit.CircuitSpec".
TRACED = {
    "linalg": ("svd", "haar_random_unitary"),
    "circuit": ("circuit_unitary", "output_states", "sample_shots"),
    "structure": ("shuffle", "similarity_check", "singular_multiset_check", "csd_assemble", "involution_check"),
    "outputs": ("output_matrix", "coefficient_matrix", "matrix_to_csv", "matrix_from_csv"),
    "recovery": ("sweep", "make_mask", "observe", "svp_complete", "factorized_complete", "recovery_errors"),
    "trapdoor": ("keygen", "eval_trapdoor", "invert_with_key", "hadamard_attack", "involution_encrypt_decrypt"),
    "cli": ("main",),
}


class Patches:
    """Rebind functions across every loaded ``lcuout`` module; undo on exit."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module: str, name: str, make_wrapper) -> None:
        """Replace ``lcuout.<module>.<name>`` wherever that object is bound."""
        original = getattr(sys.modules[f"lcuout.{module}"], name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lcuout" or mod_name.startswith("lcuout.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def method(self, cls: type, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _default(fn, param: str):
    return inspect.signature(fn).parameters[param].default


class Tracer:
    """Spans and counters for traced calls; installed only around traced work."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # [name index, start, end, parent span index or -1, operation id]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.svp_calls: list[tuple[int, bool]] = []  # (iterations, stopped at max_iters)
        self.stack: list[int] = []
        self.op = -1

    def _span_wrapper(self, name: str, after=None):
        idx = self._index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = len(spans)
                rec = [idx, clock(), 0.0, stack[-1] if stack else -1, self.op]
                spans.append(rec)
                stack.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                if after is not None:
                    after(fn, args, kwargs, result)
                return result

            return traced

        return make

    def _add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def install(self) -> Patches:
        """Wrap every traced function; use the result as a context manager."""
        import lcuout.circuit

        add = self._add
        after = {
            "linalg.svd": lambda fn, a, kw, r: add("linalg.svd.computed_bytes", a[0].nbytes),
            "circuit.circuit_unitary": lambda fn, a, kw, r: add(
                "circuit.circuit_unitary.computed_bytes", a[0].extended_dim ** 2 * 16
            ),
            "outputs.matrix_to_csv": lambda fn, a, kw, r: add("outputs.csv_bytes", len(r)),
            "outputs.matrix_from_csv": lambda fn, a, kw, r: add("outputs.csv_bytes", len(a[0])),
            "recovery.factorized_complete": lambda fn, a, kw, r: add(
                "recovery.factorized_complete.underdetermined_cols", len(r.underdetermined)
            ),
            "recovery.svp_complete": self._after_svp,
        }
        patches = Patches()
        for module, names in TRACED.items():
            for name in names:
                span = f"{module}.{name}"
                patches.function(module, name, self._span_wrapper(span, after.get(span)))
        patches.method(lcuout.circuit.CircuitSpec, "__post_init__", self._span_wrapper("circuit.CircuitSpec"))
        return patches

    def _after_svp(self, fn, args, kwargs, result):
        iters = int(result[1])
        max_iters = kwargs.get("max_iters", _default(fn, "max_iters"))
        self.svp_calls.append((iters, iters >= max_iters))

    def write(self, path: Path) -> None:
        """Write every span once, as one JSON document."""
        path.write_text(json.dumps({"names": self.names, "spans": self.spans}, separators=(",", ":")))

    def layer_metrics(self, rounds: int) -> tuple[dict[str, float], dict]:
        """Per-layer metrics, each per traced round, plus the top self-time spans."""
        spans = self.spans
        selfs = self_times([(s[1], s[2], s[3]) for s in spans])
        durations: dict[str, list[float]] = {name: [] for name in self.names}
        self_s: dict[str, float] = {name: 0.0 for name in self.names}
        for s, own in zip(spans, selfs):
            name = self.names[s[0]]
            durations[name].append(s[2] - s[1])
            self_s[name] += own

        def calls(name):
            return len(durations.get(name, ())) / rounds

        def busy(name):
            return sum(durations.get(name, ())) / rounds

        def own(name):
            return self_s.get(name, 0.0) / rounds

        def ms(name, stat):
            values = durations.get(name)
            return 1e3 * stat(values) if values else 0.0

        def counter(key):
            return self.counters.get(key, 0.0) / rounds

        svp_index = self._index.get("recovery.svp_complete")
        svd_in_svp = 0
        if svp_index is not None and "linalg.svd" in self._index:
            svd_index = self._index["linalg.svd"]
            for s in spans:
                if s[0] != svd_index:
                    continue
                parent = s[3]
                while parent >= 0 and spans[parent][0] != svp_index:
                    parent = spans[parent][3]
                svd_in_svp += parent >= 0
        iters = sum(i for i, _ in self.svp_calls)
        capped = sum(c for _, c in self.svp_calls)
        op_wall = busy("cli.main")

        metrics = {
            "linalg.svd.calls": calls("linalg.svd"),
            "linalg.svd.busy_s": busy("linalg.svd"),
            "linalg.svd.share": busy("linalg.svd") / op_wall if op_wall else 0.0,
            "linalg.svd.computed_bytes": counter("linalg.svd.computed_bytes"),
            "linalg.haar_random_unitary.calls": calls("linalg.haar_random_unitary"),
            "linalg.haar_random_unitary.busy_s": busy("linalg.haar_random_unitary"),
            "circuit.CircuitSpec.calls": calls("circuit.CircuitSpec"),
            "circuit.CircuitSpec.busy_s": busy("circuit.CircuitSpec"),
            "circuit.circuit_unitary.calls": calls("circuit.circuit_unitary"),
            "circuit.circuit_unitary.busy_s": busy("circuit.circuit_unitary"),
            "circuit.circuit_unitary.computed_bytes": counter("circuit.circuit_unitary.computed_bytes"),
            "circuit.output_states.busy_s": busy("circuit.output_states"),
            "circuit.sample_shots.busy_s": busy("circuit.sample_shots"),
            "structure.shuffle.busy_s": busy("structure.shuffle"),
            "structure.shuffle.self_s": own("structure.shuffle"),
            "structure.similarity_check.busy_s": busy("structure.similarity_check"),
            "structure.singular_multiset_check.busy_s": busy("structure.singular_multiset_check"),
            "structure.csd_assemble.busy_s": busy("structure.csd_assemble"),
            "structure.involution_check.busy_s": busy("structure.involution_check"),
            "outputs.output_matrix.busy_s": busy("outputs.output_matrix"),
            "outputs.matrix_to_csv.busy_s": busy("outputs.matrix_to_csv"),
            "outputs.matrix_from_csv.busy_s": busy("outputs.matrix_from_csv"),
            "outputs.coefficient_matrix.calls": calls("outputs.coefficient_matrix"),
            "outputs.csv_bytes": counter("outputs.csv_bytes"),
            "recovery.sweep.busy_s": busy("recovery.sweep"),
            "recovery.sweep.self_s": own("recovery.sweep"),
            "recovery.make_mask.calls": calls("recovery.make_mask"),
            "recovery.make_mask.busy_s": busy("recovery.make_mask"),
            "recovery.svp_complete.calls": calls("recovery.svp_complete"),
            "recovery.svp_complete.busy_s": busy("recovery.svp_complete"),
            "recovery.svp_complete.self_s": own("recovery.svp_complete"),
            "recovery.svp_complete.p50_ms": ms("recovery.svp_complete", median),
            "recovery.svp_complete.tail_ms": ms("recovery.svp_complete", lambda v: tail(v).value),
            "recovery.svp_complete.iters": iters / rounds,
            "recovery.svp_complete.svd_per_iter": svd_in_svp / iters if iters else 0.0,
            "recovery.svp_complete.capped_frac": capped / len(self.svp_calls) if self.svp_calls else 0.0,
            "recovery.factorized_complete.calls": calls("recovery.factorized_complete"),
            "recovery.factorized_complete.busy_s": busy("recovery.factorized_complete"),
            "recovery.factorized_complete.p50_ms": ms("recovery.factorized_complete", median),
            "recovery.factorized_complete.underdetermined_cols": counter(
                "recovery.factorized_complete.underdetermined_cols"
            ),
            "recovery.observe.busy_s": busy("recovery.observe"),
            "recovery.recovery_errors.busy_s": busy("recovery.recovery_errors"),
            "trapdoor.keygen.busy_s": busy("trapdoor.keygen"),
            "trapdoor.eval_trapdoor.busy_s": busy("trapdoor.eval_trapdoor"),
            "trapdoor.invert_with_key.busy_s": busy("trapdoor.invert_with_key"),
            "trapdoor.hadamard_attack.busy_s": busy("trapdoor.hadamard_attack"),
            "trapdoor.involution_encrypt_decrypt.busy_s": busy("trapdoor.involution_encrypt_decrypt"),
            "cli.main.calls": calls("cli.main"),
            "cli.main.self_s": own("cli.main"),
        }
        ranked = sorted(self_s.items(), key=lambda kv: kv[1], reverse=True)
        detail = {
            "self_s_per_round": {name: round(v / rounds, 6) for name, v in ranked},
            "spans": len(spans),
            "svp_tail_percentile": tail(durations["recovery.svp_complete"]).percentile
            if durations.get("recovery.svp_complete")
            else None,
        }
        return metrics, detail
