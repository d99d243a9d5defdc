"""Per-layer tracing of focklab from outside the package.

The tracer replaces public functions and methods of each focklab module with
wrappers that record a span (layer, name, start, end, parent) and update
counters.  Modules import names directly (``from .propagate import
evolve_timedep``), so a function is patched in its defining module *and* in
every focklab module namespace that holds the same object.  A target that
no longer exists raises ``TraceTargetMissing``: a renamed function must show
up as a broken benchmark, not as a silently empty layer.

Spans stay in memory and are written once, when the run ends.  Every count
is a pure function of the config, so two traced runs of one config agree
exactly; only the times move.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "config", "basis", "model", "hartree", "propagate", "weyl",
          "marginals", "fluctuations", "decomposition", "experiments")
SUITES = {
    "run_hartree_trajectory": "hartree",
    "run_product_rate_scan": "product-scan",
    "run_coherent_rate_scan": "coherent-scan",
    "run_fluctuation_suite": "fluctuation-suite",
    "run_coefficient_suite": "coeff-suite",
}
CELL_PROBES = ("hartree", "product", "coherent", "moments", "gaps", "parity",
               "conjugation", "limiting", "coefficients", "reconstruction", "remainder")
_EXACT = ("parseval_identity_check", "scaled_coefficient", "expansion_coefficient",
          "product_norm_constant")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every metric a traced run reports."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.busy_s", "s", "lower"), (f"{layer}.self_s", "s", "lower")]
    counts = [
        "fluctuations.assemblies", "fluctuations.assemble_nnz", "fluctuations.ops_builds",
        "fluctuations.evolutions", "fluctuations.evolutions_distinct",
        "propagate.timedep_calls", "propagate.timedep_steps", "propagate.matvecs",
        "propagate.krylov_bisections", "propagate.static_builds", "propagate.static_applies",
        "propagate.krylov_calls", "weyl.applies", "weyl.coherent_states",
        "decomposition.remainder_evolutions", "hartree.flows", "hartree.at_calls",
        "hartree.integrations", "basis.builds", "basis.states", "basis.ladder_builds",
        "model.fock_h_builds", "model.sector_h_builds", "marginals.calls",
        "experiments.cells_failed",
    ]
    out += [(name, "count", "lower") for name in counts]
    out += [("experiments.cells", "count", "higher"),
            ("fluctuations.evolutions_useful", "ratio", "higher"),
            ("propagate.matvecs_per_step", "ratio", "lower"),
            ("propagate.matvec_bytes", "B-computed", "lower"),
            ("experiments.csv_bytes", "B", "lower")]
    times = [
        "fluctuations.assemble_s", "fluctuations.ops_build_s", "propagate.timedep_s",
        "propagate.static_build_s", "propagate.static_apply_s", "propagate.krylov_s",
        "weyl.apply_s", "weyl.coherent_s", "decomposition.remainder_s",
        "decomposition.reconstruct_s", "decomposition.exact_s", "hartree.at_s",
        "basis.build_s", "basis.ladder_s", "model.fock_h_s", "model.sector_h_s",
        "marginals.s", "marginals.distance_s", "experiments.csv_s", "config.load_s",
        "trace.overhead_s",
    ]
    times += [f"experiments.suite_s.{s}" for s in SUITES.values()]
    times += [f"experiments.cell_s.{p}" for p in CELL_PROBES]
    out += [(name, "s", "lower") for name in times]
    return out


class TraceTargetMissing(RuntimeError):
    """A function or method the tracer must wrap is not in the package."""


def _state_digest(psi) -> str:
    amp = np.asarray(getattr(psi, "amp", psi))
    # rounding merges states that differ only by floating-point noise; +0.0
    # folds -0.0 into 0.0 so equal states hash equally
    return hashlib.sha1((np.round(amp, 9) + 0.0).tobytes()).hexdigest()


class _CountedOperator:
    """Stands in for a sparse matrix and counts each ``.dot`` (one matvec)."""

    def __init__(self, op, tracer, timedep: bool):
        self._op = op
        self._tracer = tracer
        self._timedep = timedep
        n = op.shape[0]
        nnz = getattr(op, "nnz", n * n)
        idx = op.indices.itemsize if hasattr(op, "indices") else 8
        val = op.data.itemsize if hasattr(op, "data") else 16
        # CSR y = A x with complex x, y: values + column indices + row
        # pointers, one read of x, one write of y
        self._bytes = nnz * (val + idx) + (n + 1) * idx + 2 * n * 16

    def dot(self, v):
        c = self._tracer.counts
        c["propagate.matvecs"] += 1
        c["propagate.matvec_bytes"] += self._bytes
        if self._timedep:
            c["propagate.timedep_matvecs"] += 1
        return self._op.dot(v)

    def __getattr__(self, name):
        return getattr(self._op, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [layer, name, start, end, parent]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.evolution_keys: set = set()
        self.active = False
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def _open(self, layer, name):
        idx = len(self.spans)
        self.spans.append([layer, name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.spans[idx][3] = perf_counter()

    def _inside(self, name) -> bool:
        return any(self.spans[i][1] == name for i in self.stack)

    def _wrapper(self, fn, layer, name, before=None, after=None):
        tracer = self

        def wrapped(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    # -- patching -------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @staticmethod
    def _original(owner, attr):
        original = owner.__dict__.get(attr)
        if not callable(original):
            where = f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) else owner.__name__
            raise TraceTargetMissing(f"{where}.{attr}")
        return original

    def wrap_function(self, module, attr, layer, name=None, before=None, after=None):
        original = self._original(module, attr)
        wrapped = self._wrapper(original, layer, name or attr, before, after)
        for mod in [m for k, m in sys.modules.items() if k == "focklab" or k.startswith("focklab.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)
        return original

    def wrap_method(self, cls, attr, layer, name=None, before=None, after=None):
        original = self._original(cls, attr)
        self._set(cls, attr, self._wrapper(original, layer, name or attr, before, after))
        return original

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self):
        from focklab import (basis, cli, config, decomposition, experiments, fluctuations,
                             hartree, marginals, model, propagate, weyl)

        c = self.counts

        def bump(key):
            def after(args, kwargs, result):
                c[key] += 1
            return after

        # cli + config
        self.wrap_function(cli, "main", "cli")
        self.wrap_function(config, "load_config", "config", after=bump("config.loads"))

        # basis: builds and first-use ladder matrices
        def built(args, kwargs, result):
            c["basis.builds"] += 1
            c["basis.states"] += args[0].size

        self.wrap_method(basis.OccupationBasis, "__init__", "basis", "build", after=built)
        annihilator = self._original(basis.OccupationBasis, "annihilator")

        def ladder(self_basis, x):
            cache = getattr(self_basis, "_annihilators", None)
            if cache is None:
                raise TraceTargetMissing("focklab.basis.OccupationBasis._annihilators")
            if not self.active or x in cache:
                return annihilator(self_basis, x)
            c["basis.ladder_builds"] += 1
            idx = self._open("basis", "ladder")
            try:
                return annihilator(self_basis, x)
            finally:
                self._close(idx)

        self._set(basis.OccupationBasis, "annihilator", ladder)

        # model
        self.wrap_function(model, "build_fock_hamiltonian", "model", "fock_h",
                           after=bump("model.fock_h_builds"))
        self.wrap_function(model, "build_sector_hamiltonian", "model", "sector_h",
                           after=bump("model.sector_h_builds"))

        # hartree
        self.wrap_method(hartree.HartreeFlow, "__init__", "hartree", "flow",
                         after=bump("hartree.flows"))
        self.wrap_method(hartree.HartreeFlow, "at", "hartree", "at", after=bump("hartree.at_calls"))
        self.wrap_function(hartree, "_integrate", "hartree", "integrate",
                           after=bump("hartree.integrations"))
        self.wrap_function(hartree, "evolve_hartree", "hartree")

        # propagate: static builds/applies, every Krylov call site, time-dependent steps
        self.wrap_method(propagate.StaticPropagator, "__init__", "propagate", "static_build",
                         after=bump("propagate.static_builds"))
        self.wrap_method(propagate.StaticPropagator, "apply", "propagate", "static_apply",
                         after=bump("propagate.static_applies"))

        def counted_krylov(args, kwargs):
            c["propagate.krylov_calls"] += 1
            return (_CountedOperator(args[0], self, False),) + tuple(args[1:]), kwargs

        self.wrap_function(propagate, "expm_apply", "propagate", "krylov", before=counted_krylov)

        lanczos = self._original(propagate, "_lanczos_step")

        def lanczos_counted(matvec, v, t, tol, m_cap, depth=0):
            if depth > 0:  # the two halves of a bisected substep
                c["propagate.krylov_substeps_split"] += 1
            return lanczos(matvec, v, t, tol, m_cap, depth)

        self._set(propagate, "_lanczos_step", lanczos_counted)

        def counted_timedep(args, kwargs):
            bound = timedep_sig.bind(*args, **kwargs)
            gen, psi, t0, t1 = (bound.arguments[k] for k in ("gen", "psi", "t0", "t1"))
            c["propagate.timedep_calls"] += 1
            key = getattr(gen, "bench_key", None)
            if key is not None:
                c["fluctuations.evolutions"] += 1
                self.evolution_keys.add(key + (round(float(t0), 12), round(float(t1), 12),
                                               _state_digest(psi)))
                if self._inside("remainder_probe"):
                    c["decomposition.remainder_evolutions"] += 1

            def stepped(t):
                c["propagate.timedep_steps"] += 1
                return _CountedOperator(gen(t), self, True)

            bound.arguments["gen"] = stepped
            return bound.args, bound.kwargs

        timedep_sig = inspect.signature(propagate.evolve_timedep)
        self.wrap_function(propagate, "evolve_timedep", "propagate", "timedep",
                           before=counted_timedep)

        # weyl
        self.wrap_function(weyl, "weyl_apply", "weyl", after=bump("weyl.applies"))
        self.wrap_function(weyl, "coherent_state", "weyl", after=bump("weyl.coherent_states"))

        # marginals
        for name in ("marginal_from_sector", "marginal_from_fock"):
            self.wrap_function(marginals, name, "marginals", after=bump("marginals.calls"))
        for name in ("trace_distance", "hs_distance"):
            self.wrap_function(marginals, name, "marginals", "distance")

        # fluctuations
        ops = fluctuations.FluctuationOperators
        self.wrap_method(ops, "__init__", "fluctuations", "ops_build",
                         after=bump("fluctuations.ops_builds"))

        def assembled(args, kwargs, result):
            c["fluctuations.assemblies"] += 1
            c["fluctuations.assemble_nnz"] += int(result.nnz)

        self.wrap_method(ops, "assemble", "fluctuations", "assemble", after=assembled)
        family_sig = inspect.signature(fluctuations.generator_family)

        def tag_family(args, kwargs, gen):
            b = family_sig.bind(*args, **kwargs)
            b.apply_defaults()
            a = b.arguments
            gen.bench_key = (a["kind"], int(a["n"]), a["cutoff"], round(float(a["phase"]), 12))

        self.wrap_function(fluctuations, "generator_family", "fluctuations", after=tag_family)
        for name in ("evolve_fluctuation", "number_growth_probe", "dynamics_gap",
                     "parity_defect", "conjugation_identity_residual"):
            self.wrap_function(fluctuations, name, "fluctuations")

        # decomposition
        self.wrap_function(decomposition, "remainder_probe", "decomposition")
        self.wrap_function(decomposition, "reconstruct_product", "decomposition")
        self.wrap_function(decomposition, "displaced_product_profile", "decomposition")
        for name in _EXACT:
            self.wrap_function(decomposition, name, "decomposition")

        # experiments: suites, cells, CSV emission
        for fn_name, suite in SUITES.items():
            self.wrap_function(experiments, fn_name, "experiments", f"suite:{suite}")
        run_cells = self._original(experiments, "_run_cells")

        def traced_cells(cells, threads):
            suite = next((self.spans[i][1] for i in reversed(self.stack)
                          if self.spans[i][1].startswith("suite:")), "suite:?")
            default = {"suite:product-scan": "product", "suite:coherent-scan": "coherent"}.get(suite, "?")
            return run_cells([self._cell(cell, default) for cell in cells], threads)

        self._set(experiments, "_run_cells", traced_cells)

        def wrote(args, kwargs, result):
            c["experiments.csv_bytes"] += os.path.getsize(args[0])

        self.wrap_function(experiments, "write_csv", "experiments", "csv", after=wrote)
        for name in ("emit_rate_csv", "emit_suite_csvs", "emit_trajectory_csv"):
            self.wrap_function(experiments, name, "experiments", "csv")
        self.active = True

    def _cell(self, cell, default):
        """Time one suite cell; the probe name comes from the cell's closure."""
        names = cell.__code__.co_freevars
        probe = default
        if "probe" in names:
            probe = cell.__closure__[names.index("probe")].cell_contents

        def timed():
            idx = self._open("experiments", f"cell:{probe}")
            try:
                return cell()
            finally:
                self._close(idx)

        return timed

    # -- results --------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Per-layer busy/self time, per-name time, and the counters."""
        spans = self.spans
        child_time = defaultdict(float)
        for s in spans:
            if s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        busy = defaultdict(float)
        self_time = defaultdict(float)
        named = defaultdict(float)   # time in the outermost spans of each name
        for i, (layer, name, start, end, parent) in enumerate(spans):
            dur = end - start
            self_time[layer] += dur - child_time[i]
            p, same_layer, same_name = parent, False, False
            while p >= 0:
                same_layer |= spans[p][0] == layer
                same_name |= spans[p][1] == name or (
                    name in _EXACT and spans[p][1] in _EXACT)
                p = spans[p][4]
            if not same_layer:
                busy[layer] += dur
            if not same_name:
                named[name] += dur
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.busy_s"] = busy[layer]
            m[f"{layer}.self_s"] = self_time[layer]
        c = self.counts
        for key in per_layer_metrics():
            if key[1] in ("count", "B", "B-computed"):
                m[key[0]] = int(c[key[0]])
        m["propagate.krylov_bisections"] = int(c["propagate.krylov_substeps_split"]) // 2
        m["fluctuations.evolutions_distinct"] = len(self.evolution_keys)
        evolutions = c["fluctuations.evolutions"]
        m["fluctuations.evolutions_useful"] = len(self.evolution_keys) / evolutions if evolutions else 0.0
        steps = c["propagate.timedep_steps"]
        m["propagate.matvecs_per_step"] = c["propagate.timedep_matvecs"] / steps if steps else 0.0
        m["fluctuations.assemble_s"] = named["assemble"]
        m["fluctuations.ops_build_s"] = named["ops_build"]
        m["propagate.timedep_s"] = named["timedep"]
        m["propagate.static_build_s"] = named["static_build"]
        m["propagate.static_apply_s"] = named["static_apply"]
        m["propagate.krylov_s"] = named["krylov"]
        m["weyl.apply_s"] = named["weyl_apply"]
        m["weyl.coherent_s"] = named["coherent_state"]
        m["decomposition.remainder_s"] = named["remainder_probe"]
        m["decomposition.reconstruct_s"] = named["reconstruct_product"]
        m["decomposition.exact_s"] = sum(named[n] for n in _EXACT)
        m["hartree.at_s"] = named["at"]
        m["basis.build_s"] = named["build"]
        m["basis.ladder_s"] = named["ladder"]
        m["model.fock_h_s"] = named["fock_h"]
        m["model.sector_h_s"] = named["sector_h"]
        m["marginals.s"] = named["marginal_from_sector"] + named["marginal_from_fock"]
        m["marginals.distance_s"] = named["distance"]
        m["experiments.csv_s"] = named["csv"]
        m["config.load_s"] = named["load_config"]
        for suite in SUITES.values():
            m[f"experiments.suite_s.{suite}"] = named[f"suite:{suite}"]
        for probe in CELL_PROBES:
            m[f"experiments.cell_s.{probe}"] = named[f"cell:{probe}"]
        # the hartree suite and the coefficient tables run outside any cell pool
        m["experiments.cell_s.hartree"] = named["suite:hartree"]
        m["experiments.cell_s.coefficients"] = m["decomposition.exact_s"]
        m["experiments.cell_s.reconstruction"] = named["reconstruct_product"]
        m["experiments.cell_s.remainder"] = named["remainder_probe"]
        return m

    def write_spans(self, path):
        with open(path, "w") as fh:
            for layer, name, start, end, parent in self.spans:
                fh.write(json.dumps([layer, name, start, end, parent]) + "\n")
