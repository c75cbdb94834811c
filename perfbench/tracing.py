"""Span tracer for the traced benchmark run.

While installed, the tracer rebinds the module-level names through which
one hjparisi module calls another (for example ``critpoint.psi_grad`` or
``onebody._grow_log_weights``), plus a few methods on classes every
module uses (``PiecewisePath.__post_init__``, ``_Session.draw``).  Each
wrapped call records a span (name, start, end, parent span, task id) and
bumps the counters of its boundary.  Everything stays in memory; the
runner aggregates it per pass and writes it out when the run ends.
``uninstall`` restores every original binding, so library code is never
changed on disk.

A layer's self time is the summed duration of its spans minus the part
of each span covered by its child spans.  Work done inside a thread-pool
item is charged to the span that called the pool, not to ``util``.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

LAYERS = ("model", "paths", "cascade", "onebody", "critpoint", "variational",
          "finiten", "util", "cli")

# Counts that do not depend on the machine or the thread count.  They must
# repeat exactly between two traced runs of the same seed.
EXACT_COUNTS = (
    "onebody.psi_eval.calls", "onebody.psi_eval.grid_nodes",
    "critpoint.solve.iterations", "variational.optimizer_iters",
    "onebody.psi_mc.samples", "cascade.grow.leaves",
    "finiten.cfg_leaf_terms",
)

# Per-layer metrics the traced run reports, in print order.
PER_LAYER = (
    "onebody.psi_mc.calls", "onebody.psi_mc.self_s", "onebody.psi_mc.samples",
    "onebody.psi_mc.leaf_terms",
    "onebody.psi_eval.calls", "onebody.psi_eval.self_s",
    "onebody.psi_eval.grid_nodes", "onebody.psi_eval.fallbacks",
    "onebody.psi_grad.calls", "onebody.psi_grad.self_s",
    "onebody.psi_grad.evals_per_call",
    "cascade.grow.calls", "cascade.grow.self_s", "cascade.grow.leaves",
    "cascade.grow.truncation_ratio_max",
    "cascade.level_law.self_s", "cascade.level_law.draws",
    "cascade.gg_check.self_s",
    "model.xi_star.calls", "model.xi_star.self_s",
    "model.xi.calls", "model.xi.self_s", "model.probe.self_s",
    "paths.validate.calls", "paths.validate.self_s",
    "paths.validate.rejected_frac",
    "paths.sqrt_increments.calls", "paths.sqrt_increments.self_s",
    "critpoint.solve.calls", "critpoint.solve.self_s",
    "critpoint.solve.iterations", "critpoint.solve.converged_frac",
    "critpoint.solve.psi_evals_per_solve", "critpoint.functional.self_s",
    "variational.parisi_sup.calls", "variational.parisi_sup.self_s",
    "variational.hopf_lax.calls", "variational.hopf_lax.self_s",
    "variational.parisi_std.calls", "variational.parisi_std.self_s",
    "variational.optimizer_iters", "variational.psi_evals",
    "finiten.samples", "finiten.hamiltonian.calls",
    "finiten.hamiltonian.self_s", "finiten.fe.self_s",
    "finiten.overlap.self_s", "finiten.check.self_s",
    "finiten.cfg_leaf_terms",
    "util.logsumexp.calls", "util.logsumexp.self_s",
    "util.pool.maps", "util.pool.items", "util.pool.busy_s",
    "util.pool.wait_s", "util.pool.busy_frac",
    "cli.commands",
) + tuple(f"{layer}.self_s" for layer in LAYERS) \
  + tuple(f"{layer}.errors" for layer in LAYERS) \
  + ("trace.coverage", "trace.overhead_frac")

# Span (or counter) name of each wrapped function, keyed by defining module.
_SPANS = {
    "onebody": {"psi_eval": "onebody.psi_eval", "psi_mc": "onebody.psi_mc",
                "psi_grad": "onebody.psi_grad"},
    "cascade": {"_grow_log_weights": "cascade.grow",
                "overlap_level_law": "cascade.level_law",
                "gg_check": "cascade.gg_check",
                "sample_cascade": "cascade.sample"},
    "model": {"xi_star": "model.xi_star", "xi_eval": "model.xi",
              "xi_grad": "model.xi", "xi_hessian": "model.xi",
              "theta_eval": "model.xi", "xi_eval_batch": "model.xi",
              "convexity_probe": "model.probe",
              "grad_lipschitz_const": "model.probe",
              "grad_lipschitz_upper_bound": "model.probe"},
    "paths": {"sqrt_increments": "paths.sqrt_increments"},
    "critpoint": {"solve_critical": "critpoint.solve",
                  "hj_functional": "critpoint.functional",
                  "parisi_functional": "critpoint.functional",
                  "hat_functional": "critpoint.functional"},
    "variational": {"parisi_sup": "variational.parisi_sup",
                    "hopf_lax_value": "variational.hopf_lax",
                    "parisi_std": "variational.parisi_std"},
    "finiten": {"free_energy_mc": "finiten.fe",
                "gibbs_overlap_law": "finiten.overlap",
                "identity_checks": "finiten.check",
                "sample_hamiltonian": "finiten.hamiltonian"},
    "util": {"logsumexp": "util.logsumexp"},
    "cli": {"main": "cli.main"},
}

# Modules whose own namespace is also rebound, so that calls made inside
# the defining module are traced too: psi_grad's psi_eval calls, growth
# under the cascade samplers, the functionals under solve_critical and the
# Hamiltonian draws under _Session.draw.  The xi algebra is not rebound in
# model itself, because xi_star's inner loop would then dominate the trace.
_SELF_REBOUND = ("onebody", "cascade", "critpoint", "finiten", "variational",
                 "cli")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []
        self.task = None
        self.spans = []
        self.counts = Counter()

    # -- recording -------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def add(self, key, value=1):
        with self._lock:
            self.counts[key] += value

    def raise_max(self, key, value):
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def begin_pass(self):
        """Start a fresh span list and counter set; return the old ones."""
        old = (self.spans, self.counts)
        self.spans, self.counts = [], Counter()
        return old

    def _wrap(self, fn, name, on_return=None):
        tracer = self
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            st = tracer._stack()
            # [name, start, end, parent, task, is_pool_item]
            rec = [name, time.perf_counter(), None, st[-1] if st else None,
                   tracer.task, False]
            tracer.spans.append(rec)
            st.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.add(f"{layer}.errors")
                if name == "paths.validate" and type(exc).__name__ == \
                        "NotIncreasing":
                    tracer.add("paths.validate.rejected")
                raise
            finally:
                rec[2] = time.perf_counter()
                st.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn, on_return):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_return(args, kwargs, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def _traced_map(self, fn_map, resolve_threads):
        tracer = self

        def traced_map(fn, items, threads=1):
            items = list(items)
            st = tracer._stack()
            pool_rec = ["util.pool", time.perf_counter(), None,
                        st[-1] if st else None, tracer.task, False]
            tracer.spans.append(pool_rec)
            caller = pool_rec[3]
            owner = caller[0] if caller is not None else "util.pool"
            workers = resolve_threads(threads) if len(items) > 1 else 1
            t_map = pool_rec[1]
            busy = [0.0]
            wait = [0.0]

            def item(it):
                wst = tracer._stack()
                rec = [owner, time.perf_counter(), None, pool_rec,
                       tracer.task, True]
                tracer.spans.append(rec)
                wst.append(rec)
                try:
                    return fn(it)
                finally:
                    rec[2] = time.perf_counter()
                    wst.pop()
                    with tracer._lock:
                        busy[0] += rec[2] - rec[1]
                        wait[0] += rec[1] - t_map

            st.append(pool_rec)
            try:
                return fn_map(item, items, threads)
            except BaseException:
                tracer.add("util.errors")
                raise
            finally:
                pool_rec[2] = time.perf_counter()
                st.pop()
                with tracer._lock:
                    c = tracer.counts
                    c["util.pool.maps"] += 1
                    c["util.pool.items"] += len(items)
                    c["util.pool.busy_s"] += busy[0]
                    c["util.pool.wait_s"] += wait[0]
                    c["util.pool.capacity_s"] += workers * (
                        pool_rec[2] - pool_rec[1])

        traced_map.__wrapped__ = fn_map
        return traced_map

    # -- installation ----------------------------------------------------

    def _rebind(self, obj, attr, new):
        self._undo.append((obj, attr, obj.__dict__[attr]
                           if isinstance(obj, type) else getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self):
        import hjparisi
        from hjparisi import (cascade, cli, critpoint, finiten, model,
                              onebody, paths, util, variational)

        mods = {"model": model, "paths": paths, "cascade": cascade,
                "onebody": onebody, "critpoint": critpoint,
                "variational": variational, "finiten": finiten,
                "util": util, "cli": cli}
        hooks = self._count_hooks()
        wrapped = {}
        for mod_name, names in _SPANS.items():
            for fname, span in names.items():
                orig = getattr(mods[mod_name], fname)
                wrapped[id(orig)] = self._wrap(orig, span, hooks.get(span))
        orig_map = util.chunked_thread_map
        wrapped[id(orig_map)] = self._traced_map(orig_map,
                                                 util.resolve_threads)
        orig_ca = variational._coordinate_ascent
        wrapped[id(orig_ca)] = self._counted(
            orig_ca, lambda a, k, r: self.add("variational.optimizer_iters",
                                              r[2]))

        # rebind every module-level name bound to a wrapped function in the
        # modules that call it (the defining module only where listed)
        for mod_name, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                new = wrapped.get(id(value))
                if new is None:
                    continue
                home = getattr(value, "__module__", "").rsplit(".", 1)[-1]
                if home == mod_name and mod_name not in _SELF_REBOUND:
                    continue
                self._rebind(mod, attr, new)
        for attr, value in list(vars(hjparisi).items()):
            new = wrapped.get(id(value))
            if new is not None:
                self._rebind(hjparisi, attr, new)

        for cls in (paths.PiecewisePath, paths.SignedPiecewisePath):
            self._rebind(cls, "__post_init__", self._validate_hook(cls))
        self._rebind(finiten._Session, "draw", self._counted(
            finiten._Session.draw, self._draw_hook))

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def _validate_hook(self, cls):
        orig = cls.__dict__["__post_init__"]
        traced = self._wrap(orig, "paths.validate")

        def post_init(path):
            # PiecewisePath validation calls the base class's through
            # super(); count that as part of one validation
            if type(path) is not cls and cls.__name__ == \
                    "SignedPiecewisePath":
                return orig(path)
            return traced(path)

        post_init.__wrapped__ = orig
        return post_init

    def _draw_hook(self, args, kwargs, result):
        session = args[0]
        with self._lock:
            self.counts["finiten.samples"] += 1
            self.counts["finiten.cfg_leaf_terms"] += session.n_cfg * session.L

    def _count_hooks(self):
        add, raise_max = self.add, self.raise_max

        def psi_eval(a, k, r):
            q, quad = _arg(a, k, 1, "q"), _arg(a, k, 2, "quad")
            if r.method == "quadrature":
                add("onebody.psi_eval.grid_nodes",
                    quad.nodes_per_dim ** (q.D * (q.K + 1)))
            else:
                add("onebody.psi_eval.fallbacks")

        def psi_mc(a, k, r):
            p1, q = _arg(a, k, 0, "P1"), _arg(a, k, 1, "q")
            n_max, samples = _arg(a, k, 2, "n_max"), _arg(a, k, 3, "samples")
            add("onebody.psi_mc.samples", samples)
            add("onebody.psi_mc.leaf_terms",
                samples * int(n_max) ** q.K * len(p1.atoms))

        def grow(a, k, r):
            zetas, n_max = _arg(a, k, 0, "zetas"), _arg(a, k, 1, "n_max")
            batch = _arg(a, k, 3, "batch")
            add("cascade.grow.leaves",
                (1 if batch is None else batch) * int(n_max) ** len(zetas))
            raise_max("cascade.grow.truncation_ratio_max", r[1])

        def level_law(a, k, r):
            add("cascade.level_law.draws", r.draws)

        def solve(a, k, r):
            add("critpoint.solve.iterations", r.iterations)
            add("critpoint.solve.converged", int(r.converged))

        return {"onebody.psi_eval": psi_eval, "onebody.psi_mc": psi_mc,
                "cascade.grow": grow, "cascade.level_law": level_law,
                "critpoint.solve": solve}


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def pass_metrics(spans, counts, wall):
    """Per-layer metrics of one traced pass from its spans and counters."""
    children = {}
    for rec in spans:
        if rec[3] is not None:
            children.setdefault(id(rec[3]), []).append(rec)
    self_by_name = Counter()
    calls = Counter()
    top = 0.0
    under = Counter()       # psi_eval spans below each call-site name
    for rec in spans:
        name, s, e = rec[0], rec[1], rec[2]
        kids = children.get(id(rec), ())
        covered = _covered([(max(c[1], s), min(c[2], e)) for c in kids
                            if c[2] > s and c[1] < e])
        self_by_name[name] += (e - s) - covered
        if rec[5]:
            continue
        calls[name] += 1
        if rec[3] is None:
            top += e - s
        if name == "onebody.psi_eval":
            seen = set()
            anc = rec[3]
            while anc is not None:
                if not anc[5] and anc[0] not in seen:
                    seen.add(anc[0])
                    under[anc[0]] += 1
                anc = anc[3]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("onebody.psi_mc", "onebody.psi_eval", "onebody.psi_grad",
                 "cascade.grow", "model.xi_star", "model.xi",
                 "paths.validate", "paths.sqrt_increments", "critpoint.solve",
                 "variational.parisi_sup", "variational.hopf_lax",
                 "variational.parisi_std", "finiten.hamiltonian",
                 "util.logsumexp"):
        m[f"{name}.calls"] = calls[name]
    for name in ("onebody.psi_mc", "onebody.psi_eval", "onebody.psi_grad",
                 "cascade.grow", "cascade.level_law", "cascade.gg_check",
                 "model.xi_star", "model.xi", "model.probe", "paths.validate",
                 "paths.sqrt_increments", "critpoint.solve",
                 "critpoint.functional", "variational.parisi_sup",
                 "variational.hopf_lax", "variational.parisi_std",
                 "finiten.hamiltonian", "finiten.fe", "finiten.overlap",
                 "finiten.check", "util.logsumexp"):
        m[f"{name}.self_s"] = self_by_name[name]
    for key in ("onebody.psi_mc.samples", "onebody.psi_mc.leaf_terms",
                "onebody.psi_eval.grid_nodes", "onebody.psi_eval.fallbacks",
                "cascade.grow.leaves", "cascade.grow.truncation_ratio_max",
                "cascade.level_law.draws", "critpoint.solve.iterations",
                "variational.optimizer_iters", "finiten.samples",
                "finiten.cfg_leaf_terms", "util.pool.maps",
                "util.pool.items", "util.pool.busy_s", "util.pool.wait_s"):
        m[key] = counts[key]
    m["onebody.psi_grad.evals_per_call"] = ratio(
        under["onebody.psi_grad"], calls["onebody.psi_grad"])
    m["paths.validate.rejected_frac"] = ratio(
        counts["paths.validate.rejected"], calls["paths.validate"])
    m["critpoint.solve.converged_frac"] = ratio(
        counts["critpoint.solve.converged"], calls["critpoint.solve"])
    m["critpoint.solve.psi_evals_per_solve"] = ratio(
        under["critpoint.solve"], calls["critpoint.solve"])
    m["variational.psi_evals"] = sum(
        under[n] for n in ("variational.parisi_sup", "variational.hopf_lax",
                           "variational.parisi_std"))
    m["util.pool.busy_frac"] = ratio(counts["util.pool.busy_s"],
                                     counts["util.pool.capacity_s"])
    m["cli.commands"] = calls["cli.main"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_by_name.items()
                                   if k.split(".", 1)[0] == layer)
        m[f"{layer}.errors"] = counts[f"{layer}.errors"]
    m["trace.coverage"] = ratio(top, wall)
    return m


def span_table(spans):
    """Spans as plain rows [name, start, end, parent_row, task, pool_item]."""
    index = {id(rec): i for i, rec in enumerate(spans)}
    return [[rec[0], rec[1], rec[2],
             None if rec[3] is None else index.get(id(rec[3])),
             rec[4], rec[5]] for rec in spans]
