"""Command-line surface.

Every command resolves its full configuration (including seeds) into the
output payload so runs can be reproduced from the artifact alone; JSON
payloads carry a schema_version field, CSV sweeps carry it in a leading
comment line.  Exit codes: 0 success, 1 validation error, 2 numerical
non-convergence, 64 usage error.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import cascade as casc
from . import critpoint as cp
from . import finiten as fn
from . import model as mdl
from . import onebody as ob
from . import variational as var
from .errors import NonConvergence, ValidationError
from .paths import path_from_json_dict, path_to_json_dict
from .util import resolve_threads

SCHEMA_VERSION = 1

_GG_FUNCTIONS = {
    "one": lambda r: 1.0,
    "r12": lambda r: r[0, 1],
    "r12sq": lambda r: r[0, 1] ** 2,
    "offmean": lambda r: (r.sum() - np.trace(r)) / max(r.shape[0] ** 2
                                                      - r.shape[0], 1),
    "maxoff": lambda r: (r - np.diag(np.diag(r))).max(),
}


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _load_model(path):
    return mdl.load_model_dict(_load_json(path))


def _load_path(path):
    return path_from_json_dict(_load_json(path))


def _emit(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    click.echo(text)


def _payload(config, result):
    return {"schema_version": SCHEMA_VERSION, "config": config,
            "result": result}


def _quad(nodes, mc_samples, mc_seed):
    fallback = None
    if mc_samples is not None:
        fallback = {"samples": mc_samples, "seed": mc_seed}
    return ob.QuadratureSpec(nodes_per_dim=nodes, mc_fallback=fallback)


threads_option = click.option("--threads", type=int, default=None,
                              help="worker cap (default: HJPARISI_THREADS "
                                   "or 1); results do not depend on it")
nodes_option = click.option("--nodes", type=int, default=32,
                            help="Gauss-Hermite nodes per dimension")
# the variational searches evaluate psi thousands of times, so their
# default grid is coarser
opt_nodes_option = click.option("--nodes", type=int, default=16,
                                help="Gauss-Hermite nodes per dimension")


@click.group()
def cli():
    """Numerics for cascade free energies and their variational forms."""


@cli.group()
def model():
    """Model inspection."""


@model.command("check")
@click.option("--model", "model_path", required=True)
@click.option("--samples", type=int, default=200)
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None)
def model_check(model_path, samples, seed, out):
    m, p1 = _load_model(model_path)
    probe = mdl.convexity_probe(m, samples=samples, seed=seed)
    lip = mdl.grad_lipschitz_const(m, samples=samples, seed=seed)
    tc = cp.t_critical(m)
    result = {
        "D": m.D,
        "degrees": sorted(p for p, _ in m.terms),
        "n_atoms": len(p1.atoms),
        "convex_on_psd": bool(probe.is_convex_on_psd),
        "convexity_witness": None if probe.witness is None else
            [np.asarray(w).tolist() for w in probe.witness],
        "grad_lipschitz": lip,
        "grad_lipschitz_upper_bound": mdl.grad_lipschitz_upper_bound(m),
        "t_critical": tc if np.isfinite(tc) else "inf",
    }
    config = {"model": model_path, "samples": samples, "seed": seed}
    _emit(_payload(config, result), out)


@cli.group()
def psi():
    """One-body free energy."""


@psi.command("eval")
@click.option("--model", "model_path", required=True)
@click.option("--path", "path_path", required=True)
@nodes_option
@click.option("--mc-samples", type=int, default=None,
              help="enable the budget fallback with this many samples")
@click.option("--mc-seed", type=int, default=0)
@threads_option
@click.option("--out", default=None)
def psi_eval_cmd(model_path, path_path, nodes, mc_samples, mc_seed, threads,
                 out):
    _, p1 = _load_model(model_path)
    q = _load_path(path_path)
    res = ob.psi_eval(p1, q, _quad(nodes, mc_samples, mc_seed),
                      threads=resolve_threads(threads))
    config = {"model": model_path, "path": path_path, "nodes": nodes,
              "mc_samples": mc_samples, "mc_seed": mc_seed}
    _emit(_payload(config, {"value": res.value, "method": res.method,
                            "error_estimate": res.error_estimate}), out)


@psi.command("grad")
@click.option("--model", "model_path", required=True)
@click.option("--path", "path_path", required=True)
@nodes_option
@click.option("--mc-samples", type=int, default=None,
              help="enable the budget fallback with this many samples")
@click.option("--mc-seed", type=int, default=0)
@threads_option
@click.option("--out", default=None)
def psi_grad_cmd(model_path, path_path, nodes, mc_samples, mc_seed, threads,
                 out):
    _, p1 = _load_model(model_path)
    q = _load_path(path_path)
    g = ob.psi_grad(p1, q, _quad(nodes, mc_samples, mc_seed),
                    threads=resolve_threads(threads))
    config = {"model": model_path, "path": path_path, "nodes": nodes,
              "mc_samples": mc_samples, "mc_seed": mc_seed}
    _emit(_payload(config, {"gradient": path_to_json_dict(g)}), out)


@cli.group()
def crit():
    """Critical points of the Hamilton-Jacobi functional."""


def _cp_dict(c):
    return {"p": path_to_json_dict(c.p), "q_prime": path_to_json_dict(c.q_prime),
            "j_value": c.j_value, "residual_l2": c.residual_l2,
            "iterations": c.iterations, "converged": c.converged,
            "t": c.t, "t_hat": c.t_hat}


@crit.command("solve")
@click.option("--model", "model_path", required=True)
@click.option("--path", "path_path", required=True)
@click.option("--t", type=float, required=True)
@click.option("--that", type=float, default=0.0)
@click.option("--tol", type=float, default=1e-8)
@click.option("--damping", type=float, default=0.5)
@click.option("--max-iters", type=int, default=500)
@click.option("--refine", type=int, default=0,
              help="split every block of the path evenly this many times")
@nodes_option
@threads_option
@click.option("--out", default=None)
def crit_solve(model_path, path_path, t, that, tol, damping, max_iters,
               refine, nodes, threads, out):
    m, p1 = _load_model(model_path)
    q = _load_path(path_path)
    for _ in range(refine):
        q = _split_blocks(q)
    opts = cp.SolverOptions(damping=damping, tol=tol, max_iters=max_iters)
    res = cp.solve_critical(m, p1, t, that, q, opts, _quad(nodes, None, 0),
                            threads=resolve_threads(threads))
    config = {"model": model_path, "path": path_path, "t": t, "that": that,
              "tol": tol, "damping": damping, "max_iters": max_iters,
              "refine": refine, "nodes": nodes}
    _emit(_payload(config, _cp_dict(res)), out)
    if not res.converged:
        raise NonConvergence(f"solver stalled at residual {res.residual_l2:g}")


def _split_blocks(q):
    from .paths import PiecewisePath
    zetas, values = [], []
    ext = list(q.zetas) + [1.0]
    for k, v in enumerate(q.values):
        zetas += [ext[k], 0.5 * (ext[k] + ext[k + 1])]
        values += [v, v]
    return PiecewisePath(zetas, values)


@crit.command("sweep")
@click.option("--model", "model_path", required=True)
@click.option("--path", "path_path", required=True)
@click.option("--t-grid", required=True,
              help="comma-separated increasing t values")
@click.option("--that", type=float, default=0.0)
@click.option("--tol", type=float, default=1e-8)
@click.option("--damping", type=float, default=0.5)
@click.option("--max-iters", type=int, default=500)
@nodes_option
@threads_option
@click.option("--out", default=None)
def crit_sweep(model_path, path_path, t_grid, that, tol, damping, max_iters,
               nodes, threads, out):
    m, p1 = _load_model(model_path)
    q = _load_path(path_path)
    grid = [float(x) for x in t_grid.split(",")]
    opts = cp.SolverOptions(damping=damping, tol=tol, max_iters=max_iters)
    points = cp.continuation(m, p1, grid, that, q, opts,
                             _quad(nodes, None, 0),
                             threads=resolve_threads(threads))
    config = {"model": model_path, "path": path_path, "t_grid": grid,
              "that": that, "tol": tol, "damping": damping,
              "max_iters": max_iters, "nodes": nodes}
    lines = ["# hjparisi-csv schema_version=%d config=%s"
             % (SCHEMA_VERSION, json.dumps(config, sort_keys=True)),
             "t,j_value,residual_l2,iterations,converged,jump_from_prev"]
    prev = None
    for c in points:
        jump = ""
        if prev is not None:
            jump = repr(float(cp.block_norm_l2(
                cp._diff_path(c.p, prev.p))))
        lines.append("%r,%r,%r,%d,%s,%s" % (c.t, c.j_value, c.residual_l2,
                                            c.iterations, c.converged, jump))
        prev = c
    text = "\n".join(lines)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    click.echo(text)


@cli.group()
def parisi():
    """Convex-case variational formulas."""


@parisi.command("sup")
@click.option("--model", "model_path", required=True)
@click.option("--path", "path_path", required=True)
@click.option("--t", type=float, required=True)
@click.option("--partition", default=None,
              help="comma-separated interior breakpoints for p")
@opt_nodes_option
@threads_option
@click.option("--out", default=None)
def parisi_sup_cmd(model_path, path_path, t, partition, nodes, threads, out):
    m, p1 = _load_model(model_path)
    q = _load_path(path_path)
    part = None
    if partition:
        part = [float(x) for x in partition.split(",")]
    res = var.parisi_sup(m, p1, t, q, partition=part,
                         quad=_quad(nodes, None, 0),
                         threads=resolve_threads(threads))
    config = {"model": model_path, "path": path_path, "t": t,
              "partition": part, "nodes": nodes}
    _emit(_payload(config, {
        "value": res.value, "argmax": path_to_json_dict(res.argmax_path),
        "optimizer_iters": res.optimizer_iters,
        "first_order_residual": res.first_order_residual}), out)


@parisi.command("hopflax")
@click.option("--model", "model_path", required=True)
@click.option("--path", "path_path", required=True)
@click.option("--t", type=float, required=True)
@opt_nodes_option
@threads_option
@click.option("--out", default=None)
def parisi_hopflax(model_path, path_path, t, nodes, threads, out):
    m, p1 = _load_model(model_path)
    q = _load_path(path_path)
    value = var.hopf_lax_value(m, p1, t, q, quad=_quad(nodes, None, 0),
                               threads=resolve_threads(threads))
    config = {"model": model_path, "path": path_path, "t": t, "nodes": nodes}
    _emit(_payload(config, {"value": value}), out)


@parisi.command("std")
@click.option("--model", "model_path", required=True)
@opt_nodes_option
@threads_option
@click.option("--out", default=None)
def parisi_std_cmd(model_path, nodes, threads, out):
    m, p1 = _load_model(model_path)
    value = var.parisi_std(m, p1, quad=_quad(nodes, None, 0),
                           threads=resolve_threads(threads))
    config = {"model": model_path, "nodes": nodes}
    _emit(_payload(config, {"value": value}), out)


@cli.group(name="cascade")
def cascade_group():
    """Cascade diagnostics."""


@cascade_group.command("diag")
@click.option("--zetas", required=True,
              help="comma-separated interior levels")
@click.option("--nmax", type=int, default=64)
@click.option("--draws", type=int, default=10000)
@click.option("--gg-draws", type=int, default=2000)
@click.option("--gg-n", type=int, default=3)
@click.option("--gg-functions", default="one,r12",
              help="subset of %s" % ",".join(sorted(_GG_FUNCTIONS)))
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None)
def cascade_diag(zetas, nmax, draws, gg_draws, gg_n, gg_functions, seed, out):
    zs = [float(x) for x in zetas.split(",")]
    sample = casc.sample_cascade(zs, nmax, seed)
    law = casc.overlap_level_law(sample, draws, seed + 1)
    gg = {}
    for name in gg_functions.split(","):
        name = name.strip()
        if name not in _GG_FUNCTIONS:
            raise ValidationError(f"unknown gg function {name!r}")
        r = casc.gg_check(sample, _GG_FUNCTIONS[name], gg_n, gg_draws,
                          seed + 2)
        gg[name] = {"residual": r.residual, "stderr": r.stderr,
                    "truncation_bias": r.truncation_bias}
    config = {"zetas": zs, "nmax": nmax, "draws": draws,
              "gg_draws": gg_draws, "gg_n": gg_n,
              "gg_functions": gg_functions, "seed": seed}
    result = {"level_freqs": law.freqs.tolist(),
              "level_expected": law.expected.tolist(),
              "level_stderrs": law.stderrs.tolist(),
              "truncation_ratio": law.truncation_ratio,
              "gg": gg}
    _emit(_payload(config, result), out)


@cli.group(name="finiteN")
def finiten_group():
    """Finite-size Monte Carlo oracle."""


_common_fn = [
    click.option("--model", "model_path", required=True),
    click.option("--path", "path_path", required=True),
    click.option("--t", type=float, required=True),
    click.option("--that", type=float, default=0.0),
    click.option("--n", "n_spins", type=int, required=True),
    click.option("--samples", type=int, default=1000),
    click.option("--nmax", type=int, default=64),
    click.option("--seed", type=int, default=0),
]


def _with_common(f):
    for opt in reversed(_common_fn):
        f = opt(f)
    return f


@finiten_group.command("fe")
@_with_common
@threads_option
@click.option("--out", default=None)
def finiten_fe(model_path, path_path, t, that, n_spins, samples, nmax, seed,
               threads, out):
    m, p1 = _load_model(model_path)
    q = _load_path(path_path)
    est = fn.free_energy_mc(m, p1, n_spins, t, q, that, samples, nmax, seed,
                            threads=resolve_threads(threads))
    config = {"model": model_path, "path": path_path, "t": t, "that": that,
              "N": n_spins, "samples": samples, "nmax": nmax, "seed": seed}
    lines = ["# hjparisi-csv schema_version=%d config=%s"
             % (SCHEMA_VERSION, json.dumps(config, sort_keys=True)),
             "estimate,stderr,n_samples",
             "%r,%r,%d" % (est.mean, est.stderr, est.n_samples)]
    text = "\n".join(lines)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    click.echo(text)


@finiten_group.command("overlap")
@_with_common
@click.option("--histogram/--no-histogram", default=False)
@threads_option
@click.option("--out", default=None)
def finiten_overlap(model_path, path_path, t, that, n_spins, samples, nmax,
                    seed, histogram, threads, out):
    m, p1 = _load_model(model_path)
    q = _load_path(path_path)
    law = fn.gibbs_overlap_law(m, p1, n_spins, t, q, that, samples, nmax,
                               seed, with_histogram=histogram,
                               threads=resolve_threads(threads))
    config = {"model": model_path, "path": path_path, "t": t, "that": that,
              "N": n_spins, "samples": samples, "nmax": nmax, "seed": seed,
              "histogram": histogram}
    result = {
        "levels": law.levels.tolist(),
        "level_mass": law.level_mass.tolist(),
        "level_mass_stderr": law.level_mass_stderr.tolist(),
        "cond_mean": law.cond_mean.tolist(),
        "cond_mean_stderr": law.cond_mean_stderr.tolist(),
        "max_abs_overlap": law.max_abs_overlap,
        "n_samples": law.n_samples,
    }
    if law.scalar_hist is not None:
        result["overlap_values"] = law.scalar_hist[0].tolist()
        result["joint_mass"] = law.scalar_hist[1].tolist()
    _emit(_payload(config, result), out)


@finiten_group.command("check")
@_with_common
@threads_option
@click.option("--out", default=None)
def finiten_check(model_path, path_path, t, that, n_spins, samples, nmax,
                  seed, threads, out):
    if that != 0.0:
        raise ValidationError("finiteN check runs at t_hat = 0 only; "
                              "--that must be 0")
    m, p1 = _load_model(model_path)
    q = _load_path(path_path)
    report = fn.identity_checks(m, p1, n_spins, t, q, samples, seed,
                                n_max=nmax, threads=resolve_threads(threads))
    config = {"model": model_path, "path": path_path, "t": t, "that": that,
              "N": n_spins, "samples": samples, "nmax": nmax, "seed": seed}
    result = {name: {"passed": c.passed, "lhs": c.lhs, "rhs": c.rhs,
                     "sigma": c.sigma, "note": c.note}
              for name, c in report.checks.items()}
    result["all_passed"] = report.all_passed
    _emit(_payload(config, result), out)
    if not report.all_passed:
        sys.exit(1)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        exc.show()
        return 64
    except click.Abort:
        return 130
    except ValidationError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except NonConvergence as exc:
        click.echo(f"non-convergence: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
