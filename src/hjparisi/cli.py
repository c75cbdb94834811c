"""Command-line surface.

Every payload's `config` is the options click parsed for the command,
defaults included, except --threads and --out, so runs can be reproduced
from the artifact alone; JSON payloads carry a schema_version field, CSV
sweeps carry it in a leading comment line.  Seeds are non-negative,
--mc-samples is at least 8 and --out is writable before any work starts.
Exit codes: 0 success, 1 validation error, 2 numerical non-convergence,
64 usage error.
"""

from __future__ import annotations

import json
import os
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
from .paths import _on_partition, path_from_json_dict, path_to_json_dict

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


def _write(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    # click caches a wrapper per default stream and the wrapper keeps its
    # stream alive, so each in-process run that swaps sys.stdout would
    # leak that stream; naming the stream skips the cache
    click.echo(text, file=sys.stdout)


def _config():
    """The running command's parsed options but --threads and --out."""
    return {name: value for name, value
            in click.get_current_context().params.items()
            if name not in ("threads", "out")}


def _emit(result, out, **sections):
    payload = {"schema_version": SCHEMA_VERSION, "config": _config(),
               "result": result, **sections}
    _write(json.dumps(payload, indent=2, sort_keys=True), out)


def _emit_csv(header, rows, out):
    _write("\n".join(["# hjparisi-csv schema_version=%d config=%s"
                      % (SCHEMA_VERSION, json.dumps(_config(), sort_keys=True)),
                      header] + rows), out)


def _quad(nodes, mc_samples=None, mc_seed=0):
    fallback = None
    if mc_samples is not None:
        fallback = {"samples": mc_samples, "seed": mc_seed}
    return ob.QuadratureSpec(nodes_per_dim=nodes, mc_fallback=fallback)


def _float_list(ctx, param, value):
    """Click callback: a comma-separated list of numbers, or None."""
    if value is None:
        return None
    try:
        return [float(x) for x in value.split(",")]
    except ValueError:
        raise click.BadParameter(
            f"{value!r} is not a comma-separated list of numbers") from None


def _writable(ctx, param, value):
    """Click callback: --out names a file that can be written, checked
    before the command starts its work."""
    if value:
        folder = os.path.dirname(os.path.abspath(value))
        target = value if os.path.exists(value) else folder
        if (os.path.isdir(value) or not os.path.isdir(folder)
                or not os.access(target, os.W_OK)):
            raise click.BadParameter(f"cannot write to {value}")
    return value


def _options(*opts):
    """Decorator: the click options, in the order given."""
    def apply(f):
        for opt in reversed(opts):
            f = opt(f)
        return f
    return apply


def _seed_option(flag="--seed"):
    return click.option(flag, type=click.IntRange(min=0), default=0)


model_option = click.option("--model", required=True)
path_option = click.option("--path", required=True)
out_option = click.option("--out", default=None, callback=_writable)
t_option = click.option("--t", type=float, required=True)
that_option = click.option("--that", type=float, default=0.0)
nmax_option = click.option("--nmax", type=int, default=64)
threads_option = click.option("--threads", type=int, default=None,
                              help="worker cap (default 1); results do not "
                                   "depend on it")
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
@_options(model_option, click.option("--samples", type=int, default=200),
          _seed_option(), out_option)
def model_check(model, samples, seed, out):
    m, p1 = _load_model(model)
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
    _emit(result, out)


@cli.group()
def psi():
    """One-body free energy."""


def _psi_command(name, grad):
    """psi eval, or with grad psi grad: one recursion pass, whose result
    names the method that served it."""

    @psi.command(name)
    @_options(model_option, path_option, nodes_option,
              click.option("--mc-samples", type=int, default=None,
                           help="enable the budget fallback with this many "
                                "samples (at least 8)"),
              _seed_option("--mc-seed"), threads_option, out_option)
    def command(model, path, nodes, mc_samples, mc_seed, threads, out):
        _, p1 = _load_model(model)
        res, g = ob._psi_pass(p1, _load_path(path),
                              _quad(nodes, mc_samples, mc_seed),
                              threads=threads, grad=grad)
        result = {"method": res.method, "error_estimate": res.error_estimate}
        if grad:
            result["gradient"] = path_to_json_dict(g)
        else:
            result["value"] = res.value
        _emit(result, out)

    return command


psi_eval_cmd = _psi_command("eval", grad=False)
psi_grad_cmd = _psi_command("grad", grad=True)


@cli.group()
def crit():
    """Critical points of the Hamilton-Jacobi functional."""


def _cp_dict(c):
    return {"p": path_to_json_dict(c.p), "q_prime": path_to_json_dict(c.q_prime),
            "j_value": c.j_value, "residual_l2": c.residual_l2,
            "iterations": c.iterations, "converged": c.converged,
            "t": c.t, "t_hat": c.t_hat,
            "residual_history": list(c.residual_history)}


# crit solve and crit sweep: the problem and the solver's options
_solver_options = _options(
    model_option, path_option, that_option,
    click.option("--tol", type=float, default=1e-8),
    click.option("--damping", type=float, default=0.5),
    click.option("--max-iters", type=int, default=500))


@crit.command("solve")
@_solver_options
@_options(t_option,
          click.option("--refine", type=click.IntRange(min=0), default=0,
                       help="split every block of the path evenly this many "
                            "times"),
          nodes_option, threads_option, out_option)
def crit_solve(model, path, that, tol, damping, max_iters, t, refine, nodes,
               threads, out):
    m, p1 = _load_model(model)
    q = _load_path(path)
    for _ in range(refine):
        q = _split_blocks(q)
    opts = cp.SolverOptions(damping=damping, tol=tol, max_iters=max_iters)
    res = cp.solve_critical(m, p1, t, that, q, opts, _quad(nodes),
                            threads=threads)
    _emit(_cp_dict(res), out)
    if not res.converged:
        raise NonConvergence(f"solver stalled at residual {res.residual_l2:g}")


def _split_blocks(q):
    """q on its breakpoints and their midpoints."""
    ext = np.append(q.zetas, 1.0)
    return _on_partition(q, np.sort(np.append(q.zetas,
                                              0.5 * (ext[:-1] + ext[1:]))))


@crit.command("sweep")
@_solver_options
@_options(click.option("--t-grid", required=True, callback=_float_list,
                       help="comma-separated increasing t values"),
          nodes_option, threads_option, out_option)
def crit_sweep(model, path, that, tol, damping, max_iters, t_grid, nodes,
               threads, out):
    m, p1 = _load_model(model)
    q = _load_path(path)
    opts = cp.SolverOptions(damping=damping, tol=tol, max_iters=max_iters)
    points = cp.continuation(m, p1, t_grid, that, q, opts, _quad(nodes),
                             threads=threads)
    rows = []
    prev = None
    for c in points:
        jump = ""
        if prev is not None:
            jump = repr(float(cp.block_norm_l2(
                cp._diff_path(c.p, prev.p))))
        rows.append("%r,%r,%r,%d,%s,%s" % (c.t, c.j_value, c.residual_l2,
                                           c.iterations, c.converged, jump))
        prev = c
    _emit_csv("t,j_value,residual_l2,iterations,converged,jump_from_prev",
              rows, out)


@cli.group()
def parisi():
    """Convex-case variational formulas."""


# parisi sup and parisi hopflax: the problem
_variational_options = _options(model_option, path_option, t_option)


@parisi.command("sup")
@_variational_options
@_options(click.option("--partition", default=None, callback=_float_list,
                       help="comma-separated interior breakpoints for p"),
          opt_nodes_option, threads_option, out_option)
def parisi_sup_cmd(model, path, t, partition, nodes, threads, out):
    m, p1 = _load_model(model)
    res = var.parisi_sup(m, p1, t, _load_path(path), partition=partition,
                         quad=_quad(nodes), threads=threads)
    _emit({"value": res.value, "argmax": path_to_json_dict(res.argmax_path),
           "optimizer_iters": res.optimizer_iters,
           "first_order_residual": res.first_order_residual}, out)


@parisi.command("hopflax")
@_variational_options
@_options(opt_nodes_option, threads_option, out_option)
def parisi_hopflax(model, path, t, nodes, threads, out):
    m, p1 = _load_model(model)
    value = var.hopf_lax_value(m, p1, t, _load_path(path), quad=_quad(nodes),
                               threads=threads)
    _emit({"value": value}, out)


@parisi.command("std")
@_options(model_option, opt_nodes_option, threads_option, out_option)
def parisi_std_cmd(model, nodes, threads, out):
    m, p1 = _load_model(model)
    _emit({"value": var.parisi_std(m, p1, quad=_quad(nodes),
                                   threads=threads)}, out)


@cli.group(name="cascade")
def cascade_group():
    """Cascade diagnostics."""


@cascade_group.command("diag")
@click.option("--zetas", required=True, callback=_float_list,
              help="comma-separated interior levels")
@_options(nmax_option, click.option("--draws", type=int, default=10000),
          click.option("--gg-draws", type=int, default=2000),
          click.option("--gg-n", type=int, default=3),
          click.option("--gg-functions", default="one,r12",
                       help="subset of %s" % ",".join(sorted(_GG_FUNCTIONS))),
          _seed_option(), out_option)
def cascade_diag(zetas, nmax, draws, gg_draws, gg_n, gg_functions, seed, out):
    sample = casc.sample_cascade(zetas, nmax, seed)
    law = casc.overlap_level_law(sample, draws, seed + 1)
    gg = {}
    for name in gg_functions.split(","):
        name = name.strip()
        if name not in _GG_FUNCTIONS:
            raise ValidationError(f"unknown gg function {name!r}")
        r = casc.gg_check(sample, _GG_FUNCTIONS[name], gg_n, gg_draws,
                          seed + 2)
        gg[name] = {"residual": r.residual, "stderr": r.stderr,
                    "truncation_bias": r.truncation_bias, "draws": r.draws}
    result = {"level_freqs": law.freqs.tolist(),
              "level_expected": law.expected.tolist(),
              "level_stderrs": law.stderrs.tolist(),
              "truncation_ratio": law.truncation_ratio,
              "gg": gg}
    _emit(result, out)


@cli.group(name="finiteN")
def finiten_group():
    """Finite-size Monte Carlo oracle."""


_finiten_options = _options(
    model_option, path_option, t_option, that_option,
    click.option("--n", "N", type=int, required=True),
    click.option("--samples", type=int, default=1000),
    nmax_option, _seed_option())


@finiten_group.command("fe")
@_finiten_options
@_options(threads_option, out_option)
def finiten_fe(model, path, t, that, N, samples, nmax, seed, threads, out):
    m, p1 = _load_model(model)
    est = fn.free_energy_mc(m, p1, N, t, _load_path(path), that, samples, nmax,
                            seed, threads=threads)
    _emit_csv("estimate,stderr,n_samples,truncation_ratio",
              ["%r,%r,%d,%r" % (est.mean, est.stderr, est.n_samples,
                                est.truncation_ratio)], out)


@finiten_group.command("overlap")
@_finiten_options
@_options(click.option("--histogram/--no-histogram", default=False),
          threads_option, out_option)
def finiten_overlap(model, path, t, that, N, samples, nmax, seed, histogram,
                    threads, out):
    m, p1 = _load_model(model)
    law = fn.gibbs_overlap_law(m, p1, N, t, _load_path(path), that, samples,
                               nmax, seed, with_histogram=histogram,
                               threads=threads)
    result = {
        "levels": law.levels.tolist(),
        "level_mass": law.level_mass.tolist(),
        "level_mass_stderr": law.level_mass_stderr.tolist(),
        "cond_mean": law.cond_mean.tolist(),
        "cond_mean_stderr": law.cond_mean_stderr.tolist(),
        "max_abs_overlap": law.max_abs_overlap,
        "n_samples": law.n_samples,
        "truncation_ratio": law.truncation_ratio,
    }
    if law.scalar_hist is not None:
        result["overlap_values"] = law.scalar_hist[0].tolist()
        result["joint_mass"] = law.scalar_hist[1].tolist()
    _emit(result, out)


@finiten_group.command("check")
@_finiten_options
@_options(threads_option, out_option)
def finiten_check(model, path, t, that, N, samples, nmax, seed, threads, out):
    if that != 0.0:
        raise ValidationError("finiteN check runs at t_hat = 0 only; "
                              "--that must be 0")
    m, p1 = _load_model(model)
    report = fn.identity_checks(m, p1, N, t, _load_path(path), samples, seed,
                                n_max=nmax, threads=threads)
    result = {name: {"passed": c.passed, "lhs": c.lhs, "rhs": c.rhs,
                     "sigma": c.sigma, "note": c.note}
              for name, c in report.checks.items()}
    result["all_passed"] = report.all_passed
    # beside `result`, whose other keys are all identity checks
    _emit(result, out,
          diagnostics={"truncation_ratio": report.truncation_ratio})
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
