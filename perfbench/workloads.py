"""The three benchmark workloads and the checks on each task's result.

Every workload is a fixed battery of tasks built from the seed: the
shapes (models, depths, grid sizes, sample counts, temperatures) are the
same for every seed, and the seed only draws the random values (paths,
solver starts, cascade levels, Monte Carlo seeds).  The cost of a pass
therefore hardly depends on the seed, while a claim can still be checked
on inputs nobody tuned against.  See README.md for why each one exists.

A task returns None when its check passes and a short message when it
fails; an exception counts as a failure too.  The message is a `Miss`
when a statistical tolerance (a 3-sigma or chi-square bound) was missed
on finite values, which a correct program does by chance; every other
failure, a non-finite value or an unexpected exit code among them, is
deterministic.  Each check is written in pass form (`not value <= tol`),
so a NaN fails it.  Tolerances are those of the acceptance gates in
tests/test_acceptance.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import hjparisi
import hjparisi.cli
from hjparisi import (PiecewisePath, QuadratureSpec, SolverOptions,
                      frobenius_square, sk)
from hjparisi.model import ising_measure

P1D1 = ising_measure(1)
P1D2 = ising_measure(2)

CHI2_99_2DF = 9.21034      # 99% point of chi-square with 2 degrees of freedom


CHI2_99 = 0.01               # chance that a correct law fails the test


class Miss(str):
    """Failure message of a statistical check that missed its tolerance."""


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def three_sigma_miss(dof):
    """Chance that a correct estimate misses a 3-sigma bound whose sigma is
    itself estimated with `dof` degrees of freedom: P(|T| > 3) for
    Student's t (0.0027 as dof grows, 0.0053 at dof = 31)."""
    c = math.exp(math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)) \
        / math.sqrt(dof * math.pi)

    def pdf(x):
        return c * (1.0 + x * x / dof) ** (-(dof + 1) / 2)

    n, h = 600, 3.0 / 600     # Simpson's rule on [0, 3]
    inner = pdf(0.0) + pdf(3.0) + sum((4 if i % 2 else 2) * pdf(i * h)
                                       for i in range(1, n))
    return 1.0 - 2.0 * inner * h / 3.0


@dataclass
class Task:
    name: str
    run: object             # () -> None | str
    # probability that the check fails by chance on a correct program;
    # 0 for a deterministic check
    false_alarm: float = 0.0


@dataclass
class Battery:
    tasks: list
    warmup: Task
    threads: int
    # checks run once after the timed region: () -> list of failure messages
    after: object = None


def _rng(seed, salt):
    return np.random.default_rng([int(seed), salt])


def _spath(zetas, vals):
    return PiecewisePath(list(zetas), [[[float(v)]] for v in vals])


def _random_zetas(rng, K, lo=0.15, hi=0.7):
    while True:
        z = np.sort(rng.uniform(lo, hi, size=K))
        if K < 2 or np.min(np.diff(z)) > 0.1:
            return z


def _random_increasing_path(rng, D, K, zeta_range=(0.15, 0.7)):
    """Random increasing path with final norm below 0.85 (gate 2's law).

    Samplers that truncate the cascade at n_max atoms per node drop a
    share of about n_max^(1 - 1/zeta) of the mass, so callers with small
    n_max keep the levels lower.
    """
    z = _random_zetas(rng, K, *zeta_range)
    vals, acc = [], np.zeros((D, D))
    for _ in range(K + 1):
        a = rng.standard_normal((D, D)) * 0.45
        acc = acc + a @ a.T / D
        vals.append(acc.copy())
    nrm = float(np.linalg.norm(vals[-1]))
    cap = float(rng.uniform(0.35, 0.85))
    if nrm > cap:
        vals = [v * (cap / nrm) for v in vals]
    return PiecewisePath([0.0, *z], vals)


# ---------------------------------------------------------------- crosscheck

# (D, K, n_max, psi_mc samples, tasks per pass).  Leaves per sample run from
# 1 to 256^2, and every psi_mc call draws at least 32 samples so that its
# stderr estimate can be trusted.  Sorted by latency, a pass is 15 light
# tasks (with the GG checks), then 18 depth-2 tasks at n_max=64 that hold
# both the median and the 75th percentile, then 7 heavy tasks.
CROSSCHECK_PATHS = (
    (1, 0, 256, 2000, 3),
    (2, 0, 256, 1000, 1),
    (1, 1, 256, 400, 2),
    (2, 1, 256, 100, 2),
    (1, 2, 64, 150, 18),
    (1, 2, 256, 32, 3),
    (2, 2, 64, 48, 2),
)
LEVEL_LAW_TASKS = 2
# gate 7's five statistics; the overlap and its square get a second cascade
GG_STATISTICS = (
    lambda r: 1.0,
    lambda r: r[0, 1],
    lambda r: r[0, 1] ** 2,
    lambda r: float(np.mean(r[np.triu_indices_from(r, 1)])),
    lambda r: float(np.max(r - np.eye(len(r)))),
)
GG_TASKS = (0, 1, 2, 3, 4, 1, 2)


def _path_task(name, D, K, n_max, samples, rng):
    q = _random_increasing_path(rng, D, K,
                                (0.15, 0.7 if n_max >= 256 else 0.5))
    p1 = P1D1 if D == 1 else P1D2
    quad = QuadratureSpec(32 if D == 1 else 12)
    mc_seed = int(rng.integers(2 ** 31))
    onebody = hjparisi.onebody

    def run():
        ev = onebody.psi_eval(p1, q, quad, threads=1)
        mc = onebody.psi_mc(p1, q, n_max=n_max, samples=samples,
                            seed=mc_seed, threads=1)
        if not _finite(ev.value, mc.value, mc.error_estimate):
            return (f"non-finite: eval {ev.value!r}, mc {mc.value!r} "
                    f"+- {mc.error_estimate!r}")
        gap = abs(ev.value - mc.value)
        tol = 3 * mc.error_estimate + 1e-5
        if not gap <= tol:
            return Miss(f"|eval - mc| = {gap:.3g} > {tol:.3g}")
        return None

    return Task(name, run, three_sigma_miss(samples - 1))


def _cascade_levels(rng):
    """Two levels in (0.12, 0.4): truncation at n_max >= 48 then biases the
    level law far less than the chi-square test can resolve."""
    z1 = rng.uniform(0.12, 0.22)
    return np.array([z1, rng.uniform(z1 + 0.1, 0.4)])


def _level_law_task(i, rng):
    zetas = _cascade_levels(rng)
    c_seed, l_seed = (int(s) for s in rng.integers(2 ** 31, size=2))
    cascade = hjparisi.cascade

    def run():
        casc = cascade.sample_cascade(zetas, 48, c_seed)
        law = cascade.overlap_level_law(casc, draws=2000, seed=l_seed)
        chi2 = law.draws * float(
            np.sum((law.freqs - law.expected) ** 2 / law.expected))
        if not _finite(chi2):
            return f"level-law chi2 = {chi2!r}"
        if not chi2 <= CHI2_99_2DF:
            return Miss(f"level-law chi2 = {chi2:.6g} > {CHI2_99_2DF}")
        return None

    return Task(f"level_law_{i}", run, CHI2_99)


def _gg_task(i, j, rng):
    zetas = _cascade_levels(rng)
    c_seed, g_seed = (int(s) for s in rng.integers(2 ** 31, size=2))
    cascade = hjparisi.cascade

    def run():
        casc = cascade.sample_cascade(zetas, 64, c_seed)
        res = cascade.gg_check(casc, GG_STATISTICS[j], n=3, draws=400,
                               seed=g_seed)
        if not _finite(res.residual, res.stderr, res.truncation_bias):
            return (f"GG statistic {j}: residual {res.residual!r}, stderr "
                    f"{res.stderr!r}, bias {res.truncation_bias!r}")
        tol = 3 * res.stderr + res.truncation_bias
        if not res.residual <= tol:
            return Miss(f"GG statistic {j}: residual {res.residual:.3g} > "
                        f"{tol:.3g}")
        return None

    # gg_check's stderr comes from 20 batch means
    return Task(f"gg_{i}", run, three_sigma_miss(19))


def build_crosscheck(seed, workdir):
    rng = _rng(seed, 1)
    tasks = []
    for D, K, n_max, samples, count in CROSSCHECK_PATHS:
        for i in range(count):
            tasks.append(_path_task(f"path_D{D}_K{K}_{i}", D, K, n_max,
                                    samples, rng))
    tasks += [_level_law_task(i, rng) for i in range(LEVEL_LAW_TASKS)]
    tasks += [_gg_task(i, j, rng) for i, j in enumerate(GG_TASKS)]
    warmup = _path_task("warmup", 1, 2, 16, 8, _rng(seed, 2))
    return Battery(tasks, warmup, threads=1)


# --------------------------------------------------------------------- solve

SOLVE_QUAD = {1: QuadratureSpec(24), 2: QuadratureSpec(8)}
# (model, base path, t, t_hat, steps run, chains per pass).  sk(1) has
# t_c = 1/32; the t_hat > 0 chains carry the overlap coupling of gate 9,
# for which the variational formulas do not apply.  The seven chains below
# t_c put their hopf_lax tasks around the 75th latency percentile, so the
# tail metric sits inside a block of like tasks.
FULL = ("solve", "sup", "hopf_lax")
SOLVE_CASES = (
    ("sk1.0", "q0", 0.005, 0.0, FULL, 1),
    ("sk1.0", "q0", 0.01, 0.0, FULL, 1),
    ("sk1.0", "q0", 0.015, 0.0, FULL, 1),
    ("sk1.0", "q0", 0.02, 0.0, FULL, 1),
    ("sk1.0", "q0", 0.025, 0.0, FULL, 1),
    ("sk1.0", "q0", 0.028, 0.0, FULL, 1),
    ("sk1.0", "q0", 0.03, 0.0, FULL, 1),
    ("sk1.0", "qa", 0.1, 0.0, FULL, 1),
    ("sk1.0", "qz", 0.2, 0.0, FULL, 1),
    ("sk0.8", "qa", 0.3, 0.0, ("solve", "sup"), 1),
    ("sk1.2", "qa", 0.45, 0.0, ("solve", "sup"), 1),
    ("frob1.0", "qa", 0.3, 0.0, FULL, 1),
    ("sk1.0", "qa", 0.1, 0.05, ("solve",), 2),
    ("sk1.0", "qa", 0.1, 0.02, ("solve",), 1),
    ("sk1.0", "qa", 0.05, 0.1, ("solve",), 1),
    ("sk1.0", "qa", 0.2, 0.05, ("solve",), 1),
)
PARISI_STD_NODES = 8
PARISI_STD_VALUE = 0.045     # sk(0.3): beta^2 / 2


def _model(name):
    family, beta = name[:-3], float(name[-3:])
    return sk(beta) if family == "sk" else frobenius_square(beta)


def _base_path(name, D):
    """The fixed base paths of gates 4 and 6."""
    if D == 1:
        return {"q0": _spath([0.0], [0.0]),
                "qz": _spath([0.0, 0.5], [0.0, 0.0]),
                "qa": _spath([0.0, 0.5], [0.05, 0.15])}[name]
    return {"qa": PiecewisePath([0.0, 0.5], [np.diag([0.05, 0.02]),
                                             np.diag([0.16, 0.1])])}[name]


def _random_start(rng, D, zetas):
    """Random increasing start path of the given partition (never p = 0)."""
    vals, acc = [], np.zeros((D, D))
    for _ in zetas:
        a = rng.standard_normal((D, D))
        acc = acc + 0.05 * np.eye(D) + 0.1 * (a @ a.T) / D
        vals.append(acc.copy())
    nrm = float(np.linalg.norm(vals[-1]))
    if nrm > 0.9:
        vals = [v * (0.9 / nrm) for v in vals]
    return PiecewisePath(list(zetas), vals)


class _Case:
    """One solve -> parisi_sup -> hopf_lax chain; later tasks read earlier
    results of the same pass."""

    def __init__(self, label, model, q, t, t_hat, start):
        self.label, self.model, self.q = label, model, q
        self.t, self.t_hat, self.start = t, t_hat, start
        self.p1 = P1D1 if model.D == 1 else P1D2
        self.quad = SOLVE_QUAD[model.D]
        self.cp = self.sup_value = None

    def solve(self):
        self.cp = self.sup_value = None
        opts = SolverOptions(max_iters=1500, initial_p=self.start)
        cp = hjparisi.critpoint.solve_critical(
            self.model, self.p1, self.t, self.t_hat, self.q, opts, self.quad,
            threads=1)
        if not (cp.converged and cp.residual_l2 <= opts.tol):
            return (f"{self.label}: solve converged={cp.converged} "
                    f"residual={cp.residual_l2:.3g}")
        self.cp = cp
        return None

    def sup(self):
        if self.cp is None:
            return f"{self.label}: no solution to start from"
        res = hjparisi.variational.parisi_sup(
            self.model, self.p1, self.t, self.q, partition=(0.5,),
            opts=SolverOptions(initial_p=self.cp.p), quad=self.quad,
            threads=1)
        if not res.value >= self.cp.j_value - 1e-8:
            return (f"{self.label}: sup {res.value:.8g} below "
                    f"j {self.cp.j_value:.8g}")
        self.sup_value = res.value
        return None

    def hopf_lax(self):
        if self.cp is None or self.sup_value is None:
            return f"{self.label}: no solution or sup to compare with"
        model, t = self.model, self.t
        seed_path = PiecewisePath(
            self.q.zetas, [t * hjparisi.xi_grad(model, b)
                           for b in self.cp.p.values])
        hl = hjparisi.variational.hopf_lax_value(
            model, self.p1, t, self.q,
            opts=SolverOptions(initial_p=seed_path), quad=self.quad,
            threads=1, partition=(0.5,))
        gap = abs(self.sup_value - hl)
        if not (gap <= 1e-4 and hl >= self.cp.j_value - 1e-8):
            return (f"{self.label}: |sup - hopf-lax| = {gap:.3g}, "
                    f"hl - j = {hl - self.cp.j_value:.3g}")
        return None


def build_solve(seed, workdir):
    rng = _rng(seed, 3)
    tasks = []
    for model_name, q_name, t, t_hat, steps, count in SOLVE_CASES:
        model = _model(model_name)
        q = _base_path(q_name, model.D)
        for i in range(count):
            label = f"{model_name}_{q_name}_t{t}_that{t_hat}_{i}"
            case = _Case(label, model, q, t, t_hat,
                         _random_start(rng, model.D, q.zetas))
            tasks += [Task(f"{step}:{label}", getattr(case, step))
                      for step in steps]

    def parisi_std():
        value = hjparisi.variational.parisi_std(
            sk(0.3), P1D1, quad=QuadratureSpec(PARISI_STD_NODES), threads=1)
        if not abs(value - PARISI_STD_VALUE) <= 1e-4:
            return f"parisi_std {value:.6g} not within 1e-4 of 0.045"
        return None

    tasks.append(Task("parisi_std", parisi_std))
    q0 = _base_path("q0", 1)
    warm = _Case("warmup", sk(1.0), q0, 0.02, 0.0,
                 _random_start(_rng(seed, 4), 1, q0.zetas))
    return Battery(tasks, Task("warmup", warm.solve), threads=1)


# ------------------------------------------------------------------ finite_n

# The timed commands run on one worker.  On a two-core host shared with
# other guests, a pass took as long on two workers as on one, but its time
# spread far more between runs.  The stdout check after the timed region
# still runs two workers.
FINITE_N_THREADS = 1
CHECK_THREADS = 2


def _cli(argv):
    """Run the CLI in-process; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = hjparisi.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _csv_estimate(out):
    row = out.strip().splitlines()[-1].split(",")
    return float(row[0]), float(row[1])


def build_finite_n(seed, workdir):
    rng = _rng(seed, 5)
    os.makedirs(workdir, exist_ok=True)
    f = {
        "sk": _write_json(os.path.join(workdir, "sk.json"),
                          {"D": 1, "terms": [{"family": "sk", "beta": 1.0}]}),
        "fr": _write_json(os.path.join(workdir, "fr.json"),
                          {"D": 2, "terms": [{"family": "frobenius",
                                              "beta": 1.0}]}),
    }
    paths = {}
    # levels in (0.3, 0.5): `finiteN check` truncates at 64 atoms, where
    # that drops at most 1/64 of a node's mass (gates 1 and 10 use 0.5)
    for name, D, K in (("q1", 1, 0), ("q2", 1, 1), ("qd2", 2, 1)):
        q = _random_increasing_path(rng, D, K, (0.3, 0.5))
        paths[name] = q
        f[name] = _write_json(os.path.join(workdir, f"{name}.json"),
                              hjparisi.paths.path_to_json_dict(q))
    threads = ["--threads", str(FINITE_N_THREADS)]
    # reference for the t = 0 checks, which all run on q2
    refs = {"q2": hjparisi.psi_eval(P1D1, paths["q2"],
                                    QuadratureSpec(32)).value}

    def common(model, path, t, that, n, samples, nmax):
        return ["--model", f[model], "--path", f[path], "--t", repr(t),
                "--that", repr(that), "--n", str(n), "--samples",
                str(samples), "--nmax", str(nmax), "--seed",
                str(int(rng.integers(2 ** 31)))]

    def fe_task(label, model, path, t, that, n, samples, nmax):
        argv = ["finiteN", "fe",
                *common(model, path, t, that, n, samples, nmax), *threads]

        def run():
            code, out = _cli(argv)
            if code != 0:
                return f"{label}: exit code {code}"
            est, err = _csv_estimate(out)
            if not _finite(est, err):
                return f"{label}: estimate {est} +- {err}"
            if t == 0.0 and that == 0.0 and not abs(est - refs[path]) <= \
                    3 * err:
                return Miss(f"{label}: t=0 estimate {est:.5f} not within 3 "
                            f"sigma ({3 * err:.5f}) of psi_eval "
                            f"{refs[path]:.5f}")
            return None

        return Task(label, run, three_sigma_miss(samples - 1)
                    if t == 0.0 and that == 0.0 else 0.0)

    last_out = {}

    def overlap_task(label, path, t, that, n, samples, nmax, histogram):
        argv = ["finiteN", "overlap",
                *common("sk", path, t, that, n, samples, nmax),
                "--histogram" if histogram else "--no-histogram", *threads]

        def run():
            code, out = _cli(argv)
            last_out[label] = out
            if code != 0:
                return f"{label}: exit code {code}"
            mass = json.loads(out)["result"]["level_mass"]
            if not abs(sum(mass) - 1.0) <= 1e-9:
                return f"{label}: level masses sum to {sum(mass)!r}"
            return None

        return Task(label, run), argv

    def check_task(label, path, t, n, samples):
        # no --nmax and no --that: `finiteN check` ignores both today, so
        # passing them would change this workload's work once it does not
        argv = ["finiteN", "check", "--model", f["sk"], "--path", f[path],
                "--t", repr(t), "--n", str(n), "--samples", str(samples),
                "--seed", str(int(rng.integers(2 ** 31))), *threads]

        def run():
            code, out = _cli(argv)
            # exit code 1 means "identity checks failed"
            if code not in (0, 1):
                return f"{label}: exit code {code}"
            result = json.loads(out)["result"]
            checks = {k: v for k, v in result.items() if k != "all_passed"}
            values = [v[f] for v in checks.values()
                      for f in ("lhs", "rhs", "sigma")]
            if not _finite(*values):
                return f"{label}: non-finite identity check values"
            failed = sorted(k for k, v in checks.items() if not v["passed"])
            if (code == 0) != (result["all_passed"] and not failed):
                return f"{label}: exit code {code} but failed checks {failed}"
            if failed:
                return Miss(f"{label}: identity checks failed: {failed}")
            return None

        # four identity checks, each at most a 3-sigma test
        return Task(label, run, 1.0 - (1.0 - three_sigma_miss(samples - 1))
                    ** 4)

    # Sorted by latency, a pass is 27 light commands (holding the median),
    # the 7 `check` commands of one shape (holding the 75th percentile) and
    # 6 heavy commands at N = 9-12.
    tasks = []
    # the t = 0 estimates are checked against psi_eval, so they keep gate
    # 1's 64 atoms per node
    for i, n in enumerate((4, 6, 8)):
        tasks.append(fe_task(f"fe_t0_{i}", "sk", "q2", 0.0, 0.0, n, 128, 64))
    for i, (n, nmax, t, that) in enumerate((
            (4, 64, 0.1, 0.0), (5, 32, 0.15, 0.05), (6, 16, 0.1, 0.0),
            (7, 16, 0.05, 0.0), (8, 8, 0.2, 0.05), (9, 8, 0.1, 0.0),
            (10, 4, 0.1, 0.0), (10, 8, 0.15, 0.0), (11, 4, 0.05, 0.05),
            (9, 4, 0.2, 0.0), (6, 4, 0.3, 0.0))):
        tasks.append(fe_task(f"fe_{i}", "sk", "q2", t, that, n, 128, nmax))
    for i, (n, t) in enumerate(((4, 0.1), (5, 0.1), (4, 0.2), (5, 0.05))):
        tasks.append(fe_task(f"fe_D2_{i}", "fr", "qd2", t, 0.0, n, 96, 8))
    for i, (n, t) in enumerate(((6, 0.1), (9, 0.2))):
        tasks.append(fe_task(f"fe_q1_{i}", "sk", "q1", t, 0.0, n, 128, 4))
    byte_check = None
    overlaps = ((10, 16, 0.0, False), (8, 16, 0.05, False),
                (6, 16, 0.0, True), (8, 8, 0.0, True), (7, 16, 0.0, True),
                (8, 16, 0.05, True), (7, 8, 0.05, False),
                # heavy: gate 9's shape, then the largest histogram
                (12, 32, 0.05, False), (9, 8, 0.05, True))
    for i, (n, nmax, that, hist) in enumerate(overlaps):
        task, argv = overlap_task(f"overlap_{i}", "q2", 0.1, that, n,
                                  96 if n == 12 else 64, nmax, hist)
        tasks.append(task)
        if hist and byte_check is None:
            byte_check = (task.name, argv)
    for i, t in enumerate((0.1, 0.15, 0.2, 0.05, 0.12, 0.08, 0.18)):
        tasks.append(check_task(f"check_{i}", "q2", t, 5, 96))
    for i, (nmax, t) in enumerate(((64, 0.1), (32, 0.2))):
        tasks.append(fe_task(f"fe_N12_{i}", "sk", "q2", t, 0.0, 12, 256,
                             nmax))
    for i in range(2):
        tasks.append(fe_task(f"fe_t0_N12_{i}", "sk", "q2", 0.0, 0.0, 12,
                             160, 64))

    def after():
        # stdout must not depend on the worker count (gate 10); rerun
        # outside the timed region and compared with the timed run
        label, argv = byte_check
        code, out = _cli(argv[:-1] + [str(CHECK_THREADS)])
        if code != 0 or out != last_out.get(label):
            return [f"{label}: --threads {CHECK_THREADS} stdout differs "
                    f"from --threads {FINITE_N_THREADS}"]
        return []

    warmup = fe_task("warmup", "sk", "q2", 0.1, 0.0, 4, 32, 4)
    return Battery(tasks, warmup, threads=FINITE_N_THREADS, after=after)


WORKLOADS = {"crosscheck": build_crosscheck, "solve": build_solve,
             "finite_n": build_finite_n}
