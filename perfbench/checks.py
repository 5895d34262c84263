"""Output checks for each workload, against ``refs.py`` and the method's
own properties.  Each ``check_<workload>`` returns a list of problems; an
empty list means every output the run produced is correct.

Monte Carlo outputs are pooled over the rounds of a run.  A null rejection
rate must lie within 4 standard errors of the test's exact size (Imhof for
the minimax statistic, chi-square for Pearson's, the limiting omega^2 law at
the calibrated critical value for Cramer-von Mises).  An alternative's type
II error must match the normal-tail value Phi(z_alpha - drift) within the
acceptance tolerance of its family, with the drift computed here from the
config.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import refs
from workloads import KEPT_FAILURE

NULL_SE = 4.0
MONOTONE_SE = 2.0
TYPE2_ATOL = {"minimax_lf": 0.03, "quadratic": 0.03, "kernel": 0.04, "chisq": 0.04}
PROJECTION_ATOL = 1e-6
FEASIBLE_RTOL = 1e-9
DESIGN_RTOL = 1e-9
A_N_CLOSED_RTOL = 0.02
MEMBERSHIP_FLOOR = 0.95


def _rate(pooled: dict) -> tuple[float, int]:
    return pooled["rejections"] / pooled["reps"], pooled["reps"]


def _null_check(problems: list, key: str, pooled: dict, size: float) -> dict:
    rate, reps = _rate(pooled)
    se = math.sqrt(size * (1.0 - size) / reps)
    z = (rate - size) / se
    if abs(z) > NULL_SE:
        problems.append(f"{key}: null rate {rate:.5f} is {z:+.1f} SE from the exact size {size:.5f}")
    return {"rate": rate, "reps": reps, "exact_size": size, "z": z}


def _type2_check(problems: list, key: str, pooled: dict, alpha: float, drift: float) -> dict:
    rate, reps = _rate(pooled)
    predicted = refs.normal_type2(alpha, drift)
    gap = (1.0 - rate) - predicted
    if abs(gap) > TYPE2_ATOL[key]:
        problems.append(f"{key}: type II {1.0 - rate:.4f} vs Phi(z - {drift:.4f}) = {predicted:.4f}, "
                        f"gap {gap:+.4f} > {TYPE2_ATOL[key]}")
    return {"type2": 1.0 - rate, "reps": reps, "drift": drift, "predicted": predicted, "gap": gap}


def check_seqmodel(w) -> tuple[list[str], dict]:
    problems, report = [], {}
    cfg = w.configs["minimax_null"]
    d = refs.minimax_design_s1(cfg.params["p0"], cfg.params["rho_n"], cfg.n)
    # T_n = sum_j (n kappa_j^2 / sigma^2) xi_j^2 under the null
    threshold = d["c_n"] + refs.upper_quantile(cfg.alpha) * math.sqrt(2.0 * d["a_n"])
    size = refs.weighted_chi2_sf(cfg.n * d["kappa_j2"] / cfg.sigma**2, threshold)
    report["minimax_null"] = _null_check(problems, "minimax_null", w.pooled["minimax_null"], size)

    cfg = w.configs["minimax_lf"]
    drift = math.sqrt(refs.a_n_closed_s1(cfg.params["rho_n"], cfg.n) / 2.0)
    report["minimax_lf"] = _type2_check(problems, "minimax_lf", w.pooled["minimax_lf"], cfg.alpha, drift)

    cfg = w.configs["quadratic"]
    kq = refs.quadratic_weights(cfg.n, cfg.params["gamma"], cfg.params["j_max"])
    drift = refs.quadratic_drift(cfg.theta.coeffs, kq, cfg.n)
    report["quadratic"] = _type2_check(problems, "quadratic", w.pooled["quadratic"], cfg.alpha, drift)

    cfg = w.configs["kernel"]
    h = cfg.params["h"]
    c = cfg.theta.coeffs
    l2_sq = float(c[0].real ** 2 + 2.0 * np.sum(np.abs(c[1:]) ** 2))
    drift = cfg.n * math.sqrt(h) / math.sqrt(refs.BOX_KAPPA_SQ) * l2_sq
    report["kernel"] = _type2_check(problems, "kernel", w.pooled["kernel"], cfg.alpha, drift)
    return problems, report


def check_density(w) -> tuple[list[str], dict]:
    problems, report = [], {}
    cfg = w.configs["chisq_null"]
    k = cfg.params["k"]
    report["chisq_null"] = _null_check(problems, "chisq_null", w.pooled["chisq_null"],
                                       refs.chisq_null_size(k, cfg.alpha))

    cfg = w.configs["chisq"]
    c = cfg.theta.coeffs
    j = int(np.flatnonzero(c)[0])
    cells = refs.cosine_cell_integrals(j, float(c[j].real), k)
    drift = cfg.n * k * float(np.sum(cells**2)) / math.sqrt(2.0 * k)
    report["chisq"] = _type2_check(problems, "chisq", w.pooled["chisq"], cfg.alpha, drift)

    cfg = w.configs["cvm_null"]
    critical = w.details["cvm_null"]["critical_value"]
    size = refs.omega2_sf(critical)
    cal_reps = w.details["cvm_null"]["calibration_reps"]
    cal_z = (size - cfg.alpha) / math.sqrt(cfg.alpha * (1.0 - cfg.alpha) / cal_reps)
    if abs(cal_z) > NULL_SE:
        problems.append(f"cvm critical value {critical:.5f} has size {size:.5f}, {cal_z:+.1f} SE from alpha")
    report["cvm_null"] = _null_check(problems, "cvm_null", w.pooled["cvm_null"], size)
    report["cvm_null"]["critical_value"] = critical

    power, reps = _rate(w.pooled["cvm"])
    null_rate, null_reps = _rate(w.pooled["cvm_null"])
    se = math.sqrt(power * (1.0 - power) / reps + null_rate * (1.0 - null_rate) / null_reps)
    if power - null_rate <= NULL_SE * se:
        problems.append(f"cvm: power {power:.4f} is not 4 SE above the size {null_rate:.4f}")
    report["cvm"] = {"power": power, "reps": reps, "z_over_size": (power - null_rate) / se}
    return problems, report


def _projection_problems(key: str, x, w, s: float, p0: float) -> tuple[list[str], dict]:
    """Feasible, head unchanged, and within 1e-6 of SLSQP (J <= 32) or of
    satisfying the KKT conditions (larger J)."""
    problems = []
    oracle = "slsqp" if len(w) <= 32 else "kkt"
    x, w = np.asarray(x, dtype=float), np.asarray(w, dtype=float)
    semi = refs.seminorm(x**2, s)
    if semi > p0 * (1.0 + FEASIBLE_RTOL):
        problems.append(f"{key}: projection seminorm {semi:.10g} exceeds p0 {p0}")
    kv = refs.first_violated(w**2, s, p0)
    if kv is not None and not np.array_equal(x[: kv - 1], w[: kv - 1]):
        problems.append(f"{key}: head below the first violated tail {kv} changed")
    if oracle == "slsqp":
        err = float(np.max(np.abs(x - refs.slsqp_projection(w, s, p0))))
    else:
        err = refs.kkt_residual(x, w, s, p0)
    if not err <= PROJECTION_ATOL:
        problems.append(f"{key}: {oracle} distance {err:.3e} > {PROJECTION_ATOL}")
    return problems, {"seminorm_over_p0": semi / p0, "first_violated": kv, oracle: err}


def _bayes_recount(w) -> int:
    """Membership of each prior draw, recomputed from the s = 1 closed form."""
    d = w.prior_design
    delta = w.prior_delta
    shifted = refs.minimax_design_s1(d.p0 * (1.0 - delta), d.rho_n * (1.0 + delta), d.n, d.j_max)
    profile = shifted["kappa_j2"].copy()
    profile[int(d.k_n / delta):] = 0.0
    members = 0
    for rep in range(w.prior_draws):
        z = np.random.Generator(np.random.PCG64(np.random.SeedSequence([w.seed, rep]))).standard_normal(profile.size)
        e = (np.sqrt(profile) * z) ** 2
        members += bool(np.sum(e) >= d.rho_n and refs.seminorm(e, d.s) <= d.p0 * (1.0 + 1e-12))
    return members


def check_geometry(w) -> tuple[list[str], dict]:
    problems, report = [], {}
    out = w.outputs
    s, p0 = w.ball.s, w.ball.p0
    for key, x in w.projections.items():
        if out[key] is None:
            report[key] = {"failed": True}
            if key != KEPT_FAILURE:
                problems.append(f"{key}: projection failed")
            continue
        found, report[key] = _projection_problems(key, out[key], x, s, p0)
        problems += found
    for key in w.repeat_mismatch:
        problems.append(f"{key}: output differs between rounds")

    direct = out["design"]
    ref = refs.minimax_design_s1(direct.p0, direct.rho_n, direct.n, direct.j_max)
    if direct.k_n != ref["k_n"] or not np.allclose(direct.kappa_j2, ref["kappa_j2"], rtol=DESIGN_RTOL, atol=0.0):
        problems.append(f"design: k_n {direct.k_n} or weights differ from the closed form (k_n {ref['k_n']})")
    closed = refs.a_n_closed_s1(direct.rho_n, direct.n)
    if abs(direct.a_n - closed) > A_N_CLOSED_RTOL * closed:
        problems.append(f"design: a_n {direct.a_n:.6g} vs asymptotic {closed:.6g}")
    inverse = out["inverse"]
    ref_inv = refs.inverse_design_s1(inverse.p0, inverse.rho_n, inverse.n, w.lambdas)
    if inverse.k_n != ref_inv["k_n"] or abs(inverse.a_n / ref_inv["a_n"] - 1.0) > DESIGN_RTOL:
        problems.append(f"inverse design: (k_n, a_n) = ({inverse.k_n}, {inverse.a_n:.6g}) vs "
                        f"({ref_inv['k_n']}, {ref_inv['a_n']:.6g})")
    report["design"] = {"k_n": direct.k_n, "a_n": direct.a_n, "a_n_closed": closed,
                        "inverse_k_n": inverse.k_n, "inverse_a_n": inverse.a_n}

    bayes = out["bayes"]
    members = _bayes_recount(w)
    if bayes["members"] != members or bayes["rate"] < MEMBERSHIP_FLOOR:
        problems.append(f"bayes: {bayes['members']} members, recount {members}, floor {MEMBERSHIP_FLOOR}")
    report["bayes"] = {"members": bayes["members"], "recount": members}
    return problems, report


def _csv_rows(data: bytes) -> list[dict]:
    lines = data.decode().splitlines()
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def _monotone(rows, increasing: bool) -> bool:
    p = [float(r["power"]) for r in rows]
    se = [float(r["std_err"]) for r in rows]
    sign = 1.0 if increasing else -1.0
    return all(sign * (p[i + 1] - p[i]) >= -MONOTONE_SE * (se[i] + se[i + 1]) for i in range(len(p) - 1))


def check_cli(w) -> tuple[list[str], dict]:
    problems, report = [], {}
    for name, code in w.reference_codes.items():
        if code != 0:
            problems.append(f"{name}: --threads 1 reference exited {code}")
    for r, outputs in enumerate(w.outputs):
        for name, data in outputs.items():
            if w.codes[r][name] == 0 and data != w.reference[name]:
                problems.append(f"{name}: round {r} bytes differ from the --threads 1 run")
    for name, (_, ext) in w.commands.items():
        if ext == "csv" and not w.reference[name].startswith(b"# schema=v1\n"):
            problems.append(f"{name}: CSV does not start with '# schema=v1'")
    if problems:
        return problems, report

    curve = _csv_rows(w.reference["curve"])
    if not _monotone(curve, increasing=True):
        problems.append("power-curve: power is not increasing in scale within 2 SE")
    consistency = _csv_rows(w.reference["consistency"])
    if not _monotone(consistency, increasing=False):
        problems.append("consistency: power is not decreasing in C within 2 SE")
    decomposition = _csv_rows(w.reference["decomposition"])
    if float(decomposition[-1]["gap"]) != 0.0:
        problems.append("decomposition: a signal inside the ball does not project to itself")

    cfg = w.configs["design"]
    got = json.loads(w.reference["design"])["design"]
    ref = refs.minimax_design_s1(cfg["p0"], cfg["rho_n"], cfg["n"])
    if got["k_n"] != ref["k_n"] or abs(got["a_n"] / ref["a_n"] - 1.0) > DESIGN_RTOL:
        problems.append(f"minimax-design: (k_n, a_n) = ({got['k_n']}, {got['a_n']}) vs ({ref['k_n']}, {ref['a_n']})")

    cfg = w.configs["project"]
    got = json.loads(w.reference["project"])
    found, report["project"] = _projection_problems(
        "project-besov", got["projected"]["coeffs"], w.signal, cfg["s"], cfg["p0"])
    problems += found
    report["powers"] = {name: [float(r["power"]) for r in rows]
                        for name, rows in (("curve", curve), ("consistency", consistency))}
    return problems, report


CHECKS = {"seqmodel": check_seqmodel, "density": check_density, "geometry": check_geometry, "cli": check_cli}
