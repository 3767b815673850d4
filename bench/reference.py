"""Reference checks: recompute every decision apart from the program.

The checks read a run's input files and the saved outputs of the first
execution of each command (``first/<index>/stdout.txt`` and
``first/<index>/out/``) and return a list of problems; an empty list means
every output matched.  The recomputations use numpy and the standard
library only: the folded PIT through ``math.erf``, exact Binomial bounds by
summing the pmf, the KS supremum by brute force, the e-value monitors as
running sums of log-likelihood-ratio steps, and the half-plane intervals
from the seeded direction streams ``default_rng([seed, 2])`` (check) and
``default_rng([seed, 1])`` (monitor).

Recompute and print the references of a kept run directory:

    python3 bench/reference.py WORKLOAD DIR --seed N [--tiny]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import statistics
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

LEVELS = np.arange(10) / 10.0 + 0.05  # calcheck's default level grid
ALPHA = 0.05
MONITOR_LEVEL = 0.9
MONITOR_P_ALT = MONITOR_LEVEL - 0.1
REL = 1e-6  # slack for knife-edge Binomial tails
SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# exact Binomial by pmf summation
# ---------------------------------------------------------------------------

class Binomial:
    """Binomial(n, p) with its pmf summed in both directions."""

    _lfact: dict[int, np.ndarray] = {}

    def __init__(self, n: int, p: float):
        lf = self._lfact.get(n)
        if lf is None:
            lf = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
            self._lfact[n] = lf
        k = np.arange(n + 1)
        logpmf = lf[n] - lf - lf[::-1] + k * math.log(p) + (n - k) * math.log1p(-p)
        pmf = np.exp(logpmf)
        pmf /= pmf.sum()
        self.n = n
        self.cdf = np.cumsum(pmf)  # P(C <= c)
        self.ge = np.cumsum(pmf[::-1])[::-1]  # P(C >= c)

    def lower_ok(self, c: int, a: float) -> bool:
        """c is the smallest count with P(C <= c) >= a (up to REL)."""
        return (0 <= c <= self.n and self.cdf[c] >= a * (1 - REL)
                and (c == 0 or self.cdf[c - 1] < a * (1 + REL)))

    def upper_ok(self, c: int, a: float) -> bool:
        """c is the largest count with P(C >= c) >= a (up to REL)."""
        return (0 <= c <= self.n and self.ge[c] >= a * (1 - REL)
                and (c == self.n or self.ge[c + 1] < a * (1 + REL)))


def directional_p(count: int, n: int, level: float, one_sided: bool, tol: float) -> float:
    p_low = float(Binomial(n, level - tol).cdf[count])
    if one_sided:
        return min(p_low, 1.0)
    p_high = float(Binomial(n, level + tol).ge[count])
    return min(1.0, 2.0 * min(p_low, p_high))


def _close_p(printed: float, mine: float) -> bool:
    if max(printed, mine) < 1e-200:
        return True
    return abs(printed - mine) <= 2e-5 * max(printed, mine)


def holm_alpha_choices(ps: list[float], alpha: float) -> list[set[float]]:
    """Per level, the per-level alphas Holm's step-down may assign.

    Ties (and tails below 1e-200) may be ordered either way, so a level gets
    the alphas of every rank its p-value could take.
    """
    k = len(ps)
    key = [p if p > 1e-200 else 0.0 for p in ps]
    order = sorted(range(k), key=lambda i: key[i])
    stop = 0
    for rank, i in enumerate(order):
        if ps[i] < alpha / (k - rank):
            stop += 1
        else:
            break

    def tied(a, b):
        return abs(a - b) <= 1e-9 * max(a, b)

    choices = []
    for i in range(k):
        lo = sum(1 for j in range(k) if key[j] < key[i] and not tied(key[j], key[i]))
        hi = sum(1 for j in range(k) if key[j] <= key[i] or tied(key[j], key[i])) - 1
        choices.append({alpha / (k - min(r, stop)) for r in range(lo, hi + 1)})
    return choices


def check_binomial_rows(problems: list, where: str, rows: list, counts, n: int,
                        one_sided: bool, tol: float, alphas: list[set[float]],
                        decision: str | None) -> None:
    """Per-level counts, exact bounds, p-values and rejections of one test.

    ``rows`` holds (level, count, n, lower, upper, p_value, reject) as the
    program reported them; ``counts`` are the benchmark's own counts and
    ``alphas`` the admissible per-level alphas.
    """
    if len(rows) != len(LEVELS):
        problems.append(f"{where}: {len(rows)} level rows, expected {len(LEVELS)}")
        return
    any_reject = False
    for row, lam, c, a_set in zip(rows, LEVELS, counts, alphas):
        level, count, rn, lower, upper, p_value, reject = row
        if abs(level - lam) > 1e-9 or count != c or rn != n:
            problems.append(f"{where}: level {lam:g} reports count {count}/{rn}, "
                            f"reference {c}/{n}")
            continue
        lo_b = Binomial(n, lam - tol)
        hi_b = None if one_sided else Binomial(n, lam + tol)
        ok_alpha = [a for a in a_set
                    if lo_b.lower_ok(lower, a if one_sided else a / 2)
                    and (upper == n if one_sided else hi_b.upper_ok(upper, a / 2))]
        if not ok_alpha:
            problems.append(f"{where}: level {lam:g} bounds [{lower}, {upper}] are not the "
                            f"exact Binomial quantiles")
        if bool(reject) != (count < lower or count > upper):
            problems.append(f"{where}: level {lam:g} reject={reject} contradicts its bounds")
        mine = directional_p(c, n, lam, one_sided, tol)
        if not _close_p(p_value, mine):
            problems.append(f"{where}: level {lam:g} p-value {p_value!r}, reference {mine!r}")
        any_reject |= bool(reject)
    if decision is not None and decision != ("reject" if any_reject else "accept"):
        problems.append(f"{where}: decision {decision} contradicts its level rows")


# ---------------------------------------------------------------------------
# record files and program outputs
# ---------------------------------------------------------------------------

def read_gaussian(path: Path):
    mu, sigma, y = [], [], []
    with open(path) as handle:
        for line in handle:
            obj = json.loads(line)
            mu.append(obj["mu"])
            sigma.append(obj["sigma"])
            y.append(obj["y"])
    return np.array(mu), np.array(sigma), np.array(y)


def read_clouds(path: Path):
    clouds = []
    with open(path) as handle:
        for line in handle:
            obj = json.loads(line)
            w = np.array(obj["w"], dtype=float)
            total = float(w.sum())
            if abs(total - 1.0) > 1e-12:  # calcheck's renormalisation rule
                w = w / total
            clouds.append((w, np.array(obj["pts"], dtype=float), np.array(obj["y"], dtype=float)))
    return clouds


def folded_pit(mu, sigma, y) -> np.ndarray:
    """|2 Phi((y - mu)/sigma) - 1| = erf(|z| / sqrt 2)."""
    z = (y - mu) / sigma
    return np.array([math.erf(abs(v) / SQRT2) for v in z.tolist()])


def coverage_from_folded(v: np.ndarray) -> list[int]:
    return [int(np.count_nonzero(v <= lam)) for lam in LEVELS]


def parse_summary(text: str) -> dict:
    """``key: value`` lines of the printed summary."""
    out = {}
    for line in text.splitlines():
        m = re.match(r"^(\w+): (.*)$", line)
        if m and m.group(1) not in out:
            out[m.group(1)] = m.group(2)
    return out


def parse_level_rows(text: str) -> list:
    rows, inside = [], False
    for line in text.splitlines():
        if line.startswith("level count n lower upper"):
            inside = True
            continue
        if inside:
            parts = line.split()
            if len(parts) != 7:
                break
            rows.append((float(parts[0]), int(parts[1]), int(parts[2]), int(parts[3]),
                         int(parts[4]), float(parts[5]), int(parts[6])))
    return rows


def parse_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def csv_level_rows(path: Path) -> list:
    _, rows = parse_csv(path)
    return [(float(r[0]), int(r[1]), int(r[2]), int(r[4]), int(r[5]), float(r[6]), int(r[7]))
            for r in rows]


def monitor_rows(text: str) -> list[tuple[int, str, int]]:
    """(t, e_value text, alarmed) of the per-record rows a monitor printed."""
    rows = []
    for line in text.splitlines():
        if re.match(r"^\d+,", line):
            parts = line.split(",")
            rows.append((int(parts[0]), parts[1], int(parts[2])))
    return rows


class Run:
    """Saved first outputs and execution results of one run directory."""

    def __init__(self, workdir: Path, workload: str, sizes: wl.Sizes, seed: int):
        self.dir = Path(workdir)
        self.sizes = sizes
        self.seed = seed
        self.cmds = wl.commands(workload, sizes, seed)
        # per command: {"ok", "error", "exit_code"} of its first execution
        self.results = json.loads((self.dir / "first" / "results.json").read_text())

    def index(self, name: str) -> int:
        return next(i for i, c in enumerate(self.cmds) if c.name == name)

    def stdout(self, name: str) -> str:
        return (self.dir / "first" / str(self.index(name)) / "stdout.txt").read_text()

    def out(self, name: str) -> Path:
        return self.dir / "first" / str(self.index(name)) / "out"

    def result(self, name: str) -> dict:
        return self.results[self.index(name)]


def _expect_exit(problems: list, run: Run, name: str, decision: str) -> None:
    res = run.result(name)
    want = 1 if decision == "reject" else 0
    if res["exit_code"] != want:
        problems.append(f"{name}: exit code {res['exit_code']} for decision {decision}")


# ---------------------------------------------------------------------------
# gate_weather
# ---------------------------------------------------------------------------

def check_gate_weather(run: Run) -> list[str]:
    problems: list[str] = []
    n = run.sizes.weather_records
    k = len(LEVELS)
    for label, fname in wl.WEATHER_FILES:
        mu, sigma, y = read_gaussian(run.dir / fname)
        v = folded_pit(mu, sigma, y)
        counts = coverage_from_folded(v)
        ps = [directional_p(c, n, lam, True, 0.02) for c, lam in zip(counts, LEVELS)]

        def bonferroni(name):
            text = run.stdout(name)
            dec = parse_summary(text).get("decision")
            check_binomial_rows(problems, name, parse_level_rows(text), counts, n,
                                one_sided=False, tol=0.0, alphas=[{ALPHA / k}] * k,
                                decision=dec)
            return dec

        def holm_tol(name):
            text = run.stdout(name)
            dec = parse_summary(text).get("decision")
            check_binomial_rows(problems, name, parse_level_rows(text), counts, n,
                                one_sided=True, tol=0.02, alphas=holm_alpha_choices(ps, ALPHA),
                                decision=dec)
            return dec

        recipes = {
            "bonferroni": bonferroni,
            "holm_tol": holm_tol,
            "bins5": lambda name: _check_bins(problems, run, name, sigma, v),
            "folded_ks": lambda name: _check_folded_ks(problems, run, name, v, tol=0.01),
        }
        for recipe, check_one in recipes.items():
            name = f"check_{recipe}_{label}"
            if not run.result(name)["ok"]:
                continue  # failures are counted, not checked
            dec = check_one(name)
            if dec not in ("accept", "reject"):
                problems.append(f"{name}: no decision in its output")
                continue
            _expect_exit(problems, run, name, dec)
            if label == "overconfident" and dec != "reject":
                problems.append(f"{name}: the overconfident file was not rejected")
    _check_simulate_weather(problems, run)
    return problems


def _check_bins(problems: list, run: Run, name: str, sigma, v) -> str | None:
    bins = 5
    n = len(v)
    out = run.out(name)
    report = json.loads((out / "report.json").read_text())["report"]
    sizes = [int(csv_level_rows(out / f"coverage_bin{b}.csv")[0][2]) for b in range(bins)]
    if sum(sizes) != n or max(sizes) - min(sizes) > 1:
        problems.append(f"{name}: bin sizes {sizes} do not split {n} records evenly")
    order = np.argsort(sigma, kind="stable")
    chunks = np.array_split(order, bins)
    k = len(LEVELS)
    per_alpha = ALPHA / bins / k
    my_decisions = []
    for b, chunk in enumerate(chunks):
        rows = csv_level_rows(out / f"coverage_bin{b}.csv")
        counts = coverage_from_folded(v[chunk])
        before = len(problems)
        check_binomial_rows(problems, f"{name} bin {b}", rows, counts, len(chunk),
                            one_sided=False, tol=0.0, alphas=[{per_alpha}] * k, decision=None)
        if len(problems) == before:
            my_decisions.append("reject" if any(r[6] for r in rows) else "accept")
    cfg = report["recipe_config"]
    edges = [float(sigma[c[0]]) for c in chunks[1:]]
    if cfg.get("bin_edges") != edges:
        problems.append(f"{name}: bin edges {cfg.get('bin_edges')} differ from {edges}")
    if len(my_decisions) == bins and cfg.get("bin_decisions") != my_decisions:
        problems.append(f"{name}: bin decisions {cfg.get('bin_decisions')}, "
                        f"reference {my_decisions}")
    decision = report["decision"]
    if decision != ("reject" if "reject" in cfg.get("bin_decisions", []) else "accept"):
        problems.append(f"{name}: decision {decision} contradicts its bins")
    if parse_summary(run.stdout(name)).get("decision") != decision:
        problems.append(f"{name}: printed decision differs from report.json")
    return decision


def _check_folded_ks(problems: list, run: Run, name: str, v, tol: float) -> str | None:
    out = run.out(name)
    report = json.loads((out / "report.json").read_text())["report"]
    n = len(v)
    vs = np.sort(v)
    f_left = np.searchsorted(vs, vs, side="left") / n  # ECDF just left of each value
    stat = max(float(np.max(vs - f_left)), 0.0)  # sup_t (t - F_hat(t))
    threshold = math.sqrt(math.log(1.0 / ALPHA) / (2.0 * n)) + tol
    if abs(report["statistic"] - stat) > 1e-12:
        problems.append(f"{name}: KS statistic {report['statistic']!r}, brute force {stat!r}")
    if abs(report["threshold"] - threshold) > 1e-12:
        problems.append(f"{name}: KS threshold {report['threshold']!r}, reference {threshold!r}")
    decision = report["decision"]
    if decision != ("reject" if stat > threshold else "accept"):
        problems.append(f"{name}: decision {decision} contradicts the KS statistic")
    header, rows = parse_csv(out / "ecdf.csv")
    values = np.array([float(r[0]) for r in rows])
    if header != ["value", "ecdf"] or len(rows) != n:
        problems.append(f"{name}: ecdf.csv has {len(rows)} rows, expected {n}")
    else:
        if np.max(np.abs(values - vs)) > 1e-12:
            problems.append(f"{name}: ecdf.csv values differ from the folded PIT")
        if any(float(r[1]) != (i + 1) / n for i, r in enumerate(rows)):
            problems.append(f"{name}: ecdf.csv heights are not i/n")
    if parse_summary(run.stdout(name)).get("decision") != decision:
        problems.append(f"{name}: printed decision differs from report.json")
    return decision


def _check_simulate_weather(problems: list, run: Run) -> None:
    from calcheck.cli import parse_records, write_records

    name = "simulate_weather"
    if not run.result(name)["ok"]:
        return
    path = run.out(name) / "weather_records.jsonl"
    expected = run.sizes.weather_records  # n_days - window
    lines = path.read_text().splitlines()
    if len(lines) != expected:
        problems.append(f"{name}: {len(lines)} records, expected {expected}")
    for i, line in enumerate(lines):
        obj = json.loads(line)
        if not (math.isfinite(obj["mu"]) and math.isfinite(obj["sigma"]) and obj["sigma"] > 0
                and math.isfinite(obj["y"])):
            problems.append(f"{name}: record {i} has mu={obj['mu']} sigma={obj['sigma']}")
            break
    copy = run.dir / "roundtrip.jsonl"
    write_records(parse_records(path, "gaussian"), copy)
    if copy.read_bytes() != path.read_bytes():
        problems.append(f"{name}: records change under parse_records -> write_records")
    copy.unlink()
    report = json.loads((run.out(name) / "report.json").read_text())["report"]
    if report.get("n_records") != expected:
        problems.append(f"{name}: report.json says {report.get('n_records')} records")


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def log_lr_steps() -> tuple[float, float]:
    """(hit, miss) log-likelihood-ratio steps of the coverage indicator."""
    hit = math.log(MONITOR_P_ALT) - math.log(MONITOR_LEVEL)
    miss = math.log1p(-MONITOR_P_ALT) - math.log1p(-MONITOR_LEVEL)
    return hit, miss


def martingale(indicators) -> tuple[list[float], int | None, int | None]:
    """Running log e-values, first crossing of 1/alpha, first step whose
    e-value exp(log_e) is not a finite double (None when all are)."""
    hit, miss = log_lr_steps()
    threshold = -math.log(ALPHA)
    log_e, logs, crossing, overflow = 0.0, [], None, None
    for t, k in enumerate(indicators, start=1):
        log_e += hit if k else miss
        logs.append(log_e)
        if crossing is None and log_e > threshold:
            crossing = t
        if overflow is None:
            try:
                math.exp(log_e)
            except OverflowError:
                overflow = t
    return logs, crossing, overflow


def gaussian_indicators(mu, sigma, y) -> list[int]:
    q = statistics.NormalDist().inv_cdf((1.0 + MONITOR_LEVEL) / 2.0)
    lo = mu - sigma * q
    hi = mu + sigma * q
    return [int(a <= b <= c) for a, b, c in zip(lo.tolist(), y.tolist(), hi.tolist())]


def _weighted_quantile(w_sorted_cum, z_sorted, q: float) -> float:
    target = q * w_sorted_cum[-1]
    idx = int(np.argmax(w_sorted_cum >= target)) if w_sorted_cum[-1] >= target else -1
    return float(z_sorted[idx])


def _direction(rng: np.random.Generator) -> np.ndarray:
    theta = rng.uniform(0.0, np.pi)
    return np.array([np.cos(theta), np.sin(theta)])


def halfplane_indicators(clouds, seed: int) -> list[int]:
    """Monitor indicators from the direction stream default_rng([seed, 1])."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for w, pts, y in clouds:
        d = _direction(rng)
        z = pts @ d
        order = np.argsort(z, kind="stable")
        cum, zs = np.cumsum(w[order]), z[order]
        lo = _weighted_quantile(cum, zs, (1.0 - MONITOR_LEVEL) / 2.0)
        hi = _weighted_quantile(cum, zs, (1.0 + MONITOR_LEVEL) / 2.0)
        zy = float(y @ d)
        out.append(int(lo <= zy <= hi))
    return out


def halfplane_counts(clouds, seed: int) -> list[int]:
    """Coverage counts from the direction stream default_rng([seed, 2])."""
    rng = np.random.default_rng([seed, 2])
    counts = np.zeros(len(LEVELS), dtype=int)
    for w, pts, y in clouds:
        d = _direction(rng)
        z = pts @ d
        order = np.argsort(z, kind="stable")
        cum, zs = np.cumsum(w[order]), z[order]
        zy = float(y @ d)
        for j, lam in enumerate(LEVELS):
            lo = _weighted_quantile(cum, zs, (1.0 - lam) / 2.0)
            hi = _weighted_quantile(cum, zs, (1.0 + lam) / 2.0)
            counts[j] += lo <= zy <= hi
    return counts.tolist()


def check_monitor_output(problems: list, run: Run, name: str, indicators: list[int]) -> None:
    """Rows, crossing and decision of one monitor command, or its known fault.

    The overconfident stream overflows ``math.exp`` in
    ``MartingaleState.e_value``; while that fault stands the command must
    fail with OverflowError after printing exactly the rows before the
    overflowing step.
    """
    logs, crossing, overflow = martingale(indicators)
    res = run.result(name)
    text = run.stdout(name)
    rows = monitor_rows(text)
    if res["ok"]:
        n_rows = len(indicators)
    elif res["error"].startswith("OverflowError") and overflow is not None:
        n_rows = overflow - 1
    else:
        problems.append(f"{name}: unexpected failure {res['error']}")
        return
    if len(rows) != n_rows:
        problems.append(f"{name}: {len(rows)} rows printed, reference {n_rows}")
        return
    threshold = -math.log(ALPHA)
    for i, (t, e_text, alarmed) in enumerate(rows):
        log_e = logs[i]
        try:
            want = math.exp(log_e)
        except OverflowError:
            want = math.inf
        e = float(e_text)
        ok = (e == want) if math.isinf(want) else abs(e - want) <= 1e-9 * want
        want_alarm = int(crossing is not None and crossing <= i + 1)
        if t != i + 1 or not ok or alarmed != want_alarm:
            problems.append(f"{name}: row {t},{e_text},{alarmed} differs from the reference "
                            f"log e-value {log_e!r} (alarmed {want_alarm}, threshold "
                            f"{threshold:.4f})")
            return
    if not res["ok"]:
        return
    summary = parse_summary(text)
    if summary.get("first_crossing") != str(crossing):
        problems.append(f"{name}: first crossing {summary.get('first_crossing')}, "
                        f"reference {crossing}")
    decision = "reject" if crossing is not None else "accept"
    if summary.get("decision") != decision:
        problems.append(f"{name}: decision {summary.get('decision')}, reference {decision}")
    _expect_exit(problems, run, name, decision)
    cmd = run.cmds[run.index(name)]
    if cmd.out_dir is not None:
        header, table = parse_csv(run.out(name) / "etrace.csv")
        if [(int(r[0]), r[1], int(r[2])) for r in table] != rows:
            problems.append(f"{name}: etrace.csv differs from the printed rows")


def check_stream_weather(run: Run) -> list[str]:
    problems: list[str] = []
    for label, fname in (("cautious", "stream_cautious.jsonl"),
                         ("overconfident", "stream_overconfident.jsonl")):
        mu, sigma, y = read_gaussian(run.dir / fname)
        check_monitor_output(problems, run, f"monitor_{label}",
                             gaussian_indicators(mu, sigma, y))
    return problems


def check_gate_particles(run: Run) -> list[str]:
    problems: list[str] = []
    clouds = read_clouds(run.dir / "clouds.jsonl")
    name = "check_halfplane"
    if run.result(name)["ok"]:
        text = run.stdout(name)
        dec = parse_summary(text).get("decision")
        k = len(LEVELS)
        check_binomial_rows(problems, name, parse_level_rows(text),
                            halfplane_counts(clouds, run.seed), len(clouds), one_sided=False,
                            tol=0.0, alphas=[{ALPHA / k}] * k, decision=dec)
        if dec in ("accept", "reject"):
            _expect_exit(problems, run, name, dec)
    check_monitor_output(problems, run, "monitor_halfplane",
                         halfplane_indicators(clouds, run.seed))
    return problems


# ---------------------------------------------------------------------------
# sweep_robot
# ---------------------------------------------------------------------------

def check_sweep_robot(run: Run) -> list[str]:
    problems: list[str] = []
    name = "simulate_drift_sweep"
    if not run.result(name)["ok"]:
        return problems
    sizes = run.sizes
    out = run.out(name)
    report = json.loads((out / "report.json").read_text())["report"]
    _, summary = parse_csv(out / "sweep_summary.csv")
    _, envelope = parse_csv(out / "sweep_envelope.csv")
    if [float(r[0]) for r in summary] != list(wl.SWEEP_MULTIPLIERS):
        problems.append(f"{name}: summary multipliers {[r[0] for r in summary]}")
        return problems
    if report.get("alarm_counts") != [int(r[2]) for r in summary]:
        problems.append(f"{name}: report.json alarm counts differ from sweep_summary.csv")
    rows_by_mult = {}
    for mult, n_seeds, alarms, median in summary:
        alarms = int(alarms)
        if int(n_seeds) != sizes.sweep_seeds or not 0 <= alarms <= sizes.sweep_seeds:
            problems.append(f"{name}: multiplier {mult}: {alarms} alarms of {n_seeds} seeds")
        if (median == "") != (alarms == 0) or (
                median != "" and not 1 <= float(median) <= sizes.sweep_steps):
            problems.append(f"{name}: multiplier {mult}: median first crossing {median!r} "
                            f"with {alarms} alarms and {sizes.sweep_steps} steps")
        rows_by_mult[float(mult)] = (alarms, median)
    env = {}
    for mult, t, e05, e50, e95 in envelope:
        e05, e50, e95 = float(e05), float(e50), float(e95)
        if not e05 <= e50 <= e95:
            problems.append(f"{name}: envelope at multiplier {mult}, t={t} is not ordered")
            break
        env.setdefault(float(mult), []).append((e05, e50, e95))
    if any(len(env.get(m, ())) != sizes.sweep_steps for m in wl.SWEEP_MULTIPLIERS):
        problems.append(f"{name}: envelope does not have {sizes.sweep_steps} steps per multiplier")
        return problems
    _recheck_sweep_row(problems, run, rows_by_mult[wl.RECHECK_MULTIPLIER],
                       env[wl.RECHECK_MULTIPLIER])
    return problems


def _recheck_sweep_row(problems: list, run: Run, row, env_rows) -> None:
    """Monitor `simulate robot` output again for every seed of one multiplier."""
    from calcheck.cli import main as calcheck_main

    sizes = run.sizes
    base_seed = run.seed
    traces, crossings = [], []
    for s in range(sizes.sweep_seeds):
        cfg_path = run.dir / f"recheck_{s}.json"
        out_dir = run.dir / f"recheck_{s}"
        wl.write_json(cfg_path, {"n_particles": sizes.sweep_particles,
                                 "n_steps": sizes.sweep_steps, "seed": base_seed + s,
                                 "drift_multiplier": wl.RECHECK_MULTIPLIER})
        with contextlib.redirect_stdout(io.StringIO()):
            code = calcheck_main(["simulate", "robot", "--config", str(cfg_path),
                                  "--out", str(out_dir)])
        if code != 0:
            problems.append(f"simulate robot seed {base_seed + s} exited {code}")
            return
        clouds = read_clouds(out_dir / "robot_records.jsonl")
        logs, crossing, _ = martingale(halfplane_indicators(clouds, base_seed + s))
        traces.append(logs)
        if crossing is not None:
            crossings.append(crossing)
    alarms, median = row
    my_median = "" if not crossings else repr(float(np.median(crossings)))
    if alarms != len(crossings) or median != my_median:
        problems.append(f"sweep multiplier {wl.RECHECK_MULTIPLIER}: {alarms} alarms, median "
                        f"crossing {median!r}; recomputed {len(crossings)}, {my_median!r}")
    mine = np.exp(np.percentile(np.array(traces), [5.0, 50.0, 95.0], axis=0).T)
    if not np.allclose(np.array(env_rows), mine, rtol=1e-9, atol=0.0):
        problems.append(f"sweep multiplier {wl.RECHECK_MULTIPLIER}: envelope differs from the "
                        "recomputed e-value quantiles")


CHECKS = {
    "gate_weather": check_gate_weather,
    "stream_weather": check_stream_weather,
    "gate_particles": check_gate_particles,
    "sweep_robot": check_sweep_robot,
}


def check(run: Run, workload: str) -> list[str]:
    """Problems found in a run's outputs; a check that crashes is one too."""
    try:
        return CHECKS[workload](run)
    except Exception as exc:  # a malformed output must fail the check, not the run
        return [f"{workload}: reference check raised {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Recompute the references of a kept run.")
    ap.add_argument("workload", choices=wl.WORKLOADS)
    ap.add_argument("dir")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    run = Run(Path(args.dir), args.workload, wl.TINY if args.tiny else wl.FULL, args.seed)
    d, seed = run.dir, args.seed
    if args.workload == "gate_weather":
        for label, fname in wl.WEATHER_FILES:
            counts = coverage_from_folded(folded_pit(*read_gaussian(d / fname)))
            print(label, "folded-PIT coverage counts", counts)
    elif args.workload == "stream_weather":
        for fname in ("stream_cautious.jsonl", "stream_overconfident.jsonl"):
            _, crossing, overflow = martingale(gaussian_indicators(*read_gaussian(d / fname)))
            print(fname, "first crossing", crossing, "e-value overflows at step", overflow)
    elif args.workload == "gate_particles":
        clouds = read_clouds(d / "clouds.jsonl")
        print(f"half-plane counts, default_rng([{seed}, 2]):", halfplane_counts(clouds, seed))
        _, crossing, _ = martingale(halfplane_indicators(clouds, seed))
        print(f"monitor first crossing, default_rng([{seed}, 1]):", crossing)
    problems = check(run, args.workload)
    for p in problems:
        print("PROBLEM:", p)
    print("reference checks:", "passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
