"""Correctness checks on a workload's output.

None of them depends on today's random stream: they check structure,
recompute the Wilson intervals independently of binsense, and test
properties of the recovery transition that any correct Gaussian stream
satisfies.  (run.py adds the byte comparisons between units that share
inputs.)  Each returns a
list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
from statistics import NormalDist

SWEEP_HEADER = [
    "model", "n", "k", "m", "sigma2", "beta", "decoder", "trials", "successes",
    "success_rate", "ci_low", "ci_high", "seed",
]
M95_KEYS = {
    "seed", "m_lo", "m_hi", "m95", "threshold", "trials_per_probe", "successes",
    "success_rate", "ci_low", "ci_high", "probes",
}
PROBE_KEYS = {"m", "successes", "trials", "rate"}


def wilson(successes: int, trials: int, confidence: float = 0.95) -> tuple:
    """Wilson score interval, written from the formula rather than taken from binsense."""
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def parse_sweep_csv(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def check_sweep_csv(text: str, *, model: str, n: int, k: int, sigma2: float,
                    decoder: str, grid, trials: int, seed: int) -> list:
    """One ``SweepResult.to_csv`` table: header, config echo, counts, rates, intervals."""
    rows = parse_sweep_csv(text)
    if not text.endswith("\n") or not rows or rows[0] != SWEEP_HEADER:
        return ["sweep CSV: missing or wrong header"]
    body = rows[1:]
    if [r[3] if len(r) > 3 else None for r in body] != [str(m) for m in grid]:
        return [f"sweep CSV: m column is not the grid {list(grid)}"]
    problems = []
    echo = [model, str(n), str(k), None, f"{sigma2:.6g}", "", decoder, str(trials)]
    for r in body:
        if len(r) != len(SWEEP_HEADER):
            problems.append(f"sweep CSV m={r[3]}: {len(r)} fields")
            continue
        if [e if e is None else r[i] for i, e in enumerate(echo)] != echo or r[12] != str(seed):
            problems.append(f"sweep CSV m={r[3]}: config echo differs")
        try:
            successes = int(r[8])
            rate, lo, hi = float(r[9]), float(r[10]), float(r[11])
        except ValueError:
            problems.append(f"sweep CSV m={r[3]}: unparsable numbers")
            continue
        if not 0 <= successes <= trials:
            problems.append(f"sweep CSV m={r[3]}: successes {successes} outside [0, {trials}]")
            continue
        # the CSV carries 6 significant digits
        if not _close(rate, successes / trials, 1e-5):
            problems.append(f"sweep CSV m={r[3]}: success_rate {rate} != {successes}/{trials}")
        want_lo, want_hi = wilson(successes, trials)
        if not (_close(lo, want_lo, 1e-5) and _close(hi, want_hi, 1e-5)):
            problems.append(
                f"sweep CSV m={r[3]}: Wilson interval [{lo}, {hi}] != "
                f"[{want_lo:.6g}, {want_hi:.6g}]"
            )
    return problems


def sweep_rates(text: str) -> list:
    return [float(r[9]) for r in parse_sweep_csv(text)[1:]]


def check_paired_gap(texts, max_gap: float = 0.1) -> list:
    """Acceptance criterion 5: on its grid the arms' success rates differ by at most 0.1."""
    a, b = (sweep_rates(t) for t in texts)
    gap = max(abs(x - y) for x, y in zip(a, b))
    if gap > max_gap + 1e-9:
        return [f"paired sweep: max success-rate gap {gap:.4f} exceeds {max_gap}"]
    return []


def check_rate_floor(text: str, m: int, floor: float) -> list:
    """The success rate at ``m`` reaches ``floor``."""
    rates = {int(r[3]): float(r[9]) for r in parse_sweep_csv(text)[1:]}
    if rates.get(m, -1.0) < floor:
        return [f"sweep: success rate {rates.get(m)} at m={m} is below the floor {floor}"]
    return []


def check_m95_json(text: str, *, m_lo: int, m_hi: int, trials: int, seed: int,
                   threshold: float = 0.95) -> list:
    """An ``estimate_m95`` result: structure, Wilson interval, and a valid bisection.

    A valid bisection probed m_hi first and cleared the threshold there,
    clears it at m95, and (unless m95 is m_lo) failed it at m95 - 1.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"m95 JSON: {exc}"]
    if not isinstance(doc, dict) or set(doc) != M95_KEYS:
        return ["m95 JSON: wrong keys"]
    probes = doc["probes"]
    if not probes or any(not isinstance(p, dict) or set(p) != PROBE_KEYS for p in probes):
        return ["m95 JSON: malformed probes"]
    problems = []
    if (doc["seed"], doc["m_lo"], doc["m_hi"], doc["trials_per_probe"]) != (seed, m_lo, m_hi, trials):
        problems.append("m95 JSON: config echo differs")
    if doc["threshold"] != threshold:
        problems.append(f"m95 JSON: threshold {doc['threshold']} != {threshold}")
    rates = {}
    for p in probes:
        if p["trials"] != trials or not 0 <= p["successes"] <= trials:
            problems.append(f"m95 JSON: probe m={p['m']} counts {p['successes']}/{p['trials']}")
        elif p["rate"] != p["successes"] / trials:
            problems.append(f"m95 JSON: probe m={p['m']} rate {p['rate']} is not its count ratio")
        rates[p["m"]] = p["successes"] / trials
    if len(rates) != len(probes):
        problems.append("m95 JSON: an m was probed twice")
    if probes[0]["m"] != m_hi or rates.get(m_hi, 0.0) < threshold:
        problems.append(f"m95 JSON: the bracket was not validated at m_hi={m_hi}")
    m95 = doc["m95"]
    if not m_lo <= m95 <= m_hi or m95 not in rates:
        return problems + [f"m95 JSON: m95={m95} is not a probed m in [{m_lo}, {m_hi}]"]
    if rates[m95] < threshold:
        problems.append(f"m95 JSON: rate {rates[m95]} at m95={m95} is below {threshold}")
    if m95 > m_lo and rates.get(m95 - 1, 1.0) >= threshold:
        problems.append(f"m95 JSON: m95-1={m95 - 1} was not probed below the threshold")
    successes = doc["successes"]
    if successes != round(rates[m95] * trials) or doc["success_rate"] != successes / trials:
        problems.append("m95 JSON: summary counts differ from the m95 probe")
    want = wilson(successes, trials)
    if not (_close(doc["ci_low"], want[0], 1e-12) and _close(doc["ci_high"], want[1], 1e-12)):
        problems.append(f"m95 JSON: Wilson interval {doc['ci_low']}, {doc['ci_high']} != {want}")
    return problems

