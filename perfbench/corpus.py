"""Seeded job corpora for the three workloads.

A job is one user-level call: one ``cohbreak`` CLI invocation through
``cohbreak.cli.main(argv)`` on JSON files written here, or one call of a
public library function. Every channel, state and file comes from the
workload seed; the program sees only these inputs.

Random incoherent channels are drawn with the package's own generator and
kept per Kraus-count stratum (3, d+3, d^2+2 and d^2+d+2 operators: the
generator's mixtures of unitary, dephasing and measure-and-prepare pieces).
Cost follows the operator count, so fixing the strata and drawing the
entries from the seed keeps the job mix, and the timings, comparable
across seeds while the inputs themselves change.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import cohbreak
import cohbreak.cli
import reference as ref

TOL = 1e-8           # the CLI's default --tol, used by every job
INDEX_CAP = 16
AFFINE_CAP = 64
EVOLVE_STEPS = 50
EPSILONS = [0.05, 0.1, 0.2, 0.5, 1.0]
MEDIAN_BLOCK = 12
TAIL_BLOCK = 5
_SALT = {"classify-index": 11, "haar-tails": 12, "probe-law": 13}


@dataclass
class Job:
    label: str
    run: Callable[[int], object]
    # output -> (failure reason or None, counters)
    check: Callable[[object], tuple[str | None, dict]]


def run_cli(argv: list[str]) -> int:
    """One CLI call; a SystemExit from argument errors is its exit code."""
    try:
        return cohbreak.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def _write(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _kraus(channel) -> np.ndarray:
    return np.stack(channel.kraus_ops)


def _stratum(d: int, n_ops: int, rng: np.random.Generator):
    while True:
        channel = cohbreak.channels.random_incoherent_channel(d, rng)
        if channel.n_ops == n_ops:
            return channel


def _strata(d: int) -> dict[str, int]:
    return {"light": 3, "medium": d + 3, "heavy": d * d + 2, "max": d * d + d + 2}


def _density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _once(compute: Callable[[], object]) -> Callable[[], object]:
    """Defer a reference computation to the first check, and keep its result."""
    cache = []

    def value():
        if not cache:
            cache.append(compute())
        return cache[0]

    return value


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class _Cli:
    """Builds CLI jobs whose outputs land in per-pass files under ``out``."""

    def __init__(self, out: Path) -> None:
        self.out = out
        self.count = 0

    def job(self, label: str, argv: list[str], check) -> Job:
        idx = self.count
        self.count += 1

        def run(pass_no: int):
            path = self.out / f"{idx}-{pass_no}.json"
            return run_cli([*argv, "--out", str(path)]), path

        return Job(label, run, check)


# --- classify-index ------------------------------------------------------------


def _classify_check(kraus):
    expected = _once(lambda: ref.classify_expectation(kraus, TOL))

    def check(output):
        code, path = output
        if code != 0:
            return f"exit {code}", {}
        report = _read_json(path)
        counters = {"pattern_tests": 3, "pattern_retries": ref.retried_patterns(report)}
        return ref.check_report(report, expected(), TOL), counters

    return check


def _index_check(kraus, cap: int):
    reference = _once(lambda: ref.index_expectation(kraus, cap, TOL))

    def check(output):
        code, path = output
        expected = reference()
        if code not in expected["exit"]:
            return f"exit {code}, expected {sorted(expected['exit'])}", {}
        if code != 0 or "range" not in expected:
            return None, {"powers": 0}
        result = _read_json(path)
        return ref.check_index(result, expected, cap), {"powers": len(result["residuals"])}

    return check


def _riffle(*groups: list) -> list:
    """Merge the groups so that each one is spread evenly over the result."""
    keyed = [((i + 0.5) / len(group), g, item)
             for g, group in enumerate(groups) for i, item in enumerate(group)]
    return [item for _, _, item in sorted(keyed, key=lambda k: k[:2])]


def classify_index(seed: int, work: Path) -> list[Job]:
    rng = np.random.default_rng([_SALT["classify-index"], seed])
    cli = _Cli(work / "out")
    # Entries go to one of three groups: "slow" (d >= 8), "median" and
    # "fast". Each pass interleaves them (see the end), so the jobs that set
    # the median and the tail run all through the pass, and a percentile
    # samples the host's speed over the whole run rather than in the
    # fraction of a second a block of like jobs takes.
    entries = []  # (group, label, channel, index cap or None)
    # Index jobs only where their cost does not depend on the seed: the rank
    # of a random channel's powers, and so the cost of each re-extraction,
    # varies from draw to draw at d >= 6, but saturates at d = 4 and is
    # fixed for the partial dephasing channels of the gallery.
    for d in (4, 6, 8):
        for name, n_ops in _strata(d).items():
            entries.append(("slow" if d == 8 else "fast", f"d{d}-{name}",
                            _stratum(d, n_ops, rng), INDEX_CAP if d == 4 else None))
    # A block of like jobs in the middle of the latency range, so that the
    # median job has the same kind on every seed.
    for k in range(MEDIAN_BLOCK):
        entries.append(("median", f"d6-medium{k}", _stratum(6, _strata(6)["medium"], rng), None))
    # The slowest jobs: enough of one kind that the tail job is of that kind
    # on every seed, and one 146-operator channel.
    strata12 = _strata(12)
    for k in range(TAIL_BLOCK):
        entries.append(("slow", f"d12-medium{k}", _stratum(12, strata12["medium"], rng), None))
    entries.append(("slow", "d12-heavy", _stratum(12, strata12["heavy"], rng), None))
    ch = cohbreak.channels
    gallery = [
        ("dephasing4", ch.dephasing_channel(4)),
        ("partial-dephasing4", ch.partial_dephasing_channel(4, float(rng.uniform(0.2, 0.8)))),
        ("partial-dephasing8", ch.partial_dephasing_channel(8, float(rng.uniform(0.2, 0.8)))),
        ("gad", ch.gad_channel(float(rng.uniform(0.3, 0.9)), float(rng.uniform()))),
        ("y-to-x", ch.y_to_x_channel(0.5)),
        ("cbc-povm4", ch.cbc_from_povm(ch.random_povm(4, 4, rng))),
        ("random3", ch.random_channel(3, 2, rng)),
    ]
    entries += [("slow" if channel.dim == 8 else "fast", label, channel, INDEX_CAP)
                for label, channel in gallery]

    groups: dict[str, list[Job]] = {"slow": [], "median": [], "fast": []}
    for group, label, channel, cap in entries:
        path = _write(work / f"{label}.json", cohbreak.channel_to_json(channel))
        kraus = _kraus(channel)
        groups[group].append(cli.job(f"classify {label}", ["classify", "--channel", path],
                                     _classify_check(kraus)))
        if cap is not None:
            groups[group].append(cli.job(
                f"index {label}",
                ["index", "--channel", path, "--cap", str(cap), "--format", "json"],
                _index_check(kraus, cap)))
    slow = groups["slow"]
    slow = _riffle([j for j in slow if "d12" in j.label], [j for j in slow if "d12" not in j.label])
    return _riffle(slow, _riffle(groups["median"], groups["fast"]))


# --- haar-tails ----------------------------------------------------------------


def _concentration_check(d: int, samples: int, seed: int, kind: str, q: float = 1.0,
                         legs=None, from_file: bool = True):
    values = _once(lambda: ref.output_coherences(kind, d, ref.haar_kets(d, samples, seed),
                                                 q=q, legs=legs))

    def check(output):
        if from_file:
            code, path = output
            if code != 0:
                return f"exit {code}", {}
            report = _read_json(path)
        else:
            report = output.to_dict()
        return ref.check_concentration(report, values(), d, samples, seed, EPSILONS), {}

    return check


def haar_tails(seed: int, work: Path) -> list[Job]:
    rng = np.random.default_rng([_SALT["haar-tails"], seed])
    cli = _Cli(work / "out")
    eps = ",".join(repr(e) for e in EPSILONS)

    def seed_draw() -> int:
        return int(rng.integers(0, 2**31))

    jobs = []
    for d, samples, copies in ((64, 1024, 4), (128, 512, 2), (256, 512, 2)):
        for _ in range(copies):
            s = seed_draw()
            argv = ["concentrate", "--channel", "identity", "--dim", str(d),
                    "--samples", str(samples), "--seed", str(s), "--eps", eps]
            jobs.append(cli.job(f"concentrate identity d{d}", argv,
                                _concentration_check(d, samples, s, "identity")))
    q = 0.5
    dephasing = cohbreak.channels.partial_dephasing_channel(64, q)
    path = _write(work / "partial-dephasing64.json", cohbreak.channel_to_json(dephasing))
    for _ in range(2):
        s = seed_draw()
        argv = ["concentrate", "--channel", path, "--dim", "64",
                "--samples", "512", "--seed", str(s), "--eps", eps]
        jobs.append(cli.job("concentrate partial-dephasing d64", argv,
                            _concentration_check(64, 512, s, "partial_dephasing", q=q)))

    for d, n_legs, samples, copies in ((32, 5, 512, 3), (64, 6, 256, 3)):
        for _ in range(copies):
            legs = [cohbreak.gad_channel(float(rng.uniform(0.5, 0.9)),
                                         float(rng.uniform(0.5, 1.0))) for _ in range(n_legs)]
            s = seed_draw()

            def run(pass_no, legs=legs, d=d, samples=samples, s=s):
                return cohbreak.concentration.run_concentration_experiment(
                    legs, d=d, samples=samples, epsilons=EPSILONS, seed=s)

            jobs.append(Job(f"experiment gad^{n_legs} d{d}", run, _concentration_check(
                d, samples, s, "product", legs=[_kraus(g) for g in legs], from_file=False)))

    legs = [cohbreak.gad_channel(float(rng.uniform(0.5, 0.9)), 1.0) for _ in range(5)]
    s = seed_draw()
    leg_kraus = [_kraus(g) for g in legs]

    expected = _once(lambda: ref.contraction_ratio(leg_kraus, 32, 64, s))

    def contraction_check(ratio):
        if not 0.0 <= ratio <= 1.0 + 1e-9 or abs(ratio - expected()) > 1e-9:
            return f"contraction ratio {ratio} vs reference {expected()}", {}
        return None, {}

    jobs.append(Job("contraction gad^5 d32",
                    lambda pass_no: cohbreak.concentration.contraction_check(legs, 64, s),
                    contraction_check))
    # Seven jobs of a pass are faster than the three gad^5 d32 experiments
    # and seven are slower, so the median is the middle experiment on every
    # seed. Each kind is spread over the pass, as in classify-index.
    kinds: dict[str, list[Job]] = {}
    for job in jobs:
        kinds.setdefault(job.label, []).append(job)
    return _riffle(*kinds.values())


# --- probe-law -----------------------------------------------------------------


def _law_job(rho: np.ndarray, channel, label: str) -> Job:
    kraus = _kraus(channel)
    d = rho.shape[0]
    expected_lhs = _once(lambda: ref.c_l1(ref.apply(kraus, rho)))

    def check(result):
        if abs(result.lhs - expected_lhs()) > ref.TRAJECTORY_ATOL:
            return f"lhs {result.lhs} vs reference {expected_lhs()}", {}
        if result.residual > ref.law_tolerance(d) or abs(abs(result.lhs - result.rhs)
                                                           - result.residual) > 1e-12:
            return f"law residual {result.residual}", {}
        certified = ref.pattern_residuals(kraus)["column"] <= TOL
        if certified and result.certification != "incoherent-kraus":
            return f"certification {result.certification}", {}
        return None, {}

    return Job(label, lambda pass_no: cohbreak.dynamics.factorization_check(rho, channel), check)


def _evolve_job(rho: np.ndarray, channel, label: str) -> Job:
    kraus = _kraus(channel)
    reference = _once(lambda: ref.trajectory(kraus, rho, EVOLVE_STEPS))

    def check(traj):
        values = reference()
        lo, hi = ref.death_range(values, cohbreak.dynamics.DEFAULT_SUDDEN_DEATH_TOL)
        got = traj.values()
        if len(got) != len(values) or np.abs(got - values).max() > ref.TRAJECTORY_ATOL:
            return "trajectory differs from reference", {}
        death = math.inf if traj.sudden_death_step is None else traj.sudden_death_step
        if not lo <= death <= hi:
            return f"sudden-death step {traj.sudden_death_step} outside [{lo}, {hi}]", {}
        return None, {}

    return Job(label, lambda pass_no: cohbreak.dynamics.evolve(rho, channel, steps=EVOLVE_STEPS),
               check)


def _affine_job(rep, label: str) -> Job:
    bounds = _once(lambda: ref.affine_index_range(np.asarray(rep.m), np.asarray(rep.shift),
                                                  AFFINE_CAP, TOL))

    def check(result):
        lo, hi = bounds()
        got = math.inf if result.value is None else result.value
        if not lo <= got <= hi:
            return f"affine index {result.value} outside [{lo}, {hi}]", {}
        return None, {}

    return Job(label, lambda pass_no: cohbreak.dynamics.coherence_breaking_index_affine(
        rep, cap=AFFINE_CAP), check)


def _qubit_classify_job(channel, label: str) -> Job:
    kraus = _kraus(channel)
    expected = _once(lambda: ref.classify_expectation(kraus, TOL))

    def check(report):
        data = report.to_dict()
        counters = {"pattern_tests": 3, "pattern_retries": ref.retried_patterns(data)}
        return ref.check_report(data, expected(), TOL), counters

    return Job(label, lambda pass_no: cohbreak.classifiers.classify(channel), check)


def probe_law(seed: int, work: Path) -> list[Job]:
    rng = np.random.default_rng([_SALT["probe-law"], seed])
    ch = cohbreak.channels
    jobs = []
    for d, n in ((2, 12), (3, 6), (4, 6)):
        channels = [ch.random_incoherent_channel(d, rng) for _ in range(n)]
        states = [_density(d, rng) for _ in range(n)]
        jobs += [_law_job(rho, channel, f"factorization d{d}")
                 for channel in channels for rho in states]

    def gad():
        return ch.gad_channel(float(rng.uniform(0.3, 0.95)), float(rng.uniform()))

    qubits = [
        gad(), gad(), ch.y_to_x_channel(float(rng.uniform(0.2, 0.9))),
        ch.cbc_from_povm(ch.random_povm(2, 2, rng)), ch.dephasing_channel(2),
    ] + [ch.random_incoherent_channel(2, rng) for _ in range(7)]
    for k, channel in enumerate(qubits):
        jobs.append(_evolve_job(_density(2, rng), channel, f"evolve qubit{k}"))
        jobs.append(_qubit_classify_job(channel, f"classify qubit{k}"))
    # The affine index search costs O(n^2) in the index n where it stops, so
    # these channels have a fixed index: GAD with p >= 0.7 keeps coherence
    # past the cap, and the last three break it at step 1 or 2.
    affine = [ch.gad_channel(float(rng.uniform(0.7, 0.95)), float(rng.uniform()))
              for _ in range(9)]
    affine += [ch.y_to_x_channel(float(rng.uniform(0.2, 0.9))),
               ch.cbc_from_povm(ch.random_povm(2, 2, rng)), ch.dephasing_channel(2)]
    for k, channel in enumerate(affine):
        jobs.append(_affine_job(ch.affine_from_kraus(channel), f"affine-index qubit{k}"))
    for d in (3, 4):
        for _ in range(2):
            channel = ch.random_incoherent_channel(d, rng)
            jobs.append(_evolve_job(_density(d, rng), channel, f"evolve d{d}"))
    jobs.append(_qubit_classify_job(ch.random_channel(2, 2, rng), "classify qubit-random"))
    return jobs


BUILDERS = {"classify-index": classify_index, "haar-tails": haar_tails, "probe-law": probe_law}
