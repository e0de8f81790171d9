"""Independent reference computations for checking the program's outputs.

Everything here is plain numpy on the Kraus operators, affine pairs and
seeds that the benchmark generated; nothing calls into cohbreak. Where a
verdict depends on comparing a residual with a tolerance, a residual within
a factor of the tolerance (``MARGIN``) is numerically undecided, and both
answers are accepted there. The factor covers the different but equivalent
formulations used here (unit images instead of Gell-Mann images, transfer
matrix powers instead of re-extracted Kraus powers).
"""

from __future__ import annotations

import math

import numpy as np

MARGIN = 100.0   # verdict residuals within [tol / MARGIN, tol * MARGIN] are undecided
INDEX_MARGIN = 3.0
TRAJECTORY_ATOL = 1e-9


def _stack(kraus) -> np.ndarray:
    return np.asarray(kraus, dtype=complex)


def apply(kraus, rho: np.ndarray) -> np.ndarray:
    k = _stack(kraus)
    return (k @ rho @ k.conj().transpose(0, 2, 1)).sum(axis=0)


def c_l1(rho: np.ndarray) -> float:
    mags = np.abs(rho)
    return float(mags.sum() - np.trace(mags))


def unit_images(kraus) -> np.ndarray:
    """images[i, j] = Phi(|i><j|)."""
    k = _stack(kraus)
    return np.einsum("nui,nvj->ijuv", k, k.conj(), optimize=True)


def transfer(kraus) -> np.ndarray:
    """d^2 x d^2 matrix acting on row-major vec(rho)."""
    k = _stack(kraus)
    d = k.shape[1]
    return np.einsum("nur,nvs->uvrs", k, k.conj(), optimize=True).reshape(d * d, d * d)


def _offdiag_max(mats: np.ndarray) -> float:
    d = mats.shape[-1]
    return float(np.abs(mats[..., ~np.eye(d, dtype=bool)]).max())


def _decide(residual: float, tol: float) -> set[str]:
    if tol / MARGIN < residual < tol * MARGIN:
        return {"yes", "no"}
    return {"yes"} if residual <= tol else {"no"}


def _second_largest(mags: np.ndarray, axis: int) -> float:
    if mags.shape[axis] < 2:
        return 0.0
    return float(np.sort(mags, axis=axis).take(-2, axis=axis).max())


def pattern_residuals(kraus) -> dict[str, float]:
    """Residuals of the Kraus sparsity patterns on the given operators."""
    mags = np.abs(_stack(kraus))
    return {
        "column": _second_largest(mags, axis=1),
        "row": _second_largest(mags, axis=2),
    }


def classify_expectation(kraus, tol: float) -> dict[str, set[str]]:
    """Acceptable verdicts per class, from decomposition-independent tests.

    Pattern classes depend on the Kraus set, so they are pinned only where
    a test decides them: a pattern found on the given set means "yes"; a
    failed necessary condition (MIO for incoherent, DIO for SIO) means
    "no"; anything else accepts both.
    """
    k = _stack(kraus)
    d = k.shape[1]
    images = unit_images(k)
    diag_images = images[np.arange(d), np.arange(d)]
    off = ~np.eye(d, dtype=bool)
    cbc_res = _offdiag_max(images)
    mio_res = _offdiag_max(diag_images)
    coh_images = images[off]
    dio_res = max(mio_res, float(np.abs(np.diagonal(coh_images, axis1=1, axis2=2)).max()))

    flat = images.reshape(d * d, d, d)
    qc_res = 0.0
    for a in range(d * d):
        comm = flat[a] @ flat - flat @ flat[a]
        qc_res = max(qc_res, float(np.abs(comm).max()))

    choi = np.einsum("nuv,nrs->uvrs", k, k.conj()) / d
    pt = choi.transpose(0, 3, 2, 1).reshape(d * d, d * d)
    min_pt = float(np.linalg.eigvalsh(pt).min())
    eb_yes = "yes" if d == 2 else "inconclusive"
    if -tol * MARGIN < min_pt < -tol / MARGIN:
        eb = {"no", eb_yes}
    else:
        eb = {"no"} if min_pt < -tol else {eb_yes}

    pattern = pattern_residuals(k)
    cbc = _decide(cbc_res, tol)
    if pattern["column"] <= tol or cbc == {"yes"}:
        incoherent = {"yes"}
    elif mio_res > tol * MARGIN:
        incoherent = {"no"}
    else:
        incoherent = {"yes", "no"}
    if max(pattern["column"], pattern["row"]) <= tol:
        sio = {"yes"}
    elif dio_res > tol * MARGIN or incoherent == {"no"}:
        sio = {"no"}
    else:
        sio = {"yes", "no"}
    return {
        "incoherent": incoherent,
        "sio": sio,
        "scbc": cbc,
        "cbc": cbc,
        "dio": _decide(dio_res, tol),
        "qc": _decide(qc_res, tol),
        "entanglement_breaking": eb,
    }


def check_report(report: dict, expected: dict[str, set[str]], tol: float) -> str | None:
    """Compare a classification report with the expectation and the class chain."""
    verdicts = report.get("verdicts", {})
    if set(verdicts) != set(expected):
        return f"verdict keys {sorted(verdicts)}"
    if report.get("tolerance") != tol:
        return f"tolerance {report.get('tolerance')} != {tol}"
    for name, allowed in expected.items():
        if verdicts[name] not in allowed:
            return f"{name}: {verdicts[name]} not in {sorted(allowed)}"
    if verdicts["scbc"] != verdicts["cbc"]:
        return "scbc verdict differs from cbc"
    if verdicts["cbc"] == "yes" and verdicts["qc"] != "yes":
        return "cbc without qc"
    if verdicts["qc"] == "yes" and verdicts["entanglement_breaking"] == "no":
        return "qc with an NPT Choi state"
    return None


def retried_patterns(report: dict) -> int:
    """Pattern verdicts for which the canonical Kraus set had to be tested."""
    return sum(
        1 for name in ("incoherent", "sio", "scbc")
        if report["evidence"][name].get("decomposition") != "given"
        or report["verdicts"][name] == "no"
    )


def _first_range(values: list[float], tol: float, start: int) -> tuple[float, float]:
    """Earliest and latest position (counted from `start`) at which the values
    can first reach tol, allowing for round-off near tol; inf means never."""
    def first(limit: float) -> float:
        return next((n for n, v in enumerate(values, start) if v <= limit), math.inf)
    return first(tol * INDEX_MARGIN), first(tol / INDEX_MARGIN)


def index_residuals(kraus, cap: int) -> list[float]:
    """Largest off-diagonal entry of Phi^n(|i><j|) for n = 1..cap."""
    t = transfer(kraus)
    d = int(round(math.sqrt(t.shape[0])))
    power = np.eye(d * d, dtype=complex)
    out = []
    for _ in range(cap):
        power = t @ power
        out.append(_offdiag_max(power.T.reshape(d * d, d, d)))
    return out


def index_expectation(kraus, cap: int, tol: float) -> dict:
    """Expected exit code, index range and residuals of `cohbreak index`."""
    k = _stack(kraus)
    images = unit_images(k)
    d = k.shape[1]
    mio_res = _offdiag_max(images[np.arange(d), np.arange(d)])
    if pattern_residuals(k)["column"] > tol:
        if mio_res > tol * MARGIN:
            return {"exit": {3}}
        return {"exit": {0, 3}}
    residuals = index_residuals(k, cap)
    return {"exit": {0}, "range": _first_range(residuals, tol, 1), "residuals": residuals}


def check_index(result: dict, expected: dict, cap: int) -> str | None:
    lo, hi = expected["range"]
    value = result["index"]
    got = math.inf if value is None else value
    if not lo <= got <= hi:
        return f"index {value} outside [{lo}, {hi}]"
    if result["exceeded"] != (value is None) or result["cap"] != cap:
        return "exceeded/cap fields inconsistent"
    ref = expected["residuals"][: len(result["residuals"])]
    if len(result["residuals"]) != (cap if value is None else value):
        return f"{len(result['residuals'])} residuals for index {value}"
    if not np.allclose(result["residuals"], ref, rtol=1e-6, atol=1e-9):
        return "residuals differ from transfer-matrix powers"
    return None


def affine_index_range(m: np.ndarray, shift: np.ndarray, cap: int, tol: float):
    """Index range of a qubit affine pair, from powers of its 4x4 augmented matrix."""
    aug = np.eye(4)
    aug[:3, :3] = m
    aug[:3, 3] = shift
    power = np.eye(4)
    residuals = []
    for _ in range(cap):
        power = aug @ power
        residuals.append(float(np.abs(power[:2, :]).max()))
    return _first_range(residuals, tol, 1)


def trajectory(kraus, rho: np.ndarray, steps: int) -> list[float]:
    values = [c_l1(rho)]
    for _ in range(steps):
        rho = apply(kraus, rho)
        values.append(c_l1(rho))
    return values


def death_range(values: list[float], tol: float) -> tuple[float, float]:
    return _first_range(values, tol, 0)


def law_tolerance(d: int) -> float:
    """Factorization residual bound of the acceptance gate."""
    return 1e-8 if d == 2 else 1e-6


# --- concentration -----------------------------------------------------------


def haar_kets(d: int, n: int, seed: int) -> np.ndarray:
    """The seeded Gaussian draw the program documents for Haar kets (phases free)."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1)[:, None]


def _leg_transfer(kraus) -> np.ndarray:
    k = _stack(kraus)
    return np.einsum("nur,nvs->uvrs", k, k.conj())


def product_outputs(legs, rhos: np.ndarray) -> np.ndarray:
    """Apply tensor-product legs (left to right) to a batch of density matrices."""
    dims = [np.asarray(leg[0]).shape[0] for leg in legs]
    b, d, _ = rhos.shape
    n = len(dims)
    t = rhos.reshape(b, *dims, *dims)
    for pos, leg in enumerate(legs):
        s = _leg_transfer(leg)
        t = np.tensordot(t, s, axes=([1 + pos, 1 + n + pos], [2, 3]))
        t = np.moveaxis(t, [-2, -1], [1 + pos, 1 + n + pos])
    return t.reshape(b, d, d)


def output_coherences(kind: str, d: int, kets: np.ndarray, q: float = 1.0, legs=None):
    """c_l1 of the channel output for each pure input ket."""
    if kind in ("identity", "partial_dephasing"):
        l1 = np.abs(kets).sum(axis=1) ** 2 - 1.0
        return q * l1 if kind == "partial_dephasing" else l1
    rhos = np.einsum("bi,bj->bij", kets, kets.conj())
    outs = product_outputs(legs, rhos)
    mags = np.abs(outs)
    return mags.sum(axis=(1, 2)) - np.trace(mags, axis1=1, axis2=2)


def corollary_bound(d: int, eps: float) -> float:
    """The scaled-l1 tail bound at channel contraction factor 1 (the CLI default)."""
    return 2.0 * math.exp(-((d - 1) ** 2) * eps**2 / (18 * math.pi**3 * d * math.log(2)))


def check_concentration(report: dict, values: np.ndarray, d: int, samples: int,
                        seed: int, epsilons: list[float]) -> str | None:
    """Mean within 3 standard errors of the reference on the same inputs,
    tails consistent with the reference, bounds recomputed, and
    tail - 3 sigma <= bound wherever the bound is below 1."""
    if (report["dim"], report["samples"], report["seed"]) != (d, samples, seed):
        return "dim/samples/seed echo mismatch"
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples))
    if abs(report["mean_c_l1"] - mean) > 3.0 * stderr:
        return f"mean c_l1 {report['mean_c_l1']:.6g} vs reference {mean:.6g} (se {stderr:.2g})"
    scaled = values / (d - 1.0)
    if list(report["epsilons"]) != [float(e) for e in epsilons]:
        return "epsilon echo mismatch"
    for eps, tail, levy, coro in zip(epsilons, report["tails"], report["levy_bounds"],
                                     report["corollary_bounds"]):
        ref_tail = float((np.abs(scaled - scaled.mean()) > eps).mean())
        sigma = math.sqrt(tail * (1.0 - tail) / samples)
        if abs(tail - ref_tail) > 3.0 * sigma + 1.0 / samples:
            return f"tail at eps={eps}: {tail} vs reference {ref_tail}"
        bound = corollary_bound(d, eps)
        for got in (levy, coro):
            if not math.isclose(got, bound, rel_tol=1e-9, abs_tol=1e-300):
                return f"bound at eps={eps}: {got} vs {bound}"
        if bound < 1.0 and tail - 3.0 * sigma > bound:
            return f"tail {tail} exceeds bound {bound} at eps={eps}"
    return None


def contraction_ratio(legs, d: int, samples: int, seed: int) -> float:
    kets = haar_kets(d, 2 * samples, seed)
    rhos = np.einsum("bi,bj->bij", kets, kets.conj())
    outs = product_outputs(legs, rhos)

    def distance(a, b):
        return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)

    denom = distance(rhos[0::2], rhos[1::2])
    keep = denom >= 1e-12
    return float((distance(outs[0::2], outs[1::2])[keep] / denom[keep]).max())
