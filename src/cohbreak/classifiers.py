"""Membership tests for the coherence-related channel classes.

Classes and their decision procedures:

* incoherent / SIO / SCBC -- sparsity-pattern tests on a concrete Kraus
  decomposition, on which membership can depend, read down one ladder of
  Kraus sets: given, via CBC, then the canonical one (`_given_or_canonical`).
* CBC / DIO -- maxima over the images of the d^2 matrix units |i><j|
  (linearity makes them sufficient), the columns of the transfer matrix T,
  cached on the channel as `unit_maxima`.
* QC -- the outputs of a Hermitian basis must commute (`is_qc`).
* entanglement breaking -- PPT test on the Choi matrix, read off T: decisive
  for qubits, only a no-certificate ("inconclusive" on a pass) for d >= 3.

A coherence breaking channel always admits a Kraus set whose every branch
outputs a diagonal state (take K_ik = sqrt(lambda_ik)|i><phi_ik| from the
effects F_i = Phi^adj(|i><i|)), so it is incoherent, and selective breaking
coincides with breaking at channel level. That form is measure-and-prepare,
so CBC is inside QC, which is inside EB (Horodecki, Shor & Ruskai, Rev.
Math. Phys. 15, 629 (2003)). ``classify`` derives these verdicts from CBC
and QC instead of testing them apart, so they hold at any tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channels import KrausChannel, QubitAffine, _pt_choi, _unit_image_maxima  # last re-exported
from .linalg import _require_tol, generalized_gell_mann

DEFAULT_TOL = 1e-8
_QC_BAND = 1e3  # QC residuals within this factor of tol go to the pairwise test


def matrix_unit_images(channel: KrausChannel) -> np.ndarray:
    """Phi(|i><j|) for all i, j, as a read-only array of shape (d, d, d, d)."""
    d = channel.dim
    return channel.transfer.reshape(d, d, d, d).transpose(2, 3, 0, 1)


def _second_largest(mags: np.ndarray, axis: int) -> np.ndarray:
    """Second-largest entry along an axis (0 where the axis has one entry)."""
    if mags.shape[axis] < 2:
        return np.zeros(np.delete(mags.shape, axis))
    return np.take(np.partition(mags, -2, axis=axis), -2, axis=axis)


def _pattern_verdict(second: np.ndarray, tol: float, names: tuple[str, ...]):
    """(ok, witness) naming, by `names`, the first entry of `second` above tol in row-major
    order (operator, then column or row) with its residual, else the largest residual."""
    bad = second > tol
    if bad.any():
        first = np.unravel_index(int(bad.argmax()), second.shape)  # argmax: the first True
        return False, {**dict(zip(names, map(int, first))), "residual": float(second[first])}
    return True, {"residual": float(second.max())}


def is_incoherent_kraus(channel: KrausChannel, tol: float = DEFAULT_TOL):
    """Every Kraus operator has at most one entry above tol per column.

    Returns (ok, witness); on failure the witness names the first violating
    (operator, column) and the achieved residual (second-largest magnitude).
    """
    tol = _require_tol(tol)
    second = _second_largest(np.abs(channel.kraus_ops), axis=1)
    return _pattern_verdict(second, tol, ("operator", "column"))


def is_sio(channel: KrausChannel, tol: float = DEFAULT_TOL):
    """Every Kraus operator is sub-permutation patterned.

    At most one entry above tol per column and per row, the shape of
    d_ij |pi_i(j)><j| operators.
    """
    tol = _require_tol(tol)
    mags, residual = np.abs(channel.kraus_ops), 0.0
    for axis, name in ((1, "column"), (2, "row")):
        ok, witness = _pattern_verdict(_second_largest(mags, axis), tol, ("operator", name))
        if not ok:
            return False, {**witness, "axis": name}
        residual = max(residual, witness["residual"])
    return True, {"residual": residual}


def is_scbc(channel: KrausChannel, tol: float = DEFAULT_TOL):
    """Every Kraus operator is |i><phi|-shaped: at most one nonzero row.

    Equivalent to numerical rank one with the left singular vector pinned
    to a reference-basis vector, so every selective branch K rho K^dag is
    diagonal.
    """
    tol = _require_tol(tol)
    row_norms = np.abs(channel.kraus_ops).max(axis=2)
    ok, witness = _pattern_verdict(_second_largest(row_norms, axis=1), tol, ("operator",))
    if not ok:  # name its two largest rows, between the operator and the residual
        n = witness["operator"]
        witness = {"operator": n, "rows": np.argsort(row_norms[n])[::-1][:2].tolist(), **witness}
    return ok, witness


def _unit_verdict(residuals: np.ndarray, tol: float):
    """(ok, witness) naming the first unit (i, j) with the largest residual."""
    flat = int(np.argmax(residuals))
    worst = float(residuals.flat[flat])
    if worst > tol:
        return False, {"unit": list(divmod(flat, residuals.shape[1])), "residual": worst}
    return True, {"residual": worst}


def is_cbc(channel: KrausChannel, tol: float = DEFAULT_TOL):
    """Phi(|i><j|) diagonal for every matrix unit, hence Phi(rho) diagonal
    for every state by linearity.

    Decomposition independent. Returns (ok, witness) with the offending
    unit (i, j) and the largest off-diagonal residual.
    """
    tol = _require_tol(tol)
    return _unit_verdict(channel.unit_maxima[0], tol)


def is_cbc_affine(rep: QubitAffine, tol: float = DEFAULT_TOL) -> bool:
    """Qubit coherence-breaking test on the affine pair.

    The x and y output components must vanish for every input, i.e. the
    pair's coherent rows (the first two rows of M and of the shift) are zero.
    """
    tol = _require_tol(tol)
    return float(np.abs(rep.transfer[rep.COHERENT_ROWS]).max()) <= tol


def is_dio(channel: KrausChannel, tol: float = DEFAULT_TOL):
    """Dephasing covariance Delta(Phi(X)) = Phi(Delta(X)) on matrix units.

    Concretely: Phi(|i><i|) must be diagonal and Phi(|i><j|), i != j, must
    have zero diagonal.
    """
    tol = _require_tol(tol)
    return _unit_verdict(channel.unit_maxima[1], tol)


@lru_cache(maxsize=None)
def _qc_inputs(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How the outputs of the Gell-Mann generators and the identity read off
    T: the unit pairs (|j><k|, |k><j|), j < k, the diagonal units' weights in
    each diagonal input, and the seeded weights of X, which picks the basis."""
    j, k = np.triu_indices(d, 1)
    diagonal = generalized_gell_mann(d)[d * d - d:].diagonal(axis1=1, axis2=2).real if d > 1 else []
    return (np.stack([j * d + k, k * d + j]), np.column_stack([*diagonal, np.ones(d)]),
            np.random.default_rng(d).normal(size=d * d))


def _max_commutator(x: np.ndarray, outputs: np.ndarray) -> float:
    """Largest |[x, y]| entry over the matrices y = outputs[:, :, b]."""
    xy = (x @ outputs.reshape(len(x), -1)).reshape(outputs.shape)
    xy -= x.T @ outputs
    return float(np.abs(xy).max())


def is_qc(channel: KrausChannel, tol: float = DEFAULT_TOL):
    """Quantum-classical test: the outputs Phi(G) of the Gell-Mann basis commute.

    The residual is the largest off-diagonal entry of V^dag Phi(G) V, V the
    eigenbasis of Phi(X): "yes" below tol / _QC_BAND, "no" above
    tol * _QC_BAND, and in between the exact test that every pair commutes
    within tol decides. ``max_commutator`` is the largest commutator entry of
    the worst-residual output with every output (of every pair, if exact).
    CBC implies QC: a "no" that `is_cbc` overturns is "yes", ``"implied_by": "cbc"``.
    """
    tol = _require_tol(tol)
    d, t = channel.dim, channel.transfer
    pairs, mix, weights = _qc_inputs(d)
    m, outputs = pairs.shape[1], np.empty((d * d, d * d), dtype=complex)  # [:, b] = Phi(G_b)
    above, below = t[:, pairs[0]], t[:, pairs[1]]  # Phi(|j><k|), Phi(|k><j|)
    np.add(above, below, out=outputs[:, :m])
    np.multiply(1j, np.subtract(below, above, out=below), out=outputs[:, m:2 * m])
    outputs[:, 2 * m:] = t[:, ::d + 1] @ mix
    outputs = outputs.reshape(d, d, d * d)
    _, v = np.linalg.eigh(outputs @ weights)
    off = np.abs(v.T @ (v.conj().T @ outputs.reshape(d, -1)).reshape(outputs.shape))
    off[np.arange(d), np.arange(d)] = 0.0
    per_output = off.max(axis=(0, 1))
    worst = int(np.argmax(per_output))
    residual = float(per_output[worst])
    if tol / _QC_BAND <= residual <= tol * _QC_BAND:
        commutator = max(_max_commutator(outputs[:, :, b], outputs[:, :, b + 1:])
                         for b in range(d * d - 1))
        ok = commutator <= tol
    else:
        commutator = _max_commutator(outputs[:, :, worst], outputs)
        ok = residual < tol
    witness = {"max_commutator": commutator, "residual": residual}
    if not ok and is_cbc(channel, tol)[0]:
        return True, {**witness, "implied_by": "cbc"}
    return ok, witness


def is_entanglement_breaking(channel: KrausChannel, tol: float = DEFAULT_TOL):
    """PPT test on the Choi state.

    Returns (verdict, witness) with verdict in {"yes", "no", "inconclusive"}
    and the minimum partial-transpose eigenvalue as witness. For d <= 2 PPT
    decides entanglement breaking; for d >= 3 it is only a no-certificate.
    """
    tol, d = _require_tol(tol), channel.dim
    min_eig = float(np.linalg.eigvalsh(_pt_choi(channel.transfer, d)).min())
    return ("no" if min_eig < -tol else _ppt_pass(d)), {"min_pt_eigenvalue": min_eig}


def _ppt_pass(d: int) -> str:
    """The EB verdict of a positive partial transpose: decisive only for d <= 2."""
    return "yes" if d <= 2 else "inconclusive"


@dataclass
class ClassificationReport:
    """Per-class verdicts ("yes" / "no" / "inconclusive") with evidence.

    Evidence holds the witness dictionaries of the individual predicates,
    plus which Kraus decomposition ("given", "canonical" or "via-cbc")
    certified the pattern classes, and ``"implied_by"`` where a verdict
    comes from an including class rather than the class's own test.
    """

    tolerance: float
    verdicts: dict[str, str] = field(default_factory=dict)
    evidence: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        evidence = {k: dict(v) for k, v in self.evidence.items()}
        return {"tolerance": self.tolerance, "verdicts": dict(self.verdicts), "evidence": evidence}


def _given_or_canonical(predicate, channel: KrausChannel, tol: float, cbc: bool,
                        refuted: bool = False):
    """Try a pattern predicate down one ladder of Kraus sets, the first to pass
    deciding: the given set; "via-cbc", the measure-and-prepare set of a CBC
    channel, when the class holds every CBC channel (`cbc`) and `is_cbc` says
    yes; the canonical set, unless the class is `refuted`. Returns the set that
    passed ("given", "via-cbc", "canonical" or None) and the witness of each set
    tried, by name."""
    witnesses = {}
    ok, witnesses["given"] = predicate(channel, tol)
    if ok:
        return "given", witnesses
    ok, witness = is_cbc(channel, tol) if cbc else (False, {})
    if ok:
        witnesses["via-cbc"] = {"decomposition": "via-cbc", **witness}
        return "via-cbc", witnesses
    if not refuted:
        ok, witnesses["canonical"] = predicate(channel.canonical, tol)
    return "canonical" if ok else None, witnesses


def classify(channel: KrausChannel, tol: float = DEFAULT_TOL) -> ClassificationReport:
    """Run every class predicate and derive the class chain from CBC.

    CBC and DIO are read off one pass over the matrix-unit images. A CBC
    channel is incoherent, SCBC, QC and entanglement breaking, so:

    * incoherent, SIO, SCBC: the `_given_or_canonical` ladder, via CBC for
      incoherent and SCBC. Incoherent is "no" without the canonical set when MIO
      fails by more than 2 d^2 tol, SIO when DIO does: a canonical set (n <= d^2)
      that passed would keep that residual within 2 d tol. SCBC takes the CBC
      verdict (SCBC = CBC at channel level); its ladder gives the evidence only.
    * QC: `is_qc`, which says "yes" when CBC does; EB is never "no" on a QC
      channel, and takes the passing PPT verdict instead.

    Where a verdict comes from an inclusion and not from the class's own
    test, its witness carries ``"implied_by"``, the including class. tol must
    be finite and > 0 (ParameterOutOfRangeError otherwise).
    """
    tol = _require_tol(tol)
    report, d = ClassificationReport(tolerance=tol), channel.dim
    off, dio = channel.unit_maxima
    bound = 2 * d * d * tol  # IO in MIO, SIO in DIO
    v, e = report.verdicts, report.evidence
    for name, predicate, via_cbc, refuted in (
        ("incoherent", is_incoherent_kraus, True, off.diagonal().max() > bound),
        ("sio", is_sio, False, dio.max() > bound),
        ("scbc", is_scbc, True, True),
    ):
        passed, witnesses = _given_or_canonical(predicate, channel, tol, via_cbc, refuted)
        e[name] = {**witnesses[passed or "given"], "decomposition": passed or "given"}
        v[name] = "yes" if passed else "no"
    for name, test in (("cbc", is_cbc), ("dio", is_dio), ("qc", is_qc)):
        ok, e[name] = test(channel, tol)
        v[name] = "yes" if ok else "no"
    v["entanglement_breaking"], e["entanglement_breaking"] = is_entanglement_breaking(channel, tol)

    v["scbc"] = v["cbc"]  # the inclusions: SCBC = CBC, and EB is never "no" on a QC channel
    if v["qc"] == "yes" and v["entanglement_breaking"] == "no":
        v["entanglement_breaking"] = _ppt_pass(d)
        e["entanglement_breaking"]["implied_by"] = "qc"
    return report
