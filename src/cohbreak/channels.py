"""Quantum channel representations and conversions.

Three interchangeable representations are supported:

* ``KrausChannel`` -- Kraus operators K_n with sum_n K_n^dag K_n = I, held
  as one read-only complex array of shape (n_ops, d, d); the channel acts as
  rho -> sum_n K_n rho K_n^dag.
* ``ChoiMatrix`` -- rho_Phi = (Phi otimes id)(|beta><beta|) with
  |beta> = (1/sqrt d) sum_i |ii>. Index order is output-factor-first:
  entry ((u, v), (r, s)) couples channel-output indices u, r with ancilla
  indices v, s, and a d^2-vector flattens as u * d + v (C order).
* ``QubitAffine`` -- the Bloch-ball action r -> M r + n of a qubit channel.

Choi matrices, affine pairs, class tests and channel powers are all read off
one cached d^2 x d^2 transfer matrix T = sum_n K_n otimes conj(K_n); the
canonical Kraus set of the Choi eigendecomposition is cached alike. Each
representation owns the split of its output rows into diagonal (D) and
coherent (O) ones: `_coherent_rows` for T, ``QubitAffine.COHERENT_ROWS`` (the
x and y rows) for the pair's transfer matrix R. The CBC and DIO residual of
every matrix unit, read off that split of T, is cached on the channel too, as
are the incoherence ladder's outcome per tol and Phi(I/d)'s off-diagonal
maximum; the constructor finds an all-diagonal stack's `kraus_diagonals`.

Composition goes through the Choi matrix of T_outer T_inner whenever the
product list would exceed d^2 operators, which always suffices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .coherence import _l1
from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    NotPOVMError,
    NotPSDError,
    NotTracePreservingError,
)
from .linalg import (PAULIS, TOL_HERM, TOL_PSD, _require_array, _require_int, _require_real,
                     _require_shape, hermiticity_defect, partial_trace, require_finite)
from .states import (_json_numbers, _wire_dim, _wire_form, complex_matrix_from_json,
                     complex_matrix_to_json, json_parser)

TOL_CPTP = 1e-9      # max-abs deviation of sum K^dag K from the identity
RANK_CUTOFF = 1e-10  # Choi eigenvalues below this are treated as zero
# Bytes a work array may hold: a chunk of states, or the T that `evolve` steps with.
_CHUNK_BYTES = 32 * 2**20


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A CPTP map given by Kraus operators; validated at construction.

    The operators, given as any iterable of d x d array-likes, are copied
    into kraus_ops: one read-only complex array of shape (n_ops, d, d).
    Channels failing the completeness check are rejected, never silently
    renormalized. kraus_diagonals holds the read-only (n_ops, d) diagonals
    of the operators if all are diagonal, else None.
    """

    dim: int
    kraus_ops: np.ndarray
    kraus_diagonals: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ops = list(self.kraus_ops)
        if not ops:
            raise NotTracePreservingError("a channel needs at least one Kraus operator")
        d = _require_int(self.dim, 1, "d", InvalidDimensionError)
        self._hold(np.array([_require_shape(k, (d, d), f"Kraus operator {n}")
                             for n, k in enumerate(ops)]))

    def _hold(self, stack: np.ndarray) -> None:
        """Keep a complex (n_ops, d, d) stack read-only if it is finite and complete; a diagonal
        one is checked with no (n_ops d, d)^dag (n_ops d, d) product."""
        object.__setattr__(self, "dim", stack.shape[1])
        stack.flags.writeable = False
        object.__setattr__(self, "kraus_ops", stack)
        require_finite(stack, "Kraus operators")
        diag = stack.diagonal(axis1=1, axis2=2)  # a read-only view
        diagonal = np.count_nonzero(stack) == np.count_nonzero(diag)
        object.__setattr__(self, "kraus_diagonals", diag if diagonal else None)
        if diagonal:  # sum K^dag K is diagonal, with entries sum_n |K_n,ii|^2
            defect = float(np.abs((np.abs(diag) ** 2).sum(axis=0) - 1.0).max())
        else:  # the rows of every K_n, in slices of 64 KiB or one K_n: no conjugate stack copy
            flat, step = stack.reshape(-1, self.dim), max(self.dim, 2**12 // self.dim)
            gram = flat[:step].conj().T @ flat[:step]
            for i in range(step, len(flat), step):
                gram += flat[i:i + step].conj().T @ flat[i:i + step]
            defect = float(np.abs(gram - np.eye(self.dim)).max())
        if defect > TOL_CPTP:
            raise NotTracePreservingError(
                f"sum K^dag K deviates from identity by {defect:.3e} (> {TOL_CPTP:.0e})"
            )

    @property
    def n_ops(self) -> int:
        return len(self.kraus_ops)

    @cached_property
    def transfer(self) -> np.ndarray:
        """Read-only `transfer_matrix`, built on first use (d^4 entries)."""
        t = transfer_matrix(self)
        t.flags.writeable = False
        return t

    @cached_property
    def unit_maxima(self) -> tuple[np.ndarray, np.ndarray]:
        """`_unit_image_maxima` of T, each unit's CBC and DIO residual, built on first use."""
        return _unit_image_maxima(self.transfer, self.dim)

    @cached_property
    def canonical(self) -> KrausChannel:
        """The canonical Kraus set of the Choi eigendecomposition, built on first use."""
        return choi_to_kraus(kraus_to_choi(self))

    @cached_property
    def _ladder(self) -> dict:
        """The incoherent-Kraus ladder's outcome by tol, as `dynamics` fills it in."""
        return {}

    @cached_property
    def _mixed_image(self) -> tuple[float, float]:
        """c_l1 and largest off-diagonal magnitude of Phi(I/d), built on first use."""
        mags = np.abs(apply(self, np.eye(self.dim, dtype=complex) / self.dim))
        return _l1(mags), float(mags.max())  # _l1 zeroes the diagonal of mags


def make_channel(kraus_ops, dim: int | None = None) -> KrausChannel:
    """Build a KrausChannel; dim, unless given, is the side of the first operator."""
    ops = list(kraus_ops)
    if dim is None and ops:
        ops[0] = _require_shape(ops[0], None, "Kraus operator 0")
        dim = len(ops[0])
    return KrausChannel(dim=dim, kraus_ops=ops)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi state of a channel: PSD with Tr_out rho_Phi = I/d."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        d = _require_int(self.dim, 1, "d", InvalidDimensionError)
        object.__setattr__(self, "dim", d)
        _require_array(self.matrix, (d * d, d * d), "Choi matrix")
        if hermiticity_defect(self.matrix) > TOL_HERM:
            raise NotPSDError("Choi matrix is not Hermitian within tolerance")
        w_min = float(np.linalg.eigvalsh(self.matrix).min())
        if w_min < -TOL_PSD:
            raise NotPSDError(f"Choi matrix has eigenvalue {w_min:.3e} < -{TOL_PSD:.0e}")
        reduced = partial_trace(self.matrix, d, keep=1)
        defect = float(np.abs(reduced - np.eye(d) / d).max())
        if defect > TOL_CPTP:
            raise NotTracePreservingError(
                f"Choi partial trace deviates from I/d by {defect:.3e}"
            )


@dataclass(frozen=True, eq=False)
class QubitAffine:
    """Bloch-ball action r -> m @ r + shift of a qubit channel; m and shift are real.

    Mapping the ball into itself is necessary but not sufficient for
    complete positivity; `affine_to_kraus` validates CPTP via the Choi
    matrix when an affine pair is promoted to a channel.
    """

    m: np.ndarray
    shift: np.ndarray
    COHERENT_ROWS = slice(1, 3)  # the x and y rows of `transfer`

    def __post_init__(self) -> None:
        _require_array(self.m, (3, 3), "m", float)
        _require_array(self.shift, (3,), "shift", float)

    @property
    def transfer(self) -> np.ndarray:
        """Pauli transfer matrix R = [[1, 0], [shift, m]] on (1, r); uncached: m may change."""
        r = np.eye(4)
        r[1:, 0] = self.shift
        r[1:, 1:] = self.m
        return r


def apply(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """sum_n K_n rho K_n^dag. Linear; rho may be any matrix of matching size."""
    return _apply(channel.kraus_ops, _require_shape(rho, (channel.dim, channel.dim), "rho"))


def _apply(k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_n K_n rho K_n^dag on a checked rho for a Kraus stack k, or on a (b, d, d) batch
    for k[:, None]."""
    return (k @ rho @ k.conj().swapaxes(-1, -2)).sum(axis=0)


def compose(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """Channel composition outer(inner(.)); Kraus list is all products.

    When the product list would exceed d^2 operators, the Kraus set is
    extracted instead from the Choi matrix of T_outer T_inner, so the
    products are never formed.
    """
    d = outer.dim
    if d != inner.dim:
        raise DimensionMismatchError(f"cannot compose dim {d} with dim {inner.dim}")
    if outer.n_ops * inner.n_ops > d**2:
        return choi_to_kraus(ChoiMatrix(d, _reshuffle(outer.transfer @ inner.transfer, d) / d))
    return make_channel((outer.kraus_ops[:, None] @ inner.kraus_ops).reshape(-1, d, d), dim=d)


def iterate(channel: KrausChannel, n: int) -> KrausChannel:
    """n-fold composition of a channel with itself, an integer n >= 1."""
    n = _require_int(n, 1, "n")
    return reduce(compose, [channel] * n)


def _reshuffle(a: np.ndarray, d: int) -> np.ndarray:
    """Swap the middle indices of (d, d, d, d): transfer matrix <-> d * Choi."""
    return a.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def kraus_to_choi(channel: KrausChannel) -> ChoiMatrix:
    """(Phi otimes id)(|beta><beta|) = (1/d) sum_n vec(K_n) vec(K_n)^dag."""
    d = channel.dim
    return ChoiMatrix(dim=d, matrix=_reshuffle(channel.transfer, d) / d)


def choi_to_kraus(choi: ChoiMatrix) -> KrausChannel:
    """Canonical Kraus operators from the Choi eigendecomposition.

    Eigenvalues below RANK_CUTOFF are dropped, so the result has at most
    d^2 operators; round-tripping through kraus_to_choi reproduces the
    Choi matrix to within the PSD tolerance.
    """
    d = choi.dim
    w, v = np.linalg.eigh(choi.matrix)  # PSD already checked by ChoiMatrix
    keep = w > RANK_CUTOFF
    return make_channel((np.sqrt(d * w[keep]) * v[:, keep]).T.reshape(-1, d, d), dim=d)


def transfer_matrix(channel: KrausChannel) -> np.ndarray:
    """T = sum_n K_n otimes conj(K_n), acting on row-major vec(rho).

    Phi(|i><j|)[u, v] = T[u*d + v, i*d + j]; built as a reshuffled product.
    """
    d = channel.dim
    vecs = channel.kraus_ops.reshape(-1, d * d)
    return _reshuffle(vecs.T @ vecs.conj(), d)


def _coherent_rows(d: int) -> np.ndarray:
    """Mask of T's coherent rows u*d + v, u != v (O); the rows u = v are diagonal (D)."""
    return ~np.eye(d, dtype=bool).ravel()


def _unit_image_maxima(t: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """CBC and DIO residuals of each image Phi(|i><j|), read-only (d, d) arrays over (i, j)
    read off a transfer matrix: the largest |O-row| entry of column i*d + j, and for i != j
    the largest |D-row| entry instead. Phi(|j><i|) is the adjoint of Phi(|i><j|), so both
    arrays are symmetrized: the tie is exact and the first largest unit has i <= j."""
    mags, coherent = np.abs(t), _coherent_rows(d)
    off = mags[coherent].max(axis=0, initial=0.0).reshape(d, d)  # O is empty at d = 1
    on = mags[~coherent].max(axis=0).reshape(d, d)
    np.fill_diagonal(on, off.diagonal())  # DIO needs Phi(|i><i|) diagonal
    maxima = np.stack([np.maximum(off, off.T), np.maximum(on, on.T)])
    maxima.flags.writeable = False
    return tuple(maxima)


# Columns vec(I), vec(sigma_x), vec(sigma_y), vec(sigma_z); P^dag P = 2 I.
_PAULI_VECS = np.stack([np.eye(2, dtype=complex), *PAULIS]).reshape(4, 4).T


def affine_from_kraus(channel: KrausChannel) -> QubitAffine:
    """M_jk = Tr[s_j Phi(s_k)]/2, n_j = Tr[s_j Phi(I)]/2: blocks of P^dag T P / 2."""
    if channel.dim != 2:
        raise DimensionMismatchError(
            f"affine representation is defined for qubits, got dim {channel.dim}"
        )
    r = (_PAULI_VECS.conj().T @ channel.transfer @ _PAULI_VECS).real / 2
    return QubitAffine(m=r[1:, 1:], shift=r[1:, 0])


def affine_to_kraus(rep: QubitAffine) -> KrausChannel:
    """Promote an affine pair to a Kraus channel via its Choi matrix.

    The pair's Pauli transfer matrix R gives T = P R P^dag / 2.
    Raises NotPSDError when (m, shift) is not completely positive.
    """
    t = _PAULI_VECS @ rep.transfer @ _PAULI_VECS.conj().T / 2
    return choi_to_kraus(ChoiMatrix(dim=2, matrix=_reshuffle(t, 2) / 2))


def affine_iterate(rep: QubitAffine, n: int) -> QubitAffine:
    """Pair of the n-th channel power, integer n >= 1, read off R^n: (M^n, sum_{k<n} M^k shift)."""
    n = _require_int(n, 1, "n")
    r = np.linalg.matrix_power(rep.transfer, n)
    return QubitAffine(m=r[1:, 1:], shift=r[1:, 0])


# --- constructors -----------------------------------------------------------


def identity_channel(d: int) -> KrausChannel:
    """The do-nothing channel on an integer dimension d >= 1."""
    d = _require_int(d, 1, "d", InvalidDimensionError)
    return make_channel([np.eye(d, dtype=complex)], dim=d)


def unitary_channel(u: np.ndarray) -> KrausChannel:
    """Channel rho -> U rho U^dag for a unitary U."""
    return make_channel([u])


def dephasing_channel(d: int) -> KrausChannel:
    """Complete dephasing: rho -> sum_i <i|rho|i> |i><i|, for an integer d >= 1."""
    d = _require_int(d, 1, "d", InvalidDimensionError)
    ops = np.zeros((d, d, d), dtype=complex)
    ops[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    return make_channel(ops, dim=d)


def partial_dephasing_channel(d: int, q: float) -> KrausChannel:
    """rho -> q rho + (1 - q) Delta(rho): every coherence times q; integer d >= 1, q in [0, 1]."""
    d = _require_int(d, 1, "d", InvalidDimensionError)
    q = _require_real(q, "q", 0.0, 1.0)
    ops = np.zeros((d + 1, d, d), dtype=complex)
    ops[0] = np.sqrt(q) * np.eye(d)
    ops[np.arange(1, d + 1), np.arange(d), np.arange(d)] = np.sqrt(1.0 - q)
    return make_channel(ops[np.abs(ops).max(axis=(1, 2)) > 0.0], dim=d)


def gad_channel(p: float, t: float) -> KrausChannel:
    """Generalized amplitude damping on a qubit, for reals p and t in [0, 1].

    Populations relax toward the fixed point diag(t, 1-t) while coherences
    shrink by sqrt(p) per application; the Bloch action is
    diag(sqrt p, sqrt p, p) with shift (0, 0, (1-p)(2t-1)). Iterating n
    times gives the same family member with p replaced by p^n.
    """
    p = _require_real(p, "p", 0.0, 1.0)
    t = _require_real(t, "t", 0.0, 1.0)
    sp = np.sqrt(p)
    sg = np.sqrt(1.0 - p)
    ops = [
        np.sqrt(t) * np.array([[1.0, 0.0], [0.0, sp]], dtype=complex),
        np.sqrt(t) * np.array([[0.0, sg], [0.0, 0.0]], dtype=complex),
        np.sqrt(1.0 - t) * np.array([[sp, 0.0], [0.0, 1.0]], dtype=complex),
        np.sqrt(1.0 - t) * np.array([[0.0, 0.0], [sg, 0.0]], dtype=complex),
    ]
    return make_channel([k for k in ops if np.abs(k).max() > 0.0], dim=2)


def y_to_x_channel(alpha: float) -> KrausChannel:
    """Qubit channel with Bloch action r -> (alpha r_y, 0, 0), for a real |alpha| <= 1.

    Its square is the totally depolarizing map to I/2, so two applications
    destroy all coherence even though one does not. The Kraus set below is
    an explicitly incoherent decomposition (each operator is diagonal or
    antidiagonal), which the canonical Choi-extracted set is not.
    """
    alpha = _require_real(alpha, "alpha", -1.0, 1.0)
    w_plus = (1.0 + alpha) / 4.0
    w_minus = (1.0 - alpha) / 4.0
    ops = [
        np.sqrt(w_plus) * np.array([[1.0, 0.0], [0.0, -1.0j]]),
        np.sqrt(w_minus) * np.array([[1.0, 0.0], [0.0, 1.0j]]),
        np.sqrt(w_plus) * np.array([[0.0, -1.0j], [1.0, 0.0]]),
        np.sqrt(w_minus) * np.array([[0.0, 1.0j], [1.0, 0.0]]),
    ]
    return make_channel([k for k in ops if np.abs(k).max() > 0.0], dim=2)


def cbc_from_povm(effects) -> KrausChannel:
    """Measure-and-prepare channel rho -> sum_i |i><i| Tr(rho F_i).

    effects must be at most d PSD matrices summing to the identity, checked in that
    order. The Kraus set is K_ik = sqrt(lambda_ik) |i><phi_ik| from one eigh of each
    effect, lambda_ik > RANK_CUTOFF, so every Kraus branch outputs a diagonal state.
    """
    effects = [_require_shape(f, ..., f"effect {i}") for i, f in enumerate(effects)]
    if not effects:
        raise NotPOVMError("need at least one effect")
    d = effects[0].shape[0]
    if len(effects) > d:
        raise NotPOVMError(f"{len(effects)} effects cannot prepare distinct basis states "
                           f"in dim {d}")
    total = np.zeros((d, d), dtype=complex)
    ops = []
    for i, f in enumerate(effects):
        if f.shape != (d, d):
            raise NotPOVMError(f"effect {i} has shape {f.shape}, expected {(d, d)}")
        require_finite(f, f"effect {i}")
        if hermiticity_defect(f) > TOL_HERM:
            raise NotPOVMError(f"effect {i} is not Hermitian within tolerance")
        w, v = np.linalg.eigh(f)
        if w.min() < -TOL_PSD:
            raise NotPOVMError(f"effect {i} has eigenvalue {w.min():.3e}")
        keep = w > RANK_CUTOFF
        k = np.zeros((int(keep.sum()), d, d), dtype=complex)
        # conj(v) before scaling: conjugating the product would turn +0j parts into -0j
        k[:, i] = np.sqrt(w[keep])[:, None] * v[:, keep].T.conj()
        ops.extend(k)
        total += f
    defect = float(np.abs(total - np.eye(d)).max())
    if defect > TOL_CPTP:
        raise NotPOVMError(f"effects sum deviates from identity by {defect:.3e}")
    return make_channel(ops, dim=d)


def kron_channel(first: KrausChannel, second: KrausChannel) -> KrausChannel:
    """Tensor product channel acting on dim first.dim * second.dim."""
    d = first.dim * second.dim  # [m, n, i, k, j, l] = a_m[i, j] b_n[k, l]
    ops = first.kraus_ops[:, None, :, None, :, None] * second.kraus_ops[:, None, :, None, :]
    return make_channel(ops.reshape(-1, d, d), dim=d)


# --- random instances (reproducible test corpora) ---------------------------


def _haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar isometry C^cols -> C^rows, rows >= cols: the thin QR of a Ginibre draw, with
    the phases of R's diagonal moved into Q (Mezzadri, Notices AMS 54, 592 (2007))."""
    z = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix, for an integer d >= 1."""
    d = _require_int(d, 1, "d", InvalidDimensionError)
    return _haar_isometry(d, d, rng)


def random_channel(d: int, kraus_rank: int, rng: np.random.Generator) -> KrausChannel:
    """Haar-random CPTP channel from a Haar isometry C^d -> C^(d kraus_rank), integers >= 1."""
    d = _require_int(d, 1, "d", InvalidDimensionError)
    kraus_rank = _require_int(kraus_rank, 1, "kraus_rank")
    return make_channel(_haar_isometry(d * kraus_rank, d, rng).reshape(kraus_rank, d, d), dim=d)


def random_povm(d: int, n_effects: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random POVM of n_effects >= 1 normalized Wishart blocks, for an integer d >= 1."""
    d = _require_int(d, 1, "d", InvalidDimensionError)
    n_effects = _require_int(n_effects, 1, "n_effects")
    blocks = []
    for _ in range(n_effects):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        blocks.append(g @ g.conj().T)
    total = sum(blocks)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return [inv_sqrt @ b @ inv_sqrt for b in blocks]


def random_incoherent_channel(d: int, rng: np.random.Generator) -> KrausChannel:
    """Random channel with an explicitly incoherent Kraus pattern.

    Convex mixture of three diagonal-unitary, permutation, partial-dephasing
    or measure-and-prepare pieces; every Kraus operator has at most one
    nonzero entry per column, so the mixture is incoherent by construction.
    d is an integer >= 1.
    """
    d = _require_int(d, 1, "d", InvalidDimensionError)
    weights = rng.dirichlet(np.ones(3))
    ops: list[np.ndarray] = []
    for w in weights:
        kind = rng.integers(0, 4)
        if kind == 0:
            u = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=d)))
            part = [u]
        elif kind == 1:
            perm = rng.permutation(d)
            u = np.zeros((d, d), dtype=complex)
            u[perm, np.arange(d)] = 1.0
            part = [u]
        elif kind == 2:
            part = partial_dephasing_channel(d, float(rng.uniform())).kraus_ops
        else:
            part = cbc_from_povm(random_povm(d, d, rng)).kraus_ops
        ops.extend(np.sqrt(w) * k for k in part)
    return make_channel(ops, dim=d)


# --- JSON wire format --------------------------------------------------------
#
# {"dim": d, "kraus": [matrix, ...]}          explicit Kraus operators
# {"dim": d, "sparse": [[[i, j, re, im], ...], ...]}
#                                             one entry list per Kraus operator
# {"affine": {"m": [[...]], "n": [...]}}      qubit affine pair
# {"gad": {"p": p, "t": t}}                   generalized amplitude damping
# {"povm": [matrix, ...]}                     measure-and-prepare channel
#
# Exactly one of the kraus/sparse/affine/gad/povm keys must be present;
# complex entries are [re, im] pairs. A sparse operator lists its entries
# other than +0 (so signed zeros survive) and an all-zero operator is [].
# channel_to_json writes the sparse form when its 4 numbers per entry are
# fewer than the dense form's 2 per entry of every operator.

_CHANNEL_KEYS = ("kraus", "sparse", "affine", "gad", "povm")


def channel_to_json(channel: KrausChannel) -> dict:
    d, stack = channel.dim, channel.kraus_ops
    written = (stack != 0) | np.signbit(stack.real) | np.signbit(stack.imag)
    if 4 * np.count_nonzero(written) >= 2 * stack.size:
        return {"dim": d, "kraus": [complex_matrix_to_json(k) for k in stack]}
    sparse = []
    for k, mask in zip(stack, written):
        i, j = np.nonzero(mask)
        z = k[i, j]
        sparse.append([list(e) for e in zip(i.tolist(), j.tolist(),
                                            z.real.tolist(), z.imag.tolist())])
    return {"dim": d, "sparse": sparse}


def _sparse_kraus(d: int, ops) -> np.ndarray:
    """Dense (n_ops, d, d) Kraus array from the sparse form. Entries are read in file
    order, each checked for shape, then indices, then repeats, and the first fault met is
    raised. The array is allocated only after every column has an entry (else the channel
    cannot be trace preserving)."""
    if not isinstance(ops, list) or not all(isinstance(op, list) for op in ops):
        raise ValueError('"sparse" must be a list of entry lists, one per Kraus operator')
    values = {}  # (operator, i, j) -> value, in file order
    for n, op in enumerate(ops):
        for entry in op:
            if not isinstance(entry, list) or len(entry) != 4:
                raise ValueError(f"operator {n}: entry {entry!r} is not [i, j, re, im]")
            i, j, re, im = entry
            if not all(type(x) is int and 0 <= x < d for x in (i, j)):  # no bools
                raise ValueError(f"operator {n}: index ({i!r}, {j!r}) is not in [0, {d})")
            if (n, i, j) in values:
                raise ValueError(f"operator {n}: entry ({i}, {j}) appears twice")
            values[n, i, j] = complex(re, im)
    columns = {j for _, _, j in values}
    if len(columns) < d:
        missing = next(j for j in range(d) if j not in columns)
        raise ValueError(f"column {missing} has no entry, so the channel is not "
                         "trace preserving")
    stack = np.zeros((len(ops), d, d), dtype=complex)
    stack[tuple(zip(*values))] = list(values.values())
    return stack


def _dense_kraus(ops) -> np.ndarray:
    """(n_ops, d, d) Kraus array from the dense form, each operator parsed straight into it.
    Ops that make no such stack go to `make_channel`, which raises their first fault."""
    ops, stack = list(ops), None
    for n, op in enumerate(ops):
        k = complex_matrix_from_json(op)
        if n == 0 and k.ndim == 2 and k.shape[0] == k.shape[1] > 0:
            stack = np.empty((len(ops), *k.shape), dtype=complex)
        if stack is None or k.shape != stack.shape[1:]:
            return make_channel([complex_matrix_from_json(op) for op in ops]).kraus_ops
        stack[n] = k
        del k  # the next operator is parsed beside the stack alone
    return make_channel([]).kraus_ops if stack is None else stack


@json_parser
def channel_from_json(obj: dict) -> KrausChannel:
    """Parse the JSON channel format, dispatching on the single form key."""
    key = _wire_form(obj, _CHANNEL_KEYS, "channel")
    if key in ("sparse", "kraus"):  # the parser's own stack, held uncopied
        if key == "sparse" and _wire_dim(obj) is None:
            raise ValueError('the sparse form needs "dim"')
        stack = _sparse_kraus(obj["dim"], obj[key]) if key == "sparse" else _dense_kraus(obj[key])
        channel = object.__new__(KrausChannel)
        channel._hold(stack)
        _wire_dim(obj, channel.dim)  # the dense form's "dim" is checked after its channel
        return channel
    if key == "affine":
        m, n = (np.asarray(v, dtype=float) for v in _json_numbers(obj[key], ("m", "n"), key))
        return affine_to_kraus(QubitAffine(m=m, shift=n))
    if key == "gad":
        return gad_channel(*_json_numbers(obj[key], ("p", "t"), key))
    effects = [complex_matrix_from_json(f) for f in obj["povm"]]
    return cbc_from_povm(effects)
