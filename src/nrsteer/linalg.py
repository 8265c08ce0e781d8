"""Dense complex linear algebra on and around the unitary group.

Everything here works on plain complex ``numpy`` arrays.  Matrices are
validated at API boundaries (:func:`check_unitary`, :func:`check_hermitian`)
instead of being wrapped in dedicated classes, once; the steering and
tracking entry points replace a near-unitary input there by its polar factor
(:func:`nearest_unitary`).  Callers that already hold a checked unitary use
the unchecked ``_unitary_eig`` of one matrix, whose result
(:class:`EigenSystem`) is a frozen dataclass, or its array core
``_unitary_eig_stack``, which decomposes a (K, d, d) stack in one batched
solve into unsorted arrays with the eigensolver's eigenvector phases.

The unitary eigendecomposition starts from a symmetric eigenproblem: a
unitary U is normal, so it commutes with its Hermitian part A = (U + U†)/2
and every eigenspace of A is invariant under U.  Eigenvalues e^{±iθ} mirrored
across the real axis share the A-eigenvalue cos θ, so the eigenvectors of A
for nearby eigenvalues mix by about eps/gap.  A run of A-eigenvalues closer
than ``A_RUN_GAP`` is therefore resolved together, by the complex Schur form
of the compression of U onto its span, which is diagonal for a normal matrix
and backward stable however close the eigenvalues in the run lie.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

UNITARITY_TOL = 1e-10        # construction-time unitarity check
RELAXED_UNITARITY_TOL = 1e-4  # entry gate of nearest_unitary, for low-precision text
HERM_TOL = 1e-12             # relative Hermiticity check
CLUSTER_TOL = 1e-8           # unit-circle distance that merges eigenvalues
BRANCH_TOL = 1e-8            # distance to -1 that flags the log branch cut
A_RUN_GAP = 1e-3             # A-eigenvalue spacing below which unitary_eig uses a Schur form
STACK_BYTES = 1 << 17        # bytes of matrix stack per batched eigensolve: 8 matrices at d = 32

__all__ = [
    "UNITARITY_TOL",
    "RELAXED_UNITARITY_TOL",
    "HERM_TOL",
    "CLUSTER_TOL",
    "BRANCH_TOL",
    "BranchCutWarning",
    "EigendecompositionError",
    "EigenSystem",
    "as_complex_matrix",
    "check_unitary",
    "check_hermitian",
    "nearest_unitary",
    "unitary_eig",
    "principal_args",
    "schatten_inf",
    "principal_log_unitary",
    "unitary_exp_herm",
    "geodesic_point",
]


class BranchCutWarning(UserWarning):
    """An eigenvalue sits (numerically) on the logarithm branch cut at -1."""


class EigendecompositionError(Exception):
    """An eigensolver failed: ``eigh``, the Schur form of a close run (``zgees``), or a LAPACK
    call of the support sweep (``zhetrd``, ``dstemr``, ``zunmqr``) or of the t* search
    (``dlasd4``)."""


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a square, finite, complex 2-d array."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("empty matrix")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix contains non-finite entries")
    return m


def check_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> np.ndarray:
    """Validate ``‖U†U − 1‖∞ ≤ tol`` and return U as a complex array."""
    u = as_complex_matrix(u)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN defect fails below
        defect = u.conj().T @ u - np.eye(u.shape[0])
    norm = schatten_inf(defect)
    if not norm <= tol:
        raise ValueError(f"matrix is not unitary: defect {norm:.3e} > tol {tol:.1e}")
    return u


def nearest_unitary(a: np.ndarray) -> np.ndarray:
    """Polar factor of A, the unitary nearest to it in every unitarily invariant norm.

    A is checked within ``RELAXED_UNITARITY_TOL``; two Newton–Schulz steps
    X ← X·(3 − X†X)/2 then reach the polar factor to rounding, each taking a
    defect ε to about 3ε²/4 (Fan & Hoffman, Proc. AMS 6 (1955); Higham,
    Functions of Matrices, SIAM 2008, ch. 8).
    """
    x = check_unitary(a, tol=RELAXED_UNITARITY_TOL)
    eye = np.eye(x.shape[0])
    for _ in range(2):
        x = x @ (3 * eye - x.conj().T @ x) / 2
    return x


def check_hermitian(h: np.ndarray) -> np.ndarray:
    """Validate ``‖H − H†‖∞ ≤ HERM_TOL·max(1, ‖H‖∞)`` and return H."""
    h = as_complex_matrix(h)
    scale = max(1.0, float(np.abs(h).max()))
    defect = schatten_inf(h - h.conj().T)
    if not defect <= HERM_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
    return h


def _herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, which the caller has checked or built Hermitian.

    Returns ``(w, x)`` with real eigenvalues ``w`` ascending and unitary ``x``
    whose columns are the eigenvectors, so that ``h = x @ diag(w) @ x†``.
    A (K, d, d) stack gives (K, d) and (K, d, d).
    """
    try:
        w, x = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"symmetric eigensolver did not converge: {exc}") from exc
    return w, x


def _stack_slices(count: int, matrix_bytes: int) -> list[slice]:
    """Consecutive slices of ``range(count)``, each a stack of at most ``STACK_BYTES``.

    Each matrix takes ``matrix_bytes``, and each slice holds at least one,
    so memory per batched eigensolve stays bounded however many matrices a
    caller has.  ``STACK_BYTES`` is read at call time, not bound at import.
    """
    step = max(1, STACK_BYTES // matrix_bytes)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def schatten_inf(a: np.ndarray) -> float:
    """Operator norm: the largest singular value of ``a``, from the eigenvalues of A†A.

    ``a`` is first scaled by the power of two at or above its largest entry
    modulus, so that A†A cannot overflow; the scaling is exact, so it changes
    no rounding.  A largest modulus of inf or NaN is returned as the norm.
    """
    a = np.asarray(a, dtype=np.complex128)
    peak = float(np.abs(a).max()) if a.size else 0.0
    if not 0 < peak < np.inf:
        return peak
    e = min(max(math.frexp(peak)[1], -1021), 1023)  # 2.0**±e stays a float
    a = a * 2.0**-e
    gram = a.conj().T @ a
    gram = (gram + gram.conj().T) / 2
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0))) * 2.0**e


@dataclass(frozen=True)
class EigenSystem:
    """Counterclockwise-ordered eigendecomposition of a normal (unitary) matrix.

    ``values[j]`` pairs with column ``vectors[:, j]``.  The starting label is
    the eigenvalue with smallest principal argument in (−π, π]; subsequent
    arguments are non-decreasing.  ``groups`` partitions the indices into
    clusters of numerically coincident eigenvalues.
    """

    values: np.ndarray
    vectors: np.ndarray
    groups: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @functools.cached_property
    def representatives(self) -> np.ndarray:
        """One eigenvalue per cluster (normalized cluster mean), ccw order; computed once."""
        reps = []
        for g in self.groups:
            if len(g) == 1:
                reps.append(self.values[g[0]])
            else:
                m = self.values[list(g)].mean()
                reps.append(m / abs(m) if abs(m) > 0 else self.values[g[0]])
        return np.array(reps)


def _cluster_on_circle(values: np.ndarray, tol: float) -> list[list[int]]:
    """Group indices of ccw-sorted eigenvalues lying within ``tol`` (chordal)."""
    d = values.shape[0]
    groups: list[list[int]] = [[0]]
    for j in range(1, d):
        if abs(values[j] - values[groups[-1][-1]]) <= tol:
            groups[-1].append(j)
        else:
            groups.append([j])
    # the circle wraps: merge first and last groups if they touch across ±π
    if len(groups) > 1 and abs(values[groups[0][0]] - values[groups[-1][-1]]) <= tol:
        groups[0] = groups.pop() + groups[0]
    return groups


def unitary_eig(u: np.ndarray, unitarity_tol: float = UNITARITY_TOL) -> EigenSystem:
    """Spectral decomposition of a unitary matrix, ccw-ordered.

    Checks unitarity within ``unitarity_tol``, then diagonalizes
    A = (U + U†)/2 by a symmetric eigensolve, then resolves each run of
    A-eigenvalues spaced by at most ``A_RUN_GAP`` by the complex Schur form of
    the compression of U onto the run's eigenvectors; each eigenvalue is the
    Rayleigh quotient λ = ⟨x|U|x⟩ of its eigenvector.
    """
    return _unitary_eig(check_unitary(u, tol=unitarity_tol))


def _unitary_eig(u: np.ndarray) -> EigenSystem:
    """:func:`unitary_eig` of one matrix, without the unitarity check.

    For callers that hold a checked U, or a matrix built from checked ones
    (such as U·V(t) or U†V).  Each eigenvector is rotated so that its
    largest-modulus entry, at least 1/√d in modulus, is real positive.
    """
    (values,), (x,) = _unitary_eig_stack(u[None])
    pivot = x[np.argmax(np.abs(x), axis=0), np.arange(len(values))]
    vecs = x * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag))

    # ccw order: ascending principal argument; only exact ties need the
    # eigenvector entries (Re x₀, Im x₀, Re x₁, …) to break them
    args = principal_args(values)
    order = np.argsort(args)
    if (np.diff(args[order]) == 0).any():
        entries = np.stack([vecs.real, vecs.imag], axis=1).reshape(-1, len(values))
        order = np.lexsort(np.vstack([entries[::-1], args]))  # last key is primary
    values = values[order]
    singletons = [[j] for j in range(len(values))]
    groups = _cluster_on_circle(values, CLUSTER_TOL) if _has_near_pair(values) else singletons
    return EigenSystem(values=values, vectors=vecs[:, order], groups=tuple(map(tuple, groups)))


def _unitary_eig_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a (K, d, d) stack of checked unitaries, in one batched solve.

    Returns ``(values, x)``, shaped (K, d) and (K, d, d), unsorted and with
    the eigensolver's column phases; ``values[k, j]`` = x†U x for the column
    x = ``x[k, :, j]``.  Each matrix gets the values it gets alone.
    """
    adjoint = np.conj(np.swapaxes(stack, -1, -2))
    a_vals, x = _herm_eig((stack + adjoint) / 2)

    # resolve each run of close A-eigenvalues with the Schur form of U on its span
    close = a_vals[:, 1:] - a_vals[:, :-1] <= A_RUN_GAP
    for k in np.flatnonzero(close.any(axis=1)):
        _schur_runs(stack[k], x[k], close[k])
    # np.multiply, not `*`: numpy reuses a large temporary operand of `*` in
    # place, which rounds complex products differently, so a stack's values
    # would not match those of its matrices decomposed alone
    return np.multiply(x.conj(), stack @ x).sum(1), x


def _has_near_pair(values: np.ndarray) -> np.ndarray:
    """Per row of ccw-sorted values: any chordal neighbours within ``CLUSTER_TOL``, across ±π."""
    return (np.abs(values - np.roll(values, 1, axis=-1)) <= CLUSTER_TOL).any(axis=-1)


def _schur_runs(u: np.ndarray, x: np.ndarray, close: np.ndarray) -> None:
    """Rotate each run of ``close``-linked columns of ``x`` to the Schur vectors of U on its span.

    ``x`` holds the A-eigenvectors of U and is updated in place; ``close[j]``
    links columns j and j + 1.
    """
    d = x.shape[1]
    i = 0
    while i < d:
        j = i
        while j + 1 < d and close[j]:
            j += 1
        if j > i:
            block = x[:, i : j + 1]
            x[:, i : j + 1] = block @ _schur_vectors(block.conj().T @ u @ block)
        i = j + 1


@functools.lru_cache(maxsize=64)
def _gees_lwork(k: int) -> int:
    """Optimal ``zgees`` workspace for a k×k matrix: LAPACK's query, as ``scipy.linalg.schur`` makes it."""
    return int(lapack.zgees(lambda x: None, np.zeros((k, k), complex), lwork=-1)[-2][0].real)


def _schur_vectors(m: np.ndarray) -> np.ndarray:
    """Unitary Z of the complex Schur form m = Z·T·Z†, from LAPACK ``zgees`` called directly."""
    *_, z, _, info = lapack.zgees(lambda x: None, m, lwork=_gees_lwork(len(m)))
    if info != 0:
        raise EigendecompositionError(f"LAPACK zgees failed with info {info}")
    return z


def principal_args(values: np.ndarray) -> np.ndarray:
    """Principal arguments in (−π, π]."""
    args = np.angle(values)
    return np.where(args <= -np.pi, args + 2 * np.pi, args)


def _log_args(values: np.ndarray) -> np.ndarray:
    """Principal arguments for a logarithm; warns within ``BRANCH_TOL`` of the cut at −1."""
    if np.any(np.abs(values + 1.0) < BRANCH_TOL):
        warnings.warn(
            "eigenvalue at or near -1: the principal logarithm is discontinuous "
            "there; proceeding with argument +pi",
            BranchCutWarning,
            stacklevel=3,
        )
    return principal_args(values)


def principal_log_unitary(u: np.ndarray) -> np.ndarray:
    """Hermitian H with eigenvalues in (−π, π] such that exp(iH) = U.

    Eigenvalues at −1 get argument +π and raise :class:`BranchCutWarning`.
    """
    system = unitary_eig(u)
    theta = _log_args(system.values)
    h = (system.vectors * theta) @ system.vectors.conj().T
    return (h + h.conj().T) / 2


def unitary_exp_herm(h: np.ndarray) -> np.ndarray:
    """exp(iH) for Hermitian H, via the symmetric eigendecomposition."""
    w, x = _herm_eig(check_hermitian(h))
    return (x * np.exp(1j * w)) @ x.conj().T


def geodesic_point(u: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Point U·exp(t·Log(U†V)) on the shortest unitary-group curve from U to V."""
    u = check_unitary(u)
    v = check_unitary(v)
    system = _unitary_eig(u.conj().T @ v)
    theta = _log_args(system.values)
    x = system.vectors
    return u @ ((x * np.exp(1j * t * theta)) @ x.conj().T)

