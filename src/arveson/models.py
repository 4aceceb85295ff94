"""Compressed shift models attached to polynomial ideals.

Two constructions. ``monomial_model`` is exact: for a monomial ideal with
finite complement the coinvariant subspace is spanned by the surviving
normalized monomials, and the compressed shifts are weighted truncated
shifts whose entries are square roots of rational numbers.

``jet_model`` handles finitely many points with local ideal data: the
model space is spanned by derivative-kernel combinations dual to each
local quotient. That span is invariant under every adjoint shift, and both
the shift action and the Gram matrix of the span are finite closed forms,
so the compressions are exact for every point of the open ball.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fockspace, multiindex as mi, numerics, polyideal, tuples
from .errors import InputError, NumericalError, ValidationError

GRAM_FLOOR_RTOL = 1e-12


@dataclass(frozen=True)
class ModelTuple:
    """A compressed shift tuple together with its model bookkeeping.

    ``kind`` is "monomial" or "jet". For monomial models ``basis_indices``
    lists the surviving monomial exponents (graded lex). For jet models
    ``points`` and ``local_dims`` describe which derivative functionals
    built the space.
    """

    kind: str
    tuple: tuples.CommutingTuple
    cyclic: np.ndarray
    basis_indices: tuple = ()
    points: tuple = ()
    local_dims: tuple = ()
    orders: tuple = ()

    @property
    def d(self) -> int:
        return self.tuple.d

    @property
    def dim(self) -> int:
        return self.tuple.n


def _monomial_complement(generators: Sequence, d: int) -> list:
    gens = [mi.as_index(g) for g in generators]
    for g in gens:
        if len(g) != d:
            raise InputError(f"generator {g} has length {len(g)}, expected {d}")
    if any(mi.degree(g) == 0 for g in gens):
        raise InputError("the ideal contains a unit; the model space is zero")
    # finite complement iff every variable appears as a pure power generator
    box = []
    for j in range(d):
        powers = [g[j] for g in gens if all(g[i] == 0 for i in range(d) if i != j)]
        powers = [p for p in powers if p > 0]
        if not powers:
            raise InputError(
                f"no pure power of variable {j + 1} among the generators; "
                f"the quotient is infinite dimensional"
            )
        box.append(min(powers))
    max_deg = sum(p - 1 for p in box)
    cand = mi.enumerate_indices(d, max_deg)
    return [beta for beta, hit in zip(cand, _in_monomial_ideal(cand, gens)) if not hit]


def _in_monomial_ideal(indices: Sequence, gens: Sequence) -> np.ndarray:
    """Boolean mask over ``indices``: whether x^beta lies in the ideal
    generated by the monomials x^g, i.e. some g divides beta."""
    B = np.array(indices, dtype=np.int64)
    G = np.array(gens, dtype=np.int64)
    return (B[:, None, :] >= G[None, :, :]).all(axis=2).any(axis=1)


def monomial_model(generators: Sequence, d: int) -> ModelTuple:
    """Compression of the shift tuple to the complement of a monomial ideal.

    Z_j maps the normalized monomial at beta to the ratio
    ||x^(beta+e_j)|| / ||x^beta|| times the one at beta+e_j, or to zero if
    the shifted monomial falls in the ideal. With ||x^beta||^2 =
    beta!/|beta|! the squared ratio is (beta_j + 1) / (|beta| + 1), whose
    correctly rounded quotient of integers is the double of that rational;
    entries are exact up to one floating square root.
    """
    comp = _monomial_complement(generators, d)
    pos = {beta: i for i, beta in enumerate(comp)}
    m = len(comp)
    mats = []
    for j in range(d):
        Z = np.zeros((m, m), dtype=complex)
        for beta, col in pos.items():
            row = pos.get(beta[:j] + (beta[j] + 1,) + beta[j + 1 :])
            if row is not None:
                Z[row, col] = math.sqrt((beta[j] + 1) / (sum(beta) + 1))
        mats.append(Z)
    cyclic = np.zeros(m, dtype=complex)
    cyclic[pos[(0,) * d]] = 1.0
    return ModelTuple(
        kind="monomial",
        tuple=tuples.validate(mats),
        cyclic=cyclic,
        basis_indices=tuple(comp),
    )


def gauge_unitary(model: ModelTuple, t: float) -> np.ndarray:
    """Diagonal unitary W_t with W_t Z_j W_t* = e^{it} Z_j and W_t 1 = 1.

    This is the compression of composition with z -> e^{it} z, which is
    diagonal on monomials with phase e^{i |beta| t}. Only homogeneous
    (here: monomial) models admit it.
    """
    if model.kind != "monomial":
        raise InputError("gauge unitaries are only defined for monomial models")
    phases = [cmath.exp(1j * t * mi.degree(beta)) for beta in model.basis_indices]
    return np.diag(phases).astype(complex)


def _local_dual_basis(
    ideal: polyideal.PolyIdeal, z: np.ndarray, kappa: int, tol: float
) -> np.ndarray:
    """Jet-coefficient vectors spanning the annihilator of the local ideal.

    Rows of the constraint matrix are order-kappa jets of q*g; a dual
    vector c defines the functional p -> sum_beta c_beta (d^beta p)(z)/beta!
    which kills the ideal, and these functionals span the dual of the
    local quotient because m_z^(kappa+1) lies inside the ideal.
    """
    local = polyideal.localize(ideal, z, kappa)
    rows = local.basis.conj().T
    if rows.shape[0] == 0:
        return np.eye(len(local.jet_basis), dtype=complex)
    # c kills the image iff c^T basis = 0, i.e. conj(c) is orthogonal to it
    return np.conj(numerics.nullspace(rows, rtol=tol))


def jet_model(
    points: Sequence[Sequence[complex]],
    local_ideals: Sequence[polyideal.PolyIdeal],
    tol: float = numerics.DEFAULT_TOL,
) -> ModelTuple:
    """Model tuple for finitely many points with prescribed local ideals.

    A dual vector c at z (a column of the local dual basis C) is the
    functional p -> sum_beta c_beta (d^beta p)(z) / beta!, represented by
    v_c = sum_beta conj(c_beta) / beta! K_{z,beta}. The Gram matrix of these
    vectors comes from ``fockspace.kernel_gram``, and the adjoint shifts act
    on them by M_j^* v_c = conj(z_j) v_c + v_{S_j c} with
    (S_j c)_gamma = c_{gamma+e_j}. Since the columns of C span the local
    dual, S_j C = C C^H S_j C (a gate, to ``tol``), so M_j^* W = W A_j with
    A_j = conj(z_j) I + conj(C^H S_j C) on each point's block. In the
    orthonormal basis W G^(-1/2) of the span the compressions are
    Z_j = G^(-1/2) A_j^* G G^(-1/2), and the constant function projects to
    G^(-1/2) applied to the constant terms c_0.
    """
    pts = fockspace._as_points(points)
    d = pts[0].size
    if len(local_ideals) != len(pts):
        raise InputError(
            f"{len(pts)} points but {len(local_ideals)} local ideals"
        )

    orders = []
    duals = []
    for z, ideal in zip(pts, local_ideals):
        if ideal.d != d:
            raise InputError("local ideal dimension mismatch")
        kappa = polyideal.polynomial_order(ideal, z, tol=tol)
        C = _local_dual_basis(ideal, z, kappa, tol)
        if C.shape[1] == 0:
            raise ValidationError(
                f"local ideal at {tuple(z.tolist())} has a zero quotient"
            )
        orders.append(kappa)
        duals.append(C)

    # every point's jet basis is a prefix of the one for the largest order
    jets = mi.enumerate_indices(d, max(orders))
    position = {beta: k for k, beta in enumerate(jets)}
    factorials = np.array([float(mi.index_factorial(beta)) for beta in jets])
    n = sum(C.shape[1] for C in duals)
    U = np.zeros((len(pts) * len(jets), n), dtype=complex)
    A = np.zeros((d, n, n), dtype=complex)
    col = 0
    for i, (z, kappa, C) in enumerate(zip(pts, orders, duals)):
        rows, k = C.shape
        U[i * len(jets) : i * len(jets) + rows, col : col + k] = C.conj() / factorials[:rows, None]
        padded = np.vstack([C, np.zeros((1, k))])  # index -1 reads a zero row
        for j in range(d):
            shift = [
                position[mi.add(gamma, mi.unit(d, j))] if mi.degree(gamma) < kappa else -1
                for gamma in jets[:rows]
            ]
            SC = padded[shift]
            Y = C.conj().T @ SC
            defect = numerics.operator_norm(SC - C @ Y)
            if defect > tol:
                raise NumericalError(
                    f"local dual at {tuple(z.tolist())} is not invariant under the "
                    f"coordinate shift {j + 1}: defect {defect:.3e} exceeds {tol:.1e}"
                )
            A[j, col : col + k, col : col + k] = np.conj(z[j]) * np.eye(k) + Y.conj()
        col += k

    G = U.conj().T @ fockspace.kernel_gram(pts, jets) @ U
    norms = np.sqrt(np.diag(G).real)
    G = G / np.outer(norms, norms)
    # the unit columns are W D^-1 with D = diag(norms), so M_j^* acts on
    # them by D A_j D^-1
    A = A * norms[:, None] / norms[None, :]
    vals, vecs = np.linalg.eigh(numerics._hermitian_part(G))
    if float(vals[0]) <= GRAM_FLOOR_RTOL * float(vals[-1]):
        raise NumericalError(
            f"kernel data Gram matrix is numerically singular (eigenvalue "
            f"ratio {float(vals[0]) / float(vals[-1]):.3e}); the points are "
            f"too close"
        )
    G_isqrt = (vecs * (vals ** -0.5)) @ vecs.conj().T
    mats = [G_isqrt @ Aj.conj().T @ G @ G_isqrt for Aj in A]
    constants = np.concatenate([C[0, :] for C in duals])
    return ModelTuple(
        kind="jet",
        tuple=tuples.validate(mats),
        cyclic=G_isqrt @ (constants / norms),
        points=tuple(tuple(z.tolist()) for z in pts),
        local_dims=tuple(C.shape[1] for C in duals),
        orders=tuple(orders),
    )


@dataclass(frozen=True)
class LocalizationReport:
    point: tuple
    order: int
    jet_order: int
    annihilator_dim: int
    expected_dim: int
    matches: bool


def verify_localizations(
    model: ModelTuple,
    local_ideals: Sequence[polyideal.PolyIdeal],
) -> list:
    """Check that the model's polynomial annihilator localizes back to the
    prescribed local ideal at every point.

    The annihilator is sliced at a degree where products of local
    generators with enough separating factors already live, so localizing
    its span at each point must reproduce the local jet image exactly. The
    slice stays a dense coefficient matrix: its Taylor rows at a point are
    one product with the Taylor table of the slice's monomials
    (``polyideal.localize_coeffs``), and the expected side is the jet image
    of the prescribed generators at the same order.
    """
    if model.kind != "jet":
        raise InputError("localization checks need a jet model")
    if len(local_ideals) != len(model.points):
        raise InputError(
            f"{len(model.points)} points but {len(local_ideals)} local ideals"
        )
    gen_deg = max(i.max_generator_degree for i in local_ideals)
    sep_deg = sum(k + 1 for k in model.orders)
    D_found = gen_deg + sep_deg
    mus = [k + 2 for k in model.orders]
    basis, ann = tuples.annihilator_coeffs(model.tuple, D_found, tol=numerics.DEFAULT_TOL)
    if ann.shape[1] == 0:
        raise ValidationError(
            f"model has no annihilating polynomials up to degree {D_found}"
        )
    out = []
    for z, kappa, mu, ideal in zip(model.points, model.orders, mus, local_ideals):
        z = np.asarray(z, dtype=complex)
        got = polyideal.localize_coeffs(ann, basis, z, mu)
        want = polyideal._local_jets(ideal.generators, z, mu)
        ok = got.dim == want.dim and numerics.subspace_equal(got.basis, want.basis)
        out.append(
            LocalizationReport(
                point=tuple(z.tolist()),
                order=kappa,
                jet_order=mu,
                annihilator_dim=got.dim,
                expected_dim=want.dim,
                matches=bool(ok),
            )
        )
    return out
