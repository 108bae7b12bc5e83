"""Splitting A = P + D with P positive semidefinite and D trace-zero diagonal.

Such a split exists exactly when the dual of the range-minimum problem has a
nonnegative optimum: the dual of  min normalized_trace(S B)  over correlation
matrices B (S the Hermitian part of A) is  max mean(y)  over real diagonals y
with S - diag(y) PSD, and strong duality holds (B = I is strictly feasible).
A nonnegative dual optimum yields the split directly:

    P = S - diag(y) + mean(y) I,     D = diag(y) - mean(y) I + i Im(A),

where the (diagonal, trace-zero) imaginary part of A rides along in D.  The
rank-one factors of P give a sum-of-squares certificate for the group-algebra
element attached to A: spectral factors q_k with P = sum_k q_k q_k*, read as
squares of linear words in the generators, witness nonnegativity modulo
trace-zero diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import jsonio, matcore
from .crange import FLAG_GAP, SolveConfig, SupportResult, min_real_value, polish_dual
from .errors import MatrixParseError, NotDecomposableError

MARGIN_TOL = 1e-9
RANK_CUT = 1e-10
OFFDIAG_TOL = 1e-8
TRACE_TOL = 1e-9


@dataclass
class NonnegativityResult:
    """Verdict on whether the range lies in [0, inf): certified unless
    flags holds gap_not_closed."""

    nonnegative: bool
    margin: float  # certified lower bound on the minimum of the range
    attained: float  # value attained by the witness correlation matrix
    support: SupportResult

    @property
    def flags(self) -> tuple[str, ...]:
        """The support solve's flags, and gap_not_closed if the verdict is
        open: nonnegative with a margin below -1e-9."""
        open_ = self.nonnegative and self.margin < -MARGIN_TOL and FLAG_GAP not in self.support.flags
        return self.support.flags + ((FLAG_GAP,) if open_ else ())


@dataclass
class Decomposition:
    """A = P + D with P Hermitian PSD and D diagonal, trace zero."""

    P: np.ndarray
    D: np.ndarray
    margin: float
    dual_y: np.ndarray
    flags: tuple[str, ...] = ()


@dataclass
class SosCertificate:
    """Vectors q_k with sum_k q_k q_k* = P and the diagonal shift D.

    Each q_k encodes the linear word built from the generators with the
    conjugated entries of q_k as coefficients; the certificate asserts that
    the element attached to A equals a sum of squares of those words, up to
    a trace-zero diagonal."""

    coeffs: list[np.ndarray]
    diagonal: np.ndarray
    residual: float

    @property
    def n(self) -> int:
        return len(self.diagonal)


@dataclass
class VerificationReport:
    valid: bool
    offdiag_max: float
    trace_abs: float
    entry_max: float


def nonnegativity_test(a, cfg: SolveConfig = SolveConfig()) -> NonnegativityResult:
    """Screen the imaginary part, then certify the sign of the range minimum.

    margin is the dual lower bound on the minimum; the verdict is
    margin >= -1e-9.  A margin below that while the witness attains -1e-9
    or more is first tightened, by polish_dual with stop_tol 1e-9 / 4.  The
    range is called negative only if the witness attains below 0; a
    margin still below -1e-9 with a witness at 0 or above leaves the
    verdict open: nonnegative, with the gap_not_closed flag.  Raises
    RangeNotRealError when the range is not real.
    """
    res = min_real_value(a, cfg)
    if -float(np.mean(res.dual_y)) < -MARGIN_TOL <= res.minimum:
        s = matcore.hermitian_parts(matcore.as_matrix(a))[0]
        y = polish_dual(-s, res.dual_y, res.value, stop_tol=MARGIN_TOL / 4.0)
        if np.mean(y) < np.mean(res.dual_y):
            res = replace(res, dual_y=y, gap=float(np.mean(y)) - res.value)
    margin = -float(np.mean(res.dual_y))
    return NonnegativityResult(
        nonnegative=margin >= -MARGIN_TOL or res.minimum >= 0.0,
        margin=margin,
        attained=res.minimum,
        support=res,
    )


def decompose(a, cfg: SolveConfig = SolveConfig()) -> Decomposition:
    """Construct the PSD + trace-zero-diagonal split, or prove none exists.

    The dual diagonal is the one of the solve that certifies the range
    minimum (tightened there if the verdict needed it): that solve already
    ends on the barrier path polish_dual follows, with the same stop rule,
    so P inherits its certified margin as it is.
    """
    a = matcore.as_matrix(a)
    nn = nonnegativity_test(a, cfg)
    s, k = matcore.hermitian_parts(a)
    if not nn.nonnegative:
        raise NotDecomposableError(
            f"range minimum is certified below zero (margin {nn.margin:.3e})",
            witness=nn.support.correlation(),
            attained=nn.attained,
            margin=nn.margin,
        )
    # feasible dual for S - diag(y) >= 0, mean(y) = certified lower bound
    y = -nn.support.dual_y
    mean_y = float(np.mean(y))
    p = s - np.diag(y) + mean_y * np.eye(len(y))
    d = np.diag(y - mean_y).astype(np.complex128) + 1j * np.diag(np.diag(k))
    return Decomposition(P=p, D=d, margin=mean_y, dual_y=y, flags=nn.flags)


def sos_certificate(dec: Decomposition) -> SosCertificate:
    """Spectral rank-one factorization of P; eigenvalues below 1e-10 * ||P||
    are dropped, keeping the certificate at numerical rank."""
    eig = matcore.hermitian_eigs(dec.P)
    lam = eig.eigenvalues
    cut = RANK_CUT * max(float(lam[-1]), 0.0)
    coeffs = [
        np.sqrt(lam[j]) * eig.eigenvectors[:, j]
        for j in range(len(lam))
        if lam[j] > cut and lam[j] > 0.0
    ]
    rebuilt = sum((np.outer(q, q.conj()) for q in coeffs), start=np.zeros_like(dec.P))
    residual = matcore.frobenius(dec.P - rebuilt)
    return SosCertificate(coeffs=coeffs, diagonal=np.diag(dec.D).copy(), residual=float(residual))


def verify_certificate(a, cert: SosCertificate) -> VerificationReport:
    """Check that A minus the rank-one sum is a trace-zero diagonal.

    That is exactly the condition under which the certificate's squares
    reproduce the element attached to A (diagonal trace-zero shifts do not
    change it).  The report also carries the entrywise residual against the
    certificate's own diagonal."""
    a = matcore.as_matrix(a)
    n = a.shape[0]
    rebuilt = sum((np.outer(q, q.conj()) for q in cert.coeffs), start=np.zeros_like(a))
    z = a - rebuilt
    off = z - np.diag(np.diag(z))
    offdiag_max = float(np.max(np.abs(off))) if n > 1 else 0.0
    trace_abs = float(abs(np.trace(z)))
    r = z - np.diag(np.asarray(cert.diagonal))
    entry_max = float(np.max(np.abs(r)))
    return VerificationReport(
        valid=offdiag_max <= OFFDIAG_TOL and trace_abs <= TRACE_TOL,
        offdiag_max=offdiag_max,
        trace_abs=trace_abs,
        entry_max=entry_max,
    )


def certificate_to_obj(cert: SosCertificate) -> dict:
    """JSON-ready form: {"n": ..., "q": [[{re, im}, ...], ...], "D": [...],
    "residual": ...}."""
    return {
        "n": cert.n,
        "q": [[jsonio.complex_obj(x) for x in q] for q in cert.coeffs],
        "D": [jsonio.complex_obj(x) for x in cert.diagonal],
        "residual": float(cert.residual),
    }


def certificate_from_obj(obj, where: str = "<certificate>") -> SosCertificate:
    """Inverse of certificate_to_obj; malformed input raises MatrixParseError."""
    n = jsonio.dimension(obj, ("q", "D"), where)
    if not isinstance(obj["q"], list):
        raise MatrixParseError(f"{where}: field 'q' must be a list of vectors")
    try:
        residual = float(obj.get("residual", 0.0))
    except (TypeError, ValueError) as exc:
        raise MatrixParseError(f"{where}: field 'residual' must be a number") from exc
    return SosCertificate(
        coeffs=[jsonio.vector_from_obj(q, n, f"{where}: q[{k}]") for k, q in enumerate(obj["q"])],
        diagonal=jsonio.vector_from_obj(obj["D"], n, f"{where}: D"),
        residual=residual,
    )
