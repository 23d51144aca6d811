"""Finite-dimensional C*-probability spaces.

A :class:`MatrixBlockAlgebra` is a direct sum of matrix blocks carrying a
faithful state given by one positive-definite density matrix per block; the
density traces sum to 1.  Elements are block tuples of matrices.  A block
with every entry exact, a density included, is a ``scalars.QCMatrix``, the
exact kernel; any other block is rows of ``QC`` and ``complex`` for the
per-entry code here, the float kernel, which reads an exact block as rows of
``QC`` where the two meet.  No option chooses a kernel.  Operator norms
always run in doubles.

Elements are immutable, so each caches its state the first time it is asked
for.  Most densities are diagonal (every builtin, every ``from_weights`` and
``matrix_with_trace`` algebra); the algebra records per block whether its
density is, and on those blocks ``state``, ``l2_inner`` and ``center`` read and
write only the diagonal of the block.  The values are those of the full
trace products, bit for bit: the same products are added in the same order,
and only terms that are exact zeros, or float zeros that cannot move a sum,
are left out.
"""

from __future__ import annotations

import math
import reprlib
from fractions import Fraction

import numpy as np

from .scalars import (
    QC, QC_ONE, QC_ZERO, QCMatrix, as_scalar, conj, exact_block, exact_sqrt, negligible, to_complex,
    trace_product,
)

__all__ = [
    "AlgebraError",
    "MatrixBlockAlgebra",
    "AlgebraElement",
    "state",
    "l2_inner",
    "l2_norm",
    "op_norm",
    "center",
    "onb_complement",
    "dn_norm",
    "gram_schmidt",
    "negligible_element",
]

class AlgebraError(Exception):
    """Structural error: bad shapes, non-faithful state, owner mismatch."""


# ---------------------------------------------------------------------------
# matrices as tuples of tuples of scalars
# ---------------------------------------------------------------------------


def _as_matrix(rows, dim=None):
    exact = type(rows) is QCMatrix
    mat = rows if exact else tuple(map(tuple, rows))
    n = len(mat)
    if n == 0 or not exact and any(len(row) != n for row in mat):
        raise AlgebraError("matrix must be square and nonempty")
    if dim is not None and n != dim:
        raise AlgebraError(f"expected a {dim}x{dim} block, got {n}x{n}")
    return mat if exact else exact_block(mat) or tuple(tuple(map(as_scalar, row)) for row in mat)


def _eye_matrix(n):
    return exact_block([[int(i == j) for j in range(n)] for i in range(n)])


def _mat_add(a, b):
    if type(a) is QCMatrix and type(b) is QCMatrix:
        return a + b
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_scale(s, a):
    if type(a) is QCMatrix and type(s) is QC:
        return a.scale(s)
    return tuple(tuple(s * x for x in row) for row in a)


def _mat_mul(a, b):
    if type(a) is QCMatrix and type(b) is QCMatrix:
        return a @ b
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), QC_ZERO) for col in bt) for row in a
    )


def _mat_adjoint(a):
    if type(a) is QCMatrix:
        return a.adjoint()
    return tuple(tuple(conj(a[j][i]) for j in range(len(a))) for i in range(len(a)))


def _mat_trace_product(a, b):
    """trace(a @ b) without forming the product; two exact blocks go to the kernel."""
    if type(a) is QCMatrix and type(b) is QCMatrix:
        return trace_product(a, b, diagonal=False)
    n, acc = len(a), QC_ZERO
    for i, k in ((i, k) for i in range(n) for k in range(n)):
        acc = acc + a[i][k] * b[k][i]
    return acc


def _kind(a):
    """The type shared by every entry of a matrix (QC or complex), else None."""
    if type(a) is QCMatrix:
        return QC
    kind = type(a[0][0])
    return kind if all(type(v) is kind for row in a for v in row) else None


def _exact_diagonal(d):
    """The diagonal of d when every off-diagonal entry is an exact zero, else None."""
    n = len(d)
    if any(type(d[i][j]) is not QC or d[i][j] for i in range(n) for j in range(n) if i != j):
        return None
    return tuple(d[i][i] for i in range(n))


def _block_trace(d, diag, b):
    """trace(d @ b), bit for bit as ``_mat_trace_product``.

    With a diagonal density (``diag`` its diagonal) and a block whose entries
    are all exact or all float, the terms off the diagonal are exact zeros,
    or float zeros added to a sum that already is a float (the first term is
    diagonal), so only the diagonal terms are added, in the same order."""
    if diag is None or _kind(b) is None:
        return _mat_trace_product(d, b)
    if type(b) is QCMatrix and type(d) is QCMatrix:
        return trace_product(d, b)
    acc = QC_ZERO
    for i, di in enumerate(diag):
        acc = acc + di * b[i][i]
    return acc


def _exact_blocks(blocks) -> bool:
    return all([type(b) is QCMatrix for b in blocks])  # a list is faster than a generator here


def _float_bits(blocks):
    """None when every block is exact, else ``repr(blocks)``, which spells a
    QC apart from a complex and every float bit, signed zeros included.
    Value-equal blocks that agree here give the same bits."""
    return None if _exact_blocks(blocks) else repr(blocks)


def _mat_to_numpy(a):
    rows = a.complex_rows() if type(a) is QCMatrix else [[to_complex(v) for v in row] for row in a]
    return np.array(rows, dtype=complex)


def _positive_definite(d) -> bool:
    """Whether the Hermitian d is positive definite: by float Cholesky, or, on
    an exact d, exactly, by elimination in QC with every pivot real and > 0.
    (Cholesky accepts [[1/2, 1/2], [1/2, 1/2]]: its last pivot rounds above 0.)"""
    if not _exact_blocks((d,)):
        try:
            np.linalg.cholesky(_mat_to_numpy(d))
        except np.linalg.LinAlgError:
            return False
        return True
    a = [list(row) for row in d]
    for k, row in enumerate(a):
        if row[k].im or row[k].re <= 0:
            return False
        for lower in a[k + 1:]:
            f = lower[k] / row[k]
            lower[k + 1:] = [x - f * y for x, y in zip(lower[k + 1:], row[k + 1:])]
    return True


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------


class MatrixBlockAlgebra:
    """Direct sum of matrix blocks with a faithful state.

    Parameters
    ----------
    densities:
        One Hermitian positive-definite matrix per block.  Their traces are
        the block weights and must sum to 1.
    """

    __slots__ = ("block_dims", "densities", "_diagonals", "_bits", "_hash", "_onb")

    def __init__(self, densities):
        dens = tuple(_as_matrix(d) for d in densities)
        if not dens:
            raise AlgebraError("algebra needs at least one block")
        self.block_dims = tuple(len(d) for d in dens)
        self.densities = dens
        # per block: the density's diagonal when it is exactly diagonal, else None
        self._diagonals = tuple(_exact_diagonal(d) for d in dens)
        self._bits = _float_bits(dens)
        self._hash = None
        self._onb = None
        self._validate()

    def _validate(self):
        for b, d in enumerate(self.densities):
            if not all(negligible(x - conj(y)) for row, col in zip(d, zip(*d)) for x, y in zip(row, col)):
                raise AlgebraError(f"density of block {b} is not Hermitian")
            if not _positive_definite(d):
                raise AlgebraError(f"density of block {b} is not positive definite (state not faithful)")
        total = sum(self.weights(), QC_ZERO)
        if not negligible(total - 1):
            raise AlgebraError(f"density traces sum to {total}, expected 1")

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_weights(cls, weights) -> "MatrixBlockAlgebra":
        """Abelian algebra: one 1x1 block per atom weight."""
        ws = [as_scalar(w) for w in weights]
        return cls([[[w]] for w in ws])

    @classmethod
    def matrix_with_trace(cls, n: int) -> "MatrixBlockAlgebra":
        """(M_n, tr) with the normalized trace."""
        return cls([[[QC(Fraction(1, n)) if i == j else QC(0) for j in range(n)] for i in range(n)]])

    @classmethod
    def matrix_with_state(cls, diagonal) -> "MatrixBlockAlgebra":
        """Single matrix block with a diagonal density."""
        diag = [as_scalar(v) for v in diagonal]
        n = len(diag)
        return cls([[[diag[i] if i == j else QC(0) for j in range(n)] for i in range(n)]])

    # -- basic data -------------------------------------------------------
    @property
    def dim(self) -> int:
        """Linear dimension sum(n_b^2)."""
        return sum(n * n for n in self.block_dims)

    def weights(self):
        """Trace weight of each block."""
        return [sum((d[i][i] for i in range(len(d))), QC_ZERO) for d in self.densities]

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(self, [_eye_matrix(n) for n in self.block_dims])

    def element(self, blocks) -> "AlgebraElement":
        return AlgebraElement(self, blocks)

    def scalar(self, s) -> "AlgebraElement":
        s = as_scalar(s)
        return AlgebraElement(
            self, [_mat_scale(s, _eye_matrix(n)) for n in self.block_dims]
        )

    def basis(self):
        """Canonical matrix units across the blocks, block-major order."""
        dims = self.block_dims
        return [AlgebraElement(self, [[[int((c, r, k) == (b, i, j)) for k in range(m)] for r in range(m)]
                                      for c, m in enumerate(dims)])
                for b, n in enumerate(dims) for i in range(n) for j in range(n)]

    def is_abelian(self) -> bool:
        return all(n == 1 for n in self.block_dims)

    def is_tracial(self) -> bool:
        """Whether the state is a trace (density a multiple of 1 per block)."""
        return all(
            negligible(d[i][j] - d[0][0] if i == j else d[i][j])
            for d in self.densities for i in range(len(d)) for j in range(len(d))
        )

    # -- identity / hashing -----------------------------------------------
    def _key(self):
        return (self.block_dims, self.densities)

    def __eq__(self, other):
        """Equal densities of one kind, exact or float, and float bits."""
        return self is other or (
            isinstance(other, MatrixBlockAlgebra)
            and self._key() == other._key()
            and self._bits == other._bits
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._key()))
        return self._hash

    def __setattr__(self, name, value):
        if name in self.__slots__ and getattr(self, name, None) is not None and name != "_hash":
            raise AttributeError("MatrixBlockAlgebra is immutable")
        object.__setattr__(self, name, value)

    def __repr__(self):
        return f"MatrixBlockAlgebra(block_dims={list(self.block_dims)})"

    # -- JSON ---------------------------------------------------------------
    def to_json(self) -> dict:
        if self.is_abelian():
            return {"atoms": [_scalar_to_json(d[0][0]) for d in self.densities]}
        return {
            "blocks": [
                {"dim": n, "density": _matrix_to_json(d)}
                for n, d in zip(self.block_dims, self.densities)
            ]
        }

    @classmethod
    def from_json(cls, data) -> "MatrixBlockAlgebra":
        json_shape(data, dict, "algebra JSON")
        if "atoms" in data:
            return cls.from_weights([_scalar_from_json(w) for w in json_shape(data["atoms"], list, "'atoms'")])
        if "blocks" not in data:
            raise AlgebraError("algebra JSON needs 'blocks' or 'atoms'")
        dens = []
        for blk in json_shape(data["blocks"], list, "'blocks'"):
            json_shape(blk, dict, "a block", ("density",))
            d = _matrix_from_json(blk["density"])
            if "dim" in blk and blk["dim"] != len(d):
                raise AlgebraError("declared block dim does not match density shape")
            dens.append(d)
        return cls(dens)


def _scalar_to_json(s):
    if isinstance(s, QC):
        if s.im == 0 and s.re.denominator == 1:
            return int(s.re)
        if s.im == 0:
            return str(s.re)
        return [str(s.re), str(s.im)]
    c = complex(s)
    if c.imag == 0:
        return c.real
    return [c.real, c.imag]


def _scalar_from_json(v):
    if isinstance(v, (int, str)):
        return QC(json_number(v))
    if isinstance(v, float):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        re, im = v
        if isinstance(re, str) or isinstance(im, str) or (
            isinstance(re, int) and isinstance(im, int)
        ):
            return QC(json_number(re), json_number(im))
        return complex(json_number(re, float), json_number(im, float))
    raise AlgebraError(f"bad scalar in JSON: {reprlib.repr(v)}")


def _matrix_to_json(m):
    return [[_scalar_to_json(v) for v in row] for row in m]


def _matrix_from_json(rows):
    rows = [json_shape(row, list, "a matrix row") for row in json_shape(rows, list, "a matrix")]
    return _as_matrix([[_scalar_from_json(v) for v in row] for row in rows])


def json_shape(value, kind, what: str, keys=(), error=AlgebraError):
    """``value`` if it is a JSON ``kind`` (dict or list) holding ``keys``,
    else ``error`` with a one-line message."""
    if not isinstance(value, kind) or not all(k in value for k in keys):
        need = "a JSON object" if kind is dict else "a JSON list"
        if keys:
            need += " with " + ", ".join(keys)
        raise error(f"{what} must be {need}, got {reprlib.repr(value)}")
    return value


def json_number(v, kind=Fraction, error=AlgebraError):
    """kind(v), kind Fraction or float, for an int, a float or a string such
    as "3/5"; any other value, "1/0" and values out of range raise ``error``."""
    try:
        if isinstance(v, (int, float, str)):
            return kind(v)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise error(f"bad number in JSON: {reprlib.repr(v)}")


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class AlgebraElement:
    """Element of a MatrixBlockAlgebra: one matrix per block, immutable."""

    __slots__ = ("owner", "blocks", "_hash", "_state", "_bits")

    def __init__(self, owner: MatrixBlockAlgebra, blocks):
        object.__setattr__(self, "owner", owner)
        blocks = tuple(blocks)
        if len(blocks) != len(owner.block_dims):
            raise AlgebraError(
                f"element has {len(blocks)} blocks, algebra has {len(owner.block_dims)}"
            )
        blocks = tuple(
            _as_matrix(b, dim=n) for b, n in zip(blocks, owner.block_dims)
        )
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_state", None)

    @classmethod
    def _of(cls, owner: MatrixBlockAlgebra, blocks) -> "AlgebraElement":
        """Element from blocks that arithmetic on elements of ``owner`` built:
        a tuple of ``QCMatrix`` or square tuples of QC/complex entries.
        Skips the checks and coercions of the public constructor."""
        x = object.__new__(cls)
        object.__setattr__(x, "owner", owner)
        object.__setattr__(x, "blocks", blocks)
        object.__setattr__(x, "_hash", None)
        object.__setattr__(x, "_state", None)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    def __reduce__(self):
        return AlgebraElement._of, (self.owner, self.blocks)

    # -- arithmetic -------------------------------------------------------
    def _check_owner(self, other):
        if self.owner != other.owner:
            raise AlgebraError("elements belong to different algebras")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_owner(other)
        return AlgebraElement._of(
            self.owner, tuple(_mat_add(a, b) for a, b in zip(self.blocks, other.blocks))
        )

    def __sub__(self, other):
        return self.__add__(-other)

    def __neg__(self):
        return AlgebraElement._of(self.owner, tuple(_mat_scale(QC(-1), b) for b in self.blocks))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_owner(other)
            return AlgebraElement._of(
                self.owner, tuple(_mat_mul(a, b) for a, b in zip(self.blocks, other.blocks))
            )
        s = as_scalar(other)
        return AlgebraElement._of(self.owner, tuple(_mat_scale(s, b) for b in self.blocks))

    def __rmul__(self, other):
        s = as_scalar(other)
        return AlgebraElement._of(self.owner, tuple(_mat_scale(s, b) for b in self.blocks))

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement._of(self.owner, tuple(_mat_adjoint(b) for b in self.blocks))

    def is_exact(self) -> bool:
        return _exact_blocks(self.blocks)

    def is_zero(self) -> bool:  # every entry exactly 0, a structural zero
        return all(b.is_zero() if type(b) is QCMatrix else not any(v for row in b for v in row)
                   for b in self.blocks)

    def to_numpy(self):
        """List of numpy blocks (complex128)."""
        return [_mat_to_numpy(b) for b in self.blocks]

    # -- identity -----------------------------------------------------------
    def _cached_bits(self):
        try:  # the slot is left unset until the first read
            return self._bits
        except AttributeError:
            object.__setattr__(self, "_bits", _float_bits(self.blocks))
            return self._bits

    def __eq__(self, other):
        """Equal owners, values and ``_float_bits``; the hash reads values
        alone, so an exact element and its float twin collide but differ."""
        return self is other or (
            isinstance(other, AlgebraElement)
            and self.owner == other.owner
            and self.blocks == other.blocks
            and self._cached_bits() == other._cached_bits()
        )

    def __hash__(self):
        if self._hash is None:
            try:  # an exact block as its rows of complex, the cheap hash its float twin has
                blocks = tuple([b.complex_rows() if type(b) is QCMatrix else b for b in self.blocks])
            except OverflowError:  # an entry beyond the float range
                blocks = self.blocks
            object.__setattr__(self, "_hash", hash((self.owner.block_dims, blocks)))
        return self._hash

    def __repr__(self):
        return f"AlgebraElement(blocks={[len(b) for b in self.blocks]})"

    # -- JSON ----------------------------------------------------------------
    def to_json(self):
        return [_matrix_to_json(b) for b in self.blocks]

    @classmethod
    def from_json(cls, owner: MatrixBlockAlgebra, data) -> "AlgebraElement":
        return cls(owner, [_matrix_from_json(b) for b in json_shape(data, list, "an element")])


# ---------------------------------------------------------------------------
# state, inner products, norms
# ---------------------------------------------------------------------------


def state(x: AlgebraElement):
    """rho(x) = sum_b trace(density_b . block_b).

    Cached on the (immutable) element the first time it is computed.  On a
    block with a diagonal density only the diagonal of the block is read,
    sum_i d_ii x_ii, with the bits of the full trace product (see the module
    docstring)."""
    acc = x._state
    if acc is None:
        owner = x.owner
        acc = QC_ZERO
        for d, diag, b in zip(owner.densities, owner._diagonals, x.blocks):
            acc = acc + _block_trace(d, diag, b)
        object.__setattr__(x, "_state", acc)
    return acc


def l2_inner(x: AlgebraElement, y: AlgebraElement):
    """GNS inner product <x, y> = rho(y* x).

    On a block with a diagonal density only the diagonal of y* x is formed,
    sum_i d_ii sum_k conj(y_ki) x_ki, each entry by the operations of the
    full product, so the bits are those of ``state(y.adjoint() * x)``."""
    owner = x.owner
    if owner != y.owner:
        raise AlgebraError("elements belong to different algebras")
    acc = QC_ZERO
    for d, diag, bx, by in zip(owner.densities, owner._diagonals, x.blocks, y.blocks):
        # the diagonal alone decides the trace when every entry of y* x is
        # float (one block float throughout); two exact blocks go to the kernel
        if diag is not None and (_kind(bx) is complex or _kind(by) is complex):
            n, t = len(bx), QC_ZERO
            for i, di in enumerate(diag):
                t = t + di * sum((conj(by[k][i]) * bx[k][i] for k in range(n)), QC_ZERO)
        else:
            t = _block_trace(d, diag, _mat_mul(_mat_adjoint(by), bx))
        acc = acc + t
    return acc


def l2_norm(x: AlgebraElement) -> float:
    return math.sqrt(max(complex(l2_inner(x, x)).real, 0.0))


def op_norm(x: AlgebraElement) -> float:
    """Max over blocks of the spectral norm: the square root of the top
    eigenvalue of x*x by ``eigvalsh``, at every block size.  An iteration
    stopped early would under-estimate the norm that ``negligible_element``
    decides zero on."""
    best = 0.0
    for b in x.blocks:
        a = _mat_to_numpy(b)
        h = a.conj().T @ a
        h = 0.5 * (h + h.conj().T)
        lam = max(float(np.linalg.eigvalsh(h)[-1]), 0.0)
        best = max(best, math.sqrt(lam))
    return best


def negligible_element(x: AlgebraElement) -> bool:
    """Whether x counts as zero: every entry exactly 0 when x is exact (no
    exact residual is rounded away), else a negligible operator norm."""
    if x.is_exact():
        return x.is_zero()
    return negligible(op_norm(x))


def center(x: AlgebraElement) -> AlgebraElement:
    """x - rho(x) 1; has state zero.

    Subtracts s = rho(x) on the diagonal entries directly; no scalar element
    is built.  The state is exact only when every block of x is; then the
    kernel subtracts s on each block's diagonal.  A float s gives each entry
    the operation x - s 1 would apply to it: x_ij + (-1 * (s * 1)) on the
    diagonal and x_ij + (-1 * (s * 0)) off it, signed zeros included."""
    s = state(x)
    if type(s) is QC:
        return AlgebraElement._of(x.owner, tuple([b.shift(s) for b in x.blocks]))
    on, off = QC(-1) * (s * QC_ONE), QC(-1) * (s * QC_ZERO)
    blocks = tuple(tuple(tuple(v + (on if i == j else off) for j, v in enumerate(row)) for i, row in enumerate(b))
                   for b in x.blocks)
    return AlgebraElement._of(x.owner, blocks)


def gram_schmidt(vectors):
    """Orthonormalize under the GNS inner product ``l2_inner``; a vector
    whose residual norm is negligible drops.

    Normalization constants stay exact when the squared norm is a perfect
    rational square, otherwise the vector degrades to floats.
    """
    basis = []
    for v in vectors:
        w = v
        for b in basis:
            w = w - b * l2_inner(w, b)
        nn = l2_inner(w, w)
        if isinstance(nn, QC):
            n2 = max(nn.re, Fraction(0))
            if negligible(n2):
                continue
            root = exact_sqrt(n2)
            if root is not None:
                basis.append(w * QC(Fraction(1) / root))
            else:
                basis.append(w * (1.0 / math.sqrt(float(n2))))
        else:
            norm = math.sqrt(max(nn.real, 0.0))
            if negligible(norm):
                continue
            basis.append(w * (1.0 / norm))
    return basis


def onb_complement(algebra: MatrixBlockAlgebra):
    """Orthonormal basis of A (-) C1 under the GNS inner product.

    Gram-Schmidt over [1, canonical matrix units...]; the leading slot spans
    C1, the rest is the complement.  Length is dim(A) - 1 (state faithful).
    It runs once per algebra: every call returns a fresh list of the same
    element objects.
    """
    if algebra._onb is None:
        basis = gram_schmidt([algebra.identity()] + algebra.basis())
        object.__setattr__(algebra, "_onb", tuple(basis[1:]))
    return list(algebra._onb)


def dn_norm(vectors) -> float:
    """Operator norm of (sum_i x_i x_i*)^(1/2).

    For an orthonormal basis of a subspace V this is the rapid-decay
    certificate constant: it always dominates sup {||a|| : a in V, ||a||_2=1},
    with equality whenever the algebra is abelian (and in the commutative
    function-algebra setting).  Empty input gives 0.  The float comes from
    ``eigvalsh`` and a square root, rounded to nearest and not up: over
    (M2, tr) it is 1.9999999999999998, where the constant is exactly 2.
    """
    vectors = list(vectors)
    if not vectors:
        return 0.0
    owner = vectors[0].owner
    for v in vectors:
        if v.owner != owner:
            raise AlgebraError("dn_norm vectors must share one algebra")
    acc = [np.zeros((n, n), dtype=complex) for n in owner.block_dims]
    for v in vectors:
        for i, b in enumerate(v.to_numpy()):
            acc[i] += b @ b.conj().T
    best = 0.0
    for h in acc:
        h = 0.5 * (h + h.conj().T)
        ev = np.linalg.eigvalsh(h)
        best = max(best, max(float(ev[-1]), 0.0))
    return math.sqrt(best)
