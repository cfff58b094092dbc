"""Independent linear-algebra model of an Artinian quotient.

The model is built from normal forms only (the multiplication matrices) and
everything after that is exact row reduction: no colon, intersection, or power
routine from the ideal layer is ever called, so agreement between this module
and the Groebner path is a genuine cross-check.

The image of an ideal, the ideal generators of a subspace and its stability
check all come from one span walk (_ideal_span), which builds the operator of
each generator it keeps once per call.
"""

from __future__ import annotations

from .errors import InternalError, PreconditionError, UsageError
from .groebner import Ideal, normal_form
from .hilbert import KIND_FILTRATION, HilbertTable
from .ideal_ops import QuotientRing


def _sparse(columns):
    """The nonzero (row, entry) pairs of each column."""
    return tuple(tuple((r, x) for r, x in enumerate(col) if x != 0) for col in columns)


def _apply_cols(cols, vec, p, zero):
    """Matrix-vector product using the sparse column structure."""
    out = [zero] * len(vec)
    for c, vc in enumerate(vec):
        if vc == 0:
            continue
        for r, coeff in cols[c]:
            out[r] = out[r] + coeff * vc
    if p:
        out = [x % p for x in out]
    return out


def _mat_mul(a, b, p):
    """The product of two square row-major matrices, row-major, from a's sparse columns."""
    a_cols = _sparse(zip(*a))
    product_cols = [_apply_cols(a_cols, col, p, 0) for col in zip(*b)]
    return [list(row) for row in zip(*product_cols)]


def _residual(rows, pivots, vec, p):
    """vec reduced against reduced-row-echelon rows with these pivot columns."""
    v = list(vec)
    for row, c in zip(rows, pivots):
        f = v[c]
        if f == 0:
            continue
        if p is None:
            v = [x - f * y for x, y in zip(v, row)]
        else:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return v


class _Echelon:
    """Mutable reduced-row-echelon accumulator with exact field arithmetic.

    Unlike the other kernels, _residual and insert keep a separate F_p list
    comprehension beside the Q one: folding the modulus into one pass per
    vector measured about 6% slower on the oracle-fp benchmark workload.
    """

    __slots__ = ("rows", "pivots", "ncols", "field", "p")

    def __init__(self, ncols, field):
        self.rows = []
        self.pivots = []
        self.ncols = ncols
        self.field = field
        self.p = field.p

    def insert(self, vec) -> bool:
        """Reduce vec against the basis; absorb it if independent."""
        v = _residual(self.rows, self.pivots, vec, self.p)
        pivot = next((c for c, x in enumerate(v) if x != 0), None)
        if pivot is None:
            return False
        inv = self.field.inv(v[pivot])
        p = self.p
        if p is None:
            v = [x * inv for x in v]
        else:
            v = [x * inv % p for x in v]
        for i, row in enumerate(self.rows):
            f = row[pivot]
            if f == 0:
                continue
            if p is None:
                self.rows[i] = [x - f * y for x, y in zip(row, v)]
            else:
                self.rows[i] = [(x - f * y) % p for x, y in zip(row, v)]
        at = next((i for i, c in enumerate(self.pivots) if c > pivot), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True

    def snapshot(self) -> "Subspace":
        return Subspace(
            tuple(tuple(r) for r in self.rows), tuple(self.pivots), self.ncols
        )


class Subspace:
    """A subspace given by its reduced-row-echelon basis (canonical)."""

    __slots__ = ("rows", "pivots", "ncols")

    def __init__(self, rows, pivots, ncols):
        self.rows = rows
        self.pivots = pivots
        self.ncols = ncols

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vec, field) -> bool:
        return all(x == 0 for x in _residual(self.rows, self.pivots, vec, field.p))

    def __eq__(self, other):
        return (
            type(other) is Subspace
            and other.ncols == self.ncols
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.rows, self.ncols))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ncols})"


def subspace_from_vectors(vectors, ncols, field) -> Subspace:
    ech = _Echelon(ncols, field)
    for v in vectors:
        ech.insert(v)
    return ech.snapshot()


class VectorSpaceModel:
    """Multiplication matrices of an Artinian quotient over its standard basis."""

    __slots__ = ("quotient", "ring", "field", "basis", "index", "mats", "cols", "steps", "chains")

    def __init__(self, quotient, basis, index, mats, steps):
        self.quotient = quotient
        self.ring = quotient.ring
        self.field = quotient.ring.field
        self.basis = basis
        self.index = index
        self.mats = mats
        self.cols = tuple(_sparse(zip(*mat)) for mat in mats)
        self.steps = steps
        self.chains = {}  # stable subspace V -> its power chain [V, V^2, ...] (see _chain)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, f) -> list:
        """Coordinates of the image of an ambient polynomial."""
        if f.ring != self.ring:
            raise UsageError("polynomial lives in a different ring")
        return _coords(self.quotient.reduce(f), self.index, self.field.zero)

    def full_space(self) -> Subspace:
        one = self.field.one
        zero = self.field.zero
        rows = tuple(
            tuple(one if c == r else zero for c in range(self.dim))
            for r in range(self.dim)
        )
        return Subspace(rows, tuple(range(self.dim)), self.dim)

    def zero_space(self) -> Subspace:
        """The zero subspace; tests use it as the reference input 0 whose annihilator is A."""
        return Subspace((), (), self.dim)

    def apply(self, var: int, vec) -> list:
        """Multiply the element with these coordinates by the given variable."""
        return _apply_cols(self.cols[var], vec, self.field.p, self.field.zero)

    def operator_of(self, vec) -> list:
        """Columns of multiplication by the element with these coordinates.

        Column r is b_r * vec, built by walking the division-closed basis
        (each basis monomial is a variable times an earlier one).
        """
        columns = [None] * self.dim
        columns[0] = list(vec)
        for r in range(1, self.dim):
            var, parent = self.steps[r]
            columns[r] = self.apply(var, columns[parent])
        return columns


def _coords(nf, index, zero) -> list:
    """Coordinates of a normal form over the standard monomials numbered by index."""
    v = [zero] * len(index)
    for e, c in nf.iter_terms():
        try:
            v[index[e]] = c
        except KeyError:  # pragma: no cover - normal forms are standard
            raise InternalError(f"non-standard monomial {e} in a normal form") from None
    return v


def build_model(A: QuotientRing) -> VectorSpaceModel:
    """Multiplication matrices for every variable; commutativity is asserted."""
    ring = A.ring
    field = ring.field
    basis = A.standard_monomials
    if not basis:
        raise UsageError("cannot model the zero ring")
    index = {e: i for i, e in enumerate(basis)}
    gb = A.defining.groebner_basis()
    n = ring.nvars
    dim = len(basis)
    p = field.p
    zero = field.zero

    nf_cache = {}

    def coords_of_monomial(exps):
        v = nf_cache.get(exps)
        if v is None:
            f = ring.monomial(exps)
            v = nf_cache[exps] = _coords(f if exps in index else normal_form(f, gb), index, zero)
        return v

    mats = []
    for i in range(n):
        columns = [
            coords_of_monomial(tuple(x + 1 if t == i else x for t, x in enumerate(e)))
            for e in basis
        ]
        mats.append([list(row) for row in zip(*columns)])
    for i in range(n):
        for j in range(i + 1, n):
            if _mat_mul(mats[i], mats[j], p) != _mat_mul(mats[j], mats[i], p):
                raise InternalError(
                    f"multiplication matrices for {ring.variables[i]} and "
                    f"{ring.variables[j]} do not commute"
                )
    steps = [None] * dim
    for r in range(1, dim):
        e = basis[r]
        var = next(i for i, x in enumerate(e) if x > 0)
        parent = tuple(x - 1 if i == var else x for i, x in enumerate(e))
        steps[r] = (var, index[parent])
    return VectorSpaceModel(A, basis, index, tuple(mats), tuple(steps))


def _ideal_span(M: VectorSpaceModel, vectors):
    """The ideal of A spanned by the vectors, and the operators of those that generate it.

    A vector is kept when it lies outside the ideal spanned by the vectors
    kept before it; the columns b_r * v of its operator then join the span
    (column 0 is v itself, as b_0 = 1). No locality is assumed, so this holds
    on non-local quotients too.
    """
    ideal = _Echelon(M.dim, M.field)
    operators = []
    for v in vectors:
        if ideal.insert(v):
            operator = M.operator_of(v)
            operators.append(operator)
            for column in operator[1:]:
                ideal.insert(column)
    return ideal, operators


def subspace_of_ideal(M: VectorSpaceModel, K: Ideal) -> Subspace:
    """The image of an ambient ideal in A, closed under all multiplications."""
    if K.ring != M.ring:
        raise UsageError("ideal lives in a different ring")
    return _ideal_span(M, [M.coords(g) for g in K.generators])[0].snapshot()


def _generator_operators(M: VectorSpaceModel, V: Subspace, caller: str) -> list:
    """The operators of rows of V that generate it as an ideal.

    The ideal the rows of V generate contains V, so V is an ideal of A
    (multiplication-stable) exactly when that ideal has dimension dim V.
    """
    if V.ncols != M.dim:
        raise UsageError("subspace dimension does not match the model")
    ideal, operators = _ideal_span(M, V.rows)
    if len(ideal.rows) != V.dim:
        raise UsageError(f"{caller} requires a multiplication-stable subspace")
    return operators


def _kernel(rows, ncols, field) -> Subspace:
    """Canonical basis of {x : rows @ x = 0}."""
    ech = _Echelon(ncols, field)
    for r in rows:
        ech.insert(r)
    pivots = set(ech.pivots)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for row, c in zip(ech.rows, ech.pivots):
            coeff = row[f]
            if coeff != 0:
                v[c] = field.neg(coeff)
        basis.append(v)
    return subspace_from_vectors(basis, ncols, field)


def annihilator(M: VectorSpaceModel, V: Subspace) -> Subspace:
    """{a in A : a V = 0}, via the kernel of the stacked maps a -> a * g.

    V must be stable under the multiplication matrices (an ideal of A), and
    a V = 0 iff a g = 0 for each of its ideal generators g.
    """
    constraints = []
    for operator in _generator_operators(M, V, "annihilator"):
        constraints.extend(zip(*operator))  # entry (r, c): b_r-coefficient of b_c * g
    return _kernel(constraints, M.dim, M.field)


def subspace_intersect(V: Subspace, W: Subspace, field) -> Subspace:
    """Zassenhaus intersection of two subspaces of the same ambient space.

    No verifier calls it: tests use it as the oracle's reference for
    ideal_intersect, comparing images in the model.
    """
    if V.ncols != W.ncols:
        raise UsageError("subspaces live in different ambient spaces")
    n = V.ncols
    zero = field.zero
    stacked = [list(r) + list(r) for r in V.rows]
    stacked += [list(r) + [zero] * n for r in W.rows]
    ech = _Echelon(2 * n, field)
    for r in stacked:
        ech.insert(r)
    inter = [row[n:] for row in ech.rows if all(x == 0 for x in row[:n])]
    return subspace_from_vectors(inter, n, field)


def _chain(M: VectorSpaceModel, V: Subspace) -> list:
    """[V, V^2, ...] up to the first power that equals the one before it.

    V^k is an ideal, so V^(k+1) = V^k V is spanned by the products of the
    rows of V^k with ideal generators of V. The dimensions fall until a power
    repeats (zero repeats itself), so the walk takes at most dim V + 1 steps.
    It runs once per model and subspace, and V enters M.chains only once it
    has passed the stability check.
    """
    chain = M.chains.get(V)
    if chain is not None:
        return chain
    p = M.field.p
    zero = M.field.zero
    ops = [_sparse(op) for op in _generator_operators(M, V, "oracle_power")]
    chain = [V]
    while chain[-1].dim:
        ech = _Echelon(M.dim, M.field)
        for op in ops:
            for row in chain[-1].rows:
                ech.insert(_apply_cols(op, row, p, zero))
        power = ech.snapshot()
        if power == chain[-1]:
            break
        chain.append(power)
    M.chains[V] = chain
    return chain


def oracle_power(M: VectorSpaceModel, V: Subspace, k: int) -> Subspace:
    """V^k as span of k-fold products; V^0 is the whole ring."""
    if type(k) is not int or k < 0:
        raise UsageError(f"subspace power must be a nonnegative int, got {k!r}")
    chain = _chain(M, V)
    if k == 0:
        return M.full_space()
    return chain[min(k, len(chain)) - 1]


def oracle_filtration_hilbert(M: VectorSpaceModel, K: Ideal) -> HilbertTable:
    """The filtration table of K in A computed purely from subspace dimensions."""
    V = subspace_of_ideal(M, K)
    if V.dim == M.dim:
        raise UsageError("ideal is the unit ideal in the quotient; a proper ideal is required")
    chain = _chain(M, V)
    if chain[-1].dim:
        raise PreconditionError("ideal is not nilpotent in the quotient (not m-primary)")
    dims = [M.dim] + [power.dim for power in chain]
    delta = len(dims) - 2
    values = tuple(dims[i] - dims[i + 1] for i in range(delta + 1))
    return HilbertTable(values, delta, KIND_FILTRATION)
