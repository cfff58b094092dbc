"""Independent linear-algebra model of an Artinian quotient.

The model reads only J's reduced basis: build_model walks the border
monomials x_i b_c ascending in the term order, a leading monomial of a basis
element giving minus its tail and every other border monomial coming from a
smaller one through a matrix already built. The images of ambient
polynomials are monomials walked through those matrices. Everything after
that is exact row reduction: no normal form, colon, intersection, power or
Hilbert routine of the Groebner path is ever called, so agreement between
this module and that path is a genuine cross-check.

The image of an ideal, the ideal generators of a subspace and its stability
check all come from one span walk (_ideal_span), which builds the operator of
each generator it keeps. A model runs each walk once: it keeps the image of
each ambient ideal, the generator operators of each stable subspace, each
power chain, the rungs B^k -> (B, B^(k-1)) of those chains and each
annihilator. The annihilator of a chain power B^k comes from the rung below,
0 : B^k = (0 : B^(k-1)) : B, when that one is known, and its kernel is taken
in one walk over the unknowns (_null_space).

Inside the module vectors are sparse {column: entry} dicts holding only the
nonzero entries: the variables' columns, the operators built from them, their
products and the echelon rows. A homogeneous element maps each graded piece
into one piece, so these vectors are nearly empty. A Subspace keeps the rows
of the echelon that built it, keyed by pivot, and shares them with the memos:
nothing writes to a row once it is kept. Dense vectors exist only as
read-only views: Subspace.rows builds its dense tuples when read, and
VectorSpaceModel.coords, apply and operator_of return dense lists.
"""

from __future__ import annotations

from .errors import InternalError, PreconditionError, UsageError
from .groebner import Ideal
from .hilbert import KIND_FILTRATION, HilbertTable
from .ideal_ops import QuotientRing


def _sparse(vec) -> dict:
    """{column: entry} over the nonzero entries of a dense vector; dicts are copied."""
    if type(vec) is dict:
        return dict(vec)
    return {c: x for c, x in enumerate(vec) if x}


def _dense(vec, ncols, zero) -> list:
    return [vec.get(c, zero) for c in range(ncols)]


def _axpy(v, f, row, p) -> dict:
    """v += f * row in place, both sparse, over F_p (p) or Q (p None); returns v."""
    get = v.get
    for c, y in row.items():
        x = get(c, 0) + f * y
        if p:
            x %= p
        if x:
            v[c] = x
        else:
            del v[c]
    return v


def _reduce(v, rows, p) -> dict:
    """v reduced in place by reduced echelon rows keyed by pivot: one pass over its support."""
    for c in [c for c in v if c in rows]:
        _axpy(v, -v[c], rows[c], p)
    return v


def _times(columns, vec, p) -> dict:
    """The sparse product of a matrix, given by its sparse columns, and a sparse vector."""
    out = {}
    for c, x in vec.items():
        _axpy(out, x, columns[c], p)
    return out


class _Echelon:
    """Mutable reduced-row-echelon accumulator with exact field arithmetic.

    Rows are sparse {column: entry} dicts keyed by their pivot. In reduced
    echelon form a row is zero at every other pivot, so subtracting it never
    creates an entry at another pivot: a vector is reduced in one pass over
    the pivot columns of its own support, and back-substitution touches only
    the rows with an entry at the new pivot.
    """

    __slots__ = ("by_pivot", "ncols", "field", "p")

    def __init__(self, ncols, field):
        self.by_pivot = {}
        self.ncols = ncols
        self.field = field
        self.p = field.p

    def insert(self, vec) -> bool:
        """Reduce vec (dense, or a sparse dict) against the basis; absorb it if independent."""
        rows = self.by_pivot
        p = self.p
        v = _reduce(_sparse(vec), rows, p)
        if not v:
            return False
        pivot = min(v)
        v = _axpy({}, self.field.inv(v[pivot]), v, p)
        for row in rows.values():
            f = row.get(pivot)
            if f is not None:
                _axpy(row, -f, v, p)
        rows[pivot] = v
        return True

    def snapshot(self) -> "Subspace":
        """The canonical Subspace of the rows, which it takes over: insert no more."""
        return Subspace(self.by_pivot, self.ncols, self.field.zero)


class Subspace:
    """A subspace given by its reduced-row-echelon basis (canonical), keyed by pivot."""

    __slots__ = ("by_pivot", "pivots", "ncols", "zero")

    def __init__(self, by_pivot, ncols, zero):
        self.by_pivot = by_pivot
        self.pivots = tuple(sorted(by_pivot))
        self.ncols = ncols
        self.zero = zero

    @property
    def rows(self) -> tuple:
        """The basis as dense tuples in pivot order, built on each read."""
        return tuple(tuple(_dense(self.by_pivot[c], self.ncols, self.zero)) for c in self.pivots)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def __eq__(self, other):
        return (
            type(other) is Subspace
            and other.ncols == self.ncols
            and other.by_pivot == self.by_pivot
        )

    def __hash__(self):
        # Equal subspaces share their pivots, as the echelon basis is canonical;
        # hashing the rows would hash every entry (a Python-level hash per Fraction).
        return hash((self.pivots, self.ncols))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ncols})"


def subspace_from_vectors(vectors, ncols, field) -> Subspace:
    ech = _Echelon(ncols, field)
    for v in vectors:
        ech.insert(v)
    return ech.snapshot()


class VectorSpaceModel:
    """Multiplication matrices of an Artinian quotient over its standard basis."""

    __slots__ = (
        "quotient", "ring", "field", "basis", "index", "cols", "steps",
        "chains", "images", "operators", "rungs", "annihilators",
    )

    def __init__(self, quotient, basis, index, cols, steps):
        self.quotient = quotient
        self.ring = quotient.ring
        self.field = quotient.ring.field
        self.basis = basis
        self.index = index
        self.cols = cols  # cols[i][c]: the sparse image of basis element c times variable i
        self.steps = steps
        # Memos; each walk or kernel runs once per model (see _chain and annihilator).
        self.chains = {}  # stable subspace V -> its power chain [V, V^2, ...]
        self.images = {}  # generators of an ambient ideal -> its image
        self.operators = {}  # stable subspace -> operators of ideal generators of it
        self.rungs = {}  # B^k (k >= 2) from a chain -> (B, B^(k-1))
        self.annihilators = {}  # stable subspace -> its annihilator

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, f) -> list:
        """Coordinates of the image of an ambient polynomial."""
        if f.ring != self.ring:
            raise UsageError("polynomial lives in a different ring")
        return _dense(_image(self, f), self.dim, self.field.zero)

    def full_space(self) -> Subspace:
        one = self.field.one
        return Subspace({r: {r: one} for r in range(self.dim)}, self.dim, self.field.zero)

    def apply(self, var: int, vec) -> list:
        """Multiply the element with these coordinates by the given variable."""
        return _dense(_times(self.cols[var], _sparse(vec), self.field.p), self.dim, self.field.zero)

    def operator_of(self, vec) -> list:
        """Columns of multiplication by the element with these coordinates."""
        return [_dense(column, self.dim, self.field.zero) for column in _operator(self, _sparse(vec))]


def _operator(M: VectorSpaceModel, v: dict) -> list:
    """Sparse columns of multiplication by v: column r is b_r * v.

    They are built by walking the division-closed basis (each basis monomial
    is a variable times an earlier one).
    """
    p = M.field.p
    columns = [v]
    for var, parent in M.steps[1:]:
        columns.append(_times(M.cols[var], columns[parent], p))
    return columns


def _walk(M: VectorSpaceModel, exps) -> dict:
    """Sparse coordinates of the monomial x^exps, walked through the matrices.

    A standard monomial is a unit vector. Any other starts from 1 and takes one
    matrix step per unit of each exponent; the walk stops once the vector is
    zero, as a high enough power is in a local quotient.
    """
    one = M.field.one
    c = M.index.get(exps)
    if c is not None:
        return {c: one}
    p = M.field.p
    v = {0: one}
    for columns, k in zip(M.cols, exps):
        for _ in range(k):
            v = _times(columns, v, p)
            if not v:
                return v
    return v


def _image(M: VectorSpaceModel, f) -> dict:
    """Sparse coordinates of the image of an ambient polynomial, term by term."""
    p = M.field.p
    v = {}
    for exps, c in f.iter_terms():
        _axpy(v, c, _walk(M, exps), p)
    return v


def build_model(A: QuotientRing) -> VectorSpaceModel:
    """Multiplication matrices for every variable, read off J's reduced basis.

    Column c of variable i's matrix holds the coordinates of x_i b_c. A
    standard x_i b_c gives a unit vector. The border monomials are walked
    ascending in the term order: the leading monomial of a basis element g
    gives -(tail of g), and any other border monomial t has a variable x_j
    with t / x_j outside the staircase too, so its column is M_j applied to
    the column of t / x_j. Every coordinate of a column sits below its
    monomial, so the columns M_j needs are built already.

    Commutativity is asserted column by column: x_i (x_j b_c) = x_j (x_i b_c)
    for every pair of variables and every basis element b_c. Commuting
    multiplication matrices of a border prebasis certify a border basis
    (Mourrain, AAECC-13, LNCS 1719, 1999), so a published basis that is not a
    Groebner basis fails here.
    """
    ring = A.ring
    field = ring.field
    basis = A.standard_monomials
    if not basis:
        raise UsageError("cannot model the zero ring")
    index = {e: i for i, e in enumerate(basis)}
    n = ring.nvars
    dim = len(basis)
    p = field.p
    one = field.one
    cols = [[None] * dim for _ in range(n)]
    border = {}  # border monomial -> the (variable, column) pairs that reach it
    for c, e in enumerate(basis):
        for i in range(n):
            t = e[:i] + (e[i] + 1,) + e[i + 1 :]
            r = index.get(t)
            if r is None:
                border.setdefault(t, []).append((i, c))
            else:
                cols[i][c] = {r: one}
    columns = {}  # border monomial -> its column, the basis's leading monomials first
    for g in A.defining.groebner_basis():
        (lead, lc), *tail = g.iter_terms()
        scale = field.neg(field.inv(lc))
        try:
            columns[lead] = {index[e]: field.mul(scale, x) for e, x in tail}
        except KeyError as missing:
            raise InternalError(f"non-standard monomial {missing.args[0]} in a basis tail") from None
    for t in sorted(border, key=ring.order.key):
        column = columns.get(t)
        if column is None:
            j, u = next(
                (j, u)
                for j in range(n)
                if t[j] and (u := t[:j] + (t[j] - 1,) + t[j + 1 :]) not in index
            )
            column = columns[t] = _times(cols[j], columns[u], p)
        for i, c in border[t]:
            cols[i][c] = column
    steps = [None] * dim
    for r in range(1, dim):
        e = basis[r]
        var = next(i for i, x in enumerate(e) if x > 0)
        parent = tuple(x - 1 if i == var else x for i, x in enumerate(e))
        steps[r] = (var, index[parent])
    M = VectorSpaceModel(A, basis, index, tuple(map(tuple, cols)), tuple(steps))
    for i in range(n):
        for j in range(i + 1, n):
            ci, cj = M.cols[i], M.cols[j]
            if any(_times(ci, cj[c], p) != _times(cj, ci[c], p) for c in range(dim)):
                raise InternalError(
                    f"multiplication matrices for {ring.variables[i]} and "
                    f"{ring.variables[j]} do not commute"
                )
    return M


def _ideal_span(M: VectorSpaceModel, vectors, limit):
    """The ideal of A spanned by the sparse vectors, and the operators of those that generate it.

    A vector is kept when it lies outside the ideal spanned by the vectors
    kept before it; the columns b_r * v of its operator then join the span
    (column 0 is v itself, as b_0 = 1). No locality is assumed, so this holds
    on non-local quotients too. The walk gives up, returning None, as soon as
    the columns of a kept vector take the span's dimension past limit.
    """
    ideal = _Echelon(M.dim, M.field)
    operators = []
    for v in vectors:
        if ideal.insert(v):
            operator = _operator(M, v)
            operators.append(operator)
            for column in operator[1:]:
                ideal.insert(column)
            if len(ideal.by_pivot) > limit:
                return None
    return ideal, operators


def subspace_of_ideal(M: VectorSpaceModel, K: Ideal) -> Subspace:
    """The image of an ambient ideal in A, closed under all multiplications.

    The walk runs once per model and generator tuple; the operators it keeps
    generate the image as an ideal, so they serve _chain and annihilator too.
    """
    if K.ring != M.ring:
        raise UsageError("ideal lives in a different ring")
    V = M.images.get(K.generators)
    if V is None:
        vectors = [_image(M, g) for g in K.generators]
        ideal, operators = _ideal_span(M, vectors, M.dim)
        V = M.images[K.generators] = ideal.snapshot()
        M.operators.setdefault(V, operators)
    return V


def _generator_operators(M: VectorSpaceModel, V: Subspace, caller: str) -> list:
    """The operators of ideal generators of V, walked once per model and subspace.

    The ideal the rows of V generate contains V, so V is an ideal of A
    (multiplication-stable) exactly when that ideal has dimension dim V; the
    walk stops as soon as it outgrows V.
    """
    operators = M.operators.get(V)
    if operators is None:
        if V.ncols != M.dim:
            raise UsageError("subspace dimension does not match the model")
        span = _ideal_span(M, [V.by_pivot[c] for c in V.pivots], V.dim)
        if span is None:
            raise UsageError(f"{caller} requires a multiplication-stable subspace")
        operators = M.operators[V] = span[1]
    return operators


def _null_space(columns, field) -> Subspace:
    """The canonical basis of {a : sum_c a_c columns[c] = 0}, in one walk.

    The columns are sparse dicts over comparable keys. They are walked from
    the last to the first, and each is reduced, greatest key first, against
    the triangular columns kept so far, carrying the combination of unknowns
    it stands for. A column that vanishes leaves a kernel row with pivot c and
    entry 1 there. Its other entries sit at later unknowns whose columns were
    kept, never at a pivot, so the rows already form the reduced echelon
    basis (pivot = least column) and need no second echelon pass.
    """
    p = field.p
    one = field.one
    kept = {}  # greatest key -> (column, combination), scaled to 1 at that key
    kernel = {}
    for c in range(len(columns) - 1, -1, -1):
        image = dict(columns[c])
        combination = {c: one}
        while image:
            top = max(image)
            row = kept.get(top)
            if row is None:
                if image[top] != one:
                    scale = field.inv(image[top])
                    image = _axpy({}, scale, image, p)
                    combination = _axpy({}, scale, combination, p)
                kept[top] = (image, combination)
                break
            f = -image[top]
            _axpy(image, f, row[0], p)
            _axpy(combination, f, row[1], p)
        else:
            kernel[c] = combination
    return Subspace(kernel, len(columns), field.zero)


def annihilator(M: VectorSpaceModel, V: Subspace) -> Subspace:
    """{a in A : a V = 0}, the kernel of the maps a -> (a * g mod W) over generators g.

    V must be stable under the multiplication matrices (an ideal of A). When
    V = B^k is a power that _chain built and 0 : B^(k-1) is already kept,
    (I : A) : B = I : AB gives 0 : B^k = (0 : B^(k-1)) : B: the generators g
    are those of B and W = 0 : B^(k-1), an ideal, so a B^k = 0 iff each
    a g lies in W. Otherwise the g are ideal generators of V itself and
    W = 0. Nothing recurses: the first branch only reads the kept rung below.
    Each result is kept per model, so rungs asked for in ascending order all
    take the first branch after the first, and a lone query solves only its
    own rung. The kernel comes from _null_space over the stacked images
    (b_c g_l mod W)_l of the unknowns b_c.
    """
    ann = M.annihilators.get(V)
    if ann is not None:
        return ann
    rung = M.rungs.get(V)
    below = M.annihilators.get(rung[1]) if rung else None
    if below is not None:
        operators, modulus = M.operators[rung[0]], below.by_pivot
    else:
        operators, modulus = _generator_operators(M, V, "annihilator"), {}
    p = M.field.p
    dim = M.dim
    columns = []  # column c, entry l * dim + r: b_r-coefficient of b_c * g_l mod W
    for c in range(dim):
        image = {}
        for l, operator in enumerate(operators):
            for r, x in _reduce(dict(operator[c]), modulus, p).items():
                image[l * dim + r] = x
        columns.append(image)
    M.annihilators[V] = ann = _null_space(columns, M.field)
    return ann


def subspace_intersect(V: Subspace, W: Subspace, field) -> Subspace:
    """Zassenhaus intersection of two subspaces of the same ambient space.

    No verifier calls it: tests use it as the oracle's reference for
    ideal_intersect, comparing images in the model.
    """
    if V.ncols != W.ncols:
        raise UsageError("subspaces live in different ambient spaces")
    n = V.ncols
    ech = _Echelon(2 * n, field)
    for r in V.by_pivot.values():
        ech.insert({**r, **{c + n: x for c, x in r.items()}})
    for r in W.by_pivot.values():
        ech.insert(r)
    inter = [
        {c - n: x for c, x in row.items()} for pivot, row in ech.by_pivot.items() if pivot >= n
    ]
    return subspace_from_vectors(inter, n, field)


def _chain(M: VectorSpaceModel, V: Subspace) -> list:
    """[V, V^2, ...] up to the first power that equals the one before it.

    V^k is an ideal, so V^(k+1) = V^k V is spanned by the products of the
    rows of V^k with ideal generators of V. The dimensions fall until a power
    repeats (zero repeats itself), so the walk takes at most dim V + 1 steps.
    It runs once per model and subspace, and V enters M.chains only once it
    has passed the stability check. Each power V^k it builds (k >= 2) enters
    M.rungs as (V, V^(k-1)), for annihilator's recurrence.
    """
    chain = M.chains.get(V)
    if chain is not None:
        return chain
    p = M.field.p
    ops = _generator_operators(M, V, "oracle_power")
    chain = [V]
    while chain[-1].dim:
        ech = _Echelon(M.dim, M.field)
        for op in ops:
            for row in chain[-1].by_pivot.values():
                ech.insert(_times(op, row, p))
        power = ech.snapshot()
        if power == chain[-1]:
            break
        M.rungs.setdefault(power, (V, chain[-1]))
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
