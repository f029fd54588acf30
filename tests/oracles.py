"""Independent closed-form oracles used to freeze expected values.

These deliberately avoid the library's ideal machinery: monomial quotients
are counted by brute-force box enumeration over exponent tuples, the
classical product formulas are evaluated directly, and saturations come from
sympy's lex Groebner bases.  The staircase count keeps its earlier
implementation here, a recursive walk over every variable, as the reference
for the closed form the library counts with.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from germlab.errors import IterationLimitError


def brieskorn_mu(*exponents: int) -> int:
    """Milnor number of x_1^a_1 + ... + x_k^a_k: prod (a_i - 1)."""
    out = 1
    for a in exponents:
        out *= a - 1
    return out


def thom_sebastiani(mu_h: int, n: int) -> int:
    """Milnor number of h(x, y) + z^n from the factor values."""
    return mu_h * (n - 1)


def homogeneous_plane_mu(degree: int) -> int:
    """Milnor number of a reduced homogeneous plane curve of the degree."""
    return (degree - 1) ** 2


def milnor_orlik_mu(weights: list[int], degree: int) -> Fraction:
    """Milnor number of a weighted-homogeneous germ with an isolated
    singularity, weights w_i and weighted degree d: prod (d/w_i - 1)
    (Milnor and Orlik, Topology 9, 1970)."""
    out = Fraction(1)
    for w in weights:
        out *= Fraction(degree, w) - 1
    return out


def monomial_quotient_count(generators: list[tuple[int, ...]]) -> int | None:
    """Dimension of k[x]/I for a monomial ideal by direct enumeration.

    Returns None when the quotient is infinite (some variable has no pure
    power among the generators).
    """
    if not generators:
        return None
    nvars = len(generators[0])
    bounds = []
    for i in range(nvars):
        pure = [g[i] for g in generators if all(e == 0 for j, e in enumerate(g) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    count = 0
    for exps in product(*(range(b) for b in bounds)):
        if not any(all(e >= ge for e, ge in zip(exps, gen)) for gen in generators):
            count += 1
    return count


def staircase_walk(lead: list[tuple[int, ...]], nvars: int, limit: int) -> tuple[int, int]:
    """(the number of monomials no leading monomial divides, 1 + their
    largest degree), by the recursive walk that ideals._staircase_count
    shortens; each variable must have a pure power among lead.  More than
    limit of them raise IterationLimitError, naming the count at the end of
    the first row of last exponents, in lexicographic order, past the limit.

    The exponents are fixed one variable at a time, keeping only the leading
    monomials whose exponents so far are at most the prefix's; each run of
    exponents over which the kept ones stay the same is walked once, down
    to the last variable, whose bound is the least exponent left.
    """
    last = nvars - 1

    def walk(k: int, lead: list[tuple[int, ...]], before: int) -> tuple[int, int]:
        """(count, largest degree) over the exponents of variables k..last,
        with before monomials counted ahead of them."""
        if k == last:
            top = min(lm[k] for lm in lead)
            if before + top > limit:
                raise IterationLimitError(
                    f"reduction step cap exceeded: the staircase has at least "
                    f"{before + top} standard monomials, more than the cap of {limit}"
                )
            return top, top - 1
        size, degree = 0, -1
        steps = sorted({lm[k] for lm in lead})
        for a, b in zip(steps, steps[1:]):
            active = [lm for lm in lead if lm[k] <= a]
            if any(not any(lm[k + 1 :]) for lm in active):
                break
            count, top = walk(k + 1, active, before + size)
            if before + size + (b - a) * count > limit:
                walk(k + 1, active, before + size + (limit - before - size) // count * count)
            size += (b - a) * count
            degree = max(degree, top + b - 1)
        return size, degree

    size, degree = walk(0, list(lead), 0)
    return size, degree + 1


def euler_chi_isolated(v: int, mu: int) -> int:
    """chi of the Milnor fibre of an isolated singularity in v variables."""
    return 1 + (-1) ** (v - 1) * mu


def sympy_saturation(
    generators: list[dict[tuple[int, ...], Fraction]], divisor: dict[tuple[int, ...], Fraction]
) -> list[dict[tuple[int, ...], Fraction]]:
    """A lex Groebner basis of I : f^infinity computed by sympy.

    Polynomials are term dicts {exponents: coefficient}.  The saturation is
    (I, 1 - t*f) ∩ Q[x], and the t-free part of a lex Groebner basis with t
    first is a lex Groebner basis of it (Cox-Little-O'Shea, Ideals,
    Varieties, and Algorithms, 3.1, the Elimination Theorem).  It is not
    rebased to grevlex: from lex elements of degree 20 and more sympy's
    grevlex basis can take minutes (see sympy_is_reduced_basis_of).  The
    caller must skip the test when sympy is absent.
    """
    import sympy

    nvars = len(next(iter(divisor)))
    t, *xs = sympy.symbols(f"t x0:{nvars}")

    def expr(terms):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v**e for v, e in zip(xs, exps)))
            for exps, c in terms.items()
        )

    lex = sympy.groebner([*map(expr, generators), 1 - t * expr(divisor)], t, *xs, order="lex")
    kept = [p for p in lex.exprs if t not in p.free_symbols]
    return [
        {exps: Fraction(int(c.p), int(c.q)) for exps, c in sympy.Poly(p, *xs).terms()}
        for p in kept
    ]


def sympy_is_reduced_basis_of(
    basis: list[dict[tuple[int, ...], Fraction]], lex: list[dict[tuple[int, ...], Fraction]], nvars: int
) -> bool:
    """Whether basis is the reduced monic grevlex Groebner basis of the ideal
    that the lex Groebner basis lex generates, checked by sympy.

    Polynomials are term dicts {exponents: coefficient} in nvars variables.
    sympy's reduced grevlex basis of basis must be basis itself, so basis is
    a reduced grevlex Groebner basis; then each side lies in the other's
    ideal when it divides to zero by the other, lex modulo basis under
    grevlex and basis modulo lex under lex.  A reduced basis is unique, so
    this says as much as comparing basis with sympy's grevlex basis of lex,
    without building that.  The caller must skip the test when sympy is
    absent.
    """
    import sympy

    if sorted(sorted(t.items()) for t in sympy_reduced_basis(basis, nvars)) != sorted(
        sorted(t.items()) for t in basis
    ):
        return False
    xs = sympy.symbols(f"x0:{nvars}")
    ours = [_sympy_poly(terms, xs) for terms in basis]
    theirs = [_sympy_poly(terms, xs) for terms in lex]
    return all(
        sympy.reduced(p, divisors, *xs, order=order, domain="QQ")[1].is_zero
        for dividends, divisors, order in ((theirs, ours, "grevlex"), (ours, theirs, "lex"))
        for p in dividends
    )


def _sympy_poly(terms: dict[tuple[int, ...], Fraction], xs):
    """The term dict {exponents: coefficient} as a sympy Poly over QQ in xs."""
    import sympy

    rational = {exps: sympy.Rational(c.numerator, c.denominator) for exps, c in terms.items()}
    return sympy.Poly.from_dict(rational, *xs, domain="QQ")


def sympy_remainder(
    p: dict[tuple[int, ...], Fraction], basis: list[dict[tuple[int, ...], Fraction]], nvars: int
) -> dict[tuple[int, ...], Fraction]:
    """Remainder of p on division by basis under grevlex, computed by sympy.

    Polynomials are term dicts {exponents: coefficient} in nvars variables.
    The remainder of sympy.reduced depends on its division strategy unless
    basis is a Groebner basis; the caller passes one and must skip the test
    when sympy is absent.
    """
    import sympy

    xs = sympy.symbols(f"x0:{nvars}")
    G = [_sympy_poly(terms, xs) for terms in basis]
    _, r = sympy.reduced(_sympy_poly(p, xs), G, *xs, order="grevlex", domain="QQ")
    return {exps: Fraction(int(c.p), int(c.q)) for exps, c in r.terms() if c}


def sympy_reduced_basis(
    generators: list[dict[tuple[int, ...], Fraction]], nvars: int
) -> list[dict[tuple[int, ...], Fraction]]:
    """Reduced monic grevlex Groebner basis computed by sympy.

    Polynomials are term dicts {exponents: coefficient} in nvars variables,
    the first variable ranking highest.  The computation runs over QQ, and
    each element is divided by its grevlex leading coefficient; the caller
    must skip the test when sympy is absent.
    """
    import sympy

    xs = sympy.symbols(f"x0:{nvars}")
    polys = [_sympy_poly(terms, xs) for terms in generators]
    basis = sympy.groebner(polys, *xs, order="grevlex", domain="QQ")
    out = []
    for p in basis.polys:
        monic = p.exquo_ground(p.LC(order="grevlex"))
        out.append({exps: Fraction(int(c.p), int(c.q)) for exps, c in monic.terms()})
    return out


def sympy_local_quotient_dim(generators: list[dict[tuple[int, ...], Fraction]], degree: int) -> int:
    """dim O/(J + m^degree) at the origin, computed by sympy.

    Polynomials are term dicts {exponents: coefficient}.  Q[x]/(J + m^D) is
    supported at the origin, so its dimension is the local one: the number
    of monomials outside the leading ideal of a grevlex Groebner basis of
    J plus every monomial of degree D.  It equals dim O/J once m^D lies in
    J; the caller must skip the test when sympy is absent.
    """
    import sympy

    nvars = len(next(iter(generators[0])))
    xs = sympy.symbols(f"x0:{nvars}")
    monomials = [e for e in product(range(degree + 1), repeat=nvars) if sum(e) <= degree]
    polys = [_sympy_poly(terms, xs) for terms in generators] + [
        sympy.Poly.from_dict({e: 1}, *xs, domain="QQ") for e in monomials if sum(e) == degree
    ]
    basis = sympy.groebner(polys, *xs, order="grevlex", domain="QQ")
    lead = [p.monoms(order="grevlex")[0] for p in basis.polys]
    return sum(
        1
        for e in monomials
        if sum(e) < degree and not any(all(a <= b for a, b in zip(lm, e)) for lm in lead)
    )
