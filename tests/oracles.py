"""Test-local independent oracles.

Everything in this module is deliberately naive and self-contained:
list-based polynomial arithmetic over ``Fraction``, brute-force
set-partition enumeration, and the textbook alternating-sum/recurrence
formulas, and truncated EGFs as coefficient lists.  Nothing here imports
from the package under test, so agreement between these values and the
library is evidence, not circularity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import comb, factorial


# --- list-based polynomial arithmetic (coefficients low-to-high) ------------


def poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def poly_add(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for j, bj in enumerate(b):
        out[j] += bj
    return out


def poly_scale(a: list, c) -> list:
    return [ai * c for ai in a]


def poly_pow(a: list, n: int) -> list:
    out = [Fraction(1)]
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def falling_poly(n: int, lam: Fraction, shift: Fraction = Fraction(0)) -> list:
    """(x + shift)(x + shift - lam) ... (x + shift - (n-1) lam) as a list."""
    out = [Fraction(1)]
    for i in range(n):
        out = poly_mul(out, [shift - i * lam, Fraction(1)])
    return out


def rising_poly(n: int, lam: Fraction, shift: Fraction = Fraction(0)) -> list:
    """(x + shift)(x + shift + lam) ... (x + shift + (n-1) lam) as a list."""
    out = [Fraction(1)]
    for i in range(n):
        out = poly_mul(out, [shift + i * lam, Fraction(1)])
    return out


def expand_in_falling_basis(target: list, lam: Fraction) -> list:
    """Coefficients c_k with target = sum_k c_k * falling_poly(k, lam),
    found by naive leading-term elimination (the basis is monic and
    degree-graded)."""
    work = [Fraction(c) for c in target]
    while work and work[-1] == 0:
        work.pop()
    coeffs = [Fraction(0)] * len(work)
    for k in range(len(work) - 1, -1, -1):
        c = work[k] if k < len(work) else Fraction(0)
        if c == 0:
            continue
        coeffs[k] = c
        basis = falling_poly(k, lam)
        for i, bi in enumerate(basis):
            work[i] -= c * bi
    assert all(w == 0 for w in work), "nonzero remainder in naive expansion"
    return coeffs


def naive_rstirling2(n: int, k: int, r: int, lam: Fraction) -> Fraction:
    """Coefficient of the k-th falling factorial in (x + r)^n, by naive
    expansion."""
    return naive_whitney_r(n, k, 1, r, lam)


def naive_whitney_r(n: int, k: int, m: int, r: int, lam: Fraction) -> Fraction:
    """Coefficient of m^k (x)_{k,lam} in (m x + r)^n, by naive expansion."""
    row = whitney_type_row(n, m, r, lam)
    return row[k] if k < len(row) else Fraction(0)


def poly_sub(a: list, b: list) -> list:
    return poly_add(a, poly_scale(b, -1))


def strip(a: list) -> list:
    """Drop trailing zero coefficients."""
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return out


def lambda_coeffs(value) -> list:
    """A library value as its list of lambda coefficients, trailing zeros
    stripped, as the list oracles give it: a polynomial by its ``coeffs``,
    a scalar as a list of at most one entry."""
    coeffs = getattr(value, "coeffs", None)
    return list(coeffs) if coeffs is not None else strip([value])


# --- symbolic lambda: polynomials in x whose coefficients are lists in lambda


def bipoly_mul(a: list, b: list) -> list:
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = poly_add(out[i + j], poly_mul(ai, bj))
    return out


def factorial_bipoly(n: int, shift: int, sign: int) -> list:
    """(x + shift)(x + shift + sign*lam) ... (x + shift + sign*(n-1)*lam)
    with lam symbolic."""
    out = [[Fraction(1)]]
    for i in range(n):
        out = bipoly_mul(out, [[Fraction(shift), Fraction(sign * i)], [Fraction(1)]])
    return out


def expand_in_falling_basis_symbolic(target: list) -> list:
    """Lambda-coefficient lists c_k with target = sum_k c_k (x)_{k,lam}, lam
    symbolic, by the same leading-term elimination as the fixed version."""
    work = [list(c) for c in target]
    coeffs = [[] for _ in work]
    basis = [[[Fraction(1)]]]
    for i in range(len(work) - 1):
        basis.append(bipoly_mul(basis[-1], [[Fraction(0), Fraction(-i)], [Fraction(1)]]))
    for k in range(len(work) - 1, -1, -1):
        c = work[k]
        coeffs[k] = c
        for i, bi in enumerate(basis[k]):
            work[i] = poly_sub(work[i], poly_mul(c, bi))
    assert all(not any(w) for w in work), "nonzero remainder in naive expansion"
    return coeffs


# --- whole rows of every family; lam=None keeps lambda symbolic, and then an
# --- entry is its list of lambda coefficients with trailing zeros stripped


def whitney_type_row(n: int, m: int, r: int, lam) -> list:
    """Coefficients of m^k (x)_{k,lam} in (m x + r)^n for k = 0..n; m = 1
    gives the r-shifted second kind."""
    if lam is None:
        target = [[Fraction(1)]]
        for _ in range(n):
            target = bipoly_mul(target, [[Fraction(r)], [Fraction(m)]])
        coeffs = expand_in_falling_basis_symbolic(target)
        return [
            strip(poly_scale(c, Fraction(1, m**k))) for k, c in enumerate(coeffs)
        ]
    coeffs = expand_in_falling_basis(poly_pow([Fraction(r), Fraction(m)], n), lam)
    return [c / m**k for k, c in enumerate(coeffs)]


def first_kind_row(n: int, r: int, sign: int, lam) -> list:
    """Coefficients of x^k in (x + r)(x + r + sign*lam)...(x + r + sign*(n-1)*lam):
    sign -1 is the signed first kind, +1 the unsigned one."""
    if lam is None:
        return [strip(c) for c in factorial_bipoly(n, r, sign)]
    if sign < 0:
        return falling_poly(n, lam, Fraction(r))
    return rising_poly(n, lam, Fraction(r))


def recurrence_rows(n_max: int, alpha: int = 0, beta: int = 0, gamma: int = 0,
                    r: int = 0):
    """Rows 0..n_max of T(n+1, k) = T(n, k-1) + (lam (beta k - alpha n + gamma)
    + r) T(n, k), T(0, 0) = 1, with lam symbolic, stepped entry by entry in
    list arithmetic: each entry is its list of lambda coefficients, trailing
    zeros stripped."""
    row = [[Fraction(1)]]
    for n in range(n_max + 1):
        yield [strip(c) for c in row]
        below = row + [[]]
        row = [poly_add(below[k - 1] if k else [],
                        poly_mul([Fraction(r), Fraction(beta * k - alpha * n + gamma)],
                                 below[k]))
               for k in range(n + 2)]


# --- brute-force set partitions ---------------------------------------------


def set_partitions(items: list):
    """Yield every partition of ``items`` as a list of blocks (lists)."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [[head] + partial[i]] + partial[i + 1 :]
        yield [[head]] + partial


def count_partitions(n: int, k: int) -> int:
    """Ordinary Stirling number of the second kind by enumeration."""
    return sum(1 for p in set_partitions(list(range(n))) if len(p) == k)


def count_r_partitions(n: int, k: int, r: int) -> int:
    """Partitions of {0..n+r-1} into k+r nonempty blocks where the first r
    elements land in pairwise distinct blocks."""
    total = 0
    for p in set_partitions(list(range(n + r))):
        if len(p) != k + r:
            continue
        if all(sum(1 for e in block if e < r) <= 1 for block in p):
            total += 1
    return total


# --- classical sequences -----------------------------------------------------


def classical_bernoulli(n_max: int) -> list:
    """B_0..B_{n_max} via the defining recurrence
    sum_{j<=n} C(n+1, j) B_j = 0 (n >= 1), B_0 = 1."""
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = sum(comb(n + 1, j) * values[j] for j in range(n))
        values.append(Fraction(-acc, n + 1))
    return values


def higher_bernoulli(m: int, n_max: int) -> list:
    """B_0^(m)..B_{n_max}^(m) for a small order m as the m-fold EGF product
    of the classical numbers, (t/(e^t - 1))^m = (sum B_n t^n/n!)^m: no
    series power and no power recurrence."""
    base = classical_bernoulli(n_max)
    product = base
    for _ in range(m - 1):
        product = egf_mul(product, base)
    return product


def alternating_sum_stirling2(n: int, k: int) -> Fraction:
    """Ordinary second-kind number by the alternating binomial sum."""
    total = sum((-1) ** (k - l) * comb(k, l) * l**n for l in range(k + 1))
    return Fraction(total, factorial(k))


def egf_mul(a: list, b: list) -> list:
    """Product of two truncated EGFs given as coefficient lists: the
    binomial convolution, truncated to the shorter list."""
    return [
        sum(comb(n, l) * a[l] * b[n - l] for l in range(n + 1))
        for n in range(min(len(a), len(b)))
    ]


def egf_power_ring(a: list, k: int) -> list:
    """A^k for an integer k and an EGF coefficient list with a[0] != 0, by
    Miller's recurrence a_0 b_(n+1) = sum_i (k C(n, i-1) - C(n, i)) a_i
    b_(n+1-i), run step by step in plain ``Fraction`` arithmetic."""
    a = [Fraction(c) for c in a]
    b = [a[0] ** k]
    for n in range(len(a) - 1):
        acc = sum((k * comb(n, i - 1) - comb(n, i)) * a[i] * b[n + 1 - i]
                  for i in range(1, n + 2))
        b.append(acc / a[0])
    return b


def egf_exp(a: list) -> list:
    """e^a for an EGF coefficient list with a[0] = 0, as the finite power
    sum 1 + a + a^2/2! + ... (a^k has no term below t^k)."""
    term = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    total = list(term)
    for k in range(1, len(a)):
        term = [c / k for c in egf_mul(term, a)]
        total = [x + y for x, y in zip(total, term)]
    return total


def egf_mul_symbolic(a: list, b: list) -> list:
    """``egf_mul`` for coefficients that are lambda-coefficient lists."""
    out = []
    for n in range(min(len(a), len(b))):
        total = []
        for l in range(n + 1):
            if a[l] and b[n - l]:
                # b's term leads: poly_mul skips the zeros of its first factor
                term = poly_scale(poly_mul(b[n - l], a[l]), comb(n, l))
                total = poly_add(total, term)
        out.append(strip(total))
    return out


def series_columns(m: int, r: int, lam, order: int):
    """Yield the columns k = 0, 1, ... of ((e^{lam m t} - 1)/(lam m))^k
    e^{r t} / k!, truncated at ``order``: C_0 = e^{r t} and C_k = C_{k-1}
    E / k by one EGF product, E written out from its EGF coefficients 0 and
    (lam m)^(n-1).  Every coefficient is its list of lambda coefficients,
    trailing zeros stripped; lam=None keeps lambda symbolic, and a fixed
    lam gives constant lists."""
    lm = [Fraction(0), Fraction(m)] if lam is None else [lam * m]
    base = [[]] + [strip(poly_pow(lm, n - 1)) for n in range(1, order + 1)]
    column = [strip([Fraction(r) ** n]) for n in range(order + 1)]
    for k in count(1):
        yield column
        column = [poly_scale(c, Fraction(1, k)) for c in egf_mul_symbolic(column, base)]
