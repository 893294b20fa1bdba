"""Slow, obvious reference computations that the tests check the library's
fast paths against.  They are kept out of the package: a job never runs them."""


def mahler_coeffs_by_differences(p, values, prec):
    """Independent oracle: c_n = Σ_i (-1)^(n-i) C(n, i) f(i), n < len(values).
    Row n of signed binomials mod p^prec comes from row n - 1 by Pascal's
    rule, so each term is a product of two residues, not of an m-bit C(n, i)."""
    mod = p**prec
    values = [v % mod for v in values]
    out, row = [], [1]
    for _ in values:
        out.append(sum(map(int.__mul__, row, values)) % mod)
        row = [(b - a) % mod for a, b in zip(row + [0], [0] + row)]
    return out


def exact_binomial_sum_oracle(p, values, prec):
    """Oracle: c_n = Σ_i (-1)^(n-i) C(n, i) f(i) over exact integers, reduced
    mod p^prec once per n; its sums grow to about len(values) bits."""
    mod = p**prec
    out = []
    for n in range(len(values)):
        acc, c = 0, 1
        for i in range(n + 1):
            acc += (-1) ** (n - i) * c * values[i]
            c = c * (n - i) // (i + 1)  # C(n, i + 1)
        out.append(acc % mod)
    return out
