"""The column engine: whole columns of rho by one exact recurrence in n.

`iter_columns(spec, weights, nmax)` yields the columns
R_{., n} = sum_m w_m rho^m_{., n}, n = 0..nmax, for `weights` mapping each
degree m to its exact w_m, an int or a Fraction ({m: 1} is the table of
P_m).  Column n holds j = 0..M+n+1, M the highest degree of nonzero weight
(0 when there is none), as int numerators over one positive denominator,
(nums, den), with its content divided out.  No closed form is evaluated.

rho is linear in P_m and the recurrence is linear in rho.  With the
derivative connection P_n = A_n P'_{n+1} + B_n P'_n + C_n P'_{n-1} and
h_j = sum_m w_m [A_m d_{j,m+1} + B_m d_{j,m} + C_m d_{j,m-1}] (d the
Kronecker delta), column 0 is h for j >= 1, and for j >= 1

    A_n R_{j,n+1} = A_{j-1} R_{j-1,n} + (B_j - B_n) R_{j,n}
                    + C_{j+1} R_{j+1,n} - C_n R_{j,n-1} + E_n h_j

with E_n = A_n P_{n+1}(-a) + B_n P_n(-a) + C_n P_{n-1}(-a).  Each j = 0
entry closes its column through sum_j R_{j,n} P_j(-a) = 0, since the
convolution vanishes at x = -2a (P_0 = 1).

Four module functions on int pairs run it, with no Fraction made: `set_up`
fixes once the rows a column can reach, as runs, and their data; `step`
makes the next column, `close` its j = 0 entry, `content` divides out its
gcd.  No row between two far-apart weights is visited, so a weight costs
O(nmax) rows of set-up and of every step; O(top) work remains in each run's
first endpoint value (a rising factorial) and the list lengths.

The endpoint column that E_n and the closing sum read is P_k(-a) on the
runs (`endpoint_runs`), from the family constant (sigma, c) of
P_k(-a) = sigma^k (c)_k / k! that `basis.FamilySpec._endpoint_constant`
states: int numerators over the denominator of the highest value, a
closed form in c's denominator (`_endpoint_den`: Legendre's formula for
the prime powers of n!), each run from one rising factorial of c stepped
by the term ratio sigma (c + k) / (k + 1).  The derivative connection is
`basis.connection_ints`, so no family is named here.

The rest of the module reads the layout: `cells` and `rows` make one
Fraction per cell as it is read, `cut` keeps a table's rows, `combine`
sums weighted columns, and `write_jn_rows` writes `j,n,value` lines.
"""

import math
from fractions import Fraction
from itertools import repeat

from .basis import FamilySpec, connection_ints
from .errors import IndexContractError, IndexOutOfRangeError
from .scalars import lowest, over_lcm_ints, pochhammer_ints

_ZERO = Fraction(0)


def _endpoint_den(spec: FamilySpec, n: int) -> int:
    """The denominator of P_n(-a) in lowest terms, in closed form.

    P_n(-a) = +-(c)_n / n! with c = P/Q in lowest terms from the spec's
    `_endpoint_constant`, and (c)_n / n! = prod_{i<n} (P + iQ) / (Q^n n!).
    A prime l dividing Q divides no factor P + iQ, so it keeps all of
    Q^n n!: n v_l(Q) + v_l(n!), with v_l(n!) = sum_i floor(n / l^i)
    (Legendre's formula).  For a prime l not dividing Q, n consecutive
    terms of the progression P + iQ meet every power of l no later than
    1..n do, so n!'s powers of l cancel.  So the denominator is
    Q^n prod_{l | Q} l^(v_l(n!)), and Q is the row's small denominator
    (1 for a generic sequence, whose P_n(-a) are ints).
    A prime l > n has v_l(n!) = 0, so trial division stops at
    min(sqrt(Q), n) and a large prime in Q costs nothing."""
    q = spec._endpoint_constant[2]
    den, rest, ell = q ** n, q, 2
    while rest > 1 and ell <= n:  # the primes l <= n of Q, trial division
        if ell * ell > rest:  # rest is a prime
            if rest > n:
                break
            ell = rest
        if rest % ell == 0:
            while rest % ell == 0:
                rest //= ell
            v, t = 0, n
            while t:
                t //= ell
                v += t
            den *= ell ** v
        ell += 1
    return den


def endpoint_runs(spec: FamilySpec, runs, n: int) -> tuple:
    """(nums, den) with P_k(-a) = nums[k] / den for every k in the runs
    [lo, hi) of `runs`, disjoint and within 0..n, and nums[k] = 0 for the
    other k <= n; den is the denominator of P_n(-a) in lowest terms, in
    closed form from `_endpoint_den`, and the least common denominator of
    every P_k(-a), k <= n, since those of (c)_k / k! divide one another
    as k grows.

    Every value is read from the spec's `_endpoint_constant` (sigma, P,
    Q), P_k(-a) = sigma^k (P/Q)_k / k!.  Each run starts from one
    `pochhammer_ints(P, Q, lo)` over Q^lo lo!, and each value after it is
    the one before times sigma (P + kQ) / (Q (k+1)), an exact division by
    a small int: one step per k in the runs, none for the k between them.
    The run starts are not stepped: each is a product of O(lo) factors,
    and nums is allocated at full length."""
    if n < 0:
        raise IndexOutOfRangeError("degree must be nonnegative")
    sigma, p, q = spec._endpoint_constant
    den = _endpoint_den(spec, n)
    nums = [0] * (n + 1)
    for lo, hi in runs:
        num, num_den = pochhammer_ints(p, q, lo)
        v = sigma ** lo * num * den // (num_den * math.factorial(lo))
        nums[lo] = v
        for k in range(lo, hi - 1):
            v = v * (sigma * (p + k * q)) // (q * (k + 1))
            nums[k + 1] = v
    return nums, den


def set_up(spec: FamilySpec, weights: dict, nmax: int) -> tuple:
    """(runs, ends, conn, table, image) for nonzero `weights`: the runs
    [lo, hi), rows within nmax + 1 of row 0 or of a weight (column n + 1
    is zero past n + 2 rows from them); P_k(-a) as a column on the runs
    (`endpoint_runs`); conn[k] = (A_k, B_k, C_k), int pairs from
    `basis.connection_ints`; table[k] = (l_k, l_k A_{k-1}, l_k B_k,
    l_k C_{k+1}), l_k the lcm of their denominators; and h as a column."""
    if nmax < 0 or min(weights, default=0) < 0:
        raise IndexContractError("degrees must be nonnegative")
    top = max(weights, default=0) + nmax + 2
    runs = []
    for m in sorted({0, *weights}):
        lo, hi = max(0, m - nmax - 1), min(top, m + nmax + 2)
        if runs and lo <= runs[-1][1]:
            runs[-1] = runs[-1][0], hi
        else:
            runs.append((lo, hi))
    ends = endpoint_runs(spec, runs, top)
    visits = [k for lo, hi in runs for k in range(lo or 1, hi)]
    conn = {k: connection_ints(spec, k) for k in
            {0, *weights, *(i for k in visits for i in (k - 1, k, k + 1))}}
    table = [None] * top
    for k in visits:
        pairs = (conn[k - 1][0], conn[k][1], conn[k + 1][2])
        weight = math.lcm(*(y for _, y in pairs))
        table[k] = (weight, *(x * (weight // y) for x, y in pairs))
    # h as int pairs from the weights' numerators and denominators
    image = {}
    for m, w in weights.items():
        wn, wd = w.numerator, w.denominator
        for k, (x, y) in zip((m + 1, m, m - 1), conn[m]):
            if k >= 1 and x:
                p, q = image.get(k, (0, 1))
                image[k] = p * wd * y + wn * x * q, q * wd * y
    h = [0] * (top + 1)
    image_nums, h_den = over_lcm_ints(image.values())
    for k, v in zip(image, image_nums):
        h[k] = v
    return runs, ends, conn, table, (h, h_den)


def step(n: int, cur: tuple, prev: tuple, data: tuple) -> tuple:
    """Column n + 1, its j = 0 entry 0 until `close`, from columns n and
    n - 1 (([], 1) at n = 0), which it does not change.  Row k's equation
    times l_k is an int combination of the numerators; the column terms
    share one denominator G; each row's l_k is divided back out by its gcd
    with the row's value, so the column's denominator is G times the lcm
    of what is left.  A row whose operands are all zero is skipped."""
    runs, (ends, end_den), conn, table, (h, h_den) = data
    (cur, den), (prev, prev_den) = cur, prev
    size = len(cur) + 1
    cur, prev = cur + [0, 0], prev + [0] * (size - len(prev))
    (an, ad), (bn, bd), (cn, cd) = conn[n]
    # E_n times end_den; C_0 = 0, so n = 0 reads no P_{-1}(-a)
    en, ed = 0, 1
    for (x, y), k in zip(conn[n], (n + 1, n, n - 1)):
        if x:
            en, ed = en * y + x * ends[k] * ed, ed * y
    # R_{., n+1} = [rows/l_k / den - B_n cur / den - C_n prev / prev_den
    #               + E_n h / h_den] / A_n, the column terms over G
    (u, vb, vc, w), g_den = over_lcm_ints((
        (ad, an * den), (-bn * ad, bd * an * den),
        (-cn * ad, cd * an * prev_den),
        (en * ad, ed * an * h_den * end_den)))
    nxt, row_dens = [0] * size, []
    for lo, hi in runs:
        for k in range(lo or 1, min(hi, size)):
            x0, x1, x2, y, z = cur[k - 1], cur[k], cur[k + 1], prev[k], h[k]
            if not (x0 or x1 or x2 or y or z):
                continue
            weight, ra, rb, rc = table[k]
            t = u * (ra * x0 + rb * x1 + rc * x2) + weight * (
                vb * x1 + vc * y + w * z)
            if weight > 1:
                g = math.gcd(t, weight)
                if g < weight:
                    row_dens.append((k, weight // g))
                t //= g
            nxt[k] = t
    # every row over the lcm of the divisors d > 1 of l_k left over
    scale = math.lcm(*(d for _, d in row_dens))
    if scale > 1:
        for lo, hi in runs:
            nxt[lo:hi] = [v * scale for v in nxt[lo:hi]]
        for k, d in row_dens:
            nxt[k] //= d
    return nxt, g_den * scale


def close(col: tuple, ends: tuple, runs: list) -> tuple:
    """Set nums[0], 0 until then, from sum_j R_j P_j(-a) = 0 over the
    endpoint column `ends`, in place."""
    (nums, den), (end_nums, end_den) = col, ends
    total = 0
    for lo, hi in runs:
        total += sum(v * e for v, e in zip(nums[lo:hi], end_nums[lo:hi]) if v)
    first, first_den = lowest(-total, den * end_den)
    scale = first_den // math.gcd(first_den, den)
    if scale > 1:
        for lo, hi in runs:
            nums[lo:hi] = [v * scale for v in nums[lo:hi]]
        den *= scale
    nums[0] = first * (den // first_den)
    return nums, den


def content(col: tuple, runs: list) -> tuple:
    """Divide gcd(den, *nums) out of the column, in place."""
    nums, den = col
    g = den
    for lo, hi in runs:
        g = math.gcd(g, *nums[lo:hi])
    if g > 1:
        for lo, hi in runs:
            nums[lo:hi] = [v // g for v in nums[lo:hi]]
        den //= g
    return nums, den


def iter_columns(spec: FamilySpec, weights: dict, nmax: int):
    """Yield the columns n = 0..nmax, keeping only the two the next step
    reads; a caller must not change one while the stream runs.  The
    degrees are checked when the first column is drawn."""
    weights = {m: w for m, w in weights.items() if w}
    data = set_up(spec, weights, nmax)
    runs, ends, _, _, (h, h_den) = data
    prev = [], 1
    cur = content(close((h[:max(weights, default=0) + 2], h_den), ends,
                        runs), runs)
    yield cur
    for n in range(nmax):
        prev, cur = cur, content(close(step(n, cur, prev, data), ends, runs),
                                 runs)
        yield cur


def cells(col: tuple, n_rows: int):
    """Cells j < n_rows of the column (nums, den), zero below its end, each
    a Fraction in lowest terms made when it is read."""
    nums, den = col
    for v in nums[:n_rows]:
        yield Fraction(v, den) if v else _ZERO
    yield from repeat(_ZERO, n_rows - len(nums))


def rows(cols: list, n_rows: int):
    """Rows j < n_rows of the columns `cols`, as Fractions: one `cells`
    generator per column, zipped, so row j's are made when it is read."""
    return zip(*(cells(col, n_rows) for col in cols))


def cut(cols, n_rows: int) -> list:
    """The columns `cols`, a list or a stream, cut to rows j < n_rows."""
    return [(nums[:n_rows], den) for nums, den in cols]


def combine(cols, weights: dict, size: int) -> list:
    """sum_n w_n cols[n], w_n = weights[n], as `size` exact values: each
    w_n / den_n in lowest terms, the numerators summed over the lcm of
    those denominators, one Fraction per nonzero sum at the end, and the
    int 0 for each zero, which `convmat.SeriesCoeffs` shares."""
    factors = []
    for n, w in weights.items():
        p, q = w.numerator, w.denominator * cols[n][1]
        g = math.gcd(p, q)
        factors.append((n, p // g, q // g))
    den = math.lcm(*(q for _, _, q in factors))
    out = [0] * size
    for n, p, q in factors:
        scale = p * (den // q)
        for j, v in enumerate(cols[n][0]):
            if v:
                out[j] += scale * v
    return [Fraction(v, den) if v else 0 for v in out]


def write_jn_rows(rows, fmt, stream, zero=None, name: str = "value") -> None:
    """Write rows[j][n] as `j,n,<name>` lines, one joined string per row:
    a nonzero cell as fmt(cell), rounded once; a zero cell as the text
    `zero`, or not at all when it is None (the triplet format).  No field
    holds a comma, quote or newline, so these are `csv.writer`'s lines."""
    stream.write(f"j,n,{name}\n")
    for j, row in enumerate(rows):
        stream.write("".join([f"{j},{n},{fmt(v) if v else zero}\n"
                              for n, v in enumerate(row)
                              if v or zero is not None]))
