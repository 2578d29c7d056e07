"""Seeded inputs for the workloads, and the references they are checked against.

Nothing here imports lupoly: points are built in the coordinates
mu_l = 1/2 - lambda_l, where the region reads 0 <= mu_l <= 1/2 and one
wall per qubit, mu_l <= sum_{j != l} mu_j, so the stratum a point was
built in is known without asking the program.  The same seed always
gives the same inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

HALF = Fraction(1, 2)
# Seeds the near-wall target design, which every run shares.
DESIGN_SEED = 2013

# Reduced-space dimensions the paper states for interior points.
PAPER_INTERIOR = {3: 2, 4: 14, 5: 42}


def paper_dim(L: int, k_half: int = 0, k_zero: int = 0, wall: bool = False) -> int:
    """The paper's dimension table for a point built in a known stratum.

    Coordinates at 1/2 split off product factors, leaving R = L - k_half
    qubits.  R <= 2 and tight walls give a single orbit (dimension 0);
    the interior gives 2^(R+1) - 4R - 2; at R = 3 every boundary fiber
    is one orbit; for R >= 4 each zero coordinate deducts 2.
    """
    R = L - k_half
    if R <= 2 or wall:
        return 0
    generic = 2 ** (R + 1) - 4 * R - 2
    if k_zero == 0:
        return generic
    if R == 3:
        return 0
    return generic - 2 * k_zero


def independent_spectra(amps: np.ndarray) -> np.ndarray:
    """lambda_l = 1/2 - smaller eigenvalue of each one-qubit reduction, by einsum."""
    L = int(round(math.log2(amps.size)))
    t = amps.reshape((2,) * L)
    out = np.empty(L)
    for l in range(L):
        m = np.moveaxis(t, l, 0).reshape(2, -1)
        rho = m @ m.conj().T
        out[l] = 0.5 - np.linalg.eigvalsh(rho)[0]
    return out


# --- exact points in known strata -------------------------------------------

STRATA = ("interior", "zeros", "halves", "halves+zeros", "wall", "wall+zero")
_MARGIN = Fraction(1, 50)


def _frac(rng, lo: Fraction, hi: Fraction) -> Fraction:
    """A random rational strictly inside (lo, hi) with denominator below 1000."""
    q = int(rng.integers(60, 1000))
    a, b = math.floor(lo * q) + 1, math.ceil(hi * q) - 1
    return Fraction(int(rng.integers(a, b + 1)), q)


def _walls_clear(mus: list, margin: Fraction) -> bool:
    total = sum(mus)
    return all(total - 2 * m >= margin for m in mus)


def _regular_mus(rng, n: int, zeros: int) -> list:
    """n coordinates, the first `zeros` of them at mu = 1/2, every wall slack >= margin."""
    while True:
        mus = [HALF] * zeros + [_frac(rng, _MARGIN, HALF - _MARGIN) for _ in range(n - zeros)]
        if _walls_clear(mus, _MARGIN):
            return mus


def _split(rng, total: Fraction, parts: int) -> list:
    weights = [int(w) for w in rng.integers(1, 20, size=parts)]
    s = sum(weights)
    return [total * w / s for w in weights]


def stratum_point(L: int, kind: str, rng) -> dict:
    """An exact point of the given stratum, with its expected classification.

    Returns lambdas as Fractions plus the 1-based qubit sets at 1/2, at 0
    and with a tight wall, and the paper's dimension for the stratum.
    """
    qubits = [int(q) for q in rng.permutation(L) + 1]
    half: list = []
    zero: list = []
    tight: list = []
    mus = {}
    if kind in ("interior", "zeros"):
        z = 0 if kind == "interior" else int(rng.integers(1, L + 1))
        zero = qubits[:z]
        mus = dict(zip(qubits, _regular_mus(rng, L, z)))
    elif kind in ("halves", "halves+zeros"):
        if kind == "halves":
            h = int(rng.integers(1, L - 1))  # residual of 2..L-1 qubits
        else:
            h = int(rng.integers(1, max(L - 2, 2)))  # residual of 3..L-1 qubits; 2 at L = 3
        half = qubits[:h]
        rest = qubits[h:]
        R = len(rest)
        if R == 2:
            # a two-qubit residual needs equal mu; with zeros both sit at 0
            m = HALF if kind == "halves+zeros" else _frac(rng, _MARGIN, HALF - _MARGIN)
            res_mus = [m, m]
            zero = rest if kind == "halves+zeros" else []
        else:
            z = 0 if kind == "halves" else int(rng.integers(1, R + 1))
            zero = rest[:z]
            res_mus = _regular_mus(rng, R, z)
        mus = {q: Fraction(0) for q in half}
        mus.update(zip(rest, res_mus))
    elif kind in ("wall", "wall+zero"):
        d = qubits[0]
        total = HALF if kind == "wall+zero" else _frac(rng, Fraction(1, 10), HALF - _MARGIN)
        tight = [d]
        zero = [d] if kind == "wall+zero" else []
        mus = dict(zip(qubits[1:], _split(rng, total, L - 1)))
        mus[d] = total
    else:
        raise ValueError(f"unknown stratum {kind!r}")
    lams = tuple(HALF - mus[q] for q in range(1, L + 1))
    return {
        "lambdas": lams,
        "half": tuple(sorted(half)),
        "zero": tuple(sorted(zero)),
        "tight": tuple(sorted(tight)),
        "dim": paper_dim(L, len(half), len(zero), bool(tight)),
    }


def exact_queries(seed: int, rounds: int) -> list:
    """dim_for_point queries: every (L, stratum, exact/float) once per round, shuffled."""
    rng = np.random.default_rng([seed, 1])
    cells = [(L, kind, exact) for L in range(3, 13) for kind in STRATA for exact in (True, False)]
    out = []
    for _ in range(rounds):
        for i in rng.permutation(len(cells)):
            L, kind, exact = cells[i]
            q = stratum_point(L, kind, rng)
            if not exact:
                q["lambdas"] = tuple(float(x) for x in q["lambdas"])
            q["L"], q["kind"], q["exact"] = L, kind, exact
            out.append(q)
    return out


# --- fiber targets ---------------------------------------------------------

# (L, zero coordinates) cells of a round.  L = 4 holds the middle third of
# the ops, so the median op latency sits inside the L = 4 cluster rather
# than in the gap between two clusters, where it would jump between runs.
INTERIOR_CELLS = ((3, 0), (3, 1), (4, 0), (4, 1), (5, 1), (6, 0))


def interior_targets(seed: int, rounds: int) -> list:
    """numeric_dim targets: one per INTERIOR_CELLS cell per round, in shuffled order."""
    rng = np.random.default_rng([seed, 2])
    cells = INTERIOR_CELLS
    out = []
    for _ in range(rounds):
        for i in rng.permutation(len(cells)):
            out.append(interior_target(*cells[i], rng))
    return out


def interior_target(L: int, zeros: int, rng, margin: float = 0.04) -> dict:
    """Float target with `zeros` coordinates at 0 and every other slack >= margin."""
    while True:
        mus = np.concatenate([np.full(zeros, 0.5), rng.uniform(margin, 0.5 - margin, L - zeros)])
        if (mus.sum() - 2.0 * mus >= margin).all():
            break
    mus = mus[rng.permutation(L)]
    return {"L": L, "lambdas": tuple(float(0.5 - m) for m in mus), "dim": paper_dim(L, 0, zeros)}


def wall_point(L: int, u) -> list:
    """A point on the wall of qubit 1 from L - 1 uniforms in [0, 1).

    The same law as lupoly's random_wall_point: dominant amplitude weight
    m_1 uniform in (0.55, 0.95), the rest a flat Dirichlet split of
    1 - m_1 conditioned on every part reaching a floor (uniform on the
    shrunken simplex, so no rejection is needed), lambda_1 = m_1 - 1/2
    and lambda_j = 1/2 - m_j.
    """
    m_d = 0.55 + 0.4 * u[0]
    floor = 0.25 * (1.0 - m_d) / (L - 1)
    cuts = sorted(u[1:])
    gaps = np.diff([0.0, *cuts, 1.0])
    parts = floor + (1.0 - m_d - (L - 1) * floor) * gaps
    return [m_d - 0.5] + [float(0.5 - p) for p in parts]


SLACK_DECADES = (-4.0, -2.0)
SLACK_BINS = 8


def kronecker(n: int, dim: int, shift) -> np.ndarray:
    """n points of the R_d low-discrepancy sequence, shifted by `shift` mod 1."""
    phi = 2.0
    for _ in range(64):  # root of x^(dim+1) = x + 1
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = (1.0 / phi) ** np.arange(1, dim + 1)
    return (shift + np.outer(np.arange(1, n + 1), alpha)) % 1.0


def _bit_reverse(i: int, bits: int) -> int:
    return int(format(i, f"0{bits}b")[::-1], 2)


def nearwall_targets(seed: int, rounds: int) -> list:
    """L = 3 sample_fiber targets moved off the qubit-1 wall by a slack in [1e-4, 1e-2].

    A round visits eight bins of equal width in log10(slack) once, in
    bit-reversed order so that any prefix of a run covers the slack range
    evenly.  Within its bin the slack is log-uniform, and the wall point
    has the law of random_wall_point, its uniforms taken from a Kronecker
    low-discrepancy sequence.  Op cost varies threefold with the wall
    shape and tenfold with the slack, so these targets are the same on
    every seed; the seed draws the sampler seed of each op, which sets
    its Haar start.
    """
    L = 3
    design = np.random.default_rng(DESIGN_SEED)
    shapes = kronecker(rounds * SLACK_BINS, L - 1, design.uniform(size=L - 1))
    rng = np.random.default_rng([seed, 3])
    lo, hi = SLACK_DECADES
    bits = SLACK_BINS.bit_length() - 1
    out = []
    for k in range(rounds * SLACK_BINS):
        b = _bit_reverse(k % SLACK_BINS, bits)
        slack = 10.0 ** (lo + (hi - lo) * (b + design.uniform()) / SLACK_BINS)
        lams = wall_point(L, shapes[k])
        lams[0] += slack
        out.append({"L": L, "lambdas": tuple(lams), "slack": slack,
                    "seed": int(rng.integers(2**31))})
    return out


def failing_band_target(seed: int) -> dict:
    """L = 3 target with a qubit-1 wall slack log-uniform in [1e-8, 1e-6]."""
    rng = np.random.default_rng([seed, 4])
    slack = 10.0 ** rng.uniform(-8.0, -6.0)
    lams = wall_point(3, rng.uniform(size=2))
    lams[0] += slack
    return {"L": 3, "lambdas": tuple(lams), "slack": slack, "seed": int(rng.integers(2**31))}


# --- command lines ----------------------------------------------------------


def _haar_document(L: int, rng) -> dict:
    z = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
    z /= np.linalg.norm(z)
    return {"L": L, "amplitudes": [[float(a.real), float(a.imag)] for a in z]}


def _lambda_arg(lams) -> str:
    return ",".join(str(x) if isinstance(x, Fraction) else repr(float(x)) for x in lams)


def cli_commands(seed: int, rounds: int) -> list:
    """One-shot lupoly invocations; each round holds every kind once, shuffled.

    Each entry holds the argv after ``lupoly``, an optional stdin
    document, and for point and fiber commands the expected values.
    """
    rng = np.random.default_rng([seed, 5])

    def point(exact=True):
        L = int(rng.integers(3, 9))
        kind = STRATA[int(rng.integers(len(STRATA)))]
        q = stratum_point(L, kind, rng)
        if not exact:
            q["lambdas"] = tuple(float(x) for x in q["lambdas"])
        return q

    def make(kind):
        if kind == "dim-exact":
            q = point()
            return {"argv": ["dim", "--lambda", _lambda_arg(q["lambdas"])], "expect": q}
        if kind == "dim-float":
            q = point(exact=False)
            return {"argv": ["dim", "--lambda", _lambda_arg(q["lambdas"])], "expect": q}
        if kind == "classify-exact":
            q = point()
            return {"argv": ["classify", "--lambda", _lambda_arg(q["lambdas"])], "expect": q}
        if kind == "dim-stdin":
            q = point(exact=False)
            return {"argv": ["dim"], "stdin": {"lambdas": list(q["lambdas"])}, "expect": q}
        if kind == "classify-stdin":
            q = point(exact=False)
            return {"argv": ["classify"], "stdin": {"lambdas": list(q["lambdas"])}, "expect": q}
        if kind == "vertices":
            return {"argv": ["vertices", "-L", str(int(rng.integers(3, 9)))]}
        if kind == "facets":
            return {"argv": ["facets", "-L", str(int(rng.integers(4, 9)))]}
        if kind == "xspec":
            return {"argv": ["xspec", "-L", str(int(rng.integers(1, 7)))]}
        if kind == "wall-check":
            return {"argv": ["wall-check", "-L", str(int(rng.integers(3, 9)))]}
        if kind == "psi":
            return {"argv": ["psi", "--state", "-"], "stdin": _haar_document(int(rng.integers(2, 6)), rng)}
        if kind == "sample-fiber":
            t = interior_target(int(rng.integers(3, 6)), 0, rng)
            return {"argv": ["sample-fiber", "--lambda", _lambda_arg(t["lambdas"]),
                             "--seed", str(int(rng.integers(1000)))], "expect": t}
        if kind == "stable":
            return {"argv": ["stable", "-L", str(int(rng.integers(4, 6)))]}
        if kind == "oracle-dim":
            t = interior_target(int(rng.integers(3, 5)), 0, rng)
            return {"argv": ["oracle-dim", "--lambda", _lambda_arg(t["lambdas"]), "--samples", "3",
                             "--seed", str(int(rng.integers(1000)))], "expect": t}
        raise ValueError(kind)

    out = []
    for _ in range(rounds):
        for i in rng.permutation(len(CLI_KINDS)):
            out.append(make(CLI_KINDS[i]))
    return out


CLI_KINDS = (
    "dim-exact", "dim-float", "classify-exact", "dim-stdin", "classify-stdin",
    "vertices", "facets", "xspec", "wall-check",
    "psi", "sample-fiber", "stable", "oracle-dim",
)
