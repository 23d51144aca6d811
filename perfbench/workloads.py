"""The four benchmark workloads: seeded inputs, the timed operations and the
checks made on their outputs.

Each workload is a class built from ``(seed, out_dir)``.  ``build()`` makes
the inputs (this is part of set-up), ``operations()`` lists the timed
operations as zero-argument callables returning a small result record, and
``check(index, result)`` returns ``None`` when the output is right or a
one-line reason when it is not.  ``global_problems()`` lists failures of
checks that belong to the whole round rather than one operation.

Inputs come from ``random.Random`` seeded with a string, so the same seed
gives the same inputs on every Python version.  The checks never compare
with a stored copy of earlier output: they recompute the value apart from
the program (in ``fractions.Fraction`` or plain floats), or test a property
the method must have.

Program functions are always looked up on their modules at call time, so a
tracer that replaces them after import sees every call.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import random
from fractions import Fraction

# Relative slack for float comparisons between two computations of the same
# quantity by different routes (SVD against a sum of squares, say).
FLOAT_SLACK = 1e-10


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _patterns(n_factors: int, length: int):
    """Every alternating factor pattern of the given length, in a fixed order."""
    out = [()]
    for _ in range(length):
        out = [p + (j,) for p in out for j in range(n_factors) if not p or p[-1] != j]
    return out


def _int_matrix(rng: random.Random, n: int, span: int = 3):
    """n x n matrix of Gaussian integers (re, im) with parts in [-span, span]."""
    return [[(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(n)]
            for _ in range(n)]


def _qc_matrix(sc, mat):
    return [[sc.QC(re, im) for (re, im) in row] for row in mat]


def _nonzero(elem) -> bool:
    return any(bool(v) for blk in elem.blocks for row in blk for v in row)


# ---------------------------------------------------------------------------
# exact-words
# ---------------------------------------------------------------------------


class ExactWords:
    """free_state and vacuum_expectation on rational words over
    (M2, tr) * (C3; 3/5, 1/5, 1/5).

    Per round: a fixed number of words of each length 1..6 (100 words), the
    starting factor alternating within each length.  The counts put the
    median latency inside the length-4 group and the 90th percentile inside
    the length-6 group, so that neither sits on a boundary between two sizes.
    """

    name = "exact-words"
    LENGTH_COUNTS = {1: 10, 2: 10, 3: 13, 4: 27, 5: 20, 6: 20}
    # The states of the two factors, written out apart from the program:
    # (M2, tr) has density diag(1/2, 1/2), C3 has atom weights 3/5, 1/5, 1/5.
    M2_TRACE = (Fraction(1, 2), Fraction(1, 2))
    C3_WEIGHTS = (Fraction(3, 5), Fraction(1, 5), Fraction(1, 5))

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.words = []  # (FreeElement, raw letters [(factor, int matrix)])

    def build(self):
        import freedecay.algebra as al
        import freedecay.freeword as fw
        import freedecay.scalars as sc

        rng = _rng(self.name, self.seed)
        m2 = al.MatrixBlockAlgebra.matrix_with_trace(2)
        c3 = al.MatrixBlockAlgebra.from_weights(list(self.C3_WEIGHTS))
        ambient = fw.FreeProductAmbient((m2, c3))
        for length, count in self.LENGTH_COUNTS.items():
            for k in range(count):
                letters, raw = [], []
                for pos in range(length):
                    factor = (k + pos) % 2
                    if factor == 0:
                        mat = _int_matrix(rng, 2)
                        payload = al.AlgebraElement(m2, [_qc_matrix(sc, mat)])
                    else:
                        diag = [_int_matrix(rng, 1)[0][0] for _ in range(3)]
                        mat = diag
                        payload = al.AlgebraElement(c3, [[[sc.QC(*d)]] for d in diag])
                    letters.append(fw.Letter(factor, payload))
                    raw.append((factor, mat))
                self.words.append((fw.FreeElement.word(ambient, letters), raw))

    def operations(self):
        import freedecay.fock as fk
        import freedecay.freeword as fw

        def op(x):
            return lambda: (fw.free_state(x), fk.vacuum_expectation(x))

        return [op(x) for x, _ in self.words]

    def _state_by_hand(self, raw):
        """Sum_b tr(D_b x_b) of a single letter, in Fractions."""
        ((factor, mat),) = raw
        if factor == 0:
            pairs = [(w, mat[i][i]) for i, w in enumerate(self.M2_TRACE)]
        else:
            pairs = list(zip(self.C3_WEIGHTS, mat))
        re = sum((w * d[0] for w, d in pairs), Fraction(0))
        im = sum((w * d[1] for w, d in pairs), Fraction(0))
        return re, im

    def check(self, index, result):
        symbolic, vacuum = result
        if symbolic != vacuum:
            return f"free_state {symbolic!r} != vacuum_expectation {vacuum!r}"
        _, raw = self.words[index]
        if len(raw) == 1:
            want = self._state_by_hand(raw)
            if (symbolic.re, symbolic.im) != want:
                return f"length-1 state {symbolic!r} != {want} computed by hand"
        return None

    def global_problems(self):
        return []


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------


def _mat2_mul(a, b):
    """Product of 2x2 matrices of Gaussian integers (re, im)."""
    def cmul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def cadd(x, y):
        return (x[0] + y[0], x[1] + y[1])

    return [[cadd(cmul(a[i][0], b[0][j]), cmul(a[i][1], b[1][j])) for j in range(2)]
            for i in range(2)]


def _mat2_adjoint(a):
    return [[(a[j][i][0], -a[j][i][1]) for j in range(2)] for i in range(2)]


def _mat2_trace(a):
    return (a[0][0][0] + a[1][1][0], a[0][0][1] + a[1][1][1])


class Conjugation:
    """One avitzour-check trial per operation on centred rational words over
    (M2, tr) * (M2, tr) * (M2, tr), with u = w = flip and v = diag(1, -1).

    Per round: every alternating factor pattern of lengths 1, 2 and 3, and
    half of those of length 4 (33 trials), payloads drawn from the seed.  The
    length-4 half is every other pattern in order of third-factor letters, so
    it has the same mix of conjugated letters as the whole set.  Fixing the
    patterns keeps the amount of conjugation work the same from seed to seed;
    the median latency falls inside the length-3 group and the 90th
    percentile inside the length-4 group.
    """

    name = "conjugation"
    FLIP = [[(0, 0), (1, 0)], [(1, 0), (0, 0)]]
    SIGN = [[(1, 0), (0, 0)], [(0, 0), (-1, 0)]]

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.trials = []  # (ell, word over A1*A2*A1, word over A1*A2)
        self.problems = []

    def _triple_problems(self):
        """Unitarity and the vanishing traces, by direct 2x2 arithmetic."""
        u = w = self.FLIP
        v = self.SIGN
        eye = [[(1, 0), (0, 0)], [(0, 0), (1, 0)]]
        out = []
        for name, m in (("u", u), ("v", v), ("w", w)):
            if _mat2_mul(_mat2_adjoint(m), m) != eye:
                out.append(f"{name} is not unitary")
            if _mat2_trace(m) != (0, 0):
                out.append(f"tr({name}) != 0")
        if _mat2_trace(_mat2_mul(_mat2_adjoint(v), w)) != (0, 0):
            out.append("tr(v* w) != 0")
        return out

    def build(self):
        import freedecay.algebra as al
        import freedecay.freeword as fw
        import freedecay.scalars as sc

        self.problems = self._triple_problems()
        rng = _rng(self.name, self.seed)
        m2 = al.MatrixBlockAlgebra.matrix_with_trace(2)
        self.u = al.AlgebraElement(m2, [_qc_matrix(sc, self.FLIP)])
        self.v = al.AlgebraElement(m2, [_qc_matrix(sc, self.SIGN)])
        self.w = self.u
        amb3 = fw.three_factor_ambient(m2, m2)
        amb2 = fw.FreeProductAmbient((m2, m2))

        def centred():
            while True:
                x = al.center(al.AlgebraElement(m2, [_qc_matrix(sc, _int_matrix(rng, 2))]))
                if _nonzero(x):
                    return x

        def word(ambient, pattern):
            return fw.FreeElement.word(ambient, [fw.Letter(j, centred()) for j in pattern])

        for ell in (1, 2, 3, 4):
            patterns3 = _patterns(3, ell)
            if ell == 4:
                patterns3 = sorted(patterns3, key=lambda p: (p.count(2), p))[::2]
            patterns2 = _patterns(2, ell)
            for i, pattern in enumerate(patterns3):
                self.trials.append(
                    (ell, word(amb3, pattern), word(amb2, patterns2[i % len(patterns2)]))
                )

    def operations(self):
        import freedecay.freeword as fw

        u, v, w = self.u, self.v, self.w

        def trial(ell, x3, x2):
            def run():
                img = fw.avitzour_phi(ell // 2 + 1, u, v, w, x3)
                trace = (fw.free_state(img), fw.free_state(x3))
                img_iso = fw.avitzour_phi(ell + 1, u, v, w, x3)
                iso = (fw.l2_inner_free(img_iso, img_iso), fw.l2_inner_free(x3, x3))
                shapes = tuple(
                    fw.avitzour_shape_check(ell // 2 + 1, u, v, w, x2, mode).ok
                    for mode in ("i", "ii", "iii")
                )
                _, conj_length = fw.conjugation_word_shape(v, x3)
                return trace, iso, shapes, conj_length
            return run

        return [trial(*t) for t in self.trials]

    def check(self, index, result):
        import freedecay.fock as fk

        ell, x3, _ = self.trials[index]
        (state_img, state_x), (iso_img, iso_x), shapes, conj_length = result
        vac = fk.vacuum_expectation(x3)
        if not state_img == state_x == vac:
            return f"trace identity: {state_img!r}, {state_x!r}, vacuum {vac!r}"
        vac2 = fk.vacuum_expectation(x3.adjoint() * x3)
        if not iso_img == iso_x == vac2:
            return f"isometry: {iso_img!r}, {iso_x!r}, vacuum {vac2!r}"
        if not all(shapes):
            return f"shape reports {shapes}"
        if conj_length > 3 * ell + 2:
            return f"conjugated length {conj_length} > 3*{ell}+2"
        return None

    def global_problems(self):
        return list(self.problems)


# ---------------------------------------------------------------------------
# kh-sweep
# ---------------------------------------------------------------------------


class KhSweep:
    """rx_check(x, moment_rmax=2) on random homogeneous elements over
    (M2, tr) * (M2, tr).

    Per round: 20 samples of length 1 and 5 of length 2, in the fixed order
    1, 1, 1, 1, 2, 1, ...  A length-2 sample costs about seven of length 1,
    and the 4:1 mix keeps the percentile weights of the median on length-1
    samples and those of the 90th percentile on length-2 samples.  The cost
    depends on the lengths, not on the coefficient values, so only the
    values come from the seed.  Length-3 samples (5-7 s and 113 MB each)
    are left out to keep a run inside its time budget.
    """

    name = "kh-sweep"
    ORDER = (1, 1, 1, 1, 2) * 5
    COMPLEMENT_DIM = 3  # dim M2 - 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.samples = []  # (length, HomogeneousWordElement, l2 by hand)

    def build(self):
        import freedecay.algebra as al
        import freedecay.freeword as fw
        import freedecay.khintchine as kh

        rng = _rng(self.name, self.seed)
        m2 = al.MatrixBlockAlgebra.matrix_with_trace(2)
        ambient = fw.FreeProductAmbient((m2, m2))
        for length in self.ORDER:
            coeffs = {}
            for pattern in _patterns(2, length):
                for idx in itertools.product(range(self.COMPLEMENT_DIM), repeat=length):
                    coeffs[(pattern, idx)] = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
            l2 = math.sqrt(math.fsum(c.real ** 2 + c.imag ** 2 for c in coeffs.values()))
            x = kh.HomogeneousWordElement(ambient, length, coeffs)
            self.samples.append((length, x, l2))

    def operations(self):
        import freedecay.khintchine as kh

        def op(x):
            return lambda: kh.rx_check(x, moment_rmax=2)

        return [op(x) for _, x, _ in self.samples]

    def check(self, index, report):
        ell, _, l2 = self.samples[index]
        up = 1 + FLOAT_SLACK
        if abs(report.l2 - l2) > 1e-12 * l2:
            return f"l2 {report.l2!r} != {l2!r} from the generated coefficients"
        if not (l2 <= report.kh_lower * up and report.kh_lower <= report.kh_upper * up):
            return f"l2 <= kh_lower <= kh_upper fails: {l2}, {report.kh_lower}, {report.kh_upper}"
        if not (l2 <= report.norm_lb * up
                and report.norm_lb <= 2 * (ell + 1) * report.kh_upper * up):
            return f"l2 <= norm_lb <= 2(l+1) kh_upper fails: {l2}, {report.norm_lb}, {report.kh_upper}"
        return None

    def global_problems(self):
        return []


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _closed_form(builtin: str, n: int) -> float:
    """Degree-n constant of the builtin measures: sup_t (sum_k p_k(t)^2)^(1/2),
    attained at the end points of the support."""
    if builtin == "semicircle":  # p_k(2) = U_k(1) = k + 1
        return math.sqrt(sum((k + 1) ** 2 for k in range(n + 1)))
    if builtin == "lebesgue":  # p_k(1) = sqrt(2k + 1)
        return float(n + 1)
    if builtin == "cosine":  # p_0 = 1, p_k(1) = sqrt(2) T_k(1) = sqrt(2)
        return math.sqrt(2 * n + 1)
    raise ValueError(builtin)


def _slope(points):
    """Least-squares slope of log C against log(n + 1)."""
    xs = [math.log(n + 1.0) for n, _ in points]
    ys = [math.log(c) for _, c in points]
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    return sxy / sxx


def _alternating_word_count(complement_dims, n: int) -> int:
    """1 + number of alternating words of length 1..n with letters from the
    factor complements."""
    ending = list(complement_dims)
    total = 1 + (sum(ending) if n >= 1 else 0)
    for _ in range(n - 1):
        all_words = sum(ending)
        ending = [d * (all_words - e) for d, e in zip(complement_dims, ending)]
        total += sum(ending)
    return total


class Certify:
    """In-process ``freedecay.cli.run(["rd-certify", ...])`` invocations.

    Per round: the degree filtrations of the semicircle, lebesgue and cosine
    builtins up to level 60, then the free product C2 * C3 with uniform atoms
    (a --space file) up to level 9 with the seed as probe seed.
    """

    name = "certify"
    BUILTIN_LEVEL = 60
    FREE_LEVEL = 9
    BUILTINS = ("semicircle", "lebesgue", "cosine")
    # Windows for alpha_hat from the repository's acceptance criterion 3.
    ALPHA_WINDOWS = {"semicircle": (1.4, 1.6), "lebesgue": (0.95, 1.05)}
    FREE_PRODUCT = {"free_product": [{"atoms": ["1/2", "1/2"]},
                                     {"atoms": ["1/3", "1/3", "1/3"]}]}
    FREE_COMPLEMENT_DIMS = (1, 2)

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.dir = os.path.join(out_dir, f"certify-seed{seed}")
        self.jobs = []  # (kind, argv, csv path)

    def build(self):
        os.makedirs(self.dir, exist_ok=True)
        space = os.path.join(self.dir, "c2c3.json")
        with open(space, "w") as fh:
            json.dump(self.FREE_PRODUCT, fh)
        for name in self.BUILTINS:
            out = os.path.join(self.dir, f"{name}.csv")
            argv = ["rd-certify", "--builtin", name, "--max-n", str(self.BUILTIN_LEVEL),
                    "--seed", str(self.seed), "--out", out]
            self.jobs.append((name, argv, out))
        out = os.path.join(self.dir, "c2c3.csv")
        argv = ["rd-certify", "--space", space, "--max-n", str(self.FREE_LEVEL),
                "--seed", str(self.seed), "--out", out]
        self.jobs.append(("c2c3", argv, out))
        import freedecay.cli  # noqa: F401  (import is part of set-up)

    def operations(self):
        import freedecay.cli as cli

        def op(argv):
            return lambda: cli.run(argv)

        return [op(argv) for _, argv, _ in self.jobs]

    @staticmethod
    def _read_csv(path):
        rows, meta = [], {}
        with open(path, newline="") as fh:
            lines = fh.read().splitlines()
        for line in lines:
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
        body = [line for line in lines if not line.startswith("#")]
        reader = csv.DictReader(body)
        for rec in reader:
            rows.append((int(rec["n"]), float(rec["C_lower"]), float(rec["C_upper"]),
                         int(rec["dim"])))
        return rows, meta

    def check(self, index, code):
        kind, _, path = self.jobs[index]
        if code != 0:
            return f"rd-certify exited with {code}"
        rows, meta = self._read_csv(path)
        if kind == "c2c3":
            return self._check_free(rows)
        return self._check_builtin(kind, rows, float(meta["alpha_hat"]))

    def _check_builtin(self, kind, rows, alpha_hat):
        if [r[0] for r in rows] != list(range(self.BUILTIN_LEVEL + 1)):
            return "levels are not 0..max-n"
        for n, _lo, up, dim in rows:
            want = _closed_form(kind, n)
            if abs(up - want) > 1e-9 * want:
                return f"C_upper at n={n} is {up!r}, closed form {want!r}"
            if dim != n + 1:
                return f"dim at n={n} is {dim}"
        fit = _slope([(n, _closed_form(kind, n)) for n in range(1, self.BUILTIN_LEVEL + 1)])
        if abs(alpha_hat - fit) > 1e-6:
            return f"alpha_hat {alpha_hat!r} != {fit!r} fitted to the closed form"
        lo, hi = self.ALPHA_WINDOWS.get(kind, (fit - 1e-6, fit + 1e-6))
        if not lo <= alpha_hat <= hi:
            return f"alpha_hat {alpha_hat!r} outside [{lo}, {hi}]"
        return None

    def _check_free(self, rows):
        if [r[0] for r in rows] != list(range(self.FREE_LEVEL + 1)):
            return "levels are not 0..max-n"
        for n, lo, up, dim in rows:
            if not (1 - FLOAT_SLACK <= lo <= up):
                return f"1 <= C_lower <= C_upper fails at n={n}: {lo}, {up}"
            want = _alternating_word_count(self.FREE_COMPLEMENT_DIMS, n)
            if dim != want:
                return f"dim at n={n} is {dim}, counted {want} alternating words"
        return None

    def global_problems(self):
        return []


WORKLOADS = {cls.name: cls for cls in (ExactWords, Conjugation, KhSweep, Certify)}
