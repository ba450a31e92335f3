"""The four benchmark workloads: seeded inputs, one pass of work, output checks.

Every workload is a closed loop with one client in one process: the next item
starts only when the previous one has returned.  A workload is cut into
passes of roughly a second each; the runner always measures whole passes, so
the item mix of a run does not depend on where the clock ran out.  A pass is
a sequence of units of a few tenths of a second each, between which the
runner samples the machine's speed (see worker.py).

The package is reached only through its public entry points (`cli.run` and
the library functions).  It sees nothing but the generated inputs: argv,
batch files and cs-files.  Expected values are derived here, mostly with
`Fraction`, so that a wrong answer counts as a failed item.
"""

from __future__ import annotations

import io
import json
import math
import random
import time
from array import array
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

# Calls go through the package namespace, looked up at call time, so that
# the tracer's wrappers are seen.
import seifert_torsion as st
from seifert_torsion import cli

# Latencies are CPU time of this process.  The package is pure Python,
# single-threaded and CPU-bound, so on a quiet machine CPU time and wall time
# agree; CPU time leaves out any time the host takes the CPU away.  The
# machine's own speed still drifts, which run.py takes out with the speed
# samples the worker takes between units.
clock = time.process_time


# Latency histogram: log-spaced bins from 0.1 us to 1000 s, 0.12% wide.
_BINS_PER_DECADE = 2000
_LOW_DECADE = -7
_BINS = 10 * _BINS_PER_DECADE


class Tally:
    """Latencies and failures of the items a run attempted.

    Latencies go into a histogram of fixed size, not a list, so that the
    harness's memory does not grow with the number of items a run gets
    through and peak_rss_mb stays the package's.
    """

    def __init__(self):
        self.counts = array("q", bytes(8 * _BINS))
        self.attempted = 0
        self.busy_s = 0.0
        self.failed = 0
        self.first_failure: str | None = None

    def add(self, latency: float) -> None:
        self.attempted += 1
        self.busy_s += latency
        scaled = (math.log10(latency) - _LOW_DECADE) * _BINS_PER_DECADE if latency > 0 else 0
        self.counts[min(max(int(scaled), 0), _BINS - 1)] += 1

    def percentile(self, share: float) -> float:
        """Nearest-rank percentile, placed geometrically inside its bin."""
        rank = math.ceil(share * self.attempted)
        below = 0
        for index, count in enumerate(self.counts):
            if below + count >= rank:
                position = (rank - below - 0.5) / count
                return 10 ** (_LOW_DECADE + (index + position) / _BINS_PER_DECADE)
            below += count
        raise ValueError("no latencies recorded")

    def fail(self, reason: str, items: int = 1) -> None:
        self.failed += items
        if self.first_failure is None:
            self.first_failure = reason


class NoTrace:
    """Stand-in for the tracer in untraced runs: items are not labelled."""

    item = 0

    def start_items(self, kinds) -> int:
        return 0


# ---------------------------------------------------------------- helpers


def _coprime_pair(rng: random.Random, max_alpha: int, min_alpha: int = 1):
    alpha = rng.randint(min_alpha, max_alpha)
    while True:
        beta = rng.randint(-2 * alpha, 2 * alpha)
        if gcd(alpha, beta) == 1:
            return alpha, beta


def _chern(euler: int, pairs) -> Fraction:
    return Fraction(euler) + sum((Fraction(b, a) for a, b in pairs), Fraction(0))


def _chunks(items: list, count: int) -> list[list]:
    """`items` cut into `count` consecutive units of nearly equal length."""
    return [items[len(items) * i // count : len(items) * (i + 1) // count] for i in range(count)]


def _text(genus: int, euler: int, pairs) -> str:
    if not pairs:
        return f"[{genus},{euler}]"
    return f"[{genus},{euler};" + ",".join(f"({a},{b})" for a, b in pairs) + "]"


# ------------------------------------------------------------ batch-small

BATCH_ROWS = 1001
BATCH_COMMANDS = ("invariants", "homology", "torsion")
MALFORMED = ("ParseError", "NegativeGenus", "NonPositiveAlpha", "CoprimalityViolation")


def _batch_shapes(rng: random.Random) -> list[tuple]:
    """Row shapes in fixed shares and seeded order, so that every seed has the
    same mix: one row in seven malformed (the four error types in turn), 3%
    with c1 = 0, and the rest spread evenly over genus 0..3 and 0..5 fibers."""
    malformed = BATCH_ROWS // 7
    chern_zero = BATCH_ROWS * 3 // 100
    shapes = [("malformed", MALFORMED[i % 4]) for i in range(malformed)]
    shapes += [("chern-zero", i % 4, 2 * (i % 3)) for i in range(chern_zero)]
    valid = BATCH_ROWS - len(shapes)
    shapes += [("valid", *divmod(i % 24, 6)) for i in range(valid)]
    rng.shuffle(shapes)
    return shapes


class _LineRecorder(io.TextIOBase):
    """The `out` stream handed to cli.run: stamps each written line."""

    def __init__(self, tracer, first_item: int):
        self.tracer = tracer
        self.first_item = first_item
        self.stamps: list[float] = []
        self.lines: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.stamps.append(clock())
        self.lines.append(text)
        # later spans belong to the next row
        self.tracer.item = self.first_item + len(self.stamps)
        return len(text)


class BatchSmall:
    """Many small data through the JSONL batch CLI, three subcommands a pass.

    Rows follow the shape of the test suite's random data (g <= 3, M <= 5,
    alpha <= 50, beta in [-2 alpha, 2 alpha]); about one row in seven is
    malformed and a few have c1 = 0.  An item is one row of one subcommand.
    """

    name = "batch-small"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"batch-small:{seed}")
        self.rows = [self._row(rng, shape) for shape in _batch_shapes(rng)]
        self.path = workdir / "batch.txt"
        self.path.write_text("".join(r["line"] + "\n" for r in self.rows))

    @staticmethod
    def _row(rng: random.Random, shape: tuple) -> dict:
        if shape[0] == "malformed":
            return {"line": BatchSmall._malformed(rng, shape[1]), "error": shape[1]}
        _, genus, fibers = shape
        euler = rng.randint(-5, 5)
        pairs = [_coprime_pair(rng, 50) for _ in range(fibers)]
        if shape[0] == "chern-zero":
            # mirrored pairs cancel, and so does n
            pairs = pairs[: fibers // 2]
            pairs += [(a, -b) for a, b in pairs]
            rng.shuffle(pairs)
            euler = 0
        c1 = _chern(euler, pairs)
        eta = c1 / 6 - 2 * sum(
            (st.dedekind_sum_exact(a, b) for a, b in pairs), Fraction(0)
        )
        return {
            "line": _text(genus, euler, pairs),
            "genus": genus,
            "c1": c1,
            "order": int(abs(c1 * prod(a for a, _ in pairs))),
            "eta0": eta,
            "error": None,
        }

    @staticmethod
    def _malformed(rng: random.Random, error: str) -> str:
        genus, euler = rng.randint(0, 3), rng.randint(-5, 5)
        pairs = [_coprime_pair(rng, 50) for _ in range(rng.randint(1, 4))]
        (a, b), j = pairs[0], rng.randrange(len(pairs))
        if error == "ParseError":
            return rng.choice(
                (
                    f"[{genus},{euler};({a},{b})",
                    f"[{genus};{euler}]",
                    f"({genus},{euler})",
                    f"[{genus},x{euler}]",
                    f"[{genus},{euler};({a})]",
                )
            )
        if error == "NegativeGenus":
            genus = -1 - genus
        elif error == "NonPositiveAlpha":
            pairs[j] = (-rng.randint(0, 5), 1)
        else:
            factor = rng.randint(2, 9)
            pairs[j] = (factor * rng.randint(1, 5), factor * rng.randint(1, 5))
        return _text(genus, euler, pairs)

    def passes(self, index: int):
        return BATCH_COMMANDS

    def run_unit(self, command: str, tally: Tally, tracer) -> None:
        out = _LineRecorder(tracer, tracer.start_items(self._kinds(command)))
        argv = [command, "--input", str(self.path), "--format", "json"]
        start = clock()
        try:
            code = cli.run(argv, out, io.StringIO())
        except Exception as exc:
            code = f"raised {exc!r}"
        end = clock()
        # gap between successive line writes; the first row also pays for
        # argument parsing and reading the file
        edges = [start] + out.stamps
        latencies = [b - a for a, b in zip(edges, edges[1:])]
        rows = self.rows
        whole = code == 0 and len(latencies) == len(rows)
        if not whole:
            latencies = latencies[: len(rows)]
            latencies += [end - start] * (len(rows) - len(latencies))
        for latency in latencies:
            tally.add(latency)
        if not whole:
            # a crash, a wrong exit code or a missing or duplicated record
            # fails every row of the call
            tally.fail(f"{command}: exit {code}, {len(out.stamps)} records", len(rows))
            return
        for row, line in zip(rows, out.lines):
            try:
                ok = self._check(command, row, line)
            except (KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                tally.fail(f"{command}: wrong record for {row['line']}: {line.strip()}")

    def _kinds(self, command: str) -> list[str]:
        return [
            f"{command}:{'error' if self._expected_error(command, row) else 'ok'}"
            for row in self.rows
        ]

    @staticmethod
    def _expected_error(command: str, row: dict):
        if row["error"] is None and row["c1"] == 0 and command != "homology":
            return "ChernNumberZero"
        return row["error"]

    @staticmethod
    def _check(command: str, row: dict, line: str) -> bool:
        if not line.endswith("\n"):
            return False
        record = json.loads(line)
        expected_error = BatchSmall._expected_error(command, row)
        if expected_error is not None:
            error = record.get("error")
            return (
                record.get("input") == row["line"]
                and isinstance(error, dict)
                and error.get("type") == expected_error
            )
        if "error" in record or record["input"]["text"] != row["line"]:
            return False
        if record["c1"] != str(row["c1"]):
            return False
        order = row["order"]
        if command == "torsion":
            return record["symplectic_volume"]["radicand"] == str(order)
        h1 = record["homology"]
        factors = [int(f) for f in h1["invariant_factors"]]
        if row["c1"] == 0:
            return h1["rank"] == 2 * row["genus"] + 1
        if h1["rank"] != 2 * row["genus"] or prod(factors) != order:
            return False
        if command == "homology":
            return record["torsion_classes"] == str(order)
        return record["torsion_order"] == str(order) and record["eta0"] == str(
            row["eta0"]
        )


# ---------------------------------------------------------- dedekind-grid

GRID_MAX_ALPHA = 300
GRID_UNITS = 10


class DedekindGrid:
    """Every coprime pair 1 <= beta <= alpha <= 300 in ascending alpha.

    The grid is the traffic of acceptance criterion 2 and does not depend on
    the seed.  An item is one pair through all three Dedekind routes.
    """

    name = "dedekind-grid"

    def __init__(self, seed: int, workdir: Path):
        self.pairs = [
            (a, b)
            for a in range(1, GRID_MAX_ALPHA + 1)
            for b in range(1, a + 1)
            if gcd(a, b) == 1
        ]

    def passes(self, index: int):
        return _chunks(self.pairs, GRID_UNITS)

    def run_unit(self, pairs, tally: Tally, tracer) -> None:
        for alpha, beta in pairs:
            tracer.start_items(("pair",))
            start = clock()
            try:
                exact = st.dedekind_sum_exact(alpha, beta)
                recursive = st.dedekind_sum_recursive(alpha, beta)
                approx = st.dedekind_sum_float(alpha, beta)
            except Exception as exc:
                tally.add(clock() - start)
                tally.fail(f"({alpha}, {beta}) raised {exc!r}")
                continue
            tally.add(clock() - start)
            if recursive != exact or not abs(approx - float(exact)) <= 1e-9:
                tally.fail(f"({alpha}, {beta}): routes disagree")


# ---------------------------------------------------------- homology-wide

# One pass is one cycle over these fiber counts, shuffled; each pass draws
# fresh data, so a long run sees many distinct matrices of every size.  The
# cost of one call grows like M^2.7 and varies by about 25% at fixed M; up to
# M = 40 a run held too few items for a steady p95, so the range stops at 32.
HOMOLOGY_FIBERS = tuple(range(5, 33))
HOMOLOGY_MAX_ALPHA = 1000
HOMOLOGY_UNITS = 4


class HomologyWide:
    """first_homology on wide relation matrices: M from 5 to 32, alpha <= 1000.

    c1 != 0 throughout, so the SNF order must equal the closed-form torsion
    order.  An item is one first_homology call.
    """

    name = "homology-wide"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def passes(self, index: int):
        rng = random.Random(f"homology-wide:{self.seed}:{index}")
        fibers = list(HOMOLOGY_FIBERS)
        rng.shuffle(fibers)
        cases = []
        for m in fibers:
            while True:
                genus, euler = rng.randint(0, 3), rng.randint(-5, 5)
                pairs = [_coprime_pair(rng, HOMOLOGY_MAX_ALPHA, 2) for _ in range(m)]
                c1 = _chern(euler, pairs)
                if c1:
                    break
            datum = st.SeifertData(genus, euler, tuple(pairs))
            order = int(abs(c1 * prod(a for a, _ in pairs)))
            cases.append((datum, order, st.torsion_order_integer(datum)))
        return _chunks(cases, HOMOLOGY_UNITS)

    def run_unit(self, cases, tally: Tally, tracer) -> None:
        for datum, order, closed in cases:
            tracer.start_items(("datum",))
            start = clock()
            try:
                h1 = st.first_homology(datum)
            except Exception as exc:
                tally.add(clock() - start)
                tally.fail(f"{datum} raised {exc!r}")
                continue
            tally.add(clock() - start)
            ok = (
                h1.rank == 2 * datum.genus
                and h1.torsion_order() == order
                and closed == order
            )
            if not ok:
                tally.fail(f"{datum}: H1 {h1}, closed-form order {closed}")


# ------------------------------------------------------ partition-classes

PARTITION_DATA = 200
PARTITION_MAX_CLASSES = 30_000
PARTITION_UNITS = 5


class PartitionClasses:
    """One-shot `partition` CLI calls with class counts from 1 to about 3e4.

    Class counts are spread log-uniformly over strata, so every seed has the
    same shape of tail; every tenth datum has gauge rank 2, and cs-files
    alternate between JSON and plain decimals.  Each datum gets its cs-file
    before timing.  An item is one cli.run call.
    """

    name = "partition-classes"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"partition-classes:{seed}")
        top = math.log(PARTITION_MAX_CLASSES)
        self.cases = []
        for i in range(PARTITION_DATA):
            target = math.exp(top * (i + rng.random()) / PARTITION_DATA)
            rank = 2 if i % 10 == 9 else 1
            order = max(1, round(target ** (1 / rank)))
            genus, euler, pairs = self._datum_of_order(rng, order)
            classes = int(abs(_chern(euler, pairs) * prod(a for a, _ in pairs)))
            classes **= rank
            cs = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(classes)]
            path = workdir / f"cs-{i}.txt"
            if i % 2:
                path.write_text(json.dumps(cs))
            else:
                path.write_text("\n".join(map(repr, cs)) + "\n")
            argv = [
                "partition",
                "--data", _text(genus, euler, pairs),
                "--cs-file", str(path),
                "--level", str(rng.randint(1, 9)),
                "--grav-phase", repr(rng.uniform(-1.0, 1.0)),
                "--format", "json",
            ]
            if rank > 1:
                argv[-2:-2] = ["--gauge-rank", str(rank)]
            self.cases.append((argv, classes))
        rng.shuffle(self.cases)

    @staticmethod
    def _datum_of_order(rng: random.Random, order: int):
        """A random datum whose torsion order |c1| * prod(alpha) is `order`."""
        for _ in range(200):
            genus = rng.randint(0, 3)
            pairs = [_coprime_pair(rng, 50) for _ in range(rng.randint(1, 3))]
            alpha_product = prod(a for a, _ in pairs)
            rest = sum(b * (alpha_product // a) for a, b in pairs)
            for sign in (1, -1):
                euler, left = divmod(sign * order - rest, alpha_product)
                if not left:
                    return genus, euler, pairs
        return rng.randint(0, 3), rng.choice((order, -order)), []

    def passes(self, index: int):
        return _chunks(self.cases, PARTITION_UNITS)

    def run_unit(self, cases, tally: Tally, tracer) -> None:
        for argv, classes in cases:
            tracer.start_items(("call",))
            out = io.StringIO()
            start = clock()
            try:
                code = cli.run(argv, out, io.StringIO())
            except Exception as exc:
                code = f"raised {exc!r}"
            tally.add(clock() - start)
            try:
                ok = code == 0 and self._check(out.getvalue(), classes)
            except (KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                tally.fail(f"{' '.join(argv)}: exit {code}")

    @staticmethod
    def _check(text: str, classes: int) -> bool:
        report = json.loads(text)
        magnitude = report["magnitude"]
        zbar = report["zbar"]["abs"]
        phase = report["phase_factor"]
        return (
            math.isclose(magnitude, zbar, rel_tol=1e-12, abs_tol=1e-300)
            and magnitude <= report["coherent_bound"] * (1 + 1e-12)
            and report["classes"] == str(classes)
            and abs(math.hypot(phase["re"], phase["im"]) - 1.0) <= 1e-12
        )


WORKLOADS = {w.name: w for w in (BatchSmall, DedekindGrid, HomologyWide, PartitionClasses)}
