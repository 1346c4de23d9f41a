"""The benchmark's four workloads: how each makes its jobs and checks them.

A job is one command line plus the NCTX text bound to its stdin.  Every job
is made from the workload's seeded generator and is new within a run: the
generator refuses a (argv, stdin) pair it has handed out before.  A workload
runs in rounds; a round holds one job of each of its classes, in a seeded
order, so the mix of classes is the same on every seed and only the content
of the jobs changes.

outcome() decides each job's outcome after the timed phase: "ok", "fail",
or "known" for a failure that matches one of KNOWN_DEFECTS exactly.  Any
other failure makes the run incorrect.

Commands with a known defect stay out of the timed rounds, so no timed job
fails for a reason known in advance.  They run in a probe instead: a fixed
number of seeded jobs per run, untimed, checked like any other job, and
reported on their own.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from itertools import product

from polyconcept.bounds import lower_bound_context_4d, lower_bound_count_4d
from polyconcept.context import NContext
from polyconcept.enumeration import brute_force_concepts
from polyconcept.generators import b_class, contranominal, rook_context

import oracle

KNOWN_DEFECTS = {
    "impl-check-TypeError": "impl-check calls _build_scope without its scope argument",
    "minimize-left-feature-class": "minimize output has other concept features than its input",
}


@dataclass
class Job:
    kind: str
    argv: list[str]
    stdin: str = ""
    meta: dict = field(default_factory=dict)


@dataclass
class Result:
    """What one call of cli.main did; stdout waits in a spool (harness.Spool)."""

    job: Job
    seconds: float
    code: int | None
    error: tuple[type, str] | None
    stderr: str
    spool: object
    ref: tuple[int, int]

    @property
    def returned(self) -> bool:
        return self.error is None and self.code == 0

    @property
    def stdout(self) -> str:
        return self.spool.get(self.ref)


@dataclass
class Outcome:
    status: str
    note: str = ""
    units: int = 0


class InputsExhausted(RuntimeError):
    """The workload has no new input left for this run."""


def nctx_text(dims, cells) -> str:
    lines = [f"NCTX 1 {len(dims)}", "sizes " + " ".join(str(len(d)) for d in dims)]
    lines += [f"labels {d + 1} " + " ".join(labels) for d, labels in enumerate(dims)]
    lines.append("mode crosses")
    lines += [" ".join(str(x + 1) for x in t) for t in sorted(cells)]
    return "\n".join(lines) + "\n"


def numeric_dims(sizes) -> list[tuple[str, ...]]:
    return [tuple(str(i + 1) for i in range(s)) for s in sizes]


def random_cells(rng: random.Random, sizes, density: float) -> list[tuple[int, ...]]:
    """Exactly round(density * cells) crosses, so density does not vary by seed."""
    every = list(product(*(range(s) for s in sizes)))
    return rng.sample(every, round(density * len(every)))


def _fail(note: str) -> Outcome:
    return Outcome("fail", note)


class Workload:
    name = ""
    unit = ""              # the report's <unit>_per_s: "concepts", "orbits" or none
    trace_rounds = 1       # rounds replayed by a traced run
    classes: list = []
    probe_classes: list = []  # classes with a known defect, kept out of the rounds
    probe_rounds = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.seen: set = set()

    def make(self, cls, rng: random.Random) -> Job:
        raise NotImplementedError

    def check(self, res: Result) -> Outcome:
        """The outcome of a job that returned."""
        raise NotImplementedError

    def known_failure(self, res: Result) -> str | None:
        """The KNOWN_DEFECTS key this job's failure matches, if any."""
        return None

    def outcome(self, res: Result) -> Outcome:
        known = self.known_failure(res)
        if known:
            return Outcome("known", known)
        if not res.returned:
            return _fail(f"exit {res.code}, error {res.error}, stderr {res.stderr.strip()!r}")
        return self.check(res)

    def fresh(self, cls, rng: random.Random) -> Job:
        for _ in range(100):
            job = self.make(cls, rng)
            key = (tuple(job.argv), job.stdin)
            if key not in self.seen:
                self.seen.add(key)
                return job
        raise InputsExhausted(f"no new input of class {cls[0]!r}")

    def round(self) -> list[Job]:
        order = list(self.classes)
        self.rng.shuffle(order)
        return [self.fresh(cls, self.rng) for cls in order]

    def probe(self) -> list[Job]:
        """The untimed probe jobs, from a stream of their own."""
        rng = random.Random(f"{self.name}:{self.seed}:probe")
        return [self.fresh(cls, rng) for _ in range(self.probe_rounds)
                for cls in self.probe_classes]

    def warmup(self, i: int) -> Job:
        """A job of the first class, from a stream of its own."""
        rng = random.Random(f"{self.name}:{self.seed}:warmup:{i}")
        return self.fresh(self.classes[0], rng)


class EnumDense(Workload):
    """`count` on seeded random contexts: the enumeration layer is the job."""

    name = "enum-dense"
    unit = "concepts"
    # Classes of similar cost (about 0.5-0.8 s each at the seed commit), so
    # the latency distribution has one mode and p50 and the tail do not sit
    # on a boundary between classes.
    classes = [
        ("3d-999-d75", (9, 9, 9), 0.75),
        ("3d-999-d80", (9, 9, 9), 0.80),
        ("3d-10109-d75", (10, 10, 9), 0.75),
        ("4d-5556-d85", (5, 5, 5, 6), 0.85),
        ("4d-6655-d85", (6, 6, 5, 5), 0.85),
    ]

    def make(self, cls, rng):
        kind, sizes, density = cls
        cells = random_cells(rng, sizes, density)
        return Job(kind, ["count"], nctx_text(numeric_dims(sizes), cells))

    def check(self, res):
        try:
            got = int(res.stdout.strip())
        except ValueError:
            return _fail("count output is not an integer")
        # No closed form, and brute force is far over its cap: count again
        # with the dense enumeration of oracle.py, which shares no code with
        # the library's enumerator.
        want = oracle.count_concepts_dense(oracle.read_nctx(res.job.stdin)[1])
        if got != want:
            return _fail(f"count {got}, dense enumeration counts {want}")
        return Outcome("ok", units=got)


class EnumOutput(Workload):
    """`enum --format json` on extremal families with shuffled element order."""

    name = "enum-output"
    unit = "concepts"
    trace_rounds = 2
    # contranominal(3,8) runs twice per round, so that the tail percentile
    # (ten jobs beyond it) falls inside its cluster, and contranominal(3,7)
    # three times, so that p50 falls inside its cluster and not among the
    # contranominal(4,5) jobs, whose cost varies more, whatever the number
    # of rounds.
    classes = [
        ("contranominal-3-7", lambda: contranominal(3, 7), 3 ** 7),
        ("contranominal-3-7", lambda: contranominal(3, 7), 3 ** 7),
        ("contranominal-3-7", lambda: contranominal(3, 7), 3 ** 7),
        ("contranominal-3-8", lambda: contranominal(3, 8), 3 ** 8),
        ("contranominal-3-8", lambda: contranominal(3, 8), 3 ** 8),
        ("contranominal-4-4", lambda: contranominal(4, 4), 4 ** 4),
        ("contranominal-4-5", lambda: contranominal(4, 5), 4 ** 5),
        ("lower-bound-4d-5", lambda: lower_bound_context_4d(5), lower_bound_count_4d(5)),
        ("rook-3-6", lambda: rook_context(3, 6), None),
        ("rook-4-4", lambda: rook_context(4, 4), None),
        ("b-class-333", lambda: b_class((3, 3, 3)), None),
    ]

    def __init__(self, seed):
        super().__init__(seed)
        self.base = {kind: build() for kind, build, _ in self.classes}
        self.expected = {kind: count for kind, _, count in self.classes if count is not None}

    def make(self, cls, rng):
        ctx = self.base[cls[0]]
        perms = [rng.sample(range(s), s) for s in ctx.sizes]
        dims = [[""] * s for s in ctx.sizes]
        for d, labels in enumerate(ctx.dims):
            for x, label in enumerate(labels):
                dims[d][perms[d][x]] = label
        cells = [tuple(perms[d][x] for d, x in enumerate(t)) for t in ctx.relation]
        return Job(cls[0], ["enum", "--format", "json"], nctx_text(dims, cells))

    def expected_count(self, kind: str) -> int:
        # Families without a closed form are counted once by the oracle;
        # shuffling element order does not change the count.
        if kind not in self.expected:
            self.expected[kind] = len(brute_force_concepts(self.base[kind]))
        return self.expected[kind]

    def check(self, res):
        dims, dense = oracle.read_nctx(res.job.stdin)
        index = [{label: i for i, label in enumerate(labels)} for labels in dims]
        try:
            boxes = [
                tuple(tuple(index[d][label] for label in comp)
                      for d, comp in enumerate(entry["components"]))
                for entry in json.loads(res.stdout)
            ]
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return _fail(f"unreadable json output: {exc!r}")
        if any(len(box) != dense.ndim for box in boxes):
            return _fail("a box has the wrong arity")
        if len({tuple(frozenset(c) for c in box) for box in boxes}) != len(boxes):
            return _fail("duplicate concepts")
        want = self.expected_count(res.job.kind)
        if len(boxes) != want:
            return _fail(f"{len(boxes)} concepts, expected {want}")
        bad = int((~oracle.maximal_full(dense, boxes)).sum())
        if bad:
            return _fail(f"{bad} boxes are not maximal full boxes")
        return Outcome("ok", units=len(boxes))


class Search(Workload):
    """Budgeted `search` scans; the budgets B are drawn from the seed.

    Every budgeted scan starts at mask 0, so the jobs of one shape share the
    prefix of their scans: a repeated-input property of this workload.  A
    job's cost follows its scan length, which jumps with B, so budgets are
    drawn where the seed cannot move the mix: one (3,3) job per round with B
    from 27..60, where the scan stays within masks 523..600, and three (4,2)
    antithetic pairs (23 + j, 82 - j), whose summed scan varies by about 2%
    over j.
    """

    name = "search"
    unit = "orbits"

    def __init__(self, seed):
        super().__init__(seed)
        self.cubic = self.rng.sample(range(27, 61), 34)
        self.offsets = self.rng.sample(range(30), 30)

    @staticmethod
    def job(n: int, s: int, budget: int) -> Job:
        argv = ["search", "-n", str(n), "-s", str(s), "--max-relations", str(budget),
                "--show-witnesses"]
        return Job(f"search-{n}-{s}", argv, meta={"budget": budget})

    def round(self):
        if not self.cubic or len(self.offsets) < 3:
            raise InputsExhausted("every budget of this run has been used")
        shapes = [(3, 3, self.cubic.pop())]
        for j in self.offsets[-3:]:
            shapes += [(4, 2, 23 + j), (4, 2, 82 - j)]
        del self.offsets[-3:]
        self.rng.shuffle(shapes)
        return [self.job(*shape) for shape in shapes]

    def warmup(self, i):
        return self.job(4, 2, 15 + i)  # below every timed budget

    def check(self, res):
        head, *blocks = res.stdout.split("NCTX")
        m = re.fullmatch(
            r"(?:exact maximum|lower bound \(partial search\)): (\d+)\n"
            r"witnesses up to symmetry: (\d+)\n"
            r"relations examined: (\d+)\n", head)
        if not m:
            return _fail("unexpected search output")
        best, count, examined = (int(g) for g in m.groups())
        if examined != res.job.meta["budget"]:
            return _fail(f"examined {examined}, budget {res.job.meta['budget']}")
        if len(blocks) != count:
            return _fail(f"{len(blocks)} witnesses printed, {count} announced")
        for block in blocks:
            dims, dense = oracle.read_nctx("NCTX" + block)
            cells = zip(*(axis.tolist() for axis in dense.nonzero()))
            if len(brute_force_concepts(NContext.build(dims, cells))) != best:
                return _fail("a witness does not reach the reported maximum")
        return Outcome("ok", units=examined)


class Implications(Workload):
    """`classify` on small random 3-contexts; `minimize` and `impl-check` probed.

    A round holds one `classify` job per shape (objects, first feature side,
    density), so every run has the same mix of shapes: drawn per job, the
    shapes of the few slowest jobs, and with them job_tail_ms, moved from
    seed to seed.  Every `impl-check` job raises and most `minimize` outputs
    leave their feature class (KNOWN_DEFECTS), so both run in the probe and
    not in the timed rounds; a probe class names no shape, and each probe
    job draws one.
    """

    name = "implications"
    trace_rounds = 8
    shapes = [(objects, side, density) for objects in range(4, 9) for side in (3, 4)
              for density in (0.3, 0.4, 0.5, 0.6, 0.7)]
    classes = [("classify",) + shape for shape in shapes]
    probe_classes = [("minimize",), ("impl-check",)]

    def make(self, cls, rng):
        objects, side, density = cls[1:] or rng.choice(self.shapes)
        sizes = (objects, side, 3)
        cells = random_cells(rng, sizes, density)
        grid = list(product(range(sizes[1]), range(sizes[2])))
        premise = rng.sample(grid, rng.randint(1, 2))
        conclusion = rng.sample(grid, 1)
        meta = {"premise": premise, "conclusion": conclusion}
        argv = [cls[0]]
        if cls[0] != "minimize":
            side = lambda cs: ",".join(f"({y + 1},{z + 1})" for y, z in cs)
            argv += ["--impl", f"{side(premise)} -> {side(conclusion)}"]
        return Job(cls[0], argv, nctx_text(numeric_dims(sizes), cells), meta)

    def known_failure(self, res):
        error = res.error
        if (res.job.kind == "impl-check" and error and issubclass(error[0], TypeError)
                and "_build_scope" in error[1]):
            return "impl-check-TypeError"
        return None

    def check(self, res):
        job = res.job
        dims, dense = oracle.read_nctx(job.stdin)
        if job.kind == "minimize":
            out_dims, out_dense = oracle.read_nctx(res.stdout)
            if out_dims[1:] != dims[1:]:
                return _fail("minimize changed the feature dimensions")
            if oracle.concept_features(out_dense) != oracle.concept_features(dense):
                return Outcome("known", "minimize-left-feature-class")
            return Outcome("ok")
        holds, support = oracle.implication_verdict(dense, job.meta["premise"],
                                                    job.meta["conclusion"])
        line = res.stdout.rstrip("\n")
        if job.kind == "impl-check":
            verdict = "holds" if holds else "does not hold"
            return Outcome("ok") if line.endswith(f": {verdict}") else _fail(line)
        m = re.search(r": (structural|contextual|not-holding) \(support: (.*)\)$", line)
        if not m:
            return _fail(f"unexpected classify output {line!r}")
        if (m.group(1) == "not-holding") == holds:
            return _fail(f"verdict {m.group(1)} but the implication holds={holds}")
        labels = {dims[0][o] for o in support}
        if set(filter(None, m.group(2).split(","))) - {"none"} != labels:
            return _fail("support differs from the numpy flattening")
        return Outcome("ok")


WORKLOADS = {w.name: w for w in (EnumDense, EnumOutput, Search, Implications)}
