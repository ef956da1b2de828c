"""The four seeded workloads: corpora, operations and output checks.

Each workload has a fixed corpus, generated from ``CORPUS_SEED`` and
recorded with its goldens in ``goldens/<name>.json`` (made by
``make_goldens.py``).  A run's ``--seed`` draws about half of every stratum of
the corpus (see ``draw_half``), so every seed sees the same cost profile
on different inputs.

An op is a ``(key, run, check)`` triple.  ``run`` calls into ``vspace``
through module attributes looked up at call time, so the tracer's
rebinding takes effect.  ``check`` compares the result with the golden and
re-checks every witness with ``reference.blocks_chain``.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import reference as ref

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDENS = BENCH / "goldens"
FIXTURES = ROOT / "tests" / "fixtures"

CORPUS_SEED = 20161001
# pruned-random: the corpus keeps instances the seed code decides within
# SELECT_NODES search nodes (about 0.15 s), so a run collects enough
# samples and its time is not carried by one instance; NODE_CAP is the
# budget every op runs under.
SELECT_NODES = 400
NODE_CAP = 20000
STAGES = 8

NOT_APPLICABLE = "notapplicable"
HOLDS = "holds"
STATUS = {"E": (NOT_APPLICABLE, "equal labels"), "N": (NOT_APPLICABLE, "not connected"), "H": (HOLDS, None)}


class CorpusMismatch(Exception):
    """The regenerated corpus differs from the one the goldens were made for."""


def load_goldens(name: str) -> dict:
    return json.loads((GOLDENS / f"{name}.json").read_text())


def draw_half(rng: random.Random, weights: list) -> list[int]:
    """About half of a stratum, with the same cost profile for every seed.

    The heaviest eighth by cost proxy is always taken: a few heavy
    instances carry most of a run's time and its p90, so drawing them by
    chance would make those metrics depend on the seed.  Of the rest,
    sorted by cost proxy, one of each consecutive pair is drawn.
    """
    order = sorted(range(len(weights)), key=lambda i: (weights[i], i))
    split = len(order) - len(order) // 8
    bulk, heavy = order[:split], order[split:]
    return [rng.choice(bulk[i : i + 2]) for i in range(0, len(bulk), 2)] + heavy


def witness_checker(a: int, b: int):
    """Memoised ``reference.blocks_chain`` for one instance's endpoints."""
    seen: dict[tuple, bool] = {}

    def blocks(space, cover) -> bool:
        key = tuple(sorted(cover.items()))
        if key not in seen:
            seen[key] = ref.blocks_chain(space, cover, a, b)
        return seen[key]

    return blocks


def check_digest(texts, expected: str) -> None:
    got = ref.digest(texts)
    if got != expected:
        raise CorpusMismatch(f"corpus digest {got[:12]} != golden {expected[:12]}")


# ------------------------------------------------------------------ sweep

def random_space(vs, rng: random.Random, max_points: int = 6, max_vics: int = 3):
    """The criterion-1 ``random_space`` family (n <= 6, k <= 3)."""
    n = rng.randint(2, max_points)
    mode = vs.spaces.WEAK if rng.random() < 0.25 else vs.spaces.STRONG
    vicinities = {}
    for p in range(n):
        k = rng.randint(1, max_vics)
        vics: list[frozenset[int]] = []
        attempts = 0
        while len(vics) < k and attempts < 25:
            attempts += 1
            members = frozenset({p} | {q for q in range(n) if q != p and rng.random() < 0.4})
            if mode == vs.spaces.STRONG and members in vics:
                continue
            vics.append(members)
        vicinities[p] = vics
    return vs.spaces.make_space(vicinities, mode=mode, num_points=n)


def random_labeling(rng: random.Random, n: int, max_labels: int = 3) -> dict[int, str]:
    tokens = ["A", "B", "C"][: rng.randint(1, max_labels)]
    return {p: rng.choice(tokens) for p in range(n)}


def three_point_systems() -> list[list[tuple[frozenset[int], ...]]]:
    """Per point, every strong system of one or two vicinities on 0..2."""
    per_point = []
    for p in range(3):
        others = [q for q in range(3) if q != p]
        subsets = [
            frozenset({p} | {q for i, q in enumerate(others) if mask >> i & 1}) for mask in range(4)
        ]
        per_point.append([(s,) for s in subsets] + [(s, t) for s in subsets for t in subsets if s != t])
    return per_point


EXHAUSTIVE_SIZE = 16**3 * 27 * 3
LABELINGS = list(itertools.product("ABC", repeat=3))
PAIRS = ((0, 1), (0, 2), (1, 2))


def sweep_corpus(vs, random_count: int, exhaustive_count: int) -> list[list[tuple]]:
    """Strata: the random family, and a fixed sample of the exhaustive 3-point sweep."""
    rng = random.Random(CORPUS_SEED)
    family = []
    for _ in range(random_count):
        space = random_space(vs, rng)
        pi = random_labeling(rng, space.num_points)
        family.append((space, pi, rng.randrange(space.num_points), rng.randrange(space.num_points)))
    per_point = three_point_systems()
    strong = vs.spaces.STRONG
    exhaustive = []
    for idx in random.Random(CORPUS_SEED + 1).sample(range(EXHAUSTIVE_SIZE), exhaustive_count):
        space_idx, rest = divmod(idx, 81)
        lab_idx, pair_idx = divmod(rest, 3)
        digits = (space_idx // 256, space_idx // 16 % 16, space_idx % 16)
        systems = {p: vs.spaces.VicinitySystem(p, per_point[p][digits[p]], strong) for p in range(3)}
        space = vs.spaces.FiniteVSpace(3, systems, strong)
        exhaustive.append((space, dict(enumerate(LABELINGS[lab_idx])), *PAIRS[pair_idx]))
    return [family, exhaustive]


def sweep_canon(inst) -> str:
    space, pi, a, b = inst
    return f"{ref.canon_space(space)}#{''.join(pi[p] for p in sorted(pi))}#{a},{b}"


def sweep_golden(inst) -> list:
    """[status code, violations, tolerant cover] from the reference checks."""
    space, pi, a, b = inst
    if pi[a] == pi[b]:
        return ["E", None, None]
    bad, indices = ref.least_constant_indices(space, pi)
    cover = None if bad else [indices[p] for p in range(space.num_points)]
    if not ref.connected(space, a, b):
        return ["N", bad, cover]
    if not bad:
        raise AssertionError("connected endpoints with different labels under a tolerant labeling")
    return ["H", bad, None]


def sweep_op(vs, inst, golden):
    space, pi, a, b = inst
    tol, conn = vs.tolerance, vs.connectivity
    code, g_bad, g_cover = golden
    want_status, want_reason = STATUS[code]
    blocks = witness_checker(a, b)

    def run():
        outcome = tol.check_nontol(space, pi, a, b)
        if pi[a] == pi[b]:
            return outcome, None, None, None
        report = tol.tolerance_report(space, pi)
        if report.violations:
            return outcome, report, None, None
        cover = tol.tolerant_cover(space, pi)
        return outcome, report, cover, conn.verify_witness(space, cover, a, b)

    def check(result) -> bool:
        outcome, report, cover, ok = result
        if outcome.status != want_status or outcome.reason != want_reason:
            return False
        if code == "H" and sorted(outcome.violations) != g_bad:
            return False
        if code == "E":
            return report is None
        if sorted(report.violations) != g_bad:
            return False
        if g_cover is None:
            return cover is None
        return cover == dict(enumerate(g_cover)) and ok is True and blocks(space, cover)

    return run, check


class Sweep:
    name = "sweep"
    children = False
    random_count = 3000
    exhaustive_count = 3000

    def ops(self, vs, seed: int, ctx) -> list:
        goldens = load_goldens(self.name)
        strata = sweep_corpus(vs, self.random_count, self.exhaustive_count)
        check_digest((sweep_canon(i) for s in strata for i in s), goldens["digest"])
        rng = random.Random(seed)
        out = []
        for s, (insts, golds) in enumerate(zip(strata, goldens["strata"])):
            for i in draw_half(rng, [inst[0].num_points for inst in insts]):
                out.append((f"{s}:{i}", *sweep_op(vs, insts[i], golds[i])))
        rng.shuffle(out)
        return out


# ------------------------------------------------------------ pruned-random

def dense_space(vs, seed: int, n: int, prob: float):
    """n points, three distinct vicinities each, members drawn with prob."""
    rng = random.Random(seed)
    vicinities = {}
    for p in range(n):
        vics: list[frozenset[int]] = []
        while len(vics) < 3:
            members = frozenset({p} | {q for q in range(n) if q != p and rng.random() < prob})
            if members not in vics:
                vics.append(members)
        vicinities[p] = vics
    return vs.spaces.make_space(vicinities, num_points=n)


def pruned_op(vs, space, golden):
    conn = vs.connectivity
    b = space.num_points - 1
    blocks = witness_checker(0, b)
    want = golden["connected"]

    def run():
        return conn.is_connected(space, 0, b, engine="pruned", max_covers=NODE_CAP)

    def check(verdict) -> bool:
        if verdict.connected != want:
            return False
        return want or (verdict.witness is not None and blocks(space, verdict.witness))

    return run, check


class PrunedRandom:
    name = "pruned-random"
    children = False

    def ops(self, vs, seed: int, ctx) -> list:
        goldens = load_goldens(self.name)
        strata = [
            [dense_space(vs, g["seed"], g["n"], g["prob"]) for g in golds] for golds in goldens["strata"]
        ]
        check_digest((ref.canon_space(sp) for s in strata for sp in s), goldens["digest"])
        rng = random.Random(seed)
        out = []
        for s, (spaces, golds) in enumerate(zip(strata, goldens["strata"])):
            for i in draw_half(rng, [g["nodes"] for g in golds]):
                out.append((f"{s}:{i}", *pruned_op(vs, spaces[i], golds[i])))
        rng.shuffle(out)
        return out


# ------------------------------------------------------------------- coded

def pair(x: int, s: int) -> int:
    d = x + s
    return d * (d + 1) // 2 + x


def x_max(m: int) -> int:
    """Largest value whose code at the last stage fits under point bound m."""
    x = -1
    while pair(x + 1, STAGES) <= m:
        x += 1
    return x


LOOP = (("DECJZ", 0, 0),)


def random_program(rng: random.Random) -> tuple:
    """A short two-register program that halts by step 6 or not by step 8."""
    length = rng.randint(1, 5)
    program = []
    for _ in range(length):
        kind = rng.random()
        if kind < 0.45:
            program.append(("INC", rng.randint(0, 1)))
        elif kind < 0.85:
            program.append(("DECJZ", rng.randint(0, 1), rng.randint(0, length)))
        else:
            program.append(("HALT",))
    steps = ref.machine_halts_at(program, STAGES)
    return tuple(program) if steps is None or steps <= STAGES - 2 else LOOP


def scripted_entries(rng: random.Random, m: int, most: int, last: int) -> dict[int, int]:
    """Scripted oracle entries: 1 to ``most`` values, first enumerated by stage
    ``last``, with headroom at point bound m.

    Below M = 36 no value has headroom, so the oracle enumerates values
    past the point bound, which the coding ignores.
    """
    pool = list(range(3, x_max(m) + 1))
    if not pool:
        return {x: rng.randint(0, last) for x in rng.sample(range(m + 1, m + 20), most)}
    k = rng.randint(1, min(most, len(pool)))
    return {x: rng.randint(0, last) for x in rng.sample(pool, k)}


# (M, scripted oracles, machine oracles, most entries and latest stage of
# a scripted oracle).  At M = 300 every search node rescans all point
# pairs (about 50 ms) and each entry enumerated at stage s adds about s+1
# nodes, so one early entry keeps the op near 0.3 s and a run collects
# at least 100 samples.
CODED_CLASSES = ((25, 8, 0, 3, STAGES - 2), (120, 8, 4, 4, STAGES - 2), (300, 8, 0, 1, 1))


def coded_corpus() -> list[list[dict]]:
    """Per point bound, oracle specs: scripted entries or machine programs."""
    rng = random.Random(CORPUS_SEED + 3)
    strata = []
    for m, scripted, machines, most, last in CODED_CLASSES:
        specs = []
        for _ in range(scripted):
            specs.append({"m": m, "b": rng.choice([1, 2]), "entries": scripted_entries(rng, m, most, last)})
        for _ in range(machines):
            programs = [LOOP] * 3 + [random_program(rng) for _ in range(3, x_max(m) + 1)]
            specs.append({"m": m, "b": rng.choice([1, 2]), "programs": programs})
        strata.append(specs)
    return strata


def coded_canon(spec) -> str:
    body = spec.get("programs") or sorted(spec["entries"].items())
    return f"{spec['m']}#{spec['b']}#{body!r}"


def build_oracle(vs, spec):
    if "programs" in spec:
        return vs.oracles.machine_enumeration(spec["programs"], STAGES)
    return vs.oracles.EnumerationOracle(spec["entries"], STAGES)


def reference_entries(spec) -> dict[int, int]:
    if "entries" in spec:
        return dict(spec["entries"])
    steps = {x: ref.machine_halts_at(p, STAGES) for x, p in enumerate(spec["programs"])}
    return {x: s for x, s in steps.items() if s is not None}


def coded_golden(spec) -> dict:
    entries = reference_entries(spec)
    return {
        "entries": sorted(entries.items()),
        "decoded": sorted(x for x in entries if x <= spec["m"]),
    }


def coded_op(vs, spec, oracle, golden):
    coding, conn = vs.coding, vs.connectivity
    config = coding.CodedSpaceConfig(0, spec["b"], spec["m"], STAGES)
    a, b = 0, spec["b"]
    entries = [tuple(e) for e in golden["entries"]]
    decoded = tuple(golden["decoded"])
    blocks = witness_checker(a, b)

    def run():
        coded = coding.build_coded_space(oracle, config)
        report = coding.verify_roundtrip(oracle, config)
        verdict = conn.is_connected(coded.space, a, b, engine="pruned")
        found = None
        if not verdict.connected:
            found = coding.decode_from_cover(coded.space, verdict.witness, a, b)
        return coded.space, report, verdict, found

    def check(result) -> bool:
        space, report, verdict, found = result
        if sorted(oracle.entries.items()) != entries:
            return False
        if not report.passed or report.decoded_in != decoded or verdict.connected:
            return False
        return blocks(space, verdict.witness) and tuple(x for x in sorted(found) if found[x]) == decoded

    return run, check


class Coded:
    name = "coded"
    children = False

    def ops(self, vs, seed: int, ctx) -> list:
        goldens = load_goldens(self.name)
        strata = coded_corpus()
        check_digest((coded_canon(s) for st in strata for s in st), goldens["digest"])
        rng = random.Random(seed)
        out = []
        for s, (specs, golds) in enumerate(zip(strata, goldens["strata"])):
            for i in draw_half(rng, [g["nodes"] for g in golds]):
                oracle = build_oracle(vs, specs[i])
                out.append((f"{s}:{i}", *coded_op(vs, specs[i], oracle, golds[i])))
        rng.shuffle(out)
        return out


# --------------------------------------------------------------------- cli

CLI_ORACLES = 8
CLI_POINTS = 300
FIXTURE_FILES = ("s1.vs", "s2.vs", "invalid_dup.vs", "coded_small.vs", "coded_witness.cov", "k1.orc")
CLI_INPUTS = ("oracle.orc", "coded.vs", "witness.cov")


def cli_oracles() -> list[dict[int, int]]:
    rng = random.Random(CORPUS_SEED + 4)
    return [scripted_entries(rng, CLI_POINTS, 1, 0) for _ in range(CLI_ORACLES)]


def cli_commands(work: Path, j: int) -> list[tuple[str, bool, list[str], list[str]]]:
    """(key, large, argv, output files) of one block of ops for oracle j.

    Nine large ops run on oracle j and its coded space (M = 300) and
    twelve small ones on the test fixtures; half of each group write
    files.  Start-up and imports dominate every op but the three that
    search the coded space, which take about three times as long.  Those
    are a seventh of the ops, so p50 falls among the others and p90
    inside the searches rather than on the edge of either group.
    """
    f = {name: str(FIXTURES / name) for name in FIXTURE_FILES}
    w = {name: str(work / f"{j}_{name}") for name in CLI_INPUTS}
    out = lambda name: str(work / name)  # noqa: E731
    large = [
        ("code-build", ["code-build", "--oracle", w["oracle.orc"], "--a", "0", "--b", "2", "--points",
                        str(CLI_POINTS), "--stages", str(STAGES), "--out-space", out("built.vs"),
                        "--out-pi", out("built_pi.vs")], ["built.vs", "built_pi.vs"]),
        ("tolerant-cover", ["tolerant-cover", w["coded.vs"], "--out", out("tolerant.cov")], ["tolerant.cov"]),
        ("induced", ["induced", w["coded.vs"], "--out", out("induced.vs")], ["induced.vs"]),
        ("connected-witness", ["connected", w["coded.vs"], "--engine", "pruned", "--witness-out",
                               out("witness.cov")], ["witness.cov"]),
        ("validate", ["validate", w["coded.vs"]], []),
        ("tolerance", ["tolerance", w["coded.vs"]], []),
        ("code-decode", ["code-decode", "--space", w["coded.vs"], "--cover", w["witness.cov"],
                         "--oracle", w["oracle.orc"]], []),
        ("connected", ["connected", w["coded.vs"], "--engine", "pruned"], []),
        ("verify-nontol", ["verify-nontol", w["coded.vs"], "--engine", "pruned"], []),
    ]
    small = [
        ("connected-witness-s1", ["connected", f["s1.vs"], "--witness-out", out("s1.cov")], ["s1.cov"]),
        ("tolerant-cover-s1", ["tolerant-cover", f["s1.vs"], "--out", out("s1_tolerant.cov")], ["s1_tolerant.cov"]),
        ("induced-s2", ["induced", f["s2.vs"], "--out", out("s2_induced.vs")], ["s2_induced.vs"]),
        ("code-build-k1", ["code-build", "--oracle", f["k1.orc"], "--a", "0", "--b", "2", "--points", "25",
                           "--stages", "3", "--out-space", out("k1.vs"), "--out-pi", out("k1_pi.vs")],
         ["k1.vs", "k1_pi.vs"]),
        ("tolerant-cover-coded-small", ["tolerant-cover", f["coded_small.vs"], "--out", out("small.cov")],
         ["small.cov"]),
        ("connected-witness-coded-small", ["connected", f["coded_small.vs"], "--engine", "pruned",
                                           "--witness-out", out("small_witness.cov")], ["small_witness.cov"]),
        ("connected-s2", ["connected", f["s2.vs"]], []),
        ("verify-nontol-s2", ["verify-nontol", f["s2.vs"]], []),
        ("verify-nonconn-s1", ["verify-nonconn", f["s1.vs"]], []),
        ("validate-invalid-dup", ["validate", f["invalid_dup.vs"]], []),
        ("code-decode-small", ["code-decode", "--space", f["coded_small.vs"], "--cover",
                               f["coded_witness.cov"], "--oracle", f["k1.orc"]], []),
        ("code-roundtrip-k1", ["code-roundtrip", "--oracle", f["k1.orc"], "--a", "0", "--b", "2",
                               "--points", "25", "--stages", "3"], []),
    ]
    return [(key, True, argv, outs) for key, argv, outs in large] + [
        (key, False, argv, outs) for key, argv, outs in small
    ]


def write_cli_inputs(vs, entries: dict[int, int], work: Path, j: int) -> dict[str, str]:
    """Write oracle j, its coded space and tolerant witness; return their digests."""
    files, coding = vs.files, vs.coding
    oracle = vs.oracles.EnumerationOracle(entries, STAGES)
    coded = coding.build_coded_space(oracle, coding.CodedSpaceConfig(0, 2, CLI_POINTS, STAGES))
    texts = {
        "oracle.orc": files.serialize_oracle(oracle),
        "coded.vs": files.serialize_space(files.SpaceDocument(coded.space, coded.pi, 0, 2)),
        "witness.cov": files.serialize_cover(vs.tolerance.tolerant_cover(coded.space, coded.pi)),
    }
    for name, text in texts.items():
        (work / f"{j}_{name}").write_text(text, encoding="utf-8")
    return {name: ref.sha(text.encode()) for name, text in texts.items()}


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_subprocess(argv: list[str], env) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "vspace.cli", *argv],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True, check=False,
    )
    return proc.returncode, proc.stdout


def run_cli_inprocess(vs, argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = vs.cli.main(argv)
    return code, out.getvalue().encode()


def cli_result_golden(work: Path, code: int, stdout: bytes, outputs: list[str]) -> dict:
    """Digests of the exit code, stdout and output files; removes the outputs
    so that a later op that fails to write cannot pass on a stale file."""
    files = {}
    for name in outputs:
        path = work / name
        files[name] = ref.sha(path.read_bytes()) if path.exists() else None
        path.unlink(missing_ok=True)
    return {"exit": code, "stdout": ref.sha(stdout), "files": files}


class Cli:
    name = "cli"
    children = True  # each op is one interpreter started for the vspace CLI

    def ops(self, vs, seed: int, ctx) -> list:
        goldens = load_goldens(self.name)
        oracles = cli_oracles()
        fixtures = [(FIXTURES / name).read_bytes().decode() for name in FIXTURE_FILES]
        check_digest([repr(sorted(e.items())) for e in oracles] + fixtures, goldens["digest"])
        rng = random.Random(seed)
        work = ctx.work
        env = cli_env()
        out = []
        # One shuffled block per drawn oracle, in turn, so that a run of a
        # few blocks already has the nominal mix of large and small ops.
        for j in draw_half(rng, goldens["nodes"]):
            # The inputs are written by the library; if they moved, every
            # large op of this oracle counts as failed.
            inputs_ok = write_cli_inputs(vs, oracles[j], work, j) == goldens["inputs"][j]
            block = []
            for key, large, argv, outputs in cli_commands(work, j):
                golden = goldens["large"][j][key] if large else goldens["small"][key]
                if ctx.in_process:
                    run = lambda argv=argv: run_cli_inprocess(vs, argv)  # noqa: E731
                else:
                    run = lambda argv=argv: run_cli_subprocess(argv, env)  # noqa: E731

                def check(result, outputs=outputs, golden=golden, ok=inputs_ok or not large) -> bool:
                    return cli_result_golden(work, *result, outputs) == golden and ok

                block.append((f"{j}:{key}", run, check))
            rng.shuffle(block)
            out += block
        return out


WORKLOADS = {w.name: w for w in (Sweep(), PrunedRandom(), Coded(), Cli())}
