"""Regenerate ``goldens/*.json`` for the benchmark corpora.

    python3 bench/make_goldens.py [workload ...]

Goldens come from the independent checks in ``reference.py`` (split
enumeration for connectedness, a double loop for tolerance, a separate
register-machine runner, and the oracle's own entries for decoding).
Every instance is then run once through the library and must agree, so a
corpus is only recorded when today's code and the reference agree on it.
The ``cli`` goldens are the exit code and the digests of stdout and of
every written file, recorded from the command line and sanity-checked
against the reference.
"""
from __future__ import annotations

import json
import random
import shutil
import sys

import reference as ref
import run as bench
import workloads as wl
from tracer import Tracer

PRUNED_PER_CLASS = 40
PRUNED_CLASSES = ((16, False), (16, True), (20, False), (20, True))


def agree(ops) -> None:
    failures: list[str] = []
    for key, run, check in ops:
        bench.run_op(key, run, check, failures)
    if failures:
        raise SystemExit(f"library disagrees with the reference on {failures[:5]}")


def write(name: str, data: dict) -> None:
    wl.GOLDENS.mkdir(exist_ok=True)
    (wl.GOLDENS / f"{name}.json").write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"wrote goldens/{name}.json")


def make_sweep(vs) -> None:
    sweep = wl.WORKLOADS["sweep"]
    strata = wl.sweep_corpus(vs, sweep.random_count, sweep.exhaustive_count)
    golds = [[wl.sweep_golden(inst) for inst in insts] for insts in strata]
    agree([(f"{s}:{i}", *wl.sweep_op(vs, inst, golds[s][i]))
           for s, insts in enumerate(strata) for i, inst in enumerate(insts)])
    digest = ref.digest(wl.sweep_canon(i) for s in strata for i in s)
    write("sweep", {"digest": digest, "strata": golds})


def make_pruned(vs) -> None:
    rng = random.Random(wl.CORPUS_SEED + 2)
    classes: dict[tuple[int, bool], list[dict]] = {c: [] for c in PRUNED_CLASSES}
    tracer = Tracer({name: getattr(vs, name) for name in (*bench.MODULES, "package")})
    while any(len(v) < PRUNED_PER_CLASS for v in classes.values()):
        n = rng.choice([16, 20])
        spec = {"seed": rng.randrange(2**31), "n": n, "prob": round(rng.uniform(0.09, 0.2), 3)}
        space = wl.dense_space(vs, spec["seed"], n, spec["prob"])
        tracer.calls.clear()
        tracer.install()
        try:
            verdict = vs.connectivity.is_connected(space, 0, n - 1, engine="pruned", max_covers=wl.SELECT_NODES)
        except vs.package.BudgetExceededError:
            continue
        finally:
            tracer.uninstall()
        if verdict.connected != ref.connected(space, 0, n - 1):
            raise SystemExit(f"library and reference disagree on {spec}")
        bucket = classes[(n, verdict.connected)]
        if len(bucket) < PRUNED_PER_CLASS:
            bucket.append({**spec, "connected": verdict.connected, "nodes": tracer.calls[bench.PRUNED]})
    strata = [classes[c] for c in PRUNED_CLASSES]
    spaces = [[wl.dense_space(vs, g["seed"], g["n"], g["prob"]) for g in golds] for golds in strata]
    agree([(f"{s}:{i}", *wl.pruned_op(vs, sp, strata[s][i]))
           for s, sps in enumerate(spaces) for i, sp in enumerate(sps)])
    write("pruned-random", {"digest": ref.digest(ref.canon_space(sp) for s in spaces for sp in s),
                            "strata": strata})


def make_coded(vs) -> None:
    strata = wl.coded_corpus()
    golds = [[wl.coded_golden(spec) for spec in specs] for specs in strata]
    ops = []
    for s, specs in enumerate(strata):
        for i, spec in enumerate(specs):
            oracle = wl.build_oracle(vs, spec)
            if sorted(oracle.entries.items()) != [tuple(e) for e in golds[s][i]["entries"]]:
                raise SystemExit(f"machine_enumeration disagrees with the reference on {s}:{i}")
            config = vs.coding.CodedSpaceConfig(0, spec["b"], spec["m"], wl.STAGES)
            coded = vs.coding.build_coded_space(oracle, config)
            golds[s][i]["nodes"] = pruned_nodes(vs, coded.space, 0, spec["b"])
            ops.append((f"{s}:{i}", *wl.coded_op(vs, spec, oracle, golds[s][i])))
    agree(ops)
    write("coded", {"digest": ref.digest(wl.coded_canon(s) for st in strata for s in st), "strata": golds})


CLI_EXIT = {"connected-witness-s1": 1, "connected-witness-coded-small": 1, "validate-invalid-dup": 1,
            "connected-witness": 1, "connected": 1}


def pruned_nodes(vs, space, a: int, b: int) -> int:
    """Search nodes ``is_connected(engine="pruned")`` takes on today's code."""
    tracer = Tracer({name: getattr(vs, name) for name in (*bench.MODULES, "package")})
    tracer.install()
    try:
        vs.connectivity.is_connected(space, a, b, engine="pruned")
    finally:
        tracer.uninstall()
    return tracer.calls[bench.PRUNED]


def make_cli(vs, work) -> None:
    oracles = wl.cli_oracles()
    fixtures = [(wl.FIXTURES / name).read_bytes().decode() for name in wl.FIXTURE_FILES]
    env = wl.cli_env()
    inputs, nodes, large, small = [], [], [], {}
    for j, entries in enumerate(oracles):
        inputs.append(wl.write_cli_inputs(vs, entries, work, j))
        coded = vs.files.parse_space((work / f"{j}_coded.vs").read_text())
        nodes.append(pruned_nodes(vs, coded.space, 0, 2))
        large.append({})
        for key, is_large, argv, outputs in wl.cli_commands(work, j):
            if not is_large and key in small:
                continue
            code, stdout = wl.run_cli_subprocess(argv, env)
            if code != CLI_EXIT.get(key, 0):
                raise SystemExit(f"{key} exited with {code}")
            if key == "code-build" and ref.sha((work / "built.vs").read_bytes()) != inputs[j]["coded.vs"]:
                raise SystemExit("code-build output differs from the library's coded space")
            if key == "connected":
                lines = stdout.decode().splitlines()
                cover = {int(p): int(i) for _, p, i in (line.split() for line in lines[1:])}
                if lines[0] != "notconnected" or not ref.blocks_chain(coded.space, cover, 0, 2):
                    raise SystemExit("connected on the coded space gave no valid witness")
            if key == "code-decode":
                want = ["decoded", *(f"in {x}" for x in sorted(entries) if x <= wl.CLI_POINTS), "agreement ok"]
                if stdout.decode().splitlines() != want:
                    raise SystemExit(f"code-decode printed {stdout!r}")
            golden = wl.cli_result_golden(work, code, stdout, outputs)
            (large[j] if is_large else small)[key] = golden
    write("cli", {"digest": ref.digest([repr(sorted(e.items())) for e in oracles] + fixtures),
                  "inputs": inputs, "nodes": nodes, "large": large, "small": small})


def main(names) -> int:
    vs = bench.import_vspace()
    work = wl.ROOT / ".bench_work" / "goldens"
    work.mkdir(parents=True, exist_ok=True)
    makers = {
        "sweep": lambda: make_sweep(vs),
        "pruned-random": lambda: make_pruned(vs),
        "coded": lambda: make_coded(vs),
        "cli": lambda: make_cli(vs, work),
    }
    try:
        for name in names or makers:
            makers[name]()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
