#!/usr/bin/env python3
"""pathdirac benchmark: the real CLI, driven in-process on seeded inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``. One
closed-loop client calls ``pathdirac.cli.main(argv)`` for the workload's
ops in a fixed round, each op starting when the previous one ends, until
``--seconds`` have passed and the round is complete.

Set-up (interpreter start, ``import pathdirac``, input generation and one
warm-up round) is measured in SETUP_REPEATS child processes and reported as
the median ``setup_s``. Every timed op must exit 0, print no ``FAIL`` line
and write outputs byte-identical to the warm-up round; for the default seed
the inputs, and the outputs where ``float_fingerprint`` matches, must also
match ``data/digests.json``. A failed op stays in the timings and counts in
``failed``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
rounds (see ``tracing.py``) plus ``trace.overhead_ratio``; its spans go to
``perfbench/out/results/*.spans.jsonl``. The last stdout line is the result
as one JSON object; the lines before it give each metric with its unit and
sample count, and ``perfbench/out/results/`` keeps the full record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "data" / "digests.json"

DEFAULT_SEED = 0
RUN_SECONDS = 50  # BENCHMARK.json's run_seconds
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 25  # three probes stay inside a 180 s run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# p90 is reported only with at least this many samples above it.
TAIL_SAMPLES = 10


class ProgramMissing(Exception):
    pass


def pin_threads() -> None:
    """One BLAS thread, set before numpy loads: output bytes depend on the thread count."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_cli():
    """Import pathdirac from this checkout's src/ and return its cli module."""
    if not (SRC / "pathdirac" / "__init__.py").is_file():
        raise ProgramMissing(f"no pathdirac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pathdirac.cli

    if not Path(pathdirac.cli.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"pathdirac was imported from {pathdirac.cli.__file__}, not {SRC}")
    return pathdirac.cli


# ---------------------------------------------------------------------------
# Ops and their outcomes


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digests(directory: Path) -> dict[str, str]:
    return {
        p.relative_to(directory).as_posix(): sha256(p.read_bytes())
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def run_op(cli, argv: list[str], out_dir: Path) -> tuple[float, dict]:
    """Run one CLI op into an emptied out_dir; return (seconds, outcome).

    The outcome holds the exit code and the digests of stdout and of every
    file written, or the error an op raised instead of returning.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    stdout = io.StringIO()
    error = None
    gc.collect()  # garbage left by earlier ops is not collected on this op's clock
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*argv, "--out", str(out_dir)])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the op fails; the benchmark records it and goes on
        code, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    text = stdout.getvalue()
    outcome = {"exit": code, "stdout": sha256(text.encode()), "files": tree_digests(out_dir),
               "fail_lines": sum(line.startswith("FAIL") for line in text.splitlines())}
    if error:
        outcome["error"] = error
    return seconds, outcome


def op_failed(outcome: dict, reference: dict | None) -> bool:
    return outcome["exit"] != 0 or outcome["fail_lines"] > 0 or "error" in outcome or (
        reference is not None and outcome != reference)


class Workspace:
    """One workload's inputs and warm-up round, in a private work directory.

    The process works inside that directory, so argv paths, and hence
    stdout, are the same in every process.
    """

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.workdir = OUT / "work" / f"{workload}-s{seed}-p{os.getpid()}"
        self._old_cwd = None

    def __enter__(self) -> "Workspace":
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "in").mkdir(parents=True)
        self._old_cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            self.ops = workloads.write_inputs(self.workload, self.seed, Path("in"))
            self.inputs = tree_digests(Path("in"))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        os.chdir(self._old_cwd)
        shutil.rmtree(self.workdir, ignore_errors=True)

    def out_dir(self, k: int) -> Path:
        return Path(f"o{k}")

    def warm_up(self, cli) -> list[dict]:
        return [run_op(cli, argv, self.out_dir(k))[1] for k, argv in enumerate(self.ops)]


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body for setup_s: full set-up, then report what it saw."""
    cli = load_cli()
    with Workspace(workload, seed) as workspace:
        warm = workspace.warm_up(cli)
        print(json.dumps({"inputs": workspace.inputs, "warm_up": warm}, sort_keys=True))


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[dict]]:
    """Wall time of SETUP_REPEATS fresh processes from spawn to exit."""
    seconds, reports = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            report = {"error": f"set-up took over {PROBE_TIMEOUT_S} s"}
        else:
            lines = proc.stdout.strip().splitlines()
            ok = proc.returncode == 0 and lines
            report = json.loads(lines[-1]) if ok else {"error": proc.stderr[-2000:]}
        seconds.append(time.perf_counter() - start)
        reports.append(report)
    return seconds, reports


# ---------------------------------------------------------------------------
# Statistics


def percentile(samples: list[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest sample with pct percent of them at or below."""
    ordered = sorted(samples)
    return ordered[max(1, -(-pct * len(ordered) // 100)) - 1]


def timing_summary(samples: list[float]) -> dict:
    """Median and, when at least TAIL_SAMPLES samples lie above it, the p90."""
    out = {"n": len(samples), "p50": statistics.median(samples)}
    p90 = percentile(samples, 90)
    above = sum(x > p90 for x in samples)
    out["p90"] = p90 if above >= TAIL_SAMPLES else None
    out["above_p90"] = above
    return out


# ---------------------------------------------------------------------------
# The timed run


def timed_rounds(cli, workspace: Workspace, reference: list[dict], seconds: float,
                 tracer: tracing.Tracer | None) -> dict:
    """Closed loop over whole rounds until `seconds` have passed.

    With a tracer, odd rounds are traced, and the loop ends after an even
    number of rounds so both kinds are present.
    """
    times = {False: [], True: []}
    failures = []
    attempted = 0
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for k, argv in enumerate(workspace.ops):
                if traced:
                    tracer.begin_op(attempted)
                secs, outcome = run_op(cli, argv, workspace.out_dir(k))
                if traced:
                    tracer.end_op()
                times[traced].append(secs)
                if op_failed(outcome, reference[k]):
                    failures.append({"op": attempted, "argv": argv, "outcome": outcome})
                attempted += 1
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        if time.perf_counter() - start >= seconds and (tracer is None or rounds % 2 == 0):
            break
    return {"untraced": times[False], "traced": times[True], "failures": failures,
            "attempted": attempted, "rounds": rounds}


def float_fingerprint() -> str:
    """Digest of eigvalsh, QR and matmul results on a fixed integer matrix.

    Result files carry eigenvalues to 12 significant digits, rounding noise
    of zero eigenvalues included, so their bytes repeat only where the
    BLAS/LAPACK kernels round alike (same build, CPU kernel and thread
    count). Recorded output digests apply where this digest matches.
    """
    import numpy as np

    i = np.arange(240)
    m = ((np.outer(i, i) * 7 + i[:, None] + i[None, :]) % 11 - 5).astype(float)
    parts = (np.linalg.eigvalsh(m), np.linalg.qr(m / 3)[1], (m / 3) @ (m / 7))
    return sha256(b"".join(part.tobytes() for part in parts))[:16]


def check_warm_up(workspace: Workspace, warm: list[dict],
                  probes: list[dict]) -> tuple[list[dict], list[str], list[str]]:
    """The outcomes timed ops must match, plus problems and notes found on the way.

    The reference is the warm-up round; for the default seed it is the
    recorded digests, which the inputs and the warm-up must match too. Each
    set-up process must have seen the same inputs and outputs.
    """
    problems = [f"warm-up op {k} failed: {o}" for k, o in enumerate(warm) if op_failed(o, None)]
    notes = []
    reference = warm
    if workspace.seed == DEFAULT_SEED:
        record = json.loads(DIGESTS.read_text(encoding="utf-8"))
        recorded = record["workloads"][workspace.workload]
        if recorded["inputs"] != workspace.inputs:
            problems.append("generated inputs differ from the recorded digests")
        fingerprint = float_fingerprint()
        if fingerprint != record["float_fingerprint"]:
            notes.append(f"recorded output digests not checked: float fingerprint {fingerprint} "
                         f"differs from the recorded {record['float_fingerprint']}")
        else:
            reference = recorded["outputs"]
            if warm != reference:
                problems.append("warm-up outputs differ from the recorded digests")
    for i, probe in enumerate(probes):
        if probe.get("inputs") != workspace.inputs or probe.get("warm_up") != warm:
            problems.append(f"set-up process {i} saw other inputs or outputs: "
                            f"{probe.get('error', '')[-500:]}")
    return reference, problems, notes


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    for line in packed.read_text(encoding="utf-8").splitlines() if packed.is_file() else []:
        sha, _, ref_name = line.partition(" ")
        if ref_name == name:
            return sha
    return f"unknown ({name})"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "git_revision": git_revision(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def end_to_end(setup_s: list[float], loop: dict, rss_mb: float) -> dict:
    """Metric name -> (value, unit, sample count), from the untraced ops."""
    times = loop["untraced"]
    ok = loop["attempted"] - len(loop["failures"])
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "ops_per_s": (ok / sum(times), "1/s", len(times)),
        "op_s.p50": (statistics.median(times), "s", len(times)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def per_layer(tracer: tracing.Tracer, loop: dict) -> dict:
    """Metric name -> (value, unit, traced op count)."""
    n = len(loop["traced"])
    metrics = tracing.layer_metrics(tracer.spans, n)
    metrics["trace.overhead_ratio"] = (
        statistics.median(loop["traced"]) / statistics.median(loop["untraced"]), "ratio")
    return {name: (value, unit, n) for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_threads()
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        return benchmark(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def benchmark(args) -> int:
    cli = load_cli()
    probes: list[dict] = []
    setup_s: list[float] = []
    if not args.trace:
        setup_s, probes = measure_setup(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    with Workspace(args.workload, args.seed) as workspace:
        warm = workspace.warm_up(cli)
        reference, problems, notes = check_warm_up(workspace, warm, probes)
        loop = timed_rounds(cli, workspace, reference, args.seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = len(loop["failures"])
    attempted = loop["attempted"]
    env = environment()

    metrics = per_layer(tracer, loop) if args.trace else end_to_end(setup_s, loop, rss_mb)
    lines = [f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} rounds={loop['rounds']} ops/round={len(workspace.ops)}",
             "env " + json.dumps(env, sort_keys=True)]
    lines += [f"{name:40s} {value:14.6g} {unit:6s} n={n}"
              for name, (value, unit, n) in metrics.items()]
    if not args.trace:
        tail = timing_summary(loop["untraced"])
        shown = "dropped" if tail["p90"] is None else f"{tail['p90']:.6g}"
        lines.append(f"{'op_s.p90':40s} {shown:>14s} {'s':6s} n={tail['n']} "
                     f"({tail['above_p90']} samples above it, {TAIL_SAMPLES} needed)")
    lines.append(f"{'fail_rate':40s} {failed / attempted:14.6g} {'ratio':6s} "
                 f"n={attempted} ({failed} failed)")
    lines += [f"note: {n}" for n in notes]
    lines += [f"problem: {p}" for p in problems]
    lines += [f"failed op {f['op']}: {' '.join(f['argv'])}: {f['outcome']}"
              for f in loop["failures"][:3]]

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "correct": not problems and failed == 0, "attempted": attempted,
        "failed": failed, "problems": problems, "notes": notes, "failures": loop["failures"][:10],
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "setup_samples_s": setup_s,
        "op_samples_s": {"untraced": loop["untraced"], "traced": loop["traced"]},
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                          encoding="utf-8")
    if tracer is not None:
        tracer.write_jsonl(results / f"{stem}.spans.jsonl")

    print("\n".join(lines))
    print(json.dumps({
        "correct": record["correct"], "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
