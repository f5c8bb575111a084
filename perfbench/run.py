"""Benchmark the `protouq` CLI pipeline, one child process per command.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit-val --seed 0 --seconds 30 --trace 0

A run generates its corpus from the workload seed, runs the workload's
`gen-synth` set-up several times, then repeats the pipeline commands in a
closed loop with one client until the next repetition would pass
``--seconds``.  Each command is timed from outside and its peak RSS read
with ``os.wait4``.  Between consecutive commands the fixed job in
perfbench/reference.py runs, and the reported times are calibrated by it
(see ``end_to_end``).  Every child runs its BLAS on one thread.  Outputs
are checked after the timed region.  With
``--trace 1`` the pipeline runs once untraced and once through
perfbench/traced_cli.py, and the per-layer metrics come from the spans.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics BENCHMARK.json lists for the mode.  A full record with the
machine description is written to .perfbench_results/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from workloads import CHECKPOINT_FILES, CORPUS_FILES, WORKLOADS, command_name

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# Wall time of reference.py on a quiet host; calibrated times are seconds at
# the speed where the reference job takes exactly this long.
REFERENCE_S = 0.4
SETUP_REPS = 5
STARTUP_REPS = 5
# Every child runs its BLAS on one thread: with a pool as wide as the few
# shared cores, each command would also time the host's scheduler.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Metrics recorded and printed but not declared in BENCHMARK.json.
EXTRA_UNITS = {"train_s": "s", "fit_s": "s", "eval_s": "s", "failed_frac": "ratio",
               "repetitions": "count", "setup_wall_s": "s", "pipeline_wall_s": "s",
               "reference_s": "s"}


@dataclass
class Command:
    argv: list
    wall_s: float
    usage: resource.struct_rusage
    returncode: int
    stdout: str
    stderr: str
    summary: dict | None = None
    problems: list = field(default_factory=list)
    # Mean wall time of the reference job run just before and just after.
    ref_s: float | None = None

    @property
    def name(self) -> str:
        return command_name(self.argv)

    @property
    def calibrated_s(self) -> float:
        return self.wall_s / self.ref_s * REFERENCE_S

    def fail(self, why: str) -> None:
        self.problems.append(why)


class Runner:
    """Runs CLI commands in one work directory and keeps every record.

    With ``calibrate`` set, the reference job runs between consecutive
    commands, and each command records the mean of the two runs around it.
    """

    def __init__(self, workdir: Path, calibrate: bool = False):
        self.workdir = workdir
        self.env = {**os.environ, **CHILD_THREADS}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.commands: list[Command] = []
        self.spans: list = []
        self.calibrate = calibrate
        self.ref_walls: list[float] = []

    def spawn(self, cmd: list) -> tuple:
        with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.workdir, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return wall, usage, proc.returncode, out.read(), err.read()

    def reference(self) -> float:
        wall, _, code, out, err = self.spawn([sys.executable, str(REFERENCE)])
        if code != 0 or not out.strip():
            raise RuntimeError(f"reference job failed: exit {code}: {err.strip()[-300:]}")
        self.ref_walls.append(wall)
        return wall

    def run(self, argv: list, traced: bool = False) -> Command:
        if traced:
            spans_file = self.workdir / f"spans-{len(self.commands)}.json"
            cmd = [sys.executable, str(TRACED_CLI), str(spans_file), str(len(self.commands)), "--"]
        else:
            cmd = [sys.executable, "-m", "protouq.cli"]
        if self.calibrate:
            before = self.ref_walls[-1] if self.ref_walls else self.reference()
        record = Command(argv, *self.spawn(cmd + argv))
        if self.calibrate:
            record.ref_s = (before + self.reference()) / 2
        self.commands.append(record)
        if record.returncode != 0:
            record.fail(f"exit {record.returncode}: {record.stderr.strip()[-300:]}")
        else:
            record.summary = checks.parse_summary(record.stdout, record.name)
            if record.summary is None:
                record.fail(f"bad summary line: {record.stdout.strip()[:300]!r}")
        if traced:
            try:
                self.spans.append(json.loads(spans_file.read_text()))
            except (OSError, ValueError) as exc:
                record.fail(f"no spans: {exc}")
        return record

    def digests(self, names) -> dict:
        out = {}
        for name in names:
            path = self.workdir / name
            if path.exists():
                out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return out


@dataclass
class Rep:
    commands: list
    digests: dict

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)


def run_rep(runner: Runner, commands: list, outputs, traced: bool = False) -> Rep:
    """Run commands in order, then fingerprint the output files they share."""
    records = [runner.run(argv, traced) for argv in commands]
    return Rep(records, runner.digests(outputs))


# ---- output checks ----


def check_same(reps: list[Rep], what: str) -> None:
    """Every repetition wrote identical files and printed identical summaries."""
    for rep in reps[1:]:
        if rep.digests != reps[0].digests:
            for c in rep.commands:
                c.fail(f"{what} files differ from the first repetition")
        for first, again in zip(reps[0].commands, rep.commands):
            if again.stdout != first.stdout:
                again.fail("summary differs from the first repetition")


def check_outputs(workload, workdir: Path, setup: Command, reps: list[Rep]) -> None:
    """Compare the workload's summaries with what the benchmark computes itself."""
    by_name: dict[str, list[Command]] = {}
    for rep in reps:
        for c in rep.commands:
            if c.summary is not None:
                by_name.setdefault(c.name, []).append(c)
    if setup.summary is None:
        return
    n_instances = int(setup.summary["n_items"]) + int(setup.summary["n_captions"])
    for c in by_name.get("score", []):
        if int(c.summary["n_scored"]) != n_instances:
            c.fail(f"scored {c.summary['n_scored']} of {n_instances} instances")
    try:
        u_v, u_t = checks.read_uncertainty(workdir / "u.csv")
        if u_v.size + u_t.size != n_instances or not (
            np.all((u_v >= 0) & (u_v < 1)) and np.all((u_t >= 0) & (u_t < 1))
        ):
            raise ValueError("uncertainties missing or outside [0, 1)")
    except (OSError, KeyError, ValueError) as exc:
        for c in by_name.get("score", []):
            c.fail(f"u.csv: {exc}")
        return
    for c in by_name.get("train", []):
        hist = workdir / "hist.csv"
        if "--out" in c.argv and (
            not hist.exists() or len(hist.read_text().splitlines()) != int(c.summary["epochs"]) + 1
        ):
            c.fail("history CSV does not have one row per epoch")
    for c in by_name.get("analyze-pcc", []):
        pcc = min(float(c.summary["pcc_u_h_vision"]), float(c.summary["pcc_u_h_text"]))
        if workload.pcc_floor is not None and pcc < workload.pcc_floor:
            c.fail(f"pcc_u_h {pcc} below {workload.pcc_floor}")
    ranked = [*by_name.get("evaluate", []), *by_name.get("rerank", [])]
    if not ranked:
        return
    try:
        values = checks.similarity(
            checks.read_embeddings(workdir / "vis.paue"), checks.read_embeddings(workdir / "txt.paue")
        )
        pairs = checks.read_pairs(workdir / "pairs.tsv")
        plain = checks.retrieval_summary(values, pairs)
    except (OSError, ValueError) as exc:
        for c in ranked:
            c.fail(f"oracle: {exc}")
        return
    for c in by_name.get("evaluate", []):
        for key in ("r1_t2v", "r1_v2t", "mdr_t2v", "mdr_v2t"):
            if c.summary[key] != plain[key]:
                c.fail(f"{key}={c.summary[key]}, full-sort oracle gives {plain[key]}")
    for c in by_name.get("rerank", []):
        before, after = c.summary["mean_r1_before"], c.summary["mean_r1_after"]
        if before != plain["mean_r1"]:
            c.fail(f"mean_r1_before={before}, full-sort oracle gives {plain['mean_r1']}")
        if c.summary["fitted"] != "true":
            for e in by_name.get("evaluate", []):
                if e.summary["reranked_mean_r1"] != after:
                    e.fail("evaluate and rerank disagree on R@1 at the stored betas")
            continue
        if float(after) < float(before):
            c.fail("fitted betas lowered mean R@1")
        fitted = checks.retrieval_summary(
            checks.reranked(values, u_v, u_t, float(c.summary["beta1"]), float(c.summary["beta2"])),
            pairs,
        )["mean_r1"]
        if after != fitted:
            c.fail(f"mean_r1_after={after}, oracle at the fitted betas gives {fitted}")
        for e in by_name.get("evaluate", []):
            if e.summary["reranked_mean_r1"] != fitted:
                e.fail(f"reranked_mean_r1={e.summary['reranked_mean_r1']}, oracle gives {fitted}")


def check_determinism(setups: list[Rep], reps: list[Rep]) -> None:
    """Same-seed set-ups and pipelines wrote identical files and summaries."""
    check_same(setups, "corpus")
    check_same(reps, "checkpoint")


# ---- metrics ----


def _stage(c: Command) -> str:
    if c.name == "rerank" and "--fit-betas" in c.argv:
        return "fit"
    if c.name in ("evaluate", "rerank") or c.name.startswith("analyze-"):
        return "eval"
    return c.name


def _command_medians(reps: list[Rep], seconds) -> list[float]:
    return [statistics.median(seconds(rep.commands[i]) for rep in reps)
            for i in range(len(reps[0].commands))]


def end_to_end(setups: list[Rep], reps: list[Rep], ref_walls: list[float]) -> dict:
    """The declared end-to-end metrics, plus per-stage and raw wall times.

    Times are calibrated: each command's wall time over the reference job's
    wall time around it, times REFERENCE_S.  A stage's time is the sum over
    its commands of each command's median across repetitions, so a slow
    spell of the host that hits one command of one repetition does not move
    it.  The raw wall times are kept as ``*_wall_s``.
    """
    rss = [c.usage.ru_maxrss for rep in (*setups, *reps) for c in rep.commands]
    medians = _command_medians(reps, lambda c: c.calibrated_s)
    stages = [_stage(c) for c in reps[0].commands]
    out = {
        "setup_s": statistics.median(r.commands[0].calibrated_s for r in setups),
        "pipeline_s": sum(medians),
        "peak_rss_mb": max(rss) / 1024.0,
        "setup_wall_s": statistics.median(r.wall_s for r in setups),
        "pipeline_wall_s": sum(_command_medians(reps, lambda c: c.wall_s)),
        "reference_s": statistics.median(ref_walls),
    }
    for stage in ("train", "fit", "eval"):
        if stage in stages:
            out[f"{stage}_s"] = sum(m for m, s in zip(medians, stages) if s == stage)
    return out


def _self_times(spans: list) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - child[i] for i, s in enumerate(spans)]


def _inside(spans: list, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def per_layer(span_lists: list, startup_s: float, traced_s: float, untraced_s: float) -> dict:
    """Calls, self time and work counts per traced function, plus layer totals."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    rank_calls = repeated = rankings = 0
    in_process = 0.0
    for spans in span_lists:
        seen = set()
        for i, (span, self_s) in enumerate(zip(spans, _self_times(spans))):
            name, start, end, parent, _, work = span
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", self_s)
            add(f"{name.split('.')[0]}.self_s", self_s)
            for key, value in work.items():
                if key != "ranked":
                    add(f"{name}.{key}", value)
            if name == "cli.run":
                in_process += end - start
            if name == "metrics.retrieval_ranks" and _inside(spans, i, "rerank.fit_betas"):
                rankings += 1
            if name == "metrics.evaluate_retrieval" and parent >= 0 and \
                    spans[parent][0].startswith("cli."):
                rank_calls += 1
                key = tuple(work["ranked"])
                repeated += key in seen
                seen.add(key)
    out["rerank.fit_betas.rankings"] = rankings
    out["cli.rank_calls"] = rank_calls
    out["cli.rank_calls_repeated"] = repeated
    out["cli.startup_s"] = startup_s
    out["trace.pipeline_s"] = traced_s
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.coverage"] = 1.0 - out.get("cli.run.self_s", 0.0) / in_process if in_process else 0.0
    return out


def startup_seconds(runner: Runner) -> float:
    cmd = [sys.executable, "-c", "import protouq.cli"]
    return statistics.median(runner.spawn(cmd)[0] for _ in range(STARTUP_REPS))


# ---- machine record ----


def _blas_threads() -> int | None:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _last_level_cache() -> str | None:
    levels = []
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                levels.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    return f"L{max(levels)[0]} {max(levels)[1]}" if levels else None


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_kib = None
    with open("/proc/meminfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kib = int(line.split()[1])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mib": mem_kib // 1024 if mem_kib else None,
        "last_level_cache": _last_level_cache(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "child_blas_env": CHILD_THREADS,
    }


# ---- entry point ----


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def timed_run(runner: Runner, workload, seed: int, seconds: float) -> tuple:
    """Set up SETUP_REPS times, then repeat the pipeline for about ``seconds``."""
    commands = workload.pipeline_argv(seed)
    setups = [run_rep(runner, [workload.setup_argv(seed)], CORPUS_FILES) for _ in range(SETUP_REPS)]
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_rep(runner, commands, CHECKPOINT_FILES))
        elapsed = time.perf_counter() - start
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    metrics = end_to_end(setups, reps, runner.ref_walls)
    metrics["repetitions"] = len(reps)
    runner.calibrate = False
    if len(reps) == 1:
        # Train once more, outside the timed loop, so that two same-seed
        # checkpoints are compared.
        reps.append(run_rep(runner, commands[:1], CHECKPOINT_FILES))
    return setups, reps, metrics


def traced_run(runner: Runner, workload, seed: int) -> tuple:
    """One untraced set-up and pipeline, then both again under traced_cli.py."""
    commands = workload.pipeline_argv(seed)
    setups, reps = [], []
    for traced in (False, True):
        setups.append(run_rep(runner, [workload.setup_argv(seed)], CORPUS_FILES, traced))
        reps.append(run_rep(runner, commands, CHECKPOINT_FILES, traced))
    metrics = per_layer(runner.spans, startup_seconds(runner), reps[1].wall_s, reps[0].wall_s)
    return setups, reps, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "protouq" / "cli.py").is_file():
        print(f"error: no protouq sources under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload]
    runner = Runner(workdir, calibrate=not args.trace)
    try:
        if args.trace:
            setups, reps, metrics = traced_run(runner, workload, args.seed)
        else:
            setups, reps, metrics = timed_run(runner, workload, args.seed, args.seconds)
        check_determinism(setups, reps)
        check_outputs(workload, workdir, setups[0].commands[0], reps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    commands = runner.commands
    failed = [c for c in commands if c.problems]
    if not args.trace:
        metrics["failed_frac"] = len(failed) / len(commands)
    for c in failed:
        print(f"FAILED {' '.join(c.argv)}: {'; '.join(c.problems)}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(commands),
        "failed": len(failed),
        "metrics": {k: {"value": metrics.get(k, 0), "unit": u}
                    for k, u in declared.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "held_out_seed": workload.held_out_seed,
        "machine": machine_record(),
        "result": result,
        "all_metrics": metrics,
        "commands": [
            {"argv": c.argv, "wall_s": c.wall_s, "user_s": c.usage.ru_utime,
             "sys_s": c.usage.ru_stime, "maxrss_kib": c.usage.ru_maxrss,
             "returncode": c.returncode, "problems": c.problems}
            for c in commands
        ],
    }
    results = ROOT / ".perfbench_results"
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(f"machine {json.dumps(record['machine'])}")
    print(f"{tag}: {len(commands)} commands, {len(failed)} failed")
    for k, unit in {**declared, **EXTRA_UNITS}.items():
        if k in declared or k in metrics:
            print(f"  {k} = {metrics.get(k, 0):.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
