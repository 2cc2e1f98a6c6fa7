#!/usr/bin/env python3
"""skel-sentinel benchmark: the user-facing CLI chain, measured from outside.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload crowd-stride1 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each run generates its inputs from --seed, sets up SETUP_REPEATS times
(`setup_s` is their median), then runs the workload's CLI chain as child
processes, one at a time, until --seconds have passed and at least
MIN_ITERATIONS chains have run. End-to-end metrics are medians over those
chains; the sample count and quartiles of `wall_s` and `cpu_s` are printed
beside them. With --trace 1 the run then repeats the chain once in process
with a span around every stage (see traced.py) and reports the per-layer
metrics of layers.py instead. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Exit status: 0 when a result was printed, 1 when set-up failed or the run hit
its deadline, 2 when the program's sources are not in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import verify

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_ITERATIONS = 2
DEADLINE_S = 170  # a run must end within 180 s

WORKLOADS = {
    # kind "score": score then eval, with a model made by the train chain in set-up
    # kind "train": featurize, select, train
    "crowd-stride1": {"kind": "score", "config": None},
    "long-stride16": {"kind": "score", "config": "score.cfg"},
    "train-corpus": {"kind": "train", "config": None},
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "micro_auc": "AUC",
}
# Printed by name but left out of the result line: the final training loss
# is deterministic per seed, and its spread across seeds (a property of the
# data, not of the measurement) is wider than any allowed bound. Traced runs
# report it as the per-layer metric flow.final_nll.
REPORTED = {"train_final_nll": "nats"}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int


@dataclass
class Chain:
    """One run of a CLI chain: its children and the problems its outputs show."""

    wall_s: float = 0.0
    children: list[Child] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    sha256: dict[str, str] = field(default_factory=dict)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)

    @property
    def peak_rss_mb(self) -> float:
        return max((c.rss_mb for c in self.children), default=0.0)


class Runner:
    """Starts the benchmark's children: one at a time, each waited for."""

    def __init__(self, src: Path, log: Path):
        self.log = log
        self.env = {k: v for k, v in os.environ.items() if k != "SKEL_SENTINEL_THREADS"}
        self.env["PYTHONPATH"] = str(src)

    def run(self, argv: list[str], cwd: Path) -> Child:
        cwd.mkdir(parents=True, exist_ok=True)
        with open(self.log, "ab") as log:
            log.write(f"$ {' '.join(argv)}\n".encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=log, stderr=log)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            returncode=proc.returncode,
        )

    def chain(self, argvs: list[list[str]], cwd: Path) -> Chain:
        chain = Chain()
        start = time.perf_counter()
        for argv in argvs:
            child = self.run(argv, cwd)
            chain.children.append(child)
            if child.returncode != 0:
                chain.problems.append(f"{argv[3]} exited with {child.returncode}")
                break
        chain.wall_s = time.perf_counter() - start
        return chain


class SetupError(RuntimeError):
    pass


def cli(*args) -> list[str]:
    return [sys.executable, "-m", "skel_sentinel.cli", *map(str, args)]


def train_argvs(inputs: Path, out: Path) -> list[list[str]]:
    return [
        cli("featurize", "--tracks", inputs / "corpus_tracks.tsv",
            "--out", out / "corpus.skem", "--classes", inputs / "corpus_classes.tsv",
            "--text-out", out / "texts.skem"),
        cli("select", "--features", out / "corpus.skem", "--texts", out / "texts.skem",
            "--classes", inputs / "corpus_classes.tsv",
            "--spec", inputs / "typicality.spec", "--out", out / "sel"),
        cli("train", "--features", out / "corpus.skem", "--selection", out / "sel",
            "--out", out / "model"),
    ]


def score_argvs(inputs: Path, model: Path, out: Path, config: str | None) -> list[list[str]]:
    score = cli("score", "--tracks", inputs / "test_tracks.tsv", "--model", model,
                "--out", out / "scores")
    if config:
        score += ["--config", str(inputs / config)]
    return [
        score,
        cli("eval", "--scores", out / "scores" / "scores.tsv",
            "--labels", inputs / "test_labels.tsv", "--out", out / "report"),
    ]


SCORE_OUTPUTS = ("scores/scores.tsv", "scores/details.tsv")
TRAIN_OUTPUTS = (
    "corpus.skem", "corpus.skem.idx", "texts.skem", "texts.skem.idx",
    "sel/selected_normal.tsv", "sel/selected_abnormal.tsv",
    "model/model.skfl", "model/loss_history.tsv",
)


def hash_outputs(chain: Chain, out: Path, names) -> None:
    for name in names:
        path = out / name
        if path.is_file():
            chain.sha256[name] = verify.sha256(path)
        else:
            chain.problems.append(f"missing output {name}")


def check_score_chain(chain: Chain, out: Path, inputs: Path) -> float | None:
    """Frame coverage and finiteness of scores.tsv, and the micro-AUC gate."""
    if chain.problems:
        return None
    hash_outputs(chain, out, SCORE_OUTPUTS)
    stride = int(verify.read_keyvalues(out / "scores" / "config.score.resolved")["stride"])
    chain.problems += verify.check_scores(
        out / "scores" / "scores.tsv", inputs / "test_labels.tsv", stride
    )
    micro, problems = verify.check_report(out / "report" / "report.txt")
    chain.problems += problems
    return micro


def check_train_chain(chain: Chain, out: Path) -> float | None:
    """Every output present and a finite loss history with one line per epoch."""
    if chain.problems:
        return None
    hash_outputs(chain, out, TRAIN_OUTPUTS)
    epochs = int(verify.read_keyvalues(out / "model" / "config.train.resolved")["epochs"])
    final, problems = verify.check_loss_history(out / "model" / "loss_history.tsv", epochs)
    chain.problems += problems
    return final


def cli_counts(out: Path, kind: str) -> dict[str, int]:
    """Exact work counts of a CLI chain, read from its output files."""
    if kind == "score":
        cfg = verify.read_keyvalues(out / "scores" / "config.score.resolved")
        return verify.score_counts(
            out / "scores" / "details.tsv", float(cfg["alpha"]), int(cfg["window_length"])
        )
    cfg = verify.read_keyvalues(out / "model" / "config.train.resolved")
    return verify.train_counts(out, int(cfg["batch_size"]), int(cfg["epochs"]))


def largest_scene(out: Path, kind: str) -> int:
    if kind == "score":
        return cli_counts(out, kind)["pipeline.max_scene_rows"]
    per_video: dict[str, int] = {}
    for ref in (out / "corpus.skem.idx").read_text(encoding="utf-8").splitlines():
        video_id = ref.rsplit(":", 2)[0]
        per_video[video_id] = per_video.get(video_id, 0) + 1
    return max(per_video.values())


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def timing_spread(values: list[float]) -> dict:
    """Sample count, least value, quartiles and median of a run's timings."""
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "min": min(values), "q1": quartiles[0],
            "median": quartiles[1], "q3": quartiles[2]}


def setup(
    runner: Runner, generator: list[str], workload: str, seed: int, kind: str, where: Path
) -> dict:
    """Generate the inputs and, for a score workload, train its model via the CLI."""
    start = time.perf_counter()
    gen = runner.run([*generator, workload, str(seed), str(where / "inputs")], where)
    if gen.returncode != 0:
        raise SetupError(f"input generation exited with {gen.returncode}")
    model_chain = None
    if kind == "score":
        model_chain = runner.chain(
            train_argvs(where / "inputs", where / "model_chain"), where
        )
    seconds = time.perf_counter() - start
    done = {"seconds": seconds, "dir": where, "final_nll": None, "model_sha": None}
    if model_chain is not None:
        done["final_nll"] = check_train_chain(model_chain, where / "model_chain")
        if model_chain.problems:
            raise SetupError(f"set-up train chain failed: {model_chain.problems}")
        done["model_sha"] = model_chain.sha256["model/model.skfl"]
    done["manifest"] = json.loads((where / "inputs" / "manifest.json").read_text())
    return done


def traced_run(runner: Runner, job: dict, where: Path) -> dict | None:
    """Run traced.py on one job; None when the child failed."""
    where.mkdir(parents=True, exist_ok=True)
    job = {k: str(v) if isinstance(v, Path) else v for k, v in job.items()}
    job_path = where / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    child = runner.run([sys.executable, str(HERE / "traced.py"), str(job_path)], where)
    if child.returncode != 0:
        return None
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


def compare_traced(
    traced: dict | None, traced_out: Path, cli_out: Path, kind: str, expected: dict[str, int]
) -> list[str]:
    """The traced chain must write the CLI's bytes and count the CLI's work."""
    if traced is None:
        return ["traced chain failed"]
    problems = []
    metrics = layers.span_metrics(traced["spans"], traced["counts"])
    for name in SCORE_OUTPUTS if kind == "score" else TRAIN_OUTPUTS:
        if verify.sha256(traced_out / name) != verify.sha256(cli_out / name):
            problems.append(f"traced {name} differs from the CLI's")
    if kind == "score":
        cli_micro = verify.read_keyvalues(cli_out / "report" / "report.txt")["micro_auc"]
        if f"{traced['micro_auc']:.6f}" != cli_micro:
            problems.append(f"traced micro_auc {traced['micro_auc']} != CLI {cli_micro}")
    for name, value in expected.items():
        if metrics[name] != value:
            problems.append(f"traced {name} = {metrics[name]}, CLI outputs give {value}")
    return problems


def measure(
    workload: str, seed: int, seconds: float, trace: bool, src: Path, work: Path,
    generator: list[str] | None = None,
) -> dict:
    """One benchmark run of one workload; `work` is emptied and used as scratch.

    `generator` is the input generator's command, given the workload, the
    seed and an output directory; inputs.py by default.
    """
    kind = WORKLOADS[workload]["kind"]
    config = WORKLOADS[workload]["config"]
    generator = generator or [sys.executable, str(HERE / "inputs.py")]
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(src, work / "children.log")
    runner.run([sys.executable, str(HERE / "probe.py"), str(work / "env.json")], work)
    environment = json.loads((work / "env.json").read_text())
    problems: list[str] = []

    setups = [
        setup(runner, generator, workload, seed, kind, work / f"setup{i}")
        for i in range(1 if trace else SETUP_REPEATS)
    ]
    if len({s["model_sha"] for s in setups}) != 1:
        problems.append("set-ups trained different models")
    base = setups[-1]
    inputs = base["dir"] / "inputs"
    model = base["dir"] / "model_chain" / "model" / "model.skfl"

    chains: list[Chain] = []
    values: list[float | None] = []
    start = time.perf_counter()
    while len(chains) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        out = work / f"chain{len(chains)}"
        if kind == "score":
            chain = runner.chain(score_argvs(inputs, model, out, config), out)
            values.append(check_score_chain(chain, out, inputs))
        else:
            chain = runner.chain(train_argvs(inputs, out), out)
            values.append(check_train_chain(chain, out))
        chains.append(chain)
    reference = next((c.sha256 for c in chains if c.sha256), {})
    for chain in chains:
        if chain.sha256 and chain.sha256 != reference:
            chain.problems.append("outputs differ from the first chain run")
    last = work / f"chain{len(chains) - 1}"
    operations = list(chains)

    if kind == "score":
        micro, final_nll = median(values), base["final_nll"]
    else:
        # quality of the trained model: score the check videos with it; the
        # score child loads model.skfl with flow.load_flow
        check = runner.chain(
            score_argvs(inputs, last / "model" / "model.skfl", work / "check", None),
            work / "check",
        )
        micro, final_nll = check_score_chain(check, work / "check", inputs), median(values)
        operations.append(check)

    cli_wall = median([c.wall_s for c in chains])
    metrics = {
        "setup_s": median([s["seconds"] for s in setups]),
        "wall_s": cli_wall,
        "cpu_s": median([c.cpu_s for c in chains]),
        "peak_rss_mb": median([c.peak_rss_mb for c in chains]),
        "micro_auc": micro,
    }
    units = dict(END_TO_END)
    reported = {"train_final_nll": final_nll}
    scopes = {}
    trace_detail = None
    if trace:
        metrics, units, scopes, trace_detail = measure_layers(
            runner, work, kind, config, inputs, base, last, cli_wall
        )
        operations.append(Chain(problems=list(trace_detail["problems"])))

    size = {k: base["manifest"][k] for k in ("videos", "persons", "pose_lines", "frames")}
    if not chains[-1].problems:
        size["snippets"] = cli_counts(last, kind)["pose_io.windows_kept"]
        size["largest_scene"] = largest_scene(last, kind)
    if kind == "score" and not chains[-1].problems:
        size["uncovered_tail_frames"] = verify.uncovered_tail(
            last / "scores" / "scores.tsv", inputs / "test_labels.tsv"
        )
    failed = sum(1 for op in operations if op.problems) + (1 if problems else 0)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0,
        "attempted": len(operations) + (1 if problems else 0),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name], **scopes.get(name, {})}
            for name, value in metrics.items()
        },
        "reported": {
            name: {"value": reported[name], "unit": unit} for name, unit in REPORTED.items()
        },
        "input": size,
        "environment": environment,
        "setup_s": [s["seconds"] for s in setups],
        "spread": {
            name: timing_spread([getattr(c, name) for c in chains])
            for name in ("wall_s", "cpu_s")
        },
        "chains": [
            {"wall_s": c.wall_s, "cpu_s": c.cpu_s, "peak_rss_mb": c.peak_rss_mb,
             "children_wall_s": [ch.wall_s for ch in c.children], "problems": c.problems}
            for c in operations
        ],
        "sha256": reference,
        "problems": problems,
        "trace_detail": trace_detail,
    }


def measure_layers(runner, work, kind, config, inputs, base, last, cli_wall):
    """Traced chain plus the auxiliary traced chain that covers the other layers.

    A score workload's auxiliary chain is the set-up train chain; the
    train workload's is the score chain of its quality check. Each per-layer
    metric comes from the workload's own chain where that chain runs the layer,
    else from the auxiliary chain, and says which.
    """
    run_id = f"{work.name}-{os.getpid()}-{time.time_ns()}"
    if kind == "score":
        chain_job = {"chain": "score", "tracks": inputs / "test_tracks.tsv",
                     "labels": inputs / "test_labels.tsv",
                     "model": base["dir"] / "model_chain" / "model" / "model.skfl",
                     "config": inputs / config if config else None}
        aux_job = {"chain": "train", "tracks": inputs / "corpus_tracks.tsv",
                   "classes": inputs / "corpus_classes.tsv", "spec": inputs / "typicality.spec",
                   "config": None}
        aux_cli, aux_kind = base["dir"] / "model_chain", "train"
    else:
        chain_job = {"chain": "train", "tracks": inputs / "corpus_tracks.tsv",
                     "classes": inputs / "corpus_classes.tsv", "spec": inputs / "typicality.spec",
                     "config": None}
        aux_job = {"chain": "score", "tracks": inputs / "test_tracks.tsv",
                   "labels": inputs / "test_labels.tsv",
                   "model": last / "model" / "model.skfl", "config": None}
        aux_cli, aux_kind = work / "check", "score"

    trace_problems: list[str] = []
    results = {}
    for scope, job, cli_out, scope_kind in (
        ("chain", chain_job, last, kind), ("aux", aux_job, aux_cli, aux_kind)
    ):
        where = work / f"traced_{scope}"
        job.update(run_id=f"{run_id}-{scope}", out=where / "out", result=where / "result.json")
        traced = traced_run(runner, job, where)
        expected = cli_counts(cli_out, scope_kind)
        if scope == "chain":
            expected["pose_io.windows_dropped"] = (
                base["manifest"]["windows"] - expected["pose_io.windows_kept"]
            )
        trace_problems += compare_traced(traced, where / "out", cli_out, scope_kind, expected)
        results[scope] = traced
    chain_metrics = layers.span_metrics(results["chain"]["spans"], results["chain"]["counts"]) \
        if results["chain"] else {}
    aux_metrics = layers.span_metrics(results["aux"]["spans"], results["aux"]["counts"]) \
        if results["aux"] else {}

    metrics, scopes = {}, {}
    for name in layers.METRICS:
        if chain_metrics.get(name) is not None:
            metrics[name], scopes[name] = chain_metrics[name], {"scope": "chain"}
        elif aux_metrics.get(name) is not None:
            metrics[name], scopes[name] = aux_metrics[name], {"scope": "aux"}
        else:
            metrics[name], scopes[name] = None, {"absent": True}
    if results["chain"]:
        root = next(s for s in results["chain"]["spans"] if s["parent"] is None)
        metrics["trace.wall_s"] = root["end"] - root["start"]
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - cli_wall
        scopes["trace.wall_s"] = scopes["trace.overhead_s"] = {"scope": "chain"}
    self_times = {
        layer: chain_metrics[f"{layer}.self_s"]
        for layer in layers.LAYERS if chain_metrics.get(f"{layer}.self_s") is not None
    }
    detail = {
        "problems": trace_problems,
        "largest_self": max(self_times, key=self_times.get) if self_times else None,
        "glue_s": {s: layers.glue_s(r["spans"]) for s, r in results.items() if r},
        "spans": {s: len(r["spans"]) for s, r in results.items() if r},
    }
    return metrics, dict(layers.METRICS), scopes, detail


def fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:.6g}"


def print_result(result: dict) -> None:
    size = result["input"]
    print(
        f"{result['workload']} seed={result['seed']}: {fmt(size['videos'])} videos, "
        f"{fmt(size['persons'])} tracks, {fmt(size['pose_lines'])} pose lines, "
        f"{fmt(size.get('snippets'))} snippets, {fmt(size['frames'])} frames, "
        f"largest scene {fmt(size.get('largest_scene'))} snippets"
    )
    env = result["environment"]
    print(
        f"  python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"blas {env['blas'].get('name')} {env['blas'].get('version')} "
        f"threads={env['blas_threads']}"
    )
    print(
        f"  {len(result['setup_s'])} set-ups, {len(result['chains'])} operations, "
        f"{result['failed']} failed"
    )
    for name, metric in [*result["metrics"].items(), *result["reported"].items()]:
        scope = metric.get("scope", "")
        print(f"  {name:32s} {fmt(metric['value']):>14s} {metric['unit']:6s} {scope}")
    for name, spread in result["spread"].items():
        print(
            f"  {name} over {spread['n']} chains: min {fmt(spread['min'])}, "
            f"quartiles {fmt(spread['q1'])} / {fmt(spread['median'])} / {fmt(spread['q3'])}"
        )
    if result["trace_detail"]:
        print(f"  largest self time: {result['trace_detail']['largest_self']}")
    for chain in result["chains"]:
        for problem in chain["problems"]:
            print(f"  FAILED: {problem}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def final_line(results: list[dict]) -> dict:
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}/"
        for name, metric in result["metrics"].items():
            metrics[prefix + name] = {"value": metric["value"], "unit": metric["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def _deadline(signum, frame):
    raise TimeoutError(f"benchmark run passed its {DEADLINE_S} s deadline")


def _terminate(signum, frame):
    # unwinds through Runner.run, which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "skel_sentinel" / "cli.py").is_file():
        print(f"error: no program sources at {root / 'src' / 'skel_sentinel'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    signal.signal(signal.SIGALRM, _deadline)
    signal.signal(signal.SIGTERM, _terminate)
    results = []
    try:
        for name in names:
            signal.alarm(DEADLINE_S)
            work = root / ".perfbench_work" / name
            results.append(
                measure(name, args.seed, args.seconds, bool(args.trace), root / "src", work)
            )
            signal.alarm(0)
    except (SetupError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_result(result)
        print(json.dumps({"detail": result}, default=str))
    print(json.dumps(final_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
