#!/usr/bin/env python3
"""aof-lab benchmark: cold-CLI and in-process timings with output checks.

Usage (from the repository root)::

    python3 bench/run.py --workload exact-grid --seed 1 --seconds 40 --trace 0

Inputs are generated from ``--seed`` before timing.  With ``--trace 0`` the
run repeats cycles of cold ``--help`` start-ups, one cold pass over the
workload's command sequence (one ``python -m aof_lab.cli`` process per
command) and warm passes (in this process, import excluded) while another
cycle fits in ``--seconds``, and reports the end-to-end metrics.  Every
timing is paced against a fixed reference loop measured right before and
after it (see ``runner.reference_s``); a sequence metric sums each
command's median over passes.  With ``--trace 1`` it times the warm
sequence without and then with spans around each module's public functions
and reports per-layer counts and self times, the tracing overhead, and a
``-X importtime`` breakdown of start-up.  Every command's output is checked
outside the timed region; a non-zero exit or a failed check counts as a
failed operation.

The last stdout line is the result object; the line before it holds the
details (every paced sample, per-command medians and tails, unpaced
figures, generation parameters, context and the known-defect probe), which
are also written to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import tomllib
from importlib import metadata
from pathlib import Path

import runner
import tracing

ROOT = Path(__file__).resolve().parent.parent
SETUP_PER_PASS = 2    # cold --help runs at the start of every cold pass
WARM_PER_COLD = 2     # warm passes after every cold pass: they are short and noisier
IMPORT_RUNS = 3

CLI_COMMANDS = ("gen", "age-curve", "decompose", "epsilon", "simulate-aoi", "order-check", "cross-loss")

# traced function -> stats reported for it; "util" is the module ``_util``
LAYER_STATS = {
    "processes.exact_window_law": ("calls", "self_s", "cells", "max_cells"),
    "processes.ExactLawProvider.window_law": ("calls",),
    "processes.sample_trajectory": ("rows", "self_s"),
    "laws.MixtureLawProvider.window_law": ("calls", "self_s"),
    "information.conditional_entropy": ("calls", "self_s"),
    "information.conditional_cross_entropy": ("calls", "self_s"),
    "divergence.chi2_conditional_mi": ("calls", "self_s"),
    "divergence.epsilon_coefficient": ("grid_points", "self_s"),
    "divergence.beta_between": ("calls", "self_s"),
    "analysis.loss_curve": ("self_s",),
    "analysis.decompose": ("self_s",),
    "analysis.dynamic_joint": ("calls", "self_s"),
    "analysis.testing_loss": ("self_s",),
    "ingest.Dataset.to_csv": ("rows", "bytes", "self_s"),
    "ingest.Dataset.from_csv": ("rows", "bytes", "self_s"),
    "ingest.empirical_window_law": ("calls", "windows", "self_s"),
    "ingest.EmpiricalLawProvider.window_law": ("calls",),
    "aoi.DeliveryTrace.from_csv": ("events", "self_s"),
    "aoi.age_process": ("slots", "self_s"),
    "aoi.stochastic_order_multivariate": ("calls", "support_pairs", "self_s"),
    "_util.write_text_atomic": ("calls", "bytes", "self_s"),
}
HIT_RATIOS = {
    "processes.law_cache.hit_ratio": ("processes.exact_window_law", "processes.ExactLawProvider.window_law"),
    "ingest.law_cache.hit_ratio": ("ingest.empirical_window_law", "ingest.EmpiricalLawProvider.window_law"),
}


def layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for target, stats in LAYER_STATS.items():
        for stat in stats:
            unit = "s" if stat == "self_s" else "B" if stat == "bytes" else "count"
            out.append((f"{target.lstrip('_')}.{stat}", unit, "lower"))
    out += [(name, "ratio", "higher") for name in HIT_RATIOS]
    for cmd in CLI_COMMANDS:
        out += [(f"cli.{cmd}.s", "s", "lower"), (f"cli.{cmd}.self_s", "s", "lower")]
    out += [(f"import.{g}_s", "s", "lower")
            for g in ("numpy", "scipy", "networkx", "click", "aof_lab", "total")]
    out += [("trace.work_s", "s", "lower"), ("trace.overhead_s", "s", "lower"),
            ("trace.below_cli_share", "ratio", "higher")]
    return out


END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("work_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "ratio")]


def summary(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (None when there are too few samples), and the sample count."""
    out = {"median": statistics.median(samples), "n": len(samples), "tail": None}
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(samples) * (1 - p / 100) >= 10:
            ordered = sorted(samples)
            out["tail"] = {"p": p, "value": ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]}
            break
    return out


def paced(seconds: float, reference: float) -> float:
    """``seconds`` expressed at the reference loop's nominal speed."""
    return seconds * runner.REFERENCE_NOMINAL_S / reference


def sample_value(key: str, sample: dict, pace: bool = True) -> float:
    if key == "peak_rss_mb" or not pace:
        return sample[key]
    return paced(sample[key], sample["ref_s"])


def sequence_value(key: str, passes: list[list[dict]], pace: bool = True) -> float:
    """A sequence metric over passes: per command the median over passes,
    then the largest of these for peak RSS and their sum for times."""
    medians = [statistics.median(sample_value(key, p[i], pace) for p in passes)
               for i in range(len(passes[0]))]
    return max(medians) if key == "peak_rss_mb" else sum(medians)


def context(child_threads_env_was_set: bool) -> dict:
    from aof_lab._util import thread_count

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    versions = {}
    for pkg in ("numpy", "scipy", "networkx", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"src_lines": src_lines, "runtime_dependencies": deps,
            "python": platform.python_version(), "versions": versions,
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "aof_lab_threads_was_set": child_threads_env_was_set,
            "warm_worker_threads": thread_count(),
            "cold_env_sets_aof_lab_threads": "AOF_LAB_THREADS" in runner.child_env(ROOT)}


def _fits(start: float, passes: int, seconds: float) -> bool:
    """Whether one more pass, as long as the mean so far, ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed * (passes + 1) / passes <= seconds


class Bench:
    def __init__(self, args, work: Path, launcher: runner.Launcher):
        import checks
        import workloads

        self.args, self.work, self.launcher = args, work, launcher
        make_inputs, make_ops = workloads.WORKLOADS[args.workload]
        (work / "inputs").mkdir(parents=True)
        self.inputs = make_inputs(args.seed, work / "inputs")
        self.checks = checks.Checks(self.inputs.truth, args.seed)
        self.make_ops = make_ops
        self.probe_model = workloads.probe_model(args.seed, work / "inputs")
        self.attempted = 0
        self.failures: list[str] = []

    def ops(self, tag: str):
        return self.make_ops(self.inputs, self.work / tag, self.checks)

    def _record(self, op, error: str | None) -> None:
        self.attempted += 1
        if error is None:
            try:
                op.check(op)
            except Exception as exc:  # any defect in an output is a failed operation
                error = f"check: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{op.command} {' '.join(op.args)}: {error}")

    @staticmethod
    def _paced(calls) -> list[dict]:
        """Run ``calls`` back to back with a reference loop before, between
        and after them; each sample gets the mean of its two neighbours."""
        samples = []
        before = runner.reference_s()
        for call in calls:
            sample = call()
            after = runner.reference_s()
            sample["ref_s"] = (before + after) / 2
            samples.append(sample)
            before = after
        return samples

    def setup_pass(self, tag: str) -> list[dict]:
        """Cold ``--help`` runs: imports plus click start-up."""
        def call(i):
            res = self.launcher.run(["--help"], self.work / "logs" / tag / str(i))
            return {"setup_s": res.wall_s, "exit_code": res.exit_code}

        samples = self._paced([lambda i=i: call(i) for i in range(SETUP_PER_PASS)])
        for sample in samples:
            self.attempted += 1
            if sample["exit_code"] != 0:
                self.failures.append(f"--help: exit {sample['exit_code']}")
        return samples

    def cold_pass(self, tag: str) -> list[dict]:
        """Each command in a fresh interpreter: wall, CPU and peak RSS per
        command.  Outputs are checked after the pass."""
        ops = self.ops(tag)

        def call(i, op):
            res = self.launcher.run(["--out", str(op.out), *op.args], self.work / "logs" / tag / str(i))
            error = None if res.exit_code == 0 else f"exit {res.exit_code}: {res.stderr.strip()}"
            return {"wall_s": res.wall_s, "cpu_s": res.cpu_s, "peak_rss_mb": res.peak_rss_mb, "error": error}

        samples = self._paced([lambda i=i, op=op: call(i, op) for i, op in enumerate(ops)])
        for op, sample in zip(ops, samples):
            self._record(op, sample["error"])
        return samples

    def warm_pass(self, tag: str, tracer=None) -> list[dict]:
        """Each command in this process; wall time per command.  Outputs
        are checked after the pass."""
        ops = self.ops(tag)

        def call(op):
            args = ["--out", str(op.out), *op.args]
            if tracer is None:
                elapsed, error = runner.run_warm(args)
            else:
                tracer.active = True
                with tracer.span(f"cli.{op.command}"):
                    elapsed, error = runner.run_warm(args)
                tracer.active = False
            return {"work_s": elapsed, "error": error}

        samples = self._paced([lambda op=op: call(op) for op in ops])
        for op, sample in zip(ops, samples):
            self._record(op, sample["error"])
        return samples

    def probe(self) -> dict:
        """Known defect, untimed and not counted: default-cap epsilon on a
        1-source window-2 model."""
        res = self.launcher.run(["--out", str(self.work / "probe"), "epsilon", "--model", str(self.probe_model)],
                              self.work / "logs" / "probe")
        lines = res.stderr.strip().splitlines()
        return {"name": "epsilon-default-caps-window2", "ok": res.exit_code == 0,
                "exit_code": res.exit_code, "message": lines[-1] if lines else ""}

    def measure_end_to_end(self, seconds: float) -> tuple[dict, dict, dict]:
        """Repeat cycles of set-up runs, one cold pass and ``WARM_PER_COLD``
        warm passes while another cycle fits in ``seconds``.

        Returns each metric's value, paced and unpaced, and per command the
        paced samples of every pass."""
        setup, cold, warm = [], [], []
        start = time.perf_counter()
        while not cold or _fits(start, len(cold), seconds):
            setup += self.setup_pass(f"setup{len(cold)}")
            cold.append(self.cold_pass(f"cold{len(cold)}"))
            for _ in range(WARM_PER_COLD):
                warm.append(self.warm_pass(f"warm{len(warm)}"))
        names = [f"{i} {op.command}" for i, op in enumerate(self.ops("names"))]
        values = {"setup_s": statistics.median(sample_value("setup_s", s) for s in setup)}
        unpaced = {"setup_s": statistics.median(s["setup_s"] for s in setup)}
        samples = {"setup_s": {"--help": [sample_value("setup_s", s) for s in setup]}}
        for key, runs in (("wall_s", cold), ("cpu_s", cold), ("peak_rss_mb", cold), ("work_s", warm)):
            values[key] = sequence_value(key, runs)
            unpaced[key] = sequence_value(key, runs, pace=False)
            samples[key] = {n: [sample_value(key, p[i]) for p in runs] for i, n in enumerate(names)}
        return values, unpaced, samples

    def measure_layers(self, seconds: float) -> tuple[dict, dict]:
        """After one warm-up pass, alternate untraced and traced warm passes
        while another pair fits in ``seconds``; the import breakdown is
        taken first.  The wrappers stay installed but switched off during
        untraced passes."""
        imports: dict[str, list[float]] = {}
        for i in range(IMPORT_RUNS):
            totals, code = runner.import_breakdown(self.launcher, self.work / "logs" / f"importtime{i}")
            self.attempted += 1
            if code != 0:
                self.failures.append(f"-X importtime --help: exit {code}")
            for key, value in totals.items():
                imports.setdefault(key, []).append(value)

        self.warm_pass("warmup")  # lazy imports inside the commands land here, in neither series
        tracer = tracing.Tracer()
        tracer.install()
        untraced, traced, per_iter = [], [], []
        start = time.perf_counter()
        while not traced or _fits(start, len(traced), seconds):
            untraced.append(self.warm_pass(f"warm{len(untraced)}"))
            tracer.reset()
            traced.append(self.warm_pass(f"traced{len(traced)}", tracer))
            per_iter.append(self._layer_values(tracer, sum(c["work_s"] for c in traced[-1])))
        self.spans = list(tracer.spans)
        values = {name: statistics.median(it[name] for it in per_iter) for name in per_iter[0]}
        for key, vals in imports.items():
            values[f"import.{key}_s"] = statistics.median(vals)
        values["trace.work_s"] = sequence_value("work_s", traced)
        values["trace.overhead_s"] = values["trace.work_s"] - sequence_value("work_s", untraced)
        return {"untraced_work_s": [sum(sample_value("work_s", c) for c in p) for p in untraced],
                "traced_work_s": [sum(sample_value("work_s", c) for c in p) for p in traced],
                "imports": imports}, values

    def _layer_values(self, tracer, work_s: float) -> dict:
        self_s = tracer.self_times()
        cli_total = tracer.durations("cli.")
        values = {}
        for target, stats in LAYER_STATS.items():
            counts = tracer.counts.get(target, {})
            for stat in stats:
                key = f"{target.lstrip('_')}.{stat}"
                values[key] = self_s.get(target, 0.0) if stat == "self_s" else counts.get(stat, 0)
        for name, (kernel, provider) in HIT_RATIOS.items():
            asked = tracer.counts.get(provider, {}).get("calls", 0)
            built = tracer.counts.get(kernel, {}).get("calls", 0)
            values[name] = 1.0 - built / asked if asked else 0.0
        for cmd in CLI_COMMANDS:
            values[f"cli.{cmd}.s"] = cli_total.get(f"cli.{cmd}", 0.0)
            values[f"cli.{cmd}.self_s"] = self_s.get(f"cli.{cmd}", 0.0)
        cli_self = sum(self_s.get(f"cli.{cmd}", 0.0) for cmd in CLI_COMMANDS)
        values["trace.below_cli_share"] = 1.0 - cli_self / work_s
        return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "aof_lab" / "cli.py").is_file() or not (ROOT / "pyproject.toml").is_file():
        print(f"bench: no aof_lab sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = ROOT / "BENCHMARK.json"
    why = {w["name"]: w["why"] for w in json.loads(spec.read_text())["workloads"]} if spec.is_file() else {}
    if args.workload not in why:
        print(f"bench: unknown workload {args.workload!r}; {spec.name} lists {sorted(why)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # turn termination into SystemExit so children are reaped and work files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    threads_was_set = os.environ.pop("AOF_LAB_THREADS", None) is not None
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    launcher = runner.Launcher(ROOT)  # before aof_lab is imported here
    try:
        bench = Bench(args, work, launcher)
        probe = bench.probe()
        start = time.perf_counter()
        if args.trace:
            samples, values = bench.measure_layers(args.seconds)
        else:
            values, unpaced, samples = bench.measure_end_to_end(args.seconds)
        measured_s = time.perf_counter() - start
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    failed = len(bench.failures)
    if args.trace:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layer_metric_names()}
        timings = {k: summary(v) for k, v in samples.items() if k != "imports"}
    else:
        values["ok_frac"] = (bench.attempted - failed) / bench.attempted
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        timings = {key: {"value": values[key], "unpaced": unpaced[key],
                         "per_command": {n: summary(v) for n, v in per_cmd.items()}}
                   for key, per_cmd in samples.items()}

    detail = {"workload": args.workload, "why": why[args.workload], "seed": args.seed,
              "seconds": args.seconds, "measured_s": measured_s, "trace": args.trace,
              "reference_nominal_s": runner.REFERENCE_NOMINAL_S, "timings": timings, "samples": samples,
              "fail_frac": failed / bench.attempted, "failures": bench.failures[:20], "probe": probe,
              "params": bench.inputs.params, "context": context(threads_was_set)}
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({**detail, "metrics": metrics}, indent=2) + "\n")
    if args.trace:
        with gzip.open(results / f"{stem}.spans.jsonl.gz", "wt", encoding="utf-8") as fh:
            for sid, name, start_t, end_t, parent in bench.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start_t, "end": end_t,
                                     "parent": parent}) + "\n")
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
