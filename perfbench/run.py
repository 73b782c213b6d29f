"""Seeded end-to-end and per-layer benchmark of bayesadapt.

    python3 perfbench/run.py --workload solve-coalition --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
`src/` and the CLI runs as `python -m bayesadapt.cli` with
`PYTHONPATH=<checkout>/src`, so the checkout under test is what gets
measured. Stdlib only.

One process, one thread, a single caller in a closed loop: each operation
starts when the previous one and its checks are done, and each gets its own
generated document. Set-up (import, generating the documents, one warm-up
operation on a document outside the timed set) is repeated SETUP_REPEATS
times and reported as its median.

`--trace 0` measures the end-to-end metrics. The timed section runs until
`--seconds` of operation wall time have passed and at least MIN_OPS operations
are done; output checks, run between operations, are not timed. Every
CLI_EVERY operations, the CLI runs once, alone. Each timed interval is
scaled to a reference machine speed (speed.py); the raw wall times are
reported beside the metrics as wall_*. The metrics, for every workload:

    op_ms_p50, op_ms_p90  time per operation: a decision (parse ->
                          analyze_attacks -> plan) on solve-*, a simulation
                          (parse -> run_scenario -> trace_to_lines) on loop-replay
    ops_per_s             operations / time of the timed section (on
                          solve-strategy that time includes the exports)
    cli_ms_p50            one CLI process on a representative document
    peak_rss_mb           ru_maxrss after the timed section
    setup_s               median set-up time

`--trace 1` runs the first TRACE_OPS documents untraced, alternating with
the next TRACE_OPS run with every public function in tracer.PATCH_SITES
wrapped, and reports per-layer counts, total and self times, derived ratios, the
tracing overhead and the CLI's interpreter and import time.

Both modes check every output (tests/oracles.py for equilibria), pin a
digest of the first TRACE_OPS canonical outputs for seed 0
(perfbench/digests.json) and write a full report, with sample counts and
deterministic work counters, to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import Gauge, time_process  # noqa: E402
from tracer import Tracer, ratio  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 100        # p90 then has at least 10 samples beyond it
TRACE_OPS = 40       # two cycles of every workload's 20 classes (a multiple is required)
POOL = 4 * MIN_OPS   # documents generated; a run ends early if it uses them all
SETUP_REPEATS = 5
CLI_REPEATS = 12
CLI_EVERY = 8        # operations between two CLI runs
PROBE_REPEATS = 5
DEFAULT_SEED = 0
MODULES = ("model", "shapley", "attacks", "game", "solver", "loop", "scenario", "cli")
OUT_DIR = ROOT / ".perfbench-out"


def import_fresh():
    """Import bayesadapt and the test oracles from the checkout, afresh."""
    for name in list(sys.modules):
        if name == "bayesadapt" or name.startswith("bayesadapt.") or name == "perfbench_oracles":
            del sys.modules[name]
    pkg = types.SimpleNamespace()
    for name in MODULES:
        setattr(pkg, name, importlib.import_module(f"bayesadapt.{name}"))
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    sys.modules["perfbench_oracles"] = oracles
    spec.loader.exec_module(oracles)
    return pkg, oracles


def setup(wl, seed: int, pool: int):
    pkg, oracles = import_fresh()
    docs = [wl.document(seed, i) for i in range(pool)]
    wl.operate(pkg, wl.side_document(seed, "warm-up", wl.cli_class).text, Parts())
    return pkg, oracles, docs


class Checker:
    """Counts attempted and failed operations and keeps the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")


class Parts:
    """Times the named parts of one operation; with a tracer, also charges
    each function's time inside a part to that part."""

    def __init__(self, tracer: Tracer | None = None):
        self.times: dict[str, float] = {}
        self.tracer = tracer

    @contextmanager
    def __call__(self, name: str):
        before = self.tracer.snapshot() if self.tracer else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] = time.perf_counter() - t0
            if before is not None:
                self.tracer.add_section(name, before)


def run_op(wl, pkg, doc, tracer=None):
    parts = Parts(tracer)
    try:
        return wl.operate(pkg, doc.text, parts), parts.times
    except Exception as e:  # a failing operation is counted, the run goes on
        return e, {}


def check_op(wl, pkg, oracles, checker, index, doc, out) -> None:
    if isinstance(out, Exception):
        checker.record(f"op {index}", [f"raised {type(out).__name__}: {out}"])
        return
    try:
        problems = wl.check(pkg, oracles, doc, out)
    except Exception as e:
        problems = [f"check raised {type(e).__name__}: {e}"]
    checker.record(f"op {index}", problems)


def work_counters(wl, out, counters: dict) -> None:
    """Deterministic counts read from outputs (used by the untraced mode)."""
    if isinstance(out, Exception):
        return
    decisions = [out["decision"]] if "decision" in out else [
        r.decision for r in out["trace"].records if r.replanned]
    counters["decisions"] = counters.get("decisions", 0) + len(decisions)
    for d in decisions:
        for key, value in (("profiles_examined", d.solve_stats.profiles_examined),
                           ("equilibria", d.solve_stats.equilibria_found),
                           ("fallbacks", int(d.fallback))):
            counters[key] = counters.get(key, 0) + value
    if "trace" in out:
        counters["ticks"] = counters.get("ticks", 0) + len(out["trace"].records)
        counters["replans"] = counters.get("replans", 0) + len(decisions)


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of the samples; 0 when there are none."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=60)


class CliProbe:
    """Times `python -m bayesadapt.cli` on one representative document.

    The runs are spread over the timed section, one at a time between
    operations, so that their median covers the same stretch of machine time
    as the operations do.
    """

    def __init__(self, wl, pkg, seed: int, tmp: Path):
        doc = wl.side_document(seed, "cli", wl.cli_class)
        path = tmp / "scenario.json"
        path.write_text(doc.text, encoding="utf-8")
        self.args, self.expected_code, self.output_problems = wl.cli(pkg, doc, path, tmp)
        self.walls: list[float] = []
        self.times: list[float] = []  # at the reference speed

    def run_once(self, checker: Checker) -> None:
        proc, wall, scaled = time_process(run_process, [sys.executable, "-m", "bayesadapt.cli", *self.args])
        self.walls.append(wall)
        self.times.append(scaled)
        problems = []
        if proc.returncode != self.expected_code:
            problems.append(f"exit {proc.returncode}, expected {self.expected_code}: {proc.stderr.strip()[:200]}")
        else:
            try:
                problems = self.output_problems(proc.stdout)
            except Exception as e:  # counted as a failed CLI run
                problems = [f"CLI output check raised {type(e).__name__}: {e}"]
        checker.record(f"cli run {len(self.times)}", problems)


def probe_ms(gauge: Gauge, code: str) -> float:
    """Median time of `python -c code` at the reference speed."""
    return 1000.0 * statistics.median(
        gauge.time(run_process, [sys.executable, "-c", code])[2] for _ in range(PROBE_REPEATS))


def check_digest(wl, seed: int, digest: str, checker: Checker) -> dict:
    pinned = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    expected = pinned["digests"].get(wl.name) if seed == pinned["seed"] else None
    if expected is not None:
        checker.record("digest", [] if digest == expected else [f"digest {digest} != pinned {expected}"])
    return {"ops": TRACE_OPS, "value": digest, "pinned": expected}


def untraced(wl, pkg, oracles, docs, args, checker, gauge):
    walls, scaled, parts, wall_parts, counters = [], [], {}, {}, {}
    digest = hashlib.sha256()
    ticks = 0
    i = 0
    tmp = OUT_DIR / f"tmp-{wl.name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        cli = CliProbe(wl, pkg, args.seed, tmp)
        while i < len(docs) and (i < MIN_OPS or sum(walls) < args.seconds):
            (out, part), wall, at_ref = gauge.time(run_op, wl, pkg, docs[i])
            if not isinstance(out, Exception):
                walls.append(wall)
                scaled.append(at_ref)
                for name, value in part.items():
                    parts.setdefault(name, []).append(value * at_ref / wall)
                    wall_parts.setdefault(name, []).append(value)
                if "trace" in out:
                    ticks += len(out["trace"].records)
            check_op(wl, pkg, oracles, checker, i, docs[i], out)
            if i < TRACE_OPS and not isinstance(out, Exception):
                digest.update(wl.canonical(out))
            if i < MIN_OPS:
                work_counters(wl, out, counters)
            i += 1
            if i % CLI_EVERY == 0 and len(cli.times) < CLI_REPEATS:
                cli.run_once(checker)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(cli.times) < CLI_REPEATS:
            cli.run_once(checker)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    digest_info = check_digest(wl, args.seed, digest.hexdigest(), checker)

    main = parts.get(wl.section, [])
    samples = {
        "op_ms_p50": (1000 * quantile(main, 0.5), "ms", len(main)),
        "op_ms_p90": (1000 * quantile(main, 0.9), "ms", len(main)),
        "ops_per_s": (ratio(len(scaled), sum(scaled)), "1/s", len(scaled)),
        "cli_ms_p50": (1000 * quantile(cli.times, 0.5), "ms", len(cli.times)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    extra = {f"{name}_ms_p50": (1000 * quantile(v, 0.5), "ms", len(v)) for name, v in parts.items()}
    extra.update({f"{name}_ms_p90": (1000 * quantile(v, 0.9), "ms", len(v)) for name, v in parts.items()})
    if wl.section == "simulate":
        extra["ticks_per_s"] = (ratio(ticks, sum(scaled)), "1/s", len(scaled))
    wall_main = wall_parts.get(wl.section, [])
    extra["wall_op_ms_p50"] = (1000 * quantile(wall_main, 0.5), "ms", len(wall_main))
    extra["wall_ops_per_s"] = (ratio(len(walls), sum(walls)), "1/s", len(walls))
    extra["wall_cli_ms_p50"] = (1000 * quantile(cli.walls, 0.5), "ms", len(cli.walls))
    return samples, extra, counters, digest_info


def traced(wl, pkg, oracles, docs, checker):
    """Documents [0, TRACE_OPS) untraced, alternating with [TRACE_OPS, 2 * TRACE_OPS)
    traced: both halves hold the same classes, and alternating exposes them
    to the same drift in machine speed, so their time difference is the
    tracing overhead."""
    digest = hashlib.sha256()
    tracer = Tracer()
    base = traced_time = section_time = 0.0
    for i in range(TRACE_OPS):
        t0 = time.perf_counter()
        out, _part = run_op(wl, pkg, docs[i])
        base += time.perf_counter() - t0
        check_op(wl, pkg, oracles, checker, i, docs[i], out)
        if not isinstance(out, Exception):
            digest.update(wl.canonical(out))

        j = i + TRACE_OPS
        tracer.install(pkg)
        try:
            t0 = time.perf_counter()
            with tracer.operation(j, "op"):
                out, part = run_op(wl, pkg, docs[j], tracer)
            traced_time += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        section_time += part.get(wl.section, 0.0)
        check_op(wl, pkg, oracles, checker, j, docs[j], out)
    return tracer, base, traced_time, section_time, digest.hexdigest()


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "bayesadapt" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a source checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]

    gauge = Gauge()
    setup_walls, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        (pkg, oracles, docs), wall, at_ref = gauge.time(
            setup, wl, args.seed, POOL if not args.trace else 2 * TRACE_OPS)
        setup_walls.append(wall)
        setup_times.append(at_ref)
    gc.collect()
    checker = Checker()
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "note": "shared machine; no CPU pinning, no cache dropping; medians over repeats",
    }
    metrics: dict[str, tuple[float, str, int]] = {}
    if args.trace:
        tracer, base, traced_time, section_time, digest = traced(wl, pkg, oracles, docs, checker)
        report["digest"] = check_digest(wl, args.seed, digest, checker)
        spans = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        report["spans"] = str(spans.relative_to(ROOT))
        for name, (value, unit) in tracer.metrics().items():
            metrics[name] = (value, unit, TRACE_OPS)
        layer = tracer.section_layers.get(wl.section, {})
        model_shapley = sum(v["self"] for k, v in layer.items() if k.startswith(("model.", "shapley.")))
        enumerate_self = layer.get("solver.enumerate_pure_bne", {}).get("self", 0.0)
        plan_total = layer.get("loop.plan", {}).get("total", 0.0)
        metrics["split.model_shapley_self_share"] = (ratio(model_shapley, section_time), "1", TRACE_OPS)
        metrics["split.enumerate_self_share"] = (ratio(enumerate_self, section_time), "1", TRACE_OPS)
        metrics["split.plan_share"] = (ratio(plan_total, section_time), "1", TRACE_OPS)
        metrics["trace.overhead_s"] = (traced_time - base, "s", TRACE_OPS)
        metrics["trace.overhead_share"] = (ratio(traced_time - base, base), "1", TRACE_OPS)
        interpreter = probe_ms(gauge, "pass")
        metrics["cli.interpreter_ms"] = (interpreter, "ms", PROBE_REPEATS)
        metrics["cli.import_ms"] = (probe_ms(gauge, "import bayesadapt.cli") - interpreter, "ms", PROBE_REPEATS)
        report["counters"] = {k: v for k, (v, unit, _n) in metrics.items() if unit == "count"}
    else:
        samples, extra, counters, report["digest"] = untraced(wl, pkg, oracles, docs, args, checker, gauge)
        metrics.update(samples)
        metrics["setup_s"] = (statistics.median(setup_times), "s", SETUP_REPEATS)
        extra["wall_setup_s"] = (statistics.median(setup_walls), "s", SETUP_REPEATS)
        extra["kernel_ms_p50"] = (1000 * statistics.median(gauge.kernel_samples), "ms",
                                  len(gauge.kernel_samples))
        report["more_metrics"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in extra.items()}
        report["counters"] = counters

    report.update(attempted=checker.attempted, failed=checker.failed,
                  fail_ratio=checker.failed / max(1, checker.attempted), problems=checker.problems,
                  setup_samples_s=setup_times, setup_wall_samples_s=setup_walls,
                  metrics={k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()})
    (OUT_DIR / f"report-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for key in ("workload", "seed", "git_sha", "python", "nproc", "note"):
        print(f"# {key}: {report[key]}")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (samples={n})")
    for name, item in report.get("more_metrics", {}).items():
        print(f"metric {name} = {item['value']:.6g} {item['unit']} (samples={item['samples']})")
    print(f"# counters: {json.dumps(report['counters'], sort_keys=True)}")
    print(f"# digest: {json.dumps(report['digest'])}")
    print(f"# attempted={checker.attempted} failed={checker.failed} fail_ratio={report['fail_ratio']}")
    for problem in checker.problems:
        print(f"# problem: {problem}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
