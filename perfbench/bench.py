"""One benchmark run: prepare, execute the four workload phases (and, when
traced, the per-layer sweep), check every answer, and report."""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

from perfbench import layers, phases, prep
from perfbench.speed import NOMINAL_S
from perfbench.stats import median, percentile, summarize
from perfbench.trace import Tracer
from perfbench.verify import References

#: End-to-end metrics (``--trace 0``): name -> unit. The gated ones: on a
#: shared host these hold steady from run to run.
END_TO_END = {
    "setup_s": "s",
    "rss_mb": "MiB",
    "rss_mb.routed": "MiB",
    "p50_ms": "ms",
    "p50_ms.r1k": "ms",
    "p50_ms.r4k": "ms",
    "p50_ms.routed": "ms",
    "refresh_s": "s",
    "reload_ms": "ms",
    "qps.b8": "1/s",
    "qps.b256": "1/s",
}

#: Per-layer metrics (``--trace 1``): name -> unit. The open-loop p90s,
#: ``max_qps``, the HTTP tails and the routed read latencies are measured
#: in every run and printed, but swing with the host's other tenants past
#: any useful bound, so they are reported here, ungated.
PER_LAYER = {
    "runtime.compiled.detect_us": "us",
    "runtime.vectorized.us_per_query.b256": "us",
    "runtime.vectorized.engine_build_ms": "ms",
    "runtime.snapshot.load_ms": "ms",
    "runtime.snapshot.save_ms": "ms",
    "serving.batcher.queue_wait_us": "us",
    "serving.batcher.batch_mean": "count",
    "serving.service.overhead_us": "us",
    "serving.service.detect_stage_us": "us",
    "serving.service.hit_ratio": "ratio",
    "serving.service.coalesced_share": "ratio",
    "serving.service.shed": "count",
    "serving.service.p90_ms.r1k": "ms",
    "serving.service.p90_ms.r4k": "ms",
    "serving.service.max_qps": "1/s",
    "serving.http.overhead_us": "us",
    "serving.http.connect_us": "us",
    "serving.http.conns_per_request": "count",
    "serving.replica.frame_roundtrip_us": "us",
    "serving.replica.codec_us": "us",
    "serving.router.overhead_us": "us",
    "serving.router.ring_lookup_us": "us",
    "serving.router.reload_ms": "ms",
    "training.incremental.load_s": "s",
    "training.incremental.fold_s": "s",
    "training.incremental.fold.mine_s": "s",
    "training.incremental.fold.derive_s": "s",
    "training.incremental.fold.features_s": "s",
    "training.incremental.fold.classifier_s": "s",
    "training.incremental.save_s": "s",
    "harness.generator_late_ms": "ms",
    "harness.tracing_overhead": "ratio",
    "client.p90_ms": "ms",
    "client.p99_ms": "ms",
    "client.p90_ms.routed": "ms",
}


def run(root: Path, work: Path, workload: str, seed: int, seconds: float,
        trace: bool) -> tuple[dict, list[str]]:
    """Execute one run; return the result object and the report lines."""
    work.mkdir(parents=True, exist_ok=True)
    prepared = prep.ensure_prepared(root, work)
    run_dir = work / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tracer = Tracer(trace)
    ctx = phases.Context(
        repo_root=root,
        run_dir=run_dir,
        snapshot=prepared.snapshot,
        state=prepared.state,
        deltas=prepared.deltas[workload],
        probes=prepared.probes(workload),
        heldout=prep.heldout(seed),
        seed=seed,
        seconds=seconds,
        tracer=tracer,
    )
    done = phases.run_workloads(ctx)
    waterfall = {}
    layer: dict[str, float] = {}
    if trace:
        swept, layer, waterfall = layers.sweep(ctx)
        done.append(swept)
    for phase in done:
        layer.update(phase.layer)

    mismatches, problems, telling = _check(done, prepared.snapshot)
    measured: dict[str, float] = {"setup_s": sum(median(p.setup_s) for p in done if p.setup_s)}
    for phase in done:
        measured.update(phase.metrics)
    names = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": float(layer[name] if trace else measured[name]), "unit": unit}
               for name, unit in names.items()}
    result = {
        "correct": not mismatches and not problems,
        "attempted": sum(p.sent for p in done),
        "failed": sum(p.failed for p in done),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_record(root),
        "host_speed": _speed_record(ctx.speed.samples),
        "speed_samples": sorted(ctx.speed.samples),
        "phases": {p.name: {"sent": p.sent, "failed": p.failed, "setup_s": p.setup_s,
                            "metrics": p.metrics, "notes": _jsonable(p.notes)} for p in done},
        "unscaled": {"setup_s": sum(median(p.notes["setup_s.measured"]) for p in done if p.setup_s),
                     **{name: value for p in done for name, value in p.unscaled.items()}},
        "mismatches": mismatches[:20],
        "generation_telling_reads": telling,
        "problems": problems,
        "waterfall_us": waterfall,
        "ungated": {name: layer[name] for name in PER_LAYER if name in layer},
        "result": result,
    }
    results = work / "results"
    results.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if trace:
        tracer.write(results / f"{stem}.spans.jsonl")
    if result["correct"]:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result, _report(record, done, names, metrics, results / f"{stem}.json")


def _check(done, base_snapshot: Path) -> tuple[list[str], list[str], int]:
    """Compare every answer with the reference of each generation that
    may have served it; collect validity problems the phases noted.

    Also counts the answers the generation rule can catch: those the
    previous generation would have answered differently. A run with
    reloads but no such answer could not tell a server that ignored
    ``/reload`` from one that obeyed it, so it is invalid."""
    references = References({1: base_snapshot})
    mismatches: list[str] = []
    problems: list[str] = []
    telling = 0
    reloaded = False
    try:
        for phase in done:
            for generation, path in phase.notes.get("snapshots", {}).items():
                references.add(generation, Path(path))
                reloaded = True
            for generations, query, got in phase.answers:
                if got is not None and not references.matches(generations, query, got):
                    mismatches.append(f"{phase.name}: {query!r} (generations {sorted(generations)})")
                telling += got is not None and references.tells_apart(generations, query)
            if "invalid" in phase.notes:
                problems.append(str(phase.notes["invalid"]))
    finally:
        references.close()
    if reloaded and not telling:
        problems.append("refresh-routed: no read after a reload was answered differently by the "
                        "previous generation, so the generation rule checked nothing")
    return mismatches, problems, telling


def _speed_record(samples) -> dict:
    """How much slower than the reference host the run's probes ran."""
    slowdowns = [probe_s / NOMINAL_S for _, probe_s in samples]
    return {"probes": len(slowdowns), **{f"slowdown_p{q}": percentile(slowdowns, q) for q in (10, 50, 90)}}


def host_record(root: Path) -> dict:
    """Usable CPUs and load average (the shared ``benchmarks/_hw.py``
    probes) and the checkout's git commit when it is a git checkout."""
    try:
        from benchmarks._hw import hardware_info
    except ImportError:
        hardware = {}
    else:
        hardware = hardware_info()
    return {**hardware, "git_sha": _git_sha(root)}


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _jsonable(notes: dict) -> dict:
    return {key: value for key, value in notes.items() if key != "latency_s"}


def _report(record: dict, done, names: dict, metrics: dict, path: Path) -> list[str]:
    lines = [f"perfbench {record['workload']} seed={record['seed']} "
             f"seconds={record['seconds']} trace={int(record['trace'])}",
             f"host: {json.dumps(record['host'], sort_keys=True)}",
             f"host speed: {json.dumps(record['host_speed'], sort_keys=True)}"]
    for phase in done:
        lines.append(f"  {phase.name:15s} sent={phase.sent} succeeded={phase.sent - phase.failed} "
                     f"failed={phase.failed} setup_s={[round(s, 3) for s in phase.setup_s]}")
        if "latency_s" in phase.notes:
            lines.append(f"  {'':15s} latency {summarize(phase.notes['latency_s'])}")
        if "generator_check" in phase.notes:
            lines.append(f"  {'':15s} generator {phase.notes['generator_check']}, "
                         f"late p90 {phase.layer['harness.generator_late_ms']:.3f} ms")
    for name in names:
        lines.append(f"  {name:40s} {metrics[name]['value']:14.4f} {metrics[name]['unit']}")
    if names is END_TO_END:
        for name, value in sorted(record["ungated"].items()):
            lines.append(f"  {name:40s} {value:14.4f} {PER_LAYER[name]}  (not gated)")
    for layer, us in record["waterfall_us"].items():
        lines.append(f"  waterfall {layer:20s} {us:10.1f} us/query")
    lines.append(f"  answers the previous generation would fail: {record['generation_telling_reads']}")
    for problem in record["problems"] + record["mismatches"]:
        lines.append(f"  PROBLEM {problem}")
    lines.append(f"results: {path}")
    return lines
