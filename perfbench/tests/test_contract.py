"""BENCHMARK.json and the benchmark's own tables agree, and the tracer
links child spans to their parents."""

import json
import re
from pathlib import Path

from perfbench.bench import END_TO_END, PER_LAYER
from perfbench.prep import TRAIN_SEED, WORKLOAD_DELTA, HELDOUT_SEED_OFFSET
from perfbench.trace import Tracer
from perfbench.verify import References, canonical, canonical_body

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == sorted(WORKLOAD_DELTA)


def test_benchmark_json_limits():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [
        w["name"] for w in spec["workloads"]
    ]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 1 <= len(spec["end_to_end"]) <= 16
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert 1 <= spec["run_seconds"] <= 60


def test_heldout_seeds_never_reuse_the_training_seed():
    assert all(HELDOUT_SEED_OFFSET + seed != TRAIN_SEED for seed in range(1000))


def test_tracer_links_children_and_computes_self_time():
    tracer = Tracer(True)
    with tracer.span("outer", request="r1") as outer:
        tracer.record("inner", 0.0, 0.0, request="r1", parent=outer)
    assert tracer.spans[1]["parent"] == outer == 0
    assert tracer.spans[0]["end"] >= tracer.spans[0]["start"]
    assert set(tracer.self_time_by_name()) == {"outer", "inner"}


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("outer") as outer:
        assert outer is None
    assert tracer.record("x", 0.0, 1.0) is None
    assert tracer.spans == []


def test_answers_compare_as_canonical_json():
    payload = {"query": "q", "head": "h", "modifiers": [], "constraints": [], "method": "m", "score": 0.1}
    body = (json.dumps(payload, sort_keys=False) + "\n").encode()
    assert canonical_body(body) == canonical(payload)
    assert canonical_body(b"not json") is None
    assert canonical_body(b"[1, 2]") is None


def _references(answers: dict[tuple[int, str], str]) -> References:
    """References with their expected answers given up front."""
    references = References({generation: Path(f"g{generation}") for generation, _ in answers})
    references._memo.update(answers)
    return references


def test_a_read_tells_generations_apart_only_where_the_previous_differs():
    references = _references({(1, "a"): "old", (2, "a"): "new", (1, "b"): "same", (2, "b"): "same"})
    assert references.tells_apart({2}, "a")
    assert not references.tells_apart({2}, "b")
    # Overlapping the reload, the previous generation is allowed too.
    assert not references.tells_apart({1, 2}, "a")
    # Before any reload there is no previous generation.
    assert not references.tells_apart({1}, "a")


def test_a_stale_answer_after_the_ack_is_a_mismatch():
    references = _references({(1, "a"): "old", (2, "a"): "new"})
    assert references.matches({2}, "a", "new")
    assert not references.matches({2}, "a", "old")
    assert references.matches({1, 2}, "a", "old")
    assert not references.matches({2}, "a", None)
