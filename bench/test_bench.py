"""Tests of the benchmark itself: generator, oracle and tracing.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import WRAPPED, Tracer  # noqa: E402

from qsimp import cli, intmat, lattice  # noqa: E402


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        first = [job.line for job in workloads.generate(name, 7)]
        assert first == [job.line for job in workloads.generate(name, 7)]
        assert first != [job.line for job in workloads.generate(name, 8)]


def test_decide_jobs_use_the_defaults():
    for name in ("decide-chain", "short-jobs"):
        for job in workloads.generate(name, 1):
            doc = json.loads(job.line)
            assert "max_depth" not in doc and "norm_bound" not in doc


def test_oracle_hand_cases():
    assert oracle.expected_status("random", {"a": [2], "b": [3]}) == "Simple"
    assert oracle.expected_status("random", {"a": [2], "b": [-2]}) == "NotSimple"
    f, g, a, b = workloads.REPRODUCER
    assert oracle.expected_status("reproducer", {"a": a, "b": b}) == "NotSimple"
    assert oracle.witness_survives(f, g, [-100000, 5])
    assert not oracle.witness_survives(f, g, [1, 0])
    assert oracle.expected_status("random", {}) is None


def test_oracle_flags_the_known_wrong_verdict():
    f, g, a, b = workloads.REPRODUCER
    job = workloads.Job(json.dumps({"command": "decide", "d": 2, "F": f, "G": g}),
                        "reproducer", {"F": f, "G": g, "a": a, "b": b})
    checker = run.Checker([job])
    assert "contradicts" in checker.failure(0, '{"status":"Simple"}')
    assert checker.failure(0, '{"status":"Unknown"}') is None
    assert checker.failure(0, '{"status":"NotSimple","witness":[-100000,5]}') is None
    assert "leaves" in checker.failure(0, '{"status":"NotSimple","witness":[0,1]}')


def test_trace_reference_matches_the_program():
    rng = random.Random(3)
    for _ in range(12):
        d = rng.choice((1, 2, 3))
        f, g = workloads._random_pair(rng, d)
        depth = rng.choice((2, 9, 20))
        line = json.dumps({"command": "trace", "d": d, "F": f, "G": g,
                           "max_depth": depth})
        assert cli.run(cli.parse_job(line))[1] == oracle.trace_line(f, g, depth)


def _sample_lines():
    lines = [j.line for j in workloads.generate("decide-chain", 1)[:12]]
    lines += [j.line for j in workloads.generate("short-jobs", 1)[:40]]
    f, g = [[2, 1], [1, 3]], [[3, 0], [1, 1]]
    lines.append(json.dumps({"command": "trace", "d": 2, "F": f, "G": g,
                             "max_depth": 12}))
    return lines


def test_traced_output_is_byte_identical_and_restored():
    lines = _sample_lines()
    originals = {name: getattr(sys.modules[f"qsimp.{layer}"], name)
                 for layer, names in WRAPPED.items() for name in names}
    plain, _, _ = run.in_process(cli, lines)
    tracer = Tracer()
    tracer.install()
    try:
        assert lattice.det.__wrapped__ is originals["det"]
        traced, _, wall_ns = run.in_process(cli, lines, tracer)
    finally:
        tracer.remove()
    assert traced == plain and None not in plain
    assert lattice.det is originals["det"] and intmat.det is originals["det"]
    summary = tracer.summary(wall_ns)
    total = sum(summary["self_s"].values()) + summary["outside_s"]
    assert abs(total - summary["wall_s"]) < 1e-6
    assert summary["calls"]["cli.run"] == len(lines)
    assert summary["calls"]["chain.step_pos"] > 0
    assert sum(tracer.paths.values()) == summary["calls"]["simplicity.decide"]


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(i) for i in range(200)]
    p, v = run.tail(values)
    assert p == 95.0 and 189 <= v <= 190
    assert run.tail([float(i) for i in range(24)])[0] == 58.3
