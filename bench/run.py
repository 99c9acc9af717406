"""Seeded, verdict-checked benchmark of the qsimp batch CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qsimp source checkout; it imports and launches
the program from `src/` and exits with code 2 when that is missing.

The load is one closed loop in this process plus `qsimp` children: each
round runs the workload file through `qsimp --jobs 1` and `--jobs 2`
children (timed from launch to exit) and through `cli.parse_job` +
`cli.run` in process (timed per job). Rounds repeat until the next one
would overrun --seconds; each figure is the median over rounds. Pass
times are scaled to a reference host speed measured around every pass
(see CAL_REF_S), and single-threaded passes run on the quicker CPU; the
raw times go to the record. setup_s is the raw median of fresh imports
taken before and after the rounds. With --trace 1 each round
instead runs the in-process pass untraced and traced (see spans.py) and
reports per-layer figures.

Every output line is checked (see oracle.py). A failed operation is an
Error line on a valid job, a crash, a verdict that contradicts the oracle,
a NotSimple witness that leaves the integers, a wrong `trace`, `present`
or `oracle` line, or a line that differs from the `--jobs 1` output;
`failed` counts them and `passed_share` is 1 - failed/attempted. `correct`
is false when a pass did not finish or did not print one line per job, so
its outputs could not all be checked.

Stdout ends with one JSON line {"correct", "attempted", "failed",
"metrics"}; the lines before it print each metric with its unit and sample
count. A fuller record (machine facts, exact counts, output digest, lines
differing from reference.json) goes to .bench_build/bench/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import PATHS, WRAPPED, Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "bench"
REFERENCE = BENCH_DIR / "reference.json"

RUN_LIMIT_S = 170
SETUP_RUNS = 10
UNDECIDED = ("Unknown", "gap", "Error")
QSIMP_MAIN = "import sys; from qsimp.cli import main; sys.exit(main())"
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import qsimp.cli; "
    "print(time.perf_counter() - t)"
)
LINE_DIGEST_HEX = 6

# Host-speed calibration. On a shared 2-vCPU Intel Xeon host (Python 3.11)
# each CPU ran at about 1/1.6 of its speed for seconds to minutes at a
# time, on its own, which moved raw timings of identical runs by up to 2x.
# Every timed pass is therefore bracketed by a fixed kernel of the same
# kind of work (big-integer HNF, small determinants) and reported in
# seconds of a host on which that kernel takes CAL_REF_S, as that host did
# when quiet.
CAL_REF_S = 0.0135
CAL_REPEAT = 200
CAL_MODULUS = 3**60 * 2**80
CAL_ROWS = [[7 ** (40 + k) * 11 ** (30 + j) % CAL_MODULUS for j in range(3)]
            for k in range(4)]

T0 = time.perf_counter()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QS_MAX_DEPTH", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def _calibrate(cpu: int) -> float:
    """Seconds a fixed pure-Python kernel takes on `cpu` (pins to it)."""
    os.sched_setaffinity(0, {cpu})
    start = time.perf_counter()
    for _ in range(CAL_REPEAT):
        oracle.hnf_mod(CAL_ROWS, CAL_MODULUS, 3)
        oracle.det(CAL_ROWS[:3])
    return time.perf_counter() - start


@contextlib.contextmanager
def scaled_to_reference_host(single_cpu: bool):
    """Run the block pinned to the quicker CPU (or to all of them) and set
    scale["factor"], which turns its seconds into seconds on a host where
    the calibration kernel takes CAL_REF_S.

    The kernel runs on each CPU used just before and just after the block.
    """
    cpus = sorted(os.sched_getaffinity(0))
    before = {cpu: _calibrate(cpu) for cpu in cpus}
    used = [min(before, key=before.get)] if single_cpu else cpus
    os.sched_setaffinity(0, set(used))
    scale = {}
    try:
        yield scale
    finally:
        after = [_calibrate(cpu) for cpu in used]
        os.sched_setaffinity(0, set(cpus))
        scale["factor"] = CAL_REF_S / statistics.fmean([before[c] for c in used] + after)


def run_child(args: list[str], stdout_path: Path) -> dict:
    """Launch a child, wait for it, return wall time, exit code and max RSS."""
    limit = max(5.0, RUN_LIMIT_S - (time.perf_counter() - T0))
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(limit, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024}


def measure_setup(count: int) -> list[float]:
    """Seconds for each of `count` fresh interpreters to `import qsimp.cli`."""
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import qsimp.cli failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return times


class Checker:
    """Checks output lines against the oracle; remembers each verdict."""

    def __init__(self, jobs):
        self.jobs = jobs
        self._cache: dict = {}

    def failure(self, i: int, line) -> str | None:
        """Why line i is wrong, or None when it passes."""
        if line is None:
            return "missing or crashed"
        key = (i, line)
        if key not in self._cache:
            try:
                self._cache[key] = self._check(self.jobs[i], line)
            except (TypeError, ValueError, KeyError, AttributeError, ArithmeticError):
                self._cache[key] = "malformed output"
        return self._cache[key]

    def _check(self, job, line: str) -> str | None:
        try:
            out = json.loads(line)
        except json.JSONDecodeError:
            return "unparseable output"
        status = out.get("status")
        if status == "Error":
            return f"Error {out.get('error')} on a valid job"
        p = job.params
        if job.family == "trace":
            if line != oracle.trace_line(p["F"], p["G"], p["depth"]):
                return "trace differs from the reference"
        elif job.family == "present":
            pres = out.get("presentation", {})
            diag = [p["F"][i][i] for i in range(len(p["F"]))]
            if (status != "Presentation" or pres.get("diag") != diag
                    or len(pres.get("index_set", ())) != math.prod(diag)
                    or pres.get("g_rows") != p["G"]):
                return "presentation contradicts its construction"
        elif job.family == "oracle":
            depth = out.get("depth")
            if not isinstance(depth, int) or depth < 1:
                return "oracle line without a depth"
            want, gap, order = oracle.oracle_1d(p["f"], p["g"], depth,
                                                Fraction(out.get("epsilon")))
            got = (status, out.get("gap"), out.get("subgroup_order"))
            if got != (want, f"{gap.numerator}/{gap.denominator}", order):
                return f"oracle line {got} contradicts {want}"
        else:
            want = oracle.expected_status(job.family, p)
            if status in (oracle.SIMPLE, oracle.NOT_SIMPLE) and want and status != want:
                return f"{status} contradicts the oracle ({want})"
            if "witness" in out and not oracle.witness_survives(p["F"], p["G"],
                                                                 out["witness"]):
                return f"witness {out['witness']} leaves the integers"
        return None


def read_lines(path: Path, n: int) -> list | None:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines if len(lines) == n else None


def in_process(cli, lines: list[str], tracer: Tracer | None = None):
    """One closed-loop pass; returns (outputs, per-job ns, wall ns)."""
    outputs, lat = [], []
    start = time.perf_counter_ns()
    for i, line in enumerate(lines):
        if tracer is not None:
            tracer.job = i
        t = time.perf_counter_ns()
        try:
            outputs.append(cli.run(cli.parse_job(line))[1])
        except Exception as exc:  # a crash fails this job, not the run
            print(f"# job {i} raised {exc!r}", file=sys.stderr)
            outputs.append(None)
        lat.append(time.perf_counter_ns() - t)
    return outputs, lat, time.perf_counter_ns() - start


class Tally:
    """Counts attempted and failed operations over every checked pass."""

    def __init__(self, checker: Checker, n: int):
        self.checker, self.n = checker, n
        self.attempted = self.failed = 0
        self.complete = True
        self.reasons: dict[int, str] = {}
        self.canonical: list | None = None

    def add(self, outputs: list | None) -> None:
        if outputs is None:
            self.complete = False
            outputs = [None] * self.n
        if self.canonical is None and None not in outputs:
            self.canonical = outputs
        for i, line in enumerate(outputs):
            why = self.checker.failure(i, line)
            if why is None and self.canonical and line != self.canonical[i]:
                why = "output differs from the --jobs 1 output"
            self.attempted += 1
            if why is not None:
                self.failed += 1
                self.reasons.setdefault(i, why)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile, in steps of 0.1 and at least the median,
    with at least 10 samples beyond it; and its value."""
    p = max(500, math.floor(1000 * (1 - 10 / len(values)))) / 10
    qs = statistics.quantiles(values, n=1000, method="inclusive")
    return p, qs[round(p * 10) - 1]


def round_robin(seconds: float, one_round) -> list:
    """Run rounds until the next one would overrun `seconds`."""
    start, results = time.perf_counter(), []
    while True:
        results.append(one_round())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def child_rate(n: int, rounds: list, jobs_flag: str) -> float:
    """Jobs per scaled second of the --jobs child, median over rounds."""
    return statistics.median(n / r[jobs_flag]["scaled_s"] for r in rounds)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cli, lines, job_file: Path, seconds: float, tally: Tally):
    n = len(lines)

    def one_round():
        r = {}
        for jobs_flag in ("1", "2"):
            out_path = OUT / f"out-j{jobs_flag}.txt"
            args = [sys.executable, "-c", QSIMP_MAIN, "--input", str(job_file),
                    "--jobs", jobs_flag]
            with scaled_to_reference_host(single_cpu=jobs_flag == "1") as scale:
                r[jobs_flag] = run_child(args, out_path)
            r[jobs_flag]["scaled_s"] = r[jobs_flag]["wall_s"] * scale["factor"]
            tally.add(read_lines(out_path, n) if r[jobs_flag]["code"] in (0, 1, 2)
                      else None)
        with scaled_to_reference_host(single_cpu=True) as scale:
            outputs, lat, _ = in_process(cli, lines)
        tally.add(outputs)
        r["job_s"] = [x / 1e9 * scale["factor"] for x in lat]
        return r

    measure_setup(1)  # writes the bytecode caches; a user pays that once
    # sampled on both sides of the rounds, so a slow spell of the host
    # shifts at most half of the samples
    setup = measure_setup(SETUP_RUNS // 2)
    rounds = round_robin(seconds, one_round)
    setup += measure_setup(SETUP_RUNS - len(setup))
    per_job_ms = [statistics.median(r["job_s"][i] for r in rounds) * 1e3
                  for i in range(n)]
    pct, tail_ms = tail(per_job_ms)
    decided = sum(json.loads(x).get("status") not in UNDECIDED
                  for x in tally.canonical or [] if x)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "jobs_per_s": metric(child_rate(n, rounds, "1"), "1/s"),
        "jobs_per_s_j2": metric(child_rate(n, rounds, "2"), "1/s"),
        "job_ms_p50": metric(statistics.median(per_job_ms), "ms"),
        "job_ms_tail": metric(tail_ms, "ms"),
        "decided_share": metric(decided / n, "share"),
        "passed_share": metric(1 - tally.failed / tally.attempted, "share"),
        "peak_rss_mb": metric(statistics.median(r["1"]["rss_mb"] for r in rounds), "MB"),
    }
    samples = {
        "setup_s": f"median of {len(setup)} imports",
        "jobs_per_s": f"median of {len(rounds)} rounds of {n} jobs",
        "jobs_per_s_j2": f"median of {len(rounds)} rounds of {n} jobs",
        "job_ms_p50": f"p50 over {n} jobs, each the median of {len(rounds)} rounds",
        "job_ms_tail": f"p{pct:g} over {n} jobs, each the median of {len(rounds)} rounds",
        "decided_share": f"{decided} of {n} jobs",
        "passed_share": f"failed_share {tally.failed}/{tally.attempted} operations",
        "peak_rss_mb": f"--jobs 1 child, median of {len(rounds)} rounds",
    }
    facts = {
        "rounds": len(rounds),
        "tail_percentile": pct,
        "round_wall_s": {f"jobs{k}": [r[k]["wall_s"] for r in rounds] for k in ("1", "2")},
        "round_scaled_s": {f"jobs{k}": [r[k]["scaled_s"] for r in rounds]
                           for k in ("1", "2")},
        "setup_samples_s": setup,
    }
    return metrics, samples, facts


def per_layer(cli, lines, seconds: float, tally: Tally, span_path: Path):
    tracers = []

    def one_round():
        with scaled_to_reference_host(single_cpu=True) as plain_scale:
            plain, _, plain_ns = in_process(cli, lines)
        tracer = Tracer()
        tracer.install()
        try:
            with scaled_to_reference_host(single_cpu=True) as scale:
                traced, _, traced_ns = in_process(cli, lines, tracer)
        finally:
            tracer.remove()
        tally.add(plain)
        tally.add(traced)
        tracers.append(tracer)
        summary = tracer.summary(traced_ns, scale["factor"])
        return summary, summary["wall_s"] - plain_ns / 1e9 * plain_scale["factor"]

    rounds = round_robin(seconds, one_round)
    tracers[-1].write(span_path)
    last, tracer = rounds[-1][0], tracers[-1]

    def med(key, name):
        return statistics.median(r[0][key].get(name, 0.0) for r in rounds)

    calls = last["calls"]
    m = {
        "cli.parse_job.s": metric(med("incl_s", "cli.parse_job"), "s"),
        "cli.self_s": metric(med("self_s", "cli"), "s"),
        "cli.output_bytes": metric(tracer.output_bytes, "bytes"),
        "simplicity.decide.calls": metric(calls["simplicity.decide"], "count"),
        "simplicity.self_s": metric(med("self_s", "simplicity"), "s"),
        "simplicity.is_dilation.s": metric(med("incl_s", "simplicity.is_dilation"), "s"),
        "simplicity.normalize.s": metric(med("incl_s", "simplicity.normalize"), "s"),
    }
    for path in PATHS:
        m[f"simplicity.path.{path}"] = metric(tracer.paths[path], "count")
    density_calls = calls["chain.decide_density"]
    m.update({
        "chain.decide_density.calls": metric(density_calls, "count"),
        "chain.decide_density.s": metric(med("incl_s", "chain.decide_density"), "s"),
        "chain.self_s": metric(med("self_s", "chain"), "s"),
        "chain.levels": metric(calls["chain.step_pos"], "count"),
        "chain.decided_ratio": metric(
            tracer.density_decided / density_calls if density_calls else 0.0, "share"),
    })
    for name in WRAPPED["lattice"]:
        m[f"lattice.{name}.calls"] = metric(calls[f"lattice.{name}"], "count")
    m["lattice.self_s"] = metric(med("self_s", "lattice"), "s")
    m["lattice.max_denom_bits"] = metric(tracer.max_denom_bits, "bits")
    for name in WRAPPED["intmat"]:
        m[f"intmat.{name}.calls"] = metric(calls[f"intmat.{name}"], "count")
        m[f"intmat.{name}.s"] = metric(med("incl_s", f"intmat.{name}"), "s")
    m.update({
        "intmat.self_s": metric(med("self_s", "intmat"), "s"),
        "presentation.present.s": metric(med("incl_s", "presentation.present"), "s"),
        "presentation.self_s": metric(med("self_s", "presentation"), "s"),
        "finite_oracle.density_1d.s": metric(med("incl_s", "finite_oracle.density_1d"),
                                             "s"),
        "finite_oracle.self_s": metric(med("self_s", "finite_oracle"), "s"),
        "trace.wall_s": metric(statistics.median(r[0]["wall_s"] for r in rounds), "s"),
        "trace.outside_s": metric(statistics.median(r[0]["outside_s"] for r in rounds),
                                  "s"),
        "trace.overhead_s": metric(statistics.median(r[1] for r in rounds), "s"),
    })
    layer_sum = sum(last["self_s"].values()) + last["outside_s"]
    counts = [dict(r[0]["calls"]) for r in rounds]
    facts = {
        "rounds": len(rounds),
        "spans": len(tracer.spans),
        "self_plus_outside_minus_wall_s": layer_sum - last["wall_s"],
        "counts_repeat_across_rounds": all(c == counts[0] for c in counts),
    }
    samples = {k: f"median of {len(rounds)} traced rounds" for k in m
               if m[k]["unit"] == "s"}
    return m, samples, facts


def machine_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version()}


def reference_diff(workload: str, seed: int, canonical: list | None):
    """Lines differing from the stored reference of this seed, or None."""
    stored = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))
    if stored is None or canonical is None:
        return None
    digests = [line_digest(x) for x in canonical]
    ref = [stored[i:i + LINE_DIGEST_HEX] for i in range(0, len(stored), LINE_DIGEST_HEX)]
    if len(ref) != len(digests):
        return len(digests)
    return sum(a != b for a, b in zip(digests, ref))


def line_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:LINE_DIGEST_HEX]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not (SRC / "qsimp" / "cli.py").is_file():
        print(f"no qsimp source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    os.environ.pop("QS_MAX_DEPTH", None)
    sys.path.insert(0, str(SRC))
    import qsimp.cli as cli

    OUT.mkdir(parents=True, exist_ok=True)
    jobs = workloads.generate(opts.workload, opts.seed)
    lines = [job.line for job in jobs]
    tag = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    job_file = OUT / f"jobs-{opts.workload}-seed{opts.seed}.jsonl"
    job_file.write_text("".join(x + "\n" for x in lines), encoding="utf-8")
    tally = Tally(Checker(jobs), len(lines))

    if opts.trace:
        metrics, samples, facts = per_layer(cli, lines, opts.seconds, tally,
                                            OUT / f"spans-{tag}.csv")
    else:
        metrics, samples, facts = end_to_end(cli, lines, job_file, opts.seconds,
                                             tally)
    output = "".join(x + "\n" for x in tally.canonical or [])
    record = {
        "workload": opts.workload, "seed": opts.seed, "jobs": len(lines),
        "trace": opts.trace, "machine": machine_facts(), **facts,
        "output_sha256": hashlib.sha256(output.encode()).hexdigest(),
        "lines_differing_from_reference": reference_diff(
            opts.workload, opts.seed, tally.canonical),
        "failures": {str(i): why for i, why in sorted(tally.reasons.items())},
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"# {opts.workload} seed={opts.seed} jobs={len(lines)} "
          f"machine={json.dumps(record['machine'])}")
    print(f"# output sha256 {record['output_sha256']}, lines differing from "
          f"reference: {record['lines_differing_from_reference']}")
    for i, why in sorted(tally.reasons.items()):
        print(f"# FAILED job {i} ({jobs[i].family}): {why}")
    for name, m in metrics.items():
        extra = f"  ({samples[name]})" if name in samples else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps({"correct": tally.complete, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
