import json
import subprocess
import sys

import pytest

from helpers import rand_matrix, seeded
from qsimp.cli import main, parse_job, run
from qsimp.errors import DimensionMismatch, ParseError


def job_line(**kwargs):
    return json.dumps(kwargs)


def test_parse_job_valid():
    job = parse_job(job_line(command="decide", d=1, F=[[2]], G=[[3]]))
    assert job.command == "decide"
    assert job.max_depth == 24
    # a stray norm_bound key, as older job files carry, is ignored
    old = parse_job(job_line(command="decide", d=1, F=[[2]], G=[[3]], norm_bound=5))
    assert run(old) == run(job)


def test_parse_job_missing_field():
    with pytest.raises(ParseError, match="G"):
        parse_job(job_line(command="decide", d=1, F=[[2]]))


def test_parse_job_ragged_matrix():
    with pytest.raises(DimensionMismatch):
        parse_job(job_line(command="decide", d=2, F=[[2, 0]], G=[[1, 0], [0, 1]]))


def test_parse_job_bad_command_and_entries():
    with pytest.raises(ParseError, match="command"):
        parse_job(job_line(command="solve", d=1, F=[[2]], G=[[3]]))
    with pytest.raises(ParseError, match="entries"):
        parse_job(job_line(command="decide", d=1, F=[[2.5]], G=[[3]]))


def test_run_decide_simple():
    job = parse_job(job_line(command="decide", d=1, F=[[2]], G=[[3]]))
    code, payload = run(job)
    assert code == 0
    doc = json.loads(payload)
    assert doc["status"] == "Simple"
    assert doc["kirchberg"] is True
    assert doc["hypotheses"]["det_f"] == 2
    assert any(r.startswith("R") for r in doc["rules"])


def test_run_decide_automorphisms():
    job = parse_job(
        job_line(command="decide", d=2, F=[[1, 0], [0, 1]], G=[[1, 0], [0, 1]])
    )
    code, payload = run(job)
    doc = json.loads(payload)
    assert code == 0
    assert doc["status"] == "NotSimple"
    assert doc["rules"] == ["R1-automorphisms"]


def test_run_decide_unknown_exit_2():
    # only a zero determinant (rule R0) leaves decide Unknown
    job = parse_job(
        job_line(command="decide", d=2, F=[[2, 1], [0, 1]], G=[[1, 0], [2, 0]])
    )
    code, payload = run(job)
    assert code == 2
    assert json.loads(payload)["status"] == "Unknown"
    assert json.loads(payload)["rules"] == ["R0-scope"]
    # a pair none of the closed-form rules resolves still gets a verdict
    job = parse_job(
        job_line(command="decide", d=2, F=[[2, 1], [0, 1]], G=[[1, 0], [1, 3]])
    )
    assert run(job)[0] == 0


def test_run_trace():
    job = parse_job(job_line(command="trace", d=1, F=[[2]], G=[[3]], max_depth=2))
    code, payload = run(job)
    assert code == 0
    doc = json.loads(payload)
    assert doc["trace"]["indices"] == [1, 6, 36]
    assert doc["trace"]["joins"][1] == {"denom": 6, "basis": [[1]]}


def test_run_present():
    job = parse_job(job_line(command="present", d=1, F=[[2]], G=[[3]]))
    code, payload = run(job)
    doc = json.loads(payload)
    assert code == 0
    assert doc["presentation"]["diag"] == [2]
    assert len(doc["presentation"]["relations"]) == 4


def test_run_oracle():
    job = parse_job(
        job_line(command="oracle", d=1, F=[[2]], G=[[3]], max_depth=4, epsilon=0.02)
    )
    code, payload = run(job)
    doc = json.loads(payload)
    assert code == 0
    assert doc["status"] == "dense_at_resolution"
    # both chains contribute: lcm(81, 16); in particular the gap is <= 1/81
    assert doc["gap"] == "1/1296"


def test_run_sweep():
    job = parse_job(job_line(command="sweep", m_max=8))
    code, payload = run(job)
    doc = json.loads(payload)
    assert code == 0
    assert doc["counterexamples"] == []


def test_run_singular_error():
    job = parse_job(job_line(command="decide", d=1, F=[[2]], G=[[0]]))
    code, payload = run(job)
    # zero determinant is in scope for decide and reports Unknown, not error
    assert code == 2
    job = parse_job(job_line(command="trace", d=1, F=[[2]], G=[[0]]))
    code, payload = run(job)
    assert code == 1
    assert json.loads(payload)["error"] == "SingularMatrix"


def test_determinism_byte_identical():
    line = job_line(command="decide", d=2, F=[[2, 1], [0, 3]], G=[[3, 0], [1, 2]])
    outs = set()
    for _ in range(3):
        job = parse_job(line)
        outs.add(run(job)[1])
    assert len(outs) == 1


def test_main_batch_and_exit_codes(tmp_path, capsys):
    lines = "\n".join(
        [
            job_line(command="decide", d=1, F=[[2]], G=[[3]]),
            job_line(command="decide", d=1, F=[[1]], G=[[1]]),
        ]
    )
    path = tmp_path / "jobs.jsonl"
    path.write_text(lines + "\n")
    code = main(["--input", str(path)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert [json.loads(l)["status"] for l in out] == ["Simple", "NotSimple"]

    path.write_text(job_line(command="decide", d=1, F=[[2]]) + "\n")
    code = main(["--input", str(path)])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"] == "ParseError"


def test_main_parallel_preserves_order(tmp_path, capsys):
    rows = [job_line(command="decide", d=1, F=[[k]], G=[[k]]) for k in (2, 3, 4)]
    path = tmp_path / "jobs.jsonl"
    path.write_text("\n".join(rows) + "\n")
    code = main(["--input", str(path), "--jobs", "2"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert [json.loads(l)["witness"] for l in out] == [[2], [3], [4]]


def _mixed_batch(rng, n):
    """Decide, trace, present and oracle jobs, with singular and malformed
    lines among them."""
    lines = []
    for k in range(n):
        kind = k % 6
        d = rng.randint(1, 3)
        f = [list(r) for r in rand_matrix(rng, d, -4, 4).rows]
        g = [list(r) for r in rand_matrix(rng, d, -4, 4).rows]
        if kind == 0:
            lines.append(job_line(command="decide", d=d, F=f, G=g))
        elif kind == 1:
            lines.append(job_line(command="trace", d=d, F=f, G=g, max_depth=3))
        elif kind == 2:
            lines.append(job_line(command="present", d=1, F=[[2]], G=[[rng.randint(1, 4)]]))
        elif kind == 3:
            lines.append(job_line(command="oracle", d=1, F=[[rng.randint(1, 5)]],
                                  G=[[rng.randint(1, 5)]], max_depth=6))
        elif kind == 4:
            lines.append(job_line(command="decide", d=1, F=[[rng.randint(-6, 6)]],
                                  G=[[rng.randint(-6, 6)]]))
        else:
            lines.append(rng.choice(["{", "[]", job_line(command="trace", d=2, F=f)]))
    return lines


def test_main_jobs_2_matches_jobs_1(tmp_path, capsys):
    # enough lines that each worker task carries a chunk of several jobs
    path = tmp_path / "jobs.jsonl"
    path.write_text("\n".join(_mixed_batch(seeded(71), 240)) + "\n")
    code_1 = main(["--input", str(path), "--jobs", "1"])
    out_1 = capsys.readouterr().out
    code_2 = main(["--input", str(path), "--jobs", "2"])
    out_2 = capsys.readouterr().out
    assert code_1 == code_2
    assert out_2 == out_1
    assert len(out_1.splitlines()) == 240


def test_env_var_max_depth(tmp_path, monkeypatch):
    monkeypatch.setenv("QS_MAX_DEPTH", "3")
    job = parse_job(job_line(command="trace", d=1, F=[[2]], G=[[3]]))
    assert job.max_depth == 3
    monkeypatch.setenv("QS_MAX_DEPTH", "zero")
    with pytest.raises(ParseError):
        parse_job(job_line(command="trace", d=1, F=[[2]], G=[[3]]))


def test_text_format():
    job = parse_job(job_line(command="decide", d=1, F=[[2]], G=[[3]], output="text"))
    code, payload = run(job)
    assert code == 0
    assert "status: Simple" in payload


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qsimp.cli"],
        input=job_line(command="decide", d=1, F=[[2]], G=[[3]]) + "\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "Simple"
