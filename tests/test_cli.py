import hashlib
import json
import marshal
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rand_matrix, rand_nonsingular, seeded
from qsimp import cli, errors, presentation
from qsimp.cli import main, parse_job, run
from qsimp.errors import DimensionMismatch, ParseError
from qsimp.intmat import IntMatrix

SRC = Path(__file__).resolve().parent.parent / "src"


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
    for bad in (2.5, "3", None):
        with pytest.raises(ParseError, match="entries"):
            parse_job(job_line(command="decide", d=1, F=[[bad]], G=[[3]]))


def test_parse_job_default_epsilon():
    job = parse_job(job_line(command="oracle", d=1, F=[[2]], G=[[3]]))
    given = parse_job(job_line(command="oracle", d=1, F=[[2]], G=[[3]], epsilon="1/1000"))
    assert job.epsilon == given.epsilon == Fraction(1, 1000)
    assert run(job) == run(given)


def test_parse_job_matrices_equal_checked_construction():
    rng = seeded(5)
    for _ in range(50):
        d = rng.randint(1, 4)
        f = [[rng.randint(-10**30, 10**30) for _ in range(d)] for _ in range(d)]
        g = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
        job = parse_job(job_line(command="decide", d=d, F=f, G=g))
        assert job.f == IntMatrix(f) and job.g == IntMatrix(g)
        assert all(type(x) is int for row in job.f.rows + job.g.rows for x in row)
    with pytest.raises(ParseError, match="entries"):
        parse_job(job_line(command="decide", d=1, F=[[True]], G=[[3]]))


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


# One pair per rule path of `decide`, with its exact json output line and the
# rules line of its text output. They pin every reason string and the order
# of the cascade, including the swapped-pair wording of R3 and R4.
PINNED_DECIDE = [
    (
        [[-4, -1], [3, 1]],
        [[2, 3], [-1, -1]],
        0,
        '{"status":"NotSimple","rules":["R1-automorphisms"],"hypotheses":{"det_f":-1,"det_g":1,"ker_f_size":1,"ker_g_size":1,"condition_L":null,"both_automorphisms":true},"kirchberg":false}',
        "rules: ['R1-automorphisms: both matrices unimodular: the generated subgroup is trivial and never dense']",
    ),
    (
        [[-3, 1], [0, -4]],
        [[2, -3], [-1, 1]],
        0,
        '{"status":"Simple","rules":["R3-dilation"],"hypotheses":{"det_f":12,"det_g":-1,"ker_f_size":12,"ker_g_size":1,"condition_L":true,"both_automorphisms":false},"kirchberg":true}',
        "rules: ['R3-dilation: G unimodular and F G^{-1} a dilation matrix']",
    ),
    (
        [[1, -1], [0, 1]],
        [[1, 2], [2, -2]],
        0,
        '{"status":"Simple","rules":["R3-dilation"],"hypotheses":{"det_f":1,"det_g":-6,"ker_f_size":1,"ker_g_size":6,"condition_L":true,"both_automorphisms":false},"kirchberg":true}',
        "rules: ['R3-dilation: F unimodular and G F^{-1} a dilation matrix']",
    ),
    (
        [[2, 0], [0, 2]],
        [[3, 1], [0, 5]],
        0,
        '{"status":"Simple","rules":["R4-triangular"],"hypotheses":{"det_f":4,"det_g":15,"ker_f_size":4,"ker_g_size":15,"condition_L":true,"both_automorphisms":false},"kirchberg":true}',
        "rules: ['R4-triangular: F = 2 * I and G triangular with no diagonal entry of modulus 2']",
    ),
    (
        [[3, 1], [0, 5]],
        [[2, 0], [0, 2]],
        0,
        '{"status":"Simple","rules":["R4-triangular"],"hypotheses":{"det_f":15,"det_g":4,"ker_f_size":15,"ker_g_size":4,"condition_L":true,"both_automorphisms":false},"kirchberg":true}',
        "rules: ['R4-triangular: G = 2 * I and F triangular with no diagonal entry of modulus 2 (pair swapped)']",
    ),
    (
        [[0, -3], [1, 0]],
        [[-4, 1], [-3, 0]],
        0,
        '{"status":"Simple","rules":["R5-density"],"hypotheses":{"det_f":3,"det_g":3,"ker_f_size":3,"ker_g_size":3,"condition_L":true,"both_automorphisms":false},"kirchberg":true}',
        "rules: ['R5-density: generated subgroup dense: the obstruction spaces of the two chains meet only in 0']",
    ),
    (
        [[0, 1], [4, -4]],
        [[3, -1], [-4, -2]],
        0,
        '{"status":"Simple","rules":["R5-density"],"hypotheses":{"det_f":-4,"det_g":-10,"ker_f_size":4,"ker_g_size":10,"condition_L":true,"both_automorphisms":false},"kirchberg":true}',
        'rules: ["R5-density: generated subgroup dense: no factor of a chain\'s characteristic polynomial is monic over Z, so no character survives it"]',
    ),
    (
        [[1, 2], [-4, 3]],
        [[-4, -2], [-1, -3]],
        0,
        '{"status":"NotSimple","rules":["R5-density"],"witness":[17,1],"hypotheses":{"det_f":11,"det_g":10,"ker_f_size":11,"ker_g_size":10,"condition_L":true,"both_automorphisms":false},"kirchberg":false}',
        "rules: ['R5-density: generated subgroup not dense, witness character [17, 1]']",
    ),
    (
        [[-3, 1], [3, -1]],
        [[2, 4], [-3, -1]],
        2,
        '{"status":"Unknown","rules":["R0-scope"],"hypotheses":{"det_f":0,"det_g":10,"ker_f_size":null,"ker_g_size":10,"condition_L":null,"both_automorphisms":false},"kirchberg":false}',
        "rules: ['R0-scope: zero determinant: the endomorphism is not onto, the criterion does not apply']",
    ),

]


@pytest.mark.parametrize(
    "f, g, code, json_line, text_rules",
    PINNED_DECIDE,
    ids=["R1", "R3-G-unimodular", "R3-F-unimodular", "R4-F-scalar", "R4-G-scalar", "R5-Dense-triangular-normal-form", "R5-Dense", "R5-NotDense", "R0"],
)
def test_decide_output_pinned(f, g, code, json_line, text_rules):
    line = job_line(command="decide", d=2, F=f, G=g)
    assert run(parse_job(line)) == (code, json_line)
    text_code, text = run(parse_job(line, "text"))
    assert text_code == code
    assert text_rules in text.splitlines()


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


def test_present_output_pinned_non_diagonal():
    # F goes through the Smith decomposition; G becomes U^-1 G V^-1
    line = job_line(command="present", d=2, F=[[2, 1], [0, 3]], G=[[-2, 3], [1, 4]])
    assert run(parse_job(line)) == (
        0,
        '{"status":"Presentation","presentation":{"dim":2,"diag":[1,6],"index_set":[[0,0],[0,1],[0,2],[0,3],[0,4],[0,5]],"g_rows":[[3,-8],[5,-17]],"relations":[{"kind":"orthogonality","items":[]},{"kind":"monomial","items":[[0,0],[0,1],[0,2],[0,3],[0,4],[0,5]]},{"kind":"intertwine","items":[[0,1,[3,-8]],[1,6,[5,-17]]]},{"kind":"cover","items":[]}],"toeplitz":false,"transform":["factored F = U D V with D = diag[1, 6]","replaced (F, G) by (D, U^{-1} G V^{-1})"],"unitary_note":"commuting unitaries with full spectrum"}}',
    )
    code, text = run(parse_job(line, "text"))
    assert code == 0
    assert text.splitlines() == [
        "status: Presentation",
        "presentation:",
        "  dim: 2",
        "  diag: [1, 6]",
        "  index_set: [[0, 0], [0, 1], [0, 2], [0, 3], [0, 4], [0, 5]]",
        "  g_rows: [[3, -8], [5, -17]]",
        "  relations:",
        "    kind: orthogonality",
        "    items: []",
        "    kind: monomial",
        "    items: [[0, 0], [0, 1], [0, 2], [0, 3], [0, 4], [0, 5]]",
        "    kind: intertwine",
        "    items: [[0, 1, [3, -8]], [1, 6, [5, -17]]]",
        "    kind: cover",
        "    items: []",
        "  toeplitz: False",
        "  transform: ['factored F = U D V with D = diag[1, 6]', 'replaced (F, G) by (D, U^{-1} G V^{-1})']",
        "  unitary_note: commuting unitaries with full spectrum",
    ]


# sha256 of the cli.run output of 48 seeded present lines, recorded while
# to_dict still copied every tuple into a list: d = 1-3, Toeplitz on and
# off, json and text, and for each a positive diagonal F and an F with a
# negative entry (off the diagonal when d > 1), which goes through snf
PRESENT_DIGEST = "4fa2daed4af7cbbec21502cfa47358381caf9834b94aad0d7b990d71bd7ae89d"


def test_present_output_pinned_seeded():
    rng = seeded(101)
    outputs = []
    for d in (1, 2, 3):
        for toeplitz in (False, True):
            for output in ("json", "text"):
                for diagonal in (True, True, False, False):
                    if diagonal:
                        f = IntMatrix.diagonal([rng.randint(1, 3) for _ in range(d)])
                    else:
                        while True:
                            f = rand_nonsingular(rng, d, -3, 3)
                            if min(map(min, f.rows)) < 0 and (d == 1 or not f.is_diagonal()):
                                break
                    g = rand_nonsingular(rng, d, -4, 4)
                    line = job_line(command="present", d=d, F=[list(r) for r in f.rows],
                                    G=[list(r) for r in g.rows], toeplitz=toeplitz,
                                    output=output)
                    code, out = run(parse_job(line))
                    assert code == 0
                    assert ("factored F = U D V" in out) is not diagonal
                    outputs.append(out)
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert digest == PRESENT_DIGEST


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


# a line with a byte that is not UTF-8 inside a JSON string, which the JSON
# parser alone would accept, and a line of such bytes alone
BAD_BYTES = (
    job_line(command="decide", d=1, F=[[2]], G=[[3]]).encode() + b"\n"
    + b'{"command":"decide","d":1,"F":[[2]],"G":[[3]],"note":"\xff"}\n'
    + b"\xfe\xff\n"
    + job_line(command="decide", d=1, F=[[1]], G=[[1]]).encode() + b"\n"
)


def _check_bad_bytes_output(out: str) -> None:
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert [l["status"] for l in lines] == ["Simple", "Error", "Error", "NotSimple"]
    assert [l.get("error") for l in lines[1:3]] == ["ParseError"] * 2
    assert "not valid UTF-8" in lines[1]["message"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_main_input_file_with_bytes_not_utf8(tmp_path, capsys, jobs):
    path = tmp_path / "jobs.jsonl"
    path.write_bytes(BAD_BYTES)
    code = main(["--input", str(path), "--jobs", jobs])
    assert code == 1
    _check_bad_bytes_output(capsys.readouterr().out)


def test_stdin_with_bytes_not_utf8():
    proc = subprocess.run(
        [sys.executable, "-m", "qsimp.cli"],
        input=BAD_BYTES,
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONUTF8": "0", "LC_ALL": "C.UTF-8"},
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    _check_bad_bytes_output(proc.stdout.decode())


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


@pytest.fixture(autouse=True)
def _keep_affinity():
    """Give this process back its CPUs after each test, so that a share
    left pinned in one test does not cap the workers of the next."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    setaffinity, cpus = os.sched_setaffinity, os.sched_getaffinity(0)
    yield
    setaffinity(0, cpus)


def _uncapped(monkeypatch):
    """Let --jobs N fork N - 1 children on a host with fewer CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)


def _count_forks(monkeypatch):
    forks, real_fork = [], os.fork

    def counted():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _lines_run_here(monkeypatch):
    """The lines that `_run_line` runs in this process, in order."""
    parent, run_line, here = os.getpid(), cli._run_line, []

    def counted(args):
        if os.getpid() == parent:
            here.append(args[0])
        return run_line(args)

    monkeypatch.setattr(cli, "_run_line", counted)
    return here


def _assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_main_jobs_2_matches_jobs_1(tmp_path, capsys, monkeypatch):
    # every stride from 2 to 4, in both formats: text payloads span lines
    # with 8 CPUs faked on a smaller host, the placement of shares past the
    # real CPUs fails, and no share runs twice
    _uncapped(monkeypatch)
    forks = _count_forks(monkeypatch)
    here = _lines_run_here(monkeypatch)
    batch = _mixed_batch(seeded(71), 240)
    path = tmp_path / "jobs.jsonl"
    path.write_text("\n".join(batch) + "\n")
    for fmt in ("json", "text"):
        code_1 = main(["--input", str(path), "--jobs", "1", "--format", fmt])
        out_1 = capsys.readouterr().out
        assert forks == []
        here.clear()
        for jobs in (2, 3, 4):
            code = main(["--input", str(path), "--jobs", str(jobs), "--format", fmt])
            assert (code, capsys.readouterr().out) == (code_1, out_1)
            assert len(forks) == jobs - 1
            assert here == batch[0::jobs]
            forks.clear()
            here.clear()
        if fmt == "json":
            assert len(out_1.splitlines()) == 240
    _assert_no_children_left()


@pytest.mark.parametrize("count, forked", [(1, 0), (3, 2)])
def test_main_fewer_lines_than_workers(tmp_path, capsys, monkeypatch, count, forked):
    _uncapped(monkeypatch)
    forks = _count_forks(monkeypatch)
    lines = _mixed_batch(seeded(5), count)
    expected = _main_on(tmp_path, capsys, lines, "--jobs", "1")
    assert _main_on(tmp_path, capsys, lines, "--jobs", "4") == expected
    assert len(forks) == forked
    assert len(expected[1]) == count


def test_jobs_capped_at_lines_and_cpus(tmp_path, capsys, monkeypatch):
    # --jobs 10**6 forks one child fewer than min(lines, usable CPUs)
    lines = [job_line(command="decide", d=1, F=[[k]], G=[[3]]) for k in range(2, 7)]
    expected = _main_on(tmp_path, capsys, lines, "--jobs", "1")
    forks = _count_forks(monkeypatch)
    assert _main_on(tmp_path, capsys, lines, "--jobs", str(10**6)) == expected
    assert len(forks) == min(5, len(os.sched_getaffinity(0))) - 1
    _uncapped(monkeypatch)
    forks.clear()
    assert _main_on(tmp_path, capsys, lines, "--jobs", str(10**6)) == expected
    assert len(forks) == 4
    _assert_no_children_left()


def test_worker_count(monkeypatch):
    _uncapped(monkeypatch)
    assert [cli._workers(j, 5) for j in (-3, 0, 1, 2, 10**6)] == [1, 1, 1, 2, 5]
    assert cli._workers(10**6, 10**6) == 8
    assert cli._workers(4, 0) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._workers(10**6, 10**6) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._workers(10**6, 10**6) == 1
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._workers(10**6, 10**6) == 1


def _die_in_children(monkeypatch, action):
    parent, run_line = os.getpid(), cli._run_line

    def patched(args):
        if os.getpid() != parent:
            action()
        return run_line(args)

    monkeypatch.setattr(cli, "_run_line", patched)


def test_dead_worker_share_reruns_here(tmp_path, capsys, monkeypatch):
    _uncapped(monkeypatch)
    lines = _mixed_batch(seeded(9), 24)
    expected = _main_on(tmp_path, capsys, lines, "--jobs", "1")
    _die_in_children(monkeypatch, lambda: os._exit(3))
    assert _main_on(tmp_path, capsys, lines, "--jobs", "3") == expected
    _assert_no_children_left()


_dumps, _exit = marshal.dumps, os._exit


@pytest.mark.parametrize("dumps, exit_code", [
    (lambda x: b"\xff not marshal", 0),
    (lambda x: _dumps(x[1:]), 0),
    (lambda x: _dumps(tuple(x)), 0),
    (lambda x: _dumps([(0, "forged")] * len(x)), 5),
], ids=["garbage", "short-list", "tuple", "nonzero-exit"])
def test_malformed_worker_output_reruns_here(tmp_path, capsys, monkeypatch, dumps, exit_code):
    # children write these bytes, then exit with exit_code if they succeeded
    _uncapped(monkeypatch)
    lines = _mixed_batch(seeded(9), 24)
    expected = _main_on(tmp_path, capsys, lines, "--jobs", "1")
    monkeypatch.setattr(marshal, "dumps", dumps)
    monkeypatch.setattr(os, "_exit", lambda code: _exit(code or exit_code))
    assert _main_on(tmp_path, capsys, lines, "--jobs", "3") == expected
    _assert_no_children_left()


def test_failed_fork_runs_the_share_here(tmp_path, capsys, monkeypatch):
    _uncapped(monkeypatch)
    lines = _mixed_batch(seeded(9), 24)
    expected = _main_on(tmp_path, capsys, lines, "--jobs", "1")

    def refuse():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refuse)
    assert _main_on(tmp_path, capsys, lines, "--jobs", "3") == expected
    _assert_no_children_left()


def test_interrupted_parent_reaps_its_children(tmp_path, capsys, monkeypatch):
    # the children would sleep for a minute; the parent kills and reaps them
    _uncapped(monkeypatch)
    lines = _mixed_batch(seeded(9), 6)
    _die_in_children(monkeypatch, lambda: time.sleep(60))
    parent, run_line = os.getpid(), cli._run_line

    def interrupt(args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return run_line(args)

    monkeypatch.setattr(cli, "_run_line", interrupt)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _main_on(tmp_path, capsys, lines, "--jobs", "3")
    assert time.monotonic() - start < 30
    _assert_no_children_left()


def _record_placement(monkeypatch, error=None):
    """Replace os.sched_setaffinity by a recorder of (pid, sorted CPUs),
    which raises `error` if one is given. A forked child inherits it and
    appends to its own copy of the record, which is returned."""
    calls = []

    def recorder(pid, cpus):
        assert pid == 0
        calls.append((os.getpid(), sorted(cpus)))
        if error is not None:
            raise error

    monkeypatch.setattr(os, "sched_setaffinity", recorder, raising=False)
    return calls


def test_each_share_moves_to_its_own_cpu_then_gets_all_back(tmp_path, capsys, monkeypatch):
    # every process answers each line with the affinity calls it made
    _uncapped(monkeypatch)
    calls = _record_placement(monkeypatch)
    own = lambda args: (0, repr([cpus for pid, cpus in calls if pid == os.getpid()]))
    monkeypatch.setattr(cli, "_run_line", own)
    lines = [job_line(k=k) for k in range(10)]
    code, out = _main_on(tmp_path, capsys, lines, "--jobs", "4")
    assert code == 0
    assert out == [repr([[k % 4], list(range(8))]) for k in range(10)]
    _assert_no_children_left()


@pytest.mark.parametrize("case", ["jobs-1", "one-cpu", "no-affinity-call"])
def test_no_placement_without_a_second_process_or_the_call(tmp_path, capsys, monkeypatch, case):
    lines = _mixed_batch(seeded(9), 24)
    expected = _main_on(tmp_path, capsys, lines, "--jobs", "1")
    calls = _record_placement(monkeypatch)
    _uncapped(monkeypatch)
    forks = _count_forks(monkeypatch)
    jobs = "1" if case == "jobs-1" else "3"
    if case == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    elif case == "no-affinity-call":
        monkeypatch.delattr(os, "sched_setaffinity")
    assert _main_on(tmp_path, capsys, lines, "--jobs", jobs) == expected
    assert calls == []
    assert len(forks) == (2 if case == "no-affinity-call" else 0)
    _assert_no_children_left()


def test_refused_placement_changes_nothing(tmp_path, capsys, monkeypatch):
    # the children stay where they are and exit 0, so no share runs twice
    _uncapped(monkeypatch)
    lines = _mixed_batch(seeded(9), 24)
    expected = _main_on(tmp_path, capsys, lines, "--jobs", "1")
    calls = _record_placement(monkeypatch, OSError(22, "Invalid argument"))
    here = _lines_run_here(monkeypatch)
    assert _main_on(tmp_path, capsys, lines, "--jobs", "3") == expected
    assert here == lines[0::3]
    assert calls == [(os.getpid(), [0])]
    _assert_no_children_left()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity calls")
def test_main_leaves_the_affinity_as_it_found_it(tmp_path, capsys, monkeypatch):
    # every process answers each line with the CPUs it may run on: a share
    # left pinned would read one CPU
    before = os.sched_getaffinity(0)
    monkeypatch.setattr(cli, "_run_line", lambda args: (0, repr(sorted(os.sched_getaffinity(0)))))
    code, out = _main_on(tmp_path, capsys, [job_line(k=k) for k in range(6)], "--jobs", "2")
    assert out == [repr(sorted(before))] * 6
    assert os.sched_getaffinity(0) == before
    _assert_no_children_left()


def test_env_var_max_depth_ignored(monkeypatch):
    # max_depth is a job key only; the environment does not reach parse_job
    monkeypatch.setenv("QS_MAX_DEPTH", "zero")
    job = parse_job(job_line(command="trace", d=1, F=[[2]], G=[[3]]))
    assert job.max_depth == 24


def _main_on(tmp_path, capsys, lines, *flags):
    path = tmp_path / "jobs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    code = main(["--input", str(path), *flags])
    return code, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_oracle_zero_entry_is_an_error_line(tmp_path, capsys, jobs):
    lines = [
        job_line(command="oracle", d=1, F=[[0]], G=[[3]]),
        job_line(command="oracle", d=1, F=[[2]], G=[[0]]),
        job_line(command="decide", d=1, F=[[2]], G=[[3]]),
    ]
    code, out = _main_on(tmp_path, capsys, lines, "--jobs", jobs)
    assert code == 1
    assert [json.loads(l).get("error") for l in out] == [
        "SingularMatrix", "SingularMatrix", None
    ]
    assert json.loads(out[2])["status"] == "Simple"


def test_non_finite_epsilon_is_a_parse_error(tmp_path, capsys):
    # json reads each of these as a non-finite float, which Fraction rejects
    decide = '{"command":"decide","d":1,"F":[[2]],"G":[[3]],"epsilon":%s}'
    lines = [decide % raw for raw in ("1e400", "Infinity", "NaN", "-Infinity")]
    lines.append(job_line(command="decide", d=1, F=[[2]], G=[[3]]))
    code, out = _main_on(tmp_path, capsys, lines)
    assert code == 1
    docs = [json.loads(l) for l in out]
    assert [d.get("error") for d in docs] == ["ParseError"] * 4 + [None]
    assert all("epsilon" in d["message"] for d in docs[:4])
    assert docs[4]["status"] == "Simple"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_hostile_epsilon_is_a_parse_error_at_once(tmp_path, capsys, jobs):
    # Fraction would build 10^9999999 for the first, and the others give
    # terms past the 4300-digit limit of integer-to-string conversion
    lines = []
    for raw in ("1e-9999999", "1e-4400", "1e9999"):
        for command in ("decide", "oracle"):
            lines.append(job_line(command=command, d=1, F=[[2]], G=[[3]], epsilon=raw))
            lines.append(job_line(command=command, d=1, F=[[2]], G=[[3]], epsilon="1/7"))
    start = time.perf_counter()
    code, out = _main_on(tmp_path, capsys, lines, "--jobs", jobs)
    assert time.perf_counter() - start < 5
    assert code == 1
    docs = [json.loads(l) for l in out]
    assert len(docs) == len(lines)
    for bad, good in zip(docs[::2], docs[1::2]):
        assert bad["error"] == "ParseError" and "epsilon" in bad["message"]
        assert good["status"] in ("Simple", "dense_at_resolution")
    assert [d["epsilon"] for d in docs[3::4]] == ["1/7"] * 3


def test_epsilon_digit_bound():
    bound = cli.EPSILON_DIGITS
    for raw in (f"1e-{bound}", f"1E{bound}", "1" * bound, f"1/{'3' * (bound - 1)}",
                f"0.{'0' * (bound - 2)}1", "2.5e-3"):
        assert parse_job(job_line(command="decide", d=1, F=[[2]], G=[[3]],
                                  epsilon=raw)).epsilon == Fraction(raw)
    for raw in (f"1e-{bound + 1}", f"1e+{bound + 1}", "1" * (bound + 1),
                f"1/{'3' * bound}", f"0.{'0' * (bound - 1)}1", f"1e-{'0' * bound}1"):
        with pytest.raises(ParseError, match="epsilon"):
            parse_job(job_line(command="decide", d=1, F=[[2]], G=[[3]], epsilon=raw))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_max_depth_bound_is_a_parse_error_at_once(tmp_path, capsys, jobs):
    # unbounded, the first trace ran past a minute with no output, and the
    # oracle's gap passed the 4300-digit limit of integer-to-string conversion
    bound = cli.MAX_DEPTH
    assert bound >= 192  # the depth of the benchmark's deepest traces
    f, g = [[2, 1], [1, 3]], [[3, 0], [1, 1]]
    lines = [job_line(command="trace", d=2, F=f, G=g, max_depth=20000),
             job_line(command="oracle", d=1, F=[[2]], G=[[3]], max_depth=16384),
             job_line(command="decide", d=1, F=[[2]], G=[[3]], max_depth=10**8),
             job_line(command="trace", d=2, F=f, G=g, max_depth=bound + 1),
             job_line(command="oracle", d=1, F=[[2]], G=[[3]], max_depth=bound)]
    start = time.perf_counter()
    code, out = _main_on(tmp_path, capsys, lines, "--jobs", jobs)
    assert time.perf_counter() - start < 5
    assert code == 1
    docs = [json.loads(l) for l in out]
    assert [d.get("error") for d in docs] == ["ParseError"] * 4 + [None]
    assert all(d["message"] == f"max_depth must be at most {bound}" for d in docs[:4])
    assert docs[4]["depth"] == bound


def test_main_writes_its_output_in_one_call(tmp_path, monkeypatch):
    writes = []

    class Out:
        def write(self, text):
            writes.append(text)

    lines = [job_line(command="decide", d=1, F=[[k]], G=[[3]]) for k in (2, 4, 5)]
    path = tmp_path / "jobs.jsonl"
    path.write_text("\n".join(lines + ["not json"]) + "\n")
    monkeypatch.setattr(sys, "stdout", Out())
    assert main(["--input", str(path)]) == 1
    assert len(writes) == 1
    out = writes[0].split("\n")
    assert out[-1] == "" and len(out) == 5
    assert [run(parse_job(l))[1] for l in lines] == out[:3]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_unparseable_json_is_a_parse_error_line(tmp_path, capsys, jobs):
    # json.loads raises a plain ValueError past the interpreter's
    # integer-digit limit and RecursionError on very deep nesting
    huge = '{"command":"decide","d":1,"F":[[%s]],"G":[[3]]}' % ("9" * 4400)
    lines = [huge, "[" * 100_000, job_line(command="decide", d=1, F=[[2]], G=[[3]])]
    code, out = _main_on(tmp_path, capsys, lines, "--jobs", jobs)
    assert code == 1
    docs = [json.loads(l) for l in out]
    assert [d.get("error") for d in docs] == ["ParseError", "ParseError", None]
    assert docs[2]["status"] == "Simple"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_unexpected_exception_is_an_internal_error_line(tmp_path, capsys, monkeypatch, jobs):
    def boom(f, g):
        raise ValueError("boom")

    monkeypatch.setattr(cli.simplicity, "decide", boom)
    decide = {"command": "decide", "d": 1, "F": [[2]], "G": [[3]]}
    lines = [job_line(**decide), job_line(**decide, output="text"),
             job_line(command="oracle", d=1, F=[[2]], G=[[3]], max_depth=6)]
    code, out = _main_on(tmp_path, capsys, lines, "--jobs", jobs)
    assert code == 1
    assert len(out) == 3
    assert json.loads(out[0]) == {"status": "Error", "error": "Internal",
                                  "message": "ValueError: boom"}
    assert out[1] == "error[Internal]: ValueError: boom"
    assert json.loads(out[2])["status"] == "dense_at_resolution"


# each result holds an integer past the interpreter's 4300-digit limit of
# integer-to-string conversion: the oracle's gap, the deep denominators of
# two traces (10^5000 at level 5 of the second), and decide's det F, of
# about 6000 digits, in its hypotheses
BIG = 10**3000 + 7
OVERFLOWS = [
    {"command": "oracle", "d": 1, "F": [[998]], "G": [[999]], "max_depth": 1024},
    {"command": "trace", "d": 1, "F": [[10**50 + 1]], "G": [[10**50 + 3]], "max_depth": 100},
    {"command": "trace", "d": 1, "F": [[2]], "G": [[10**1000]], "max_depth": 5},
    {"command": "decide", "d": 2, "F": [[BIG, 0], [0, BIG]], "G": [[3, 1], [0, 5]]},
]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_result_past_the_digit_limit_is_an_output_too_large_line(tmp_path, capsys, jobs):
    normal = job_line(command="decide", d=1, F=[[2]], G=[[3]])
    lines = []
    for doc in OVERFLOWS:
        lines += [job_line(**doc), normal, job_line(**doc, output="text"), normal]
    code, out = _main_on(tmp_path, capsys, lines, "--jobs", jobs)
    assert code == 1
    assert len(out) == len(lines)
    message = "the result has an integer of more than 4300 digits"
    for k in range(0, len(out), 4):
        assert json.loads(out[k]) == {"status": "Error", "error": "OutputTooLarge",
                                      "message": message}
        assert out[k + 2] == f"error[OutputTooLarge]: {message}"
        assert json.loads(out[k + 1])["status"] == json.loads(out[k + 3])["status"] == "Simple"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_present_past_the_index_set_cap_is_one_output_too_large_line(tmp_path, capsys,
                                                                    monkeypatch, jobs):
    cap = presentation.MAX_INDICES
    build = presentation.index_set

    def index_set(diag):  # the forked shares inherit it
        if math.prod(diag) > cap:  # with a broken cap, the 10**9 lines would exhaust memory
            raise AssertionError("index set past the cap")
        return build(diag)

    monkeypatch.setattr(presentation, "index_set", index_set)
    message = f"the index set has |det F| multi-indices, more than {cap}"
    past = [job_line(command="present", d=1, F=[[cap + 1]], G=[[3]]),
            job_line(command="present", d=1, F=[[10**9]], G=[[3]], output="text"),
            job_line(command="present", d=2, F=[[10**9, 1], [0, -3]], G=[[3, 0], [0, 3]])]
    normal = job_line(command="present", d=2, F=[[300, 0], [0, 300]], G=[[3, 0], [0, 3]])
    start = time.perf_counter()
    code, out = _main_on(tmp_path, capsys, past, "--jobs", jobs)
    assert time.perf_counter() - start < 1
    error = {"status": "Error", "error": "OutputTooLarge", "message": message}
    assert code == 1
    assert out == [json.dumps(error, separators=(",", ":")),
                   f"error[OutputTooLarge]: {message}",
                   json.dumps(error, separators=(",", ":"))]
    # at the cap a presentation prints, in a batch with a line past it
    lines = [job_line(command="present", d=1, F=[[cap]], G=[[3]]), past[0], normal]
    code, out = _main_on(tmp_path, capsys, lines, "--jobs", jobs)
    assert code == 1 and len(out) == 3
    assert len(json.loads(out[0])["presentation"]["index_set"]) == cap
    assert json.loads(out[1]) == error
    assert json.loads(out[2])["presentation"]["diag"] == [300, 300]


DECIDE = {"command": "decide", "d": 1, "F": [[2]], "G": [[3]]}
EYE = [[1, 0], [0, 1]]


def _bad_jobs():
    """(line, error code, message) for each check of parse_job,
    _parse_matrix and _parse_epsilon, with each kind of value it refuses."""
    for raw in ("[]", "[1]", '"decide"', "3", "null"):
        yield raw, "ParseError", "job must be a JSON object"
    for d in (0, -2, "1", 1.0, True, None, [1]):
        yield job_line(**{**DECIDE, "d": d}), "ParseError", "d must be a positive integer"
    yield job_line(command="trace", F=[[2]], G=[[3]]), "ParseError", "d must be a positive integer"
    yield (job_line(command="oracle", d=2, F=EYE, G=EYE), "ParseError",
           "oracle command requires d = 1")
    for f in ([[2, 0], [1]], [[2, 0], 5], [[2, 0], [1, 2, 3]], 5, [[2]]):
        yield (job_line(command="decide", d=2, F=f, G=EYE), "DimensionMismatch",
               "F must be a 2x2 matrix of integers")
    yield (job_line(**{**DECIDE, "G": [[3], [4]]}), "DimensionMismatch",
           "G must be a 1x1 matrix of integers")
    for e in (True, False, [1], None, {"p": 1}):
        yield (job_line(**DECIDE, epsilon=e), "ParseError",
               "epsilon must be a number or a 'p/q' string")
    for e in ("abc", "1/0", "", "1/2/3"):
        yield job_line(**DECIDE, epsilon=e), "ParseError", f"epsilon not parseable: {e!r}"
    for e in (0, -1, -0.5, 0.0, "0", "-1/3"):
        yield job_line(**DECIDE, epsilon=e), "ParseError", "epsilon must be positive"
    for n in (0, -1, "5", 2.0, True, None):
        yield job_line(**DECIDE, max_depth=n), "ParseError", "max_depth must be a positive integer"
    for o in ("xml", "JSON", 1, None, True):
        yield job_line(**DECIDE, output=o), "ParseError", "output must be json or text"
    # a job's own output key does not format its parse error
    for t in ("yes", 1, 0, None):
        yield (job_line(**DECIDE, output="text", toeplitz=t), "ParseError",
               "toeplitz must be a boolean")
    for n in (0, 65, -1, "8", 8.0, True, None):
        yield (job_line(command="sweep", m_max=n), "ParseError",
               "m_max must be an integer between 1 and 64")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_each_parse_check_gives_its_error_line(fmt):
    for line, code, message in _bad_jobs():
        if fmt == "text":
            want = f"error[{code}]: {message}"
        else:
            want = json.dumps({"status": "Error", "error": code, "message": message},
                              separators=(",", ":"))
        assert cli._run_line((line, fmt)) == (1, want), line


def test_parse_job_accepts_each_valid_value():
    oracle = dict(command="oracle", d=1, F=[[2]], G=[[3]], max_depth=4)
    for raw, want in ((1, 1), (3, 3), (0.25, Fraction(1, 4)), ("1/7", Fraction(1, 7)),
                      ("2.5e-3", Fraction(1, 400))):
        job = parse_job(job_line(**oracle, epsilon=raw))
        assert type(job.epsilon) is Fraction and job.epsilon == want
    assert run(parse_job(job_line(**oracle, epsilon=1))) == (
        0,
        '{"status":"dense_at_resolution","gap":"1/1296","epsilon":"1/1","depth":4,'
        '"subgroup_order":1296}',
    )
    for n in (1, 64):
        assert parse_job(job_line(command="sweep", m_max=n)).m_max == n
    for n in (1, cli.MAX_DEPTH):
        assert parse_job(job_line(**DECIDE, max_depth=n)).max_depth == n
    for t in (True, False):
        assert parse_job(job_line(**DECIDE, toeplitz=t)).toeplitz is t
    for o in ("json", "text"):
        assert parse_job(job_line(**DECIDE, output=o), "text").output == o
    job = parse_job(job_line(command="sweep", d="any", F=None))
    assert job.f is job.g is None


ERROR_CODES = {cls.code for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.QsimpError)}
# a value of any JSON type, ragged matrices included
_ANY = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                 st.text(max_size=5), st.lists(st.integers(-3, 3), max_size=3),
                 st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2))


@st.composite
def _job_docs(draw):
    """A job object whose fields are each valid, but one time in ten of any
    type or absent. Valid values stay small: d <= 3, entries in [-4, 4], m_max <= 8
    and max_depth <= 32. m_max is never absent, since its default sweep is
    the slowest job here."""
    d = draw(st.integers(1, 3))
    matrix = st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d),
                      min_size=d, max_size=d)
    valid = {
        "command": st.sampled_from(cli.COMMANDS),
        "d": st.just(d),
        "F": matrix,
        "G": matrix,
        "max_depth": st.integers(1, 32),
        "epsilon": st.one_of(st.integers(1, 5), st.floats(1e-6, 1),
                             st.sampled_from(["1/3", "2.5e-3"])),
        "output": st.sampled_from(["json", "text"]),
        "toeplitz": st.booleans(),
        "m_max": st.integers(1, 8),
    }
    doc = {}
    for key, values in valid.items():
        kind = draw(st.sampled_from(["valid"] * 18 + ["any", "absent"]))
        if kind == "absent" and key != "m_max":
            continue
        doc[key] = draw(values if kind != "any" else _ANY)
    return doc


# three in four lines are job objects; the rest are other JSON values or
# arbitrary text
_LINES = st.integers(0, 3).flatmap(
    lambda k: _job_docs().map(json.dumps) if k else st.one_of(_ANY.map(json.dumps),
                                                              st.text(max_size=12)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(line=_LINES, fmt=st.sampled_from(["json", "text"]))
def test_fuzzed_lines_each_give_one_result(line, fmt):
    code, payload = cli._run_line((line, fmt))
    assert code in (cli.EXIT_DEFINITE, cli.EXIT_ERROR, cli.EXIT_UNKNOWN)
    try:
        doc = json.loads(payload)
    except ValueError:  # a text result
        head = payload.split("\n", 1)[0]
        assert head.startswith(("status: ", "error["))
        error = head[len("error["):head.index("]")] if head.startswith("error[") else None
        if error is not None:
            assert "\n" not in payload
    else:
        assert type(doc) is dict and "\n" not in payload
        error = doc["error"] if doc["status"] == "Error" else None
    assert (error is not None) == (code == cli.EXIT_ERROR)
    assert error is None or error in ERROR_CODES - {"Internal"}


def test_parse_error_follows_format_text(tmp_path, capsys):
    code, out = _main_on(tmp_path, capsys, ["not json"], "--format", "text")
    assert code == 1
    assert len(out) == 1 and out[0].startswith("error[ParseError]: ")


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


# every layer the bench tracer looks up in sys.modules, and poly
LAZY_MODULES = ["qsimp.chain", "qsimp.finite_oracle", "qsimp.lattice", "qsimp.poly",
                "qsimp.presentation", "qsimp.simplicity"]
EAGER_MODULES = ["qsimp.cli", "qsimp.errors", "qsimp.intmat"]
# prints, before and after each batch, the qsimp modules in sys.modules,
# those whose code ran (a lazy module that has not run is an instance of a
# ModuleType subclass) and the heavy stdlib modules present. It also prints
# how many objects the collector tracks, whether it is enabled, and whether
# a reference cycle made now is freed by gc.collect(). It runs the batch
# under --jobs 2 first, where this process runs share 0, then under
# --jobs 1
COLD_START_PROBE = """
import gc, json, sys, types, weakref
import qsimp.cli

class Node:
    pass

def state():
    tracked = len(gc.get_objects())
    node = Node()
    node.self = node
    cycle = weakref.ref(node)
    del node
    gc.collect()
    registered = sorted(k for k in sys.modules if k.startswith("qsimp."))
    print(json.dumps({
        "registered": registered,
        "executed": [k for k in registered if type(sys.modules[k]) is types.ModuleType],
        "stdlib": sorted(m for m in ("concurrent.futures", "multiprocessing", "dataclasses",
                                     "inspect") if m in sys.modules),
        "gc": {"tracked": tracked, "enabled": gc.isenabled(), "cycle_freed": cycle() is None},
    }))

state()
for jobs in ("2", "1"):
    qsimp.cli.main(["--input", sys.argv[1], "--jobs", jobs])
    state()
"""


def test_cold_start_loads_no_pool_or_dataclasses(tmp_path):
    # no --jobs value needs the process pool's multiprocessing stack, and
    # none needs dataclasses (which pulls in inspect). Every traced layer is
    # in sys.modules after importing the CLI, as the bench tracer expects,
    # but a batch runs only the modules its jobs use: only R5 reaches the
    # chain and factors polynomials, and only trace builds lattices. After
    # each batch main has frozen the heap, so interpreter finalization
    # would find almost nothing to collect (the start-up heap is thousands
    # of objects), while the collector stays on for objects made later
    pair = {"d": 2, "F": [[2, 1], [1, 3]], "G": [[3, 0], [1, 1]]}
    batches = {
        "decide": ([*(job_line(command="decide", d=1, F=[[k]], G=[[3]]) for k in (2, 4, 5)),
                    job_line(command="decide", d=2, F=[[2, 0], [0, 2]], G=[[1, 1], [0, 1]]),
                    job_line(command="decide", d=2, F=[[1, 1], [0, 1]], G=[[1, 0], [0, 1]])],
                   ["qsimp.simplicity"]),
        "r5": ([job_line(command="decide", d=2, F=[[0, -3], [1, 0]], G=[[-4, 1], [-3, 0]])] * 2,
               ["qsimp.chain", "qsimp.poly", "qsimp.simplicity"]),
        "trace": ([job_line(command="trace", max_depth=4, **pair),
                   job_line(command="trace", max_depth=2, d=1, F=[[2]], G=[[3]])],
                  ["qsimp.chain", "qsimp.lattice"]),
        "present": ([job_line(command="present", **pair)] * 2, ["qsimp.presentation"]),
        "oracle": ([job_line(command="oracle", d=1, F=[[2]], G=[[3]], max_depth=6)] * 2,
                   ["qsimp.finite_oracle"]),
    }
    outputs = {}
    for kind, (lines, runs) in batches.items():
        path = tmp_path / f"{kind}.jsonl"
        path.write_text("\n".join(lines) + "\n")
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START_PROBE, str(path)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout.splitlines()
        n = len(lines)
        assert len(out) == 2 * n + 3, kind
        start, after_j2, after_j1 = (json.loads(out[i]) for i in (0, n + 1, 2 * n + 2))
        heaps = [state.pop("gc") for state in (start, after_j2, after_j1)]
        assert start == {"registered": sorted(EAGER_MODULES + LAZY_MODULES),
                         "executed": EAGER_MODULES, "stdlib": []}
        for state in (after_j2, after_j1):
            assert state == {**start, "executed": sorted(EAGER_MODULES + runs)}, kind
        assert heaps[0]["tracked"] > 1000, kind
        for heap in heaps[1:]:
            assert heap["tracked"] < 100, (kind, heap)
        assert all(heap["enabled"] and heap["cycle_freed"] for heap in heaps), (kind, heaps)
        assert out[1:n + 1] == out[n + 2:2 * n + 2]
        outputs[kind] = out[1:n + 1]
    assert [json.loads(x)["rules"][0][:2] for x in outputs["decide"]] == [
        "R4", "R4", "R4", "R3", "R1"]
    assert all('"status":"Simple","rules":["R5-density"]' in x for x in outputs["r5"])


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_output_written_before_the_freeze_reaches_a_file_at_exit(tmp_path, jobs):
    # with PYTHONUNBUFFERED unset, stdout to a file is block-buffered, so the
    # results reach the file only in the flush at interpreter exit, after
    # main has frozen the heap. Every other subprocess test inherits the
    # variable when it is set, and so never sees that flush
    definite = [job_line(command="decide", d=1, F=[[2]], G=[[3]]),
                job_line(command="decide", d=1, F=[[1]], G=[[1]], output="text"),
                job_line(command="decide", d=2, F=[[0, -3], [1, 0]], G=[[-4, 1], [-3, 0]])]
    unknown = [job_line(command="decide", d=2, F=[[2, 1], [0, 1]], G=[[1, 0], [2, 0]]),
               job_line(command="decide", d=1, F=[[0]], G=[[3]], output="text")]
    errors = ["not json", job_line(command="decide", d=1, F=[[2]])]
    batches = [([definite[0], unknown[0], errors[0], definite[1], unknown[1], errors[1]],
                {0, 1, 2}, 1),
               (unknown, {2}, 2),
               (definite, {0}, 0)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    for lines, codes, exit_code in batches:
        results = [cli._run_line((line, "json")) for line in lines]
        assert {code for code, _ in results} == codes
        src = tmp_path / "jobs.jsonl"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.txt"
        with open(out, "wb") as fh:
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from qsimp.cli import main; sys.exit(main())",
                 "--input", str(src), "--jobs", jobs],
                env=env,
                stdout=fh,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        assert (proc.returncode, proc.stderr) == (exit_code, "")
        assert out.read_bytes() == "".join(payload + "\n" for _, payload in results).encode()


def test_readme_library_tour_runs_as_written():
    # the first python block of the README, line by line: a line with a
    # trailing comment is an expression whose value the comment gives, as
    # a literal or as "contains <literal>"
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    results = []
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if not sep:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        claim, quoted = comment.strip().split("'", 1)
        expected = quoted.split("'", 1)[0]
        if claim == "contains ":
            assert expected in value, line
        else:
            assert (claim, value) == ("", expected), line
        results.append(expected)
    assert results == ["Simple", "Dense", "U^{2}S = SU^{3}"]


def test_package_exports_resolve_to_their_submodules():
    # the 56 names of the package namespace: the seven submodules it had
    # before they became lazy, and the names each re-exports
    exports = {
        "chain": ["ChainTrace", "DensityVerdict", "annihilator_step_pos", "compute_chain",
                  "decide_density", "step_pos"],
        "errors": ["ConsistencyError", "DimensionMismatch", "NonPositiveDiagonal",
                   "ParseError", "QsimpError", "SingularMatrix", "UnsupportedFormat"],
        "finite_oracle": ["FiniteQuiver", "GapResult", "MinimalityReport",
                          "condition_L_finite", "density_1d", "gamma0_finite",
                          "minimal_finite", "verify_minimality_theorem"],
        "intmat": ["IntMatrix", "SmithDecomposition", "adjugate", "det", "snf",
                   "unimodular_inverse"],
        "lattice": ["IntegerSublattice", "RationalLattice", "dual_annihilator",
                    "dual_lattice", "from_rational_rows", "index", "join", "preimage",
                    "pushforward", "standard", "sublattice_index", "sublattice_transform"],
        "presentation": ["Presentation", "index_set", "present", "render"],
        "simplicity": ["Hypotheses", "SimplicityVerdict", "check_hypotheses", "decide",
                       "is_dilation", "normalize"],
    }
    import qsimp

    names = [*exports, *(name for members in exports.values() for name in members)]
    assert len(names) == 56
    assert sorted(qsimp.__all__) == sorted(names)
    assert set(names) <= set(dir(qsimp))
    for module, members in exports.items():
        home = sys.modules[f"qsimp.{module}"]
        assert getattr(qsimp, module) is home
        for name in members:
            assert getattr(qsimp, name) is getattr(home, name), name
    with pytest.raises(AttributeError):
        qsimp.no_such_name
    proc = subprocess.run(
        [sys.executable, "-c",
         "from qsimp import *; "
         "print(sorted(n for n in dir() if not n.startswith('_'))); "
         "print(decide(IntMatrix([[2]]), IntMatrix([[3]])).status)"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str(sorted(names)), "Simple"]
