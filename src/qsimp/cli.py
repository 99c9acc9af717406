"""Batch JSON front end.

One JSON job object per input line, one JSON result per output line, fields
in fixed order so identical jobs produce byte-identical output. Exit codes:
0 every job definite, 2 some job Unknown, 1 some job errored.
"""

from __future__ import annotations

import argparse
import json
import marshal
import math
import os
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

from . import chain, finite_oracle, presentation, simplicity
from .errors import DimensionMismatch, InternalError, OutputTooLarge, ParseError, QsimpError
from .intmat import IntMatrix

COMMANDS = ("decide", "trace", "present", "oracle", "sweep")

EXIT_DEFINITE = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2

DEFAULT_MAX_DEPTH = 24
DEFAULT_EPSILON = Fraction(1, 1000)
# bound on the digits of a string epsilon and on its decimal exponent, so
# that Fraction builds it at once and its terms print under Python's
# 4300-digit limit for integer-to-string conversion
EPSILON_DIGITS = 1000
# bound on max_depth: a trace's output grows with the square of its depth,
# and at 1024 one d = 3 trace takes under a second and prints about 5 MB.
# An oracle's gap has about max_depth * log10|F G| digits, so at this depth
# entries such as F = 998, G = 999 still pass the 4300-digit limit of
# integer-to-string conversion, which is an OutputTooLarge line, not a stall
MAX_DEPTH = 1024

# json.dumps(x, separators=...) builds this same encoder on every call.
# Every result is a freshly built acyclic dict, so the encoder skips the
# circular-reference check, which only changes what a cycle would raise
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


class JobSpec(NamedTuple):
    command: str
    f: Optional[IntMatrix]
    g: Optional[IntMatrix]
    max_depth: int
    epsilon: Fraction
    output: str
    toeplitz: bool = False
    m_max: int = 32


def _parse_matrix(doc: dict, key: str, d: int) -> IntMatrix:
    if key not in doc:
        raise ParseError(f"missing field: {key}")
    raw = doc[key]
    if type(raw) is not list or len(raw) != d:
        raise DimensionMismatch(f"{key} must be a {d}x{d} matrix of integers")
    for row in raw:
        if type(row) is not list or len(row) != d:
            raise DimensionMismatch(f"{key} must be a {d}x{d} matrix of integers")
    # json yields no int subclass but bool, which this test rejects
    for row in raw:
        for x in row:
            if type(x) is not int:
                raise ParseError(f"{key} entries must be integers")
    # every entry is an int in a d x d list, so nothing is left to convert
    return IntMatrix._of(tuple(map(tuple, raw)))


def _check_epsilon_digits(raw: str) -> None:
    """Reject a string with more than EPSILON_DIGITS digits or a decimal
    exponent past EPSILON_DIGITS in absolute value, before Fraction turns
    an exponent such as 1e-9999999 into a power of ten."""
    if sum(map(str.isdigit, raw)) > EPSILON_DIGITS:
        raise ParseError(f"epsilon must have at most {EPSILON_DIGITS} digits")
    exponent = raw.lower().partition("e")[2]
    try:
        large = abs(int(exponent)) > EPSILON_DIGITS
    except ValueError:  # no exponent, or one that Fraction rejects too
        return
    if large:
        raise ParseError(f"epsilon exponent must be at most {EPSILON_DIGITS} in absolute value")


def _parse_epsilon(raw) -> Fraction:
    if isinstance(raw, bool):
        raise ParseError("epsilon must be a number or a 'p/q' string")
    if isinstance(raw, int):
        value = Fraction(raw)
    elif isinstance(raw, float):
        # json reads 1e400, Infinity and NaN as non-finite floats
        if not math.isfinite(raw):
            raise ParseError(f"epsilon must be finite, got {raw!r}")
        value = Fraction(str(raw))
    elif isinstance(raw, str):
        _check_epsilon_digits(raw)
        try:
            value = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"epsilon not parseable: {raw!r}") from exc
    else:
        raise ParseError("epsilon must be a number or a 'p/q' string")
    if value <= 0:
        raise ParseError("epsilon must be positive")
    return value


def parse_job(text: str, default_format: str = "json") -> JobSpec:
    """Validate one job document; messages name the offending field."""
    if not text.isascii():
        try:
            text.encode()
        except UnicodeEncodeError as exc:
            # main decodes a byte that is not UTF-8 to a lone surrogate
            raise ParseError(f"job is not valid UTF-8 at character {exc.start}") from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past the
        # interpreter's digit limit; RecursionError, nesting too deep
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("job must be a JSON object")
    command = doc.get("command")
    if command not in COMMANDS:
        raise ParseError(f"command must be one of {list(COMMANDS)}")
    if command in ("decide", "trace", "present", "oracle"):
        d = doc.get("d")
        if type(d) is not int or d < 1:
            raise ParseError("d must be a positive integer")
        if command == "oracle" and d != 1:
            raise ParseError("oracle command requires d = 1")
        f = _parse_matrix(doc, "F", d)
        g = _parse_matrix(doc, "G", d)
    else:
        f = g = None
    max_depth = doc.get("max_depth", DEFAULT_MAX_DEPTH)
    if type(max_depth) is not int or max_depth < 1:
        raise ParseError("max_depth must be a positive integer")
    if max_depth > MAX_DEPTH:
        raise ParseError(f"max_depth must be at most {MAX_DEPTH}")
    epsilon = _parse_epsilon(doc["epsilon"]) if "epsilon" in doc else DEFAULT_EPSILON
    output = doc.get("output", default_format)
    if output not in ("json", "text"):
        raise ParseError("output must be json or text")
    toeplitz = doc.get("toeplitz", False)
    if not isinstance(toeplitz, bool):
        raise ParseError("toeplitz must be a boolean")
    m_max = doc.get("m_max", 32)
    if type(m_max) is not int or not 1 <= m_max <= 64:
        raise ParseError("m_max must be an integer between 1 and 64")
    return JobSpec(
        command=command,
        f=f,
        g=g,
        max_depth=max_depth,
        epsilon=epsilon,
        output=output,
        toeplitz=toeplitz,
        m_max=m_max,
    )


def _lattice_dict(l) -> dict:
    # a basis goes out as its tuple of tuples, which JSON writes as arrays
    return {"denom": l.denom, "basis": l.basis.rows}


def _sublattice_dict(m) -> dict:
    return {"basis": m.basis.rows}


def _trace_dict(tr: chain.ChainTrace) -> dict:
    return {
        "depth": tr.depth,
        "pos": [_lattice_dict(l) for l in tr.pos],
        "neg": [_lattice_dict(l) for l in tr.neg],
        "joins": [_lattice_dict(l) for l in tr.joins],
        "annihilators": [_sublattice_dict(m) for m in tr.annihilators],
        "indices": tr.indices,
    }


def _decide_result(job: JobSpec) -> tuple[int, dict]:
    v = simplicity.decide(job.f, job.g)
    if job.output == "text":
        rules = [f"{rule}: {why}" for rule, why in v.rules_fired]
    else:
        rules = [rule for rule, _ in v.rules_fired]
    result = {"status": v.status, "rules": rules}
    if v.witness is not None:
        result["witness"] = v.witness
    result["hypotheses"] = v.hypotheses._asdict()
    result["kirchberg"] = v.kirchberg_flag
    code = EXIT_UNKNOWN if v.status == simplicity.UNKNOWN else EXIT_DEFINITE
    return code, result


def run(job: JobSpec) -> tuple[int, str]:
    """Execute one job; returns (exit code, serialized result).

    Any failure, in the job or in serializing its result, becomes one Error
    line. An integer past the interpreter's limit on integer-to-string
    conversion is reported as OutputTooLarge, and any other exception
    outside the package taxonomy as Internal.
    """
    try:
        if job.command == "decide":
            code, result = _decide_result(job)
        elif job.command == "trace":
            tr = chain.compute_chain(job.f, job.g, job.max_depth)
            code, result = EXIT_DEFINITE, {
                "status": "Trace",
                "trace": _trace_dict(tr),
            }
        elif job.command == "present":
            p = presentation.present(job.f, job.g, toeplitz=job.toeplitz)
            code, result = EXIT_DEFINITE, {
                "status": "Presentation",
                "presentation": presentation.to_dict(p),
            }
        elif job.command == "oracle":
            r = finite_oracle.density_1d(
                job.f.rows[0][0], job.g.rows[0][0], job.max_depth, job.epsilon
            )
            code = EXIT_DEFINITE if r.status != "gap" else EXIT_UNKNOWN
            result = {
                "status": r.status,
                "gap": f"{r.gap.numerator}/{r.gap.denominator}",
                "epsilon": f"{job.epsilon.numerator}/{job.epsilon.denominator}",
                "depth": r.depth,
                "subgroup_order": r.subgroup_order,
            }
        elif job.command == "sweep":
            report = finite_oracle.verify_minimality_theorem(job.m_max)
            code, result = EXIT_DEFINITE, {
                "status": "Sweep",
                "note": report.note,
                "m_max": report.m_max,
                "pairs_checked": report.pairs_checked,
                "counterexamples": report.counterexamples,
            }
        else:  # pragma: no cover - parse_job forbids this
            raise ParseError(f"unknown command {job.command}")
        if job.output == "text":
            return code, _to_text(result)
        return code, _encode(result)
    except QsimpError as exc:
        return EXIT_ERROR, _serialize_error(exc, job.output)
    except Exception as exc:
        if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
            limit = sys.get_int_max_str_digits()
            error = OutputTooLarge(f"the result has an integer of more than {limit} digits")
        else:
            error = InternalError(f"{type(exc).__name__}: {exc}")
        return EXIT_ERROR, _serialize_error(error, job.output)


def _serialize_error(exc: QsimpError, output: str) -> str:
    payload = {"status": "Error", "error": exc.code, "message": str(exc)}
    if output == "text":
        return f"error[{exc.code}]: {exc}"
    return _encode(payload)


def _to_text(result: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in result.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_to_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_to_text(item, indent + 1))
        else:
            lines.append(f"{pad}{key}: {_as_lists(value)}")
    return "\n".join(lines)


def _as_lists(value):
    # nested tuples print as the lists JSON makes of them
    return [_as_lists(x) for x in value] if isinstance(value, tuple) else value


def _run_line(args: tuple[str, str]) -> tuple[int, str]:
    line, default_format = args
    try:
        job = parse_job(line, default_format)
    except QsimpError as exc:
        return EXIT_ERROR, _serialize_error(exc, default_format)
    return run(job)


def _affinity() -> Optional[list]:
    """The CPUs this process may run on, sorted, or None where the platform
    cannot tell."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform that forks
        return None


def _workers(jobs: int, lines: int) -> int:
    """Processes for `--jobs jobs`: at most one per line and one per usable
    CPU, and 1 where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    cpus = _affinity()
    usable = len(cpus) if cpus is not None else os.cpu_count() or 1
    return max(1, min(jobs, lines, usable))


def _place(k: int, cpus: Optional[list]) -> None:
    """Move this process to cpus[k], then give it back all of `cpus`.

    A forked child starts on its parent's CPU, and a scheduler may leave it
    there for longer than a whole batch takes, so two shares would run one
    after the other. The first call moves the process; the second lets the
    scheduler move it again later, so nothing stays pinned. A hint only:
    where the platform has no affinity call, or refuses it, the process
    runs where it is.
    """
    if cpus is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        # modulo: the set may have shrunk since `_workers` counted it
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _fork_share(share: list, k: int, cpus: Optional[list]):
    """Fork a child that moves to cpus[k] (`_place`), runs `share` and
    writes its results to a pipe as marshal bytes; returns (pid, read end),
    or None if no child started."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid == 0:
        # the child never returns into the caller: os._exit skips atexit
        # hooks and the flush of stdio buffers inherited from the parent
        code = 1
        try:
            os.close(rfd)
            _place(k, cpus)
            with open(wfd, "wb") as pipe:
                pipe.write(marshal.dumps([_run_line(t) for t in share]))
            code = 0
        finally:
            os._exit(code)
    # closed here so that children forked later do not hold it open
    os.close(wfd)
    return pid, open(rfd, "rb")


def _run_batch(tagged: list, workers: int) -> list:
    """`_run_line` over `tagged`, in input order.

    Share k is tagged[k::workers], so a batch ordered from cheap to costly
    splits evenly. Forked children run shares 1 .. workers-1 while this
    process runs share 0. With more than one worker, each process first
    moves to its own CPU of the sorted affinity set, share k to the k-th,
    and at once gets the whole set back (`_place`): a hint, best effort,
    that leaves nothing pinned. A share whose child exits nonzero, or whose
    bytes are not a list of one result per line, runs here again, so the
    results do not depend on `workers`. Every child is reaped before this
    returns.
    """
    results = [None] * len(tagged)
    children = []  # (pid, read end) of shares 1, 2, ...
    blobs, statuses = [], []
    cpus = _affinity() if workers > 1 else None
    _place(0, cpus)
    try:
        for k in range(1, workers):
            child = _fork_share(tagged[k::workers], k, cpus)
            if child is None:  # no more processes: the rest run here
                break
            children.append(child)
        for k in (0, *range(len(children) + 1, workers)):
            results[k::workers] = [_run_line(t) for t in tagged[k::workers]]
        blobs = [pipe.read() for _, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()
            if not blobs:  # interrupted: a child may still be running
                from signal import SIGKILL  # not loaded at start-up

                os.kill(pid, SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for k, (data, status) in enumerate(zip(blobs, statuses), 1):
        share = tagged[k::workers]
        try:
            out = marshal.loads(data) if status == 0 else None
        except (EOFError, ValueError, TypeError):
            out = None
        if type(out) is not list or len(out) != len(share):
            out = [_run_line(t) for t in share]
        results[k::workers] = out
    return results


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qsimp",
        description="batch decisions for torus-relation Cuntz-Pimsner algebras",
    )
    parser.add_argument(
        "--input",
        default="-",
        help="file with one JSON job per line (default stdin)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (at most one per line and CPU)"
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="default output format"
    )
    opts = parser.parse_args(argv)

    if opts.input == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(opts.input, "rb") as fh:
            data = fh.read()
    text = data.decode("utf-8", "surrogateescape")
    lines = [ln for ln in text.splitlines() if ln.strip()]

    tagged = [(ln, opts.format) for ln in lines]
    results = _run_batch(tagged, _workers(opts.jobs, len(tagged)))

    # one write: with PYTHONUNBUFFERED=1 every print is two write calls
    sys.stdout.write("".join([payload + "\n" for _, payload in results]))
    worst = EXIT_DEFINITE
    for code, _ in results:
        if code == EXIT_ERROR:
            worst = EXIT_ERROR
        elif code == EXIT_UNKNOWN and worst != EXIT_ERROR:
            worst = EXIT_UNKNOWN
    return worst


if __name__ == "__main__":
    sys.exit(main())
