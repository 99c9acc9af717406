"""Batch JSON front end.

One JSON job object per input line, one JSON result per output line, fields
in fixed order so identical jobs produce byte-identical output. Exit codes:
0 every job definite, 2 some job Unknown, 1 some job errored.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

from . import chain, finite_oracle, presentation, simplicity
from .errors import DimensionMismatch, InternalError, ParseError, QsimpError
from .intmat import IntMatrix

COMMANDS = ("decide", "trace", "present", "oracle", "sweep")

EXIT_DEFINITE = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2

DEFAULT_EPSILON = Fraction(1, 1000)

# json.dumps(x, separators=...) builds this same encoder on every call
_encode = json.JSONEncoder(separators=(",", ":")).encode


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
    max_depth = doc.get("max_depth", chain.DEFAULT_MAX_DEPTH)
    if type(max_depth) is not int or max_depth < 1:
        raise ParseError("max_depth must be a positive integer")
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
    return {"denom": l.denom, "basis": [list(row) for row in l.basis.rows]}


def _sublattice_dict(m) -> dict:
    return {"basis": [list(row) for row in m.basis.rows]}


def _trace_dict(tr: chain.ChainTrace) -> dict:
    return {
        "depth": tr.depth,
        "pos": [_lattice_dict(l) for l in tr.pos],
        "neg": [_lattice_dict(l) for l in tr.neg],
        "joins": [_lattice_dict(l) for l in tr.joins],
        "annihilators": [_sublattice_dict(m) for m in tr.annihilators],
        "indices": list(tr.indices),
    }


def _decide_result(job: JobSpec) -> tuple[int, dict]:
    v = simplicity.decide(job.f, job.g)
    if job.output == "text":
        rules = [f"{rule}: {why}" for rule, why in v.rules_fired]
    else:
        rules = [rule for rule, _ in v.rules_fired]
    result = {"status": v.status, "rules": rules}
    if v.witness is not None:
        result["witness"] = list(v.witness)
    result["hypotheses"] = v.hypotheses._asdict()
    result["kirchberg"] = v.kirchberg_flag
    code = EXIT_UNKNOWN if v.status == simplicity.UNKNOWN else EXIT_DEFINITE
    return code, result


def run(job: JobSpec) -> tuple[int, str]:
    """Execute one job; returns (exit code, serialized result).

    Any failure, in the job or in serializing its result, becomes one Error
    line; an exception outside the package taxonomy is reported as Internal.
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
        internal = InternalError(f"{type(exc).__name__}: {exc}")
        return EXIT_ERROR, _serialize_error(internal, job.output)


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
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _run_line(args: tuple[str, str]) -> tuple[int, str]:
    line, default_format = args
    try:
        job = parse_job(line, default_format)
    except QsimpError as exc:
        return EXIT_ERROR, _serialize_error(exc, default_format)
    return run(job)


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
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers")
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="default output format"
    )
    opts = parser.parse_args(argv)

    if opts.input == "-":
        lines = [ln for ln in sys.stdin.read().splitlines() if ln.strip()]
    else:
        with open(opts.input, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]

    tagged = [(ln, opts.format) for ln in lines]
    if opts.jobs > 1 and len(lines) > 1:
        # imported here: the pool's multiprocessing stack would double the
        # start-up of every --jobs 1 batch
        from concurrent.futures import ProcessPoolExecutor

        # a few chunks per worker: one job per task costs more in dispatch
        # than a short job takes to run
        chunksize = max(1, len(lines) // (4 * opts.jobs))
        with ProcessPoolExecutor(max_workers=opts.jobs) as pool:
            results = list(pool.map(_run_line, tagged, chunksize=chunksize))
    else:
        results = [_run_line(t) for t in tagged]

    worst = EXIT_DEFINITE
    for code, payload in results:
        print(payload)
        if code == EXIT_ERROR:
            worst = EXIT_ERROR
        elif code == EXIT_UNKNOWN and worst != EXIT_ERROR:
            worst = EXIT_UNKNOWN
    return worst


if __name__ == "__main__":
    sys.exit(main())
