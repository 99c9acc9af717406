"""Write reference.json: per-line output digests of every workload for
seeds 1 to 10, from the qsimp source in this checkout.

    python3 bench/make_reference.py

run.py reports, for a seed found here, how many output lines differ from
these. Regenerate only on purpose: the file records the output of the
program as it was when the benchmark was defined.
"""

import json
import sys

from run import LINE_DIGEST_HEX, REFERENCE, SRC, line_digest
import workloads

SEEDS = range(1, 11)


def main() -> None:
    sys.path.insert(0, str(SRC))
    from qsimp import cli

    ref = {}
    for name in workloads.WORKLOADS:
        ref[name] = {}
        for seed in SEEDS:
            lines = [cli.run(cli.parse_job(job.line))[1]
                     for job in workloads.generate(name, seed)]
            ref[name][str(seed)] = "".join(line_digest(x) for x in lines)
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE} ({LINE_DIGEST_HEX} hex digits per line)")


if __name__ == "__main__":
    main()
