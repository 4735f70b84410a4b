"""Print every benchmark metric of every workload, with its unit.

Usage, from the repository root:

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` once untraced and once traced per workload, one process
at a time, and prints one line per metric: workload, metric, value, unit.
Exits 1 if any run fails or reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    ok = True
    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", trace],
                capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
            ok = ok and result["correct"]
            rows = [("correct", result["correct"], ""), ("attempted", result["attempted"], "ops"),
                    ("fail_ratio", report["fail_ratio"], "ratio"),
                    ("passes", report["passes"], "count")]
            rows += [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
            for name, value, unit in rows:
                print(f"{workload:14s} trace={trace} {name:32s} {value!s:>22} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
