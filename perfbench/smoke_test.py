#!/usr/bin/env python3
"""Smoke test of the cellspot end-to-end benchmark.

Runs every workload on WorldConfig::Tiny() through perfbench/run.py, in
both modes, and asserts that:
  * the run exits 0 and its last stdout line is the JSON result;
  * every metric BENCHMARK.json names for the mode is printed, with its
    unit, and nothing else;
  * no op failed, where a traced op whose layer spans cover less than
    90% of its wall time fails;
  * one injected output mismatch (--inject-mismatch) is counted as
    exactly one failed op, and the run is then not correct.

Usage, from the root of a cellspot checkout:  python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["paper_cold", "paper_warm", "query_session", "stream_ingest"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.2",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    return result, lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            try:
                result, lines = run(workload, trace)
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                assert got == want, f"metrics differ from BENCHMARK.json {key}: " \
                    f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}"
                for name, unit in want.items():
                    assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                               for line in lines), f"{name} not printed with unit {unit}"
                if trace == 0:
                    for name in want:
                        assert result["metrics"][name]["value"] != 0, f"{name} is 0"
                assert result["failed"] == 0 and result["correct"], \
                    f"{result['failed']} of {result['attempted']} ops failed"
                assert result["attempted"] >= 1
            except AssertionError as e:
                failures.append(f"{workload} --trace {trace}: {e}")
                continue
            print(f"ok   {workload} --trace {trace}: {result['attempted']} ops")

        try:
            result, _ = run(workload, 0, "--inject-mismatch")
            assert result["failed"] >= 1 and not result["correct"], \
                "injected mismatch was not counted"
            # Stream ops are frames: one bad pass fails all of its frames.
            if workload != "stream_ingest":
                assert result["failed"] == 1, f"{result['failed']} failed ops, want 1"
        except AssertionError as e:
            failures.append(f"{workload} --inject-mismatch: {e}")
            continue
        print(f"ok   {workload} --inject-mismatch: {result['failed']} failed ops")

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
