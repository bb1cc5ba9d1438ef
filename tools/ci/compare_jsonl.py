#!/usr/bin/env python3
"""Compare two apollo-train telemetry streams from an A/B drill.

Usage:

    python3 tools/ci/compare_jsonl.py A.jsonl B.jsonl --steps 150 \
        --fields loss,grad_norm [--max-peak-grad-bytes N] [--peaks-below] \
        [--bench BENCH_x.json --expect 'name==1' 'other<12.0' ...]

A and B are APOLLO_METRICS files. Both must hold exactly --steps step rows
(rows with a "loss" key), and every --fields value must be equal in A and B
at every step. Optional checks:

  --max-peak-grad-bytes N  B's largest mem.peak_grad_bytes is at most N.
  --peaks-below            B's largest mem.peak_grad_bytes and
                           mem.peak_total_bytes are below A's.
  --bench F --expect ...   each `name OP value` (OP one of == < <= > >=)
                           holds for the "scalars" object of bench file F.

Exits 0 when every check passes; an assertion error names the first failure.
"""

import argparse
import json
import operator
import re
import sys

OPS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge,
       "<": operator.lt, ">": operator.gt}


def steps(path):
    rows = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if "loss" in r:
                rows[r["step"]] = r
    return rows


def peak(rows, key):
    return max(r[key] for r in rows.values())


def check_scalars(path, expects):
    s = json.load(open(path))["scalars"]
    for e in expects:
        m = re.fullmatch(r"(\w+)(==|<=|>=|<|>)(.+)", e)
        assert m, f"bad --expect {e!r}"
        name, op, want = m.group(1), m.group(2), float(m.group(3))
        assert OPS[op](s[name], want), (path, e, s[name])
        print(f"{path}: {name} = {s[name]} ({op} {m.group(3)})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--steps", required=True, type=int)
    ap.add_argument("--fields", required=True)
    ap.add_argument("--max-peak-grad-bytes", type=int)
    ap.add_argument("--peaks-below", action="store_true")
    ap.add_argument("--bench")
    ap.add_argument("--expect", nargs="+", default=[])
    args = ap.parse_args()

    a, b = steps(args.a), steps(args.b)
    assert len(a) == args.steps and len(b) == args.steps, (len(a), len(b))
    fields = args.fields.split(",")
    for step, ra in sorted(a.items()):
        rb = b[step]
        for key in fields:
            assert ra[key] == rb[key], (step, key, ra[key], rb[key])
    print(f"{args.steps} steps bit-identical in {', '.join(fields)}")

    if args.max_peak_grad_bytes is not None or args.peaks_below:
        # A holds every gradient at once; a fused B holds at most one, so
        # its peak is the largest single parameter.
        ga, gb = peak(a, "mem.peak_grad_bytes"), peak(b, "mem.peak_grad_bytes")
        print(f"peak_grad_bytes A {ga}  B {gb}")
        if args.max_peak_grad_bytes is not None:
            assert gb <= args.max_peak_grad_bytes, gb
    if args.peaks_below:
        ta = peak(a, "mem.peak_total_bytes")
        tb = peak(b, "mem.peak_total_bytes")
        print(f"peak_total_bytes A {ta}  B {tb}")
        assert gb < ga, (gb, ga)
        assert tb < ta, (tb, ta)

    if args.bench:
        check_scalars(args.bench, args.expect)
    return 0


if __name__ == "__main__":
    sys.exit(main())
