"""Compare two benchmark results, metric by metric.

    python bench/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two A/A runs),
``B`` the candidate.  Either may be a directory of result files (e.g.
ten alternating runs of each side); their samples are pooled.  One row
per (workload, end-to-end metric): both medians with quartiles, the
ratio B/A with its base, and a verdict from the metric's bound in
``BENCHMARK.json``:

* ``worse`` / ``better`` -- the median moved by more than the bound;
* ``same``               -- it did not;
* ``unresolved``         -- the inter-quartile spread of either side
  exceeds the bound and the two sides' samples overlap, so the runs
  cannot tell.

When both sides ran the same seed, every simulated number (the
``behaviour`` block) must match exactly; any that moved is listed as
``changed``, because that is a change of allocation behaviour, not
noise.  Exits non-zero on any ``worse`` or ``changed``.
"""

from __future__ import annotations

import json
import os
import sys

from run import load_catalogue, quartiles


def load(path: str) -> list[dict]:
    """The result document at ``path``, or every one in that directory."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, name) for name in os.listdir(path) if name.endswith(".json")
        )
    else:
        files = [path]
    documents = []
    for name in files:
        with open(name) as handle:
            document = json.load(handle)
        if "workloads" in document:  # trace_*.json files live beside results
            documents.append(document)
    if not documents:
        raise SystemExit(f"compare: no result file at {path}")
    return documents


def pooled(documents: list[dict], workload: str, metric: str) -> list[float]:
    samples: list[float] = []
    for document in documents:
        entry = document["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if entry is not None:
            samples.extend(entry["samples"])
    return samples


def behaviours(documents: list[dict], workload: str) -> dict[int, dict]:
    """seed -> the simulated numbers (and result-row digest) seen at it."""
    seen: dict[int, dict] = {}
    for document in documents:
        result = document["workloads"].get(workload)
        if result is not None:
            seen.setdefault(document["seed"], dict(result["behaviour"], result_rows=result["digest"]))
    return seen


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b_med - a_med) / abs(a_med)
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / abs(a_med)
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if spread > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    a_docs, b_docs = load(argv[1]), load(argv[2])
    modes = {(doc["quick"], doc["trace"]) for doc in a_docs + b_docs}
    if len(modes) != 1:
        print("compare: quick, full and traced runs are not comparable with each other")
        return 2
    catalogue = load_catalogue()
    specs = catalogue["per_layer" if a_docs[0]["trace"] else "end_to_end"]

    failures = 0
    header = f"{'workload':15s} {'metric':22s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} {'B/A':>7s}  verdict"
    print(header)
    print("-" * len(header))
    for workload_spec in catalogue["workloads"]:
        workload = workload_spec["name"]
        for spec in specs:
            a, b = pooled(a_docs, workload, spec["name"]), pooled(b_docs, workload, spec["name"])
            if not a or not b:
                continue
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            if "bound" not in spec or a_med == 0:
                result = "-"  # per-layer metrics carry no bound
            else:
                result = verdict(a, b, spec["bound"], spec["better"])
            failures += result == "worse"
            ratio = f"{b_med / a_med:7.3f}" if a_med else "      -"
            print(
                f"{workload:15s} {spec['name']:22s} "
                f"{a_med:12.5g} [{a_q1:9.4g},{a_q3:9.4g}] "
                f"{b_med:12.5g} [{b_q1:9.4g},{b_q3:9.4g}] "
                f"{ratio}  {result}"
                + (f" (bound {spec['bound']:.0%} of {a_med:.5g} {spec['unit']})" if "bound" in spec else "")
            )

        # Simulated numbers: exact or changed, when the inputs were the same.
        a_seen, b_seen = behaviours(a_docs, workload), behaviours(b_docs, workload)
        for seed in sorted(set(a_seen) & set(b_seen)):
            a_run, b_run = a_seen[seed], b_seen[seed]
            moved = sorted(name for name in set(a_run) | set(b_run) if a_run.get(name) != b_run.get(name))
            if moved:
                failures += 1
                print(f"{workload:15s} behaviour (seed {seed}): changed -- "
                      + ", ".join(f"{name}: {a_run.get(name)!r} -> {b_run.get(name)!r}" for name in moved))
            else:
                print(f"{workload:15s} behaviour (seed {seed}): identical "
                      f"({len(a_run) - 1} simulated numbers and the result rows, bit for bit)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
