#!/usr/bin/env python3
"""Compare two benchmark result files, metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

The files are the ones qs_perfbench writes under
.bench_build/perfbench-run/results/.  Results from different hosts (a
different provenance host_id: CPU model, nproc, cache sizes, memory) or from
different workloads or modes are refused with exit code 2.
"""

import json
import sys


def load(path):
    with open(path) as handle:
        return json.load(handle)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print(f"refused: {key} differs ({base[key]} vs {new[key]})", file=sys.stderr)
            return 2
    host_a, host_b = base["provenance"]["host_id"], new["provenance"]["host_id"]
    if host_a != host_b:
        print(f"refused: results come from different hosts ({host_a}: "
              f"{base['provenance']['cpu_model']}, {host_b}: "
              f"{new['provenance']['cpu_model']})", file=sys.stderr)
        return 2
    print(f"{base['workload']}  base {base['provenance']['commit'][:12]} "
          f"({base['provenance']['src_digest']})  new {new['provenance']['commit'][:12]} "
          f"({new['provenance']['src_digest']})")
    base_metrics = base["result"]["metrics"]
    new_metrics = new["result"]["metrics"]
    for name in sorted(base_metrics):
        a = base_metrics[name]["value"]
        b = new_metrics.get(name, {}).get("value")
        unit = base_metrics[name]["unit"]
        ratio = f"{b / a:8.3f}x" if b is not None and a else "        -"
        print(f"  {name:32s} {a:14.6g} {b if b is not None else float('nan'):14.6g} "
              f"{unit:6s} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
