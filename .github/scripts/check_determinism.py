"""Assertions of the CI ``determinism`` job.

Usage: python .github/scripts/check_determinism.py SUBJECT A.json B.json

Each subject ran one command in two fresh processes, A then B (B
sharing A's disk store where the subject has one).  Every subject
asserts that the two runs agree; each adds its own contract on top.
"""

import json
import sys


def _strip_timing(rows):
    return [{k: v for k, v in row.items() if k != "elapsed_s"} for row in rows]


def warm_cache(a, b):
    """B is answered from A's persistent store, with identical rows."""
    hit_rate = b["store"]["hit_rate"]
    assert hit_rate > 0.9, f"warm disk hit rate {hit_rate} <= 0.9"
    assert _strip_timing(a["rows"]) == _strip_timing(b["rows"]), (
        "warm sweep rows differ from cold sweep"
    )
    digests = [row["output_digest"] for row in b["rows"]]
    assert all(len(d) == 64 for d in digests)
    return f"warm hit rate {hit_rate}; {len(digests)} identical rows"


def _never_worse_than_fixed(kind, a):
    agg = a["aggregates"]
    assert agg["total_cycles"] <= agg["fixed_total_cycles"], (
        f"{kind} cycles {agg['total_cycles']} worse than fixed"
        f" {agg['fixed_total_cycles']}"
    )
    return agg


def autotune(a, b):
    """Identical winner rows from one exact rung (halving at eta 1); the
    aggregate never loses to the fixed design (the fixed baseline is
    always on the candidate list)."""
    assert a["rows"] == b["rows"], "autotune winner rows differ between runs"
    assert a["eta"] == 1, f"autotune ran at eta {a['eta']}, not 1"
    assert [r["fidelity"] for r in a["rungs"]] == ["full"], (
        f"autotune is not a single full rung: {a['rungs']}"
    )
    agg = _never_worse_than_fixed("autotuned", a)
    winners = {(r["name"], r["transform"], r["sparsity"]) for r in a["rows"]}
    assert len(winners) == len(a["rows"])
    return (
        f"{len(a['rows'])} identical winner rows;"
        f" {agg['total_cycles']} <= {agg['fixed_total_cycles']} cycles"
    )


def halving(a, b):
    """Identical winner rows and per-rung tallies, never worse than
    fixed, and the ladder prunes before the exact rung."""
    assert a["rows"] == b["rows"], "halving winner rows differ between runs"
    assert a["rungs"] == b["rungs"], "halving rung tallies differ between runs"
    agg = _never_worse_than_fixed("halving", a)
    rungs = a["rungs"]
    assert rungs[-1]["fidelity"] == "full"
    assert rungs[-1]["candidates"] < agg["exhaustive_evaluations"], (
        "halving pruned nothing before the exact rung"
    )
    trail = " -> ".join(f"{r['fidelity']}:{r['candidates']}" for r in rungs)
    return (
        f"{len(a['rows'])} identical winner rows; rungs {trail};"
        f" {agg['evaluations_saved']}x fewer full-fidelity evaluations"
    )


def fuzz(a, b):
    """Identical campaign fingerprints, zero mismatches, every oracle
    exercised."""
    assert a["fingerprint"] == b["fingerprint"], (
        "fuzz campaigns diverged between fresh processes:"
        f" {a['fingerprint']} vs {b['fingerprint']}"
    )
    assert a["mismatches"] == [], a["mismatches"]
    assert a["cases"] == 200
    covered = {k: v for k, v in a["tally"].items() if v}
    assert len(covered) == 6, f"oracles starved: {a['tally']}"
    return (
        f"200 cases, fingerprint {a['fingerprint'][:16]},"
        f" zero mismatches across {len(covered)} oracles"
    )


SUBJECTS = {
    "warm-cache": warm_cache,
    "autotune": autotune,
    "halving": halving,
    "fuzz": fuzz,
}


def main(argv):
    subject, path_a, path_b = argv
    with open(path_a) as fa, open(path_b) as fb:
        print(SUBJECTS[subject](json.load(fa), json.load(fb)))


if __name__ == "__main__":
    main(sys.argv[1:])
