#!/usr/bin/env python3
"""Regression tests for the lint suite itself: every custom check must trip
on its must-trip fixture and stay silent on its must-pass fixture, so a
check that goes blind (or starts spraying false positives) fails ctest.

Registered as the `lint_fixtures` ctest entry (see CMakeLists.txt); also
run by scripts/run_lint.sh.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_protocol_invariants as lint  # noqa: E402

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

# check name -> (fixture stem, minimum findings the trip file must produce).
# The minimums pin each check's distinct detections: e.g. the
# unchecked-commit-critical trip file carries the fire-and-forget drop, the
# (void)-cast evasion, the assigned-never-examined variant, a dropped
# quorum-engine verdict and a dropped CasMax result.
CASES = {
    "swarm-unchecked-commit-critical": ("unchecked_commit_critical", 5),
    "swarm-hot-path-alloc": ("hot_path_alloc", 4),
    "swarm-bounded-slot-index": ("bounded_slot_index", 2),
    "swarm-retry-stale-epoch": ("retry_stale_epoch", 1),
    "swarm-node-table-size": ("node_table_size", 4),
    "swarm-layout-pin": ("layout_pin", 7),
}


def run_check(check, path):
    return lint.lint_file(path, {check})


def main():
    failures = []
    for check, (stem, min_trips) in sorted(CASES.items()):
        trip = os.path.join(FIXTURE_DIR, f"{stem}_trip.cc")
        passing = os.path.join(FIXTURE_DIR, f"{stem}_pass.cc")
        for p in (trip, passing):
            if not os.path.exists(p):
                failures.append(f"{check}: missing fixture {p}")
        if failures:
            continue

        tripped = run_check(check, trip)
        if len(tripped) < min_trips:
            failures.append(
                f"{check}: must-trip fixture produced {len(tripped)} finding(s), "
                f"expected >= {min_trips} — the check has gone (partially) blind:\n"
                + "".join(f"    {p}:{l}: {m}\n" for p, l, _c, m in tripped))
        if any(c != check for _p, _l, c, _m in tripped):
            failures.append(f"{check}: trip run produced findings of another check")

        clean = run_check(check, passing)
        if clean:
            failures.append(
                f"{check}: must-pass fixture produced {len(clean)} finding(s) "
                "— the check has started false-positive spraying:\n"
                + "".join(f"    {p}:{l}: {m}\n" for p, l, _c, m in clean))

    # The suppression machinery is load-bearing (it is how justified
    # exceptions in the real tree stay silent) — pin it too.
    nolint_src = (
        "void F(Qp& qp) {\n"
        "  // NOLINTNEXTLINE(swarm-unchecked-commit-critical) justified: fixture\n"
        "  co_await qp.Cas(1, 2, 3);\n"
        "}\n"
    )
    toks, suppressed = lint.tokenize(nolint_src)
    if 3 not in suppressed or "swarm-unchecked-commit-critical" not in suppressed[3]:
        failures.append("NOLINTNEXTLINE suppression parsing broke")

    if failures:
        print("lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"lint self-test: {len(CASES)} checks x (trip+pass) fixtures OK, "
          "suppression OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
