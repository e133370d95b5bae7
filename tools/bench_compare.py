#!/usr/bin/env python3
"""Compare benchmark JSON against a baseline.

Two modes, for the two kinds of numbers a bench run produces (see
docs/benchmarks.md, "Wall-clock vs modeled cycles"):

Modeled mode (default). Every figure/table binary reports *simulated* time
(cycle-exact manual time), so runs are deterministic across machines and
compilers: any drift beyond the threshold is a real behavioural change, not
noise. The gate is two-sided — a modeled speed-up fails exactly like a
slowdown, since either means the model moved — and its default threshold
(1e-7 relative) only absorbs last-ulp rounding. Wall-clock-only files
(bench_simcore) are excluded — committing one into the baseline must never
make the modeled gate machine-dependent.

Wall-clock mode (--wallclock). Compares only the wall-clock files
(BENCH_simcore.json), whose real_time is HOST time. The default tolerance is
generous (1.5x) and one-sided, to absorb machine and CI noise; use it to
check that an engine change did not regress events/sec / messages/sec.

Usage:
    tools/bench_compare.py BASELINE_DIR NEW_DIR [--threshold 1e-7]
    tools/bench_compare.py OLD_DIR NEW_DIR --wallclock [--threshold 0.5]
    tools/bench_compare.py OLD_DIR NEW_DIR --allow-rebaselined BENCH_foo.json

Exits non-zero if any compared benchmark's time moved by more than THRESHOLD
(relative; in either direction in modeled mode, slower only in wall-clock
mode), or if a compared baseline file or benchmark disappeared. New benchmarks (not in the baseline) are reported but do not
fail the gate — commit a refreshed baseline to cover them.

An *intentional* rebaseline (a timing-model change that legitimately moves
a file's numbers) must be declared explicitly: `--allow-rebaselined FILE`
exempts that file from the regression and counter-identity checks but still
requires it to exist with the same benchmark set, and prints every time and
counter that moved in it, old -> new.
An allow-listed file that did not actually change is an error — a stale
allow-list must not linger and silently waive a future regression.
"""

import argparse
import fnmatch
import json
import pathlib
import sys

# Files whose real_time is host wall-clock, not simulated time. PATTERNS,
# not exact names: any new wall-clock-only output (a threaded simcore file,
# a future BENCH_simcore_scaling.json, ...) must never leak into the
# modeled gate, where host timing would make the gate machine-dependent.
WALLCLOCK_PATTERNS = ("BENCH_simcore*.json",)


def is_wallclock(path):
    return any(fnmatch.fnmatch(path.name, pat) for pat in WALLCLOCK_PATTERNS)


# Benchmark-entry fields that are host-dependent or structural, not modeled
# outputs. Everything else numeric (real_time plus user counters like
# cap_ops_per_s, parallel_efficiency, requests_per_s) is a modeled metric.
NON_MODELED_FIELDS = {"cpu_time", "iterations", "repetitions", "threads",
                      "repetition_index", "family_index",
                      "per_family_instance_index"}

# Relative tolerance for counter identity in modeled mode: the simulation is
# cycle-deterministic, but derived doubles may differ in the last ulp across
# compilers (FMA contraction), so "identical" means within 1e-9.
COUNTER_RTOL = 1e-9


def load_benchmarks(path):
    """Returns {benchmark name: {field: value}} for one google-benchmark JSON.

    Every numeric, modeled field is kept: real_time and the user counters.
    """
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    out = {}
    for bench in data.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetitions).
        if bench.get("run_type") == "aggregate":
            continue
        out[bench["name"]] = {
            key: float(value) for key, value in bench.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
            and key not in NON_MODELED_FIELDS
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir", type=pathlib.Path)
    parser.add_argument("new_dir", type=pathlib.Path)
    parser.add_argument("--threshold", type=float, default=None,
                        help="maximum tolerated relative time change "
                             "(default 1e-7 modeled, either direction; "
                             "0.5 wall-clock, slowdowns only)")
    parser.add_argument("--wallclock", action="store_true",
                        help="compare the wall-clock files (bench_simcore) "
                             "instead of the modeled figure/table files")
    parser.add_argument("--allow-rebaselined", action="append", default=[],
                        metavar="FILE", dest="allow_rebaselined",
                        help="baseline file (e.g. BENCH_failover.json) whose "
                             "numbers are intentionally rebaselined this run; "
                             "repeatable. Exempt from drift checks, but must "
                             "still exist, keep its benchmark set, and "
                             "actually differ")
    args = parser.parse_args()
    threshold = args.threshold
    if threshold is None:
        threshold = 0.5 if args.wallclock else 1e-7

    def in_scope(path):
        return is_wallclock(path) == args.wallclock

    baseline_files = [p for p in sorted(args.baseline_dir.glob("BENCH_*.json"))
                      if in_scope(p)]
    skipped = [p.name for p in sorted(args.baseline_dir.glob("BENCH_*.json"))
               if not in_scope(p)]
    if skipped:
        kind = "modeled" if args.wallclock else "wall-clock"
        print(f"ignoring {len(skipped)} {kind} file(s): {', '.join(skipped)}")
    if not baseline_files:
        print(f"error: no comparable BENCH_*.json files in {args.baseline_dir}",
              file=sys.stderr)
        return 2

    allowed = set(args.allow_rebaselined)
    unknown_allowed = allowed - {p.name for p in baseline_files}
    failures = [f"--allow-rebaselined {name}: no such baseline file"
                for name in sorted(unknown_allowed)]
    compared = 0
    for base_path in baseline_files:
        rebaselined = base_path.name in allowed
        rebaseline_moved = False
        new_path = args.new_dir / base_path.name
        if not new_path.exists():
            failures.append(f"{base_path.name}: missing from {args.new_dir}")
            continue
        base = load_benchmarks(base_path)
        new = load_benchmarks(new_path)
        for name, base_fields in sorted(base.items()):
            if name not in new:
                # A rebaseline may move numbers, never drop coverage.
                failures.append(f"{base_path.name}: benchmark '{name}' disappeared")
                continue
            compared += 1
            new_fields = new[name]
            base_time = base_fields.get("real_time", 0.0)
            new_time = new_fields.get("real_time", 0.0)
            if base_time > 0:
                ratio = new_time / base_time
                # Modeled time is deterministic: a move either way is a
                # model change. Host time only gates slowdowns.
                moved = ratio - 1.0 if args.wallclock else abs(ratio - 1.0)
                marker = ""
                if moved > threshold and not rebaselined:
                    marker = "  <-- REGRESSION" if ratio > 1.0 else "  <-- MODELED DRIFT"
                    failures.append(
                        f"{base_path.name}: '{name}' {base_time:.1f} -> {new_time:.1f} ns "
                        f"({(ratio - 1.0) * 100.0:+.1f}%)")
                time_moved = abs(ratio - 1.0) > COUNTER_RTOL
                rebaseline_moved |= time_moved
                # A declared rebaseline lists every time it moved, so the
                # gate output shows what the rebaseline changed.
                if marker or abs(ratio - 1.0) > 0.01 or (rebaselined and time_moved):
                    note = marker if marker else ("  (rebaselined)" if rebaselined else "")
                    print(f"{base_path.name}: {name}: {base_time!r} -> {new_time!r} ns "
                          f"({(ratio - 1.0) * 100.0:+.1f}%){note}")
            if args.wallclock:
                continue
            # Modeled counters (efficiency percentages, ops/s, ...) must be
            # *identical*, not merely within the time threshold: they are
            # deterministic outputs of the cycle model.
            for field in sorted(set(base_fields) - {"real_time"}):
                if field not in new_fields:
                    failures.append(
                        f"{base_path.name}: '{name}' counter '{field}' disappeared")
                    continue
                b, n = base_fields[field], new_fields[field]
                if abs(n - b) > COUNTER_RTOL * max(1.0, abs(b)):
                    rebaseline_moved = True
                    if rebaselined:
                        print(f"{base_path.name}: {name}: counter '{field}' {b!r} -> {n!r}"
                              f"  (rebaselined)")
                    else:
                        failures.append(
                            f"{base_path.name}: '{name}' counter '{field}' changed: "
                            f"{b!r} -> {n!r}  <-- MODELED DRIFT")
        for name in sorted(set(new) - set(base)):
            rebaseline_moved = True
            print(f"{base_path.name}: new benchmark '{name}' (not gated; refresh the baseline)")
        if rebaselined and not rebaseline_moved:
            failures.append(
                f"--allow-rebaselined {base_path.name}: file is identical to the "
                f"baseline — drop the stale allow-list entry")

    kind = "wall-clock" if args.wallclock else "simulated-time"
    print(f"\ncompared {compared} benchmarks against {len(baseline_files)} baseline files")
    if failures:
        print(f"\n{len(failures)} failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    what = "slowdowns" if args.wallclock else "changes"
    print(f"no {kind} {what} beyond a relative {threshold:g} — gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
