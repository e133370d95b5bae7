// Fixed reference workload for host-time measurements (see README.md,
// "Noise on this kind of host").
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

namespace perfbench {

// Runs a small discrete-event loop with the simulator's host profile — a
// binary heap of events, indirect calls, hash-map state, allocation — and
// returns its wall time in seconds. The code depends on nothing in the
// simulator and is compiled with fixed flags, so changes to the simulator
// or its build flags leave it unchanged.
double ReferenceSeconds();

// About what ReferenceSeconds() takes on the host the benchmark's bounds
// were set on (README.md). Set-up times are scaled by this ÷ the run's
// median reference time, so they stay in seconds.
inline constexpr double kNominalReferenceSeconds = 0.15;

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
