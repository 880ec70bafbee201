// The benchmark's workloads. Each call runs one round: generate the
// round's inputs from the seed, build the simulated platform, drive the
// inputs through the public API on one host thread, then check every
// output. Why each workload exists is in README.md.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "probe.h"

namespace perfbench {

/// Two tenants, open-loop Poisson arrivals of distinct payloads that
/// overload the compression ASIC; model-based placement spills the rest.
RoundResult RunKernelOffloadRound(const RoundConfig& config);

/// A closed loop re-submitting a small hot set of payloads, mixing single
/// kernels and fused chains over every execution target.
RoundResult RunKernelHotRound(const RoundConfig& config);

/// Replicated 8 KB reads and writes against a storage fleet with the
/// consistency layer on; one storage node fails hard and recovers.
RoundResult RunFleetKvRound(const RoundConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
