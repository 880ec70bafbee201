// Measurement helpers for experiments: interval probes over the hardware
// model's busy-time counters, reporting the paper's "CPU cores consumed"
// metric for a steady-state window.

#ifndef DPDPU_CORE_RUNTIME_METRICS_H_
#define DPDPU_CORE_RUNTIME_METRICS_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "core/compute/work_item.h"
#include "hw/machine.h"
#include "sim/simulator.h"

namespace dpdpu::rt {

/// Busy-core-equivalents between Start() and Stop(), per cluster.
class UtilizationProbe {
 public:
  explicit UtilizationProbe(hw::Server* server) : server_(server) {}

  void Start();
  void Stop();

  /// Host/DPU cores consumed over the window (busy-time delta / window).
  double host_cores() const;
  double dpu_cores() const;
  sim::SimTime window_ns() const { return stop_time_ - start_time_; }

 private:
  hw::Server* server_;
  sim::SimTime start_time_ = 0;
  sim::SimTime stop_time_ = 0;
  sim::SimTime host_busy_start_ = 0;
  sim::SimTime host_busy_stop_ = 0;
  sim::SimTime dpu_busy_start_ = 0;
  sim::SimTime dpu_busy_stop_ = 0;
};

/// Emits one machine-readable metric line to stdout, alongside the human
/// tables, so perf trajectories can be scraped into BENCH_*.json files:
///   {"bench":"<bench>","metric":"<metric>","value":<v>,"unit":"<unit>","seed":<seed>}
/// Values are printed with enough precision to round-trip a double.
void EmitJsonMetric(const std::string& bench, const std::string& metric,
                    double value, const std::string& unit,
                    uint64_t seed = 0);

/// Sum of kern::Crc32 over the outputs of a bench's completed CE jobs,
/// emitted as the exact line `kernel_output_crc32_sum`. The timing lines
/// see only output sizes, so a kernel that returns wrong bytes of the
/// right size moves no other metric. A sum does not depend on the order
/// of same-nanosecond completions, so every tie-break gives one value.
class KernelOutputCrc {
 public:
  KernelOutputCrc() = default;
  KernelOutputCrc(const KernelOutputCrc&) = delete;  // callbacks hold `this`
  KernelOutputCrc& operator=(const KernelOutputCrc&) = delete;

  /// Adds `item`'s output to the sum once it completes successfully.
  void Watch(const ce::WorkItemPtr& item);
  void Emit(const std::string& bench) const;

 private:
  uint64_t sum_ = 0;
};

/// Real (wall-clock) stopwatch for bench binaries; starts on
/// construction. Distinct from sim::SimTime: this measures how long the
/// simulation itself takes to run, not simulated time.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Standard wall-clock metric pair every bench emits alongside its
/// simulated results: total runtime ("wall_runtime", seconds) and event
/// throughput ("events_per_sec", simulator events per wall second).
/// scripts/check_bench.py treats these units as jitter-tolerant, unlike
/// the bit-deterministic simulated metrics.
void EmitWallClockMetrics(const std::string& bench, const WallTimer& timer,
                          uint64_t events_executed, uint64_t seed = 0);

}  // namespace dpdpu::rt

#endif  // DPDPU_CORE_RUNTIME_METRICS_H_
