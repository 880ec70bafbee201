#include "core/runtime/metrics.h"

#include <cstdio>

#include "kern/crc32.h"

namespace dpdpu::rt {

void UtilizationProbe::Start() {
  start_time_ = server_->simulator()->now();
  host_busy_start_ = server_->host_cpu().resource().busy_time();
  dpu_busy_start_ = server_->dpu_cpu().resource().busy_time();
}

void UtilizationProbe::Stop() {
  stop_time_ = server_->simulator()->now();
  host_busy_stop_ = server_->host_cpu().resource().busy_time();
  dpu_busy_stop_ = server_->dpu_cpu().resource().busy_time();
}

double UtilizationProbe::host_cores() const {
  sim::SimTime window = window_ns();
  return window == 0 ? 0.0
                     : double(host_busy_stop_ - host_busy_start_) /
                           double(window);
}

double UtilizationProbe::dpu_cores() const {
  sim::SimTime window = window_ns();
  return window == 0 ? 0.0
                     : double(dpu_busy_stop_ - dpu_busy_start_) /
                           double(window);
}

void EmitJsonMetric(const std::string& bench, const std::string& metric,
                    double value, const std::string& unit, uint64_t seed) {
  // Metric names in this repo are identifier-shaped; no escaping needed.
  std::printf(
      "{\"bench\":\"%s\",\"metric\":\"%s\",\"value\":%.17g,\"unit\":\"%s\","
      "\"seed\":%llu}\n",
      bench.c_str(), metric.c_str(), value, unit.c_str(),
      (unsigned long long)seed);
}

void KernelOutputCrc::Watch(const ce::WorkItemPtr& item) {
  item->OnComplete([this](ce::WorkItem& w) {
    if (w.result().ok()) sum_ += kern::Crc32(w.result()->span());
  });
}

void KernelOutputCrc::Emit(const std::string& bench) const {
  // Each CRC is below 2^32, so the double is exact up to 2^21 jobs.
  EmitJsonMetric(bench, "kernel_output_crc32_sum", double(sum_), "crc32");
}

void EmitWallClockMetrics(const std::string& bench, const WallTimer& timer,
                          uint64_t events_executed, uint64_t seed) {
  double seconds = timer.Seconds();
  EmitJsonMetric(bench, "wall_runtime", seconds, "seconds", seed);
  if (seconds > 0) {
    EmitJsonMetric(bench, "events_per_sec",
                   double(events_executed) / seconds, "events_per_sec",
                   seed);
  }
}

}  // namespace dpdpu::rt
