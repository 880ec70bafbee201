// Ablation: Compute Engine scheduling policies (paper Section 5 open
// challenges; iPipe-style FCFS vs DRR, plus DPDPU's model-based
// scheduled execution).
//
// Workload: two tenants share the compression ASIC — tenant 0 floods
// large jobs, tenant 1 issues sparse small jobs (the low-variance /
// high-variance mix iPipe's schedulers target). We report per-tenant p99
// latency under FCFS vs DRR admission, and total makespan for scheduled
// (model-based) vs ASIC-only placement under overload.

#include <cstdio>

#include "common/histogram.h"
#include "common/logging.h"
#include "core/compute/compute_engine.h"
#include "core/runtime/metrics.h"
#include "hw/machine.h"
#include "kern/textgen.h"

using namespace dpdpu;  // NOLINT: bench brevity

namespace {

struct TenancyResult {
  double big_p99_ms;
  double small_p99_ms;
};

TenancyResult RunTenancy(ce::AdmissionQueue::Discipline discipline,
                         rt::KernelOutputCrc* crc) {
  sim::Simulator sim;
  hw::Server server(&sim, hw::DefaultServerSpec());
  ce::ComputeEngineOptions options;
  options.asic_admission = discipline;
  ce::ComputeEngine engine(&server, ce::KernelRegistry::Builtin(), options);

  Buffer big = kern::GenerateText(2 << 20, {1});
  Buffer small = kern::GenerateText(32 << 10, {2});
  Histogram big_lat, small_lat;
  // Interleaved open-loop arrivals.
  for (int i = 0; i < 40; ++i) {
    sim.ScheduleAt(sim::SimTime(i) * 50 * sim::kMicrosecond, [&, i] {
      auto item = engine.Invoke(ce::kKernelCompress, big, {},
                                {ce::ExecTarget::kDpuAsic, 0});
      if (item.ok()) {
        crc->Watch(*item);
        (*item)->OnComplete(
            [&big_lat](ce::WorkItem& w) { big_lat.Add(w.latency()); });
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    // The +1us skew keeps small-tenant arrivals off the big tenant's
    // 50us grid: a shared arrival instant would make ASIC admission
    // order (and so FCFS p99) depend on event tie-breaking.
    sim.ScheduleAt(sim::SimTime(i) * 100 * sim::kMicrosecond +
                       sim::kMicrosecond,
                   [&] {
      auto item = engine.Invoke(ce::kKernelCompress, small, {},
                                {ce::ExecTarget::kDpuAsic, 1});
      if (item.ok()) {
        crc->Watch(*item);
        (*item)->OnComplete(
            [&small_lat](ce::WorkItem& w) { small_lat.Add(w.latency()); });
      }
    });
  }
  sim.Run();
  return TenancyResult{double(big_lat.P99()) / 1e6,
                       double(small_lat.P99()) / 1e6};
}

double RunPlacementMakespan(ce::PlacementPolicy policy, int jobs,
                            rt::KernelOutputCrc* crc) {
  sim::Simulator sim;
  hw::Server server(&sim, hw::DefaultServerSpec());
  ce::ComputeEngineOptions options;
  options.policy = policy;
  ce::ComputeEngine engine(&server, ce::KernelRegistry::Builtin(), options);
  Buffer payload = kern::GenerateText(1 << 20, {3});
  for (int i = 0; i < jobs; ++i) {
    auto item = engine.Invoke(ce::kKernelCompress, payload);  // kAuto
    DPDPU_CHECK(item.ok());
    crc->Watch(*item);
  }
  sim.Run();
  return double(sim.now()) / 1e6;
}

}  // namespace

int main() {
  rt::WallTimer wall_timer;
  std::printf("=== Ablation: CE scheduling (Section 5) ===\n\n");

  std::printf("-- multi-tenant ASIC admission: FCFS vs DRR --\n");
  std::printf("%8s %14s %14s\n", "policy", "big_p99_ms", "small_p99_ms");
  rt::KernelOutputCrc crc;
  TenancyResult fcfs =
      RunTenancy(ce::AdmissionQueue::Discipline::kFcfs, &crc);
  TenancyResult drr = RunTenancy(ce::AdmissionQueue::Discipline::kDrr, &crc);
  std::printf("%8s %14.2f %14.2f\n", "fcfs", fcfs.big_p99_ms,
              fcfs.small_p99_ms);
  std::printf("%8s %14.2f %14.2f\n", "drr", drr.big_p99_ms,
              drr.small_p99_ms);
  std::printf("shape: DRR cuts the small tenant's p99 (%.1fx better) at "
              "modest cost to the flood.\n\n",
              fcfs.small_p99_ms / drr.small_p99_ms);

  std::printf("-- scheduled execution under overload: makespan of 200x "
              "1 MB compress jobs --\n");
  std::printf("%14s %14s\n", "policy", "makespan_ms");
  double asic_only = RunPlacementMakespan(ce::PlacementPolicy::kAsicFirst,
                                          200, &crc);
  double model = RunPlacementMakespan(ce::PlacementPolicy::kModelBased,
                                      200, &crc);
  double cpu_only = RunPlacementMakespan(ce::PlacementPolicy::kDpuCpuOnly,
                                         200, &crc);
  std::printf("%14s %14.2f\n", "asic_first", asic_only);
  std::printf("%14s %14.2f\n", "model_based", model);
  std::printf("%14s %14.2f\n", "dpu_cpu_only", cpu_only);
  std::printf("shape: model-based placement spills overload to idle "
              "CPUs and beats both static policies (%.2fx vs asic-only, "
              "%.1fx vs cpu-only).\n",
              asic_only / model, cpu_only / model);
  rt::EmitJsonMetric("abl_scheduling", "drr_small_tenant_p99_gain",
                     fcfs.small_p99_ms / drr.small_p99_ms, "x");
  rt::EmitJsonMetric("abl_scheduling", "model_vs_asic_only_speedup",
                     asic_only / model, "x");
  rt::EmitJsonMetric("abl_scheduling", "model_vs_cpu_only_speedup",
                     cpu_only / model, "x");
  crc.Emit("abl_scheduling");
  rt::EmitWallClockMetrics("abl_scheduling", wall_timer,
                           sim::Simulator::TotalEventsExecuted());
  return 0;
}
