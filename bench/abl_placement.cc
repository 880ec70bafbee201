// Ablation: specified vs scheduled execution across heterogeneous DPUs
// (paper Sections 1/5: BlueField-2 has a RegEx ASIC, BlueField-3 and
// IPU-class devices do not; portable DP kernels must run anywhere).
//
// The same job mix — compression, encryption, and RegEx scans — runs on
// three DPU models. "Specified (asic)" is user code that pins kernels to
// accelerators and falls back to the DPU CPU when the probe fails (the
// Figure 6 pattern); "scheduled" lets the CE place every kernel.

#include <cstdio>

#include "common/logging.h"
#include "core/compute/compute_engine.h"
#include "core/runtime/metrics.h"
#include "hw/machine.h"
#include "kern/textgen.h"

using namespace dpdpu;  // NOLINT: bench brevity

namespace {

struct RunResult {
  double makespan_ms;
  uint64_t asic_jobs;
  uint64_t dpu_cpu_jobs;
  uint64_t host_jobs;
};

RunResult Run(hw::DpuSpec dpu, bool scheduled, rt::KernelOutputCrc* crc) {
  sim::Simulator sim;
  hw::Server server(&sim, hw::MakeServerSpec("s", std::move(dpu)));
  ce::ComputeEngineOptions options;
  options.policy = ce::PlacementPolicy::kModelBased;
  ce::ComputeEngine engine(&server, ce::KernelRegistry::Builtin(), options);

  Buffer text = kern::GenerateText(1 << 20, {5});
  struct Job {
    const char* kernel;
    ce::KernelParams params;
  };
  std::vector<Job> jobs;
  for (int i = 0; i < 10; ++i) {
    jobs.push_back({ce::kKernelCompress, {}});
    jobs.push_back({ce::kKernelEncrypt, {}});
    jobs.push_back({ce::kKernelRegexCount, {{"pattern", "tion|ing"}}});
  }

  for (const Job& job : jobs) {
    if (scheduled) {
      auto item = engine.Invoke(job.kernel, text, job.params);  // kAuto
      DPDPU_CHECK(item.ok());
      crc->Watch(*item);
    } else {
      // Specified execution with the Fig 6 probe-and-fallback.
      auto item = engine.Invoke(job.kernel, text, job.params,
                                {ce::ExecTarget::kDpuAsic});
      if (item.ok()) {
        crc->Watch(*item);
      } else {
        auto fallback = engine.Invoke(job.kernel, text, job.params,
                                      {ce::ExecTarget::kDpuCpu});
        DPDPU_CHECK(fallback.ok());  // DPU CPU is always present
        crc->Watch(*fallback);
      }
    }
  }
  sim.Run();
  RunResult r;
  r.makespan_ms = double(sim.now()) / 1e6;
  r.asic_jobs = engine.target_stats(ce::ExecTarget::kDpuAsic).jobs;
  r.dpu_cpu_jobs = engine.target_stats(ce::ExecTarget::kDpuCpu).jobs;
  r.host_jobs = engine.target_stats(ce::ExecTarget::kHostCpu).jobs;
  return r;
}

}  // namespace

int main() {
  rt::WallTimer wall_timer;
  std::printf("=== Ablation: specified vs scheduled execution across "
              "DPUs ===\n");
  std::printf("job mix: 10x (compress + encrypt + regex) over 1 MB "
              "text\n\n");
  std::printf("%-14s %-11s %12s %6s %9s %6s\n", "dpu", "mode",
              "makespan_ms", "asic", "dpu_cpu", "host");

  struct Target {
    const char* name;
    hw::DpuSpec (*spec)();
  };
  Target targets[] = {{"BlueField-2", hw::BlueField2Spec},
                      {"BlueField-3", hw::BlueField3Spec},
                      {"IPU-like", hw::IntelIpuLikeSpec}};
  rt::KernelOutputCrc crc;
  for (const Target& t : targets) {
    RunResult spec = Run(t.spec(), /*scheduled=*/false, &crc);
    RunResult sched = Run(t.spec(), /*scheduled=*/true, &crc);
    std::printf("%-14s %-11s %12.2f %6llu %9llu %6llu\n", t.name,
                "specified", spec.makespan_ms,
                (unsigned long long)spec.asic_jobs,
                (unsigned long long)spec.dpu_cpu_jobs,
                (unsigned long long)spec.host_jobs);
    std::printf("%-14s %-11s %12.2f %6llu %9llu %6llu\n", t.name,
                "scheduled", sched.makespan_ms,
                (unsigned long long)sched.asic_jobs,
                (unsigned long long)sched.dpu_cpu_jobs,
                (unsigned long long)sched.host_jobs);
    rt::EmitJsonMetric("abl_placement",
                       std::string(t.name) + "_scheduled_speedup",
                       spec.makespan_ms / sched.makespan_ms, "x");
  }
  crc.Emit("abl_placement");
  std::printf("\nshape: the same user code runs on all three DPUs. On "
              "ASIC-rich devices (BF-2) specified and scheduled are "
              "comparable; the fewer accelerators a device has, the more "
              "scheduled execution wins by spreading work across DPU and "
              "host CPUs instead of serializing on the fallback the user "
              "hard-coded.\n");
  rt::EmitWallClockMetrics("abl_placement", wall_timer,
                           sim::Simulator::TotalEventsExecuted());
  return 0;
}
