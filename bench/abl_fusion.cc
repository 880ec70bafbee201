// Ablation: DP kernel fusion on PCIe accelerators (paper Section 5,
// last open challenge: "Since such accelerators have higher resource
// capacities ... it makes sense to fuse multiple DP kernels inside the
// accelerator to minimize execution latency. In addition, we need to
// develop efficient data movement plans").
//
// Chain: compress -> encrypt over 1 MB pages. Three plans:
//   dpu_asics   — each kernel on its dedicated DPU ASIC (no fusion
//                 possible across fixed-function engines)
//   gpu_split   — both kernels on the GPU, but as separate launches
//                 (two PCIe round trips, two kernel launches)
//   gpu_fused   — one fused launch (one round trip, one launch)

#include <cstdio>

#include "common/logging.h"
#include "core/compute/compute_engine.h"
#include "core/runtime/metrics.h"
#include "hw/machine.h"
#include "kern/textgen.h"

using namespace dpdpu;  // NOLINT: bench brevity

namespace {

hw::ServerSpec GpuServerSpec() {
  hw::ServerSpec spec = hw::DefaultServerSpec();
  spec.pcie_accelerator = hw::PcieAcceleratorSpec{};
  return spec;
}

double RunDpuAsics(size_t bytes, int jobs, rt::KernelOutputCrc* crc) {
  sim::Simulator sim;
  hw::Server server(&sim, GpuServerSpec());
  ce::ComputeEngine engine(&server, ce::KernelRegistry::Builtin());
  Buffer text = kern::GenerateText(bytes, {1});
  for (int i = 0; i < jobs; ++i) {
    auto first = engine.Invoke(ce::kKernelCompress, text, {},
                               {ce::ExecTarget::kDpuAsic});
    if (!first.ok()) continue;
    crc->Watch(*first);
    (*first)->OnComplete([&engine, crc](ce::WorkItem& w) {
      if (!w.result().ok()) return;
      auto second = engine.Invoke(ce::kKernelEncrypt, w.result().value(),
                                  {{"key", "k"}}, {ce::ExecTarget::kDpuAsic});
      DPDPU_CHECK(second.ok());  // a dropped stage would skew the figure
      crc->Watch(*second);
    });
  }
  sim.Run();
  return double(sim.now()) / 1e6;
}

double RunGpu(size_t bytes, int jobs, bool fused,
              rt::KernelOutputCrc* crc) {
  sim::Simulator sim;
  hw::Server server(&sim, GpuServerSpec());
  ce::ComputeEngine engine(&server, ce::KernelRegistry::Builtin());
  Buffer text = kern::GenerateText(bytes, {1});
  for (int i = 0; i < jobs; ++i) {
    if (fused) {
      auto item = engine.InvokeFused(
          {{ce::kKernelCompress, {}}, {ce::kKernelEncrypt, {{"key", "k"}}}},
          text, {ce::ExecTarget::kPcieAccel});
      DPDPU_CHECK(item.ok());
      crc->Watch(*item);
    } else {
      auto first = engine.Invoke(ce::kKernelCompress, text, {},
                                 {ce::ExecTarget::kPcieAccel});
      if (!first.ok()) continue;
      crc->Watch(*first);
      (*first)->OnComplete([&engine, crc](ce::WorkItem& w) {
        if (!w.result().ok()) return;
        auto second =
            engine.Invoke(ce::kKernelEncrypt, w.result().value(),
                          {{"key", "k"}}, {ce::ExecTarget::kPcieAccel});
        DPDPU_CHECK(second.ok());
        crc->Watch(*second);
      });
    }
  }
  sim.Run();
  return double(sim.now()) / 1e6;
}

}  // namespace

int main() {
  rt::WallTimer wall_timer;
  std::printf("=== Ablation: DP kernel fusion on a PCIe accelerator "
              "(Section 5) ===\n");
  std::printf("compress+encrypt chain over 1 MB inputs; makespan (ms)\n\n");
  std::printf("%6s %12s %12s %12s %14s\n", "jobs", "dpu_asics",
              "gpu_split", "gpu_fused", "fusion_gain");

  constexpr size_t kBytes = 1 << 20;
  rt::KernelOutputCrc crc;
  for (int jobs : {1, 8, 32}) {
    double asics = RunDpuAsics(kBytes, jobs, &crc);
    double split = RunGpu(kBytes, jobs, /*fused=*/false, &crc);
    double fused = RunGpu(kBytes, jobs, /*fused=*/true, &crc);
    std::printf("%6d %12.2f %12.2f %12.2f %13.2fx\n", jobs, asics, split,
                fused, split / fused);
    rt::EmitJsonMetric("abl_fusion",
                       "fusion_gain_" + std::to_string(jobs) + "jobs",
                       split / fused, "x");
  }
  crc.Emit("abl_fusion");
  std::printf("\nshape: fusing the chain removes one PCIe round trip and "
              "one kernel launch per job; the gain is largest for short "
              "chains where data movement dominates.\n");
  rt::EmitWallClockMetrics("abl_fusion", wall_timer,
                           sim::Simulator::TotalEventsExecuted());
  return 0;
}
