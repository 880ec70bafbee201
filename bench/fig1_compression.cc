// Figure 1 reproduction: "Compression performance on different hardware".
//
// The paper compresses natural-language datasets of various sizes with
// DEFLATE on an AMD EPYC CPU, an Arm CPU (the BF-2's cores), and the
// BF-2 compression accelerator. Expected shape: both CPUs suffer high and
// growing latency; EPYC beats Arm; the ASIC wins by an order of
// magnitude.
//
// We run the *same* DP kernel with specified execution on the three
// targets and report virtual-time latency per dataset size.

#include <cstdio>

#include "core/compute/compute_engine.h"
#include "core/runtime/metrics.h"
#include "hw/machine.h"
#include "kern/textgen.h"

using namespace dpdpu;  // NOLINT: bench brevity

namespace {

sim::SimTime CompressOnce(ce::ExecTarget target, Buffer text,
                          rt::KernelOutputCrc* crc) {
  sim::Simulator sim;
  hw::Server server(&sim, hw::DefaultServerSpec());
  ce::ComputeEngine engine(&server, ce::KernelRegistry::Builtin());
  auto item = engine.Invoke(ce::kKernelCompress, std::move(text), {},
                            {target});
  if (!item.ok()) return 0;
  crc->Watch(*item);
  sim.Run();
  return (*item)->latency();
}

}  // namespace

int main() {
  rt::WallTimer wall_timer;
  std::printf("=== Figure 1: compression performance on different "
              "hardware ===\n");
  std::printf("DEFLATE over Zipfian text; latency per dataset "
              "(virtual time)\n\n");
  std::printf("%10s %14s %14s %14s %10s\n", "size", "epyc_cpu_ms",
              "arm_cpu_ms", "bf2_asic_ms", "asic_gain");

  rt::KernelOutputCrc crc;
  double min_gain = 1e30, max_gain = 0;
  for (size_t mb : {1, 2, 4, 8, 16, 32}) {
    size_t bytes = mb << 20;
    // One text per size; each target compresses its own copy.
    Buffer text = kern::GenerateText(bytes, {uint64_t(bytes), 8192, 0.95});
    sim::SimTime epyc = CompressOnce(ce::ExecTarget::kHostCpu, text, &crc);
    sim::SimTime arm = CompressOnce(ce::ExecTarget::kDpuCpu, text, &crc);
    sim::SimTime asic =
        CompressOnce(ce::ExecTarget::kDpuAsic, std::move(text), &crc);
    double gain = double(epyc) / double(asic);
    min_gain = std::min(min_gain, gain);
    max_gain = std::max(max_gain, gain);
    std::printf("%8zuMB %14.2f %14.2f %14.2f %9.1fx\n", mb,
                double(epyc) / 1e6, double(arm) / 1e6, double(asic) / 1e6,
                gain);
    rt::EmitJsonMetric("fig1_compression",
                       "asic_gain_" + std::to_string(mb) + "mb", gain, "x");
  }
  rt::EmitJsonMetric("fig1_compression", "asic_gain_min", min_gain, "x");
  rt::EmitJsonMetric("fig1_compression", "asic_gain_max", max_gain, "x");
  crc.Emit("fig1_compression");
  std::printf("\nshape check: EPYC < Arm per size; ASIC beats EPYC by "
              "%.1f-%.1fx (paper: \"an order of magnitude\")\n",
              min_gain, max_gain);
  rt::EmitWallClockMetrics("fig1_compression", wall_timer,
                           sim::Simulator::TotalEventsExecuted());
  return 0;
}
