// Figure 8 reproduction: "Round trips from NIC to host in today's
// disaggregated storage (left) can be saved with DPDPU SE (right)."
//
// A remote client issues 8 KB reads against a storage server. On the
// traditional path every request crosses PCIe to the host, runs the host
// OS + storage stack, and crosses back; with the SE, the DPU serves the
// request via PCIe peer-to-peer to the SSD without touching the host.
// We report request latency, host cores, and actual host-PCIe crossings.

#include <cstdio>

#include "common/histogram.h"
#include "core/runtime/metrics.h"
#include "core/runtime/platform.h"
#include "core/storage/storage_engine.h"
#include "kern/textgen.h"

using namespace dpdpu;  // NOLINT: bench brevity

namespace {

struct Point {
  double mean_us;
  double p99_us;
  double host_cores;
  double pcie_crossings_per_req;
};

Point Run(bool offload, int requests, int outstanding) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  rt::PlatformOptions so, co;
  so.node = 1;
  so.storage.dpu_cache_bytes = 0;  // always hit the SSD: pure path compare
  so.fs_device_blocks = 32 * 1024;
  co.node = 2;
  co.fs_device_blocks = 1024;
  rt::Platform server(&sim, &net, so);
  rt::Platform client(&sim, &net, co);
  server.storage().Serve();

  auto file = server.fs().Create("data");
  DPDPU_CHECK(file.ok());
  Buffer chunk = kern::GenerateRandomBytes(1 << 20, 1);
  for (int i = 0; i < 32; ++i) {
    DPDPU_CHECK(
        server.fs().Write(*file, uint64_t(i) << 20, chunk.span()).ok());
  }

  se::RemoteStorageClient rsc(&client.network(), 1, se::kStorageListenPort);
  uint8_t flags = offload ? 0 : se::kRequestFlagRequiresHost;

  Histogram latency;
  uint64_t pcie_before = server.server().pcie().transfers();
  rt::UtilizationProbe probe(&server.server());
  probe.Start();
  int done = 0;
  int next_request = 0;
  // Closed loop with the requested parallelism. issue() runs inside
  // completion callbacks, so each request derives its own RNG from the
  // issue counter — a shared generator here would tie the draw sequence
  // to same-timestamp completion order.
  std::function<void()> issue = [&] {
    if (done >= requests) return;
    Pcg32 rng(sim::SplitMix64(3 ^ uint64_t(next_request++)));
    uint64_t offset = uint64_t(rng.NextBounded(4000)) * 8192;
    sim::SimTime start = sim.now();
    rsc.Read(*file, offset, 8192,
             [&, start](Result<Buffer> d) {
               if (d.ok()) latency.Add(sim.now() - start);
               ++done;
               issue();
             },
             flags);
  };
  for (int i = 0; i < outstanding; ++i) issue();
  sim.Run();
  probe.Stop();
  uint64_t pcie_after = server.server().pcie().transfers();

  Point p;
  p.mean_us = latency.Mean() / 1000.0;
  p.p99_us = double(latency.P99()) / 1000.0;
  p.host_cores = probe.host_cores();
  p.pcie_crossings_per_req =
      double(pcie_after - pcie_before) / double(requests);
  return p;
}

}  // namespace

int main() {
  rt::WallTimer wall_timer;
  std::printf("=== Figure 8: disaggregated storage round trips, host "
              "path vs DPDPU SE ===\n");
  std::printf("remote 8 KB reads (SSD-resident, cold cache)\n\n");
  std::printf("%-22s %10s %10s %12s %14s\n", "path", "mean_us", "p99_us",
              "host_cores", "pcie_per_req");

  constexpr int kRequests = 3000;
  for (int outstanding : {1, 16}) {
    std::printf("-- closed loop, %d outstanding --\n", outstanding);
    Point host_path = Run(/*offload=*/false, kRequests, outstanding);
    Point dpu_path = Run(/*offload=*/true, kRequests, outstanding);
    std::printf("%-22s %10.1f %10.1f %12.3f %14.2f\n",
                "via host (today)", host_path.mean_us, host_path.p99_us,
                host_path.host_cores, host_path.pcie_crossings_per_req);
    std::printf("%-22s %10.1f %10.1f %12.3f %14.2f\n",
                "DPDPU SE (direct)", dpu_path.mean_us, dpu_path.p99_us,
                dpu_path.host_cores, dpu_path.pcie_crossings_per_req);
    std::string depth = "q" + std::to_string(outstanding);
    rt::EmitJsonMetric("fig8_dds_path", "host_path_p99_" + depth,
                       host_path.p99_us, "us");
    rt::EmitJsonMetric("fig8_dds_path", "se_path_p99_" + depth,
                       dpu_path.p99_us, "us");
    rt::EmitJsonMetric("fig8_dds_path", "host_path_host_cores_" + depth,
                       host_path.host_cores, "cores");
    rt::EmitJsonMetric("fig8_dds_path", "se_path_host_cores_" + depth,
                       dpu_path.host_cores, "cores");
    rt::EmitJsonMetric("fig8_dds_path", "se_path_pcie_per_req_" + depth,
                       dpu_path.pcie_crossings_per_req, "crossings");
  }

  std::printf("\nshape check: the SE path removes the host PCIe round "
              "trips and host stack work -- host cores -> ~0 and 3 PCIe "
              "crossings/request -> 1. At 1 and at 16 outstanding the "
              "saved hops also show up as lower mean and p99 latency, "
              "but DDS's headline is the CPU, not the microseconds.\n");
  rt::EmitWallClockMetrics("fig8_dds_path", wall_timer,
                           sim::Simulator::TotalEventsExecuted());
  return 0;
}
