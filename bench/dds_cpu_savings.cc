// Section 9 claim reproduction: "Empirical studies show that DDS can
// save up to 10s of CPU cores per storage server."
//
// A storage server serves remote 8 KB reads. We sweep the request rate
// and the offloadable fraction of requests; host cores saved =
// host_cores(no offload) - host_cores(with offload). Without DDS every
// request pays the host network stack + storage stack; the cores saved
// grow linearly with rate into the tens.

#include <cstdio>

#include "core/runtime/metrics.h"
#include "core/runtime/platform.h"
#include "core/storage/storage_engine.h"
#include "kern/textgen.h"

using namespace dpdpu;  // NOLINT: bench brevity

namespace {

struct Point {
  double host_cores;
  double dpu_cores;
  uint64_t completed;
};

// Serves `rate` reads/s for a short window with `offload_fraction` of
// requests offloadable (the rest carry the requires-host flag).
Point Run(double rate, double offload_fraction) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  rt::PlatformOptions so, co;
  so.node = 1;
  so.storage.dpu_cache_bytes = 2ull << 30;
  so.fs_device_blocks = 32 * 1024;
  // When nothing is offloaded the server's host runs the traditional
  // kernel-TCP stack; with DDS the NE runs on the DPU.
  so.network.tcp_mode = offload_fraction > 0 ? ne::TcpMode::kDpuOffload
                                             : ne::TcpMode::kHostKernel;
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

  // Several client connections to avoid single-flow limits.
  constexpr int kClients = 8;
  std::vector<std::unique_ptr<se::RemoteStorageClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<se::RemoteStorageClient>(
        &client.network(), 1, se::kStorageListenPort));
  }

  constexpr sim::SimTime kWindow = 5 * sim::kMillisecond;
  uint64_t total = uint64_t(rate * sim::ToSeconds(kWindow));
  Pcg32 rng(11);
  uint64_t completed = 0;
  rt::UtilizationProbe probe(&server.server());
  probe.Start();
  for (uint64_t i = 0; i < total; ++i) {
    sim::SimTime at = sim::SimTime(double(i) / rate * 1e9);
    se::RemoteStorageClient* rsc = clients[i % kClients].get();
    // Both draws happen here, in schedule order — a handler drawing
    // from the shared rng would key the draw sequence to tie-break
    // order (a schedule dependence the bench gate's tie-break runs
    // report).
    bool offloadable = rng.NextDouble() < offload_fraction;
    uint64_t offset = uint64_t(rng.NextBounded(4000)) * 8192;
    sim.ScheduleAt(at, [rsc, &completed, offloadable, offset, &file] {
      rsc->Read(*file, offset, 8192,
                [&completed](Result<Buffer> d) {
                  if (d.ok()) ++completed;
                },
                offloadable ? 0 : se::kRequestFlagRequiresHost);
    });
  }
  sim.Run();
  probe.Stop();
  return Point{probe.host_cores(), probe.dpu_cores(), completed};
}

}  // namespace

int main() {
  rt::WallTimer wall_timer;
  std::printf("=== DDS CPU savings (Section 9: \"save up to 10s of CPU "
              "cores per storage server\") ===\n");
  std::printf("remote 8 KB reads; storage-server host cores vs request "
              "rate and offload fraction\n\n");
  std::printf("%10s | %10s | %9s %9s %9s | %11s\n", "reads/s",
              "no offload", "f=0.5", "f=0.9", "f=1.0", "cores saved");

  for (double rate : {200e3, 500e3, 1000e3}) {
    Point base = Run(rate, 0.0);
    Point half = Run(rate, 0.5);
    Point most = Run(rate, 0.9);
    Point full = Run(rate, 1.0);
    std::printf("%9.0fK | %10.2f | %9.2f %9.2f %9.2f | %11.2f\n",
                rate / 1000, base.host_cores, half.host_cores,
                most.host_cores, full.host_cores,
                base.host_cores - full.host_cores);
    std::string level = std::to_string(int(rate / 1000)) + "k";
    rt::EmitJsonMetric("dds_cpu_savings", "baseline_host_cores_" + level,
                       base.host_cores, "cores");
    rt::EmitJsonMetric("dds_cpu_savings", "full_offload_host_cores_" + level,
                       full.host_cores, "cores");
    rt::EmitJsonMetric("dds_cpu_savings", "host_cores_saved_" + level,
                       base.host_cores - full.host_cores, "cores");
  }
  std::printf("\nshape check: cores saved grow linearly with rate; "
              "full offload at 1M reads/s saves >10 host cores "
              "(network + storage stacks), matching \"10s of cores\" at "
              "production rates.\n");
  rt::EmitWallClockMetrics("dds_cpu_savings", wall_timer,
                           sim::Simulator::TotalEventsExecuted());
  return 0;
}
