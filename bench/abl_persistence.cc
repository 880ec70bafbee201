// Ablation: fast persistence (paper Section 9, "Faster persistence"):
// "DPDPU can persist a write request to ... DPU's onboard fast storage
// before forwarding the operation to the host. Once persisted, the DPU
// can immediately acknowledge the request."
//
// We issue remote writes and compare acknowledgment latency for
// write-through (durable on the SSD before ack) vs DPU-log-ack (durable
// on the DPU's fast log device, SSD write drains in the background).

#include <cstdio>

#include "common/histogram.h"
#include "core/runtime/metrics.h"
#include "core/runtime/platform.h"
#include "core/storage/storage_engine.h"
#include "kern/textgen.h"

using namespace dpdpu;  // NOLINT: bench brevity

namespace {

Histogram Run(se::PersistMode mode, size_t write_bytes, int writes) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  rt::PlatformOptions so, co;
  so.node = 1;
  so.storage.persist_mode = mode;
  so.fs_device_blocks = 32 * 1024;
  co.node = 2;
  co.fs_device_blocks = 1024;
  rt::Platform server(&sim, &net, so);
  rt::Platform client(&sim, &net, co);
  server.storage().Serve();

  auto file = server.fs().Create("wal");
  DPDPU_CHECK(file.ok());

  se::RemoteStorageClient rsc(&client.network(), 1, se::kStorageListenPort);
  Buffer payload = kern::GenerateRandomBytes(write_bytes, 3);
  Histogram ack_latency;
  int next_write = 0;
  // Offsets key off the issue counter, not the completion counter: with
  // 4 writes in flight, `done` would hand the same offset to every
  // initial write and make later offsets depend on completion order.
  std::function<void()> issue = [&] {
    if (next_write >= writes) return;
    sim::SimTime start = sim.now();
    rsc.Write(*file, uint64_t(next_write++) * write_bytes, payload,
              [&, start](Status s) {
                if (s.ok()) ack_latency.Add(sim.now() - start);
                issue();
              });
  };
  for (int i = 0; i < 4; ++i) issue();
  sim.Run();
  return ack_latency;
}

}  // namespace

int main() {
  rt::WallTimer wall_timer;
  std::printf("=== Ablation: fast persistence (Section 9) ===\n");
  std::printf("remote write ack latency: SSD write-through vs DPU "
              "log-device ack\n\n");
  std::printf("%10s | %12s %12s | %12s %12s | %8s\n", "", "write-through",
              "", "dpu-log-ack", "", "");
  std::printf("%10s | %12s %12s | %12s %12s | %8s\n", "size", "mean_us",
              "p99_us", "mean_us", "p99_us", "speedup");

  constexpr int kWrites = 400;
  for (size_t bytes : {512, 4096, 16384, 65536}) {
    Histogram through = Run(se::PersistMode::kWriteThrough, bytes, kWrites);
    Histogram logack = Run(se::PersistMode::kDpuLogAck, bytes, kWrites);
    std::printf("%9zuB | %12.1f %12.1f | %12.1f %12.1f | %7.2fx\n", bytes,
                through.Mean() / 1000, double(through.P99()) / 1000,
                logack.Mean() / 1000, double(logack.P99()) / 1000,
                through.Mean() / logack.Mean());
    std::string size = std::to_string(bytes) + "b";
    rt::EmitJsonMetric("abl_persistence", "log_ack_speedup_" + size,
                       through.Mean() / logack.Mean(), "x");
    rt::EmitJsonMetric("abl_persistence", "log_ack_mean_" + size,
                       logack.Mean() / 1000, "us");
  }
  std::printf("\nshape: acking on DPU-log durability cuts end-to-end "
              "latency for the small writes that dominate persistence-"
              "critical paths (log appends); the win shrinks — and "
              "crosses over — for large writes, where the slower log "
              "device's streaming time exceeds the SSD's, one of the "
              "trade-offs the Section 9 design must navigate.\n");
  rt::EmitWallClockMetrics("abl_persistence", wall_timer,
                           sim::Simulator::TotalEventsExecuted());
  return 0;
}
