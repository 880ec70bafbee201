// Platform: one DPDPU-equipped server, fully assembled — hardware model,
// DPU file system, and the three engines (Figure 5) — attached to the
// datacenter fabric. This is the top-level object applications create.

#ifndef DPDPU_CORE_RUNTIME_PLATFORM_H_
#define DPDPU_CORE_RUNTIME_PLATFORM_H_

#include <memory>

#include "core/compute/compute_engine.h"
#include "core/network/network_engine.h"
#include "core/storage/storage_engine.h"
#include "fssub/block_device.h"
#include "fssub/dpufs.h"
#include "hw/machine.h"
#include "netsub/network.h"
#include "sim/simulator.h"

namespace dpdpu::rt {

/// Block size of every platform's DPU file-system device.
inline constexpr uint32_t kFsBlockSize = 4096;

struct PlatformOptions {
  hw::ServerSpec server_spec = hw::DefaultServerSpec();
  netsub::NodeId node = 1;
  ne::NetworkEngineOptions network;
  se::StorageEngineOptions storage;
  ce::ComputeEngineOptions compute;
  /// Backing device size for the DPU file system, in kFsBlockSize
  /// blocks.
  uint64_t fs_device_blocks = 64 * 1024;  // 256 MB default
};

class Platform {
 public:
  Platform(sim::Simulator* sim, netsub::Network* network,
           PlatformOptions options = {});

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  sim::Simulator* simulator() { return sim_; }
  netsub::NodeId node() const { return options_.node; }
  hw::Server& server() { return *server_; }
  fssub::DpuFs& fs() { return *fs_; }
  fssub::MemBlockDevice& block_device() { return *device_; }

  ce::ComputeEngine& compute() { return *compute_; }
  ne::NetworkEngine& network() { return *network_engine_; }
  se::StorageEngine& storage() { return *storage_; }

 private:
  sim::Simulator* sim_;
  PlatformOptions options_;
  std::unique_ptr<hw::Server> server_;
  std::unique_ptr<fssub::MemBlockDevice> device_;
  std::unique_ptr<fssub::DpuFs> fs_;
  std::unique_ptr<ne::NetworkEngine> network_engine_;
  std::unique_ptr<se::StorageEngine> storage_;
  std::unique_ptr<ce::ComputeEngine> compute_;
};

}  // namespace dpdpu::rt

#endif  // DPDPU_CORE_RUNTIME_PLATFORM_H_
