#include "core/runtime/platform.h"

#include "common/logging.h"

namespace dpdpu::rt {

Platform::Platform(sim::Simulator* sim, netsub::Network* network,
                   PlatformOptions options)
    : sim_(sim), options_(std::move(options)) {
  server_ = std::make_unique<hw::Server>(sim, options_.server_spec);

  device_ = std::make_unique<fssub::MemBlockDevice>(
      kFsBlockSize, options_.fs_device_blocks);
  auto fs = fssub::DpuFs::Format(device_.get());
  DPDPU_CHECK(fs.ok());
  fs_ = std::move(fs).value();

  network_engine_ = std::make_unique<ne::NetworkEngine>(
      server_.get(), network, options_.node, options_.network);
  network->Attach(options_.node, &server_->nic_tx(),
                  [this](netsub::Packet packet) {
                    network_engine_->OnPacket(std::move(packet));
                  });

  storage_ = std::make_unique<se::StorageEngine>(
      server_.get(), network_engine_.get(), fs_.get(), options_.storage);

  compute_ = std::make_unique<ce::ComputeEngine>(
      server_.get(), ce::KernelRegistry::Builtin(), options_.compute);
  compute_->SetEngineContext(network_engine_.get(), storage_.get());
}

}  // namespace dpdpu::rt
