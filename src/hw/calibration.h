// Calibration constants for the DPDPU hardware models. Every constant is
// anchored either to a number reported in the paper (Figures 1-3), to the
// public BlueField-2 datasheet quoted in the paper's Section 3, or to the
// measurements in work the paper cites (Cowbird for RDMA issue overheads,
// the Haas et al. CIDR'20 observation that CPU instructions per I/O byte
// are roughly constant).
//
// Costs for software execution are expressed in *reference cycles*: cycles
// on a 1.0-IPC core. A core with clock f and IPC factor i retires
// reference cycles at rate f*i.

#ifndef DPDPU_HW_CALIBRATION_H_
#define DPDPU_HW_CALIBRATION_H_

#include <cstdint>

namespace dpdpu::hw::cal {

// ---------------------------------------------------------------------------
// Processors.
// ---------------------------------------------------------------------------

/// Host server: AMD EPYC-class, as in the paper's Section 2 testbed.
inline constexpr double kHostClockHz = 3.0e9;
inline constexpr double kHostIpc = 1.0;
inline constexpr uint32_t kHostCores = 64;

/// BlueField-2: 8x Arm Cortex-A72 @ 2.5 GHz (paper Section 3). The IPC
/// factor reflects the A72's narrower issue width and smaller caches;
/// with 0.6 the EPYC outruns the Arm ~2x on DEFLATE, matching Figure 1.
inline constexpr double kBf2ArmClockHz = 2.5e9;
inline constexpr double kBf2ArmIpc = 0.6;
inline constexpr uint32_t kBf2ArmCores = 8;
inline constexpr uint64_t kBf2MemoryBytes = 16ull << 30;  // 16 GB DDR4

/// BlueField-3: 16x Cortex-A78 @ 3.0 GHz, 32 GB; no RegEx ASIC (paper
/// Section 5 heterogeneity discussion), but supports generic NIC-core
/// offloading.
inline constexpr double kBf3ArmClockHz = 3.0e9;
inline constexpr double kBf3ArmIpc = 0.75;
inline constexpr uint32_t kBf3ArmCores = 16;
inline constexpr uint64_t kBf3MemoryBytes = 32ull << 30;

// ---------------------------------------------------------------------------
// Software kernel costs (reference cycles per byte, host-class code).
// DEFLATE at 52 cyc/B gives ~58 MB/s on one EPYC core and ~29 MB/s on one
// BF-2 Arm core — the Figure 1 CPU curves.
// ---------------------------------------------------------------------------

inline constexpr double kDeflateCyclesPerByte = 52.0;
inline constexpr double kInflateCyclesPerByte = 12.0;
inline constexpr double kChaCha20CyclesPerByte = 4.0;
inline constexpr double kRegexCyclesPerByte = 9.0;
inline constexpr double kCrc32CyclesPerByte = 1.2;
inline constexpr double kDedupChunkCyclesPerByte = 6.0;
inline constexpr double kFilterCyclesPerByte = 2.0;
inline constexpr double kAggregateCyclesPerByte = 1.5;
inline constexpr uint64_t kKernelDispatchCycles = 400;  // per invocation

// ---------------------------------------------------------------------------
// BlueField-2 hardware accelerators (paper Section 3 / Figure 1).
// The compression ASIC is calibrated to ~1 GB/s so the ASIC beats the EPYC
// core by ~17x: "an order of magnitude" (Figure 1).
// ---------------------------------------------------------------------------

inline constexpr double kBf2CompressAsicBytesPerSec = 1.0e9;
inline constexpr uint64_t kBf2CompressAsicSetupNs = 12'000;
inline constexpr uint32_t kBf2CompressAsicConcurrency = 4;

inline constexpr double kBf2CryptoAsicBytesPerSec = 4.5e9;
inline constexpr uint64_t kBf2CryptoAsicSetupNs = 6'000;
inline constexpr uint32_t kBf2CryptoAsicConcurrency = 4;

inline constexpr double kBf2RegexAsicBytesPerSec = 1.6e9;
inline constexpr uint64_t kBf2RegexAsicSetupNs = 8'000;
inline constexpr uint32_t kBf2RegexAsicConcurrency = 2;

inline constexpr double kBf2DedupAsicBytesPerSec = 2.0e9;
inline constexpr uint64_t kBf2DedupAsicSetupNs = 10'000;
inline constexpr uint32_t kBf2DedupAsicConcurrency = 2;

// BF-3 accelerators: faster compression/crypto, no RegEx.
inline constexpr double kBf3CompressAsicBytesPerSec = 2.5e9;
inline constexpr double kBf3CryptoAsicBytesPerSec = 9.0e9;

// ---------------------------------------------------------------------------
// I/O stacks.
// ---------------------------------------------------------------------------

/// Linux block I/O path cost per 8 KB page, anchored to Figure 2:
/// 2.7 cores x 3 GHz / 450 K pages/s = 18,000 cycles/page. The paper notes
/// io_uring showed "similar CPU cost".
inline constexpr uint64_t kLinuxStorageStackCyclesPerIo = 18'000;

/// SPDK-style userspace polling path running on the DPU (paper Section 3).
inline constexpr uint64_t kSpdkCyclesPerIo = 2'500;

/// Kernel TCP/IP send/receive costs (Figure 3): per-message overhead
/// (syscall, skb, protocol) plus per-byte copy+checksum. At 100 Gbps of
/// 8 KB pages this consumes ~7 host cores.
inline constexpr uint64_t kKernelTcpCyclesPerMsg = 5'800;
inline constexpr double kKernelTcpCyclesPerByte = 1.05;

/// Optimized userspace TCP on the DPU (Section 6: the stack "must be
/// carefully optimized" to fit the weaker cores): zero-copy, no syscall,
/// hardware-assisted segmentation/checksums (IO-TCP demonstrates
/// line-rate delivery from a handful of DPU cores this way). Charged per
/// segment, rx and tx.
inline constexpr uint64_t kDpuTcpCyclesPerMsg = 1'500;
inline constexpr double kDpuTcpCyclesPerByte = 0.15;

/// Host-side cost of the NE/SE front-end library: submit into and poll
/// from a lock-free DMA-able ring (Figure 7 / Section 7).
inline constexpr uint64_t kHostRingSubmitCycles = 80;
inline constexpr uint64_t kHostRingPollCycles = 60;

/// Native RDMA issue cost on the host (Section 6, confirmed by Cowbird):
/// queue-pair spinlock + memory fences, plus a doorbell MMIO stall.
inline constexpr uint64_t kRdmaNativeIssueCycles = 450;
inline constexpr uint64_t kRdmaDoorbellStallNs = 250;
/// DPU-side cost to pop a ring entry and issue the wire op (Figure 7).
inline constexpr uint64_t kRdmaDpuIssueCycles = 220;
/// Host cost to reap one RDMA completion from a completion queue.
inline constexpr uint64_t kRdmaHostCompletionCycles = 150;

/// Per-request cost of the SE offload-engine UDF parse + dispatch on the
/// DPU (Section 7), and of the traffic director's per-packet decision.
inline constexpr uint64_t kUdfParseCycles = 800;
inline constexpr uint64_t kTrafficDirectorCyclesPerPacket = 120;

// ---------------------------------------------------------------------------
// Links and devices.
// ---------------------------------------------------------------------------

/// ConnectX-6: 100 Gbps (paper Section 3); datacenter one-way propagation.
inline constexpr double kNicBitsPerSec = 100e9;
inline constexpr uint64_t kNicPropagationNs = 2'000;
inline constexpr uint32_t kNicMtuBytes = 4096;
/// DPU packet-processing cost per packet (rx or tx) on its network cores.
inline constexpr uint64_t kNicPerPacketDpuCycles = 300;

/// PCIe 4.0 x16 effective bandwidth and one-way latency; the BF-2 carries
/// a PCIe switch with peer-to-peer access to SSDs (paper Section 3).
inline constexpr double kPcieBytesPerSec = 25e9;
inline constexpr uint64_t kPcieLatencyNs = 600;

/// Datacenter NVMe SSD.
inline constexpr uint64_t kSsdReadLatencyNs = 80'000;
inline constexpr uint64_t kSsdWriteLatencyNs = 20'000;  // SLC write cache
inline constexpr uint32_t kSsdQueueDepth = 96;
inline constexpr double kSsdInternalBytesPerSec = 7.0e9;

/// DPU onboard eMMC-class fast log device used by the Section 9
/// "faster persistence" design (ack once persisted on the DPU).
inline constexpr uint64_t kDpuLogDeviceWriteLatencyNs = 8'000;
inline constexpr double kDpuLogDeviceBytesPerSec = 2.0e9;

}  // namespace dpdpu::hw::cal

#endif  // DPDPU_HW_CALIBRATION_H_
