// DP kernels — the paper's central Compute Engine abstraction (Section 5):
// "an extensible set of specialized functions built in DPDPU that
// optimizes sproc execution efficiency... we require that each DP kernel
// can be executed on any compute hardware." A kernel couples one real
// software implementation (producing identical output on every target)
// with a CPU cost model and an optional ASIC affinity; where it actually
// runs is a placement decision (specified or scheduled execution).

#ifndef DPDPU_CORE_COMPUTE_DP_KERNEL_H_
#define DPDPU_CORE_COMPUTE_DP_KERNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "hw/accelerator.h"

namespace dpdpu::ce {

/// String key/value parameters for a kernel invocation (e.g. the regex
/// pattern, a predicate column/op/literal).
using KernelParams = std::map<std::string, std::string>;

/// The real implementation: same bytes out regardless of placement.
using KernelFn =
    std::function<Result<Buffer>(ByteSpan input, const KernelParams& params)>;

/// Told at launch that a job's first step will call the kernel's fn on
/// `input` (the job's own bytes, immutable until the job is gone) with
/// `params`, so the kernel may start the host work early.
using KernelPrefetchFn = std::function<void(
    std::shared_ptr<const Buffer> input, const KernelParams& params)>;

/// A registered DP kernel.
struct DpKernel {
  std::string name;
  /// ASIC able to execute this kernel, if any DPU model carries one.
  std::optional<hw::AcceleratorKind> asic_kind;
  /// Software cost model in reference cycles (see hw/calibration.h).
  double cpu_cycles_per_byte = 1.0;
  uint64_t fixed_cycles = 0;
  KernelFn fn;
  /// Optional; `ComputeEngine::Launch` calls it for a job's first step.
  /// The hook belongs to the kernel, not to the engine, because `fn` may
  /// be a caller's wrapper that must run on the simulation thread. A copy
  /// of a kernel with its `fn` replaced keeps the hook.
  KernelPrefetchFn prefetch = nullptr;
};

/// Name -> kernel lookup. `Builtin()` registers the kernels the paper
/// names: compression/decompression, encryption, RegEx, dedup, CRC, and
/// the relational pushdown kernels (filter, aggregate).
class KernelRegistry {
 public:
  KernelRegistry() = default;

  /// Registry pre-loaded with the built-in kernels.
  static KernelRegistry Builtin();

  /// Fails with AlreadyExists on duplicate names.
  Status Register(DpKernel kernel);

  /// nullptr when unknown.
  const DpKernel* Find(const std::string& name) const;

  /// "The user can query what DP kernels are available" (Section 5).
  std::vector<std::string> List() const;

 private:
  std::map<std::string, DpKernel> kernels_;
};

/// Byte budget of the builtin compress kernel's process-wide output memo
/// (dp_kernel.cc): stored input + output bytes, evicted least recently
/// used first, except that the newest entry is always kept. So the memo
/// holds at most max(budget, newest entry). The jobs whose compress the
/// builtin's prefetch holds have at most this many input bytes as well.
inline constexpr size_t kCompressMemoBudgetBytes = size_t{6} << 20;

// Builtin kernel names.
inline constexpr char kKernelCompress[] = "compress";
inline constexpr char kKernelDecompress[] = "decompress";
inline constexpr char kKernelEncrypt[] = "encrypt";
inline constexpr char kKernelDecrypt[] = "decrypt";
inline constexpr char kKernelRegexCount[] = "regex_count";
inline constexpr char kKernelCrc32[] = "crc32";
inline constexpr char kKernelDedupChunk[] = "dedup_chunk";
inline constexpr char kKernelFilter[] = "filter";
inline constexpr char kKernelAggregate[] = "aggregate";

}  // namespace dpdpu::ce

#endif  // DPDPU_CORE_COMPUTE_DP_KERNEL_H_
