// Measurement plumbing shared by the benchmark's workloads: the host
// clock, the in-memory span recorder used by traced runs, wrapped DP
// kernels that time every kernel call, output digests, and the per-round
// result every workload returns.
//
// Host time and simulated time never mix here: every host quantity is in
// seconds from rt::WallTimer, every simulated one in sim::SimTime ns.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "core/compute/compute_engine.h"
#include "hw/machine.h"
#include "sim/simulator.h"

namespace perfbench {

using dpdpu::Buffer;
using dpdpu::ByteSpan;

/// Host seconds since process start.
double HostNow();

/// What a span brackets: one call from the benchmark into a layer.
enum class SpanKind : uint8_t {
  kSimRun,  // Simulator::RunUntil slice
  kInvoke,  // ComputeEngine::Invoke / InvokeFused
  kIssue,   // FleetClient::Issue*
  kKernel,  // one wrapped DP kernel fn call (name = kernel)
};

/// In-memory span recorder. Off by default; a traced round turns it on.
/// Spans nest by a stack, so each records the span that was open when it
/// began (its cause on a single host thread).
class Tracer {
 public:
  struct Span {
    SpanKind kind;
    uint16_t name;    // index into names()
    uint32_t round;
    int32_t parent;   // index into spans(), -1 at top level
    double start_s;
    double end_s;
  };
  /// Per-kernel call accounting, kept alongside the spans.
  struct KernelTotals {
    uint64_t calls = 0;
    uint64_t in_bytes = 0;
    uint64_t out_bytes = 0;
    double host_s = 0;
  };

  static Tracer& Get();

  bool enabled() const { return enabled_; }
  void StartRound(uint32_t round, bool enabled);

  int32_t Begin(SpanKind kind, uint16_t name);
  /// Closes span `id` (the innermost open one); returns its duration.
  double End(int32_t id);

  uint16_t Intern(const std::string& name);

  /// Host seconds and span count per kind, for the current round only.
  double round_seconds(SpanKind kind) const {
    return round_seconds_[size_t(kind)];
  }
  uint64_t round_count(SpanKind kind) const {
    return round_count_[size_t(kind)];
  }
  std::map<std::string, KernelTotals>& round_kernels() {
    return round_kernels_;
  }

  /// Writes every recorded span as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  uint32_t round_ = 0;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  double round_seconds_[4] = {};
  uint64_t round_count_[4] = {};
  std::map<std::string, KernelTotals> round_kernels_;
};

/// RAII span; a no-op unless the tracer is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, uint16_t name = 0)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Begin(kind, name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) Tracer::Get().End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t id_;
};

/// KernelRegistry::Builtin() with every fn wrapped: each call is a span
/// (traced rounds) and, when `corrupt_first` names a kernel, the first
/// output of that kernel in the process gets one byte flipped — the
/// planted fault the self-test uses to prove the output checks can fail.
dpdpu::ce::KernelRegistry WrappedBuiltinKernels(
    const std::string& corrupt_first);

/// Drives `sim` in `slice`-long RunUntil steps (one span each) until
/// `done()` holds and the event heap drained, or simulated time reaches
/// `cap`. Returns false when the cap was hit first.
template <typename Done>
bool RunSim(dpdpu::sim::Simulator& sim, dpdpu::sim::SimTime slice,
            dpdpu::sim::SimTime cap, Done done) {
  while (!(done() && sim.empty())) {
    if (sim.now() >= cap) return false;
    ScopedSpan span(SpanKind::kSimRun);
    sim.RunUntil(sim.now() + slice);
  }
  return true;
}

/// 64-bit content hash (word-at-a-time multiply-mix). Used for output
/// digests and for measuring repeated kernel inputs.
uint64_t Hash64(const uint8_t* data, size_t n, uint64_t seed = 0);
inline uint64_t Hash64(ByteSpan bytes, uint64_t seed = 0) {
  return Hash64(bytes.data(), bytes.size(), seed);
}

/// Order-sensitive accumulator of 64-bit values.
class Digest {
 public:
  void Add(uint64_t v) {
    state_ = dpdpu::sim::SplitMix64(state_ ^ v) + 0x9E3779B97F4A7C15ull;
  }
  void Add(ByteSpan bytes) { Add(Hash64(bytes)); }
  void AddDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0x6A09E667F3BCC908ull;
};

/// Open-loop due times for `n` arrivals at `rate_per_sec`: the gaps are
/// the n exponential quantiles in a seed-shuffled order, so the arrival
/// process is Poisson-like while its total length is the same for every
/// seed. Strictly increasing and even (no two arrivals tie, and none ties
/// with an event the caller puts at an odd time), starting at 2 ns.
std::vector<dpdpu::sim::SimTime> OpenLoopDueTimes(size_t n,
                                                  double rate_per_sec,
                                                  uint64_t seed);

/// Submission time the benchmark picks at run time for op `i` of a round
/// of `ops` ops: the next multiple of the grid (the smallest power of two
/// >= 2 * ops) after `now`, plus 2i + 1 for the op's inverse job or 2i for
/// its (closed-loop) issue. Odd for inverse jobs, so never equal to an
/// open-loop arrival, and distinct for every (op, kind) whatever order the
/// simulator runs tied events in.
dpdpu::sim::SimTime GridTime(dpdpu::sim::SimTime now, size_t ops, size_t i,
                             bool inverse);

/// Counter-keyed draw stream: the generator for draw `index` of stream
/// `stream` under `seed`. Draws are a pure function of their identity, so
/// no scheduling order can permute them.
dpdpu::Pcg32 KeyedRng(uint64_t seed, uint64_t stream, uint64_t index);

/// Fisher-Yates shuffle keyed by (`seed`, `stream`).
template <typename T>
void Shuffle(std::vector<T>* v, uint64_t seed, uint64_t stream) {
  dpdpu::Pcg32 rng = KeyedRng(seed, stream, 0);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.NextBounded(uint32_t(i))]);
  }
}

/// Modelled busy time (simulated ms) and queueing of one resource kind,
/// summed over the servers a workload reads. `has_wait` is false for the
/// links and devices whose Resource is not public (busy time only).
struct ResourceView {
  double busy_ms = 0;
  bool has_wait = false;
  dpdpu::Histogram wait_ns;
};
using HwViews = std::map<std::string, ResourceView>;

/// Adds one server's modelled resources, over the window [0, now], to
/// `views` under the names used by the hw.* metrics.
void AddServer(dpdpu::hw::Server& server, dpdpu::sim::SimTime now,
               HwViews* views);
/// Writes hw.<r>.busy_ms and hw.<r>.wait_p99_us into `layer`.
void PutHwLayers(const HwViews& views, std::map<std::string, double>* layer);

/// Knobs of one round, fixed by the command line.
struct RoundConfig {
  uint64_t seed = 1;
  double scale = 1.0;         // op count multiplier (self-test uses < 1)
  /// Planted fault: a kernel whose first output is corrupted, or "shard"
  /// (fleet_kv zeroes every storage node's shard mid-run).
  std::string corrupt_first;
};

/// What one round of a workload produced.
struct RoundResult {
  double setup_inputs_s = 0;    // host: input generation
  double setup_platform_s = 0;  // host: platform / fleet construction
  double run_s = 0;             // host: from first issue to drained sim
  uint64_t ops = 0;
  uint64_t ops_failed = 0;
  std::string first_failure;
  std::vector<uint64_t> latency_ns;  // per op, simulated, from due time
  double sim_span_ns = 0;            // first due time to last completion
  double sim_load_ns = 0;            // window the host cores are spread over
  double sim_host_busy_ns = 0;       // modelled host CPU busy time
  uint64_t digest = 0;
  /// Deterministic per-layer counters read from public stats accessors
  /// (plus the benchmark's own job counts); names as in BENCHMARK.json.
  std::map<std::string, double> layer;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
