// kernel_offload and kernel_hot: one hw::Server running a Compute Engine
// whose built-in kernels are wrapped for timing. Every op is one forward
// job (a kernel or a fused chain); compress, encrypt and fused ops add the
// inverse job on the forward output, whose result must equal the payload.

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <string_view>
#include <unordered_set>

#include "kern/textgen.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace ce = dpdpu::ce;
namespace hw = dpdpu::hw;
namespace sim = dpdpu::sim;

enum class OpKind : uint8_t { kCompress, kEncrypt, kRegex, kCrc32, kFused };

struct Plan {
  std::vector<ce::ComputeEngine::FusedStep> forward;
  std::vector<ce::ComputeEngine::FusedStep> inverse;  // empty: no round trip
};

// "tion" and "ing" overlap neither each other nor themselves, so the
// regex's non-overlapping match count is the sum of the literal counts.
constexpr char kRegexPattern[] = "tion|ing";

const Plan& PlanFor(OpKind kind) {
  static const ce::KernelParams kCipher = {{"key", "perfbench-key"},
                                           {"nonce", "perfbench-iv"}};
  static const ce::KernelParams kLevel6 = {{"level", "6"}};
  static const Plan kPlans[] = {
      {{{ce::kKernelCompress, kLevel6}}, {{ce::kKernelDecompress, {}}}},
      {{{ce::kKernelEncrypt, kCipher}}, {{ce::kKernelDecrypt, kCipher}}},
      {{{ce::kKernelRegexCount, {{"pattern", kRegexPattern}}}}, {}},
      {{{ce::kKernelCrc32, {}}}, {}},
      {{{ce::kKernelCompress, kLevel6}, {ce::kKernelEncrypt, kCipher}},
       {{ce::kKernelDecrypt, kCipher}, {ce::kKernelDecompress, {}}}},
  };
  return kPlans[size_t(kind)];
}

struct KernelOp {
  OpKind kind = OpKind::kCompress;
  uint32_t tenant = 0;
  uint32_t payload = 0;
  ce::ExecTarget target = ce::ExecTarget::kAuto;  // of the forward job
  sim::SimTime due = 0;
  sim::SimTime done_at = 0;
  bool finished = false;
  std::string error;
  Buffer forward_out;
  Buffer inverse_out;
};

uint64_t ReferenceRegexCount(std::string_view text) {
  uint64_t n = 0;
  for (std::string_view lit : {std::string_view("tion"), std::string_view("ing")}) {
    for (size_t p = text.find(lit); p != std::string_view::npos;
         p = text.find(lit, p + lit.size())) {
      ++n;
    }
  }
  return n;
}

// Bytewise CRC-32 (IEEE, reflected 0xEDB88320), independent of kern/.
uint32_t ReferenceCrc32(ByteSpan data) {
  static const auto kTable = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t b : data) crc = kTable[(crc ^ b) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

// Empty when the op's outputs are right; else why not.
std::string CheckOp(const KernelOp& op, const Buffer& payload) {
  if (!op.finished) return "op never completed";
  if (!op.error.empty()) return op.error;
  dpdpu::ByteReader r(op.forward_out.span());
  switch (op.kind) {
    case OpKind::kRegex: {
      uint64_t n = 0;
      bool ok = r.ReadU64(&n) && r.AtEnd() &&
                n == ReferenceRegexCount(payload.view());
      return ok ? "" : "regex_count differs from the reference count";
    }
    case OpKind::kCrc32: {
      uint32_t crc = 0;
      bool ok = r.ReadU32(&crc) && r.AtEnd() &&
                crc == ReferenceCrc32(payload.span());
      return ok ? "" : "crc32 differs from the reference CRC";
    }
    default:
      return op.inverse_out == payload ? ""
                                       : "inverse job did not restore payload";
  }
}

// Submits ops to the engine and walks each through its plan.
class KernelDriver {
 public:
  KernelDriver(sim::Simulator* sim, ce::ComputeEngine* engine,
               const std::vector<Buffer>* payloads, std::vector<KernelOp>* ops)
      : sim_(sim), engine_(engine), payloads_(payloads), ops_(ops) {}

  /// Runs after op i's last job completes (closed loops chain on it).
  std::function<void(size_t)> on_finish;

  void Start(size_t i) { Job(i, false, (*payloads_)[(*ops_)[i].payload]); }

  uint64_t finished() const { return finished_; }
  uint64_t steps() const { return steps_; }
  uint64_t jobs_noted() const { return jobs_noted_; }
  uint64_t jobs_repeated() const { return jobs_repeated_; }

 private:
  void Job(size_t i, bool inverse, Buffer input) {
    KernelOp& op = (*ops_)[i];
    const Plan& plan = PlanFor(op.kind);
    const auto& steps = inverse ? plan.inverse : plan.forward;
    ce::InvokeOptions options;
    options.target = inverse ? ce::ExecTarget::kAuto : op.target;
    options.tenant = op.tenant;
    steps_ += steps.size();
    if (Tracer::Get().enabled()) NoteInput(steps, input.span());
    dpdpu::Result<ce::WorkItemPtr> item = [&] {
      ScopedSpan span(SpanKind::kInvoke);
      return steps.size() == 1
                 ? engine_->Invoke(steps[0].kernel, std::move(input),
                                   steps[0].params, options)
                 : engine_->InvokeFused(steps, std::move(input), options);
    }();
    if (!item.ok()) {
      Finish(i, item.status().ToString());
      return;
    }
    (*item)->OnComplete([this, i, inverse](ce::WorkItem& w) {
      if (!w.result().ok()) {
        Finish(i, w.result().status().ToString());
        return;
      }
      KernelOp& op = (*ops_)[i];
      if (inverse) {
        op.inverse_out = w.result().value();
        Finish(i, "");
      } else {
        op.forward_out = w.result().value();
        if (PlanFor(op.kind).inverse.empty()) {
          Finish(i, "");
        } else {
          // The client submits the inverse job at a time unique to the
          // op, so it never ties with another benchmark submission.
          sim_->ScheduleAt(GridTime(sim_->now(), ops_->size(), i, true),
                           [this, i] { Job(i, true, (*ops_)[i].forward_out); });
        }
      }
    });
  }

  void Finish(size_t i, std::string error) {
    KernelOp& op = (*ops_)[i];
    op.finished = true;
    op.done_at = sim_->now();
    op.error = std::move(error);
    ++finished_;
    if (on_finish) on_finish(i);
  }

  // Repeated-input share: a job repeats when the same chain with the same
  // params already ran on identical bytes earlier in the round.
  void NoteInput(const std::vector<ce::ComputeEngine::FusedStep>& steps,
                 ByteSpan input) {
    uint64_t key = 0;
    for (const auto& step : steps) {
      key = Hash64(reinterpret_cast<const uint8_t*>(step.kernel.data()),
                   step.kernel.size(), key);
      for (const auto& [k, v] : step.params) {
        key = Hash64(reinterpret_cast<const uint8_t*>(k.data()), k.size(), key);
        key = Hash64(reinterpret_cast<const uint8_t*>(v.data()), v.size(), key);
      }
    }
    ++jobs_noted_;
    if (!seen_.insert(Hash64(input, key)).second) ++jobs_repeated_;
  }

  sim::Simulator* sim_;
  ce::ComputeEngine* engine_;
  const std::vector<Buffer>* payloads_;
  std::vector<KernelOp>* ops_;
  uint64_t finished_ = 0;
  uint64_t steps_ = 0;
  uint64_t jobs_noted_ = 0;
  uint64_t jobs_repeated_ = 0;
  std::unordered_set<uint64_t> seen_;
};

// Streams of KeyedRng draws.
enum Stream : uint64_t { kOrder = 1, kTenant };

// Bounded Pareto quantile on [lo, hi]: most payloads are small, most
// bytes sit in the large tail.
size_t ParetoQuantile(double u, double lo, double hi, double alpha) {
  double tail = 1.0 - std::pow(lo / hi, alpha);
  return size_t(lo / std::pow(1.0 - u * tail, 1.0 / alpha));
}

// Orders ops so that payload sizes spread evenly over the arrival window:
// the op of size rank r takes position frac(r * phi + rotation + jitter),
// a low-discrepancy sequence whose rotation and small per-op jitter come
// from the seed. Large payloads then never bunch up, which keeps the tail
// of the latency distribution a property of the workload, not of the seed.
void SpreadBySize(std::vector<KernelOp>* ops, uint64_t seed) {
  std::stable_sort(ops->begin(), ops->end(),
                   [](const KernelOp& a, const KernelOp& b) {
                     return a.payload > b.payload;  // payload = size here
                   });
  double n = double(ops->size());
  double rotation = KeyedRng(seed, kOrder, 0).NextDouble();
  std::vector<std::pair<double, KernelOp>> keyed;
  for (size_t r = 0; r < ops->size(); ++r) {
    double jitter = KeyedRng(seed, kOrder, r + 1).NextDouble() * 4.0 / n;
    double key = double(r) * 0.6180339887498949 + rotation + jitter;
    keyed.emplace_back(key - std::floor(key), std::move((*ops)[r]));
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t r = 0; r < ops->size(); ++r) (*ops)[r] = std::move(keyed[r].second);
}

// Text payloads of the given sizes: consecutive slices of one generated
// corpus, so no two payloads share their bytes.
std::vector<Buffer> MakePayloads(const std::vector<size_t>& sizes,
                                 uint64_t seed) {
  size_t total = 0;
  for (size_t s : sizes) total += s;
  dpdpu::kern::TextGenOptions text;
  text.seed = seed;
  Buffer corpus = dpdpu::kern::GenerateText(total, text);
  std::vector<Buffer> payloads;
  payloads.reserve(sizes.size());
  size_t offset = 0;
  for (size_t s : sizes) {
    payloads.emplace_back(corpus.data() + offset, s);
    offset += s;
  }
  return payloads;
}

// Checks every op, fills the result's latencies, digest and layers.
void FinishRound(const std::vector<KernelOp>& ops,
                 const std::vector<Buffer>& payloads, sim::Simulator& sim,
                 hw::Server& server, ce::ComputeEngine& engine,
                 const KernelDriver& driver, RoundResult* result) {
  Digest digest;
  sim::SimTime first_due = ops.empty() ? 0 : ops[0].due;
  sim::SimTime last_done = 0;
  result->ops = ops.size();
  for (const KernelOp& op : ops) {
    std::string why = CheckOp(op, payloads[op.payload]);
    if (!why.empty()) {
      ++result->ops_failed;
      if (result->first_failure.empty()) result->first_failure = why;
    }
    first_due = std::min(first_due, op.due);
    last_done = std::max(last_done, op.done_at);
    result->latency_ns.push_back(op.done_at - op.due);
    digest.Add(op.forward_out.span());
    digest.Add(op.inverse_out.span());
  }
  // Ops that tie on a resource may swap latencies under another tie-break
  // order, so the digest takes the latency multiset, not per-op values.
  std::vector<uint64_t> sorted = result->latency_ns;
  std::sort(sorted.begin(), sorted.end());
  for (uint64_t v : sorted) digest.Add(v);
  HwViews views;
  AddServer(server, sim.now(), &views);
  for (const auto& [name, view] : views) digest.AddDouble(view.busy_ms);
  result->digest = digest.value();

  result->sim_span_ns = double(last_done - first_due);
  result->sim_host_busy_ns = double(server.host_cpu().resource().busy_time());

  auto& layer = result->layer;
  PutHwLayers(views, &layer);
  layer["sim.events"] = double(sim.events_executed());
  layer["ce.jobs.asic"] = engine.target_stats(ce::ExecTarget::kDpuAsic).jobs;
  layer["ce.jobs.dpu_cpu"] = engine.target_stats(ce::ExecTarget::kDpuCpu).jobs;
  layer["ce.jobs.host_cpu"] =
      engine.target_stats(ce::ExecTarget::kHostCpu).jobs;
  layer["ce.jobs.pcie"] = engine.target_stats(ce::ExecTarget::kPcieAccel).jobs;
  layer["ce.steps"] = double(driver.steps());
  if (driver.jobs_noted() > 0) {
    layer["ce.repeat_input_frac"] =
        double(driver.jobs_repeated()) / double(driver.jobs_noted());
  }
}

constexpr sim::SimTime kSlice = 100 * sim::kMicrosecond;
constexpr sim::SimTime kCap = 60 * sim::kSecond;

size_t Scaled(size_t n, double scale) {
  return std::max<size_t>(16, size_t(std::llround(double(n) * scale)));
}

}  // namespace

// --- kernel_offload ---------------------------------------------------------

namespace {
constexpr size_t kOffloadOps = 4000;
constexpr double kOffloadRatePerSec = 400e3;  // both tenants together
struct KindShare {
  OpKind kind;
  double share;
};
constexpr KindShare kOffloadMix[] = {{OpKind::kCompress, 0.35},
                                     {OpKind::kRegex, 0.25},
                                     {OpKind::kEncrypt, 0.20},
                                     {OpKind::kCrc32, 0.20}};
}  // namespace

RoundResult RunKernelOffloadRound(const RoundConfig& config) {
  RoundResult result;
  double t0 = HostNow();
  size_t n = Scaled(kOffloadOps, config.scale);
  // Each kind gets a fixed, stratified set of sizes, so every seed moves
  // the same bytes through every kernel; the seed sets order, arrival
  // times, tenants and content.
  std::vector<KernelOp> ops;
  for (const KindShare& mix : kOffloadMix) {
    size_t count = size_t(std::llround(double(n) * mix.share));
    for (size_t j = 0; j < count; ++j) {
      KernelOp op;
      op.kind = mix.kind;
      // `payload` holds the size until the payloads are generated below.
      op.payload = uint32_t(ParetoQuantile((double(j) + 0.5) / double(count),
                                           4096, 1 << 20, 1.1));
      ops.push_back(op);
    }
  }
  SpreadBySize(&ops, config.seed);
  std::vector<sim::SimTime> due =
      OpenLoopDueTimes(ops.size(), kOffloadRatePerSec, config.seed);
  std::vector<size_t> sizes;
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i].due = due[i];
    // Two independent Poisson tenants: a fair coin thins the arrivals.
    ops[i].tenant = KeyedRng(config.seed, kTenant, i).NextBool(0.5) ? 1 : 0;
    sizes.push_back(ops[i].payload);
    ops[i].payload = uint32_t(i);
  }
  std::vector<Buffer> payloads = MakePayloads(sizes, config.seed);
  result.setup_inputs_s = HostNow() - t0;

  double t1 = HostNow();
  sim::Simulator sim;
  hw::Server server(&sim, hw::DefaultServerSpec("kernel_offload"));
  ce::ComputeEngineOptions options;
  options.policy = ce::PlacementPolicy::kModelBased;
  ce::ComputeEngine engine(&server, WrappedBuiltinKernels(config.corrupt_first),
                           options);
  KernelDriver driver(&sim, &engine, &payloads, &ops);
  result.setup_platform_s = HostNow() - t1;

  double t2 = HostNow();
  // Open loop: one arrival event at a time, each scheduling the next.
  std::function<void(size_t)> arrive = [&](size_t i) {
    if (i + 1 < ops.size()) {
      sim.ScheduleAt(ops[i + 1].due, [&arrive, i] { arrive(i + 1); });
    }
    driver.Start(i);
  };
  sim.ScheduleAt(ops[0].due, [&arrive] { arrive(0); });
  bool drained = RunSim(sim, kSlice, kCap,
                        [&] { return driver.finished() == ops.size(); });
  result.run_s = HostNow() - t2;
  if (!drained) result.first_failure = "simulation hit its time cap";
  FinishRound(ops, payloads, sim, server, engine, driver, &result);
  result.sim_load_ns = double(ops.back().due - ops.front().due);
  return result;
}

// --- kernel_hot -------------------------------------------------------------

namespace {
constexpr size_t kHotOps = 60;
constexpr uint32_t kHotTenants = 2;
constexpr uint32_t kHotInflightPerTenant = 4;
// The bench suite's payloads and kernels: abl_scheduling's 2 MB and 32 KB
// tenants, the 1 MB buffer of abl_scheduling, abl_fusion and
// abl_placement, abl_placement's compress/encrypt/regex_count and
// abl_fusion's fused compress→encrypt.
constexpr size_t kHotSizes[] = {2 << 20, 1 << 20, 32 << 10};
constexpr KindShare kHotMix[] = {{OpKind::kCompress, 0.30},
                                 {OpKind::kEncrypt, 0.20},
                                 {OpKind::kRegex, 0.20},
                                 {OpKind::kFused, 0.30}};

// Specified-execution targets each kind may name (kAuto = scheduled).
std::vector<ce::ExecTarget> TargetsFor(OpKind kind) {
  using T = ce::ExecTarget;
  if (kind == OpKind::kFused) {
    return {T::kAuto, T::kDpuCpu, T::kHostCpu, T::kPcieAccel};
  }
  return {T::kAuto, T::kDpuAsic, T::kDpuCpu, T::kHostCpu, T::kPcieAccel};
}
}  // namespace

RoundResult RunKernelHotRound(const RoundConfig& config) {
  RoundResult result;
  double t0 = HostNow();
  size_t n = Scaled(kHotOps, config.scale);
  std::vector<size_t> sizes(std::begin(kHotSizes), std::end(kHotSizes));
  // Each kind cycles through the payloads and, independently, through its
  // targets. The op sequence is fixed (spread by size, as in
  // kernel_offload), like the bench suite's loops; the seed sets only the
  // payload bytes. With a few dozen ops of up to 2 MB, the slow job that
  // ends a round sets its makespan, so a seeded order moved sim_ops_per_s
  // and sim_host_cores by ~6 % (IQR/median over ten seeds).
  std::vector<KernelOp> ops;
  for (const KindShare& mix : kHotMix) {
    size_t count = size_t(std::llround(double(n) * mix.share));
    std::vector<ce::ExecTarget> targets = TargetsFor(mix.kind);
    for (size_t j = 0; j < count; ++j) {
      KernelOp op;
      op.kind = mix.kind;
      op.target = targets[j % targets.size()];
      op.payload = uint32_t(sizes[j % sizes.size()]);  // size, until spread
      ops.push_back(op);
    }
  }
  SpreadBySize(&ops, /*seed=*/0);
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i].tenant = uint32_t(i % kHotTenants);
    ops[i].payload = uint32_t(
        std::find(sizes.begin(), sizes.end(), ops[i].payload) - sizes.begin());
  }
  std::vector<Buffer> payloads = MakePayloads(sizes, config.seed);
  result.setup_inputs_s = HostNow() - t0;

  double t1 = HostNow();
  sim::Simulator sim;
  hw::ServerSpec spec = hw::DefaultServerSpec("kernel_hot");
  spec.pcie_accelerator = hw::PcieAcceleratorSpec{};
  hw::Server server(&sim, spec);
  ce::ComputeEngineOptions options;
  options.policy = ce::PlacementPolicy::kModelBased;
  ce::ComputeEngine engine(&server, WrappedBuiltinKernels(config.corrupt_first),
                           options);
  KernelDriver driver(&sim, &engine, &payloads, &ops);
  result.setup_platform_s = HostNow() - t1;

  double t2 = HostNow();
  // Closed loop: tenant t owns ops t, t + kHotTenants, ...; each finished
  // op frees its slot for the tenant's next op, issued at a time unique to
  // that op (GridTime), so same-time completions cannot reorder issues.
  std::vector<size_t> next(kHotTenants);
  auto issue = [&](uint32_t tenant) {
    size_t i = next[tenant] * kHotTenants + tenant;
    if (i >= ops.size()) return;
    ++next[tenant];
    ops[i].due = GridTime(sim.now(), ops.size(), i, false);
    sim.ScheduleAt(ops[i].due, [&driver, i] { driver.Start(i); });
  };
  driver.on_finish = [&](size_t i) { issue(ops[i].tenant); };
  for (uint32_t tenant = 0; tenant < kHotTenants; ++tenant) {
    for (uint32_t slot = 0; slot < kHotInflightPerTenant; ++slot) issue(tenant);
  }
  bool drained = RunSim(sim, kSlice, kCap,
                        [&] { return driver.finished() == ops.size(); });
  result.run_s = HostNow() - t2;
  if (!drained) result.first_failure = "simulation hit its time cap";
  FinishRound(ops, payloads, sim, server, engine, driver, &result);
  result.sim_load_ns = result.sim_span_ns;  // a closed loop has no window
  return result;
}

}  // namespace perfbench
