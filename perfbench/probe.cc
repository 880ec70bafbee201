#include "probe.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "core/runtime/metrics.h"
#include "sim/resource.h"

namespace perfbench {

namespace ce = dpdpu::ce;

double HostNow() {
  static const dpdpu::rt::WallTimer epoch;
  return epoch.Seconds();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

std::vector<dpdpu::sim::SimTime> OpenLoopDueTimes(size_t n,
                                                  double rate_per_sec,
                                                  uint64_t seed) {
  std::vector<double> gaps(n);
  double mean_ns = 1e9 / rate_per_sec;
  for (size_t j = 0; j < n; ++j) {
    gaps[j] = -std::log(1.0 - (double(j) + 0.5) / double(n)) * mean_ns;
  }
  Shuffle(&gaps, seed, /*stream=*/0x0A771DE5);
  std::vector<dpdpu::sim::SimTime> due(n);
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += gaps[i];
    due[i] = std::max<dpdpu::sim::SimTime>(dpdpu::sim::SimTime(t / 2) * 2,
                                           i == 0 ? 2 : due[i - 1] + 2);
  }
  return due;
}

dpdpu::sim::SimTime GridTime(dpdpu::sim::SimTime now, size_t ops, size_t i,
                             bool inverse) {
  dpdpu::sim::SimTime grid = 1;
  while (grid < 2 * ops) grid *= 2;
  return (now / grid + 1) * grid + 2 * dpdpu::sim::SimTime(i) +
         (inverse ? 1 : 0);
}

void Tracer::StartRound(uint32_t round, bool enabled) {
  enabled_ = enabled;
  round_ = round;
  stack_.clear();
  for (double& s : round_seconds_) s = 0;
  for (uint64_t& c : round_count_) c = 0;
  round_kernels_.clear();
}

int32_t Tracer::Begin(SpanKind kind, uint16_t name) {
  int32_t id = int32_t(spans_.size());
  int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{kind, name, round_, parent, HostNow(), 0});
  stack_.push_back(id);
  return id;
}

double Tracer::End(int32_t id) {
  Span& span = spans_[size_t(id)];
  span.end_s = HostNow();
  // Spans close in LIFO order: every caller is an RAII scope.
  stack_.pop_back();
  round_seconds_[size_t(span.kind)] += span.end_s - span.start_s;
  ++round_count_[size_t(span.kind)];
  return span.end_s - span.start_s;
}

uint16_t Tracer::Intern(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return uint16_t(i);
  }
  names_.push_back(name);
  return uint16_t(names_.size() - 1);
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (!f) return false;
  static const char* kKindNames[] = {"sim.run", "ce.invoke", "cluster.issue",
                                     "kern"};
  std::fprintf(f.get(), "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string name = kKindNames[size_t(s.kind)];
    if (s.kind == SpanKind::kKernel) name += "." + names_[s.name];
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":0,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", name.c_str(), s.round, s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, i, s.parent);
  }
  std::fprintf(f.get(), "]}\n");
  return std::ferror(f.get()) == 0;
}

ce::KernelRegistry WrappedBuiltinKernels(const std::string& corrupt_first) {
  ce::KernelRegistry builtin = ce::KernelRegistry::Builtin();
  ce::KernelRegistry wrapped;
  for (const std::string& name : builtin.List()) {
    ce::DpKernel kernel = *builtin.Find(name);
    uint16_t id = Tracer::Get().Intern(name);
    bool corrupt = name == corrupt_first;
    kernel.fn = [fn = std::move(kernel.fn), id, name, corrupt](
                    ByteSpan input, const ce::KernelParams& params)
        -> dpdpu::Result<Buffer> {
      Tracer& tracer = Tracer::Get();
      dpdpu::Result<Buffer> out = Buffer();
      if (tracer.enabled()) {
        int32_t span = tracer.Begin(SpanKind::kKernel, id);
        out = fn(input, params);
        Tracer::KernelTotals& t = tracer.round_kernels()[name];
        t.host_s += tracer.End(span);
        ++t.calls;
        t.in_bytes += input.size();
        t.out_bytes += out.ok() ? out->size() : 0;
      } else {
        out = fn(input, params);
      }
      static bool corrupted = false;
      if (corrupt && !corrupted && out.ok() && !out->empty()) {
        corrupted = true;
        (*out)[out->size() / 2] ^= 0x5A;
      }
      return out;
    };
    dpdpu::Status s = wrapped.Register(std::move(kernel));
    DPDPU_CHECK(s.ok());
  }
  return wrapped;
}

uint64_t Hash64(const uint8_t* data, size_t n, uint64_t seed) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  uint64_t h = seed ^ (uint64_t(n) * kMul);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 29;
  }
  uint64_t tail = 0;
  if (n > i) std::memcpy(&tail, data + i, n - i);
  return dpdpu::sim::SplitMix64(h ^ tail);
}

dpdpu::Pcg32 KeyedRng(uint64_t seed, uint64_t stream, uint64_t index) {
  return dpdpu::Pcg32(dpdpu::sim::SplitMix64(
                          seed ^ dpdpu::sim::SplitMix64(stream) ^
                          dpdpu::sim::SplitMix64(index + 0x5851F42D4C957F2Dull)),
                      stream * 2 + 1);
}

namespace {

void AddQueued(ResourceView* view, const dpdpu::sim::Resource& r) {
  view->busy_ms += double(r.busy_time()) / 1e6;
  view->has_wait = true;
  view->wait_ns.Merge(r.wait_histogram());
}

}  // namespace

void AddServer(dpdpu::hw::Server& server, dpdpu::sim::SimTime now,
               HwViews* views) {
  namespace hw = dpdpu::hw;
  HwViews& v = *views;
  double window_ms = double(now) / 1e6;
  AddQueued(&v["host_cpu"], server.host_cpu().resource());
  AddQueued(&v["dpu_cpu"], server.dpu_cpu().resource());
  for (hw::AcceleratorKind kind :
       {hw::AcceleratorKind::kCompression, hw::AcceleratorKind::kEncryption,
        hw::AcceleratorKind::kRegex}) {
    if (hw::Accelerator* asic = server.accelerator(kind)) {
      AddQueued(&v[std::string(hw::AcceleratorKindName(kind)) + "_asic"],
                asic->resource());
    }
  }
  // PcieLink keeps its lane private: busy time is bytes over bandwidth.
  v["pcie"].busy_ms += double(server.pcie().bytes_moved()) /
                       server.pcie().spec().bytes_per_sec * 1e3;
  v["ssd"].busy_ms += server.ssd().Utilization(now) *
                      server.ssd().spec().queue_depth * window_ms;
  v["nic_tx"].busy_ms += server.nic_tx().Utilization(now) * window_ms;
  if (hw::PcieAccelerator* accel = server.pcie_accelerator()) {
    v["pcie_accel"].busy_ms += accel->Utilization(now) *
                               accel->spec().max_concurrency * window_ms;
  }
}

void PutHwLayers(const HwViews& views, std::map<std::string, double>* layer) {
  for (const auto& [name, view] : views) {
    (*layer)["hw." + name + ".busy_ms"] = view.busy_ms;
    if (view.has_wait) {
      (*layer)["hw." + name + ".wait_p99_us"] =
          double(view.wait_ns.P99()) / 1e3;
    }
  }
}

}  // namespace perfbench
