#include "core/compute/dp_kernel.h"

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "hw/calibration.h"
#include "kern/chacha20.h"
#include "kern/crc32.h"
#include "kern/dedup.h"
#include "kern/deflate.h"
#include "kern/regex.h"
#include "kern/relational.h"

namespace dpdpu::ce {

namespace {

std::string ParamOr(const KernelParams& params, const std::string& key,
                    const std::string& fallback) {
  auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

// Param `key` (or `fallback` when absent) read as a T. The whole text
// must be a number that fits in T; anything else is InvalidArgument.
template <typename T>
Result<T> NumberParam(const KernelParams& params, const std::string& key,
                      const std::string& fallback) {
  std::string text = ParamOr(params, key, fallback);
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("kernel: param '" + key +
                                   "' is not a valid number: '" + text + "'");
  }
  return value;
}

// --- crypto parameter handling -------------------------------------------

std::array<uint8_t, kern::kChaCha20KeyBytes> KeyFromParams(
    const KernelParams& params) {
  std::array<uint8_t, kern::kChaCha20KeyBytes> key{};
  std::string raw = ParamOr(params, "key", "dpdpu-default-key");
  std::memcpy(key.data(), raw.data(),
              std::min(raw.size(), key.size()));
  return key;
}

std::array<uint8_t, kern::kChaCha20NonceBytes> NonceFromParams(
    const KernelParams& params) {
  std::array<uint8_t, kern::kChaCha20NonceBytes> nonce{};
  std::string raw = ParamOr(params, "nonce", "");
  std::memcpy(nonce.data(), raw.data(),
              std::min(raw.size(), nonce.size()));
  return nonce;
}

// --- relational parameter handling ---------------------------------------

Result<kern::Schema> SchemaFromParams(const KernelParams& params) {
  auto it = params.find("schema");
  if (it == params.end()) {
    return Status::InvalidArgument("kernel: missing 'schema' param");
  }
  std::vector<kern::ColumnSpec> columns;
  std::string_view spec = it->second;
  while (!spec.empty()) {
    size_t comma = spec.find(',');
    std::string_view field = spec.substr(0, comma);
    size_t colon = field.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("kernel: bad schema field");
    }
    std::string name(field.substr(0, colon));
    std::string_view type = field.substr(colon + 1);
    kern::ColumnType ct;
    if (type == "i64") {
      ct = kern::ColumnType::kInt64;
    } else if (type == "f64") {
      ct = kern::ColumnType::kDouble;
    } else if (type == "str") {
      ct = kern::ColumnType::kString;
    } else {
      return Status::InvalidArgument("kernel: bad schema type");
    }
    columns.push_back({std::move(name), ct});
    if (comma == std::string_view::npos) break;
    spec = spec.substr(comma + 1);
  }
  return kern::Schema(std::move(columns));
}

Result<kern::CompareOp> OpFromString(const std::string& op) {
  if (op == "==") return kern::CompareOp::kEq;
  if (op == "!=") return kern::CompareOp::kNe;
  if (op == "<") return kern::CompareOp::kLt;
  if (op == "<=") return kern::CompareOp::kLe;
  if (op == ">") return kern::CompareOp::kGt;
  if (op == ">=") return kern::CompareOp::kGe;
  return Status::InvalidArgument("kernel: bad comparison op " + op);
}

Result<kern::Value> LiteralFromParams(const KernelParams& params) {
  std::string type = ParamOr(params, "value_type", "i64");
  if (type == "i64") {
    DPDPU_ASSIGN_OR_RETURN(int64_t v,
                           NumberParam<int64_t>(params, "value", "0"));
    return kern::Value(v);
  }
  if (type == "f64") {
    DPDPU_ASSIGN_OR_RETURN(double v,
                           NumberParam<double>(params, "value", "0"));
    return kern::Value(v);
  }
  if (type == "str") return kern::Value(ParamOr(params, "value", "0"));
  return Status::InvalidArgument("kernel: bad value_type " + type);
}

// --- compress memo -------------------------------------------------------
//
// Simulated time comes from the cost models, not from running the kernel,
// so compressing one input at one level again only repeats host work. The
// builtin compress fn keeps a process-wide LRU of its outputs, keyed on the
// parsed level plus the full input bytes: the hash picks the bucket, and
// size plus memcmp decide equality. Every copy of the builtin's fn shares
// it; another kernel registered as "compress" never sees it. Only
// successful outputs are stored.
//
// A job's output is first needed at its completion event, so the builtin's
// prefetch hook queues the job's compress at launch for a few helper
// threads. The fn, still called once per job on the simulation thread,
// takes the finished output, runs a still-queued compress itself or waits
// for a running one. A prefetch is matched to that call by the input's
// address: it holds the job's input buffer, so while it exists no other
// buffer can sit at that address.

struct CompressMemoKey {
  size_t hash;  // of `input`
  int level;
  std::string_view input;
  bool operator==(const CompressMemoKey&) const = default;
};

struct CompressMemoKeyHash {
  size_t operator()(const CompressMemoKey& key) const { return key.hash; }
};

using SharedBuffer = std::shared_ptr<const Buffer>;

// Input and output are shared so that no copy is made under the lock;
// the input is often a prefetched job's own buffer.
struct CompressMemoEntry {
  size_t hash;
  int level;
  SharedBuffer input;
  SharedBuffer output;
  CompressMemoKey key() const { return {hash, level, input->view()}; }
};

struct CompressMemo {
  std::mutex mu;
  std::list<CompressMemoEntry> lru;  // most recently used first
  std::unordered_map<CompressMemoKey, std::list<CompressMemoEntry>::iterator,
                     CompressMemoKeyHash>
      index;  // keys view the entries' own input bytes
  size_t bytes = 0;
};

CompressMemo& TheCompressMemo() {
  static CompressMemo memo;
  return memo;
}

CompressMemoKey MakeCompressMemoKey(int level, ByteSpan input) {
  std::string_view bytes(reinterpret_cast<const char*>(input.data()),
                         input.size());
  return {std::hash<std::string_view>{}(bytes), level, bytes};
}

// The stored output for `key`, marked most recently used.
SharedBuffer LookupCompressMemo(const CompressMemoKey& key) {
  CompressMemo& memo = TheCompressMemo();
  std::lock_guard<std::mutex> lock(memo.mu);
  auto it = memo.index.find(key);
  if (it == memo.index.end()) return nullptr;
  memo.lru.splice(memo.lru.begin(), memo.lru, it->second);
  return it->second->output;
}

void StoreCompressMemo(const CompressMemoKey& key, SharedBuffer input,
                       SharedBuffer output) {
  // Evicted entries are freed after the lock is released.
  std::list<CompressMemoEntry> evicted;
  evicted.push_back({key.hash, key.level, std::move(input), std::move(output)});
  CompressMemo& memo = TheCompressMemo();
  std::lock_guard<std::mutex> lock(memo.mu);
  if (memo.index.contains(key)) return;  // stored since our lookup missed
  const CompressMemoEntry& entry = evicted.front();
  memo.bytes += entry.input->size() + entry.output->size();
  memo.lru.splice(memo.lru.begin(), evicted);
  memo.index.emplace(memo.lru.front().key(), memo.lru.begin());
  while (memo.bytes > kCompressMemoBudgetBytes && memo.lru.size() > 1) {
    const CompressMemoEntry& oldest = memo.lru.back();
    memo.bytes -= oldest.input->size() + oldest.output->size();
    memo.index.erase(oldest.key());
    evicted.splice(evicted.end(), memo.lru, std::prev(memo.lru.end()));
  }
}

// The memo's output for `input` at `level`, or DEFLATE's, then stored.
// `owned`, when set, holds `input`'s bytes for the memo to share. The
// memo keeps an exact-size copy of DEFLATE's output, whose buffer grew
// by doubling; the caller copies the output it returns, so a helper
// thread's allocations outlive it only in the memo.
Result<SharedBuffer> CompressMemoized(int level, ByteSpan input,
                                      SharedBuffer owned) {
  CompressMemoKey key = MakeCompressMemoKey(level, input);
  if (SharedBuffer hit = LookupCompressMemo(key)) return hit;
  kern::DeflateOptions options;
  options.level = level;
  DPDPU_ASSIGN_OR_RETURN(Buffer output, kern::DeflateCompress(input, options));
  auto shared = std::make_shared<const Buffer>(output);
  if (owned == nullptr) {
    owned = std::make_shared<const Buffer>(input.data(), input.size());
  }
  StoreCompressMemo(key, std::move(owned), shared);
  return shared;
}

// One job's compress, from its launch until the job's fn call takes it.
struct CompressPrefetch {
  enum class State { kQueued, kRunning, kDone };
  SharedBuffer input;
  int level;
  State state = State::kQueued;
  Result<SharedBuffer> output = SharedBuffer();  // once kDone
};

// The prefetches and the helper threads that run them. Its own lock, so
// that a helper comparing a large input in the memo never blocks the
// simulation thread's launches.
struct CompressPrefetchQueue {
  std::mutex mu;
  // In launch order. A running prefetch is never erased, so a helper's
  // iterator to the one it runs stays valid.
  std::list<CompressPrefetch> prefetches;
  size_t bytes = 0;                  // their input bytes
  std::condition_variable queued;    // a prefetch was queued, or stopping
  std::condition_variable finished;  // a prefetch is done
  bool stopping = false;
  std::vector<std::thread> helpers;  // started by the first prefetch

  CompressPrefetchQueue() = default;
  CompressPrefetchQueue(const CompressPrefetchQueue&) = delete;
  CompressPrefetchQueue& operator=(const CompressPrefetchQueue&) = delete;

  // At exit: each helper finishes the compress it is running, and no
  // queued one starts.
  ~CompressPrefetchQueue() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stopping = true;
    }
    queued.notify_all();
    for (std::thread& helper : helpers) helper.join();
  }
};

CompressPrefetchQueue& TheCompressPrefetchQueue() {
  // The helpers use the memo, so it must outlive the queue: a static
  // constructed first is destroyed last.
  TheCompressMemo();
  static CompressPrefetchQueue queue;
  return queue;
}

// A helper thread: runs queued prefetches, oldest first, until stopping.
void RunCompressHelper(CompressPrefetchQueue& queue) {
  std::unique_lock<std::mutex> lock(queue.mu);
  while (!queue.stopping) {
    auto it = std::find_if(
        queue.prefetches.begin(), queue.prefetches.end(),
        [](const CompressPrefetch& p) {
          return p.state == CompressPrefetch::State::kQueued;
        });
    if (it == queue.prefetches.end()) {
      queue.queued.wait(lock);
      continue;
    }
    it->state = CompressPrefetch::State::kRunning;
    SharedBuffer input = it->input;
    int level = it->level;
    lock.unlock();
    Result<SharedBuffer> output = SharedBuffer();
    try {
      output = CompressMemoized(level, input->span(), input);
    } catch (const std::bad_alloc&) {  // the job's fn reports it
      output = Status::ResourceExhausted("compress: out of memory");
    }
    lock.lock();
    it->output = std::move(output);
    it->state = CompressPrefetch::State::kDone;
    queue.finished.notify_all();
  }
}

// One helper per host core but the simulation thread's, at most 2: two
// matched three on perfbench's kernel_offload, and each helper's malloc
// arena adds to peak RSS.
int CompressHelperCount() {
  int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores - 1, 0, 2);
}

void CompressPrefetchFn(SharedBuffer input, const KernelParams& params) {
  static const int kHelpers = CompressHelperCount();
  Result<int> level = NumberParam<int>(params, "level", "6");
  // A bad level is the fn's to report. An empty input has no address of
  // its own, and one over the budget can never fit.
  if (kHelpers == 0 || !level.ok() || input->empty() ||
      input->size() > kCompressMemoBudgetBytes) {
    return;
  }
  CompressPrefetchQueue& queue = TheCompressPrefetchQueue();
  std::list<CompressPrefetch> dropped;  // freed outside the lock
  {
    std::lock_guard<std::mutex> lock(queue.mu);
    if (queue.helpers.empty()) {
      for (int i = 0; i < kHelpers; ++i) {
        queue.helpers.emplace_back(RunCompressHelper, std::ref(queue));
      }
    }
    // Make room by dropping done prefetches, oldest first; their output
    // is shared with the memo, which usually still holds it, and is at
    // most about as large as the input. Queued and running ones stay, as
    // they are needed soonest: when they alone fill the budget, this job
    // is not prefetched. A job that never takes its prefetch leaves it
    // to be run and then dropped.
    auto it = queue.prefetches.begin();
    while (queue.bytes + input->size() > kCompressMemoBudgetBytes &&
           it != queue.prefetches.end()) {
      if (it->state != CompressPrefetch::State::kDone) {
        ++it;
        continue;
      }
      queue.bytes -= it->input->size();
      dropped.splice(dropped.end(), queue.prefetches, it++);
    }
    if (queue.bytes + input->size() > kCompressMemoBudgetBytes) return;
    queue.bytes += input->size();
    queue.prefetches.push_back({std::move(input), *level});
  }
  queue.queued.notify_one();
}

// Takes the prefetch of this call's job, if there is one: its output once
// done (waiting while a helper runs it), or, while it is still queued, its
// input buffer in `*owned` so that this call runs it. nullopt unless done.
std::optional<Result<SharedBuffer>> TakeCompressPrefetch(int level,
                                                         ByteSpan input,
                                                         SharedBuffer* owned) {
  CompressPrefetchQueue& queue = TheCompressPrefetchQueue();
  std::unique_lock<std::mutex> lock(queue.mu);
  while (true) {
    auto it = std::find_if(
        queue.prefetches.begin(), queue.prefetches.end(),
        [&](const CompressPrefetch& p) {
          return p.input->data() == input.data() &&
                 p.input->size() == input.size() && p.level == level;
        });
    if (it == queue.prefetches.end()) return std::nullopt;
    if (it->state == CompressPrefetch::State::kRunning) {
      queue.finished.wait(lock);
      continue;  // look again: once done, it may have been dropped
    }
    std::optional<Result<SharedBuffer>> out;
    queue.bytes -= it->input->size();
    if (it->state == CompressPrefetch::State::kDone) {
      out = std::move(it->output);
    } else {
      *owned = std::move(it->input);
    }
    queue.prefetches.erase(it);
    return out;
  }
}

// --- builtin kernel implementations --------------------------------------

Result<Buffer> CompressFn(ByteSpan input, const KernelParams& params) {
  DPDPU_ASSIGN_OR_RETURN(int level, NumberParam<int>(params, "level", "6"));
  SharedBuffer owned;
  std::optional<Result<SharedBuffer>> done =
      TakeCompressPrefetch(level, input, &owned);
  if (!done) done = CompressMemoized(level, input, std::move(owned));
  DPDPU_ASSIGN_OR_RETURN(SharedBuffer output, std::move(*done));
  return *output;
}

Result<Buffer> DecompressFn(ByteSpan input, const KernelParams&) {
  return kern::DeflateDecompress(input);
}

Result<Buffer> EncryptFn(ByteSpan input, const KernelParams& params) {
  DPDPU_ASSIGN_OR_RETURN(uint32_t counter,
                         NumberParam<uint32_t>(params, "counter", "0"));
  return kern::ChaCha20Xor(KeyFromParams(params), NonceFromParams(params),
                           counter, input);
}

Result<Buffer> RegexCountFn(ByteSpan input, const KernelParams& params) {
  auto it = params.find("pattern");
  if (it == params.end()) {
    return Status::InvalidArgument("regex kernel: missing 'pattern'");
  }
  DPDPU_ASSIGN_OR_RETURN(kern::Regex re, kern::Regex::Compile(it->second));
  uint64_t count = re.CountMatches(std::string_view(
      reinterpret_cast<const char*>(input.data()), input.size()));
  Buffer out;
  out.AppendU64(count);
  return out;
}

Result<Buffer> Crc32Fn(ByteSpan input, const KernelParams&) {
  Buffer out;
  out.AppendU32(kern::Crc32(input));
  return out;
}

Result<Buffer> DedupChunkFn(ByteSpan input, const KernelParams&) {
  std::vector<kern::Chunk> chunks = kern::ChunkData(input);
  Buffer out;
  out.AppendU32(static_cast<uint32_t>(chunks.size()));
  for (const kern::Chunk& c : chunks) {
    out.AppendU64(c.offset);
    out.AppendU64(c.size);
    out.AppendU64(c.fingerprint);
  }
  return out;
}

Result<Buffer> FilterFn(ByteSpan input, const KernelParams& params) {
  DPDPU_ASSIGN_OR_RETURN(kern::Schema schema, SchemaFromParams(params));
  DPDPU_ASSIGN_OR_RETURN(kern::RowPageReader reader,
                         kern::RowPageReader::Open(&schema, input));
  int col = schema.FindColumn(ParamOr(params, "col", ""));
  if (col < 0) return Status::InvalidArgument("filter: unknown column");
  DPDPU_ASSIGN_OR_RETURN(kern::CompareOp op,
                         OpFromString(ParamOr(params, "op", "==")));
  DPDPU_ASSIGN_OR_RETURN(kern::Value literal, LiteralFromParams(params));
  auto pred = kern::Predicate::Compare(size_t(col), op, std::move(literal));
  DPDPU_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                         kern::FilterPage(reader, *pred));
  return kern::MaterializeRows(reader, rows);
}

Result<Buffer> AggregateFn(ByteSpan input, const KernelParams& params) {
  DPDPU_ASSIGN_OR_RETURN(kern::Schema schema, SchemaFromParams(params));
  DPDPU_ASSIGN_OR_RETURN(kern::RowPageReader reader,
                         kern::RowPageReader::Open(&schema, input));
  int col = schema.FindColumn(ParamOr(params, "col", ""));
  if (col < 0) return Status::InvalidArgument("aggregate: unknown column");
  std::string kind_str = ParamOr(params, "kind", "count");
  kern::AggregateKind kind;
  if (kind_str == "count") {
    kind = kern::AggregateKind::kCount;
  } else if (kind_str == "sum") {
    kind = kern::AggregateKind::kSum;
  } else if (kind_str == "min") {
    kind = kern::AggregateKind::kMin;
  } else if (kind_str == "max") {
    kind = kern::AggregateKind::kMax;
  } else if (kind_str == "avg") {
    kind = kern::AggregateKind::kAvg;
  } else {
    return Status::InvalidArgument("aggregate: bad kind " + kind_str);
  }
  DPDPU_ASSIGN_OR_RETURN(kern::Value v,
                         kern::AggregateColumn(reader, size_t(col), kind));
  Buffer out;
  if (std::holds_alternative<int64_t>(v)) {
    out.AppendU8(0);
    out.AppendU64(uint64_t(std::get<int64_t>(v)));
  } else {
    out.AppendU8(1);
    double d = std::get<double>(v);
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    out.AppendU64(bits);
  }
  return out;
}

}  // namespace

KernelRegistry KernelRegistry::Builtin() {
  namespace cal = hw::cal;
  KernelRegistry registry;
  auto add = [&registry](DpKernel k) {
    Status s = registry.Register(std::move(k));
    DPDPU_CHECK(s.ok());
  };
  add({kKernelCompress, hw::AcceleratorKind::kCompression,
       cal::kDeflateCyclesPerByte, cal::kKernelDispatchCycles, CompressFn,
       CompressPrefetchFn});
  add({kKernelDecompress, hw::AcceleratorKind::kCompression,
       cal::kInflateCyclesPerByte, cal::kKernelDispatchCycles,
       DecompressFn});
  add({kKernelEncrypt, hw::AcceleratorKind::kEncryption,
       cal::kChaCha20CyclesPerByte, cal::kKernelDispatchCycles, EncryptFn});
  add({kKernelDecrypt, hw::AcceleratorKind::kEncryption,
       cal::kChaCha20CyclesPerByte, cal::kKernelDispatchCycles, EncryptFn});
  add({kKernelRegexCount, hw::AcceleratorKind::kRegex,
       cal::kRegexCyclesPerByte, cal::kKernelDispatchCycles, RegexCountFn});
  add({kKernelCrc32, std::nullopt, cal::kCrc32CyclesPerByte,
       cal::kKernelDispatchCycles, Crc32Fn});
  add({kKernelDedupChunk, hw::AcceleratorKind::kDedup,
       cal::kDedupChunkCyclesPerByte, cal::kKernelDispatchCycles,
       DedupChunkFn});
  add({kKernelFilter, std::nullopt, cal::kFilterCyclesPerByte,
       cal::kKernelDispatchCycles, FilterFn});
  add({kKernelAggregate, std::nullopt, cal::kAggregateCyclesPerByte,
       cal::kKernelDispatchCycles, AggregateFn});
  return registry;
}

Status KernelRegistry::Register(DpKernel kernel) {
  if (kernels_.count(kernel.name) > 0) {
    return Status::AlreadyExists("kernel: " + kernel.name);
  }
  std::string name = kernel.name;
  kernels_.emplace(std::move(name), std::move(kernel));
  return Status::Ok();
}

const DpKernel* KernelRegistry::Find(const std::string& name) const {
  auto it = kernels_.find(name);
  return it == kernels_.end() ? nullptr : &it->second;
}

std::vector<std::string> KernelRegistry::List() const {
  std::vector<std::string> names;
  names.reserve(kernels_.size());
  for (const auto& [name, kernel] : kernels_) names.push_back(name);
  return names;
}

}  // namespace dpdpu::ce
