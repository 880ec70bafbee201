#include "core/compute/dp_kernel.h"

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <new>
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

// --- compress table ------------------------------------------------------
//
// Simulated time comes from the cost models, not from running the kernel,
// so compressing one input at one level again only repeats host work. The
// builtin compress fn keeps one process-wide table of DEFLATE runs. Every
// copy of the builtin's fn shares it; another kernel registered as
// "compress" never sees it. A failure is never kept.
//
// An entry is found two ways. By content: the input's hash, level and
// size pick a candidate, and memcmp decides equality, so equal inputs
// share one DEFLATE and its stored output. By job: a job's output is first
// needed at its completion event, so the builtin's prefetch hook enters
// the job's compress at launch, queued for a few helper threads, and the
// fn, still called once per job on the simulation thread, finds it by the
// input's address. The entry holds the job's input buffer, so while it
// exists no other buffer can sit at that address, and a launch never
// hashes its input.
//
// One mutex guards the table. No hash, memcmp or DEFLATE runs under it:
// inputs never change, so bytes are compared after it is released.

using SharedBuffer = std::shared_ptr<const Buffer>;

struct CompressKey {
  size_t hash;  // of the input
  int level;
  size_t size;  // of the input
  bool operator==(const CompressKey&) const = default;
};

struct CompressKeyHash {
  size_t operator()(const CompressKey& key) const { return key.hash; }
};

// One DEFLATE of one input at one level. Shared, so that a waiter or a
// byte comparison can outlive the table's hold on it.
struct Compress {
  enum class State { kQueued, kRunning, kDone };
  CompressKey key;     // `hash` is set once running
  SharedBuffer input;  // null while a call with no job runs it
  State state = State::kQueued;
  Result<SharedBuffer> output = SharedBuffer();  // once kDone
};

using CompressPtr = std::shared_ptr<Compress>;

// One helper per host core but the simulation thread's, at most 2. A
// third ran perfbench's kernel_offload about 11 % faster, but each
// helper's malloc arena adds to peak RSS, and three took kernel_hot's
// close to its bound.
int CompressHelperCount() {
  int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores - 1, 0, 2);
}

struct CompressTable {
  std::mutex mu;
  std::condition_variable queued;  // a job was entered, or stopping
  std::condition_variable landed;  // an entry is done
  // Running and stored entries by key, most recently used first. `bytes`
  // counts the stored ones' input and output.
  std::list<CompressPtr> lru;
  std::unordered_map<CompressKey, std::list<CompressPtr>::iterator,
                     CompressKeyHash>
      index;
  size_t bytes = 0;
  // Launched jobs' entries in launch order, until their fn takes them.
  std::list<CompressPtr> jobs;
  size_t job_bytes = 0;  // their input bytes
  bool stopping = false;
  const int helper_count = CompressHelperCount();
  std::vector<std::thread> helpers;  // started by the first job

  CompressTable() = default;
  CompressTable(const CompressTable&) = delete;
  CompressTable& operator=(const CompressTable&) = delete;

  // At exit: each helper finishes the DEFLATE it is running, and no
  // queued one starts.
  ~CompressTable() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stopping = true;
    }
    queued.notify_all();
    for (std::thread& helper : helpers) helper.join();
  }
};

CompressTable& TheCompressTable() {
  static CompressTable table;
  return table;
}

// Runs `c`, which its caller has marked running, on `input`, its bytes:
// shares the output of an entry with equal bytes once that one is done,
// or runs DEFLATE and stores an exact-size copy of the output (DEFLATE's
// buffer grew by doubling) as the newest entry. The only place DEFLATE
// runs.
void RunCompress(CompressTable& table, const CompressPtr& c, ByteSpan input) {
  std::string_view bytes(reinterpret_cast<const char*>(input.data()),
                         input.size());
  c->key.hash = std::hash<std::string_view>{}(bytes);
  std::list<CompressPtr> evicted;  // freed after the lock is released
  std::unique_lock<std::mutex> lock(table.mu);
  while (true) {
    auto it = table.index.find(c->key);
    if (it == table.index.end()) break;
    CompressPtr other = *it->second;
    while (other->state != Compress::State::kDone) table.landed.wait(lock);
    if (!other->output.ok()) continue;  // it left the table
    SharedBuffer other_input = other->input;
    lock.unlock();
    bool equal = other_input->view() == bytes;
    lock.lock();
    if (!equal) break;  // equal keys, different bytes
    it = table.index.find(c->key);
    if (it != table.index.end() && *it->second == other) {
      table.lru.splice(table.lru.begin(), table.lru, it->second);
    }
    c->output = other->output;
    c->state = Compress::State::kDone;
    lock.unlock();
    table.landed.notify_all();
    return;
  }
  // Only a caller that holds the key stores under it.
  const bool stores = !table.index.contains(c->key);
  if (stores) {
    table.lru.push_front(c);
    table.index.emplace(c->key, table.lru.begin());
  }
  lock.unlock();
  Result<SharedBuffer> output = SharedBuffer();
  SharedBuffer owned = c->input;
  try {
    Result<Buffer> deflated = kern::DeflateCompress(input, {c->key.level});
    if (!deflated.ok()) {
      output = deflated.status();
    } else {
      if (stores && owned == nullptr) {
        owned = std::make_shared<const Buffer>(input.data(), input.size());
      }
      output = std::make_shared<const Buffer>(*deflated);
    }
  } catch (const std::bad_alloc&) {  // a helper's reaches the job's fn
    output = Status::ResourceExhausted("compress: out of memory");
  }
  lock.lock();
  if (stores && !output.ok()) {
    table.lru.erase(table.index.at(c->key));
    table.index.erase(c->key);
  } else if (stores) {
    c->input = std::move(owned);
    table.bytes += c->input->size() + (*output)->size();
    table.lru.splice(table.lru.begin(), table.lru, table.index.at(c->key));
    // Evict done entries, least recently used first; the newest stays.
    for (auto it = std::prev(table.lru.end());
         table.bytes > kCompressMemoBudgetBytes && it != table.lru.begin();) {
      auto victim = it--;
      const Compress& old = **victim;
      if (old.state != Compress::State::kDone) continue;
      table.bytes -= old.input->size() + (*old.output)->size();
      table.index.erase(old.key);
      evicted.splice(evicted.end(), table.lru, victim);
    }
  }
  c->output = std::move(output);
  c->state = Compress::State::kDone;
  lock.unlock();
  table.landed.notify_all();
}

// A helper thread: runs queued jobs, oldest first, until stopping.
void RunCompressHelper(CompressTable& table) {
  std::unique_lock<std::mutex> lock(table.mu);
  while (!table.stopping) {
    auto it = std::find_if(
        table.jobs.begin(), table.jobs.end(), [](const CompressPtr& c) {
          return c->state == Compress::State::kQueued;
        });
    if (it == table.jobs.end()) {
      table.queued.wait(lock);
      continue;
    }
    CompressPtr c = *it;
    c->state = Compress::State::kRunning;
    lock.unlock();
    RunCompress(table, c, c->input->span());
    c = nullptr;  // released outside the lock
    lock.lock();
  }
}

void CompressPrefetchFn(SharedBuffer input, const KernelParams& params) {
  Result<int> level = NumberParam<int>(params, "level", "6");
  CompressTable& table = TheCompressTable();
  // A bad level is the fn's to report. An empty input has no address of
  // its own, and one over the budget can never fit.
  if (table.helper_count == 0 || !level.ok() || input->empty() ||
      input->size() > kCompressMemoBudgetBytes) {
    return;
  }
  const size_t size = input->size();
  auto c = std::make_shared<Compress>(
      Compress{{0, *level, size}, std::move(input)});
  std::list<CompressPtr> dropped;  // freed outside the lock
  {
    std::lock_guard<std::mutex> lock(table.mu);
    if (table.helpers.empty()) {
      for (int i = 0; i < table.helper_count; ++i) {
        table.helpers.emplace_back(RunCompressHelper, std::ref(table));
      }
    }
    // Make room by dropping done jobs, oldest first; their output is
    // usually still stored, and is at most about as large as the input.
    // Queued and running ones stay, as they are needed soonest: when they
    // alone fill the budget, this job is not prefetched. A job that never
    // takes its entry leaves it to be run and then dropped.
    auto it = table.jobs.begin();
    while (table.job_bytes + size > kCompressMemoBudgetBytes &&
           it != table.jobs.end()) {
      if ((*it)->state != Compress::State::kDone) {
        ++it;
        continue;
      }
      table.job_bytes -= (*it)->key.size;
      dropped.splice(dropped.end(), table.jobs, it++);
    }
    if (table.job_bytes + size > kCompressMemoBudgetBytes) return;
    table.job_bytes += size;
    table.jobs.push_back(std::move(c));
  }
  table.queued.notify_one();
}

// --- builtin kernel implementations --------------------------------------

// Takes this call's job entry, if there is one: runs it while still
// queued, waits for it while a helper runs it, or copies its output.
// A call with no job runs a fresh entry.
Result<Buffer> CompressFn(ByteSpan input, const KernelParams& params) {
  DPDPU_ASSIGN_OR_RETURN(int level, NumberParam<int>(params, "level", "6"));
  CompressTable& table = TheCompressTable();
  CompressPtr c;
  bool run = true;
  {
    std::unique_lock<std::mutex> lock(table.mu);
    auto it = std::find_if(
        table.jobs.begin(), table.jobs.end(), [&](const CompressPtr& job) {
          return job->input->data() == input.data() &&
                 job->key.size == input.size() && job->key.level == level;
        });
    if (it != table.jobs.end()) {
      c = std::move(*it);
      table.job_bytes -= input.size();
      table.jobs.erase(it);
      run = c->state == Compress::State::kQueued;
      if (run) {
        c->state = Compress::State::kRunning;
      } else {
        while (c->state != Compress::State::kDone) table.landed.wait(lock);
      }
    }
  }
  if (c == nullptr) {
    c = std::make_shared<Compress>(Compress{
        {0, level, input.size()}, nullptr, Compress::State::kRunning});
  }
  if (run) RunCompress(table, c, input);
  DPDPU_ASSIGN_OR_RETURN(SharedBuffer output, c->output);
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
  kern::Predicate pred{size_t(col), op, std::move(literal)};
  DPDPU_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                         kern::FilterPage(reader, pred));
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
