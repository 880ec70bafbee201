#include "core/compute/dp_kernel.h"

#include <charconv>
#include <cstring>
#include <list>
#include <mutex>
#include <optional>
#include <string_view>
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

struct CompressMemoKey {
  size_t hash;  // of `input`
  int level;
  std::string_view input;
  bool operator==(const CompressMemoKey&) const = default;
};

struct CompressMemoKeyHash {
  size_t operator()(const CompressMemoKey& key) const { return key.hash; }
};

struct CompressMemoEntry {
  size_t hash;
  int level;
  Buffer input;
  Buffer output;
  CompressMemoKey key() const { return {hash, level, input.view()}; }
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

// A copy of the stored output for `key`, marked most recently used.
std::optional<Buffer> LookupCompressMemo(const CompressMemoKey& key) {
  CompressMemo& memo = TheCompressMemo();
  std::lock_guard<std::mutex> lock(memo.mu);
  auto it = memo.index.find(key);
  if (it == memo.index.end()) return std::nullopt;
  memo.lru.splice(memo.lru.begin(), memo.lru, it->second);
  return it->second->output;
}

void StoreCompressMemo(const CompressMemoKey& key, const Buffer& output) {
  // Copy outside the lock; the compression itself ran without it.
  CompressMemoEntry entry{key.hash, key.level, Buffer(key.input), output};
  CompressMemo& memo = TheCompressMemo();
  std::lock_guard<std::mutex> lock(memo.mu);
  if (memo.index.contains(key)) return;  // stored since our lookup missed
  memo.bytes += entry.input.size() + entry.output.size();
  memo.lru.push_front(std::move(entry));
  memo.index.emplace(memo.lru.front().key(), memo.lru.begin());
  while (memo.bytes > kCompressMemoBudgetBytes && memo.lru.size() > 1) {
    const CompressMemoEntry& oldest = memo.lru.back();
    memo.bytes -= oldest.input.size() + oldest.output.size();
    memo.index.erase(oldest.key());
    memo.lru.pop_back();
  }
}

// --- builtin kernel implementations --------------------------------------

Result<Buffer> CompressFn(ByteSpan input, const KernelParams& params) {
  kern::DeflateOptions options;
  DPDPU_ASSIGN_OR_RETURN(options.level, NumberParam<int>(params, "level", "6"));
  CompressMemoKey key = MakeCompressMemoKey(options.level, input);
  if (std::optional<Buffer> hit = LookupCompressMemo(key)) {
    return std::move(*hit);
  }
  DPDPU_ASSIGN_OR_RETURN(Buffer output, kern::DeflateCompress(input, options));
  StoreCompressMemo(key, output);
  return output;
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
       cal::kDeflateCyclesPerByte, cal::kKernelDispatchCycles, CompressFn});
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
