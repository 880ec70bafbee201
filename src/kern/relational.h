// Relational kernels: schema, serialized row pages, predicate evaluation,
// filtering, and aggregation. These back the paper's pushdown examples —
// "directly applies predicates on these tuples using the Compute Engine,
// and only sends the qualified tuples back" (Section 4).

#ifndef DPDPU_KERN_RELATIONAL_H_
#define DPDPU_KERN_RELATIONAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"

namespace dpdpu::kern {

enum class ColumnType : uint8_t { kInt64 = 0, kDouble = 1, kString = 2 };

struct ColumnSpec {
  std::string name;
  ColumnType type;
};

/// Ordered list of columns with name lookup.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnSpec> columns)
      : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const ColumnSpec& column(size_t i) const { return columns_[i]; }

  /// Index of the column named `name`, or -1.
  int FindColumn(std::string_view name) const;

 private:
  std::vector<ColumnSpec> columns_;
};

/// A single cell value.
using Value = std::variant<int64_t, double, std::string>;

ColumnType TypeOf(const Value& v);

/// Builds a serialized row page: fixed-width row slots plus a string heap.
/// Page layout (little-endian):
///   u32 magic, u32 row_count, u32 col_count, u8 type[col_count]
///   rows: per column, int64/double as 8 bytes; string as u32 off, u32 len
///   string heap
class RowPageBuilder {
 public:
  explicit RowPageBuilder(Schema schema) : schema_(std::move(schema)) {}

  /// Appends a row; value count and types must match the schema.
  Status AddRow(const std::vector<Value>& values);

  size_t row_count() const { return row_count_; }

  /// Serializes the page. The builder can keep accepting rows after.
  Buffer Finish() const;

 private:
  Schema schema_;
  size_t row_count_ = 0;
  Buffer fixed_;
  Buffer heap_;
};

/// Zero-copy reader over a serialized row page.
class RowPageReader {
 public:
  /// Validates the header against `schema`.
  static Result<RowPageReader> Open(const Schema* schema, ByteSpan page);

  size_t row_count() const { return row_count_; }
  const Schema& schema() const { return *schema_; }

  /// Reads one cell; bounds- and type-checked.
  Result<Value> Get(size_t row, size_t col) const;

 private:
  RowPageReader() = default;

  const Schema* schema_ = nullptr;
  ByteSpan page_;
  size_t row_count_ = 0;
  size_t row_width_ = 0;
  size_t rows_offset_ = 0;
  size_t heap_offset_ = 0;
};

// ---------------------------------------------------------------------------
// Predicates.
// ---------------------------------------------------------------------------

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// One comparison of a row's column against a literal: the predicate the
/// `filter` kernel's params express.
struct Predicate {
  size_t col = 0;
  CompareOp op = CompareOp::kEq;
  Value literal;

  /// Evaluates against one row; type mismatches fail.
  Result<bool> Eval(const RowPageReader& reader, size_t row) const;
};

// ---------------------------------------------------------------------------
// Kernels.
// ---------------------------------------------------------------------------

/// Returns the indices of rows satisfying `pred`.
Result<std::vector<uint32_t>> FilterPage(const RowPageReader& reader,
                                         const Predicate& pred);

/// Builds a new page containing only the selected rows.
Result<Buffer> MaterializeRows(const RowPageReader& reader,
                               const std::vector<uint32_t>& rows);

enum class AggregateKind : uint8_t { kCount, kSum, kMin, kMax, kAvg };

/// Aggregates a numeric column over the given rows (all rows when
/// `rows == nullptr`). Returns double for kAvg, the column's native type
/// otherwise (kCount returns int64).
Result<Value> AggregateColumn(const RowPageReader& reader, size_t col,
                              AggregateKind kind,
                              const std::vector<uint32_t>* rows = nullptr);

}  // namespace dpdpu::kern

#endif  // DPDPU_KERN_RELATIONAL_H_
