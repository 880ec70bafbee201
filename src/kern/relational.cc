#include "kern/relational.h"

#include <algorithm>
#include <cstring>

namespace dpdpu::kern {

namespace {

constexpr uint32_t kPageMagic = 0x44505031;  // "DPP1"

size_t SlotWidth(ColumnType type) {
  return type == ColumnType::kString ? 8 : 8;  // strings: u32 off + u32 len
}

size_t RowWidth(const Schema& schema) {
  size_t w = 0;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    w += SlotWidth(schema.column(i).type);
  }
  return w;
}

double AsDouble(const Value& v) {
  if (std::holds_alternative<int64_t>(v)) {
    return static_cast<double>(std::get<int64_t>(v));
  }
  return std::get<double>(v);
}

}  // namespace

int Schema::FindColumn(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

ColumnType TypeOf(const Value& v) {
  if (std::holds_alternative<int64_t>(v)) return ColumnType::kInt64;
  if (std::holds_alternative<double>(v)) return ColumnType::kDouble;
  return ColumnType::kString;
}

// ---------------------------------------------------------------------------
// RowPageBuilder.
// ---------------------------------------------------------------------------

Status RowPageBuilder::AddRow(const std::vector<Value>& values) {
  if (values.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row page: wrong column count");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (TypeOf(values[i]) != schema_.column(i).type) {
      return Status::InvalidArgument("row page: type mismatch in column " +
                                     schema_.column(i).name);
    }
  }
  for (size_t i = 0; i < values.size(); ++i) {
    const Value& v = values[i];
    switch (schema_.column(i).type) {
      case ColumnType::kInt64:
        fixed_.AppendU64(static_cast<uint64_t>(std::get<int64_t>(v)));
        break;
      case ColumnType::kDouble: {
        double d = std::get<double>(v);
        uint64_t bits;
        std::memcpy(&bits, &d, 8);
        fixed_.AppendU64(bits);
        break;
      }
      case ColumnType::kString: {
        const std::string& s = std::get<std::string>(v);
        fixed_.AppendU32(static_cast<uint32_t>(heap_.size()));
        fixed_.AppendU32(static_cast<uint32_t>(s.size()));
        heap_.Append(s);
        break;
      }
    }
  }
  ++row_count_;
  return Status::Ok();
}

Buffer RowPageBuilder::Finish() const {
  Buffer page;
  page.AppendU32(kPageMagic);
  page.AppendU32(static_cast<uint32_t>(row_count_));
  page.AppendU32(static_cast<uint32_t>(schema_.num_columns()));
  for (size_t i = 0; i < schema_.num_columns(); ++i) {
    page.AppendU8(static_cast<uint8_t>(schema_.column(i).type));
  }
  page.Append(fixed_.span());
  page.Append(heap_.span());
  return page;
}

// ---------------------------------------------------------------------------
// RowPageReader.
// ---------------------------------------------------------------------------

Result<RowPageReader> RowPageReader::Open(const Schema* schema,
                                          ByteSpan page) {
  ByteReader br(page);
  uint32_t magic, rows, cols;
  if (!br.ReadU32(&magic) || !br.ReadU32(&rows) || !br.ReadU32(&cols)) {
    return Status::Corruption("row page: truncated header");
  }
  if (magic != kPageMagic) return Status::Corruption("row page: bad magic");
  if (cols != schema->num_columns()) {
    return Status::InvalidArgument("row page: schema column count mismatch");
  }
  for (uint32_t i = 0; i < cols; ++i) {
    uint8_t t;
    if (!br.ReadU8(&t)) return Status::Corruption("row page: bad type list");
    if (t != static_cast<uint8_t>(schema->column(i).type)) {
      return Status::InvalidArgument("row page: schema type mismatch");
    }
  }
  RowPageReader r;
  r.schema_ = schema;
  r.page_ = page;
  r.row_count_ = rows;
  r.row_width_ = RowWidth(*schema);
  r.rows_offset_ = br.position();
  r.heap_offset_ = r.rows_offset_ + r.row_width_ * rows;
  if (r.heap_offset_ > page.size()) {
    return Status::Corruption("row page: truncated rows");
  }
  return r;
}

Result<Value> RowPageReader::Get(size_t row, size_t col) const {
  if (row >= row_count_) return Status::OutOfRange("row page: row");
  if (col >= schema_->num_columns()) {
    return Status::OutOfRange("row page: column");
  }
  size_t slot = rows_offset_ + row * row_width_;
  for (size_t i = 0; i < col; ++i) {
    slot += SlotWidth(schema_->column(i).type);
  }
  ByteReader br(page_.subspan(slot));
  switch (schema_->column(col).type) {
    case ColumnType::kInt64: {
      uint64_t bits;
      if (!br.ReadU64(&bits)) return Status::Corruption("row page: slot");
      return Value(static_cast<int64_t>(bits));
    }
    case ColumnType::kDouble: {
      uint64_t bits;
      if (!br.ReadU64(&bits)) return Status::Corruption("row page: slot");
      double d;
      std::memcpy(&d, &bits, 8);
      return Value(d);
    }
    case ColumnType::kString: {
      uint32_t off, len;
      if (!br.ReadU32(&off) || !br.ReadU32(&len)) {
        return Status::Corruption("row page: slot");
      }
      size_t begin = heap_offset_ + off;
      if (begin + len > page_.size()) {
        return Status::Corruption("row page: string out of bounds");
      }
      return Value(std::string(
          reinterpret_cast<const char*>(page_.data() + begin), len));
    }
  }
  return Status::Internal("row page: unknown column type");
}

// ---------------------------------------------------------------------------
// Predicate.
// ---------------------------------------------------------------------------

namespace {

template <typename T>
bool ApplyOp(CompareOp op, const T& a, const T& b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

}  // namespace

Result<bool> Predicate::Eval(const RowPageReader& reader, size_t row) const {
  DPDPU_ASSIGN_OR_RETURN(Value cell, reader.Get(row, col));
  if (TypeOf(cell) != TypeOf(literal)) {
    // Permit int64-vs-double numeric comparison.
    if (TypeOf(cell) != ColumnType::kString &&
        TypeOf(literal) != ColumnType::kString) {
      return ApplyOp(op, AsDouble(cell), AsDouble(literal));
    }
    return Status::InvalidArgument("predicate: type mismatch");
  }
  if (std::holds_alternative<int64_t>(cell)) {
    return ApplyOp(op, std::get<int64_t>(cell), std::get<int64_t>(literal));
  }
  if (std::holds_alternative<double>(cell)) {
    return ApplyOp(op, std::get<double>(cell), std::get<double>(literal));
  }
  return ApplyOp(op, std::get<std::string>(cell),
                 std::get<std::string>(literal));
}

// ---------------------------------------------------------------------------
// Kernels.
// ---------------------------------------------------------------------------

Result<std::vector<uint32_t>> FilterPage(const RowPageReader& reader,
                                         const Predicate& pred) {
  std::vector<uint32_t> out;
  for (size_t row = 0; row < reader.row_count(); ++row) {
    DPDPU_ASSIGN_OR_RETURN(bool keep, pred.Eval(reader, row));
    if (keep) out.push_back(static_cast<uint32_t>(row));
  }
  return out;
}

Result<Buffer> MaterializeRows(const RowPageReader& reader,
                               const std::vector<uint32_t>& rows) {
  RowPageBuilder builder(reader.schema());
  for (uint32_t row : rows) {
    std::vector<Value> values;
    values.reserve(reader.schema().num_columns());
    for (size_t col = 0; col < reader.schema().num_columns(); ++col) {
      DPDPU_ASSIGN_OR_RETURN(Value v, reader.Get(row, col));
      values.push_back(std::move(v));
    }
    DPDPU_RETURN_IF_ERROR(builder.AddRow(values));
  }
  return builder.Finish();
}

Result<Value> AggregateColumn(const RowPageReader& reader, size_t col,
                              AggregateKind kind,
                              const std::vector<uint32_t>* rows) {
  if (col >= reader.schema().num_columns()) {
    return Status::OutOfRange("aggregate: column");
  }
  ColumnType type = reader.schema().column(col).type;
  if (kind != AggregateKind::kCount && type == ColumnType::kString) {
    return Status::InvalidArgument("aggregate: non-count over string column");
  }

  size_t n = rows ? rows->size() : reader.row_count();
  if (kind == AggregateKind::kCount) {
    return Value(static_cast<int64_t>(n));
  }
  if (n == 0) {
    return Status::InvalidArgument("aggregate: empty input");
  }

  double dsum = 0;
  int64_t isum = 0;
  double dmin = 0, dmax = 0;
  int64_t imin = 0, imax = 0;
  bool first = true;
  for (size_t i = 0; i < n; ++i) {
    size_t row = rows ? (*rows)[i] : i;
    DPDPU_ASSIGN_OR_RETURN(Value v, reader.Get(row, col));
    if (type == ColumnType::kInt64) {
      int64_t x = std::get<int64_t>(v);
      isum += x;
      dsum += static_cast<double>(x);
      if (first || x < imin) imin = x;
      if (first || x > imax) imax = x;
    } else {
      double x = std::get<double>(v);
      dsum += x;
      if (first || x < dmin) dmin = x;
      if (first || x > dmax) dmax = x;
    }
    first = false;
  }
  switch (kind) {
    case AggregateKind::kSum:
      return type == ColumnType::kInt64 ? Value(isum) : Value(dsum);
    case AggregateKind::kMin:
      return type == ColumnType::kInt64 ? Value(imin) : Value(dmin);
    case AggregateKind::kMax:
      return type == ColumnType::kInt64 ? Value(imax) : Value(dmax);
    case AggregateKind::kAvg:
      return Value(dsum / double(n));
    case AggregateKind::kCount:
      break;  // handled above
  }
  return Status::Internal("aggregate: unknown kind");
}

}  // namespace dpdpu::kern
