#include "storage/table.h"

#include <cstdint>
#include <utility>

#include "common/mix64.h"

namespace rapid::storage {

namespace {

// Exact distinct set of int64 values for RecomputeStats: flat open
// addressing with linear probing, doubling at half load. A slot is
// occupied iff its stamp equals the current generation, so no value
// doubles as the empty marker (0 and INT64_MIN are real values), and
// Reset() starts the next column without clearing the buffers.
class DistinctSet {
 public:
  void Reset() {
    ++generation_;
    size_ = 0;
  }

  void Insert(int64_t value) {
    if (2 * (size_ + 1) > values_.size()) Grow();
    const size_t mask = values_.size() - 1;
    size_t i = Mix64(static_cast<uint64_t>(value)) & mask;
    while (stamps_[i] == generation_) {
      if (values_[i] == value) return;
      i = (i + 1) & mask;
    }
    stamps_[i] = generation_;
    values_[i] = value;
    ++size_;
  }

  size_t size() const { return size_; }

 private:
  void Grow() {
    const std::vector<int64_t> values = std::move(values_);
    const std::vector<uint32_t> stamps = std::move(stamps_);
    // Fresh stamps are 0 and generations start at 1, so the new
    // buffers are empty; re-insert the current column's values.
    values_.assign(values.empty() ? 64 : 2 * values.size(), 0);
    stamps_.assign(values_.size(), 0);
    size_ = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      if (stamps[i] == generation_) Insert(values[i]);
    }
  }

  std::vector<int64_t> values_;
  std::vector<uint32_t> stamps_;
  uint32_t generation_ = 0;
  size_t size_ = 0;
};

// Folds one vector into its column's min/max and distinct set.
template <typename T>
void Scan(const Vector& v, ColumnStats* st, DistinctSet* distinct) {
  const T* data = v.Data<T>();
  for (size_t row = 0; row < v.size(); ++row) {
    const auto value = static_cast<int64_t>(data[row]);
    if (value < st->min) st->min = value;
    if (value > st->max) st->max = value;
    distinct->Insert(value);
  }
}

}  // namespace

Table Table::Clone() const {
  Table out(name_, schema_);
  out.partitions_.reserve(partitions_.size());
  for (const Partition& p : partitions_) out.AddPartition(p.Clone());
  for (size_t c = 0; c < dictionaries_.size(); ++c) {
    if (dictionaries_[c] != nullptr) {
      out.dictionaries_[c] = std::make_unique<Dictionary>(*dictionaries_[c]);
    }
  }
  out.stats_ = stats_;
  out.scn_ = scn_;
  out.rows_per_chunk_ = rows_per_chunk_;
  return out;
}

void Table::RecomputeStats() {
  DistinctSet distinct;
  for (size_t col = 0; col < schema_.num_fields(); ++col) {
    ColumnStats& st = stats_[col];
    st.min = INT64_MAX;
    st.max = INT64_MIN;
    distinct.Reset();
    for (const Partition& part : partitions_) {
      for (size_t ci = 0; ci < part.num_chunks(); ++ci) {
        const Vector& v = part.chunk(ci).column(col);
        switch (v.type()) {
          case DataType::kInt8:
            Scan<int8_t>(v, &st, &distinct);
            break;
          case DataType::kInt16:
            Scan<int16_t>(v, &st, &distinct);
            break;
          case DataType::kInt32:
          case DataType::kDate:
            Scan<int32_t>(v, &st, &distinct);
            break;
          case DataType::kDictCode:
            Scan<uint32_t>(v, &st, &distinct);
            break;
          case DataType::kInt64:
          case DataType::kDecimal:
            Scan<int64_t>(v, &st, &distinct);
            break;
        }
      }
    }
    st.ndv = distinct.size();
    if (st.ndv == 0) st.min = st.max = 0;
  }
}

}  // namespace rapid::storage
