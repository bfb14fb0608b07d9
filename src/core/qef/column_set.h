// ColumnSet: a DRAM-resident materialized intermediate result.
//
// Task boundaries materialize to DRAM (Section 5.2); a ColumnSet is
// what a task writes and the next task's relation accessor reads.
// Values are widened to int64 (intermediates in RAPID are fixed-width;
// we keep one width for simplicity and track the logical type and DSB
// scale per column for correct downstream interpretation).

#ifndef RAPID_CORE_QEF_COLUMN_SET_H_
#define RAPID_CORE_QEF_COLUMN_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "storage/data_type.h"
#include "storage/dictionary.h"

namespace rapid::core {

struct ColumnMeta {
  std::string name;
  storage::DataType type = storage::DataType::kInt64;
  int dsb_scale = 0;
  // Dictionary of the source column when the values are dictionary
  // codes (propagated through plans so results can decode to strings);
  // null otherwise. Not owned.
  const storage::Dictionary* dict = nullptr;
};

class ColumnSet {
 public:
  ColumnSet() = default;
  explicit ColumnSet(std::vector<ColumnMeta> meta)
      : meta_(std::move(meta)), columns_(meta_.size()) {}

  size_t num_columns() const { return meta_.size(); }
  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }

  const ColumnMeta& meta(size_t c) const { return meta_[c]; }
  ColumnMeta& meta(size_t c) { return meta_[c]; }
  const std::vector<ColumnMeta>& metas() const { return meta_; }

  std::vector<int64_t>& column(size_t c) { return columns_[c]; }
  const std::vector<int64_t>& column(size_t c) const { return columns_[c]; }

  void AppendRow(const std::vector<int64_t>& values) {
    RAPID_DCHECK(values.size() == columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].push_back(values[c]);
    }
  }

  // Concatenates `parts` in order into one set with schema `metas`
  // (positionally matching every part), sizing each column once from
  // the parts' row counts. Each part is released as soon as it is
  // copied. A column's metadata comes from the last part that holds
  // rows: the type and DSB scale its producer observed.
  static ColumnSet Concat(std::vector<ColumnMeta> metas,
                          std::vector<ColumnSet> parts);

  int64_t Value(size_t row, size_t col) const { return columns_[col][row]; }

  // Decodes a decimal column value to double using its DSB scale.
  double Decimal(size_t row, size_t col) const;

  Result<size_t> IndexOf(const std::string& name) const {
    for (size_t c = 0; c < meta_.size(); ++c) {
      if (meta_[c].name == name) return c;
    }
    return Status::NotFound("no column named '" + name + "'");
  }

 private:
  std::vector<ColumnMeta> meta_;
  std::vector<std::vector<int64_t>> columns_;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_QEF_COLUMN_SET_H_
