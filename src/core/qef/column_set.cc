#include "core/qef/column_set.h"

#include "storage/dsb.h"

namespace rapid::core {

ColumnSet ColumnSet::Concat(std::vector<ColumnMeta> metas,
                            std::vector<ColumnSet> parts) {
  ColumnSet out(std::move(metas));
  size_t rows = 0;
  for (const ColumnSet& part : parts) {
    RAPID_DCHECK(part.num_columns() == out.num_columns());
    rows += part.num_rows();
    if (part.num_rows() > 0) out.meta_ = part.meta_;
  }
  for (std::vector<int64_t>& col : out.columns_) col.reserve(rows);
  for (ColumnSet& part : parts) {
    for (size_t c = 0; c < out.columns_.size(); ++c) {
      out.columns_[c].insert(out.columns_[c].end(), part.columns_[c].begin(),
                             part.columns_[c].end());
    }
    part = ColumnSet();
  }
  return out;
}

double ColumnSet::Decimal(size_t row, size_t col) const {
  return static_cast<double>(columns_[col][row]) /
         static_cast<double>(storage::Pow10(meta_[col].dsb_scale));
}

}  // namespace rapid::core
