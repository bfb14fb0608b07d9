// Vector: a flat, fixed-width array of one column's data inside a
// chunk (Section 4.1). The DPU sweet spot is 16 KiB per vector, which
// enables double buffering of DMS transfers.

#ifndef RAPID_STORAGE_VECTOR_H_
#define RAPID_STORAGE_VECTOR_H_

#include <cstdint>
#include <cstring>

#include "common/buffer.h"
#include "common/logging.h"
#include "storage/data_type.h"

namespace rapid::storage {

class Vector {
 public:
  Vector() : type_(DataType::kInt64), size_(0), capacity_(0), dsb_scale_(0) {}

  Vector(DataType type, size_t capacity)
      : type_(type),
        size_(0),
        capacity_(capacity),
        dsb_scale_(0),
        buffer_(capacity * WidthOf(type)) {}

  Vector(Vector&&) = default;
  Vector& operator=(Vector&&) = default;
  Vector(const Vector&) = delete;
  Vector& operator=(const Vector&) = delete;

  // Deep copy, for update-unit versioning and Table::Clone.
  Vector Clone() const {
    Vector out(type_, capacity_);
    out.size_ = size_;
    out.dsb_scale_ = dsb_scale_;
    std::memcpy(out.buffer_.data(), buffer_.data(), size_ * width());
    return out;
  }

  DataType type() const { return type_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  size_t width() const { return WidthOf(type_); }
  size_t byte_size() const { return size_ * width(); }

  // Common decimal scale of a DSB-encoded vector (power of 10).
  int dsb_scale() const { return dsb_scale_; }
  void set_dsb_scale(int scale) { dsb_scale_ = scale; }

  uint8_t* raw() { return buffer_.data(); }
  const uint8_t* raw() const { return buffer_.data(); }

  template <typename T>
  T* Data() {
    RAPID_DCHECK(sizeof(T) == width());
    return buffer_.as<T>();
  }
  template <typename T>
  const T* Data() const {
    RAPID_DCHECK(sizeof(T) == width());
    return buffer_.as<const T>();
  }

  // Generic accessors that widen to int64 regardless of the physical
  // width; used by row-oriented paths (host DB, tests).
  int64_t GetInt(size_t row) const {
    RAPID_DCHECK(row < size_);
    switch (type_) {
      case DataType::kInt8:
        return buffer_.as<const int8_t>()[row];
      case DataType::kInt16:
        return buffer_.as<const int16_t>()[row];
      case DataType::kInt32:
      case DataType::kDate:
        return buffer_.as<const int32_t>()[row];
      case DataType::kDictCode:
        return buffer_.as<const uint32_t>()[row];
      case DataType::kInt64:
      case DataType::kDecimal:
        return buffer_.as<const int64_t>()[row];
    }
    RAPID_CHECK(false);
  }

  void SetInt(size_t row, int64_t value) {
    RAPID_DCHECK(row < capacity_);
    switch (type_) {
      case DataType::kInt8:
        buffer_.as<int8_t>()[row] = static_cast<int8_t>(value);
        break;
      case DataType::kInt16:
        buffer_.as<int16_t>()[row] = static_cast<int16_t>(value);
        break;
      case DataType::kInt32:
      case DataType::kDate:
        buffer_.as<int32_t>()[row] = static_cast<int32_t>(value);
        break;
      case DataType::kDictCode:
        buffer_.as<uint32_t>()[row] = static_cast<uint32_t>(value);
        break;
      case DataType::kInt64:
      case DataType::kDecimal:
        buffer_.as<int64_t>()[row] = value;
        break;
    }
    if (row >= size_) size_ = row + 1;
  }

  void Append(int64_t value) { SetInt(size_, value); }

  void set_size(size_t size) {
    RAPID_DCHECK(size <= capacity_);
    size_ = size;
  }

 private:
  DataType type_;
  size_t size_;
  size_t capacity_;
  int dsb_scale_;
  AlignedBuffer buffer_;
};

}  // namespace rapid::storage

#endif  // RAPID_STORAGE_VECTOR_H_
