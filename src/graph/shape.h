// Tensor metadata: element types and shapes.
//
// The computation graph is a metadata-only representation — we never allocate
// real tensor storage. Shapes exist so that operation FLOP counts, tensor
// transfer sizes and device memory demands are derived from the same model
// definitions the paper trains.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>

namespace fastt {

enum class DType : uint8_t {
  kF32,
  kF16,
  kI32,
  kI64,
};

// Bytes per element.
int64_t DTypeSize(DType dtype);
const char* DTypeName(DType dtype);

// Dims are stored inline, so a shape (and the Operation holding it) owns no
// heap block. Every model in the zoo stays within kMaxRank; a higher rank is
// rejected at construction.
class TensorShape {
 public:
  static constexpr int64_t kMaxRank = 4;

  TensorShape() = default;
  TensorShape(std::initializer_list<int64_t> dims);
  explicit TensorShape(std::span<const int64_t> dims);

  int64_t rank() const { return rank_; }
  int64_t dim(int64_t i) const;
  std::span<const int64_t> dims() const {
    return {dims_.data(), static_cast<size_t>(rank_)};
  }

  // Product of dimensions; 1 for a scalar (rank 0).
  int64_t num_elements() const;

  int64_t ByteSize(DType dtype) const;

  // Returns a copy with dimension `i` replaced by `v`.
  TensorShape WithDim(int64_t i, int64_t v) const;

  std::string ToString() const;  // e.g. "[64,224,224,3]"

  // Dims past rank() stay 0, so the member-wise compare is the shape compare.
  bool operator==(const TensorShape& other) const = default;

 private:
  std::array<int64_t, kMaxRank> dims_{};
  int64_t rank_ = 0;
};

}  // namespace fastt
