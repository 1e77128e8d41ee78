#include "graph/shape.h"

#include <vector>

#include "util/check.h"
#include "util/strings.h"

namespace fastt {

int64_t DTypeSize(DType dtype) {
  switch (dtype) {
    case DType::kF32:
      return 4;
    case DType::kF16:
      return 2;
    case DType::kI32:
      return 4;
    case DType::kI64:
      return 8;
  }
  return 4;
}

const char* DTypeName(DType dtype) {
  switch (dtype) {
    case DType::kF32:
      return "f32";
    case DType::kF16:
      return "f16";
    case DType::kI32:
      return "i32";
    case DType::kI64:
      return "i64";
  }
  return "?";
}

TensorShape::TensorShape(std::initializer_list<int64_t> dims)
    : TensorShape(std::span<const int64_t>(dims.begin(), dims.size())) {}

TensorShape::TensorShape(std::span<const int64_t> dims) {
  FASTT_CHECK_MSG(static_cast<int64_t>(dims.size()) <= kMaxRank,
                  StrFormat("rank %zu exceeds the inline capacity %lld",
                            dims.size(), static_cast<long long>(kMaxRank)));
  for (int64_t d : dims) {
    FASTT_CHECK_MSG(d >= 0, "negative dimension");
    dims_[static_cast<size_t>(rank_++)] = d;
  }
}

int64_t TensorShape::dim(int64_t i) const {
  FASTT_CHECK(i >= 0 && i < rank());
  return dims_[static_cast<size_t>(i)];
}

int64_t TensorShape::num_elements() const {
  int64_t n = 1;
  for (int64_t d : dims()) n *= d;
  return n;
}

int64_t TensorShape::ByteSize(DType dtype) const {
  return num_elements() * DTypeSize(dtype);
}

TensorShape TensorShape::WithDim(int64_t i, int64_t v) const {
  FASTT_CHECK(i >= 0 && i < rank());
  FASTT_CHECK(v >= 0);
  TensorShape out = *this;
  out.dims_[static_cast<size_t>(i)] = v;
  return out;
}

std::string TensorShape::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(static_cast<size_t>(rank_));
  for (int64_t d : dims()) parts.push_back(StrFormat("%lld", (long long)d));
  // Built via append rather than operator+ chains: GCC 12's -Wrestrict
  // false-fires on `"[" + std::string&& + "]"` at -O3 (PR105329).
  std::string out = "[";
  out += Join(parts, ",");
  out += "]";
  return out;
}

}  // namespace fastt
