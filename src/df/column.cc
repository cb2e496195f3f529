#include "df/column.h"

#include "core/check.h"

namespace geotorch::df {

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kDouble:
      return "double";
    case DataType::kInt64:
      return "int64";
    case DataType::kString:
      return "string";
    case DataType::kGeometry:
      return "geometry";
  }
  return "unknown";
}

Column::Column(DataType type) : type_(type) {}

Column Column::FromDoubles(std::vector<double> values) {
  Column c(DataType::kDouble);
  c.doubles_ = std::move(values);
  return c;
}
Column Column::FromInt64s(std::vector<int64_t> values) {
  Column c(DataType::kInt64);
  c.int64s_ = std::move(values);
  return c;
}
Column Column::FromStrings(std::vector<std::string> values) {
  Column c(DataType::kString);
  c.strings_ = std::move(values);
  return c;
}
Column Column::FromPoints(std::vector<spatial::Point> values) {
  Column c(DataType::kGeometry);
  c.points_ = std::move(values);
  return c;
}

Column Column::ViewDoubles(const double* data, int64_t n,
                           std::shared_ptr<const void> keepalive) {
  Column c(DataType::kDouble);
  c.view_ = data;
  c.view_size_ = n;
  c.keepalive_ = std::move(keepalive);
  return c;
}
Column Column::ViewInt64s(const int64_t* data, int64_t n,
                          std::shared_ptr<const void> keepalive) {
  Column c(DataType::kInt64);
  c.view_ = data;
  c.view_size_ = n;
  c.keepalive_ = std::move(keepalive);
  return c;
}
Column Column::ViewPoints(const spatial::Point* data, int64_t n,
                          std::shared_ptr<const void> keepalive) {
  Column c(DataType::kGeometry);
  c.view_ = data;
  c.view_size_ = n;
  c.keepalive_ = std::move(keepalive);
  return c;
}

int64_t Column::size() const {
  if (view_ != nullptr) return view_size_;
  switch (type_) {
    case DataType::kDouble:
      return static_cast<int64_t>(doubles_.size());
    case DataType::kInt64:
      return static_cast<int64_t>(int64s_.size());
    case DataType::kString:
      return static_cast<int64_t>(strings_.size());
    case DataType::kGeometry:
      return static_cast<int64_t>(points_.size());
  }
  return 0;
}

int64_t Column::ByteSize() const {
  if (view_ != nullptr) {
    switch (type_) {
      case DataType::kDouble:
        return view_size_ * static_cast<int64_t>(sizeof(double));
      case DataType::kInt64:
        return view_size_ * static_cast<int64_t>(sizeof(int64_t));
      case DataType::kGeometry:
        return view_size_ * static_cast<int64_t>(sizeof(spatial::Point));
      case DataType::kString:
        break;  // strings never have a view backing
    }
    return 0;
  }
  switch (type_) {
    case DataType::kDouble:
      return static_cast<int64_t>(doubles_.capacity() * sizeof(double));
    case DataType::kInt64:
      return static_cast<int64_t>(int64s_.capacity() * sizeof(int64_t));
    case DataType::kString: {
      int64_t bytes =
          static_cast<int64_t>(strings_.capacity() * sizeof(std::string));
      for (const auto& s : strings_) {
        bytes += static_cast<int64_t>(s.capacity());
      }
      return bytes;
    }
    case DataType::kGeometry:
      return static_cast<int64_t>(points_.capacity() *
                                  sizeof(spatial::Point));
  }
  return 0;
}

std::span<const double> Column::doubles() const {
  GEO_CHECK(type_ == DataType::kDouble);
  if (view_ != nullptr) {
    return {static_cast<const double*>(view_),
            static_cast<size_t>(view_size_)};
  }
  return {doubles_.data(), doubles_.size()};
}
std::span<const int64_t> Column::int64s() const {
  GEO_CHECK(type_ == DataType::kInt64);
  if (view_ != nullptr) {
    return {static_cast<const int64_t*>(view_),
            static_cast<size_t>(view_size_)};
  }
  return {int64s_.data(), int64s_.size()};
}
std::span<const std::string> Column::strings() const {
  GEO_CHECK(type_ == DataType::kString);
  return {strings_.data(), strings_.size()};
}
std::span<const spatial::Point> Column::points() const {
  GEO_CHECK(type_ == DataType::kGeometry);
  if (view_ != nullptr) {
    return {static_cast<const spatial::Point*>(view_),
            static_cast<size_t>(view_size_)};
  }
  return {points_.data(), points_.size()};
}
std::vector<double>& Column::mutable_doubles() {
  GEO_CHECK(type_ == DataType::kDouble && view_ == nullptr);
  return doubles_;
}
std::vector<int64_t>& Column::mutable_int64s() {
  GEO_CHECK(type_ == DataType::kInt64 && view_ == nullptr);
  return int64s_;
}
std::vector<std::string>& Column::mutable_strings() {
  GEO_CHECK(type_ == DataType::kString && view_ == nullptr);
  return strings_;
}
std::vector<spatial::Point>& Column::mutable_points() {
  GEO_CHECK(type_ == DataType::kGeometry && view_ == nullptr);
  return points_;
}

Value Column::Get(int64_t row) const {
  GEO_CHECK(row >= 0 && row < size());
  switch (type_) {
    case DataType::kDouble:
      return doubles()[row];
    case DataType::kInt64:
      return int64s()[row];
    case DataType::kString:
      return strings_[row];
    case DataType::kGeometry:
      return points()[row];
  }
  return 0.0;
}

void Column::Append(const Value& v) {
  GEO_CHECK(view_ == nullptr) << "cannot append to a view column";
  switch (type_) {
    case DataType::kDouble:
      doubles_.push_back(std::get<double>(v));
      return;
    case DataType::kInt64:
      int64s_.push_back(std::get<int64_t>(v));
      return;
    case DataType::kString:
      strings_.push_back(std::get<std::string>(v));
      return;
    case DataType::kGeometry:
      points_.push_back(std::get<spatial::Point>(v));
      return;
  }
}

void Column::Reserve(int64_t n) {
  GEO_CHECK(view_ == nullptr) << "cannot reserve on a view column";
  switch (type_) {
    case DataType::kDouble:
      doubles_.reserve(n);
      return;
    case DataType::kInt64:
      int64s_.reserve(n);
      return;
    case DataType::kString:
      strings_.reserve(n);
      return;
    case DataType::kGeometry:
      points_.reserve(n);
      return;
  }
}

Column Column::Gather(const std::vector<int64_t>& indices) const {
  Column out(type_);
  switch (type_) {
    case DataType::kDouble: {
      const auto src = doubles();
      out.doubles_.reserve(indices.size());
      for (int64_t i : indices) out.doubles_.push_back(src[i]);
      break;
    }
    case DataType::kInt64: {
      const auto src = int64s();
      out.int64s_.reserve(indices.size());
      for (int64_t i : indices) out.int64s_.push_back(src[i]);
      break;
    }
    case DataType::kString: {
      out.strings_.reserve(indices.size());
      for (int64_t i : indices) out.strings_.push_back(strings_[i]);
      break;
    }
    case DataType::kGeometry: {
      const auto src = points();
      out.points_.reserve(indices.size());
      for (int64_t i : indices) out.points_.push_back(src[i]);
      break;
    }
  }
  return out;
}

void Column::AppendFrom(const Column& other, int64_t row) {
  GEO_CHECK(type_ == other.type_ && view_ == nullptr);
  GEO_CHECK(row >= 0 && row < other.size());
  switch (type_) {
    case DataType::kDouble:
      doubles_.push_back(other.doubles()[row]);
      return;
    case DataType::kInt64:
      int64s_.push_back(other.int64s()[row]);
      return;
    case DataType::kString:
      strings_.push_back(other.strings_[row]);
      return;
    case DataType::kGeometry:
      points_.push_back(other.points()[row]);
      return;
  }
}

}  // namespace geotorch::df
