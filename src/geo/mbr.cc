#include "geo/mbr.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace pinocchio {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

Mbr::Mbr() : min_x_(kInf), min_y_(kInf), max_x_(-kInf), max_y_(-kInf) {}

Mbr::Mbr(double min_x, double min_y, double max_x, double max_y)
    : min_x_(min_x), min_y_(min_y), max_x_(max_x), max_y_(max_y) {
  PINO_CHECK_LE(min_x, max_x);
  PINO_CHECK_LE(min_y, max_y);
}

Mbr Mbr::Of(std::span<const Point> points) {
  Mbr mbr;
  for (const Point& p : points) mbr.Expand(p);
  return mbr;
}

bool Mbr::IsEmpty() const { return min_x_ > max_x_; }

Point Mbr::Center() const {
  return {0.5 * (min_x_ + max_x_), 0.5 * (min_y_ + max_y_)};
}

double Mbr::HalfDiagonal() const {
  if (IsEmpty()) return 0.0;
  const double w = width();
  const double h = height();
  return 0.5 * std::sqrt(w * w + h * h);
}

void Mbr::Expand(const Point& p) {
  min_x_ = std::min(min_x_, p.x);
  min_y_ = std::min(min_y_, p.y);
  max_x_ = std::max(max_x_, p.x);
  max_y_ = std::max(max_y_, p.y);
}

void Mbr::Expand(const Mbr& other) {
  if (other.IsEmpty()) return;
  min_x_ = std::min(min_x_, other.min_x_);
  min_y_ = std::min(min_y_, other.min_y_);
  max_x_ = std::max(max_x_, other.max_x_);
  max_y_ = std::max(max_y_, other.max_y_);
}

Mbr Mbr::Union(const Mbr& other) const {
  Mbr result = *this;
  result.Expand(other);
  return result;
}

Mbr Mbr::Inflated(double margin) const {
  if (IsEmpty()) return *this;
  Mbr result = *this;
  result.min_x_ -= margin;
  result.min_y_ -= margin;
  result.max_x_ += margin;
  result.max_y_ += margin;
  PINO_CHECK_LE(result.min_x_, result.max_x_);
  return result;
}

bool Mbr::Contains(const Point& p) const {
  return p.x >= min_x_ && p.x <= max_x_ && p.y >= min_y_ && p.y <= max_y_;
}

bool Mbr::Contains(const Mbr& other) const {
  if (other.IsEmpty()) return true;
  if (IsEmpty()) return false;
  return other.min_x_ >= min_x_ && other.max_x_ <= max_x_ &&
         other.min_y_ >= min_y_ && other.max_y_ <= max_y_;
}

bool Mbr::Intersects(const Mbr& other) const {
  if (IsEmpty() || other.IsEmpty()) return false;
  return min_x_ <= other.max_x_ && other.min_x_ <= max_x_ &&
         min_y_ <= other.max_y_ && other.min_y_ <= max_y_;
}

double Mbr::IntersectionArea(const Mbr& other) const {
  if (!Intersects(other)) return 0.0;
  const double w =
      std::min(max_x_, other.max_x_) - std::max(min_x_, other.min_x_);
  const double h =
      std::min(max_y_, other.max_y_) - std::max(min_y_, other.min_y_);
  return w * h;
}

double Mbr::MinDistSquared(const Point& p) const {
  const double dx = std::max({min_x_ - p.x, 0.0, p.x - max_x_});
  const double dy = std::max({min_y_ - p.y, 0.0, p.y - max_y_});
  return dx * dx + dy * dy;
}

double Mbr::MaxDistSquared(const Point& p) const {
  const double dx = std::max(std::abs(p.x - min_x_), std::abs(p.x - max_x_));
  const double dy = std::max(std::abs(p.y - min_y_), std::abs(p.y - max_y_));
  return dx * dx + dy * dy;
}

double Mbr::MinDist(const Point& p) const {
  return std::sqrt(MinDistSquared(p));
}

double Mbr::MaxDist(const Point& p) const {
  return std::sqrt(MaxDistSquared(p));
}

bool operator==(const Mbr& a, const Mbr& b) {
  if (a.IsEmpty() && b.IsEmpty()) return true;
  return a.min_x_ == b.min_x_ && a.min_y_ == b.min_y_ &&
         a.max_x_ == b.max_x_ && a.max_y_ == b.max_y_;
}

std::ostream& operator<<(std::ostream& os, const Mbr& mbr) {
  if (mbr.IsEmpty()) return os << "Mbr(empty)";
  return os << "Mbr([" << mbr.min_x() << ", " << mbr.max_x() << "] x ["
            << mbr.min_y() << ", " << mbr.max_y() << "])";
}

}  // namespace pinocchio
