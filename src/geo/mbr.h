// Axis-aligned minimum bounding rectangle with the minDist / maxDist metrics
// of Roussopoulos et al. [33], which underpin both pruning rules.

#ifndef PINOCCHIO_GEO_MBR_H_
#define PINOCCHIO_GEO_MBR_H_

#include <limits>
#include <ostream>
#include <span>

#include "geo/point.h"

namespace pinocchio {

/// Axis-aligned rectangle in planar metre space.
///
/// An empty MBR (default-constructed) contains nothing; expanding it with a
/// first point makes it degenerate (a point), which models the paper's remark
/// that a single-position object degenerates PRIME-LS to classical LS.
class Mbr {
 public:
  /// Creates an empty MBR.
  Mbr();

  /// Creates the MBR [min_x, max_x] x [min_y, max_y]. Requires min <= max.
  Mbr(double min_x, double min_y, double max_x, double max_y);

  /// Tight MBR of a point set; empty if `points` is empty.
  static Mbr Of(std::span<const Point> points);

  bool IsEmpty() const;

  double min_x() const { return min_x_; }
  double min_y() const { return min_y_; }
  double max_x() const { return max_x_; }
  double max_y() const { return max_y_; }

  double width() const { return IsEmpty() ? 0.0 : max_x_ - min_x_; }
  double height() const { return IsEmpty() ? 0.0 : max_y_ - min_y_; }
  double Area() const { return width() * height(); }
  /// Sum of side lengths; the margin used by R*-style heuristics.
  double Margin() const { return 2.0 * (width() + height()); }
  Point Center() const;
  /// Half of the diagonal length; the radius of the circumscribed circle.
  double HalfDiagonal() const;

  /// Grows to include `p`.
  void Expand(const Point& p);
  /// Grows to include `other`.
  void Expand(const Mbr& other);
  /// Returns the union of this and `other` without mutating either.
  Mbr Union(const Mbr& other) const;
  /// Returns this rectangle grown by `margin` on every side.
  Mbr Inflated(double margin) const;

  /// True if `p` lies inside or on the boundary.
  bool Contains(const Point& p) const;
  /// True if `other` is fully inside (or equal to) this MBR.
  bool Contains(const Mbr& other) const;
  /// True if the rectangles share at least a boundary point.
  bool Intersects(const Mbr& other) const;
  /// Area of the intersection (0 when disjoint).
  double IntersectionArea(const Mbr& other) const;

  /// Shortest distance from `p` to any point of the rectangle (0 inside).
  double MinDist(const Point& p) const;
  /// Largest distance from `p` to any point of the rectangle; attained at
  /// the corner diagonally opposite `p`'s quadrant.
  double MaxDist(const Point& p) const;
  /// Squared variants, avoiding the sqrt on hot paths.
  double MinDistSquared(const Point& p) const;
  double MaxDistSquared(const Point& p) const;

  friend bool operator==(const Mbr& a, const Mbr& b);

 private:
  double min_x_, min_y_, max_x_, max_y_;
};

std::ostream& operator<<(std::ostream& os, const Mbr& mbr);

}  // namespace pinocchio

#endif  // PINOCCHIO_GEO_MBR_H_
