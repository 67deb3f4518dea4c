#include "prob/power_law.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "util/logging.h"

namespace pinocchio {

PowerLawPF::PowerLawPF(double rho, double lambda, double d0,
                       double unit_meters)
    : rho_(rho), lambda_(lambda), d0_(d0), unit_meters_(unit_meters) {
  PINO_CHECK_GT(rho, 0.0);
  PINO_CHECK_LE(rho, 1.0);
  PINO_CHECK_GT(lambda, 0.0);
  PINO_CHECK_GT(d0, 0.0);
  PINO_CHECK_GT(unit_meters, 0.0);
}

double PowerLawPF::operator()(double dist_meters) const {
  PINO_CHECK_GE(dist_meters, 0.0);
  const double d = dist_meters / unit_meters_;
  return rho_ * std::pow(d0_ + d, -lambda_);
}

double PowerLawPF::Inverse(double prob) const {
  const double max_prob = rho_ * std::pow(d0_, -lambda_);
  if (prob > max_prob) return 0.0;
  if (prob <= 0.0) return std::numeric_limits<double>::infinity();
  const double d = std::pow(rho_ / prob, 1.0 / lambda_) - d0_;
  return std::max(0.0, d) * unit_meters_;
}

std::string PowerLawPF::Name() const {
  std::ostringstream os;
  os << "PowerLaw(rho=" << rho_ << ", lambda=" << lambda_ << ")";
  return os.str();
}

std::string PowerLawParameterError(double rho, double lambda,
                                   double unit_meters) {
  if (!(rho > 0.0 && rho <= 1.0)) return "--rho must be in (0, 1]";
  if (!(lambda > 0.0)) return "--lambda must be > 0";
  if (!(unit_meters > 0.0)) return "--unit-km must be > 0";
  return "";
}

}  // namespace pinocchio
