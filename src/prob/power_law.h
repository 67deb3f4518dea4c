// The paper's default PF: the power-law check-in probability model of
// Liu et al. [21], PF(d) = rho * (d0 + d)^(-lambda).

#ifndef PINOCCHIO_PROB_POWER_LAW_H_
#define PINOCCHIO_PROB_POWER_LAW_H_

#include <string>

#include "prob/probability_function.h"

namespace pinocchio {

/// Power-law influence probability.
///
/// `rho` is the "behaviour pattern" factor — the influence probability at
/// distance zero (paper default 0.9). `lambda` controls the decay rate
/// (paper default 1.0). `d0` is the distance offset (paper: 1.0). The model
/// of [21] measures distance in kilometres; `unit_meters` converts from the
/// library's metre space (default 1000).
class PowerLawPF : public ProbabilityFunction {
 public:
  PowerLawPF(double rho, double lambda, double d0 = 1.0,
             double unit_meters = 1000.0);

  double operator()(double dist_meters) const override;
  double Inverse(double prob) const override;
  std::string Name() const override;

  double rho() const { return rho_; }
  double lambda() const { return lambda_; }
  double d0() const { return d0_; }

 private:
  double rho_;
  double lambda_;
  double d0_;
  double unit_meters_;
};

/// Checks PowerLawPF parameters (d0 = 1) that come from users, so callers
/// refuse bad ones instead of tripping the constructor's checks. Returns
/// "" when rho is in (0, 1] and lambda and unit_meters are positive (NaN
/// is none of these); otherwise a message on the first bad one, named by
/// the flag the CLI and the server read it from: "--rho must be in (0, 1]",
/// "--lambda must be > 0" or "--unit-km must be > 0".
std::string PowerLawParameterError(double rho, double lambda,
                                   double unit_meters);

}  // namespace pinocchio

#endif  // PINOCCHIO_PROB_POWER_LAW_H_
