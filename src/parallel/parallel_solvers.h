// Compatibility spelling for benchmark/driver.cc, which is frozen and still
// names the PIN-VO solver by its old parallel class. Every solver now takes
// its thread budget as a constructor argument (core/pinocchio_vo_solver.h);
// nothing else should include this header.

#ifndef PINOCCHIO_PARALLEL_PARALLEL_SOLVERS_H_
#define PINOCCHIO_PARALLEL_PARALLEL_SOLVERS_H_

#include "core/pinocchio_vo_solver.h"

namespace pinocchio {

using ParallelPinocchioVOSolver = PinocchioVOSolver;

}  // namespace pinocchio

#endif  // PINOCCHIO_PARALLEL_PARALLEL_SOLVERS_H_
