// Differential fuzzing harness: generates randomized PRIME-LS instances
// (sweeping sizes, all PF families, boundary tau values and degenerate
// geometries), checks every prepared minMaxRadius against the reference
// search (min_max_radius_reference.h), runs every solver plus the
// skyline/diversified/approx families, the exact pass a server caches per
// snapshot (with its reader index, and the skyline and diversified
// families answered from it)
// and the stream engine's position-delta path (IncrementalPrimeLS and
// StreamingPrimeLS), and diffs the results against the NaiveSolver
// oracle, or against PIN over the slid windows. On a mismatch — or a
// PINOCCHIO_SELF_CHECK violation raised while solving — it records a
// human-readable failure and, when a reproducer directory is configured,
// dumps the instance as a binary dataset snapshot (src/data/binary_io)
// next to a sidecar describing the configuration.
//
// Instances are a pure function of the seed: replaying a failure is
// `fuzz_driver --seed_begin=S --seed_end=S+1`; the dumped snapshot exists
// so a failure archived from CI stays reproducible even if generation
// changes. See docs/ARCHITECTURE.md ("Self-check mode and the fuzz
// harness") for the workflow.

#ifndef PINOCCHIO_TESTS_TESTING_DIFFERENTIAL_HARNESS_H_
#define PINOCCHIO_TESTS_TESTING_DIFFERENTIAL_HARNESS_H_

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/solver.h"

namespace pinocchio {
namespace testing_diff {

/// Thrown (via the self-check violation handler the harness installs for
/// the duration of a case) when PINOCCHIO_SELF_CHECK detects a violated
/// pruning or validation invariant.
struct SelfCheckViolation : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One generated fuzz case. Everything is deterministic in the seed.
struct FuzzCase {
  ProblemInstance instance;
  SolverConfig config;
  /// Name of the PF family drawn for this case (for logs and sidecars).
  std::string pf_name;
  /// True when tau was snapped to (or one ulp around) an exact pair
  /// probability, exercising the >= threshold boundary.
  bool boundary_tau = false;
};

/// Regenerates the instance and configuration for `seed`.
FuzzCase GenerateFuzzCase(uint64_t seed);

struct FuzzOptions {
  /// Directory for reproducer dumps ("" disables dumping). Created on
  /// demand.
  std::string reproducer_dir;
  /// Also exercise the auxiliary paths (the exact pass, skyline,
  /// diversified, approx and the position-delta engine). The radius check
  /// and the core solver differential (PIN, PIN-VO, PIN-VO*, their thread
  /// sweeps and the two baselines) always run.
  bool check_auxiliary = true;
  /// Polled between cases; returning true stops the sweep early with the
  /// partial summary (FuzzSummary::interrupted set). The fuzz driver
  /// wires this to ShutdownRequested() so Ctrl-C still reports what ran.
  bool (*should_stop)() = nullptr;
};

struct FuzzCaseResult {
  uint64_t seed = 0;
  /// Human-readable invariant failures; empty means the case passed.
  std::vector<std::string> failures;
  /// Path of the dumped reproducer snapshot (empty if none was written).
  std::string reproducer_path;

  bool ok() const { return failures.empty(); }
};

/// Generates the case for `seed`, runs the full differential check and
/// returns the outcome. Installs a throwing self-check violation handler
/// for the duration of the call (restoring the fatal default afterwards)
/// so that violations surface as failures instead of aborting the sweep;
/// whether self-check verification actually runs is still governed by
/// SelfCheckEnabled().
FuzzCaseResult RunFuzzCase(uint64_t seed, const FuzzOptions& options = {});

struct FuzzSummary {
  uint64_t cases_run = 0;
  /// Results of the failing seeds only.
  std::vector<FuzzCaseResult> failures;
  /// True when options.should_stop ended the sweep before seed_end.
  bool interrupted = false;

  bool ok() const { return failures.empty(); }
};

/// Runs seeds in [seed_begin, seed_end). When `progress` is non-null,
/// failures are reported to it as they happen plus a periodic heartbeat.
FuzzSummary RunFuzzRange(uint64_t seed_begin, uint64_t seed_end,
                         const FuzzOptions& options = {},
                         std::ostream* progress = nullptr);

}  // namespace testing_diff
}  // namespace pinocchio

#endif  // PINOCCHIO_TESTS_TESTING_DIFFERENTIAL_HARNESS_H_
