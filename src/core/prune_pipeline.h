// The shared IA/NIB prune pipeline (Algorithm 2, lines 3-9).
//
// Every PINOCCHIO-family solver runs the same per-object classification:
// probe the candidate R-tree with NIB(O)'s bounding box, drop candidates
// the exact NIB test excludes (Lemma 3), credit candidates inside IA(O) as
// influenced outright (Lemma 2), and hand the remnant set C'' to
// validation. PruneAndValidate is the one loop that runs all of it: it
// reports each influenced pair once to a visitor, so PIN counts and the
// influence sets append through the same code, and on request it also
// counts each candidate's pairs by prune class. The pass owns every pass
// counter of SolverStats (pairs_pruned_by_ia / pairs_pruned_by_nib from
// the prune phase, pairs_validated / positions_scanned / early_stops from
// the batch kernel). ClassifyCandidates is its prune phase alone, for the
// bracket builder behind the bound-ordered families, which validate later,
// one candidate at a time: it credits IA certificates per candidate and
// writes the remnants as record-major candidate-id lists.
//
// Each R-tree hit inside NIB(O)'s box is decided where the range query
// finds it, by the exact NIB and IA predicates on every SIMD tier: a
// vectorised pre-filter over batched hits measured slower than the two
// tests it screened (docs/ARCHITECTURE.md). The per-record scratch is set
// up once per call and reused across its records; callers pass a
// non-owning FunctionRef visitor, which keeps the per-object hot loop free
// of std::function allocations.
//
// Under PINOCCHIO_SELF_CHECK (util/self_check.h) every record's
// classification is audited against the scalar reference: each IA-certified
// candidate must actually influence the object (Lemma 2) and each
// NIB-pruned candidate must not (Lemma 3). The audit enumerates the whole
// candidate index per record, so self-checked solves cost O(naive); the
// kernel parameter supplies the (pf, tau) semantics being audited.

#ifndef PINOCCHIO_CORE_PRUNE_PIPELINE_H_
#define PINOCCHIO_CORE_PRUNE_PIPELINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/object_store.h"
#include "core/solver.h"
#include "index/rtree.h"
#include "util/function_ref.h"

namespace pinocchio {

class InfluenceKernel;

/// Visitor for influenced pairs (candidate id, record index).
using PruneInfluencedFn = FunctionRef<void(uint32_t, uint32_t)>;

/// Candidate ids of the record range [first_record, first_record +
/// counts.size()) in record-major order: the first counts[0] ids belong to
/// first_record, the next counts[1] to the record after it, and so on.
struct RecordCandidateLists {
  uint32_t first_record = 0;
  std::vector<uint32_t> counts;
  std::vector<uint32_t> candidates;
};

/// Classifies every candidate of `index` against records
/// [first_record, last_record) of the store. Per pair inside the record's
/// NIB: each IA certificate (Lemma 2) adds one to ia_credits[id] (one slot
/// per candidate), and `remnants` is reset to the range and receives every
/// other pair, in index-visit order within each record. Pairs outside the
/// NIB are pruned (Lemma 3). `stats` (nullable) receives
/// pairs_pruned_by_ia and pairs_pruned_by_nib; `num_candidates` is the
/// total candidate count the NIB counter is accounted against. `kernel`
/// carries the (pf, tau) the pruning regions were built for; it does no
/// work outside self-check mode.
void ClassifyCandidates(const RTree& index, const ObjectStore& store,
                        const InfluenceKernel& kernel, uint32_t first_record,
                        uint32_t last_record, size_t num_candidates,
                        SolverStats* stats, std::span<int64_t> ia_credits,
                        RecordCandidateLists* remnants);

/// The complete per-object PINOCCHIO pass (Algorithm 2) over records
/// [first_record, last_record), in record order: classify, then validate
/// each record's remnant with the batch kernel over its arena span. Every
/// influenced pair goes to `influenced` exactly once — IA certificates of
/// a record first, in index-visit order, then its validated remnants.
/// `stats` (nullable) receives every pass counter; `num_candidates` is as
/// for ClassifyCandidates. When `ia_credits` and `remnants` are non-empty
/// (one slot per candidate each), the same loop also counts every pair
/// inside the NIB by its class: one to ia_credits[id] per IA certificate,
/// one to remnants[id] per remnant pair: the starting bracket
/// [ia_credits, ia_credits + remnants] of query::BuildCandidateBrackets.
void PruneAndValidate(const RTree& index, const ObjectStore& store,
                      const InfluenceKernel& kernel, uint32_t first_record,
                      uint32_t last_record, size_t num_candidates,
                      SolverStats* stats, PruneInfluencedFn influenced,
                      std::span<int64_t> ia_credits = {},
                      std::span<int64_t> remnants = {});

/// One morsel worker's share of a prune pass over records: influence
/// credits (one slot per candidate), remnant counts (sized only by a pass
/// that counts them) and counters, padded to its own cache lines so one
/// worker's hot increments never invalidate another's. The pass sums the
/// shares once at the end — integer sums, so the totals are the same at
/// any thread budget.
struct alignas(128) PruneWorkerShare {
  std::vector<int64_t> influence;
  std::vector<int64_t> remnants;
  SolverStats stats;
};

}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_PRUNE_PIPELINE_H_
