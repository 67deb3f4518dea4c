#include "core/prune_pipeline.h"

#include <sstream>
#include <vector>

#include "prob/influence.h"
#include "prob/influence_kernel.h"
#include "util/self_check.h"

namespace pinocchio {
namespace {

void ReportClassificationViolation(const char* lemma, const RTreeEntry& entry,
                                   const InfluenceKernel& kernel,
                                   std::span<const Point> positions,
                                   bool influences) {
  std::ostringstream msg;
  msg.precision(17);
  msg << lemma << " violated: candidate " << entry.id << " at ("
      << entry.point.x << ", " << entry.point.y << ") was "
      << (influences ? "classified non-influencing but influences"
                     : "IA-certified but does not influence")
      << " the object (" << positions.size() << " positions, tau="
      << kernel.tau() << ", pf=" << kernel.pf().Name() << ")";
  ReportSelfCheckViolation(msg.str());
}

// The self-check audit: enumerates EVERY candidate of the index and
// re-derives its classification from the scalar reference. Lemma 3 demands
// that candidates outside the NIB never influence the object; Lemma 2 that
// candidates inside the IA always do. Candidates in the remnant ring carry
// no claim — validation decides them (and the kernel audits itself there).
void AuditClassification(const RTree& index, const ObjectRecord& rec,
                         const InfluenceKernel& kernel,
                         std::span<const Point> positions) {
  index.QueryRect(index.Bounds(), [&](const RTreeEntry& e) {
    if (!rec.nib.Contains(e.point)) {
      if (Influences(kernel.pf(), e.point, positions, kernel.tau())) {
        ReportClassificationViolation("Lemma 3 (NIB prune)", e, kernel,
                                      positions, true);
      }
    } else if (!rec.ia.IsEmpty() && rec.ia.Contains(e.point)) {
      if (!Influences(kernel.pf(), e.point, positions, kernel.tau())) {
        ReportClassificationViolation("Lemma 2 (IA certificate)", e, kernel,
                                      positions, false);
      }
    }
  });
}

/// One call's prune pass: the self-check flag and the scratch its records
/// refill, set up once and reused per record. Run() also counts each
/// candidate's pairs by class into `ia_credits` and `remnants` when they
/// are non-empty.
class PrunePass {
 public:
  PrunePass(const RTree& index, const InfluenceKernel& kernel,
            std::span<int64_t> ia_credits = {},
            std::span<int64_t> remnants = {})
      : index_(index),
        kernel_(kernel),
        self_check_(SelfCheckEnabled()),
        ia_credits_(ia_credits),
        remnants_(remnants) {}

  // The single QueryRect site of the prune phase: one record against every
  // candidate of the index, each hit decided in the visitor by the exact
  // region predicates, in index-visit order. The visitors are template
  // parameters so each caller's lambda inlines here.
  template <typename IaFn, typename RemnantFn>
  void Classify(const ObjectRecord& rec, std::span<const Point> positions,
                uint32_t record_index, size_t num_candidates,
                SolverStats* stats, const IaFn& ia_certified,
                const RemnantFn& remnant) {
    if (self_check_) AuditClassification(index_, rec, kernel_, positions);
    int64_t inside_nib = 0;
    index_.QueryRect(rec.nib.BoundingBox(), [&](const RTreeEntry& e) {
      if (!rec.nib.Contains(e.point)) return;  // Lemma 3
      ++inside_nib;
      if (!rec.ia.IsEmpty() && rec.ia.Contains(e.point)) {  // Lemma 2
        if (stats != nullptr) ++stats->pairs_pruned_by_ia;
        ia_certified(e, record_index);
      } else {
        remnant(e, record_index);
      }
    });
    if (stats != nullptr) {
      stats->pairs_pruned_by_nib +=
          static_cast<int64_t>(num_candidates) - inside_nib;
    }
  }

  /// Classify, then decide the record's remnant set C'' in one batch.
  void Run(const ObjectRecord& rec, std::span<const Point> positions,
           uint32_t record_index, size_t num_candidates, SolverStats* stats,
           const PruneInfluencedFn& influenced) {
    remnant_points_.clear();
    remnant_ids_.clear();
    Classify(
        rec, positions, record_index, num_candidates, stats,
        [&](const RTreeEntry& e, uint32_t k) {
          if (!ia_credits_.empty()) ++ia_credits_[e.id];
          influenced(e.id, k);
        },
        [&](const RTreeEntry& e, uint32_t) {
          if (!remnants_.empty()) ++remnants_[e.id];
          remnant_points_.push_back(e.point);
          remnant_ids_.push_back(e.id);
        });
    if (remnant_points_.empty()) return;
    // DecideMany runs the SIMD filter-and-refine path on tiers above
    // kScalar; decisions stay bit-identical to the scalar kernel (see
    // influence_kernel.h).
    remnant_influenced_.assign(remnant_points_.size(), 0);
    const InfluenceBatchCounters counters =
        kernel_.DecideMany(remnant_points_, positions, remnant_influenced_);
    if (stats != nullptr) {
      stats->pairs_validated += static_cast<int64_t>(remnant_points_.size());
      stats->positions_scanned += counters.positions_seen;
      stats->early_stops += counters.early_stops;
    }
    for (size_t i = 0; i < remnant_ids_.size(); ++i) {
      if (remnant_influenced_[i] != 0) {
        influenced(remnant_ids_[i], record_index);
      }
    }
  }

 private:
  const RTree& index_;
  const InfluenceKernel& kernel_;
  const bool self_check_;
  const std::span<int64_t> ia_credits_;
  const std::span<int64_t> remnants_;
  // The remnant set C'' of the current record and its decisions.
  std::vector<Point> remnant_points_;
  std::vector<uint32_t> remnant_ids_;
  std::vector<uint8_t> remnant_influenced_;
};

}  // namespace

void ClassifyCandidates(const RTree& index, const ObjectStore& store,
                        const InfluenceKernel& kernel, uint32_t first_record,
                        uint32_t last_record, size_t num_candidates,
                        SolverStats* stats, std::span<int64_t> ia_credits,
                        RecordCandidateLists* remnants) {
  PrunePass pass(index, kernel);
  remnants->first_record = first_record;
  remnants->counts.assign(last_record - first_record, 0);
  remnants->candidates.clear();
  for (uint32_t k = first_record; k < last_record; ++k) {
    const ObjectRecord& rec = store.records()[k];
    uint32_t& count = remnants->counts[k - first_record];
    pass.Classify(
        rec, store.positions(rec), k, num_candidates, stats,
        [&](const RTreeEntry& e, uint32_t) { ++ia_credits[e.id]; },
        [&](const RTreeEntry& e, uint32_t) {
          remnants->candidates.push_back(e.id);
          ++count;
        });
  }
}

void PruneAndValidate(const RTree& index, const ObjectStore& store,
                      const InfluenceKernel& kernel, uint32_t first_record,
                      uint32_t last_record, size_t num_candidates,
                      SolverStats* stats, PruneInfluencedFn influenced,
                      std::span<int64_t> ia_credits,
                      std::span<int64_t> remnants) {
  PrunePass pass(index, kernel, ia_credits, remnants);
  for (uint32_t k = first_record; k < last_record; ++k) {
    const ObjectRecord& rec = store.records()[k];
    pass.Run(rec, store.positions(rec), k, num_candidates, stats, influenced);
  }
}

}  // namespace pinocchio
