#include "core/streaming.h"

#include <algorithm>

#include "util/logging.h"

namespace pinocchio {

StreamingPrimeLS::StreamingPrimeLS(std::vector<Point> candidates,
                                   Options options)
    : options_(std::move(options)),
      inner_(std::move(candidates), options_.config) {
  PINO_CHECK_GT(options_.window_seconds, 0.0);
}

void StreamingPrimeLS::RequireMonotonicTime(double time) const {
  // now_ starts at -infinity, so the first observation passes for any
  // non-NaN time; a NaN fails the >= and is rejected like time travel.
  PINO_CHECK_GE(time, now_)
      << "observations must arrive in non-decreasing time order: got time="
      << time << " with now=" << now_;
}

void StreamingPrimeLS::ExpireUntil(double time) {
  // The window is the closed interval [time - window_seconds, time] (see
  // streaming.h): an observation at exactly the horizon is still live, so
  // only strictly older observations expire. Positions expire per object
  // in FIFO order, which is the global expiry order restricted to it.
  const double horizon = time - options_.window_seconds;
  while (!expiry_.empty() && expiry_.front().first < horizon) {
    PINO_CHECK(inner_.ExpireOldestPosition(expiry_.front().second));
    expiry_.pop_front();
    --live_positions_;
  }
}

void StreamingPrimeLS::SetBestChangedCallback(BestChangedCallback callback) {
  best_changed_ = std::move(callback);
  last_reported_best_ = inner_.Best();
}

void StreamingPrimeLS::NotifyIfBestChanged() {
  if (!best_changed_) return;
  const auto best = inner_.Best();
  if (best != last_reported_best_) {
    last_reported_best_ = best;
    best_changed_(best, now_);
  }
}

void StreamingPrimeLS::Observe(uint32_t object_id, double time,
                               const Point& position) {
  RequireMonotonicTime(time);
  now_ = std::max(now_, time);
  ExpireUntil(now_);
  expiry_.emplace_back(time, object_id);
  ++live_positions_;
  inner_.AppendPosition(object_id, position);
  NotifyIfBestChanged();
}

void StreamingPrimeLS::AdvanceTo(double time) {
  RequireMonotonicTime(time);
  now_ = std::max(now_, time);
  ExpireUntil(now_);
  NotifyIfBestChanged();
}

int64_t StreamingPrimeLS::InfluenceOf(size_t candidate_index) const {
  return inner_.InfluenceOf(candidate_index);
}

std::optional<std::pair<size_t, int64_t>> StreamingPrimeLS::Best() const {
  return inner_.Best();
}

std::vector<std::pair<size_t, int64_t>> StreamingPrimeLS::TopK(
    size_t k) const {
  return inner_.TopK(k);
}

}  // namespace pinocchio
