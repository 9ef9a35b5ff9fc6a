#include "engine/artifact_store.hpp"

#include <utility>

namespace wharf {

namespace {

std::size_t stage_index(ArtifactStage stage) {
  return static_cast<std::size_t>(static_cast<int>(stage));
}

}  // namespace

const char* to_string(ArtifactStage stage) {
  switch (stage) {
    case ArtifactStage::kInterference: return "interference";
    case ArtifactStage::kBusyWindow: return "busy_window";
    case ArtifactStage::kOverload: return "overload";
    case ArtifactStage::kDmmCurve: return "dmm_curve";
    case ArtifactStage::kIlp: return "ilp";
  }
  return "unknown";
}

ArtifactStore::ArtifactStore(std::size_t byte_budget) : byte_budget_(byte_budget) {}

std::uint64_t ArtifactStore::begin_epoch() {
  const util::MutexLock guard(mutex_);
  return ++epoch_;
}

std::optional<ArtifactStore::Found> ArtifactStore::lookup(ArtifactStage stage,
                                                          const ArtifactKey& key) {
  const util::MutexLock guard(mutex_);
  const auto it = entries_.find(Slot{key, stage});
  if (it == entries_.end()) return std::nullopt;
  recency_.splice(recency_.begin(), recency_, it->second.lru);
  return Found{it->second.value, it->second.epoch};
}

void ArtifactStore::insert(ArtifactStage stage, const ArtifactKey& key,
                           std::shared_ptr<const void> value, std::size_t weight,
                           std::uint8_t type_tag) {
  const util::MutexLock guard(mutex_);
  insert_locked(Slot{key, stage}, std::move(value), weight, type_tag);
}

void ArtifactStore::insert_locked(const Slot& slot, std::shared_ptr<const void> value,
                                  std::size_t weight, std::uint8_t type_tag) {
  mutex_.assert_held();
  StageStats& stats = stage_stats_[stage_index(slot.stage)];
  if (byte_budget_ > 0 && weight > byte_budget_) {
    ++stats.rejected;
    return;
  }
  if (entries_.count(slot) != 0) return;  // first insertion wins

  recency_.push_front(slot);
  entries_.emplace(slot, Entry{std::move(value), type_tag, weight, epoch_, recency_.begin()});
  resident_bytes_ += weight;
  ++stats.insertions;
  ++stats.resident_entries;
  stats.resident_bytes += weight;
  evict_to_budget_locked();
}

ArtifactStore::Resolved ArtifactStore::resolve(ArtifactStage stage, const ArtifactKey& key,
                                               const Compute& compute, std::uint8_t type_tag) {
  const Slot slot{key, stage};
  std::shared_ptr<Flight> flight;
  bool owner = false;
  {
    const util::MutexLock guard(mutex_);
    const auto it = entries_.find(slot);
    if (it != entries_.end()) {
      recency_.splice(recency_.begin(), recency_, it->second.lru);
      return Resolved{it->second.value, it->second.epoch, ResolveSource::kResident, 0};
    }
    std::shared_ptr<Flight>& open = flights_[slot];
    if (!open) {
      open = std::make_shared<Flight>();
      owner = true;
    } else {
      ++stage_stats_[stage_index(stage)].flights_shared;
    }
    flight = open;
  }

  if (!owner) {
    const util::MutexLock lock(flight->mutex);
    while (!flight->done) flight->done_cv.wait(flight->mutex);
    if (flight->error) std::rethrow_exception(flight->error);
    return Resolved{flight->value, 0, ResolveSource::kShared, 0};
  }

  std::shared_ptr<const void> value;
  std::size_t weight = 0;
  try {
    auto made = compute();
    value = std::move(made.first);
    weight = made.second;
  } catch (...) {
    {
      const util::MutexLock guard(mutex_);
      flights_.erase(slot);
    }
    {
      const util::MutexLock lock(flight->mutex);
      flight->error = std::current_exception();
      flight->done = true;
    }
    flight->done_cv.notify_all();
    throw;
  }

  std::uint64_t inserted_epoch = 0;
  {
    // Publish the entry and retire the flight atomically w.r.t. new
    // resolve() calls: a caller arriving now either finds the entry
    // (resident) or, before this block, the open flight — never neither.
    const util::MutexLock guard(mutex_);
    inserted_epoch = epoch_;
    insert_locked(slot, value, weight, type_tag);
    flights_.erase(slot);
  }
  {
    const util::MutexLock lock(flight->mutex);
    flight->value = value;
    flight->done = true;
  }
  flight->done_cv.notify_all();
  return Resolved{std::move(value), inserted_epoch, ResolveSource::kComputed, weight};
}

void ArtifactStore::evict_to_budget_locked() {
  mutex_.assert_held();
  while (byte_budget_ > 0 && resident_bytes_ > byte_budget_ && !recency_.empty()) {
    const auto victim = entries_.find(recency_.back());
    StageStats& stats = stage_stats_[stage_index(recency_.back().stage)];
    resident_bytes_ -= victim->second.weight;
    stats.resident_bytes -= victim->second.weight;
    --stats.resident_entries;
    ++stats.evictions;
    entries_.erase(victim);
    recency_.pop_back();
  }
}

ArtifactStore::Stats ArtifactStore::stats() const {
  const util::MutexLock guard(mutex_);
  Stats out;
  out.stage = stage_stats_;
  out.resident_entries = entries_.size();
  out.resident_bytes = resident_bytes_;
  for (const StageStats& s : stage_stats_) out.evictions += s.evictions;
  return out;
}

std::vector<ArtifactStore::ExportedArtifact> ArtifactStore::export_artifacts() const {
  const util::MutexLock guard(mutex_);
  std::vector<ExportedArtifact> out;
  out.reserve(entries_.size());
  // recency_ is most-recent-first; walk from the back so the vector is
  // least-recent-first (re-insertion order reproduces recency).
  for (auto it = recency_.rbegin(); it != recency_.rend(); ++it) {
    const auto found = entries_.find(*it);
    if (found == entries_.end()) continue;
    const Entry& entry = found->second;
    out.push_back(ExportedArtifact{it->stage, entry.type_tag, it->key, entry.value, entry.weight});
  }
  return out;
}

void ArtifactStore::clear() {
  const util::MutexLock guard(mutex_);
  entries_.clear();
  recency_.clear();
  resident_bytes_ = 0;
  for (StageStats& s : stage_stats_) {
    s.resident_entries = 0;
    s.resident_bytes = 0;
  }
}

}  // namespace wharf
