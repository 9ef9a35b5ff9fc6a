#include "core/model_slice.hpp"

#include <algorithm>

#include "core/segments.hpp"

namespace wharf {

// ---------------------------------------------------------------------
// ArtifactKey / KeyHasher (SipHash-2-4-128)
// ---------------------------------------------------------------------

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

/// The four SipHash state words, kept in locals while rounds run.
struct SipState {
  std::uint64_t v0;
  std::uint64_t v1;
  std::uint64_t v2;
  std::uint64_t v3;

  void rounds(int count) {
    for (int r = 0; r < count; ++r) {
      v0 += v1;
      v1 = rotl(v1, 13);
      v1 ^= v0;
      v0 = rotl(v0, 32);
      v2 += v3;
      v3 = rotl(v3, 16);
      v3 ^= v2;
      v0 += v3;
      v3 = rotl(v3, 21);
      v3 ^= v0;
      v2 += v1;
      v1 = rotl(v1, 17);
      v1 ^= v2;
      v2 = rotl(v2, 32);
    }
  }
};

// The reference key 00 01 .. 0f as two little-endian words.
constexpr std::uint64_t kKey0 = 0x0706050403020100ULL;
constexpr std::uint64_t kKey1 = 0x0f0e0d0c0b0a0908ULL;

}  // namespace

KeyHasher::KeyHasher()
    : v0_(0x736f6d6570736575ULL ^ kKey0),
      v1_(0x646f72616e646f6dULL ^ kKey1 ^ 0xeeULL),  // 128-bit output variant
      v2_(0x6c7967656e657261ULL ^ kKey0),
      v3_(0x7465646279746573ULL ^ kKey1) {}

void KeyHasher::compress(std::uint64_t word) {
  SipState s{v0_, v1_, v2_, v3_ ^ word};
  s.rounds(2);  // c = 2
  v0_ = s.v0 ^ word;
  v1_ = s.v1;
  v2_ = s.v2;
  v3_ = s.v3;
}

KeyHasher& KeyHasher::unaligned_u64(std::uint64_t value) {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>(value >> (8 * i));
  return bytes(le, sizeof le);
}

KeyHasher& KeyHasher::text(std::string_view value) {
  // Length word, then the bytes as little-endian words, the last one
  // zero-padded.
  u64(value.size());
  for (std::size_t at = 0; at < value.size(); at += 8) {
    std::uint64_t word = 0;
    const std::size_t take = std::min<std::size_t>(8, value.size() - at);
    for (std::size_t i = 0; i < take; ++i) {
      word |= static_cast<std::uint64_t>(static_cast<unsigned char>(value[at + i])) << (8 * i);
    }
    u64(word);
  }
  return *this;
}

KeyHasher& KeyHasher::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  length_ += size;
  for (std::size_t i = 0; i < size; ++i) {
    tail_ |= static_cast<std::uint64_t>(p[i]) << (8 * tail_bytes_);
    if (++tail_bytes_ == 8) {
      compress(tail_);
      tail_ = 0;
      tail_bytes_ = 0;
    }
  }
  return *this;
}

ArtifactKey KeyHasher::finish() const {
  const std::uint64_t last = (length_ << 56) | tail_;
  SipState s{v0_, v1_, v2_, v3_ ^ last};
  s.rounds(2);
  s.v0 ^= last;
  s.v2 ^= 0xee;
  s.rounds(4);  // d = 4
  const std::uint64_t lo = s.v0 ^ s.v1 ^ s.v2 ^ s.v3;
  s.v1 ^= 0xdd;
  s.rounds(4);
  return ArtifactKey{lo, s.v0 ^ s.v1 ^ s.v2 ^ s.v3};
}

ArtifactKey ArtifactKey::of_text(std::string_view text) {
  return KeyHasher().text("text").text(text).finish();
}

std::string ArtifactKey::to_hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (const std::uint64_t word : {lo, hi}) {
    for (int i = 0; i < 8; ++i) {
      const auto byte = static_cast<unsigned>((word >> (8 * i)) & 0xffu);
      out += kDigits[byte >> 4];
      out += kDigits[byte & 0xfu];
    }
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const ArtifactKey& key) { return os << key.to_hex(); }

// ---------------------------------------------------------------------
// Slice digests — each reads exactly what the stage reads (see the file
// comment of model_slice.hpp)
// ---------------------------------------------------------------------

namespace {

ArtifactKey arrival_digest(const Chain& chain) {
  return KeyHasher().text("arrival").text(chain.arrival().describe()).finish();
}

/// Full chain content: name, kind, arrival curve, deadline, overload
/// flag, per-task priorities and WCETs — the target side of every
/// per-target key.
ArtifactKey content_digest(const Chain& chain, const ArtifactKey& arrival) {
  KeyHasher h;
  h.text("chain").text(chain.name()).flag(chain.is_synchronous()).key(arrival);
  h.flag(chain.deadline().has_value()).i64(chain.deadline().value_or(0));
  h.flag(chain.is_overload()).u64(chain.tasks().size());
  for (const Task& task : chain.tasks()) h.i64(task.priority).i64(task.wcet);
  return h.finish();
}

/// What Defs 2–5 read about interferer `a` w.r.t. target `b`: per-task
/// WCETs and each task's priority compared against b's minimum (priorities
/// are globally unique, so one bit per task captures every comparison).
ArtifactKey interference_digest(const Chain& a, const Chain& b) {
  const Priority min_b = b.min_priority();
  KeyHasher h;
  h.text("ifc-slice").text(a.name()).flag(a.is_synchronous()).u64(a.tasks().size());
  for (const Task& task : a.tasks()) h.i64(task.wcet).flag(task.priority > min_b);
  return h.finish();
}

/// What the busy-window fixed point (Eq. 1/3/4) reads about interferer
/// `a` w.r.t. target `b`: arrival curve, total WCET, kind and — when `a`
/// is deferred — the header, segment and critical costs.  Raw priorities
/// never enter: an unchanged summary cannot change the fixed point.
ArtifactKey busy_interference_digest(const Chain& a, const Chain& b, const ArtifactKey& arrival) {
  KeyHasher h;
  h.text("bwi").text(a.name()).flag(a.is_synchronous()).key(arrival).i64(a.total_wcet());
  const bool deferred = is_deferred(a, b);
  h.flag(deferred);
  if (!deferred) return h.finish();
  h.i64(cost_of(a, header_segment_wrt(a, b)));
  const std::vector<Segment> segments = segments_wrt(a, b);
  h.u64(segments.size());
  Time total = 0;
  Time critical = 0;
  for (const Segment& s : segments) {
    h.i64(s.cost).flag(s.wraps);
    total = sat_add(total, s.cost);
    critical = std::max(critical, s.cost);
  }
  return h.i64(total).i64(critical).finish();
}

/// What Defs 8/9 read about overload chain `a` w.r.t. target `b`: the
/// arrival curve (Lemma 4's Ω term) and the active segments (parent
/// segment and cost each), which compare against b's tail priority.
ArtifactKey overload_digest(const Chain& a, const Chain& b, const ArtifactKey& arrival) {
  const std::vector<ActiveSegment> active = active_segments_wrt(a, b);
  KeyHasher h;
  h.text("ovl").text(a.name()).key(arrival).u64(active.size());
  for (const ActiveSegment& s : active) h.i64(s.segment_index).i64(s.cost);
  return h.finish();
}

}  // namespace

// ---------------------------------------------------------------------
// ModelDigests
// ---------------------------------------------------------------------

ModelDigests::ModelDigests(const System& system) : chains_(system.size()) {
  digests_.resize(2 * m() + 3 * m() * m());
  for (int c = 0; c < chains_; ++c) {
    const auto i = static_cast<std::size_t>(c);
    digests_[i] = arrival_digest(system.chain(c));
    digests_[m() + i] = content_digest(system.chain(c), arrival(c));
    ++stats_.misses;
  }
  for (int a = 0; a < chains_; ++a) {
    const Chain& interferer = system.chain(a);
    for (int b = 0; b < chains_; ++b) {
      if (a == b) continue;
      const Chain& target = system.chain(b);
      digests_[pair(kInterference, a, b)] = interference_digest(interferer, target);
      digests_[pair(kBusyInterference, a, b)] =
          busy_interference_digest(interferer, target, arrival(a));
      stats_.misses += 2;
      if (interferer.is_overload()) {
        digests_[pair(kOverload, a, b)] = overload_digest(interferer, target, arrival(a));
        ++stats_.misses;
      }
    }
  }
}

namespace {

/// True when every task of `a` compares the same against `threshold`
/// before and after a priority delta — the only way a slice reads the
/// interferer's priorities (priorities are globally unique, so `>` and
/// `<` are each other's negation for tasks of other chains).
bool same_comparisons(const Chain& before, Priority threshold_before, const Chain& after,
                      Priority threshold_after) {
  for (int i = 0; i < before.size(); ++i) {
    if ((before.task(i).priority > threshold_before) !=
        (after.task(i).priority > threshold_after)) {
      return false;
    }
  }
  return true;
}

}  // namespace

ModelDigests ModelDigests::derive_priorities(const System& parent, const System& child) const {
  // Pair slices read the interferer's priorities only through their
  // comparison against the target's minimum priority (interference and
  // busy-interference slices) and tail priority (overload slices), so a
  // pair is recomputed only when one of those comparisons flipped.
  ModelDigests out = *this;
  out.stats_ = {};
  for (int c = 0; c < chains_; ++c) {
    const std::vector<Task>& before = parent.chain(c).tasks();
    const std::vector<Task>& after = child.chain(c).tasks();
    if (!std::equal(before.begin(), before.end(), after.begin(), after.end(),
                    [](const Task& x, const Task& y) { return x.priority == y.priority; })) {
      out.digests_[m() + static_cast<std::size_t>(c)] = content_digest(child.chain(c), arrival(c));
      ++out.stats_.misses;
    } else {
      ++out.stats_.hits;
    }
  }
  for (int a = 0; a < chains_; ++a) {
    const Chain& before = parent.chain(a);
    const Chain& after = child.chain(a);
    for (int b = 0; b < chains_; ++b) {
      if (a == b) continue;
      const Chain& target_before = parent.chain(b);
      const Chain& target = child.chain(b);
      const bool min_same =
          same_comparisons(before, target_before.min_priority(), after, target.min_priority());
      if (min_same) {
        out.stats_.hits += 2;
      } else {
        out.digests_[pair(kInterference, a, b)] = interference_digest(after, target);
        out.digests_[pair(kBusyInterference, a, b)] =
            busy_interference_digest(after, target, arrival(a));
        out.stats_.misses += 2;
      }
      if (!after.is_overload()) continue;
      if (min_same && same_comparisons(before, target_before.tail().priority, after,
                                       target.tail().priority)) {
        ++out.stats_.hits;
      } else {
        out.digests_[pair(kOverload, a, b)] = overload_digest(after, target, arrival(a));
        ++out.stats_.misses;
      }
    }
  }
  return out;
}

ModelDigests ModelDigests::with_content(const System& system, int chain) const {
  ModelDigests out = *this;
  out.digests_[m() + static_cast<std::size_t>(chain)] =
      content_digest(system.chain(chain), arrival(chain));
  out.stats_ = DigestStats{stats_.hits + stats_.misses - 1, 1};
  return out;
}

// ---------------------------------------------------------------------
// Stage keys
// ---------------------------------------------------------------------

ArtifactKey interference_key(const System& system, const ModelDigests& digests, int target) {
  KeyHasher h;
  h.text("ifc").i64(target).key(digests.content(target));
  for (int a = 0; a < system.size(); ++a) {
    if (a != target) h.i64(a).key(digests.interference(a, target));
  }
  return h.finish();
}

ArtifactKey busy_window_key(const System& system, const ModelDigests& digests, int target,
                            const AnalysisOptions& options, bool without_overload) {
  KeyHasher h;
  h.text(without_overload ? "bw-noov" : "bw");
  h.i64(options.max_busy_windows).i64(options.max_fixed_point_iterations);
  h.i64(options.divergence_guard).flag(options.naive_arbitrary);
  h.key(digests.content(target));
  for (int a = 0; a < system.size(); ++a) {
    if (a == target || (without_overload && system.chain(a).is_overload())) continue;
    h.key(digests.busy_interference(a, target));
  }
  return h.finish();
}

ArtifactKey overload_key(const System& system, const ModelDigests& digests, int target,
                         const TwcaOptions& options, const ArtifactKey& busy_window_part) {
  KeyHasher h;
  h.text("ov").i64(target).i64(static_cast<int>(options.criterion));
  h.u64(options.max_combinations).key(busy_window_part);
  for (const int a : system.overload_indices()) {
    if (a != target) h.i64(a).key(digests.overload(a, target));
  }
  return h.finish();
}

ArtifactKey dmm_key(Count k, const TwcaOptions& options, const ArtifactKey& overload_part) {
  return KeyHasher().text("dmm").i64(k).flag(options.cap_at_k).key(overload_part).finish();
}

ArtifactKey interference_key(const System& system, int target) {
  return interference_key(system, ModelDigests(system), target);
}

ArtifactKey busy_window_key(const System& system, int target, const AnalysisOptions& options,
                            bool without_overload) {
  return busy_window_key(system, ModelDigests(system), target, options, without_overload);
}

ArtifactKey overload_key(const System& system, int target, const TwcaOptions& options) {
  const ModelDigests digests(system);
  return overload_key(system, digests, target, options,
                      busy_window_key(system, digests, target, options.analysis, false));
}

ArtifactKey dmm_key(const System& system, int target, Count k, const TwcaOptions& options) {
  return dmm_key(k, options, overload_key(system, target, options));
}

}  // namespace wharf
