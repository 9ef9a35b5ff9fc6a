/// \file model_slice.hpp
/// Structural 128-bit artifact keys: what each analysis stage reads of
/// the system model, digested into one fixed-width key per stage.
///
/// The TWCA pipeline is staged: interference/segment structure (Defs
/// 2–5) → busy windows (Thm 1/2) → overload structures + unschedulable
/// combinations (Defs 8/9, Eq. 5) → dmm(k) (Thm 3) → combination-packing
/// ILP.  Each stage's result is a pure function of a *slice* of the
/// system model, usually much smaller than the whole system:
///
///  * the busy window of target σ_b reads σ_b in full, but of every
///    other chain σ_a only a derived interference summary — the
///    deferred/arbitrary classification and a handful of segment costs
///    (Eq. 1 never looks at σ_a's raw priorities, only at comparisons
///    against σ_b's minimum priority);
///  * the overload structure additionally reads the active segments of
///    overload chains w.r.t. σ_b (which compare against σ_b's minimum
///    *and* tail priority);
///  * the packing ILP reads nothing but capacities and item-resource
///    incidence.
///
/// A ModelDigests table holds one digest per chain (its full content)
/// and per (interferer, target) pair (interference, busy-interference
/// and overload slices).  Stage keys digest the target's content digest
/// together with the pair digests the stage reads, so two systems with
/// equal slices get equal keys, and tweaking one chain's priority
/// re-keys only the targets whose slices actually change.  A priority
/// delta re-derives the table from its parent, recomputing O(moved
/// chains × m) digests at most; nothing grows with the number of
/// systems keyed.
///
/// Every digest is SipHash-2-4-128 over length-prefixed, typed fields —
/// exactly the fields the canonical textual slice encodings carry (the
/// oracle the property suite audits the digests against), so equal
/// keys mean equal read sets up to a 2^-128-scale collision chance, and
/// keys are the same on every platform (they are persisted).
///
/// Caveat (shared with io::serialize_system): arrival models enter via
/// ArrivalModel::describe(), which is a faithful content encoding for
/// every library model but relies on user-defined models describing
/// themselves uniquely.

#ifndef WHARF_CORE_MODEL_SLICE_HPP
#define WHARF_CORE_MODEL_SLICE_HPP

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/system.hpp"
#include "core/twca.hpp"

namespace wharf {

/// A fixed-width 128-bit artifact key (one SipHash-2-4-128 digest).
struct ArtifactKey {
  std::uint64_t lo = 0;  ///< first 8 digest bytes, little-endian
  std::uint64_t hi = 0;  ///< last 8 digest bytes, little-endian

  ArtifactKey() = default;
  /// Wraps two raw digest words.
  constexpr ArtifactKey(std::uint64_t lo_word, std::uint64_t hi_word) : lo(lo_word), hi(hi_word) {}

  /// Implicit from text: an artifact named by a free-form string is
  /// keyed by the digest of that string (of_text()).
  template <typename Text,
            typename = std::enable_if_t<std::is_convertible_v<const Text&, std::string_view>>>
  ArtifactKey(const Text& text)  // NOLINT(google-explicit-constructor)
      : ArtifactKey(of_text(text)) {}

  /// Digest of a text-named key (a typed, length-prefixed field, so it
  /// never equals a structural stage key's digest by construction).
  [[nodiscard]] static ArtifactKey of_text(std::string_view text);

  /// The 16 digest bytes as 32 lowercase hex digits.
  [[nodiscard]] std::string to_hex() const;

  /// Hash functor for unordered containers (the digest is uniform, so
  /// one word is already a good bucket hash).
  struct Hash {
    /// Bucket hash of `key`.
    std::size_t operator()(const ArtifactKey& key) const noexcept {
      return static_cast<std::size_t>(key.lo ^ (key.hi >> 1));
    }
  };

  /// Keys are equal iff both digest words are.
  friend bool operator==(const ArtifactKey&, const ArtifactKey&) = default;
};

/// Prints the key's hex digest (diagnostics and test failure messages).
std::ostream& operator<<(std::ostream& os, const ArtifactKey& key);

/// Streaming SipHash-2-4-128 under a fixed public key (bytes 0x00..0x0f,
/// the reference key — keys are content addresses, not MACs).  Field
/// appenders write fixed-width little-endian words; text is
/// length-prefixed and zero-padded to a word boundary, so a sequence of
/// typed fields is never ambiguous.
class KeyHasher {
 public:
  /// Starts an empty digest.
  KeyHasher();

  /// Appends an unsigned 64-bit field.
  KeyHasher& u64(std::uint64_t value) {
    if (tail_bytes_ != 0) return unaligned_u64(value);
    compress(value);
    length_ += 8;
    return *this;
  }
  /// Appends a signed 64-bit field.
  KeyHasher& i64(std::int64_t value) { return u64(static_cast<std::uint64_t>(value)); }
  /// Appends a boolean field (one word).
  KeyHasher& flag(bool value) { return u64(value ? 1 : 0); }
  /// Appends a length-prefixed text field.
  KeyHasher& text(std::string_view value);
  /// Appends a nested digest (two words).
  KeyHasher& key(const ArtifactKey& value) { return u64(value.lo).u64(value.hi); }
  /// Appends raw bytes with no framing (callers frame them; the
  /// reference test vectors hash raw messages).
  KeyHasher& bytes(const void* data, std::size_t size);

  /// The 128-bit digest of everything appended so far.
  [[nodiscard]] ArtifactKey finish() const;

 private:
  void compress(std::uint64_t word);
  KeyHasher& unaligned_u64(std::uint64_t value);

  std::uint64_t v0_;
  std::uint64_t v1_;
  std::uint64_t v2_;
  std::uint64_t v3_;
  std::uint64_t tail_ = 0;       ///< pending bytes of a partial word
  unsigned tail_bytes_ = 0;      ///< how many bytes `tail_` holds
  std::uint64_t length_ = 0;     ///< total bytes appended
};

/// How a digest table was produced: digests carried over from a parent
/// table (hits) versus computed from the model (misses).
struct DigestStats {
  std::size_t hits = 0;    ///< digests reused from the parent table
  std::size_t misses = 0;  ///< digests computed afresh
};

/// Immutable per-model digest table: a content digest per chain plus
/// interference, busy-interference and overload pair digests per
/// (interferer a, target b), a != b (overload digests only for overload
/// interferers).  Tables are tied to the System they were built or
/// derived for; callers pass that same system to the key builders.
class ModelDigests {
 public:
  /// Full build: every digest computed from `system` (all misses).
  explicit ModelDigests(const System& system);

  /// The table of `child`, derived from this table of `parent`: `child`
  /// must equal `parent` except for task priorities (same chains in the
  /// same order, same structure).  Recomputes the content digests of
  /// chains whose priorities moved, and a pair's digests only where one
  /// of the comparisons the slice reads flipped: interferer task vs.
  /// target minimum priority (all three pair kinds) or vs. target tail
  /// priority (overload pairs).  Only pairs whose interferer or target
  /// moved can flip, so the cost is O(moved chains × m) digests;
  /// everything else is carried over (and counted as hits).
  [[nodiscard]] ModelDigests derive_priorities(const System& parent, const System& child) const;

  /// Copy with `chain`'s content digest recomputed from `system`, which
  /// must differ from this table's model at most in that chain's
  /// deadline (deadlines are read by the content digest only).
  [[nodiscard]] ModelDigests with_content(const System& system, int chain) const;

  /// Number of chains covered.
  [[nodiscard]] int size() const { return chains_; }
  /// Full content digest of `chain`.
  [[nodiscard]] const ArtifactKey& content(int chain) const {
    return digests_[m() + static_cast<std::size_t>(chain)];
  }
  /// Interference-slice digest of interferer `a` w.r.t. target `b`.
  [[nodiscard]] const ArtifactKey& interference(int a, int b) const {
    return digests_[pair(kInterference, a, b)];
  }
  /// Busy-interference-slice digest of interferer `a` w.r.t. target `b`.
  [[nodiscard]] const ArtifactKey& busy_interference(int a, int b) const {
    return digests_[pair(kBusyInterference, a, b)];
  }
  /// Overload-slice digest of overload chain `a` w.r.t. target `b`.
  [[nodiscard]] const ArtifactKey& overload(int a, int b) const {
    return digests_[pair(kOverload, a, b)];
  }

  /// How this table was produced (build or derivation counts).
  [[nodiscard]] const DigestStats& stats() const { return stats_; }

 private:
  enum PairKind : std::size_t { kInterference = 0, kBusyInterference = 1, kOverload = 2 };

  ModelDigests() = default;

  [[nodiscard]] std::size_t m() const { return static_cast<std::size_t>(chains_); }
  [[nodiscard]] std::size_t pair(PairKind kind, int a, int b) const {
    return 2 * m() + (kind * m() + static_cast<std::size_t>(a)) * m() +
           static_cast<std::size_t>(b);
  }
  [[nodiscard]] const ArtifactKey& arrival(int chain) const {
    return digests_[static_cast<std::size_t>(chain)];
  }

  int chains_ = 0;
  /// One block: per-chain arrival-curve digests, per-chain content
  /// digests, then the three m×m pair planes (diagonal unused; overload
  /// rows only for overload chains).
  std::vector<ArtifactKey> digests_;
  DigestStats stats_;
};

/// Key of the interference context of `target` (Defs 2–5).  Pins the
/// target and interferer *positions* in addition to their content: the
/// cached context embeds absolute chain indices that consumers
/// dereference against the current system.
[[nodiscard]] ArtifactKey interference_key(const System& system, const ModelDigests& digests,
                                           int target);

/// Key of the busy-window/latency stage of `target`.  When
/// `without_overload` is set, overload chains are excluded from the walk
/// (the paper's "second analysis"), so their slices do not taint the key
/// and overload-model changes cannot invalidate it.  Positions are not
/// pinned: the latency result is pure data.
[[nodiscard]] ArtifactKey busy_window_key(const System& system, const ModelDigests& digests,
                                          int target, const AnalysisOptions& options,
                                          bool without_overload);

/// Key of the k-independent overload artifacts of `target` (slack,
/// overload structure, unschedulable combinations, Thm 3
/// preconditions).  `busy_window_part` must be
/// busy_window_key(system, digests, target, options.analysis, false):
/// the keys nest (dmm ⊃ overload ⊃ busy window).  Pins the target's and
/// each overload chain's position (the cached artifacts embed absolute
/// indices).
[[nodiscard]] ArtifactKey overload_key(const System& system, const ModelDigests& digests,
                                       int target, const TwcaOptions& options,
                                       const ArtifactKey& busy_window_part);

/// Key of one dmm(k) query result; `overload_part` must be the queried
/// target's overload_key.
[[nodiscard]] ArtifactKey dmm_key(Count k, const TwcaOptions& options,
                                  const ArtifactKey& overload_part);

/// One-shot interference_key over a freshly built table.
[[nodiscard]] ArtifactKey interference_key(const System& system, int target);

/// One-shot busy_window_key over a freshly built table.
[[nodiscard]] ArtifactKey busy_window_key(const System& system, int target,
                                          const AnalysisOptions& options, bool without_overload);

/// One-shot overload_key over a freshly built table.
[[nodiscard]] ArtifactKey overload_key(const System& system, int target,
                                       const TwcaOptions& options);

/// One-shot dmm_key over a freshly built table.
[[nodiscard]] ArtifactKey dmm_key(const System& system, int target, Count k,
                                  const TwcaOptions& options);

}  // namespace wharf

#endif  // WHARF_CORE_MODEL_SLICE_HPP
