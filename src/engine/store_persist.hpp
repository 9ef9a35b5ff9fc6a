/// \file store_persist.hpp
/// Persistent snapshots of the ArtifactStore — the warm-restart layer.
///
/// A snapshot round-trips every resident, typed artifact (the five
/// PersistedArtifacts types of artifact_types.hpp, encoded field by
/// field in their kFields order) into one versioned binary file:
///
///   magic "WHARFSTO" | u32 format version (3)
///   'R'* records: u8 stage | u8 type tag | 16-byte key
///        | u64 payload len | payload | u32 CRC32(stage..payload)
///   'F'  footer: u64 record count | u32 CRC32(count)
///
/// Keys are the store's 128-bit ArtifactKeys (two little-endian words).
/// They are pure digests of model content, identical in every process
/// and on every platform, so records need no translation table.  The
/// version field sits outside any checksum on purpose — a version
/// mismatch (such as a version-1 file, whose keys were interned
/// fragment ids, or a version-2 file, whose keys also digested the
/// retired packer and combination-set flags and which may carry the
/// retired tag 6) must stay distinguishable from corruption.
///
/// Durability contract: save() builds the entire snapshot in memory,
/// writes it to a temporary file in the target directory, fsyncs, and
/// atomically renames over the final path.  A crash (or the
/// SaveOptions::fail_after_bytes test hook) mid-write never touches the
/// previous snapshot.  load() is all-or-nothing: every record and the
/// footer are verified before anything is inserted, and *any* integrity
/// failure — bad magic, flipped byte, truncation, unknown tag, version
/// mismatch — degrades to a cold start with a reason string and a clean
/// (OK) Status.  Never a crash, never a partially-loaded store.
///
/// Weights are not stored: load() re-measures every deserialized
/// artifact via weight_of() (artifact_types.hpp), so the byte-budget
/// LRU accounting stays correct even if in-memory layout changed
/// between writer and reader builds.

#ifndef WHARF_ENGINE_STORE_PERSIST_HPP
#define WHARF_ENGINE_STORE_PERSIST_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "engine/artifact_store.hpp"
#include "util/status.hpp"

namespace wharf {

/// Version tag of the snapshot format this build reads and writes.
/// Bump on any incompatible layout change; readers reject other
/// versions (cold start, not corruption).
inline constexpr std::uint32_t kStoreFormatVersion = 3;

/// Knobs of StoreSnapshot::save().
struct StoreSaveOptions {
  /// Test hook simulating a crash mid-spill: the write fails after this
  /// many bytes have reached the temporary file (the final snapshot is
  /// never touched).  Defaults to "never fail".
  std::size_t fail_after_bytes = std::numeric_limits<std::size_t>::max();
};

/// Outcome of StoreSnapshot::save().
struct StoreSaveResult {
  Status status;                    ///< non-OK on I/O failure (nothing replaced)
  std::size_t records_written = 0;  ///< artifacts serialized into the snapshot
  std::size_t records_skipped = 0;  ///< untyped/unserializable entries left out
  std::size_t bytes_written = 0;    ///< final snapshot size in bytes
};

/// Outcome of StoreSnapshot::load().  Corruption is *not* an error
/// status: the contract is a clean fallback to cold, reported via
/// `cold`/`records_skipped`/`reason`.
struct StoreLoadResult {
  Status status;                    ///< always OK for corrupt/missing files
  bool cold = false;                ///< true when nothing was loaded
  std::size_t records_loaded = 0;   ///< artifacts inserted into the store
  std::size_t records_skipped = 0;  ///< > 0 when corruption forced cold
  std::string reason;               ///< why the load fell back cold ("" if warm)
};

/// The snapshot codec: writes a store's resident artifacts to disk and
/// stages them back (see the file comment for format and guarantees).
/// Stateless — both operations are one-shot class functions, also
/// reachable as ArtifactStore::save()/load().
class StoreSnapshot {
 public:
  /// Serializes every resident *typed* artifact of `store` to `path`
  /// (write-temp, fsync, rename).  Untyped entries (tag 0) are skipped
  /// and counted.  On failure the previous file at `path` is untouched and
  /// the temporary is removed.
  [[nodiscard]] static StoreSaveResult save(const ArtifactStore& store, const std::string& path,
                                            const StoreSaveOptions& options = {});

  /// Verifies and loads the snapshot at `path` into `store` (insert
  /// semantics: existing keys win, the byte budget evicts normally,
  /// recency is restored least-recent-first).  Missing file: cold, OK
  /// status, empty-ish reason.  Any integrity failure: cold, OK status,
  /// records_skipped > 0, explanatory reason.
  [[nodiscard]] static StoreLoadResult load(ArtifactStore& store, const std::string& path);
};

/// Canonical snapshot filename inside a --store-dir.
[[nodiscard]] std::string store_snapshot_path(const std::string& dir);

/// Creates `dir` if absent, missing parents included (like `mkdir -p`);
/// OK when it already exists.  Non-OK Status when creation fails or
/// `dir` is not a directory.
[[nodiscard]] Status ensure_store_dir(const std::string& dir);

}  // namespace wharf

#endif  // WHARF_ENGINE_STORE_PERSIST_HPP
