#include "engine/store_persist.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/arrival.hpp"
#include "engine/artifact_types.hpp"

namespace wharf {

namespace {

constexpr char kMagic[8] = {'W', 'H', 'A', 'R', 'F', 'S', 'T', 'O'};

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, table-driven)
// ---------------------------------------------------------------------

const std::uint32_t* crc_table() {
  static const auto table = [] {
    static std::uint32_t t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ ((c & 1u) != 0 ? 0xedb88320u : 0u);
      t[i] = c;
    }
    return t;
  }();
  return table;
}

std::uint32_t crc32(const char* data, std::size_t size) {
  const std::uint32_t* table = crc_table();
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<unsigned char>(data[i])) & 0xffu];
  }
  return crc ^ 0xffffffffu;
}

// ---------------------------------------------------------------------
// Primitive little-endian writer / bounded reader
// ---------------------------------------------------------------------

void put_u8(std::string& out, std::uint8_t v) { out += static_cast<char>(v); }

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xffu);
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xffu);
}

void put_string(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

// ---------------------------------------------------------------------
// Value encoding, driven by the kFields lists of artifact_types.hpp
// ---------------------------------------------------------------------

/// Appends the encoding of `value`: integers little-endian at their own
/// width (bool and enums as one byte), strings and vectors behind a u32
/// count, optionals and arrival tables behind a u8 presence flag, and
/// structs as their kFields in order.
template <typename T>
void put(std::string& out, const T& value) {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    put_u8(out, static_cast<std::uint8_t>(value));
  } else if constexpr (std::is_integral_v<T>) {
    static_assert(sizeof(T) == 4 || sizeof(T) == 8, "integers encode as 4 or 8 bytes");
    if constexpr (sizeof(T) == 4) {
      put_u32(out, static_cast<std::uint32_t>(value));
    } else {
      put_u64(out, static_cast<std::uint64_t>(value));
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    put_string(out, value);
  } else if constexpr (std::is_same_v<T, std::shared_ptr<const ArrivalTable>>) {
    // A table travels as the wrapped model's canonical describe() text
    // and is rebuilt via parse_arrival() — the same faithful-encoding
    // caveat the cache keys already rely on.
    put_u8(out, value != nullptr ? 1 : 0);
    if (value != nullptr) put_string(out, value->model().describe());
  } else if constexpr (requires { value.has_value(); }) {
    put_u8(out, value.has_value() ? 1 : 0);
    if (value.has_value()) put(out, *value);
  } else if constexpr (requires { value.size(); }) {
    put_u32(out, static_cast<std::uint32_t>(value.size()));
    for (const auto& element : value) put(out, element);
  } else {
    for_each_field(value, [&](const auto& member) { put(out, member); });
  }
}

/// Fewest bytes one encoded T occupies: the encoding of a default T
/// (empty containers, disengaged optionals).  The decoder checks a
/// vector's count times this against the remaining bytes before it
/// reserves anything.
template <typename T>
std::size_t min_encoded_bytes() {
  static const std::size_t bytes = [] {
    std::string out;
    put(out, T{});
    return out.size();
  }();
  return bytes;
}

// Load-side integrity failure; thrown and caught entirely inside
// StoreSnapshot::load() (the public contract is a clean cold fallback).
struct Corrupt {
  std::string what;
};

/// Bounded cursor over the snapshot bytes: every read checks the
/// remaining size first, and every length field is validated against the
/// remaining bytes before any allocation (an attacker-sized length field
/// must not become an allocation bomb).
class Reader {
 public:
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] const char* cursor() const { return data_ + pos_; }

  std::uint8_t u8() {
    need(1, "u8");
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::string bytes(std::size_t n, const char* what) {
    need(n, what);
    std::string out(data_ + pos_, n);
    pos_ += n;
    return out;
  }

  std::string str() {
    const std::uint32_t n = u32();
    return bytes(n, "string payload");
  }

  void need(std::size_t n, const char* what) const {
    if (n > size_ - pos_) {
      throw Corrupt{std::string("truncated while reading ") + what};
    }
  }

  /// Decodes what put() encoded into `value`, which starts default.
  template <typename T>
  void get(T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      value = u8() != 0;
    } else if constexpr (std::is_enum_v<T>) {
      static_assert(std::is_same_v<T, DmmStatus>, "an enum field needs its range check here");
      const std::uint8_t raw = u8();
      if (raw > static_cast<std::uint8_t>(DmmStatus::kNoGuarantee)) {
        throw Corrupt{"dmm status out of range"};
      }
      value = static_cast<T>(raw);
    } else if constexpr (std::is_integral_v<T>) {
      if constexpr (sizeof(T) == 4) {
        value = static_cast<T>(u32());
      } else {
        value = static_cast<T>(u64());
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      value = str();
    } else if constexpr (std::is_same_v<T, std::shared_ptr<const ArrivalTable>>) {
      if (u8() == 0) return;
      const std::string spec = str();
      try {
        value = std::make_shared<const ArrivalTable>(parse_arrival(spec));
      } catch (const std::exception& e) {
        throw Corrupt{std::string("bad arrival spec '") + spec + "': " + e.what()};
      }
    } else if constexpr (requires { value.has_value(); }) {
      if (u8() != 0) get(value.emplace());
    } else if constexpr (requires { value.size(); }) {
      const std::uint32_t n = u32();
      need(std::size_t{n} * min_encoded_bytes<typename T::value_type>(), "vector");
      value.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) get(value.emplace_back());
    } else {
      for_each_field(value, [&](auto& member) { get(member); });
    }
  }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Calls f(Entry{}) for the PersistedArtifacts entry carrying `tag`;
/// false when none does (untyped, retired or unknown tags).
template <typename... Entries, typename F>
bool visit_tag(ArtifactList<Entries...> /*list*/, std::uint8_t tag, F&& f) {
  return ((Entries::tag == tag && (f(Entries{}), true)) || ...);
}

// ---------------------------------------------------------------------
// Temp-file plumbing
// ---------------------------------------------------------------------

/// Writes `data` to `temp_path` (O_TRUNC) honoring the fail_after_bytes
/// crash hook, fsyncs, and returns OK; on any failure the temp file is
/// closed and unlinked.
Status write_temp_file(const std::string& temp_path, const std::string& data,
                       const StoreSaveOptions& options) {
  const int fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::internal("open('" + temp_path + "'): " + std::strerror(errno));
  }
  std::size_t written = 0;
  Status status;
  while (written < data.size() && status.is_ok()) {
    std::size_t chunk = data.size() - written;
    if (written + chunk > options.fail_after_bytes) {
      // Simulated crash: write the allowed prefix, then fail — the temp
      // file holds garbage exactly as a real mid-spill crash would leave.
      chunk = options.fail_after_bytes > written ? options.fail_after_bytes - written : 0;
      if (chunk > 0) (void)::write(fd, data.data() + written, chunk);
      status = Status::internal("simulated write failure after " +
                                std::to_string(options.fail_after_bytes) + " bytes");
      break;
    }
    const ssize_t n = ::write(fd, data.data() + written, chunk);
    if (n <= 0) {
      status = Status::internal("write('" + temp_path + "'): " + std::strerror(errno));
      break;
    }
    written += static_cast<std::size_t>(n);
  }
  if (status.is_ok() && ::fsync(fd) != 0) {
    status = Status::internal("fsync('" + temp_path + "'): " + std::strerror(errno));
  }
  ::close(fd);
  if (!status.is_ok()) ::unlink(temp_path.c_str());
  return status;
}

}  // namespace

// ---------------------------------------------------------------------
// StoreSnapshot
// ---------------------------------------------------------------------

StoreSaveResult StoreSnapshot::save(const ArtifactStore& store, const std::string& path,
                                    const StoreSaveOptions& options) {
  StoreSaveResult result;
  std::string records;
  for (const ArtifactStore::ExportedArtifact& artifact : store.export_artifacts()) {
    std::string payload;
    const bool typed = visit_tag(PersistedArtifacts{}, artifact.type_tag, [&](auto entry) {
      using T = typename decltype(entry)::type;
      put(payload, *static_cast<const T*>(artifact.value.get()));
    });
    if (!typed) {
      ++result.records_skipped;
      continue;
    }
    std::string record;
    record.reserve(payload.size() + 32);
    put_u8(record, static_cast<std::uint8_t>(static_cast<int>(artifact.stage)));
    put_u8(record, artifact.type_tag);
    put_u64(record, artifact.key.lo);
    put_u64(record, artifact.key.hi);
    put_u64(record, payload.size());
    record += payload;
    records += 'R';
    records += record;
    put_u32(records, crc32(record.data(), record.size()));
    ++result.records_written;
  }

  std::string file;
  file.reserve(12 + records.size() + 16);
  file.append(kMagic, sizeof kMagic);
  put_u32(file, kStoreFormatVersion);
  file += records;
  std::string footer;
  put_u64(footer, result.records_written);
  file += 'F';
  file += footer;
  put_u32(file, crc32(footer.data(), footer.size()));

  const std::string temp_path = path + ".tmp." + std::to_string(::getpid());
  result.status = write_temp_file(temp_path, file, options);
  if (!result.status.is_ok()) {
    result.records_written = 0;
    return result;
  }
  if (::rename(temp_path.c_str(), path.c_str()) != 0) {
    result.status = Status::internal("rename('" + temp_path + "' -> '" + path +
                                     "'): " + std::strerror(errno));
    ::unlink(temp_path.c_str());
    result.records_written = 0;
    return result;
  }
  result.bytes_written = file.size();
  return result;
}

StoreLoadResult StoreSnapshot::load(ArtifactStore& store, const std::string& path) {
  StoreLoadResult result;

  std::string file;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      // A missing snapshot is the normal first run, not corruption.
      result.cold = true;
      result.reason = "no snapshot at '" + path + "'";
      return result;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) {
      result.cold = true;
      result.records_skipped = 1;
      result.reason = "read error on '" + path + "'";
      return result;
    }
    file = buf.str();
  }

  struct StagedRecord {
    ArtifactStage stage{};
    std::uint8_t type_tag = 0;
    ArtifactKey key;
    std::shared_ptr<const void> value;
    std::size_t weight = 0;  ///< re-measured, never trusted from disk
  };
  std::vector<StagedRecord> staged;

  try {
    Reader in(file.data(), file.size());
    const std::string magic = in.bytes(sizeof kMagic, "magic");
    if (std::memcmp(magic.data(), kMagic, sizeof kMagic) != 0) {
      throw Corrupt{"bad magic (not a wharf store snapshot)"};
    }
    const std::uint32_t version = in.u32();
    if (version != kStoreFormatVersion) {
      // Deliberately before any checksum: a newer/older format is a
      // clean mismatch, not corruption.
      result.cold = true;
      result.records_skipped = 1;
      result.reason = "format version " + std::to_string(version) + " unsupported (expected " +
                      std::to_string(kStoreFormatVersion) + ")";
      return result;
    }

    bool saw_footer = false;
    while (in.remaining() > 0) {
      const std::uint8_t section = in.u8();
      if (section == 'F') {
        const std::size_t start = in.pos();
        const std::uint64_t count = in.u64();
        const std::string footer(file.data() + start, in.pos() - start);
        if (in.u32() != crc32(footer.data(), footer.size())) {
          throw Corrupt{"footer checksum mismatch"};
        }
        if (count != staged.size()) {
          throw Corrupt{"footer record count " + std::to_string(count) + " != " +
                        std::to_string(staged.size()) + " records present"};
        }
        if (in.remaining() != 0) throw Corrupt{"trailing bytes after footer"};
        saw_footer = true;
        break;
      }
      if (section != 'R') throw Corrupt{"unknown section tag"};
      const std::size_t record_start = in.pos();
      const std::uint8_t stage = in.u8();
      if (stage >= kArtifactStageCount) throw Corrupt{"record stage out of range"};
      const std::uint8_t type_tag = in.u8();
      const std::uint64_t key_lo = in.u64();
      const std::uint64_t key_hi = in.u64();
      const std::uint64_t payload_len = in.u64();
      in.need(payload_len, "record payload");
      Reader payload(in.cursor(), payload_len);
      StagedRecord record;
      record.stage = static_cast<ArtifactStage>(static_cast<int>(stage));
      record.type_tag = type_tag;
      record.key = ArtifactKey{key_lo, key_hi};
      const bool typed = visit_tag(PersistedArtifacts{}, type_tag, [&](auto entry) {
        using T = typename decltype(entry)::type;
        auto value = std::make_shared<T>();
        payload.get(*value);
        record.weight = weight_of(*value);
        record.value = std::move(value);
      });
      if (!typed) throw Corrupt{"unknown artifact type tag " + std::to_string(type_tag)};
      if (payload.remaining() != 0) throw Corrupt{"record payload has trailing bytes"};
      (void)in.bytes(payload_len, "record payload");  // advance
      const std::size_t record_end = in.pos();
      const std::string record_bytes(file.data() + record_start, record_end - record_start);
      if (in.u32() != crc32(record_bytes.data(), record_bytes.size())) {
        throw Corrupt{"record checksum mismatch"};
      }
      staged.push_back(std::move(record));
    }
    if (!saw_footer) throw Corrupt{"snapshot ends without footer"};
  } catch (const Corrupt& corrupt) {
    // All-or-nothing: nothing staged reaches the store.  The caller gets
    // a clean OK status and a cold store with the reason logged.
    result.cold = true;
    result.records_skipped = staged.empty() ? 1 : staged.size();
    result.reason = corrupt.what;
    return result;
  }

  // Everything verified — commit.  Records were saved least-recent-
  // first, so sequential insertion reproduces the saved recency order.
  for (StagedRecord& record : staged) {
    store.insert(record.stage, record.key, std::move(record.value), record.weight,
                 record.type_tag);
  }
  result.records_loaded = staged.size();
  result.cold = staged.empty();
  return result;
}

StoreSaveResult ArtifactStore::save(const std::string& path) const {
  return StoreSnapshot::save(*this, path);
}

StoreLoadResult ArtifactStore::load(const std::string& path) {
  return StoreSnapshot::load(*this, path);
}

std::string store_snapshot_path(const std::string& dir) {
  if (dir.empty()) return "wharf_store.snapshot";
  return dir.back() == '/' ? dir + "wharf_store.snapshot" : dir + "/wharf_store.snapshot";
}

Status ensure_store_dir(const std::string& dir) {
  struct stat st {};
  if (::stat(dir.c_str(), &st) == 0) {
    if (!S_ISDIR(st.st_mode)) {
      return Status::invalid_argument("store dir '" + dir + "' exists and is not a directory");
    }
    return Status::ok();
  }
  // mkdir -p: missing parents are created too (the distributed sweep
  // hands each worker a DIR/worker-<i> family under one root).
  const auto parent_end = dir.find_last_of('/');
  if (parent_end != std::string::npos && parent_end > 0) {
    const Status parent = ensure_store_dir(dir.substr(0, parent_end));
    if (!parent.is_ok()) return parent;
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::invalid_argument("mkdir('" + dir + "'): " + std::strerror(errno));
  }
  return Status::ok();
}

}  // namespace wharf
