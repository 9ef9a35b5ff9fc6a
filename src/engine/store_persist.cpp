#include "engine/store_persist.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <optional>
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

void put_i64(std::string& out, std::int64_t v) { put_u64(out, static_cast<std::uint64_t>(v)); }

void put_i32(std::string& out, std::int32_t v) { put_u32(out, static_cast<std::uint32_t>(v)); }

void put_string(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
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

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

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

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Per-type value serializers
// ---------------------------------------------------------------------

void put_int_vector(std::string& out, const std::vector<int>& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (const int x : v) put_i32(out, x);
}

std::vector<int> get_int_vector(Reader& in) {
  const std::uint32_t n = in.u32();
  in.need(std::size_t{n} * 4, "int vector");
  std::vector<int> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(in.i32());
  return v;
}

void put_i64_vector(std::string& out, const std::vector<std::int64_t>& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (const std::int64_t x : v) put_i64(out, x);
}

std::vector<std::int64_t> get_i64_vector(Reader& in) {
  const std::uint32_t n = in.u32();
  in.need(std::size_t{n} * 8, "i64 vector");
  std::vector<std::int64_t> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(in.i64());
  return v;
}

void put_segment(std::string& out, const Segment& s) {
  put_int_vector(out, s.tasks);
  put_u8(out, s.wraps ? 1 : 0);
  put_i64(out, s.cost);
}

Segment get_segment(Reader& in) {
  Segment s;
  s.tasks = get_int_vector(in);
  s.wraps = in.u8() != 0;
  s.cost = in.i64();
  return s;
}

// Arrival tables are serialized as the wrapped model's canonical
// describe() text and rebuilt deterministically via parse_arrival() —
// the same faithful-encoding caveat the cache keys already rely on.
void put_table(std::string& out, const std::shared_ptr<const ArrivalTable>& table) {
  put_u8(out, table != nullptr ? 1 : 0);
  if (table != nullptr) put_string(out, table->model().describe());
}

std::shared_ptr<const ArrivalTable> get_table(Reader& in) {
  if (in.u8() == 0) return nullptr;
  const std::string spec = in.str();
  try {
    return std::make_shared<const ArrivalTable>(parse_arrival(spec));
  } catch (const std::exception& e) {
    throw Corrupt{std::string("bad arrival spec '") + spec + "': " + e.what()};
  }
}

void put_interference(std::string& out, const InterferenceContext& ctx) {
  put_i32(out, ctx.target);
  put_int_vector(out, ctx.self_header);
  put_i64(out, ctx.self_header_cost);
  put_u32(out, static_cast<std::uint32_t>(ctx.others.size()));
  for (const ChainInterference& info : ctx.others) {
    put_i32(out, info.chain);
    put_u8(out, info.deferred ? 1 : 0);
    put_u32(out, static_cast<std::uint32_t>(info.segments.size()));
    for (const Segment& s : info.segments) put_segment(out, s);
    put_u8(out, info.critical.has_value() ? 1 : 0);
    if (info.critical.has_value()) put_segment(out, *info.critical);
    put_int_vector(out, info.header_segment);
    put_i64(out, info.header_segment_cost);
    put_i64(out, info.segments_total_cost);
    put_table(out, info.table);
  }
  put_table(out, ctx.self_table);
}

InterferenceContext get_interference(Reader& in) {
  InterferenceContext ctx;
  ctx.target = in.i32();
  ctx.self_header = get_int_vector(in);
  ctx.self_header_cost = in.i64();
  const std::uint32_t others = in.u32();
  in.need(others, "interference others");  // >= 1 byte each
  ctx.others.reserve(others);
  for (std::uint32_t i = 0; i < others; ++i) {
    ChainInterference info;
    info.chain = in.i32();
    info.deferred = in.u8() != 0;
    const std::uint32_t segments = in.u32();
    in.need(segments, "interference segments");
    info.segments.reserve(segments);
    for (std::uint32_t s = 0; s < segments; ++s) info.segments.push_back(get_segment(in));
    if (in.u8() != 0) info.critical = get_segment(in);
    info.header_segment = get_int_vector(in);
    info.header_segment_cost = in.i64();
    info.segments_total_cost = in.i64();
    info.table = get_table(in);
    ctx.others.push_back(std::move(info));
  }
  ctx.self_table = get_table(in);
  return ctx;
}

void put_latency(std::string& out, const LatencyResult& r) {
  put_u8(out, r.bounded ? 1 : 0);
  put_string(out, r.reason);
  put_i64(out, r.K);
  put_i64_vector(out, r.busy_times);
  put_i64(out, r.wcl);
  put_i64(out, r.worst_q);
  put_u8(out, r.misses_per_window.has_value() ? 1 : 0);
  if (r.misses_per_window.has_value()) put_i64(out, *r.misses_per_window);
  put_u8(out, r.schedulable ? 1 : 0);
}

LatencyResult get_latency(Reader& in) {
  LatencyResult r;
  r.bounded = in.u8() != 0;
  r.reason = in.str();
  r.K = in.i64();
  r.busy_times = get_i64_vector(in);
  r.wcl = in.i64();
  r.worst_q = in.i64();
  if (in.u8() != 0) r.misses_per_window = in.i64();
  r.schedulable = in.u8() != 0;
  return r;
}

void put_target_artifacts(std::string& out, const TargetArtifacts& a) {
  put_i64(out, a.slack);
  put_i32(out, a.structure.target);
  put_u32(out, static_cast<std::uint32_t>(a.structure.per_chain.size()));
  for (const OverloadActiveSegments& pc : a.structure.per_chain) {
    put_i32(out, pc.chain);
    put_u32(out, static_cast<std::uint32_t>(pc.active.size()));
    for (const ActiveSegment& s : pc.active) {
      put_i32(out, s.segment_index);
      put_int_vector(out, s.tasks);
      put_i64(out, s.cost);
    }
  }
  put_u32(out, static_cast<std::uint32_t>(a.unschedulable.size()));
  for (const Combination& c : a.unschedulable) {
    put_u32(out, static_cast<std::uint32_t>(c.segments.size()));
    for (const ActiveSegmentId& id : c.segments) {
      put_i32(out, id.chain_pos);
      put_i32(out, id.active_index);
    }
    put_i64(out, c.cost);
  }
  put_u8(out, a.no_guarantee_reason.has_value() ? 1 : 0);
  if (a.no_guarantee_reason.has_value()) put_string(out, *a.no_guarantee_reason);
  put_u8(out, a.always_meets ? 1 : 0);
}

TargetArtifacts get_target_artifacts(Reader& in) {
  TargetArtifacts a;
  a.slack = in.i64();
  a.structure.target = in.i32();
  const std::uint32_t chains = in.u32();
  in.need(chains, "overload chains");
  a.structure.per_chain.reserve(chains);
  for (std::uint32_t i = 0; i < chains; ++i) {
    OverloadActiveSegments pc;
    pc.chain = in.i32();
    const std::uint32_t active = in.u32();
    in.need(active, "active segments");
    pc.active.reserve(active);
    for (std::uint32_t s = 0; s < active; ++s) {
      ActiveSegment seg;
      seg.segment_index = in.i32();
      seg.tasks = get_int_vector(in);
      seg.cost = in.i64();
      pc.active.push_back(std::move(seg));
    }
    a.structure.per_chain.push_back(std::move(pc));
  }
  const std::uint32_t combinations = in.u32();
  in.need(combinations, "combinations");
  a.unschedulable.reserve(combinations);
  for (std::uint32_t i = 0; i < combinations; ++i) {
    Combination c;
    const std::uint32_t ids = in.u32();
    in.need(std::size_t{ids} * 8, "combination segments");
    c.segments.reserve(ids);
    for (std::uint32_t s = 0; s < ids; ++s) {
      ActiveSegmentId id;
      id.chain_pos = in.i32();
      id.active_index = in.i32();
      c.segments.push_back(id);
    }
    c.cost = in.i64();
    a.unschedulable.push_back(std::move(c));
  }
  if (in.u8() != 0) a.no_guarantee_reason = in.str();
  a.always_meets = in.u8() != 0;
  return a;
}

void put_dmm(std::string& out, const DmmResult& r) {
  put_i64(out, r.k);
  put_i64(out, r.dmm);
  put_u8(out, static_cast<std::uint8_t>(r.status));
  put_string(out, r.reason);
  put_i64(out, r.wcl);
  put_i64(out, r.K);
  put_i64(out, r.n_b);
  put_i64(out, r.slack);
  put_i64_vector(out, r.omegas);
  put_u64(out, r.combination_count);
  put_u64(out, r.unschedulable_count);
  put_i64(out, r.packing_optimum);
  put_i64(out, r.solver_nodes);
}

DmmResult get_dmm(Reader& in) {
  DmmResult r;
  r.k = in.i64();
  r.dmm = in.i64();
  const std::uint8_t status = in.u8();
  if (status > static_cast<std::uint8_t>(DmmStatus::kNoGuarantee)) {
    throw Corrupt{"dmm status out of range"};
  }
  r.status = static_cast<DmmStatus>(status);
  r.reason = in.str();
  r.wcl = in.i64();
  r.K = in.i64();
  r.n_b = in.i64();
  r.slack = in.i64();
  r.omegas = get_i64_vector(in);
  r.combination_count = in.u64();
  r.unschedulable_count = in.u64();
  r.packing_optimum = in.i64();
  r.solver_nodes = in.i64();
  return r;
}

void put_packing(std::string& out, const ilp::PackingSolution& s) {
  put_i64(out, s.total);
  put_i64_vector(out, s.counts);
  put_i64(out, s.nodes);
}

ilp::PackingSolution get_packing(Reader& in) {
  ilp::PackingSolution s;
  s.total = in.i64();
  s.counts = get_i64_vector(in);
  s.nodes = in.i64();
  return s;
}

/// Serialized payload of one artifact, or nullopt for values persistence
/// does not cover (the caller counts them as skipped).
std::optional<std::string> serialize_value(ArtifactType type, const void* value) {
  std::string out;
  switch (type) {
    case ArtifactType::kInterferenceContext:
      put_interference(out, *static_cast<const InterferenceContext*>(value));
      return out;
    case ArtifactType::kLatencyResult:
      put_latency(out, *static_cast<const LatencyResult*>(value));
      return out;
    case ArtifactType::kTargetArtifacts:
      put_target_artifacts(out, *static_cast<const TargetArtifacts*>(value));
      return out;
    case ArtifactType::kDmmResult:
      put_dmm(out, *static_cast<const DmmResult*>(value));
      return out;
    case ArtifactType::kPackingSolution:
      put_packing(out, *static_cast<const ilp::PackingSolution*>(value));
      return out;
    case ArtifactType::kUntyped:
      return std::nullopt;
  }
  return std::nullopt;
}

/// Deserialized artifact plus its re-measured weight (weight_of —
/// weights are never trusted from disk).
struct DecodedValue {
  std::shared_ptr<const void> value;
  std::size_t weight = 0;
};

DecodedValue decode_value(ArtifactType type, Reader& in) {
  DecodedValue out;
  switch (type) {
    case ArtifactType::kInterferenceContext: {
      auto v = std::make_shared<const InterferenceContext>(get_interference(in));
      out.weight = weight_of(*v);
      out.value = std::move(v);
      return out;
    }
    case ArtifactType::kLatencyResult: {
      auto v = std::make_shared<const LatencyResult>(get_latency(in));
      out.weight = weight_of(*v);
      out.value = std::move(v);
      return out;
    }
    case ArtifactType::kTargetArtifacts: {
      auto v = std::make_shared<const TargetArtifacts>(get_target_artifacts(in));
      out.weight = weight_of(*v);
      out.value = std::move(v);
      return out;
    }
    case ArtifactType::kDmmResult: {
      auto v = std::make_shared<const DmmResult>(get_dmm(in));
      out.weight = weight_of(*v);
      out.value = std::move(v);
      return out;
    }
    case ArtifactType::kPackingSolution: {
      auto v = std::make_shared<const ilp::PackingSolution>(get_packing(in));
      out.weight = weight_of(*v);
      out.value = std::move(v);
      return out;
    }
    case ArtifactType::kUntyped:
      break;
  }
  throw Corrupt{"unknown artifact type tag " + std::to_string(static_cast<int>(type))};
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
    const auto type = static_cast<ArtifactType>(artifact.type_tag);
    std::optional<std::string> payload =
        type != ArtifactType::kUntyped ? serialize_value(type, artifact.value.get())
                                       : std::nullopt;
    if (!payload.has_value()) {
      ++result.records_skipped;
      continue;
    }
    std::string record;
    record.reserve(payload->size() + 32);
    put_u8(record, static_cast<std::uint8_t>(static_cast<int>(artifact.stage)));
    put_u8(record, artifact.type_tag);
    put_u64(record, artifact.key.lo);
    put_u64(record, artifact.key.hi);
    put_u64(record, payload->size());
    record += *payload;
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
    DecodedValue decoded;
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
      record.decoded = decode_value(static_cast<ArtifactType>(type_tag), payload);
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
    store.insert(record.stage, record.key, std::move(record.decoded.value),
                 record.decoded.weight, record.type_tag);
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
