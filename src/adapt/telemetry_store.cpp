#include "adapt/telemetry_store.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/crc32.hpp"
#include "common/fnv1a.hpp"
#include "common/logging.hpp"
#include "common/timing.hpp"
#include "obs/trace.hpp"

namespace verihvac::adapt {

namespace fs = std::filesystem;

namespace {

constexpr char kSegmentMagic[4] = {'V', 'H', 'T', 'S'};
constexpr const char* kSealedSuffix = ".vhtseg";
constexpr const char* kOpenSuffix = ".vhtseg.open";

/// Consecutive pump I/O failures tolerated before persistence turns
/// itself off for the store's lifetime (transient hiccups get retries;
/// a full disk does not get to stall every pump forever).
constexpr std::uint32_t kMaxConsecutivePersistFailures = 3;

/// Serialized header field bytes (declaration order, fixed widths):
/// 2*u32 + u8 + 12*u64 + u32 = 109. The on-disk header is
/// magic(4) + fields(109) + header_crc(4).
constexpr std::size_t kHeaderFieldBytes = 109;
static_assert(kSegmentHeaderBytes == sizeof(kSegmentMagic) + kHeaderFieldBytes + 4,
              "exported header size must match the serialized layout");

/// Generous per-frame body bound: a max-forecast record serializes to
/// ~1.5 KB; session frames carry a policy key (bounded on read). Anything
/// larger is torn bytes, not a frame.
constexpr std::uint32_t kMaxFrameBody = 1u << 21;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("telemetry segment: truncated header");
  return value;
}

std::string serialize_header_fields(const SegmentHeader& h) {
  std::ostringstream out(std::ios::binary);
  write_pod<std::uint32_t>(out, h.format_version);
  write_pod<std::uint32_t>(out, h.trace_version);
  write_pod<std::uint8_t>(out, h.sealed);
  write_pod<std::uint64_t>(out, h.base_seq);
  write_pod<std::uint64_t>(out, h.record_count);
  write_pod<std::uint64_t>(out, h.session_count);
  write_pod<std::uint64_t>(out, h.session_min);
  write_pod<std::uint64_t>(out, h.session_max);
  write_pod<std::uint64_t>(out, h.decision_min);
  write_pod<std::uint64_t>(out, h.decision_max);
  write_pod<std::uint64_t>(out, h.schema_fingerprint);
  write_pod<std::uint64_t>(out, h.open_steady_ns);
  write_pod<std::uint64_t>(out, h.close_steady_ns);
  write_pod<std::uint64_t>(out, h.payload_bytes);
  write_pod<std::uint32_t>(out, h.payload_crc);
  write_pod<std::uint64_t>(out, h.replay_fingerprint);
  std::string bytes = out.str();
  if (bytes.size() != kHeaderFieldBytes) {
    throw std::logic_error("telemetry segment: header layout drifted from kHeaderFieldBytes");
  }
  return bytes;
}

SegmentHeader parse_header_fields(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  SegmentHeader h;
  h.format_version = read_pod<std::uint32_t>(in);
  h.trace_version = read_pod<std::uint32_t>(in);
  h.sealed = read_pod<std::uint8_t>(in);
  h.base_seq = read_pod<std::uint64_t>(in);
  h.record_count = read_pod<std::uint64_t>(in);
  h.session_count = read_pod<std::uint64_t>(in);
  h.session_min = read_pod<std::uint64_t>(in);
  h.session_max = read_pod<std::uint64_t>(in);
  h.decision_min = read_pod<std::uint64_t>(in);
  h.decision_max = read_pod<std::uint64_t>(in);
  h.schema_fingerprint = read_pod<std::uint64_t>(in);
  h.open_steady_ns = read_pod<std::uint64_t>(in);
  h.close_steady_ns = read_pod<std::uint64_t>(in);
  h.payload_bytes = read_pod<std::uint64_t>(in);
  h.payload_crc = read_pod<std::uint32_t>(in);
  h.replay_fingerprint = read_pod<std::uint64_t>(in);
  return h;
}

void write_header_at_start(std::ostream& out, const SegmentHeader& h) {
  const std::string fields = serialize_header_fields(h);
  out.write(kSegmentMagic, sizeof(kSegmentMagic));
  out.write(fields.data(), static_cast<std::streamsize>(fields.size()));
  write_pod<std::uint32_t>(out, common::crc32(fields.data(), fields.size()));
}

SegmentHeader read_header_stream(std::istream& in, const std::string& path) {
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    throw std::runtime_error("telemetry segment: bad magic in " + path);
  }
  std::string fields(kHeaderFieldBytes, '\0');
  in.read(fields.data(), static_cast<std::streamsize>(fields.size()));
  if (!in) throw std::runtime_error("telemetry segment: truncated header in " + path);
  const auto stored_crc = read_pod<std::uint32_t>(in);
  if (common::crc32(fields.data(), fields.size()) != stored_crc) {
    throw std::runtime_error("telemetry segment: header CRC mismatch in " + path);
  }
  SegmentHeader h = parse_header_fields(fields);
  if (h.format_version != kSegmentFormatVersion) {
    throw std::runtime_error("telemetry segment: unsupported format version " +
                             std::to_string(h.format_version) + " in " + path);
  }
  if (h.trace_version != kTelemetryTraceVersion) {
    throw std::runtime_error("telemetry segment: unsupported trace version " +
                             std::to_string(h.trace_version) + " in " + path);
  }
  return h;
}

std::string segment_basename(std::uint64_t base_seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "seg-%016llx", static_cast<unsigned long long>(base_seq));
  return std::string(buf);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// FNV-1a over the sorted distinct (obs_len, zone_temp_dim) pairs.
std::uint64_t schema_fingerprint(const std::set<std::uint64_t>& schema_pairs) {
  common::Fnv1a h(kReplayFingerprintSeed);
  for (const std::uint64_t pair : schema_pairs) h.u64(pair);
  return h.digest();
}

inline constexpr std::size_t kFrameHeaderBytes = 9;  // type + body_len + body_crc

/// Builds one frame, [type u8 | body_len u32 | body_crc u32 | body], in
/// place in `out` (reused across calls): reserves the frame header,
/// appends the body through `append_body` (one of the detail::append_*
/// writers), then patches type/len/crc. SegmentWriter frames through
/// here, so there is one wire format.
template <typename AppendBody>
void build_frame(std::string& out, std::uint8_t type, AppendBody&& append_body) {
  out.clear();
  out.resize(kFrameHeaderBytes);
  append_body(out);
  const auto body_len = static_cast<std::uint32_t>(out.size() - kFrameHeaderBytes);
  const std::uint32_t body_crc = common::crc32(out.data() + kFrameHeaderBytes, body_len);
  out[0] = static_cast<char>(type);
  std::memcpy(&out[1], &body_len, sizeof body_len);
  std::memcpy(&out[1 + sizeof body_len], &body_crc, sizeof body_crc);
}

/// The header bookkeeping of one payload, folded frame by frame: the
/// writer folds each frame it appends, the scanner each frame it reads
/// back, and seal() turns either into the sealed header.
struct PayloadTally {
  std::uint64_t records = 0;
  std::uint64_t sessions = 0;
  std::uint64_t bytes = 0;  ///< payload bytes (whole frames only)
  /// Chained CRC over every frame header. Each body is covered by the
  /// body_crc its header embeds, so corruption anywhere in the payload
  /// still lands on exactly one failed check.
  std::uint32_t crc = 0;
  std::uint64_t session_min = UINT64_MAX;
  std::uint64_t session_max = 0;
  std::uint64_t decision_min = UINT64_MAX;
  std::uint64_t decision_max = 0;
  std::set<std::uint64_t> schema_pairs;  ///< (obs_len<<16)|zone_temp_dim
  std::uint64_t last_schema_pair = UINT64_MAX;
  std::uint64_t replay_fp = kReplayFingerprintSeed;

  /// Folds one whole frame (header + body) into the byte count and CRC.
  void add_frame(const char* frame, std::size_t size) {
    crc = common::crc32_update(crc, frame, kFrameHeaderBytes);
    bytes += size;
  }

  void add_record(const TelemetryRecord& r) {
    ++records;
    session_min = std::min(session_min, static_cast<std::uint64_t>(r.session));
    session_max = std::max(session_max, static_cast<std::uint64_t>(r.session));
    decision_min = std::min(decision_min, r.decision_index);
    decision_max = std::max(decision_max, r.decision_index);
    const std::uint64_t pair = (static_cast<std::uint64_t>(r.obs_len) << 16) | r.zone_temp_dim;
    if (pair != last_schema_pair) {  // one tree probe per schema change, not per record
      schema_pairs.insert(pair);
      last_schema_pair = pair;
    }
    replay_fp = replay_fingerprint_update(replay_fp, r, r.action_index);
  }

  /// Fills every header field this payload determines and marks the
  /// header sealed; base_seq and the steady-clock span stay the caller's.
  void seal(SegmentHeader& h) const {
    h.sealed = 1;
    h.record_count = records;
    h.session_count = sessions;
    h.session_min = records > 0 ? session_min : 0;
    h.session_max = session_max;
    h.decision_min = records > 0 ? decision_min : 0;
    h.decision_max = decision_max;
    h.schema_fingerprint = schema_fingerprint(schema_pairs);
    h.payload_bytes = bytes;
    h.payload_crc = crc;
    h.replay_fingerprint = replay_fp;
  }
};

/// The one segment writer: the store's active tail and write_segment()
/// both append through it, so both seal the same header over the same
/// frames.
class SegmentWriter {
 public:
  /// Creates `path` and writes `header` as the provisional (unsealed)
  /// header: a write that dies midway leaves a file every reader refuses
  /// and crash recovery trims.
  SegmentWriter(std::string path, const SegmentHeader& header)
      : path_(std::move(path)), header_(header) {
    file_.open(path_, std::ios::binary | std::ios::trunc);
    if (!file_) throw std::runtime_error("telemetry segment: cannot create " + path_);
    write_header_at_start(file_, header_);
  }

  const std::string& path() const { return path_; }
  const PayloadTally& tally() const { return tally_; }

  /// Appends one frame; returns its size in bytes.
  std::size_t append_session(const TelemetrySession& session) {
    build_frame(frame_, kFrameSession,
                [&session](std::string& body) { detail::append_session(body, session); });
    ++tally_.sessions;
    return write_frame();
  }
  std::size_t append_record(const TelemetryRecord& record) {
    build_frame(frame_, kFrameRecord,
                [&record](std::string& body) { detail::append_record(body, record); });
    tally_.add_record(record);
    return write_frame();
  }

  void flush() {
    file_.flush();
    if (!file_) throw std::runtime_error("telemetry segment: flush failed for " + path_);
  }

  /// Fills the header from the tally, rewrites it at offset 0, flushes,
  /// checks and closes the file.
  void seal(std::uint64_t close_steady_ns) {
    tally_.seal(header_);
    header_.close_steady_ns = close_steady_ns;
    file_.seekp(0);
    write_header_at_start(file_, header_);
    file_.flush();
    if (!file_) throw std::runtime_error("telemetry segment: seal write failed for " + path_);
    file_.close();
  }

 private:
  std::size_t write_frame() {
    file_.write(frame_.data(), static_cast<std::streamsize>(frame_.size()));
    tally_.add_frame(frame_.data(), frame_.size());
    return frame_.size();
  }

  std::string path_;
  std::ofstream file_;
  SegmentHeader header_;
  PayloadTally tally_;
  std::string frame_;  ///< reused per-frame serialization buffer
};

struct ScannedPayload {
  PayloadTally tally;            ///< over the whole frames only
  bool torn_tail = false;        ///< trailing bytes did not form a frame
  std::vector<TelemetrySession> sessions;
  std::vector<TelemetryRecord> records;  ///< filled only when keep_payload
};

/// Frame-by-frame scan from the current stream position — the only frame
/// parser. Stops (without throwing) at the first torn/invalid frame;
/// read_sealed_segment() treats a torn tail as an error, recovery treats
/// it as the trim point.
ScannedPayload scan_payload(std::istream& in, bool keep_payload) {
  ScannedPayload out;
  while (true) {
    char header[kFrameHeaderBytes];
    if (!in.read(header, 1)) break;  // clean EOF
    if (!in.read(header + 1, kFrameHeaderBytes - 1)) {
      out.torn_tail = true;
      break;
    }
    const auto type = static_cast<std::uint8_t>(header[0]);
    std::uint32_t body_len = 0;
    std::uint32_t body_crc = 0;
    std::memcpy(&body_len, header + 1, sizeof body_len);
    std::memcpy(&body_crc, header + 1 + sizeof body_len, sizeof body_crc);
    if ((type != kFrameSession && type != kFrameRecord) || body_len > kMaxFrameBody) {
      out.torn_tail = true;
      break;
    }
    std::string body(body_len, '\0');
    if (!in.read(body.data(), static_cast<std::streamsize>(body_len))) {
      out.torn_tail = true;
      break;
    }
    if (common::crc32(body.data(), body.size()) != body_crc) {
      out.torn_tail = true;
      break;
    }
    std::istringstream body_in(body, std::ios::binary);
    try {
      if (type == kFrameRecord) {
        TelemetryRecord record = detail::read_record(body_in);
        out.tally.add_record(record);
        if (keep_payload) out.records.push_back(record);
      } else {
        TelemetrySession session = detail::read_session(body_in);
        ++out.tally.sessions;
        out.sessions.push_back(std::move(session));
      }
    } catch (const std::runtime_error&) {
      // CRC held but the body does not parse as its frame type — torn by
      // a writer that died mid-frame-header; trim here.
      out.torn_tail = true;
      break;
    }
    out.tally.add_frame(header, kFrameHeaderBytes + body_len);
  }
  return out;
}

struct SealedSegment {
  SegmentHeader header;
  ScannedPayload payload;
};

/// The one sealed-segment reader: opens `path` and checks the header, the
/// seal, that every payload byte forms a whole frame, the payload byte
/// count and CRC, and the record and session counts against the header.
/// Throws std::runtime_error on the first failure.
SealedSegment read_sealed_segment(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("telemetry segment: cannot read " + path);
  SealedSegment segment;
  segment.header = read_header_stream(in, path);
  const SegmentHeader& h = segment.header;
  if (h.sealed == 0) {
    throw std::runtime_error("telemetry segment: refusing unsealed segment " + path +
                             " (reopen the store to run crash recovery, or seal it)");
  }
  segment.payload = scan_payload(in, /*keep_payload=*/true);
  const PayloadTally& t = segment.payload.tally;
  if (segment.payload.torn_tail) {
    throw std::runtime_error("telemetry segment: torn frame in payload of " + path);
  }
  if (t.bytes != h.payload_bytes) {
    throw std::runtime_error("telemetry segment: payload byte count does not match header in " +
                             path);
  }
  if (t.crc != h.payload_crc) {
    throw std::runtime_error("telemetry segment: payload CRC mismatch in " + path);
  }
  if (t.records != h.record_count || t.sessions != h.session_count) {
    throw std::runtime_error("telemetry segment: frame counts do not match header in " + path);
  }
  return segment;
}

/// The sealed name of an active tail: `path` without its `.open` suffix.
std::string sealed_path_of(const std::string& open_path) {
  return open_path.substr(0, open_path.size() - std::strlen(".open"));
}

}  // namespace

// ---------------------------------------------------------------------------
// TelemetryStore

/// The active tail: its writer and the sessions already framed in it.
struct TelemetryStore::ActiveSegment {
  SegmentWriter writer;
  std::set<serve::SessionId> session_ids;
};

TelemetryStore::TelemetryStore(std::shared_ptr<TelemetryLog> log, TelemetryStoreConfig config)
    : log_(std::move(log)),
      config_(std::move(config)),
      segments_gauge_(obs::gauge("telemetry_store_segments")),
      flush_seconds_(obs::histogram("telemetry_store_flush_seconds")) {
  if (log_ == nullptr) throw std::invalid_argument("TelemetryStore: null telemetry log");
  if (config_.directory.empty()) throw std::invalid_argument("TelemetryStore: empty directory");
  fs::create_directories(config_.directory);

  recover_open_segments();
  for (const SegmentInfo& info : sealed_segments_locked()) {
    next_seq_ = std::max(next_seq_, info.header.base_seq + info.header.record_count);
  }
  refresh_segment_gauge_locked();
}

TelemetryStore::~TelemetryStore() { stop(); }

void TelemetryStore::stop() {
  // stop() runs from the destructor: a failed final flush/seal must be
  // logged, never thrown.
  try {
    pump_once();
    seal_active();
  } catch (const std::exception& error) {
    log_warn("telemetry store: final seal failed: ", error.what());
  }
}

void TelemetryStore::recover_open_segments() {
  std::vector<std::string> open_paths;
  for (const auto& entry : fs::directory_iterator(config_.directory)) {
    if (!entry.is_regular_file()) continue;
    const std::string path = entry.path().string();
    if (ends_with(path, kOpenSuffix)) open_paths.push_back(path);
  }
  std::sort(open_paths.begin(), open_paths.end());

  for (const std::string& path : open_paths) {
    SegmentHeader header;
    ScannedPayload scanned;
    try {
      std::ifstream in(path, std::ios::binary);
      if (!in) throw std::runtime_error("telemetry segment: cannot read " + path);
      header = read_header_stream(in, path);
      scanned = scan_payload(in, /*keep_payload=*/false);
    } catch (const std::runtime_error& error) {
      // Even the header is torn: nothing recoverable. Quarantine rather
      // than delete so the operator can inspect; readers ignore .corrupt.
      const std::uint64_t lost_bytes = fs::file_size(path);
      fs::rename(path, path + ".corrupt");
      truncations_.add(1);
      bytes_dropped_torn_ += lost_bytes;
      log_warn("telemetry store: quarantined ", path, " (", lost_bytes,
               " byte(s), unreadable header: ", error.what(), ")");
      continue;
    }

    const std::uint64_t file_size = fs::file_size(path);
    const std::uint64_t good_size = kSegmentHeaderBytes + scanned.tally.bytes;
    const bool trimmed = file_size > good_size;
    const std::uint64_t torn_bytes = trimmed ? file_size - good_size : 0;
    if (scanned.tally.records == 0 && scanned.tally.sessions == 0) {
      // Nothing whole survived; keep the torn bytes out of the read path.
      fs::remove(path);
      if (trimmed || scanned.torn_tail) {
        truncations_.add(1);
        dropped_torn_.add(1);
        bytes_dropped_torn_ += torn_bytes;
        log_warn("telemetry store: removed torn tail ", path, " (", torn_bytes,
                 " unrecoverable byte(s), no whole frame)");
      }
      continue;
    }
    if (trimmed) {
      fs::resize_file(path, good_size);
      truncations_.add(1);
      // A clean crash tears at most the one frame being appended, but a
      // mid-file flip discards every frame after it — the record ledger
      // can only attest "at least one", so the byte span is what sizes
      // the real loss. Both are accounted, never zero.
      dropped_torn_.add(1);
      bytes_dropped_torn_ += torn_bytes;
      log_warn("telemetry store: trimmed ", torn_bytes, " torn byte(s) from ", path, " (",
               scanned.tally.records, " whole record(s) kept)");
    }

    // Seal in place: final header over the surviving payload, then drop
    // the .open suffix. next_seq_ advances past the recovered records.
    scanned.tally.seal(header);
    if (header.close_steady_ns == 0) header.close_steady_ns = header.open_steady_ns;
    {
      std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
      if (!out) throw std::runtime_error("telemetry segment: cannot reseal " + path);
      write_header_at_start(out, header);
      if (!out) throw std::runtime_error("telemetry segment: reseal write failed for " + path);
    }
    fs::rename(path, sealed_path_of(path));
    next_seq_ = std::max(next_seq_, header.base_seq + header.record_count);
  }
}

void TelemetryStore::open_segment() {
  SegmentHeader header;
  header.base_seq = next_seq_;
  header.open_steady_ns = steady_ns();
  header.replay_fingerprint = kReplayFingerprintSeed;
  const std::string path =
      (fs::path(config_.directory) / (segment_basename(next_seq_) + kOpenSuffix)).string();
  active_ = std::make_unique<ActiveSegment>(SegmentWriter(path, header));
  append_sessions_locked();
  refresh_segment_gauge_locked();
}

void TelemetryStore::append_sessions_locked() {
  // Self-contained segments: every session known so far is written into
  // the active segment before any record that may reference it.
  for (const TelemetrySession& session : log_->sessions()) {
    if (active_->session_ids.insert(session.id).second) {
      bytes_written_.add(active_->writer.append_session(session));
    }
  }
  sessions_written_ = active_->session_ids.size();
}

void TelemetryStore::seal_active_locked() {
  if (active_ == nullptr) return;
  obs::TraceSpan span("telemetry.rotate", "telemetry");
  active_->writer.seal(steady_ns());
  fs::rename(active_->writer.path(), sealed_path_of(active_->writer.path()));
  active_.reset();
  rotations_.add(1);
  refresh_segment_gauge_locked();
}

void TelemetryStore::maybe_rotate_locked() {
  if (config_.segment_max_bytes == 0 ||
      active_->writer.tally().bytes < config_.segment_max_bytes) {
    return;
  }
  seal_active_locked();
  enforce_retention_locked();
}

std::uint64_t TelemetryStore::pump_once(std::vector<TelemetryRecord>* out) {
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mutex_);

  drain_buffer_.clear();
  const std::uint64_t lost = log_->drain(drain_buffer_);
  if (out != nullptr) out->insert(out->end(), drain_buffer_.begin(), drain_buffer_.end());

  // Disk I/O is fenced off from the drain: a telemetry disk error (full
  // disk, yanked volume) degrades to counted drops — it never propagates
  // into the pump's caller.
  if (!persist_disabled_.load(std::memory_order_relaxed)) {
    std::uint64_t appended = 0;
    try {
      persist_locked(appended);
      consecutive_persist_failures_ = 0;
    } catch (const std::exception& error) {
      note_persist_failure_locked(error.what(), appended);
    }
  } else if (!drain_buffer_.empty()) {
    // Drained but not written: the durable-log gap stays visible in the
    // same drop ledger as every other loss.
    dropped_persist_.add(drain_buffer_.size());
  }
  flush_seconds_.observe(seconds_since(t0));
  return lost;
}

void TelemetryStore::persist_locked(std::uint64_t& appended) {
  const std::size_t registered = log_->session_count();
  if (drain_buffer_.empty() && registered <= sessions_written_) return;
  // A fresh segment frames every session; sessions registered since the
  // active one opened get their frames before the records that may
  // reference them.
  if (active_ == nullptr) {
    open_segment();
  } else if (registered > sessions_written_) {
    append_sessions_locked();
  }
  for (const TelemetryRecord& record : drain_buffer_) {
    // Per-record rotation check: one oversized drain batch still splits
    // across segment boundaries instead of blowing past the budget.
    if (active_ == nullptr) open_segment();
    bytes_written_.add(active_->writer.append_record(record));
    ++next_seq_;
    records_persisted_.add(1);
    ++appended;
    maybe_rotate_locked();
  }
  if (active_ != nullptr) active_->writer.flush();
}

void TelemetryStore::note_persist_failure_locked(const char* what, std::uint64_t appended) {
  persist_errors_.add(1);
  ++consecutive_persist_failures_;

  // The drained records past the `appended` ones never reached a segment.
  const std::uint64_t unwritten =
      drain_buffer_.size() > appended ? drain_buffer_.size() - appended : 0;
  if (unwritten > 0) dropped_persist_.add(unwritten);

  // Abandon the active tail — its stream may be poisoned mid-frame. The
  // `.open` file stays on disk; the next startup trims it to the last
  // whole frame like any other crash leftover.
  active_.reset();

  if (consecutive_persist_failures_ >= kMaxConsecutivePersistFailures) {
    if (!persist_disabled_.exchange(true, std::memory_order_relaxed)) {
      log_warn("telemetry store: disabling persistence after ", consecutive_persist_failures_,
               " consecutive failures (last: ", what,
               "); pumps keep draining without disk writes");
    }
  } else {
    log_warn("telemetry store: persist failed (", what, "), ", unwritten,
             " record(s) dropped this pump");
  }
}

void TelemetryStore::seal_active() {
  std::lock_guard<std::mutex> lock(mutex_);
  seal_active_locked();
}

std::vector<SegmentInfo> TelemetryStore::sealed_segments_locked() const {
  std::vector<SegmentInfo> out;
  for (const SegmentInfo& info : list_segments(config_.directory)) {
    if (!info.open) out.push_back(info);
  }
  return out;
}

void TelemetryStore::enforce_retention_locked() {
  if (config_.retain_max_bytes == 0) return;
  std::vector<SegmentInfo> sealed = sealed_segments_locked();
  std::uint64_t total_bytes = 0;
  for (const SegmentInfo& info : sealed) total_bytes += info.header.payload_bytes;

  // The newest sealed segment is always kept, even alone over budget.
  std::size_t begin = 0;
  while (total_bytes > config_.retain_max_bytes && sealed.size() - begin > 1) {
    const SegmentInfo& victim = sealed[begin];
    fs::remove(victim.path);
    if (victim.header.record_count > 0) dropped_retention_.add(victim.header.record_count);
    total_bytes -= victim.header.payload_bytes;
    ++begin;
  }
  if (begin > 0) refresh_segment_gauge_locked();
}

void TelemetryStore::refresh_segment_gauge_locked() {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(config_.directory)) {
    if (!entry.is_regular_file()) continue;
    const std::string path = entry.path().string();
    if (ends_with(path, kSealedSuffix) || ends_with(path, kOpenSuffix)) ++n;
  }
  segments_gauge_.set(static_cast<double>(n));
}

TelemetryStore::Stats TelemetryStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.records_persisted = records_persisted_.value();
  stats.records_dropped_retention = dropped_retention_.value();
  stats.records_dropped_torn = dropped_torn_.value();
  stats.records_dropped_persist = dropped_persist_.value();
  stats.bytes_written = bytes_written_.value();
  stats.bytes_dropped_torn = bytes_dropped_torn_;
  stats.rotations = rotations_.value();
  stats.truncations = truncations_.value();
  stats.persist_errors = persist_errors_.value();
  return stats;
}

// ---------------------------------------------------------------------------
// Directory-level read side

SegmentHeader read_segment_header(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("telemetry segment: cannot read " + path);
  return read_header_stream(in, path);
}

std::vector<SegmentInfo> list_segments(const std::string& directory) {
  std::vector<SegmentInfo> out;
  if (!fs::is_directory(directory)) {
    throw std::runtime_error("telemetry segment: not a directory: " + directory);
  }
  for (const auto& entry : fs::directory_iterator(directory)) {
    if (!entry.is_regular_file()) continue;
    const std::string path = entry.path().string();
    SegmentInfo info;
    if (ends_with(path, kOpenSuffix)) {
      info.open = true;
    } else if (ends_with(path, kSealedSuffix)) {
      info.open = false;
    } else {
      continue;  // .corrupt / foreign files
    }
    info.path = path;
    info.header = read_segment_header(path);
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(), [](const SegmentInfo& a, const SegmentInfo& b) {
    if (a.header.base_seq != b.header.base_seq) return a.header.base_seq < b.header.base_seq;
    return a.path < b.path;
  });
  return out;
}

void read_segment(const std::string& path, TelemetryTrace& into) {
  const SealedSegment segment = read_sealed_segment(path);
  into.sessions.insert(into.sessions.end(), segment.payload.sessions.begin(),
                       segment.payload.sessions.end());
  into.records.insert(into.records.end(), segment.payload.records.begin(),
                      segment.payload.records.end());
}

void write_segment(const TelemetryTrace& trace, const std::string& path) {
  std::vector<TelemetrySession> sessions = trace.sessions;
  std::stable_sort(sessions.begin(), sessions.end(),
                   [](const TelemetrySession& a, const TelemetrySession& b) { return a.id < b.id; });
  SegmentWriter writer(path, SegmentHeader{});
  for (const TelemetrySession& session : sessions) writer.append_session(session);
  for (const TelemetryRecord& record : trace.records) writer.append_record(record);
  writer.seal(/*close_steady_ns=*/0);
}

TelemetryTrace load_directory(const std::string& directory) {
  TelemetryTrace trace;
  std::set<serve::SessionId> seen;
  for (const SegmentInfo& info : list_segments(directory)) {
    if (info.open) {
      throw std::runtime_error("telemetry segment: active/torn tail present in " + directory +
                               " - seal the store (or reopen it to recover) before loading");
    }
    SealedSegment segment = read_sealed_segment(info.path);
    for (TelemetrySession& session : segment.payload.sessions) {
      if (seen.insert(session.id).second) trace.sessions.push_back(std::move(session));
    }
    trace.records.insert(trace.records.end(), segment.payload.records.begin(),
                         segment.payload.records.end());
  }
  std::sort(trace.sessions.begin(), trace.sessions.end(),
            [](const TelemetrySession& a, const TelemetrySession& b) { return a.id < b.id; });
  return trace;
}

SegmentVerifyReport verify_segment(const std::string& path, const ReplayAssets* assets,
                                   const ReplayConfig* config) {
  SegmentVerifyReport report;
  report.path = path;

  SealedSegment segment;
  try {
    segment = read_sealed_segment(path);
    report.structure_ok = true;
  } catch (const std::exception& e) {
    report.error = e.what();
    return report;
  }

  const SegmentHeader& header = segment.header;
  const PayloadTally& tally = segment.payload.tally;
  report.records = segment.payload.records.size();
  report.fingerprint_ok = tally.replay_fp == header.replay_fingerprint &&
                          schema_fingerprint(tally.schema_pairs) == header.schema_fingerprint;
  // Until a replay pass overwrites it, expose the scanned recorded-action
  // digest so a structural-only FAIL diagnoses with the real value.
  report.replay_fingerprint = tally.replay_fp;
  if (!report.fingerprint_ok) {
    report.error = "recorded-action fingerprint does not match header in " + path;
  }

  if (assets != nullptr && config != nullptr) {
    TelemetryTrace trace;
    trace.records = std::move(segment.payload.records);
    const ReplayReport replay = replay_trace(trace, *assets, *config);
    report.replayed_pass = true;
    report.replayed = replay.replayed;
    report.matched = replay.matched;
    report.skipped_truncated = replay.skipped_truncated;
    report.skipped_missing_assets = replay.skipped_missing_assets;
    // The digest folds the *replayed* decisions: equality with the header
    // certifies the segment by bit-identical replay itself.
    report.replay_fingerprint = replay.fingerprint;
    report.replay_ok =
        replay.matched == replay.replayed && replay.fingerprint == header.replay_fingerprint;
  }
  return report;
}

}  // namespace verihvac::adapt
