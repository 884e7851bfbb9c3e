// Durable telemetry: segment-rotated on-disk decision logs.
//
// TelemetryLog (telemetry.hpp) is deliberately volatile — wait-free rings
// sized for one drain interval. TelemetryStore is the layer that makes a
// production fleet debuggable after the fact: each pump drains the log
// into an append-only directory of *segments*, each a framed,
// checksummed, self-contained slice of the decision stream:
//
//   seg-<base_seq:016x>.vhtseg        sealed (immutable, header final)
//   seg-<base_seq:016x>.vhtseg.open   the active tail (header provisional)
//
// Layout per segment: magic "VHTS", a fixed-width versioned header, then
// frames of [type u8 | body_len u32 | body_crc u32 | body]. A record
// frame's body is the locked detail::append_record wire layout
// (kTelemetryTraceVersion); session frames carry the session table, so
// every segment replays on its own. The segment is the repo's only
// telemetry persistence format: write_segment() consolidates a whole
// trace into one sealed segment (`trace dump --out`). The sealed header
// carries:
//
//   * a payload CRC chained over every frame header (each of which embeds
//     its body's CRC) — detects torn/flipped bits anywhere in the payload;
//   * session/decision ranges and a schema fingerprint — lets `trace ls`
//     and retention reason about a segment without scanning it;
//   * the monotonic open/close span — orders segments across restarts;
//   * a **replay fingerprint**: an FNV-1a digest of every record's
//     (session, decision_index, action). `trace verify` recomputes each
//     decision from its RNG stream coordinates (replay_trace) and digests
//     the *replayed* actions — fingerprint equality therefore certifies
//     the segment by the bit-identical-replay property itself, a strictly
//     stronger check than any checksum over stored bytes.
//
// One code path per job: one writer (the store's active tail and
// write_segment() append and seal through it; crash recovery reseals with
// the same header fill), one sealed-segment reader (read_segment() and
// verify_segment()'s structural pass) and one replay loop (replay_trace(),
// which verify_segment() runs on the records it read).
//
// Durability policy:
//   * rotation — the active segment seals when its payload reaches
//     `segment_max_bytes`, and a fresh one opens;
//   * crash recovery — on construction, any leftover `.open` tail is
//     scanned frame by frame; a torn tail is trimmed to the last whole
//     frame, counted (never silently replayed), sealed and kept;
//   * retention — oldest sealed segments are deleted beyond the
//     `retain_max_bytes` disk budget, their record counts accounted as
//     dropped;
//   * degrade — pump I/O failures (disk full is the expected failure
//     mode of a durable log) are caught, logged and counted; after a few
//     consecutive failures persistence disables itself while draining
//     keeps serving the pump's caller. A telemetry disk error never takes
//     the process down.
//
// The store owns no thread: whoever drains the log pumps it. With an
// AdaptationController attached, the controller's pump() calls
// pump_once(&records), which persists the batch and hands the same
// records to adaptation — one consumer of the TelemetryLog tap. Without
// one, the store's owner calls pump_once() on its own cadence.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adapt/telemetry.hpp"
#include "obs/instruments.hpp"

namespace verihvac::adapt {

/// Current segment container version (framing + header layout). Distinct
/// from kTelemetryTraceVersion, which governs record *bodies*; a header
/// carries both.
inline constexpr std::uint32_t kSegmentFormatVersion = 1;

/// Frame types inside a segment payload.
inline constexpr std::uint8_t kFrameSession = 0;
inline constexpr std::uint8_t kFrameRecord = 1;

/// Fixed on-disk size of a segment's file header: magic(4) +
/// serialized fields(109) + header_crc(4). Payload frames start here.
inline constexpr std::size_t kSegmentHeaderBytes = 117;

struct TelemetryStoreConfig {
  /// Segment directory (created if missing).
  std::string directory;
  /// The active segment seals once its payload reaches this many bytes
  /// (file bytes minus the fixed header); 0 = never rotate.
  std::uint64_t segment_max_bytes = 8ull << 20;
  /// Retention: the oldest sealed segments are deleted while their
  /// payload bytes sum past this budget (the newest one is always kept);
  /// 0 = unbounded. A deleted segment's records count as dropped (visible
  /// in stats + obs).
  std::uint64_t retain_max_bytes = 0;
};

/// The fixed-width segment header (fields serialized in declaration
/// order; header_crc over the serialized bytes closes the file header).
struct SegmentHeader {
  std::uint32_t format_version = kSegmentFormatVersion;
  std::uint32_t trace_version = kTelemetryTraceVersion;
  std::uint8_t sealed = 0;
  std::uint64_t base_seq = 0;  ///< store-lifetime seq of the first record
  std::uint64_t record_count = 0;
  std::uint64_t session_count = 0;  ///< session frames in the payload
  std::uint64_t session_min = 0;
  std::uint64_t session_max = 0;
  std::uint64_t decision_min = 0;
  std::uint64_t decision_max = 0;
  /// FNV-1a over the sorted distinct (obs_len, zone_temp_dim) pairs seen.
  std::uint64_t schema_fingerprint = 0;
  /// Monotonic (steady_clock) open/close instants, nanoseconds.
  std::uint64_t open_steady_ns = 0;
  std::uint64_t close_steady_ns = 0;
  std::uint64_t payload_bytes = 0;
  /// Chained CRC over every frame *header* (type, body_len, body_crc).
  /// Bodies are sealed by their own body_crc, which the frame header
  /// embeds — so the seal covers body bytes transitively while the hot
  /// drain path checksums each body exactly once.
  std::uint32_t payload_crc = 0;
  /// FNV-1a over every record's (session, decision_index, action_index).
  std::uint64_t replay_fingerprint = 0;

  friend bool operator==(const SegmentHeader&, const SegmentHeader&) = default;
};

/// One segment file as listed by list_segments(): path + parsed header.
struct SegmentInfo {
  std::string path;
  bool open = false;  ///< still the active tail (header provisional)
  SegmentHeader header;
};

class TelemetryStore {
 public:
  /// Scans `config.directory` for existing segments (running crash
  /// recovery on any `.open` tail); the active segment opens lazily on
  /// the first pump that has something to write.
  TelemetryStore(std::shared_ptr<TelemetryLog> log, TelemetryStoreConfig config);
  ~TelemetryStore();

  TelemetryStore(const TelemetryStore&) = delete;
  TelemetryStore& operator=(const TelemetryStore&) = delete;

  const TelemetryStoreConfig& config() const { return config_; }
  const std::string& directory() const { return config_.directory; }

  /// The one drain: drains the log, appends the batch to the active
  /// segment, applies rotation and retention, and appends the drained
  /// records to `out` when given. Returns the capture losses the drain
  /// reported (the TelemetryLog::drain contract). Disk failures degrade
  /// (see the file comment) and never throw. Thread-safe: pumps
  /// serialize on the store mutex.
  std::uint64_t pump_once(std::vector<TelemetryRecord>* out = nullptr);

  /// Flushes pending records and seals the active segment (if any).
  void seal_active();

  /// Pumps once and seals the active segment; never throws. Idempotent;
  /// the destructor calls it.
  void stop();

  /// Exact per-store counts. Every field but `bytes_dropped_torn` is an
  /// obs::InstanceCounter whose adds also land in the process-wide
  /// `telemetry_store_*` instruments.
  struct Stats {
    std::uint64_t records_persisted = 0;
    std::uint64_t records_dropped_retention = 0;  ///< deleted-segment records
    std::uint64_t records_dropped_torn = 0;       ///< partial tail frames trimmed
    std::uint64_t records_dropped_persist = 0;    ///< drained while persistence was down
    std::uint64_t bytes_written = 0;              ///< payload bytes appended
    std::uint64_t bytes_dropped_torn = 0;         ///< torn bytes discarded at recovery
    std::uint64_t rotations = 0;
    std::uint64_t truncations = 0;  ///< torn tails trimmed at recovery
    std::uint64_t persist_errors = 0;  ///< pump I/O failures swallowed (never fatal)
  };
  Stats stats() const;

  /// True once repeated persist failures disabled disk writes for the rest
  /// of this store's lifetime (pumps keep draining the log).
  bool persistence_disabled() const { return persist_disabled_.load(std::memory_order_relaxed); }

 private:
  struct ActiveSegment;  ///< the `.open` tail's writer + framed session ids

  void recover_open_segments();
  void open_segment();
  /// Frames every log session the active segment does not hold yet.
  void append_sessions_locked();
  void seal_active_locked();
  void maybe_rotate_locked();
  void enforce_retention_locked();
  void refresh_segment_gauge_locked();
  std::vector<SegmentInfo> sealed_segments_locked() const;
  /// The drain-and-append body of pump_once(); the only part of a pump
  /// that touches the disk and therefore the only part allowed to throw.
  /// `appended` counts the drained records it wrote before any throw.
  void persist_locked(std::uint64_t& appended);
  void note_persist_failure_locked(const char* what, std::uint64_t appended);

  std::shared_ptr<TelemetryLog> log_;
  TelemetryStoreConfig config_;

  mutable std::mutex mutex_;  ///< guards everything below
  std::unique_ptr<ActiveSegment> active_;
  std::uint64_t next_seq_ = 0;          ///< store-lifetime record sequence
  std::size_t sessions_written_ = 0;    ///< log session-table prefix already persisted
  std::vector<TelemetryRecord> drain_buffer_;
  /// Persist-failure degrade: a disk error must never take serving (or the
  /// adaptation pump riding on pump_once()) down, so pump I/O failures
  /// are counted and, after a few consecutive ones, persistence turns off.
  std::atomic<bool> persist_disabled_{false};
  std::uint32_t consecutive_persist_failures_ = 0;
  /// Stats counts, each also feeding its `telemetry_store_*` global; the
  /// three drop causes share `telemetry_store_records_dropped_total`.
  obs::InstanceCounter records_persisted_{"telemetry_store_records_persisted_total"};
  obs::InstanceCounter dropped_retention_{"telemetry_store_records_dropped_total"};
  obs::InstanceCounter dropped_torn_{"telemetry_store_records_dropped_total"};
  obs::InstanceCounter dropped_persist_{"telemetry_store_records_dropped_total"};
  obs::InstanceCounter bytes_written_{"telemetry_store_bytes_written_total"};
  obs::InstanceCounter rotations_{"telemetry_store_rotations_total"};
  obs::InstanceCounter truncations_{"telemetry_store_truncations_total"};
  obs::InstanceCounter persist_errors_{"telemetry_store_persist_errors_total"};
  /// The Stats field with no global instrument.
  std::uint64_t bytes_dropped_torn_ = 0;
  obs::Gauge& segments_gauge_;
  obs::Histogram& flush_seconds_;
};

// ---------------------------------------------------------------------------
// Directory-level read side (CLI + tests; no TelemetryStore needed).

/// Parses one segment's header; throws std::runtime_error on bad magic,
/// unsupported version or a header-CRC mismatch.
SegmentHeader read_segment_header(const std::string& path);

/// Every segment in the directory, sorted by base_seq (sealed and open).
/// Throws on an unreadable/corrupt header.
std::vector<SegmentInfo> list_segments(const std::string& directory);

/// Appends one sealed segment's sessions + records into `into`, verifying
/// the payload CRC, every frame CRC and the header's byte, record and
/// session counts; throws std::runtime_error on any mismatch, torn frame
/// or byte past the sealed payload — a corrupted segment is never
/// silently loaded.
void read_segment(const std::string& path, TelemetryTrace& into);

/// Writes the whole trace as one sealed segment (sessions sorted by id,
/// then records in vector order) that read_segment() reads back
/// record-for-record. The segment has no serving span (base_seq and the
/// steady-clock instants are 0), so the file is a pure function of the
/// trace. Throws std::runtime_error on I/O failure.
void write_segment(const TelemetryTrace& trace, const std::string& path);

/// Loads a whole directory into one trace: segments in base_seq order,
/// sessions deduplicated by id. The result is record-for-record identical
/// to the in-memory trace the same decisions produced (bench-gated).
TelemetryTrace load_directory(const std::string& directory);

/// verify: structural pass (read_segment's checks plus the recorded-action
/// and schema fingerprints) plus — when assets are supplied — a replay
/// pass that runs replay_trace() over the segment's records and compares
/// its fingerprint with the header's.
struct SegmentVerifyReport {
  std::string path;
  bool structure_ok = false;   ///< frames + CRCs + header consistency
  bool fingerprint_ok = false; ///< recorded-action digest == header
  /// Replay pass (assets supplied): per-record outcomes and the digest of
  /// replayed actions. replay_ok means every replayable record reproduced
  /// its recorded action AND the digest matches the header fingerprint.
  bool replayed_pass = false;
  bool replay_ok = false;
  std::size_t records = 0;
  std::size_t replayed = 0;
  std::size_t matched = 0;
  std::size_t skipped_truncated = 0;
  std::size_t skipped_missing_assets = 0;
  std::uint64_t replay_fingerprint = 0;
  std::string error;  ///< first structural failure, empty when structure_ok

  bool ok() const { return structure_ok && fingerprint_ok && (!replayed_pass || replay_ok); }
};

SegmentVerifyReport verify_segment(const std::string& path, const ReplayAssets* assets = nullptr,
                                   const ReplayConfig* config = nullptr);

}  // namespace verihvac::adapt
