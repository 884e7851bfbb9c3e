#include "adapt/telemetry_store.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "adapt/segment_test_utils.hpp"
#include "adapt/telemetry.hpp"
#include "control/rollout_engine.hpp"
#include "envlib/baseline_layout.hpp"
#include "serve/request_scheduler.hpp"
#include "serve/serve_test_utils.hpp"

namespace verihvac::adapt {
namespace {

using env::FeatureRole;
using env::testing::dim;

namespace fs = std::filesystem;

using serve::testing::cold_occupied;
using serve::testing::pool_with_threads;
using serve::testing::steady_forecast;
using serve::testing::toy_model;
using serve::testing::toy_policy;
using testing::kTraceVersionOffset;
using testing::restamp_header_u32;
using testing::stop_as_crash;

/// Fresh (empty) scratch directory under the system temp root.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// One synthetic decision straight into the tap (same shape as the
/// telemetry_test emitter; the store tests don't need a scheduler for
/// the framing/recovery cases).
void emit(TelemetryLog& log, serve::SessionId session, std::uint64_t index, double zone_temp) {
  const env::Observation obs = cold_occupied(zone_temp);
  const std::string key = "toy";
  serve::DecisionEvent event;
  event.session = session;
  event.decision_index = index;
  event.session_seed = 1000 + session;
  event.kind = serve::RequestKind::kDtPolicy;
  event.policy_key = &key;
  event.policy_version = 1;
  event.action_index = static_cast<std::size_t>(index % 5);
  event.action = {18.0, 26.0};
  event.observation = &obs;
  event.latency_seconds = 1e-6;
  log.on_decision(event);
}

/// The locked wire bytes of one record — the byte-identity oracle.
std::string record_bytes(const TelemetryRecord& record) {
  std::string out;
  detail::append_record(out, record);
  return out;
}

void expect_records_identical(const std::vector<TelemetryRecord>& a,
                              const std::vector<TelemetryRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(record_bytes(a[i]), record_bytes(b[i])) << "record " << i << " diverged";
  }
}

/// XORs one byte of a file in place.
void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open());
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Refused means: read_segment throws std::runtime_error (and nothing
/// else) and verify_segment reports the segment as not ok.
::testing::AssertionResult refused(const std::string& path) {
  try {
    TelemetryTrace into;
    read_segment(path, into);
    return ::testing::AssertionFailure() << "read_segment accepted it";
  } catch (const std::runtime_error&) {
  } catch (...) {
    return ::testing::AssertionFailure() << "read_segment threw a non-runtime_error";
  }
  if (verify_segment(path).ok()) return ::testing::AssertionFailure() << "verify_segment passed";
  return ::testing::AssertionSuccess();
}

TelemetryStoreConfig store_config(const std::string& dir) {
  TelemetryStoreConfig config;
  config.directory = dir;
  return config;
}

/// Sealed segments in `dir`, oldest first; fails the test on an `.open` tail.
std::vector<SegmentInfo> sealed_only(const std::string& dir) {
  std::vector<SegmentInfo> segments = list_segments(dir);
  for (const SegmentInfo& segment : segments) EXPECT_FALSE(segment.open) << segment.path;
  return segments;
}

/// Payload bytes of a probe segment holding `sessions` sessions and
/// `records` emit() records. Every emit() record and every "toy" session
/// frame has the same size, so as a `segment_max_bytes` budget this seals
/// each segment of a store with that many sessions after exactly
/// `records` records.
std::uint64_t probe_payload_bytes(serve::SessionId sessions, std::uint64_t records) {
  // Several tests probe, and `ctest -j` runs them as concurrent processes:
  // each process gets its own probe directory.
  const std::string dir = fresh_dir("verihvac_store_test_probe_" + std::to_string(::getpid()));
  auto log = std::make_shared<TelemetryLog>();
  for (serve::SessionId id = 1; id <= sessions; ++id) log->register_session(id, 1000 + id, "toy");
  TelemetryStore store(log, store_config(dir));
  for (std::uint64_t d = 0; d < records; ++d) emit(*log, 1, d, 18.0);
  store.pump_once();
  store.stop();
  const std::vector<SegmentInfo> segments = sealed_only(dir);
  fs::remove_all(dir);
  EXPECT_EQ(segments.size(), 1u);
  return segments.empty() ? 0 : segments.front().header.payload_bytes;
}

TEST(TelemetryStoreTest, ReplayFingerprintGoldenValue) {
  // Sealed segment headers store digests made with this fold and seed, so
  // the exact value over fixed records is locked. Only the session, the
  // decision index and the folded action enter the digest.
  const std::uint64_t records[3][3] = {
      {1, 0, 7}, {1, 1, 42}, {0x1234567890ull, 0xFFFFFFFFFFull, 86}};
  TelemetryRecord record;
  std::uint64_t fp = kReplayFingerprintSeed;
  for (const auto& [session, decision_index, action] : records) {
    record.session = session;
    record.decision_index = decision_index;
    fp = replay_fingerprint_update(fp, record, action);
  }
  EXPECT_EQ(fp, 0x4f04307326ef7fa2ull);
}

TEST(TelemetryStoreTest, RotatedSegmentsLoadBackByteIdentical) {
  const std::string dir = fresh_dir("verihvac_store_test_rotate");
  auto log = std::make_shared<TelemetryLog>();
  log->register_session(1, 1001, "toy");
  log->register_session(2, 1002, "toy");

  TelemetryStoreConfig config = store_config(dir);
  config.segment_max_bytes = probe_payload_bytes(2, 4);  // 4 records per segment
  std::vector<TelemetryRecord> memory;
  {
    TelemetryStore store(log, config);
    for (std::uint64_t d = 0; d < 11; ++d) {
      emit(*log, 1 + (d % 2), d / 2, 17.0 + static_cast<double>(d));
    }
    EXPECT_EQ(store.pump_once(&memory), 0u);
    store.stop();
    EXPECT_EQ(store.stats().records_persisted, 11u);
    EXPECT_GE(store.stats().rotations, 2u);
  }

  const std::vector<SegmentInfo> segments = list_segments(dir);
  ASSERT_GE(segments.size(), 3u);
  for (const SegmentInfo& segment : segments) {
    EXPECT_EQ(segment.header.sealed, 1u);
    const SegmentVerifyReport report = verify_segment(segment.path);
    EXPECT_TRUE(report.structure_ok) << report.error;
    EXPECT_TRUE(report.fingerprint_ok);
    // A structural-only pass still reports the scanned recorded-action
    // digest (the CLI prints it in FAIL diagnostics).
    EXPECT_EQ(report.replay_fingerprint, segment.header.replay_fingerprint);
  }

  const TelemetryTrace loaded = load_directory(dir);
  expect_records_identical(loaded.records, memory);
  ASSERT_EQ(loaded.sessions.size(), 2u);
  EXPECT_EQ(loaded.sessions[0].id, 1u);
  EXPECT_EQ(loaded.sessions[1].id, 2u);

  // Consolidation (what `trace dump --out` writes): the rotated directory
  // as one sealed segment is still the pumped stream, byte for byte.
  const std::string consolidated =
      (fs::path(fresh_dir("verihvac_store_test_consolidate")) / "capture.vhtseg").string();
  write_segment(load_directory(dir), consolidated);
  TelemetryTrace reread;
  read_segment(consolidated, reread);
  expect_records_identical(reread.records, memory);
  EXPECT_EQ(reread.sessions.size(), 2u);
  const SegmentVerifyReport report = verify_segment(consolidated);
  EXPECT_TRUE(report.ok()) << report.error;
}

// The store's active tail and write_segment() are one writer: a segment the
// store sealed, reloaded and rewritten, has the same payload bytes and the
// same header but for the serving span.
TEST(TelemetryStoreTest, StoreAndWriteSegmentWriteTheSameSegment) {
  const std::string dir = fresh_dir("verihvac_store_test_writers");
  auto log = std::make_shared<TelemetryLog>();
  log->register_session(2, 1002, "toy");
  log->register_session(1, 1001, "toy/other");
  {
    TelemetryStore store(log, store_config(dir));
    for (std::uint64_t d = 0; d < 6; ++d) {
      emit(*log, 1 + (d % 2), d / 2, 16.5 + static_cast<double>(d));
    }
    store.pump_once();
    store.stop();
  }
  const std::vector<SegmentInfo> segments = sealed_only(dir);
  ASSERT_EQ(segments.size(), 1u);
  const std::string written =
      (fs::path(fresh_dir("verihvac_store_test_writers_out")) / "written.vhtseg").string();
  write_segment(load_directory(dir), written);

  const std::string stored_bytes = file_bytes(segments[0].path);
  const std::string written_bytes = file_bytes(written);
  ASSERT_GT(stored_bytes.size(), kSegmentHeaderBytes);
  EXPECT_EQ(stored_bytes.substr(kSegmentHeaderBytes), written_bytes.substr(kSegmentHeaderBytes));

  SegmentHeader stored = read_segment_header(segments[0].path);
  SegmentHeader rewritten = read_segment_header(written);
  EXPECT_GT(stored.close_steady_ns, 0u);
  EXPECT_EQ(rewritten.open_steady_ns, 0u);
  EXPECT_EQ(rewritten.close_steady_ns, 0u);
  stored.open_steady_ns = stored.close_steady_ns = 0;
  EXPECT_TRUE(stored == rewritten);
  EXPECT_EQ(rewritten.record_count, 6u);
  EXPECT_EQ(rewritten.session_count, 2u);
}

TEST(TelemetryStoreTest, TornTailIsTrimmedCountedAndPrefixRecovered) {
  const std::string dir = fresh_dir("verihvac_store_test_torn");
  auto log = std::make_shared<TelemetryLog>();
  log->register_session(1, 1001, "toy");

  std::vector<TelemetryRecord> captured;
  {
    TelemetryStore store(log, store_config(dir));
    for (std::uint64_t d = 0; d < 6; ++d) emit(*log, 1, d, 17.0 + static_cast<double>(d));
    store.pump_once(&captured);
    stop_as_crash(store);  // leave the .open tail behind
  }
  ASSERT_EQ(captured.size(), 6u);

  // Cut into the last frame: the torn record must be detected and
  // trimmed, never silently replayed.
  fs::path open_tail;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".open") open_tail = entry.path();
  }
  ASSERT_FALSE(open_tail.empty());
  fs::resize_file(open_tail, fs::file_size(open_tail) - 7);

  TelemetryStore recovered(std::make_shared<TelemetryLog>(), store_config(dir));
  EXPECT_EQ(recovered.stats().truncations, 1u);
  EXPECT_EQ(recovered.stats().records_dropped_torn, 1u);
  EXPECT_GT(recovered.stats().bytes_dropped_torn, 0u);  // the trimmed span is sized, not just flagged
  recovered.stop();

  const TelemetryTrace loaded = load_directory(dir);
  captured.pop_back();
  expect_records_identical(loaded.records, captured);
}

TEST(TelemetryStoreTest, FlippedPayloadByteIsRefusedNeverReplayed) {
  const std::string dir = fresh_dir("verihvac_store_test_flip");
  auto log = std::make_shared<TelemetryLog>();
  log->register_session(1, 1001, "toy");
  log->register_session(2, 1002, "toy");
  {
    TelemetryStore store(log, store_config(dir));
    for (std::uint64_t d = 0; d < 10; ++d) emit(*log, 1 + (d % 2), d / 2, 18.0);
    store.pump_once();
    store.stop();
  }
  const std::vector<SegmentInfo> segments = list_segments(dir);
  ASSERT_EQ(segments.size(), 1u);
  const std::string path = segments[0].path;

  // A flip inside a frame *body* trips that frame's body CRC.
  flip_byte(path, kSegmentHeaderBytes + 60);
  TelemetryTrace into;
  EXPECT_THROW(read_segment(path, into), std::runtime_error);
  const SegmentVerifyReport body_report = verify_segment(path);
  EXPECT_FALSE(body_report.structure_ok);
  EXPECT_FALSE(body_report.ok());
  flip_byte(path, kSegmentHeaderBytes + 60);  // restore

  // A flip inside a frame *header* trips the chained payload CRC (the
  // body bytes themselves still hash clean).
  flip_byte(path, kSegmentHeaderBytes + 5);  // body_crc field of frame 0
  EXPECT_FALSE(verify_segment(path).structure_ok);
  flip_byte(path, kSegmentHeaderBytes + 5);  // restore
  EXPECT_TRUE(verify_segment(path).ok());

  // Mutation sweep over two small sealed segments, one per writer (the
  // store and write_segment): every single-bit flip, every truncation and
  // a 16-byte trailing tail must be refused by both readers. The written
  // one adds a session and an MBRL record, so a forecast block is swept.
  TelemetryTrace trace;
  read_segment(path, trace);
  trace.sessions.push_back({3, 1003, "toy/mbrl"});
  TelemetryRecord mbrl = trace.records.back();
  mbrl.session = 3;
  mbrl.kind = static_cast<std::uint8_t>(serve::RequestKind::kMbrlFallback);
  mbrl.forecast_len = 3;
  trace.records.push_back(mbrl);
  const std::string written = (fs::path(dir) / "written.vhtseg").string();
  write_segment(trace, written);
  const std::string mutant = (fs::path(dir) / "mutant.bin").string();
  std::mt19937 rng(14);
  for (const std::string& source : {path, written}) {
    ASSERT_TRUE(verify_segment(source).ok()) << source;
    const std::string original = file_bytes(source);
    ASSERT_LT(original.size(), 4096u);  // keeps the sweep to a few thousand mutants
    for (std::size_t offset = 0; offset < original.size(); ++offset) {
      std::string bytes = original;
      bytes[offset] = static_cast<char>(bytes[offset] ^ (1 << (rng() % 8)));
      write_bytes(mutant, bytes);
      ASSERT_TRUE(refused(mutant)) << source << ": bit flip at byte " << offset;
    }
    for (std::size_t length = 0; length < original.size(); ++length) {
      write_bytes(mutant, original.substr(0, length));
      ASSERT_TRUE(refused(mutant)) << source << ": truncated to " << length << " bytes";
    }
    write_bytes(mutant, original + std::string(16, '\x5a'));
    EXPECT_TRUE(refused(mutant)) << source << ": 16-byte trailing tail";
  }
}

TEST(TelemetryStoreTest, CorruptedFileHeaderIsRefused) {
  const std::string dir = fresh_dir("verihvac_store_test_header");
  auto log = std::make_shared<TelemetryLog>();
  {
    TelemetryStore store(log, store_config(dir));
    emit(*log, 1, 0, 18.0);
    store.pump_once();
    store.stop();
  }
  const std::vector<SegmentInfo> segments = list_segments(dir);
  ASSERT_EQ(segments.size(), 1u);
  const std::string path = segments[0].path;
  const std::string original = file_bytes(path);
  const auto expect_refused = [&](const char* what) {
    EXPECT_THROW(read_segment_header(path), std::runtime_error) << what;
    EXPECT_THROW(list_segments(dir), std::runtime_error) << what;
    EXPECT_TRUE(refused(path)) << what;
    write_bytes(path, original);
  };

  flip_byte(path, 8);  // inside the fixed header fields
  expect_refused("flipped header byte");
  // A well-formed, re-CRC'd header naming a record layout no writer
  // produces: the version alone must refuse it.
  restamp_header_u32(path, kTraceVersionOffset, 1);
  expect_refused("trace_version 1");
  restamp_header_u32(path, kTraceVersionOffset, kTelemetryTraceVersion + 1);
  expect_refused("trace_version from the future");
  EXPECT_TRUE(verify_segment(path).ok());
}

TEST(TelemetryStoreTest, PersistFailureDegradesInsteadOfThrowing) {
  const std::string dir = fresh_dir("verihvac_store_test_persistfail");
  auto log = std::make_shared<TelemetryLog>();
  log->register_session(1, 1001, "toy");

  TelemetryStore store(log, store_config(dir));
  std::vector<TelemetryRecord> handed;
  emit(*log, 1, 0, 18.0);
  store.pump_once(&handed);
  store.seal_active();
  EXPECT_EQ(store.stats().persist_errors, 0u);

  // Yank the disk out from under the store: a plain file now sits where
  // the segment directory was, so every subsequent segment open fails.
  fs::remove_all(dir);
  std::ofstream(dir).put('x');

  for (std::uint64_t d = 1; d <= 4; ++d) {
    emit(*log, 1, d, 18.0);
    EXPECT_NO_THROW(store.pump_once(&handed));
  }
  const TelemetryStore::Stats stats = store.stats();
  EXPECT_GE(stats.persist_errors, 3u);
  EXPECT_TRUE(store.persistence_disabled());
  EXPECT_EQ(stats.records_dropped_persist, 4u);  // the gap is ledgered, not silent

  // The pump outlives the disk: every record (the persisted one and all
  // four dropped ones) still reaches the pump's caller, and shutdown stays
  // exception-free.
  EXPECT_EQ(handed.size(), 5u);
  EXPECT_NO_THROW(store.stop());
  fs::remove(dir);
}

// A byte budget just above one segment's payload keeps exactly the newest
// sealed segment: each seal deletes the one before it.
TEST(TelemetryStoreTest, ByteBudgetKeepsTheNewestSegment) {
  // One record per segment, every record the same size: a probe store
  // measures one segment's payload.
  const std::uint64_t segment_payload = probe_payload_bytes(1, 1);
  ASSERT_GT(segment_payload, 0u);

  const std::string dir = fresh_dir("verihvac_store_test_bytes");
  auto log = std::make_shared<TelemetryLog>();
  log->register_session(1, 1001, "toy");
  TelemetryStoreConfig config = store_config(dir);
  config.segment_max_bytes = 1;  // every record seals its own segment
  config.retain_max_bytes = segment_payload + 1;
  TelemetryStore store(log, config);
  for (std::uint64_t d = 0; d < 5; ++d) {
    emit(*log, 1, d, 18.0);
    store.pump_once();
    const std::vector<SegmentInfo> segments = sealed_only(dir);
    ASSERT_EQ(segments.size(), 1u) << "after pump " << d;
    EXPECT_EQ(segments.front().header.payload_bytes, segment_payload);
    EXPECT_EQ(segments.front().header.decision_min, d);
    EXPECT_EQ(store.stats().records_dropped_retention, d);
  }
  store.stop();
  EXPECT_EQ(store.stats().rotations, 5u);
}

// Retention never loses a record silently: every persisted record is
// either still in a segment on disk or counted in
// records_dropped_retention, and the drops are exactly the records of the
// deleted (oldest) segments.
TEST(TelemetryStoreTest, RetentionDropsAddUpToTheDroppedCount) {
  const std::string dir = fresh_dir("verihvac_store_test_drops");
  auto log = std::make_shared<TelemetryLog>();
  log->register_session(1, 1001, "toy");
  log->register_session(2, 1002, "toy");

  TelemetryStoreConfig config = store_config(dir);
  config.segment_max_bytes = probe_payload_bytes(2, 3);  // 3 records per segment
  config.retain_max_bytes = 1;  // over budget whenever two segments are sealed
  TelemetryStore store(log, config);
  for (std::uint64_t d = 0; d < 10; ++d) emit(*log, 1 + (d % 2), d / 2, 18.0 + d);
  store.pump_once();
  store.stop();

  // Seals at records 3, 6 and 9 each delete the previous segment; the
  // final seal of the one-record tail enforces no retention.
  const std::vector<SegmentInfo> segments = sealed_only(dir);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].header.base_seq, 6u);
  EXPECT_EQ(segments[0].header.record_count, 3u);
  EXPECT_EQ(segments[1].header.base_seq, 9u);
  EXPECT_EQ(segments[1].header.record_count, 1u);

  const TelemetryStore::Stats stats = store.stats();
  std::uint64_t on_disk = 0;
  for (const SegmentInfo& segment : segments) on_disk += segment.header.record_count;
  EXPECT_EQ(stats.records_persisted, 10u);
  EXPECT_EQ(stats.records_dropped_retention, 6u);
  EXPECT_EQ(stats.records_dropped_retention + on_disk, stats.records_persisted);
  EXPECT_EQ(load_directory(dir).records.size(), on_disk);
}

// The per-store Stats and the process-wide `telemetry_store_*` counters
// count the same events. One store rotates, drops a segment to retention
// and crashes with an open tail; a second recovers the torn tail, then
// loses its disk. Every global delta equals the two stores' Stats summed;
// the dropped counter is torn + persist + retention.
TEST(TelemetryStoreTest, StatsMatchGlobalCounterDeltas) {
  // Probed before the counters are read: the probe store counts too.
  const std::uint64_t two_records = probe_payload_bytes(1, 2);
  const char* const names[] = {
      "telemetry_store_records_persisted_total", "telemetry_store_records_dropped_total",
      "telemetry_store_bytes_written_total",     "telemetry_store_rotations_total",
      "telemetry_store_truncations_total",       "telemetry_store_persist_errors_total"};
  std::vector<std::uint64_t> before;
  for (const char* name : names) before.push_back(obs::counter(name).value());

  const std::string dir = fresh_dir("verihvac_store_test_mirror");
  std::vector<TelemetryStore::Stats> all;
  {
    auto log = std::make_shared<TelemetryLog>();
    log->register_session(1, 1001, "toy");
    TelemetryStoreConfig config = store_config(dir);
    config.segment_max_bytes = two_records;  // 2 records per segment
    config.retain_max_bytes = 2 * two_records;  // keeps 2 sealed segments
    TelemetryStore store(log, config);
    for (std::uint64_t d = 0; d < 11; ++d) emit(*log, 1, d, 18.0);
    store.pump_once();
    stop_as_crash(store);
    all.push_back(store.stats());
  }
  fs::path open_tail;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".open") open_tail = entry.path();
  }
  ASSERT_FALSE(open_tail.empty());
  fs::resize_file(open_tail, fs::file_size(open_tail) - 7);
  {
    auto log = std::make_shared<TelemetryLog>();
    log->register_session(2, 1002, "toy");
    TelemetryStore store(log, store_config(dir));
    emit(*log, 2, 0, 18.0);
    store.pump_once();
    store.seal_active();
    fs::remove_all(dir);
    std::ofstream(dir).put('x');
    for (std::uint64_t d = 1; d <= 4; ++d) {
      emit(*log, 2, d, 18.0);
      store.pump_once();
    }
    store.stop();
    all.push_back(store.stats());
  }
  fs::remove(dir);

  TelemetryStore::Stats sum;
  for (const TelemetryStore::Stats& s : all) {
    sum.records_persisted += s.records_persisted;
    sum.records_dropped_retention += s.records_dropped_retention;
    sum.records_dropped_torn += s.records_dropped_torn;
    sum.records_dropped_persist += s.records_dropped_persist;
    sum.bytes_written += s.bytes_written;
    sum.rotations += s.rotations;
    sum.truncations += s.truncations;
    sum.persist_errors += s.persist_errors;
  }
  EXPECT_GT(sum.rotations, 0u);
  EXPECT_GT(sum.records_dropped_retention, 0u);
  EXPECT_EQ(sum.records_dropped_torn, 1u);
  EXPECT_EQ(sum.records_dropped_persist, 4u);
  EXPECT_GT(sum.persist_errors, 0u);
  const std::uint64_t expected[] = {
      sum.records_persisted,
      sum.records_dropped_torn + sum.records_dropped_persist + sum.records_dropped_retention,
      sum.bytes_written,
      sum.rotations,
      sum.truncations,
      sum.persist_errors};
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(obs::counter(names[i]).value() - before[i], expected[i]) << names[i];
  }
}

TEST(TelemetryStoreTest, DirectoryDatasetMatchesTraceDataset) {
  const std::string dir = fresh_dir("verihvac_store_test_dataset");
  auto log = std::make_shared<TelemetryLog>();
  log->register_session(1, 1001, "toy");
  log->register_session(2, 1002, "toy");

  TelemetryStoreConfig config = store_config(dir);
  config.segment_max_bytes = 1;  // one record per segment: every transition pairs across two
  TelemetryStore store(log, config);
  for (std::uint64_t d = 0; d < 10; ++d) {
    emit(*log, 1 + (d % 2), d / 2, 16.0 + static_cast<double>(d));
  }
  store.pump_once();
  store.stop();

  const dyn::TransitionDataset dataset = trace_to_dataset(load_directory(dir));
  ASSERT_EQ(dataset.size(), 8u);  // 2 sessions x (5 records -> 4 transitions)
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    // A session's consecutive decisions are two emits (2 degrees) apart.
    EXPECT_DOUBLE_EQ(dataset.at(i).next_zone_temp,
                     dataset.at(i).input[dim(FeatureRole::kZoneTemp)] + 2.0);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: live serving through the scheduler tap, persisted to disk,
// then replay-certified from the segments alone at 1/4/8 threads.

TEST(TelemetryStoreReplayTest, SegmentsReplayBitIdenticallyAcrossThreadCounts) {
  const std::string dir = fresh_dir("verihvac_store_test_replay");
  const auto policy = toy_policy();
  const auto model = toy_model();
  control::RandomShootingConfig rs;
  rs.samples = 24;
  rs.horizon = 4;

  auto log = std::make_shared<TelemetryLog>();
  auto registry = std::make_shared<serve::PolicyRegistry>();
  auto sessions = std::make_shared<serve::SessionManager>();
  const std::uint64_t policy_version = registry->install("toy", policy);
  serve::RequestScheduler scheduler({}, registry, sessions, rs, control::ActionSpace{},
                                    env::RewardConfig{}, pool_with_threads(2));
  const std::uint64_t model_generation = scheduler.install_model("toy", model);
  scheduler.set_tap(log);

  std::vector<serve::SessionId> ids;
  for (std::size_t s = 0; s < 2; ++s) {
    serve::SessionConfig session;
    session.policy_key = "toy";
    session.seed = 6000 + 17 * s;
    ids.push_back(sessions->open(session));
    log->register_session(ids.back(), session.seed, session.policy_key);
  }

  TelemetryStoreConfig config = store_config(dir);
  config.segment_max_bytes = 1;  // one record per segment: replay must hold across rotation
  TelemetryStore store(log, config);
  for (std::size_t round = 0; round < 4; ++round) {
    std::vector<serve::ControlRequest> batch;
    for (std::size_t s = 0; s < ids.size(); ++s) {
      serve::ControlRequest request;
      request.session = ids[s];
      request.kind = s == 0 ? serve::RequestKind::kDtPolicy : serve::RequestKind::kMbrlFallback;
      request.observation = cold_occupied(15.0 + static_cast<double>(round + s));
      if (request.kind == serve::RequestKind::kMbrlFallback) {
        request.forecast = steady_forecast(request.observation, rs.horizon);
      }
      batch.push_back(std::move(request));
    }
    scheduler.serve_batch(batch);
    store.pump_once();
  }
  store.stop();

  ReplayAssets assets;
  assets.policies[policy_version] = policy;
  assets.models[model_generation] = model;

  const std::vector<SegmentInfo> segments = list_segments(dir);
  ASSERT_GE(segments.size(), 2u);
  const TelemetryTrace trace = load_directory(dir);
  ASSERT_EQ(trace.records.size(), 8u);
  // Every rotated segment, and the directory consolidated into one sealed
  // segment, must replay-certify.
  std::vector<std::string> paths;
  for (const SegmentInfo& segment : segments) paths.push_back(segment.path);
  paths.push_back(
      (fs::path(fresh_dir("verihvac_store_test_replay_consolidated")) / "all.vhtseg").string());
  write_segment(trace, paths.back());

  for (const std::size_t threads : {1u, 4u, 8u}) {
    ReplayConfig replay;
    replay.rs = rs;
    replay.engine = std::make_shared<const control::RolloutEngine>(
        control::RolloutEngineConfig{threads, /*min_parallel_batch=*/1});
    for (const std::string& path : paths) {
      const SegmentVerifyReport report = verify_segment(path, &assets, &replay);
      EXPECT_TRUE(report.replayed_pass);
      EXPECT_TRUE(report.ok()) << path << " at " << threads << " threads: " << report.error;
      EXPECT_EQ(report.matched, report.replayed);
    }
    const ReplayReport report = replay_trace(trace, assets, replay);
    EXPECT_EQ(report.replayed, trace.records.size());
    EXPECT_TRUE(report.bit_identical()) << "disk replay diverged at " << threads << " threads";
  }
}

}  // namespace
}  // namespace verihvac::adapt
