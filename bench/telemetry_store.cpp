// Bench — durable telemetry store correctness + overhead (ISSUE 10
// acceptance).
//
// The store's promise: what lands on disk IS the decision stream — not a
// lossy approximation of it — and making it durable costs the serve path
// (almost) nothing. Four sections gate that promise:
//
//   1. Durability equivalence. A mixed (DT + MBRL) serving run is captured
//      through ONE TelemetryLog tap consumed via TelemetryStore::fetch()
//      (the adapt-loop seam), with tiny segments so the run crosses several
//      rotation boundaries. The directory must reload record-for-record
//      byte-identical to the fetched in-memory stream, every sealed
//      segment must replay-certify (`verify_segment` with assets), and the
//      reloaded trace must replay bit-identically at engine pools 1/4/8.
//
//   2. Consolidation. The whole capture directory written as one sealed
//      segment (write_segment, what `trace dump --out` does) must read
//      back record-for-record byte-identical to the fetched stream and
//      replay-certify (`verify_segment` with assets).
//
//   3. Crash recovery. A tail segment truncated mid-frame is trimmed to
//      the last whole record and counted — the surviving prefix is
//      byte-identical to the captured stream. A flipped payload byte and a
//      corrupted header are both detected (read refuses, verify fails) —
//      a damaged segment is never silently replayed.
//
//   4. Overhead. The same serve loop with the in-memory tap alone vs tap +
//      background-writer store, interleaved best-of trials: durable
//      logging must cost < 5% serve-path throughput.
//
// Emits BENCH_telemetry.json. --smoke shrinks workloads and skips the
// noise-sensitive overhead gate; the exact gates (equivalence,
// consolidation, recovery) hold at any scale.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

#include "adapt/telemetry.hpp"
#include "adapt/telemetry_store.hpp"
#include "bench_common.hpp"
#include "control/rollout_engine.hpp"
#include "obs/instruments.hpp"
#include "serve/request_scheduler.hpp"

namespace {

using namespace verihvac;
namespace fs = std::filesystem;
using bench::seconds_since;

env::Observation observation_for(std::size_t i) {
  env::Observation obs;
  obs.zone_temp_c = 14.0 + static_cast<double>(i % 17);
  obs.weather.outdoor_temp_c = -8.0 + static_cast<double>(i % 23);
  obs.weather.humidity_pct = 50.0;
  obs.weather.wind_mps = 3.0;
  obs.weather.solar_wm2 = static_cast<double>((i * 37) % 400);
  obs.occupants = (i % 3 == 0) ? 11.0 : 0.0;
  return obs;
}

std::shared_ptr<const common::TaskPool> pool_with_threads(std::size_t threads) {
  return std::make_shared<const common::TaskPool>(
      common::TaskPoolConfig{threads, /*min_parallel_batch=*/1});
}

/// Fresh serving stack over the shared toy assets, always tapped.
struct Stack {
  std::shared_ptr<adapt::TelemetryLog> log;
  std::shared_ptr<serve::PolicyRegistry> registry = std::make_shared<serve::PolicyRegistry>();
  std::shared_ptr<serve::SessionManager> sessions = std::make_shared<serve::SessionManager>();
  std::unique_ptr<serve::RequestScheduler> scheduler;
  std::uint64_t policy_version = 0;
  std::uint64_t model_generation = 0;
  std::vector<serve::SessionId> ids;

  Stack(const std::shared_ptr<const core::DtPolicy>& policy,
        const std::shared_ptr<const dyn::DynamicsModel>& model,
        const control::RandomShootingConfig& rs, std::size_t n_sessions)
      : log(std::make_shared<adapt::TelemetryLog>()) {
    policy_version = registry->install("toy", policy);
    scheduler = std::make_unique<serve::RequestScheduler>(
        serve::SchedulerConfig{}, registry, sessions, rs, control::ActionSpace{},
        env::RewardConfig{}, pool_with_threads(2));
    model_generation = scheduler->install_model("toy", model);
    scheduler->set_tap(log);
    for (std::size_t s = 0; s < n_sessions; ++s) {
      serve::SessionConfig session;
      session.policy_key = "toy";
      session.seed = 5000 + 13 * s;
      ids.push_back(sessions->open(session));
      log->register_session(ids.back(), session.seed, session.policy_key);
    }
  }

  serve::ControlRequest request(std::size_t i, std::size_t horizon) const {
    serve::ControlRequest request;
    request.session = ids[i % ids.size()];
    request.kind =
        i % 4 == 0 ? serve::RequestKind::kMbrlFallback : serve::RequestKind::kDtPolicy;
    request.observation = observation_for(i);
    if (request.kind == serve::RequestKind::kMbrlFallback) {
      env::Disturbance d;
      d.weather = request.observation.weather;
      d.occupants = request.observation.occupants;
      request.forecast = std::vector<env::Disturbance>(horizon, d);
    }
    return request;
  }
};

/// A record's exact wire bytes (the trace/segment serialization) — the
/// identity the byte-for-byte gates compare, with no struct-padding noise.
std::string record_bytes(const adapt::TelemetryRecord& record) {
  std::string out;
  adapt::detail::append_record(out, record);
  return out;
}

bool records_identical(const std::vector<adapt::TelemetryRecord>& a,
                       const std::vector<adapt::TelemetryRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (record_bytes(a[i]) != record_bytes(b[i])) return false;
  }
  return true;
}

/// Replays `trace` at engine pools 1/4/8; true only if every pool
/// reproduces every recorded action.
bool replays_bit_identical(const adapt::TelemetryTrace& trace, const adapt::ReplayAssets& assets,
                           const control::RandomShootingConfig& rs, const char* label) {
  bool all = true;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    adapt::ReplayConfig config;
    config.rs = rs;
    config.engine = std::make_shared<const control::RolloutEngine>(
        control::RolloutEngineConfig{threads, /*min_parallel_batch=*/1});
    const adapt::ReplayReport report = adapt::replay_trace(trace, assets, config);
    const bool ok = report.replayed == trace.records.size() && report.bit_identical();
    std::printf("  %s pool %zu: %zu/%zu replayed, %zu matched%s\n", label, threads,
                report.replayed, trace.records.size(), report.matched, ok ? "" : "  <-- DIVERGED");
    all = all && ok;
  }
  return all;
}

/// Flips one byte in place at `offset`.
void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("verihvac_bench_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::printf("== telemetry_store — byte-identical durability, verified replay, <5%% "
              "serve overhead ==\n%s\n\n",
              smoke ? "(smoke scale)" : "(bench scale)");

  obs::register_catalog();
  const auto toy_policy = bench::toy_decision_policy();
  const auto toy_model = bench::toy_dynamics_model();
  control::RandomShootingConfig toy_rs;
  toy_rs.samples = smoke ? 16 : 32;
  toy_rs.horizon = smoke ? 3 : 5;

  bench::JsonObject artifact;
  artifact.field("bench", std::string("telemetry_store")).field_bool("smoke", smoke);
  bool failed = false;

  // The in-memory stream section 1 captures; sections 2 and 3 compare
  // against (slices of) it.
  adapt::TelemetryTrace memory;
  adapt::ReplayAssets assets;
  const fs::path capture_dir = fresh_dir("telemetry_capture");

  // ---- Section 1: durability equivalence across rotation boundaries.
  {
    const std::size_t decisions = smoke ? 240 : 960;
    Stack stack(toy_policy, toy_model, toy_rs, /*n_sessions=*/3);
    assets.policies[stack.policy_version] = toy_policy;
    assets.models[stack.model_generation] = toy_model;

    adapt::TelemetryStoreConfig config;
    config.directory = capture_dir.string();
    config.segment_max_bytes = 4096;  // ~10 records/segment: many rotations
    config.start_writer = false;
    adapt::TelemetryStore store(stack.log, config);

    std::vector<adapt::TelemetryRecord> fetched;
    std::uint64_t lost = 0;
    for (std::size_t i = 0; i < decisions; ++i) {
      stack.scheduler->serve(stack.request(i, toy_rs.horizon));
      if (i % 32 == 31) lost += store.fetch(fetched);
    }
    lost += store.fetch(fetched);
    store.stop();  // seals the tail

    memory.sessions = stack.log->sessions();
    memory.records = std::move(fetched);

    const adapt::TelemetryTrace disk = adapt::load_directory(capture_dir.string());
    const auto stats = store.stats();
    const bool bytes_equal = lost == 0 && records_identical(memory.records, disk.records) &&
                             disk.sessions.size() == memory.sessions.size();
    std::printf("capture: %zu decisions -> %llu persisted across %llu rotation(s), "
                "%llu capture-lost; disk vs memory: %s\n",
                decisions, static_cast<unsigned long long>(stats.records_persisted),
                static_cast<unsigned long long>(stats.rotations),
                static_cast<unsigned long long>(lost),
                bytes_equal ? "byte-identical" : "DIVERGED");

    bool verified = true;
    adapt::ReplayConfig verify_config;
    verify_config.rs = toy_rs;
    for (const adapt::SegmentInfo& seg : adapt::list_segments(capture_dir.string())) {
      const adapt::SegmentVerifyReport report =
          adapt::verify_segment(seg.path, &assets, &verify_config);
      verified = verified && report.ok() && report.replay_ok;
    }
    std::printf("verify: every sealed segment replay-certified: %s\n",
                verified ? "yes" : "NO");
    const bool replay_ok = replays_bit_identical(disk, assets, toy_rs, "disk replay");

    artifact.field("capture_decisions", decisions)
        .field("capture_rotations", static_cast<std::size_t>(stats.rotations))
        .field_bool("disk_equals_memory", bytes_equal)
        .field_bool("segments_replay_certified", verified)
        .field_bool("replay_bit_identical_pools_1_4_8", replay_ok);
    if (!bytes_equal || !verified || !replay_ok || stats.rotations < 2) {
      std::printf("FAIL: durable stream is not the decision stream\n");
      failed = true;
    }
  }

  // ---- Section 2: consolidation — the capture directory written as one
  // sealed segment is the same stream and still replay-certifies.
  {
    const fs::path consolidated = fresh_dir("telemetry_consolidate") / "capture.vhtseg";
    adapt::write_segment(adapt::load_directory(capture_dir.string()), consolidated.string());
    adapt::TelemetryTrace reread;
    adapt::read_segment(consolidated.string(), reread);
    const bool preserved = records_identical(memory.records, reread.records) &&
                           reread.sessions.size() == memory.sessions.size();

    adapt::ReplayConfig verify_config;
    verify_config.rs = toy_rs;
    const adapt::SegmentVerifyReport report =
        adapt::verify_segment(consolidated.string(), &assets, &verify_config);
    const bool certified =
        report.ok() && report.replay_ok && report.replayed == reread.records.size();
    std::printf("consolidation: %zu record(s) in one segment; stream %s, replay %s\n",
                reread.records.size(), preserved ? "byte-identical" : "DIVERGED",
                certified ? "certified" : "NOT CERTIFIED");

    artifact.field("consolidated_records", reread.records.size())
        .field_bool("consolidated_equals_memory", preserved)
        .field_bool("consolidated_replay_certified", certified);
    if (!preserved || !certified) {
      std::printf("FAIL: the consolidated segment is not the decision stream\n");
      failed = true;
    }
  }

  // ---- Section 3: crash recovery — torn tails trimmed and counted,
  // corruption detected, never silently replayed.
  {
    const fs::path dir = fresh_dir("telemetry_crash");
    const std::size_t decisions = smoke ? 48 : 96;
    Stack stack(toy_policy, toy_model, toy_rs, /*n_sessions=*/3);

    adapt::TelemetryStoreConfig config;
    config.directory = dir.string();
    config.start_writer = false;
    config.seal_on_close = false;  // leave the .open tail a crash would
    std::vector<adapt::TelemetryRecord> captured;
    {
      adapt::TelemetryStore store(stack.log, config);
      for (std::size_t i = 0; i < decisions; ++i) {
        stack.scheduler->serve(stack.request(i, toy_rs.horizon));
      }
      store.fetch(captured);
      store.stop();
    }

    fs::path open_tail;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().string().ends_with(".open")) open_tail = entry.path();
    }
    const std::uint64_t full_size = fs::file_size(open_tail);
    fs::resize_file(open_tail, full_size - 7);  // tear the last frame

    std::uint64_t truncations = 0;
    std::uint64_t torn = 0;
    {
      adapt::TelemetryStore store(std::make_shared<adapt::TelemetryLog>(), config);
      truncations = store.stats().truncations;
      torn = store.stats().records_dropped_torn;
    }
    const adapt::TelemetryTrace recovered = adapt::load_directory(dir.string());
    const std::vector<adapt::TelemetryRecord> expected(captured.begin(),
                                                       captured.end() - static_cast<long>(torn));
    const bool trimmed = truncations == 1 && torn >= 1 &&
                         recovered.records.size() == captured.size() - torn &&
                         records_identical(expected, recovered.records);
    std::printf("torn tail: %llu byte(s) cut mid-frame -> %llu truncation(s), %llu record(s) "
                "dropped, %zu recovered: %s\n",
                7ull, static_cast<unsigned long long>(truncations),
                static_cast<unsigned long long>(torn), recovered.records.size(),
                trimmed ? "byte-identical prefix" : "WRONG");

    // Flip one payload byte in a sealed segment: read refuses, verify fails.
    const auto segments = adapt::list_segments(dir.string());
    const std::string victim = segments.front().path;
    flip_byte(victim, adapt::kSegmentHeaderBytes + 60);  // 60 lands in a frame
    bool read_refused = false;
    try {
      adapt::TelemetryTrace trace;
      adapt::read_segment(victim, trace);
    } catch (const std::exception&) {
      read_refused = true;
    }
    const adapt::SegmentVerifyReport flipped = adapt::verify_segment(victim);
    std::printf("flipped payload byte: read_segment %s, verify structure_ok=%d (%s)\n",
                read_refused ? "refused" : "ACCEPTED", flipped.structure_ok ? 1 : 0,
                flipped.error.c_str());

    // Corrupt the header of another segment: even the header parse refuses.
    const std::string victim2 = segments.back().path;
    flip_byte(victim2, 8);
    bool header_refused = false;
    try {
      adapt::read_segment_header(victim2);
    } catch (const std::exception&) {
      header_refused = true;
    }
    std::printf("corrupted header: read_segment_header %s\n",
                header_refused ? "refused" : "ACCEPTED");

    const bool detected = trimmed && read_refused && !flipped.structure_ok && header_refused;
    artifact.field_bool("torn_tail_trimmed_and_counted", trimmed)
        .field_bool("payload_corruption_detected", read_refused && !flipped.structure_ok)
        .field_bool("header_corruption_detected", header_refused);
    if (!detected) {
      std::printf("FAIL: corruption was not (fully) detected\n");
      failed = true;
    }
  }

  // ---- Section 4: serve-path overhead of durable logging.
  // Identical serve loops with an identical drain cadence (every 256
  // decisions, the adaptation pump's consumption pattern), pumped inline
  // so the delta is exactly the durability work — serialize + CRC +
  // buffered write — and not thread-scheduling noise: mode 0 drains the
  // tap in memory and discards, mode 1 drains through the store.
  // Interleaved trials, best-of per mode (noise only ever slows a trial
  // down).
  {
    const std::size_t decisions = smoke ? 4000 : 40000;
    const std::size_t trials = smoke ? 3 : 9;
    const std::size_t cadence = 256;
    const fs::path dir = fresh_dir("telemetry_overhead");

    std::vector<std::unique_ptr<Stack>> stacks;
    stacks.push_back(std::make_unique<Stack>(toy_policy, toy_model, toy_rs, /*n_sessions=*/16));
    stacks.push_back(std::make_unique<Stack>(toy_policy, toy_model, toy_rs, /*n_sessions=*/16));
    adapt::TelemetryStoreConfig config;
    config.directory = dir.string();
    config.start_writer = false;  // the serve loop is the pump
    adapt::TelemetryStore store(stacks[1]->log, config);

    std::vector<adapt::TelemetryRecord> buffer;
    std::vector<double> best_secs(2, 0.0);
    for (std::size_t trial = 0; trial < trials; ++trial) {
      for (int mode = 0; mode < 2; ++mode) {
        Stack& stack = *stacks[mode];
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < decisions; ++i) {
          stack.scheduler->serve(stack.request(i, toy_rs.horizon));
          if (i % cadence == cadence - 1) {
            if (mode == 0) {
              buffer.clear();
              stack.log->drain(buffer);
            } else {
              store.pump_once();
            }
          }
        }
        const double secs = seconds_since(t0);
        if (trial == 0 || secs < best_secs[mode]) best_secs[mode] = secs;
      }
#ifdef __unix__
      // Push this trial's dirty pages to disk OUTSIDE the timed windows, so
      // kernel writeback of mode 1's segments does not bleed into later
      // trials (best-of can only reject noise that is not systematic).
      ::sync();
#endif
    }
    store.stop();
    const double rate_tap = static_cast<double>(decisions) / best_secs[0];
    const double rate_store = static_cast<double>(decisions) / best_secs[1];
    const double overhead = rate_store > 0.0 ? rate_tap / rate_store - 1.0 : 1.0;
    const auto stats = store.stats();
    std::printf("overhead: %.0f/s in-memory tap | %.0f/s + durable store (%.2f%%), "
                "%llu record(s), %llu byte(s) persisted off-thread\n",
                rate_tap, rate_store, 100.0 * overhead,
                static_cast<unsigned long long>(stats.records_persisted),
                static_cast<unsigned long long>(stats.bytes_written));
    artifact.field("serve_per_sec_tap", rate_tap)
        .field("serve_per_sec_durable", rate_store)
        .field("durable_overhead_fraction", overhead)
        .field("overhead_records_persisted", static_cast<std::size_t>(stats.records_persisted));
    if (!smoke && overhead >= 0.05) {
      std::printf("FAIL: durable logging overhead %.2f%% exceeds the 5%% bar\n",
                  100.0 * overhead);
      failed = true;
    }
    fs::remove_all(dir);
  }

  const std::string path = bench::write_bench_json("BENCH_telemetry.json", artifact);
  std::printf("\nwrote %s\n", path.c_str());
  return failed ? 1 : 0;
}
