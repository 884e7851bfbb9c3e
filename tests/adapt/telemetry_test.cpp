#include "adapt/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adapt/segment_test_utils.hpp"
#include "adapt/telemetry_store.hpp"
#include "common/fnv1a.hpp"
#include "dynamics/dynamics_model.hpp"
#include "envlib/baseline_layout.hpp"
#include "envlib/feature_schema.hpp"
#include "serve/request_scheduler.hpp"
#include "serve/serve_test_utils.hpp"

namespace verihvac::adapt {
namespace {

using env::FeatureRole;
using env::testing::dim;
using serve::testing::cold_occupied;
using serve::testing::pool_with_threads;
using serve::testing::serve_all;
using serve::testing::steady_forecast;
using serve::testing::toy_model;
using serve::testing::toy_policy;

/// Emits one synthetic decision event straight into the tap (the ring
/// mechanics tests bypass the scheduler).
void emit(TelemetryLog& log, serve::SessionId session, std::uint64_t index,
          serve::RequestKind kind, std::size_t action, double zone_temp,
          std::size_t forecast_len = 0, std::uint64_t version = 1) {
  const env::Observation obs = cold_occupied(zone_temp);
  const std::vector<env::Disturbance> forecast = steady_forecast(obs, forecast_len);
  const std::string key = "toy";
  serve::DecisionEvent event;
  event.session = session;
  event.decision_index = index;
  event.session_seed = 1000 + session;
  event.kind = kind;
  event.policy_key = &key;
  event.policy_version = version;
  event.action_index = action;
  event.action = {18.0, 26.0};
  event.observation = &obs;
  event.forecast = forecast.empty() ? nullptr : &forecast;
  event.latency_seconds = 1e-6;
  log.on_decision(event);
}

TelemetryConfig tiny_ring() {
  TelemetryConfig config;
  config.shards = 1;
  config.capacity_per_shard = 4;
  return config;
}

TEST(TelemetryLogTest, RecordsRoundTripThroughTheRing) {
  TelemetryLog log;
  emit(log, 7, 0, serve::RequestKind::kDtPolicy, 3, 17.5);
  emit(log, 7, 1, serve::RequestKind::kMbrlFallback, 5, 18.5, /*forecast_len=*/4);

  std::vector<TelemetryRecord> records;
  EXPECT_EQ(log.drain(records), 0u);
  ASSERT_EQ(records.size(), 2u);

  EXPECT_EQ(records[0].session, 7u);
  EXPECT_EQ(records[0].decision_index, 0u);
  EXPECT_EQ(records[0].request_kind(), serve::RequestKind::kDtPolicy);
  EXPECT_EQ(records[0].action_index, 3u);
  EXPECT_DOUBLE_EQ(records[0].obs[dim(FeatureRole::kZoneTemp)], 17.5);
  EXPECT_EQ(records[0].forecast_len, 0u);

  EXPECT_EQ(records[1].request_kind(), serve::RequestKind::kMbrlFallback);
  EXPECT_EQ(records[1].forecast_len, 4u);
  EXPECT_EQ(records[1].forecast_truncated, 0u);
  const auto forecast = records[1].forecast_vector();
  ASSERT_EQ(forecast.size(), 4u);
  EXPECT_DOUBLE_EQ(forecast[0].weather.outdoor_temp_c, -5.0);
  EXPECT_DOUBLE_EQ(forecast[0].occupants, 11.0);

  // Drained means drained: nothing left.
  std::vector<TelemetryRecord> again;
  EXPECT_EQ(log.drain(again), 0u);
  EXPECT_TRUE(again.empty());
}

TEST(TelemetryLogTest, LappedRingCountsLossesAndKeepsNewest) {
  TelemetryLog log(tiny_ring());
  ASSERT_EQ(log.capacity_per_shard(), 4u);
  for (std::uint64_t d = 0; d < 10; ++d) {
    emit(log, 1, d, serve::RequestKind::kDtPolicy, 0, 15.0 + static_cast<double>(d));
  }
  std::vector<TelemetryRecord> records;
  const std::uint64_t lost = log.drain(records);
  EXPECT_EQ(lost, 6u);
  ASSERT_EQ(records.size(), 4u);
  // The survivors are the newest lap, in ticket order.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].decision_index, 6 + i);
  }
  EXPECT_EQ(log.stats().recorded, 10u);
  EXPECT_EQ(log.stats().lost, 6u);
  // Every loss here is an overwrite-on-lap (nothing was dropped at
  // publish time), so the overwrite counter matches the drain's tally.
  EXPECT_EQ(log.stats().overwritten, 6u);
}

TEST(TelemetryLogTest, DtSamplingSkipsDeterministicallyAndCounts) {
  TelemetryConfig config;
  config.dt_sample_period = 4;  // record decision_index % 4 in {0, 1}
  TelemetryLog log(config);
  for (std::uint64_t d = 0; d < 8; ++d) {
    emit(log, 1, d, serve::RequestKind::kDtPolicy, 0, 18.0);
  }
  // MBRL is never sampled away, even at a skipped index.
  emit(log, 1, 8, serve::RequestKind::kMbrlFallback, 2, 18.0, /*forecast_len=*/3);

  std::vector<TelemetryRecord> records;
  EXPECT_EQ(log.drain(records), 0u);
  ASSERT_EQ(records.size(), 5u);
  const std::uint64_t kept[] = {0, 1, 4, 5, 8};
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].decision_index, kept[i]);
  }
  EXPECT_EQ(log.stats().sampling_skips, 4u);
  EXPECT_EQ(log.stats().lost, 0u);
}

// The per-log Stats and the process-wide `telemetry_*` counters count the
// same events: a sampled log (period 32) whose ring laps, so every field
// is non-zero and each global delta must equal it.
TEST(TelemetryLogTest, StatsMatchGlobalCounterDeltas) {
  const char* const names[] = {"telemetry_records_total", "telemetry_lost_total",
                               "telemetry_overwritten_total", "telemetry_sampling_skips_total"};
  std::vector<std::uint64_t> before;
  for (const char* name : names) before.push_back(obs::counter(name).value());

  TelemetryConfig config = tiny_ring();
  config.dt_sample_period = 32;
  TelemetryLog log(config);
  std::vector<TelemetryRecord> records;
  for (std::uint64_t d = 0; d < 256; ++d) {
    emit(log, 1 + d % 3, d, serve::RequestKind::kDtPolicy, 0, 18.0);
    if (d % 40 == 0) emit(log, 2, d, serve::RequestKind::kMbrlFallback, 1, 18.0, 2);
    if (d % 100 == 99) log.drain(records);
  }
  log.drain(records);

  const TelemetryLog::Stats stats = log.stats();
  EXPECT_GT(stats.recorded, 0u);
  EXPECT_GT(stats.lost, 0u);
  EXPECT_GT(stats.overwritten, 0u);
  EXPECT_GT(stats.sampling_skips, 0u);
  const std::uint64_t expected[] = {stats.recorded, stats.lost, stats.overwritten,
                                    stats.sampling_skips};
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(obs::counter(names[i]).value() - before[i], expected[i]) << names[i];
  }
}

TEST(TelemetryLogTest, ForecastBeyondCapIsTruncatedAndFlagged) {
  TelemetryLog log;
  emit(log, 2, 0, serve::RequestKind::kMbrlFallback, 1, 18.0,
       /*forecast_len=*/kTelemetryMaxForecast + 5);
  std::vector<TelemetryRecord> records;
  log.drain(records);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].forecast_len, kTelemetryMaxForecast);
  EXPECT_EQ(records[0].forecast_truncated, 1u);
}

TEST(TelemetryLogTest, ConcurrentProducersLoseNothingWhenSized) {
  TelemetryConfig config;
  config.shards = 4;
  config.capacity_per_shard = 2048;
  TelemetryLog log(config);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        emit(log, static_cast<serve::SessionId>(t + 1), static_cast<std::uint64_t>(i),
             serve::RequestKind::kDtPolicy, 0, 18.0);
      }
    });
  }
  for (auto& producer : producers) producer.join();

  std::vector<TelemetryRecord> records;
  EXPECT_EQ(log.drain(records), 0u);
  EXPECT_EQ(records.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(log.stats().lost, 0u);
}

TEST(TelemetryTraceTest, DatasetPairsConsecutiveDecisionsPerSession) {
  TelemetryLog log;
  // Session 1: decisions 0,1,2 -> two transitions. Session 2: decisions
  // 0 and 2 (gap: record 1 was lost) -> no transition.
  emit(log, 1, 0, serve::RequestKind::kDtPolicy, 0, 17.0);
  emit(log, 2, 0, serve::RequestKind::kDtPolicy, 0, 20.0);
  emit(log, 1, 1, serve::RequestKind::kDtPolicy, 0, 17.5);
  emit(log, 2, 2, serve::RequestKind::kDtPolicy, 0, 21.0);
  emit(log, 1, 2, serve::RequestKind::kDtPolicy, 0, 18.0);

  TelemetryTrace trace;
  log.drain(trace.records);
  const dyn::TransitionDataset dataset = trace_to_dataset(trace);
  ASSERT_EQ(dataset.size(), 2u);
  EXPECT_DOUBLE_EQ(dataset.at(0).input[dim(FeatureRole::kZoneTemp)], 17.0);
  EXPECT_DOUBLE_EQ(dataset.at(0).next_zone_temp, 17.5);
  EXPECT_DOUBLE_EQ(dataset.at(0).action.heating_c, 18.0);
  EXPECT_DOUBLE_EQ(dataset.at(1).input[dim(FeatureRole::kZoneTemp)], 17.5);
  EXPECT_DOUBLE_EQ(dataset.at(1).next_zone_temp, 18.0);
}

TEST(TelemetryTraceTest, NonFiniteReadingDropsOnlyItsTransitions) {
  // One NaN zone reading is the next state of one transition and the input
  // of the following one. Pairing drops exactly those two, so the dataset
  // stays finite and trainable (DynamicsModel::train throws on any
  // non-finite transition).
  TelemetryLog log;
  constexpr std::size_t kRecords = 24;
  constexpr std::size_t kNanAt = 10;
  for (std::size_t d = 0; d < kRecords; ++d) {
    const double zone_temp = d == kNanAt ? std::numeric_limits<double>::quiet_NaN()
                                         : 17.0 + 0.1 * static_cast<double>(d);
    emit(log, 1, d, serve::RequestKind::kDtPolicy, 0, zone_temp);
  }
  TelemetryTrace trace;
  log.drain(trace.records);
  ASSERT_EQ(trace.records.size(), kRecords);

  const dyn::TransitionDataset dataset = trace_to_dataset(trace);
  EXPECT_EQ(dataset.size(), kRecords - 3);
  for (const dyn::Transition& transition : dataset.transitions()) {
    EXPECT_TRUE(dyn::is_finite(transition));
  }
  dyn::DynamicsModelConfig config;
  config.hidden = {4};
  config.trainer.epochs = 2;
  dyn::DynamicsModel model(config);
  EXPECT_NO_THROW(model.train(dataset));
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// write_segment -> read_segment -> write_segment: the second file must
/// equal the first byte for byte (write_segment is a pure function of the
/// trace) and certify structurally. Returns what was read back.
TelemetryTrace round_trip_segment(const TelemetryTrace& trace, const std::string& name) {
  const std::string path_a = temp_path(name + "_a.vhtseg");
  const std::string path_b = temp_path(name + "_b.vhtseg");
  write_segment(trace, path_a);
  TelemetryTrace loaded;
  read_segment(path_a, loaded);
  write_segment(loaded, path_b);

  const std::string bytes_a = file_bytes(path_a);
  EXPECT_GT(bytes_a.size(), kSegmentHeaderBytes);
  EXPECT_EQ(bytes_a, file_bytes(path_b));
  const SegmentVerifyReport report = verify_segment(path_b);
  EXPECT_TRUE(report.structure_ok && report.fingerprint_ok) << report.error;
  EXPECT_EQ(report.records, trace.records.size());
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  return loaded;
}

TEST(TelemetryTraceTest, SaveLoadSaveIsByteIdentical) {
  TelemetryLog log;
  log.register_session(1, 1001, "Pittsburgh/baseline");
  log.register_session(2, 1002, "Tucson/oversized");
  emit(log, 1, 0, serve::RequestKind::kDtPolicy, 3, 17.5);
  emit(log, 1, 1, serve::RequestKind::kMbrlFallback, 5, 18.5, /*forecast_len=*/5);
  emit(log, 2, 0, serve::RequestKind::kDtPolicy, 1, 22.0);

  TelemetryTrace trace;
  trace.sessions = log.sessions();
  log.drain(trace.records);

  const TelemetryTrace loaded = round_trip_segment(trace, "verihvac_trace");
  ASSERT_EQ(loaded.sessions.size(), 2u);
  EXPECT_EQ(loaded.sessions[0].policy_key, "Pittsburgh/baseline");
  ASSERT_EQ(loaded.records.size(), 3u);
  EXPECT_EQ(loaded.records[1].forecast_len, 5u);
  EXPECT_DOUBLE_EQ(loaded.records[1].obs[dim(FeatureRole::kZoneTemp)], 18.5);
}

TEST(TelemetryTraceTest, SegmentBytesAreLocked) {
  // FNV-1a 64 over the write_segment file of a fixed trace, captured
  // through the tap and drained: one baseline DT record and one
  // time-aware MBRL record (obs_len 9) whose 3-step forecast sets every
  // one of the 8 stored fields away from its default. The digest pins the
  // tap's copies and the record wire layout, forecast entries included.
  TelemetryLog log;
  log.register_session(1, 1001, "Pittsburgh/baseline");
  log.register_session(2, 1002, "Tucson/time-aware");

  env::Observation obs;
  obs.zone_temp_c = 17.25;
  obs.weather.outdoor_temp_c = -4.75;
  obs.weather.humidity_pct = 62.5;
  obs.weather.wind_mps = 5.125;
  obs.weather.solar_wm2 = 187.0;
  obs.occupants = 9.0;
  obs.hour_sin = 0.4375;
  obs.hour_cos = -0.8125;
  obs.occupants_ahead = 14.0;
  std::vector<env::Disturbance> forecast(3);
  for (std::size_t k = 0; k < forecast.size(); ++k) {
    const double s = static_cast<double>(k);
    forecast[k].weather.outdoor_temp_c = -6.5 + s;
    forecast[k].weather.humidity_pct = 71.25 - s;
    forecast[k].weather.wind_mps = 3.75 + 0.5 * s;
    forecast[k].weather.solar_wm2 = 212.0 + 8.0 * s;
    forecast[k].occupants = 7.0 + s;
    forecast[k].hour_sin = 0.375 + 0.125 * s;
    forecast[k].hour_cos = -0.625 + 0.25 * s;
    forecast[k].occupants_ahead = 13.0 - s;
  }
  const std::string key = "locked";
  const auto decide = [&](serve::SessionId session, std::uint64_t index, serve::RequestKind kind,
                          const env::FeatureSchema& schema,
                          const std::vector<env::Disturbance>* fc) {
    serve::DecisionEvent event;
    event.session = session;
    event.decision_index = index;
    event.session_seed = 1000 + session;
    event.kind = kind;
    event.policy_key = &key;
    event.policy_version = 2 + session;
    event.action_index = 5 * session + 7;
    event.action = {19.0 + static_cast<double>(session), 25.5};
    event.observation = &obs;
    event.schema = &schema;
    event.forecast = fc;
    event.latency_seconds = 0.003125 * static_cast<double>(session);
    log.on_decision(event);
  };
  decide(1, 7, serve::RequestKind::kDtPolicy, env::baseline_schema(), nullptr);
  decide(2, 40, serve::RequestKind::kMbrlFallback, env::time_aware_schema(), &forecast);

  TelemetryTrace trace;
  trace.sessions = log.sessions();
  ASSERT_EQ(log.drain(trace.records), 0u);
  ASSERT_EQ(trace.records.size(), 2u);
  ASSERT_EQ(trace.records[1].obs_len, 9u);
  ASSERT_EQ(trace.records[1].forecast_len, 3u);

  const std::string path = temp_path("verihvac_trace_locked.vhtseg");
  write_segment(trace, path);
  const std::string bytes = file_bytes(path);
  std::remove(path.c_str());
  common::Fnv1a digest;
  digest.bytes(bytes);
  EXPECT_EQ(bytes.size(), 685u);
  EXPECT_EQ(digest.digest(), 0xa01e3c6cd9967da0ull) << std::hex << digest.digest();
}

TEST(TelemetryLogTest, SchemaTaggedEventsCarryTheSchemaShape) {
  TelemetryLog log;
  env::Observation obs = cold_occupied(17.5);
  obs.hour_sin = 0.25;
  obs.hour_cos = -0.5;
  obs.occupants_ahead = 9.0;
  const std::string key = "toy";
  serve::DecisionEvent event;
  event.session = 3;
  event.decision_index = 0;
  event.session_seed = 1003;
  event.kind = serve::RequestKind::kDtPolicy;
  event.policy_key = &key;
  event.policy_version = 1;
  event.action_index = 2;
  event.action = {18.0, 26.0};
  event.observation = &obs;
  event.schema = &env::time_aware_schema();
  event.latency_seconds = 1e-6;
  log.on_decision(event);
  // A schema-less event (the legacy tap path) stays the implicit baseline.
  emit(log, 3, 1, serve::RequestKind::kDtPolicy, 0, 18.0);

  std::vector<TelemetryRecord> records;
  EXPECT_EQ(log.drain(records), 0u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].obs_len, 9u);
  EXPECT_EQ(records[0].zone_temp_dim, 0u);
  EXPECT_DOUBLE_EQ(records[0].obs[0], 17.5);
  EXPECT_DOUBLE_EQ(records[0].obs[6], 0.25);
  EXPECT_DOUBLE_EQ(records[0].obs[7], -0.5);
  EXPECT_DOUBLE_EQ(records[0].obs[8], 9.0);
  EXPECT_EQ(records[0].obs_vector().size(), 9u);
  EXPECT_EQ(records[1].obs_len, 6u);
  EXPECT_EQ(records[1].zone_temp_dim, 0u);
}

TEST(TelemetryTraceTest, LoadRejectsBadMagicAndVersion) {
  const std::string path = temp_path("verihvac_trace_bad.vhtseg");
  TelemetryTrace into;
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPE";
  }
  EXPECT_THROW(read_segment(path, into), std::runtime_error);
  {
    std::ofstream out(path, std::ios::binary);
    out << "VHTS";  // right magic, no header behind it
  }
  EXPECT_THROW(read_segment(path, into), std::runtime_error);
  write_segment(TelemetryTrace{}, path);
  testing::restamp_header_u32(path, testing::kFormatVersionOffset, 999);
  EXPECT_THROW(read_segment(path, into), std::runtime_error);
  EXPECT_THROW(read_segment(temp_path("verihvac_trace_missing.vhtseg"), into),
               std::runtime_error);
  EXPECT_TRUE(into.records.empty());
  std::remove(path.c_str());
}

TEST(TelemetryTraceTest, TimeAwareRecordsSurviveSaveLoad) {
  TelemetryTrace trace;
  TelemetryRecord r;
  r.session = 1;
  r.decision_index = 0;
  r.kind = 0;
  r.action_index = 4;
  r.obs_len = 9;
  r.zone_temp_dim = 0;
  for (std::size_t d = 0; d < 9; ++d) r.obs[d] = 10.0 + static_cast<double>(d);
  r.heating_c = 18.0;
  r.cooling_c = 26.0;
  r.forecast_len = 2;
  for (std::size_t k = 0; k < 2; ++k) {
    r.forecast[k].weather.outdoor_temp_c = -5.0;
    r.forecast[k].occupants = 11.0;
    r.forecast[k].hour_sin = 0.25;
    r.forecast[k].hour_cos = -0.5;
    r.forecast[k].occupants_ahead = 9.0;
  }
  trace.records.push_back(r);

  const TelemetryTrace loaded = round_trip_segment(trace, "verihvac_trace_aware");
  ASSERT_EQ(loaded.records.size(), 1u);
  const TelemetryRecord& back = loaded.records[0];
  EXPECT_EQ(back.obs_len, 9u);
  EXPECT_EQ(back.zone_temp_dim, 0u);
  for (std::size_t d = 0; d < 9; ++d) EXPECT_DOUBLE_EQ(back.obs[d], 10.0 + static_cast<double>(d));
  ASSERT_EQ(back.forecast_len, 2u);
  EXPECT_DOUBLE_EQ(back.forecast[1].hour_sin, 0.25);
  EXPECT_DOUBLE_EQ(back.forecast[1].hour_cos, -0.5);
  EXPECT_DOUBLE_EQ(back.forecast[1].occupants_ahead, 9.0);
}

TEST(TelemetryTraceTest, DatasetPairsWithinOneSchemaShape) {
  // A fleet trace can mix widths (heterogeneous registry keys); the
  // dataset extractor pairs within the first-seen shape and leaves
  // foreign-shaped records alone.
  TelemetryTrace trace;
  auto record = [](std::uint64_t session, std::uint64_t index, std::uint16_t width,
                   double zone_temp) {
    TelemetryRecord r;
    r.session = session;
    r.decision_index = index;
    r.obs_len = width;
    r.zone_temp_dim = 0;
    r.obs[0] = zone_temp;
    r.heating_c = 18.0;
    r.cooling_c = 26.0;
    return r;
  };
  trace.records.push_back(record(1, 0, 6, 17.0));
  trace.records.push_back(record(1, 1, 6, 17.5));
  trace.records.push_back(record(2, 0, 9, 20.0));
  trace.records.push_back(record(2, 1, 9, 20.5));

  const dyn::TransitionDataset dataset = trace_to_dataset(trace);
  ASSERT_EQ(dataset.size(), 1u);
  EXPECT_EQ(dataset.at(0).input.size(), 6u);
  EXPECT_DOUBLE_EQ(dataset.at(0).input[0], 17.0);
  EXPECT_DOUBLE_EQ(dataset.at(0).next_zone_temp, 17.5);
}

// ---------------------------------------------------------------------------
// End-to-end: capture a live serving run through the scheduler tap, then
// replay the trace — decisions must be bit-identical at 1/4/8 threads.

control::RandomShootingConfig serving_rs() {
  control::RandomShootingConfig config;
  config.samples = 24;
  config.horizon = 4;
  return config;
}

TEST(TelemetryReplayTest, LiveCaptureReplaysBitIdenticallyAcrossThreadCounts) {
  const auto policy = toy_policy();
  const auto model = toy_model();
  const control::RandomShootingConfig rs = serving_rs();

  auto log = std::make_shared<TelemetryLog>();
  auto registry = std::make_shared<serve::PolicyRegistry>();
  auto sessions = std::make_shared<serve::SessionManager>();
  const std::uint64_t policy_version = registry->install("toy", policy);
  serve::RequestScheduler scheduler({}, registry, sessions, rs, control::ActionSpace{},
                                    env::RewardConfig{}, pool_with_threads(2));
  const std::uint64_t model_generation = scheduler.install_model("toy", model);
  scheduler.set_tap(log);

  std::vector<serve::SessionId> ids;
  for (std::size_t s = 0; s < 3; ++s) {
    serve::SessionConfig session;
    session.policy_key = "toy";
    session.seed = 5000 + 13 * s;
    ids.push_back(sessions->open(session));
    log->register_session(ids.back(), session.seed, session.policy_key);
  }

  // Mixed traffic: DT inline + MBRL micro-batches, several decisions per
  // session.
  std::vector<std::size_t> served_actions;
  for (std::size_t round = 0; round < 3; ++round) {
    std::vector<serve::ControlRequest> batch;
    for (std::size_t s = 0; s < ids.size(); ++s) {
      serve::ControlRequest request;
      request.session = ids[s];
      request.kind =
          s == 0 ? serve::RequestKind::kDtPolicy : serve::RequestKind::kMbrlFallback;
      request.observation = cold_occupied(15.0 + static_cast<double>(round + s));
      if (request.kind == serve::RequestKind::kMbrlFallback) {
        request.forecast = steady_forecast(request.observation, rs.horizon);
      }
      batch.push_back(std::move(request));
    }
    for (const auto& decision : serve_all(scheduler, batch)) {
      served_actions.push_back(decision.action_index);
    }
  }

  TelemetryTrace trace;
  trace.sessions = log->sessions();
  EXPECT_EQ(log->drain(trace.records), 0u);
  ASSERT_EQ(trace.records.size(), served_actions.size());

  ReplayAssets assets;
  assets.policies[policy_version] = policy;
  assets.models[model_generation] = model;

  for (const std::size_t threads : {1u, 4u, 8u}) {
    ReplayConfig config;
    config.rs = rs;
    config.engine = std::make_shared<const control::RolloutEngine>(
        control::RolloutEngineConfig{threads, /*min_parallel_batch=*/1});
    const ReplayReport report = replay_trace(trace, assets, config);
    EXPECT_EQ(report.replayed, trace.records.size());
    EXPECT_TRUE(report.bit_identical())
        << "replay diverged at " << threads << " threads: " << report.mismatches.size()
        << " mismatches";
  }
}

TEST(TelemetryReplayTest, MissingAssetsAreCountedNotFatal) {
  TelemetryLog log;
  emit(log, 1, 0, serve::RequestKind::kDtPolicy, 0, 17.0, 0, /*version=*/42);
  TelemetryTrace trace;
  log.drain(trace.records);

  const ReplayReport report = replay_trace(trace, ReplayAssets{}, ReplayConfig{});
  EXPECT_EQ(report.replayed, 0u);
  EXPECT_EQ(report.skipped_missing_assets, 1u);
  EXPECT_FALSE(report.bit_identical());
}

}  // namespace
}  // namespace verihvac::adapt
