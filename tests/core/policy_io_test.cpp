#include "core/policy_io.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <limits>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "envlib/feature_schema.hpp"

namespace verihvac::core {
namespace {

DtPolicy make_policy(control::ActionSpaceConfig grid = {}, std::uint64_t seed = 3,
                     tree::TreeConfig tree = {}) {
  control::ActionSpace actions(grid);
  Rng rng(seed);
  DecisionDataset data;
  for (int i = 0; i < 200; ++i) {
    DecisionRecord rec;
    rec.input = {rng.uniform(12.0, 30.0), rng.uniform(-10.0, 35.0), rng.uniform(20.0, 95.0),
                 rng.uniform(0.0, 12.0),  rng.uniform(0.0, 600.0),  rng.bernoulli(0.5) ? 11.0 : 0.0};
    rec.action_index = rng.index(actions.size());
    data.records.push_back(std::move(rec));
  }
  return DtPolicy::fit(data, actions, tree);
}

DtPolicy make_time_aware_policy(std::uint64_t seed = 5) {
  control::ActionSpace actions{control::ActionSpaceConfig{}};
  Rng rng(seed);
  DecisionDataset data;
  for (int i = 0; i < 200; ++i) {
    DecisionRecord rec;
    rec.input = {rng.uniform(12.0, 30.0), rng.uniform(-10.0, 35.0), rng.uniform(20.0, 95.0),
                 rng.uniform(0.0, 12.0),  rng.uniform(0.0, 600.0),
                 rng.bernoulli(0.5) ? 11.0 : 0.0,
                 rng.uniform(-1.0, 1.0),  rng.uniform(-1.0, 1.0),
                 rng.bernoulli(0.5) ? 11.0 : 0.0};
    rec.action_index = rng.index(actions.size());
    data.records.push_back(std::move(rec));
  }
  return DtPolicy::fit(data, actions, {}, env::time_aware_schema());
}

/// Span (offset, length) of the action-grid line: the line just before the
/// embedded tree block, after the v2 schema block.
std::pair<std::size_t, std::size_t> grid_line_span(const std::string& text) {
  const auto tree_pos = text.find("verihvac-tree");
  EXPECT_NE(tree_pos, std::string::npos);
  const auto line_start = text.rfind('\n', tree_pos - 2) + 1;
  return {line_start, tree_pos - 1 - line_start};
}

/// Span of the persisted schema block (the "schema" header line plus every
/// "feature" line, trailing newline included).
std::pair<std::size_t, std::size_t> schema_block_span(const std::string& text) {
  const auto start = text.find("\nschema ");
  EXPECT_NE(start, std::string::npos);
  const auto last_feature = text.rfind("\nfeature ");
  EXPECT_NE(last_feature, std::string::npos);
  const auto end = text.find('\n', last_feature + 1) + 1;
  return {start + 1, end - (start + 1)};
}

TEST(PolicyIoTest, StreamRoundTripPreservesEveryDecision) {
  const DtPolicy original = make_policy();
  std::stringstream buffer;
  write_policy(original, buffer);
  const DtPolicy reloaded = read_policy(buffer);

  EXPECT_EQ(reloaded.tree().node_count(), original.tree().node_count());
  EXPECT_EQ(reloaded.actions().size(), original.actions().size());
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    const std::vector<double> x = {rng.uniform(5.0, 35.0),  rng.uniform(-20.0, 45.0),
                                   rng.uniform(0.0, 100.0), rng.uniform(0.0, 20.0),
                                   rng.uniform(0.0, 900.0), rng.uniform(0.0, 20.0)};
    const auto a = original.decide(x);
    const auto b = reloaded.decide(x);
    EXPECT_DOUBLE_EQ(a.heating_c, b.heating_c);
    EXPECT_DOUBLE_EQ(a.cooling_c, b.cooling_c);
  }
}

TEST(PolicyIoTest, FileRoundTrip) {
  const DtPolicy original = make_policy();
  const std::string path = ::testing::TempDir() + "/bundle.policy";
  save_policy(original, path);
  const DtPolicy reloaded = load_policy(path);
  EXPECT_EQ(reloaded.tree().node_count(), original.tree().node_count());
}

TEST(PolicyIoTest, NonDefaultActionGridSurvives) {
  control::ActionSpaceConfig grid;
  grid.heat_min = 16;
  grid.heat_max = 20;
  grid.cool_min = 24;
  grid.cool_max = 28;
  const DtPolicy original = make_policy(grid);
  std::stringstream buffer;
  write_policy(original, buffer);
  const DtPolicy reloaded = read_policy(buffer);
  EXPECT_EQ(reloaded.actions().config().heat_min, 16);
  EXPECT_EQ(reloaded.actions().config().cool_max, 28);
  EXPECT_EQ(reloaded.actions().size(), original.actions().size());
}

TEST(PolicyIoTest, RoundTripIsBitStable) {
  // The bundle must survive write -> read -> write byte-identically, and
  // the reloaded policy's interpretable export must match to the last
  // character — the deployment artifact cannot drift through re-serving.
  const DtPolicy original = make_policy();
  std::stringstream first;
  write_policy(original, first);
  const DtPolicy reloaded = read_policy(first);

  EXPECT_EQ(reloaded.to_text(), original.to_text());
  std::stringstream second;
  write_policy(reloaded, second);
  EXPECT_EQ(second.str(), first.str());
}

TEST(PolicyIoTest, SchemaIsPersistedInBundle) {
  const DtPolicy original = make_policy();
  std::stringstream buffer;
  write_policy(original, buffer);
  const std::string text = buffer.str();
  EXPECT_NE(text.find("verihvac-policy v3\nfingerprint "), std::string::npos);
  EXPECT_NE(text.find("\nschema baseline 6\n"), std::string::npos);
  EXPECT_NE(text.find("feature zone_temp_c degC state zone_temp"), std::string::npos);
  std::stringstream in(text);
  EXPECT_EQ(read_policy(in).schema(), env::baseline_schema());
}

TEST(PolicyIoTest, TimeAwareSchemaRoundTrip) {
  // A 9-dim time-aware bundle must round-trip byte-identically and come
  // back with the same schema object — heterogeneous shapes in one
  // registry depend on the bundle carrying its own layout.
  const DtPolicy original = make_time_aware_policy();
  std::stringstream first;
  write_policy(original, first);
  const DtPolicy reloaded = read_policy(first);

  EXPECT_EQ(reloaded.schema(), env::time_aware_schema());
  EXPECT_EQ(reloaded.schema().dims(), 9u);
  std::stringstream second;
  write_policy(reloaded, second);
  EXPECT_EQ(second.str(), first.str());

  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> x(9);
    for (double& v : x) v = rng.uniform(-10.0, 40.0);
    const auto a = original.decide(x);
    const auto b = reloaded.decide(x);
    EXPECT_DOUBLE_EQ(a.heating_c, b.heating_c);
    EXPECT_DOUBLE_EQ(a.cooling_c, b.cooling_c);
  }
}

/// Rewrites the <hi> bound of the zone_temp_c feature line — content every
/// structural check accepts, so only the fingerprint can catch it.
void tamper_zone_temp_bound(std::string& text) {
  const auto line = text.find("feature zone_temp_c ");
  ASSERT_NE(line, std::string::npos);
  const auto eol = text.find('\n', line);
  const auto space = text.rfind(' ', eol);  // start of the <hi> bound token
  text.replace(space + 1, eol - space - 1, "99");
}

/// Deletes the "fingerprint <hex>" line and relabels the v3 header.
void downgrade_header(std::string& text, const std::string& version) {
  const auto start = text.find("\nfingerprint ");
  ASSERT_NE(start, std::string::npos);
  const auto end = text.find('\n', start + 1);
  text.erase(start + 1, end - start);
  const std::string v3 = "verihvac-policy v3";
  const auto pos = text.find(v3);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, v3.size(), "verihvac-policy " + version);
}

TEST(PolicyIoTest, RejectsSchemaTreeDimsMismatch) {
  // Splice the 9-dim time-aware schema block into a bundle whose tree was
  // fit on 6 features: the reader must refuse rather than serve a policy
  // that would index past its inputs.
  const DtPolicy baseline = make_policy();
  const DtPolicy aware = make_time_aware_policy();
  std::stringstream base_buf;
  std::stringstream aware_buf;
  write_policy(baseline, base_buf);
  write_policy(aware, aware_buf);
  std::string text = base_buf.str();
  const std::string aware_text = aware_buf.str();
  const auto [dst_start, dst_len] = schema_block_span(text);
  const auto [src_start, src_len] = schema_block_span(aware_text);
  text.replace(dst_start, dst_len, aware_text.substr(src_start, src_len));
  std::stringstream tampered(text);
  EXPECT_THROW(read_policy(tampered), std::runtime_error);
}

TEST(PolicyIoTest, RejectsBadHeader) {
  std::stringstream buffer("not-a-policy v9\n");
  EXPECT_THROW(read_policy(buffer), std::runtime_error);
}

TEST(PolicyIoTest, RejectsWrongPolicyVersionLine) {
  // A valid bundle whose policy version line claims an unknown v9: the
  // reader must refuse rather than guess at the format.
  const DtPolicy original = make_policy();
  std::stringstream buffer;
  write_policy(original, buffer);
  std::string text = buffer.str();
  const auto pos = text.find("verihvac-policy v3");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("verihvac-policy v3").size(), "verihvac-policy v9");
  std::stringstream tampered(text);
  EXPECT_THROW(read_policy(tampered), std::runtime_error);
}

TEST(PolicyIoTest, RejectsTamperedFingerprintLine) {
  // Flipping one hex digit of the stated fingerprint must fail the load:
  // the reader recomputes the content hash and compares.
  const DtPolicy original = make_policy();
  std::stringstream buffer;
  write_policy(original, buffer);
  std::string text = buffer.str();
  const auto pos = text.find("fingerprint ");
  ASSERT_NE(pos, std::string::npos);
  char& digit = text[pos + std::string("fingerprint ").size()];
  digit = digit == '0' ? '1' : '0';
  std::stringstream tampered(text);
  EXPECT_THROW(read_policy(tampered), std::runtime_error);
}

TEST(PolicyIoTest, RejectsContentTamperViaFingerprint) {
  // Alter bundle *content* that every legacy structural check would accept
  // (a schema feature bound): the v3 fingerprint must still catch it, so a
  // bit-rotted or hand-edited bundle cannot masquerade as the certified
  // artifact.
  const DtPolicy original = make_policy();
  std::stringstream buffer;
  write_policy(original, buffer);
  std::string text = buffer.str();
  tamper_zone_temp_bound(text);
  std::stringstream tampered(text);
  EXPECT_THROW(read_policy(tampered), std::runtime_error);
}

TEST(PolicyIoTest, RejectsTamperedBundleDowngradedToLegacyVersion) {
  // The pre-fingerprint v1/v2 headers are not a way around the check: the
  // tampered bundle above, with its fingerprint line dropped and its
  // header relabelled, must still be refused.
  const DtPolicy original = make_policy();
  std::stringstream buffer;
  write_policy(original, buffer);
  std::string tampered = buffer.str();
  tamper_zone_temp_bound(tampered);
  for (const std::string version : {"v2", "v1"}) {
    std::string text = tampered;
    downgrade_header(text, version);
    std::stringstream in(text);
    EXPECT_THROW(read_policy(in), std::runtime_error) << version;
  }
}

TEST(PolicyIoTest, SchemaHashSeparatesLayouts) {
  // The same tree and grid under another layout of the same width — two
  // disturbance columns swapped, or the schema renamed — is a different
  // bundle.
  const DtPolicy policy = make_policy();
  const std::uint64_t fp = policy_fingerprint(policy);
  EXPECT_EQ(policy_fingerprint(make_policy()), fp);

  std::vector<env::FeatureSpec> swapped = policy.schema().features();
  std::swap(swapped[2], swapped[3]);
  const DtPolicy reordered(policy.tree(), policy.actions(),
                           env::FeatureSchema(policy.schema().name(), swapped));
  EXPECT_NE(policy_fingerprint(reordered), fp);
  const DtPolicy renamed(policy.tree(), policy.actions(),
                         env::FeatureSchema("renamed", policy.schema().features()));
  EXPECT_NE(policy_fingerprint(renamed), fp);
}

TEST(PolicyIoTest, PolicyFingerprintTracksTreeAndGrid) {
  const DtPolicy policy = make_policy();
  const std::uint64_t fp = policy_fingerprint(policy);
  EXPECT_EQ(policy_fingerprint(policy), fp);

  DtPolicy relabeled = policy;
  const int leaf = relabeled.tree().leaves().front();
  const int old_label = relabeled.tree().node(static_cast<std::size_t>(leaf)).label;
  relabeled.mutable_tree().set_leaf_label(
      leaf, (old_label + 1) % static_cast<int>(relabeled.tree().num_classes()));
  EXPECT_NE(policy_fingerprint(relabeled), fp);

  control::ActionSpaceConfig grid;  // same pair count, every setpoint one degree up
  ++grid.heat_min;
  ++grid.heat_max;
  ++grid.cool_min;
  ++grid.cool_max;
  const DtPolicy regridded(policy.tree(), control::ActionSpace(grid), policy.schema());
  EXPECT_NE(policy_fingerprint(regridded), fp);
}

TEST(PolicyIoTest, PolicyFingerprintGoldenValues) {
  // Digests sealed into existing v3 bundles: any change to the hashed
  // fields, their order or the FNV-1a constants breaks every bundle on
  // disk, so the exact values are locked.
  EXPECT_EQ(policy_fingerprint(make_policy()), 0xad7510cb5c80d9b4ull);
  EXPECT_EQ(policy_fingerprint(make_time_aware_policy()), 0x9ec92bad8fc35253ull);
}

TEST(PolicyIoTest, RejectsWrongEmbeddedTreeVersionLine) {
  const DtPolicy original = make_policy();
  std::stringstream buffer;
  write_policy(original, buffer);
  std::string text = buffer.str();
  const auto pos = text.find("verihvac-tree v1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("verihvac-tree v1").size(), "verihvac-tree v7");
  std::stringstream tampered(text);
  EXPECT_THROW(read_policy(tampered), std::runtime_error);
}

TEST(PolicyIoTest, RejectsInvalidActionGrid) {
  // A grid whose decoded action space is empty/contradictory must be
  // rejected by the embedded ActionSpace validation, not silently served.
  const DtPolicy original = make_policy();
  std::stringstream buffer;
  write_policy(original, buffer);
  std::string text = buffer.str();
  const auto [grid_start, grid_len] = grid_line_span(text);
  text.replace(grid_start, grid_len, "23 15 30 21 1");  // min > max
  std::stringstream tampered(text);
  EXPECT_THROW(read_policy(tampered), std::exception);
}

TEST(PolicyIoTest, RejectsTruncatedFile) {
  const DtPolicy original = make_policy();
  std::stringstream buffer;
  write_policy(original, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_policy(truncated), std::runtime_error);
}

TEST(PolicyIoTest, RejectsActionSpaceTreeMismatch) {
  // Tamper the grid line so the embedded action space decodes to a
  // different size than the tree's class count.
  const DtPolicy original = make_policy();
  std::stringstream buffer;
  write_policy(original, buffer);
  std::string text = buffer.str();
  const auto [grid_start, grid_len] = grid_line_span(text);
  text.replace(grid_start, grid_len, "15 23 21 29 1");  // one fewer cooling row
  std::stringstream tampered(text);
  EXPECT_THROW(read_policy(tampered), std::runtime_error);
}

TEST(PolicyIoTest, LoadMissingFileThrows) {
  EXPECT_THROW(load_policy("/nonexistent/policy.file"), std::runtime_error);
}

/// Replaces the line that starts with `prefix` (through its newline).
void replace_line(std::string& text, const std::string& prefix, const std::string& line) {
  const auto start = text.find(prefix);
  ASSERT_NE(start, std::string::npos) << prefix;
  const auto end = text.find('\n', start);
  text.replace(start, end - start, line);
}

/// read_policy must throw std::runtime_error carrying `message`.
::testing::AssertionResult refused_with(const std::string& text, const std::string& message) {
  std::stringstream in(text);
  try {
    read_policy(in);
  } catch (const std::runtime_error& error) {
    if (std::string(error.what()).find(message) != std::string::npos) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << "threw \"" << error.what() << "\"";
  } catch (const std::exception& error) {
    return ::testing::AssertionFailure() << "threw a non-runtime_error: " << error.what();
  }
  return ::testing::AssertionFailure() << "loaded";
}

// Stated sizes are claims, not allocations: the decoder grows containers
// as elements arrive and checks the fingerprint before building the grid,
// so each oversized bundle is refused by the decoder's own error.
TEST(PolicyIoTest, OversizedStatedCountsAreRefusedWithoutAllocating) {
  const DtPolicy original = make_policy();
  std::stringstream buffer;
  write_policy(original, buffer);
  const std::string text = buffer.str();
  const std::string tree_header = "verihvac-tree v1\n";
  const auto counts = text.find(tree_header) + tree_header.size();

  std::string nodes = text;
  nodes.replace(counts, nodes.find('\n', counts) - counts, "6 87 1000000000000");
  EXPECT_TRUE(refused_with(nodes, "truncated input"));

  std::string dims = text;
  replace_line(dims, "schema ", "schema " + original.schema().name() + " 1000000000000");
  EXPECT_TRUE(refused_with(dims, "truncated schema feature"));

  std::string grid = text;
  const auto [grid_start, grid_len] = grid_line_span(grid);
  grid.replace(grid_start, grid_len, "15 23 21 3000000 1");
  EXPECT_TRUE(refused_with(grid, "fingerprint mismatch"));
}

TEST(PolicyIoTest, ExtremeGridBoundsDoNotOverflow) {
  // Bounds at INT_MAX: the enumeration must stop, not wrap around.
  control::ActionSpaceConfig grid;
  grid.heat_min = grid.heat_max = std::numeric_limits<int>::max();
  grid.cool_min = grid.cool_max = std::numeric_limits<int>::max();
  EXPECT_EQ(control::ActionSpace(grid).size(), 1u);
}

// Seeded mutation sweep over one bundle of a fitted tree: single-bit
// flips, truncations and numeric-token replacements. Every mutant is
// refused with std::runtime_error / std::invalid_argument, or loads a
// policy whose fingerprint equals the original's (a mutated sample count,
// impurity or root parent is a diagnostic, not the decision function).
TEST(PolicyIoTest, MutatedBundlesAreRefusedOrDecideIdentically) {
  tree::TreeConfig small;
  small.max_depth = 4;
  const DtPolicy original = make_policy({}, 3, small);
  const std::uint64_t fingerprint = policy_fingerprint(original);
  std::stringstream buffer;
  write_policy(original, buffer);
  const std::string text = buffer.str();
  ASSERT_LT(text.size(), 4096u);  // keeps the sweep to a few thousand mutants

  std::size_t mutants = 0;
  std::size_t loaded = 0;
  const auto check = [&](const std::string& mutant) -> ::testing::AssertionResult {
    ++mutants;
    std::stringstream in(mutant);
    try {
      const DtPolicy policy = read_policy(in);
      ++loaded;
      if (policy_fingerprint(policy) == fingerprint) return ::testing::AssertionSuccess();
      return ::testing::AssertionFailure() << "loaded a different policy";
    } catch (const std::runtime_error&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& error) {
      return ::testing::AssertionFailure() << "threw " << error.what();
    }
    return ::testing::AssertionSuccess();
  };

  std::mt19937 rng(19);
  for (std::size_t offset = 0; offset < text.size(); ++offset) {
    std::string mutant = text;
    mutant[offset] = static_cast<char>(mutant[offset] ^ (1 << (rng() % 8)));
    ASSERT_TRUE(check(mutant)) << "bit flip at byte " << offset;
  }
  for (std::size_t length = 0; length < text.size(); length += 7) {
    ASSERT_TRUE(check(text.substr(0, length))) << "truncated to " << length << " bytes";
  }
  const std::regex number(R"(-?[0-9][0-9.eE+-]*|-?inf)");
  const char* const replacements[] = {"0",     "-1", "2147483648", "9223372036854775808",
                                      "1e308", "99999999999999999999"};
  for (auto it = std::sregex_iterator(text.begin(), text.end(), number);
       it != std::sregex_iterator(); ++it) {
    const auto position = static_cast<std::size_t>(it->position());
    const auto space = [&text](std::size_t i) {
      return std::isspace(static_cast<unsigned char>(text[i])) != 0;
    };
    const bool whole_token = (position == 0 || space(position - 1)) &&
                             space(position + static_cast<std::size_t>(it->length()));
    if (!whole_token) continue;
    for (const char* replacement : replacements) {
      std::string mutant = text;
      mutant.replace(position, static_cast<std::size_t>(it->length()), replacement);
      ASSERT_TRUE(check(mutant)) << "token '" << it->str() << "' at byte " << position
                                 << " replaced by " << replacement;
    }
  }
  EXPECT_GT(loaded, 0u);  // diagnostic fields do load
  EXPECT_GT(mutants, 2 * loaded);
  RecordProperty("mutants", static_cast<int>(mutants));
}

}  // namespace
}  // namespace verihvac::core
