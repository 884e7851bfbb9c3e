#include "common/config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/pipeline.hpp"

namespace verihvac {
namespace {

class ConfigTest : public ::testing::Test {
 protected:
  void SetEnv(const char* name, const char* value) { setenv(name, value, 1); }
  void UnsetEnv(const char* name) { unsetenv(name); }
  void TearDown() override {
    for (const char* n : {"VH_TEST_STR", "VH_TEST_NUM", "VH_TEST_FLAG", "VERI_HVAC_FULL",
                          "VERI_HVAC_DECISION_POINTS"}) {
      unsetenv(n);
    }
  }
};

TEST_F(ConfigTest, EnvOrFallsBackWhenUnset) {
  UnsetEnv("VH_TEST_STR");
  EXPECT_EQ(env_or("VH_TEST_STR", "fallback"), "fallback");
}

TEST_F(ConfigTest, EnvOrReadsValue) {
  SetEnv("VH_TEST_STR", "hello");
  EXPECT_EQ(env_or("VH_TEST_STR", "fallback"), "hello");
}

TEST_F(ConfigTest, EmptyValueFallsBack) {
  SetEnv("VH_TEST_STR", "");
  EXPECT_EQ(env_or("VH_TEST_STR", "fb"), "fb");
}

TEST_F(ConfigTest, LongParsesAndFallsBack) {
  SetEnv("VH_TEST_NUM", "123");
  EXPECT_EQ(env_or_long("VH_TEST_NUM", 7), 123);
  SetEnv("VH_TEST_NUM", "not a number");
  EXPECT_EQ(env_or_long("VH_TEST_NUM", 7), 7);
  UnsetEnv("VH_TEST_NUM");
  EXPECT_EQ(env_or_long("VH_TEST_NUM", 9), 9);
}

// A value is a number only if all of it parses: "12abc" is not 12.
TEST_F(ConfigTest, TrailingGarbageFallsBack) {
  for (const char* garbage : {"12abc", "12 ", "0x10", "1.5"}) {
    SetEnv("VH_TEST_NUM", garbage);
    EXPECT_EQ(env_or_long("VH_TEST_NUM", 7), 7) << garbage;
  }
  for (const char* garbage : {"2.5x", "2.5 ", "1e"}) {
    SetEnv("VH_TEST_NUM", garbage);
    EXPECT_DOUBLE_EQ(env_or_double("VH_TEST_NUM", 0.25), 0.25) << garbage;
  }
  SetEnv("VH_TEST_NUM", "-12");
  EXPECT_EQ(env_or_long("VH_TEST_NUM", 7), -12);
}

TEST_F(ConfigTest, DoubleParses) {
  SetEnv("VH_TEST_NUM", "2.5");
  EXPECT_DOUBLE_EQ(env_or_double("VH_TEST_NUM", 0.0), 2.5);
}

// A negative count must not wrap to 2^64 - 1 decision points; the error
// names the variable.
TEST_F(ConfigTest, NegativePipelineCountThrowsNamingTheVariable) {
  SetEnv("VERI_HVAC_DECISION_POINTS", "-1");
  try {
    core::PipelineConfig::for_city("Pittsburgh");
    FAIL() << "a negative count was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("VERI_HVAC_DECISION_POINTS"), std::string::npos)
        << error.what();
  }
  SetEnv("VERI_HVAC_DECISION_POINTS", "250");
  EXPECT_EQ(core::PipelineConfig::for_city("Pittsburgh").decision_points, 250u);
}

TEST_F(ConfigTest, FlagRecognizesTruthyStrings) {
  for (const char* truthy : {"1", "true", "TRUE", "on", "yes"}) {
    SetEnv("VH_TEST_FLAG", truthy);
    EXPECT_TRUE(env_flag("VH_TEST_FLAG")) << truthy;
  }
  for (const char* falsy : {"0", "false", "off", "no", "banana"}) {
    SetEnv("VH_TEST_FLAG", falsy);
    EXPECT_FALSE(env_flag("VH_TEST_FLAG")) << falsy;
  }
}

TEST_F(ConfigTest, FullScaleFollowsEnv) {
  UnsetEnv("VERI_HVAC_FULL");
  EXPECT_FALSE(full_scale());
  SetEnv("VERI_HVAC_FULL", "1");
  EXPECT_TRUE(full_scale());
}

}  // namespace
}  // namespace verihvac
