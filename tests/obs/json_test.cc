#include "obs/json.h"

#include <limits>
#include <sstream>
#include <string>

#include "gtest/gtest.h"

namespace spiffi::obs {
namespace {

std::string String(std::string_view s) {
  std::ostringstream out;
  WriteJsonString(out, s);
  return out.str();
}

std::string Number(double value) {
  std::ostringstream out;
  WriteJsonNumber(out, value);
  return out.str();
}

TEST(JsonTest, EscapesQuoteBackslashNewlineAndControlCharacters) {
  EXPECT_EQ(String("plain"), "\"plain\"");
  EXPECT_EQ(String("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(String("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(String("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(String(std::string_view("a\x01" "b", 3)), "\"a\\u0001b\"");
  EXPECT_EQ(String("tab\there"), "\"tab\\u0009here\"");
  EXPECT_EQ(String("caf\xc3\xa9"), "\"caf\xc3\xa9\"");  // UTF-8 verbatim
}

TEST(JsonTest, NumbersRoundTripAndNonFiniteBecomesZero) {
  EXPECT_EQ(Number(0.1), "0.10000000000000001");
  EXPECT_EQ(Number(42.0), "42");
  EXPECT_EQ(Number(-1.5e-300), "-1.5000000000000001e-300");
  EXPECT_EQ(Number(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(Number(std::numeric_limits<double>::infinity()), "0");
}

}  // namespace
}  // namespace spiffi::obs
