/**
 * @file
 * Minimal JSON implementation tests: parsing, serialization, round trips,
 * error handling.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "utils/json.hpp"

namespace lightridge {
namespace {

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(Json::parse("null").isNull());
    EXPECT_EQ(Json::parse("true").asBool(), true);
    EXPECT_EQ(Json::parse("false").asBool(), false);
    EXPECT_DOUBLE_EQ(Json::parse("3.25").asNumber(), 3.25);
    EXPECT_DOUBLE_EQ(Json::parse("-1e3").asNumber(), -1000.0);
    EXPECT_EQ(Json::parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesNestedStructures)
{
    Json j = Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
    EXPECT_EQ(j.at("a").asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(j.at("a").asArray()[1].asNumber(), 2.0);
    EXPECT_EQ(j.at("a").asArray()[2].at("b").asString(), "c");
    EXPECT_TRUE(j.at("d").at("e").isNull());
}

TEST(Json, ParsesEscapes)
{
    Json j = Json::parse(R"("line\nbreak \"quoted\" A")");
    EXPECT_EQ(j.asString(), "line\nbreak \"quoted\" A");
}

TEST(Json, RoundTripsThroughDump)
{
    Json j;
    j["name"] = Json("lightridge");
    j["size"] = Json(200);
    j["pixel"] = Json(3.6e-5);
    j["flags"] = Json(Json::Array{Json(true), Json(false), Json(nullptr)});
    Json k = Json::parse(j.dump());
    EXPECT_EQ(k.at("name").asString(), "lightridge");
    EXPECT_DOUBLE_EQ(k.at("size").asNumber(), 200);
    EXPECT_DOUBLE_EQ(k.at("pixel").asNumber(), 3.6e-5);
    EXPECT_EQ(k.at("flags").asArray()[0].asBool(), true);
    EXPECT_TRUE(k.at("flags").asArray()[2].isNull());
}

TEST(Json, PreservesDoublePrecision)
{
    double value = 0.1234567890123456;
    Json j(value);
    Json k = Json::parse(j.dump());
    EXPECT_DOUBLE_EQ(k.asNumber(), value);
}

TEST(Json, PrettyOutputParses)
{
    Json j;
    j["outer"]["inner"] = Json(Json::Array{Json(1), Json(2)});
    Json k = Json::parse(j.pretty());
    EXPECT_EQ(k.at("outer").at("inner").asArray().size(), 2u);
}

TEST(Json, MalformedInputThrows)
{
    EXPECT_THROW(Json::parse(""), JsonError);
    EXPECT_THROW(Json::parse("{"), JsonError);
    EXPECT_THROW(Json::parse("[1,]"), JsonError);
    EXPECT_THROW(Json::parse("nul"), JsonError);
    EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
    EXPECT_THROW(Json::parse("{}extra"), JsonError);
}

TEST(Json, MalformedNumbersThrow)
{
    // Each of these used to parse as a prefix of the token.
    for (const char *text :
         {"[1.2.3]", "[1-2]", "[3e]", "[01]", "[.5]", "[1.]", "[+1]", "[-]",
          "[1e+]", "[--1]", "[1E2E3]", "-"})
        EXPECT_THROW(Json::parse(text), JsonError) << text;
}

TEST(Json, ValidNumbersParseExactly)
{
    const Json zero = Json::parse("-0");
    EXPECT_EQ(zero.asNumber(), 0.0);
    EXPECT_TRUE(std::signbit(zero.asNumber()));
    EXPECT_EQ(Json::parse("1E+2").asNumber(), 100.0);
    EXPECT_EQ(Json::parse("1e-300").asNumber(), 1e-300);
    EXPECT_EQ(Json::parse("[0, 0.5, -12.75e1, 7]").asArray()[2].asNumber(),
              -127.5);
    EXPECT_EQ(Json::parse("0.1").asNumber(), 0.1);
}

TEST(Json, TypeMismatchThrows)
{
    Json j = Json::parse("[1]");
    EXPECT_THROW(j.asObject(), JsonError);
    EXPECT_THROW(j.asString(), JsonError);
    EXPECT_THROW(j.at("x"), JsonError);
}

TEST(Json, MissingKeyThrowsAndNumberOrDefaults)
{
    Json j = Json::parse(R"({"a": 1})");
    EXPECT_THROW(j.at("b"), JsonError);
    EXPECT_DOUBLE_EQ(j.numberOr("a", 9.0), 1.0);
    EXPECT_DOUBLE_EQ(j.numberOr("b", 9.0), 9.0);
    EXPECT_TRUE(j.has("a"));
    EXPECT_FALSE(j.has("b"));
}

TEST(Json, PushPromotesNullToArray)
{
    Json j;
    j.push(Json(1));
    j.push(Json(2));
    EXPECT_EQ(j.asArray().size(), 2u);
}

TEST(Json, SaveLoadRoundTrip)
{
    Json j;
    j["k"] = Json(3.5);
    const std::string path = "/tmp/lr_json_test.json";
    ASSERT_TRUE(j.save(path));
    Json k = Json::load(path);
    EXPECT_DOUBLE_EQ(k.at("k").asNumber(), 3.5);
    std::remove(path.c_str());
}

/**
 * JSON has no NaN/Inf literal, so dumping one must fail loudly rather than
 * write a document parse() rejects; an explicit null round-trips.
 */
TEST(Json, NonFiniteNumbersRefuseToDumpAndNullRoundTrips)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {nan, inf, -inf}) {
        Json j;
        j["w"] = Json(Json::Array{Json(1.5), Json(bad)});
        EXPECT_THROW(j.dump(), std::domain_error);
        EXPECT_THROW(j.pretty(), std::domain_error);
    }
    try {
        Json(nan).dump();
        FAIL() << "NaN dumped without an error";
    } catch (const std::domain_error &e) {
        EXPECT_NE(std::string(e.what()).find("nan"), std::string::npos)
            << e.what();
    }
    try {
        Json(-inf).dump();
        FAIL() << "-Inf dumped without an error";
    } catch (const std::domain_error &e) {
        EXPECT_NE(std::string(e.what()).find("-inf"), std::string::npos)
            << e.what();
    }

    // An undefined field written as null survives dump -> parse.
    Json report;
    report["loss"] = Json(nullptr);
    report["accuracy"] = Json(0.5);
    Json back = Json::parse(report.dump());
    EXPECT_TRUE(back.at("loss").isNull());
    EXPECT_DOUBLE_EQ(back.at("accuracy").asNumber(), 0.5);
    EXPECT_EQ(Json::parse(report.pretty()).dump(), report.dump());

    // save() refuses before opening, so an earlier good file survives.
    const std::string path = "/tmp/lr_json_nonfinite_test.json";
    ASSERT_TRUE(report.save(path));
    Json diverged;
    diverged["loss"] = Json(nan);
    EXPECT_THROW(diverged.save(path), std::domain_error);
    EXPECT_TRUE(Json::load(path).at("loss").isNull());
    std::remove(path.c_str());
}

TEST(Json, LoadMissingFileThrows)
{
    EXPECT_THROW(Json::load("/nonexistent/path.json"), JsonError);
}

} // namespace
} // namespace lightridge
