#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>

#include "util/json.hpp"

namespace dosc::util {
namespace {

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(Json::parse("\"hello\"").as_string(), "hello");
}

TEST(Json, ParseNested) {
  const Json doc = Json::parse(R"({"a": [1, 2, {"b": true}], "c": {"d": null}})");
  EXPECT_EQ(doc.at("a").size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("a").at(1).as_number(), 2.0);
  EXPECT_TRUE(doc.at("a").at(2).at("b").as_bool());
  EXPECT_TRUE(doc.at("c").at("d").is_null());
}

TEST(Json, StringEscapes) {
  const Json doc = Json::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(doc.as_string(), "a\"b\\c\nd\teA");
}

TEST(Json, WhitespaceTolerant) {
  const Json doc = Json::parse("  {\n\t\"x\" :\r [ ] }  ");
  EXPECT_TRUE(doc.at("x").is_array());
  EXPECT_EQ(doc.at("x").size(), 0u);
}

TEST(Json, ErrorsThrow) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
}

TEST(Json, TypeErrorsThrow) {
  const Json doc = Json::parse("{\"a\": 1}");
  EXPECT_THROW(doc.at("a").as_string(), JsonError);
  EXPECT_THROW(doc.at("missing"), JsonError);
  EXPECT_THROW(doc.at("a").at("nested"), JsonError);
  EXPECT_THROW(doc.at(std::size_t{0}), JsonError);
}

TEST(Json, Accessors) {
  const Json doc = Json::parse(R"({"n": 2.5, "s": "x", "b": true})");
  EXPECT_DOUBLE_EQ(doc.number_or("n", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(doc.number_or("missing", 7.0), 7.0);
  EXPECT_EQ(doc.string_or("s", "d"), "x");
  EXPECT_EQ(doc.string_or("missing", "d"), "d");
  EXPECT_TRUE(doc.bool_or("b", false));
  EXPECT_TRUE(doc.bool_or("missing", true));
  EXPECT_TRUE(doc.contains("n"));
  EXPECT_FALSE(doc.contains("zzz"));
  EXPECT_EQ(doc.at("n").as_int(), 3);  // rounds
}

TEST(Json, DumpRoundTrip) {
  const char* text = R"({"arr":[1,2.5,"x",null,true],"obj":{"k":-7}})";
  const Json doc = Json::parse(text);
  const Json again = Json::parse(doc.dump());
  EXPECT_EQ(again.at("arr").size(), 5u);
  EXPECT_DOUBLE_EQ(again.at("obj").at("k").as_number(), -7.0);
  EXPECT_EQ(doc.dump(), again.dump());
}

TEST(Json, DumpIndented) {
  Json::Object o;
  o["a"] = Json(1);
  const std::string pretty = Json(std::move(o)).dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty).at("a").as_int(), 1);
}

TEST(Json, DumpEscapesControlCharacters) {
  const Json doc(std::string("a\"b\nc\x01"));
  const Json again = Json::parse(doc.dump());
  EXPECT_EQ(again.as_string(), "a\"b\nc\x01");
}

TEST(Json, IntegersStayExact) {
  EXPECT_EQ(Json(123456789).dump(), "123456789");
  EXPECT_EQ(Json(-5).dump(), "-5");
}

TEST(Json, NonFiniteNumbersDumpAsNull) {
  // JSON has no NaN or infinity: a document holding them must still parse.
  Json::Array values{Json(std::numeric_limits<double>::quiet_NaN()),
                     Json(std::numeric_limits<double>::infinity()),
                     Json(-std::numeric_limits<double>::infinity()), Json(1.5)};
  const std::string text = Json(std::move(values)).dump();
  EXPECT_EQ(text, "[null,null,null,1.5]");
  const Json again = Json::parse(text);
  ASSERT_EQ(again.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(again.at(i).is_null()) << i;
  EXPECT_DOUBLE_EQ(again.at(3).as_number(), 1.5);
}

TEST(Json, NestingDepthIsBounded) {
  // Deep but legal nesting parses...
  const int ok = Json::kMaxDepth;
  const Json doc = Json::parse(std::string(ok, '[') + std::string(ok, ']'));
  EXPECT_TRUE(doc.is_array());
  EXPECT_THROW(Json::parse(std::string(ok + 1, '[') + std::string(ok + 1, ']')),
               JsonDepthError);
  // ...and a hostile document throws the named error instead of running
  // the recursive parser off its stack.
  EXPECT_THROW(Json::parse(std::string(100000, '[')), JsonDepthError);
  EXPECT_THROW(Json::parse(std::string(100000, '{')), JsonError);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(Json::parse(objects), JsonDepthError);
}

TEST(Json, CheckedInFilesParseUnderTheDepthBound) {
  // Every scenario, corpus scenario and policy file in the source tree.
  const std::filesystem::path root = DOSC_SOURCE_DIR;
  std::size_t files = 0;
  for (const auto& dir : {root / "scenarios", root / "scenarios" / "corpus",
                          root / "perfbench" / "data"}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() != ".json") continue;
      EXPECT_NO_THROW(Json::load_file(entry.path().string())) << entry.path();
      ++files;
    }
  }
  EXPECT_GE(files, 17u);
}

TEST(Json, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dosc_json_test.json").string();
  Json::Object o;
  o["value"] = Json(3.25);
  Json(std::move(o)).save_file(path);
  const Json loaded = Json::load_file(path);
  EXPECT_DOUBLE_EQ(loaded.at("value").as_number(), 3.25);
  std::remove(path.c_str());
  EXPECT_THROW(Json::load_file(path), JsonError);
}

}  // namespace
}  // namespace dosc::util
