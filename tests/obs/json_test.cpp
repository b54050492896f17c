#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "util/error.hpp"

namespace krak::obs {
namespace {

TEST(Json, DefaultIsNull) {
  Json value;
  EXPECT_TRUE(value.is_null());
  EXPECT_EQ(value.dump(0), "null");
}

TEST(Json, ScalarConstructionAndAccess) {
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_TRUE(Json(1.5).is_number());
  EXPECT_DOUBLE_EQ(Json(1.5).as_double(), 1.5);
  EXPECT_DOUBLE_EQ(Json(7).as_double(), 7.0);
  EXPECT_EQ(Json("text").as_string(), "text");
}

TEST(Json, KindMismatchThrows) {
  EXPECT_THROW((void)Json(1.0).as_string(), util::InvalidArgument);
  EXPECT_THROW((void)Json("x").as_double(), util::InvalidArgument);
  EXPECT_THROW((void)Json().as_array(), util::InvalidArgument);
  EXPECT_THROW((void)Json(true).as_object(), util::InvalidArgument);
}

TEST(Json, SubscriptBuildsNestedObjects) {
  Json root;
  root["outer"]["inner"] = 3;
  ASSERT_TRUE(root.is_object());
  const Json* outer = root.find("outer");
  ASSERT_NE(outer, nullptr);
  const Json* inner = outer->find("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_DOUBLE_EQ(inner->as_double(), 3.0);
  EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(Json, PushBackBuildsArrays) {
  Json list;
  list.push_back(1);
  list.push_back("two");
  ASSERT_TRUE(list.is_array());
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.as_array()[1].as_string(), "two");
}

TEST(Json, ObjectKeysAreSortedInDump) {
  Json object = Json::object();
  object["zebra"] = 1;
  object["alpha"] = 2;
  object["mid"] = 3;
  EXPECT_EQ(object.dump(0), R"({"alpha":2,"mid":3,"zebra":1})");
}

TEST(Json, CompactAndPrettyDump) {
  Json doc = Json::object();
  doc["list"].push_back(1);
  doc["list"].push_back(2);
  doc["name"] = "krak";
  EXPECT_EQ(doc.dump(0), R"({"list":[1,2],"name":"krak"})");
  EXPECT_EQ(doc.dump(2),
            "{\n  \"list\": [\n    1,\n    2\n  ],\n  \"name\": \"krak\"\n}");
}

TEST(Json, NumbersRoundTripShortest) {
  EXPECT_EQ(Json(0.1).dump(0), "0.1");
  EXPECT_EQ(Json(42).dump(0), "42");
  EXPECT_EQ(Json(-3.25).dump(0), "-3.25");
}

TEST(Json, NonFiniteNumbersAreRejectedAtDump) {
  EXPECT_THROW((void)Json(std::numeric_limits<double>::infinity()).dump(0),
               util::KrakError);
  EXPECT_THROW((void)Json(std::nan("")).dump(0), util::KrakError);
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(json_escape("plain"), R"("plain")");
  EXPECT_EQ(json_escape("a\"b\\c"), R"("a\"b\\c")");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), R"("line\nbreak\ttab")");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\"\\u0001\"");
}

TEST(Json, ParseRoundTripsDump) {
  Json doc = Json::object();
  doc["flag"] = true;
  doc["nothing"] = Json();
  doc["pi"] = 3.14159;
  doc["text"] = "quote \" and \\ slash";
  doc["nested"]["values"].push_back(-1);
  doc["nested"]["values"].push_back(2.5);

  const Json reparsed = Json::parse(doc.dump(2));
  EXPECT_EQ(reparsed, doc);
  EXPECT_EQ(reparsed.dump(2), doc.dump(2));
}

TEST(Json, ParseAcceptsAllScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("-12.5e2").as_double(), -1250.0);
  EXPECT_EQ(Json::parse(R"("aAb")").as_string(), "aAb");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse(""), util::KrakError);
  EXPECT_THROW((void)Json::parse("{"), util::KrakError);
  EXPECT_THROW((void)Json::parse("[1,]"), util::KrakError);
  EXPECT_THROW((void)Json::parse("{\"a\":1,}"), util::KrakError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), util::KrakError);
  EXPECT_THROW((void)Json::parse("nulL"), util::KrakError);
  EXPECT_THROW((void)Json::parse("1 2"), util::KrakError);  // trailing garbage
}

TEST(Json, ParseErrorNamesByteOffset) {
  try {
    (void)Json::parse("[1, x]");
    FAIL() << "expected KrakError";
  } catch (const util::KrakError& error) {
    EXPECT_NE(std::string(error.what()).find("byte"), std::string::npos)
        << error.what();
  }
}

TEST(Json, DeepNestingIsAParseErrorNotACrash) {
  // Hostile nesting fails like any malformed document instead of
  // exhausting the stack of the recursive-descent parser.
  constexpr std::size_t kLevels = 200000;
  std::string objects;
  for (std::size_t i = 0; i < kLevels; ++i) objects += "{\"a\":";
  for (const std::string& text : {std::string(kLevels, '['), objects}) {
    try {
      (void)Json::parse(text);
      FAIL() << "expected KrakError";
    } catch (const util::KrakError& error) {
      EXPECT_NE(std::string(error.what()).find("JSON parse error at byte"),
                std::string::npos)
          << error.what();
    }
  }
  // Nesting far deeper than any report still parses.
  EXPECT_TRUE(
      Json::parse(std::string(100, '[') + std::string(100, ']')).is_array());
}

}  // namespace
}  // namespace krak::obs
