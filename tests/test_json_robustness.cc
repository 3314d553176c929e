/**
 * @file
 * Adversarial-input tests for the JSON codec: the corpus repro files
 * the fuzzer feeds back in are an attack surface, so parsing must
 * fail with ConfigError — never a crash or stack overflow — on
 * hostile documents.  The nesting-depth tests pin the parser's
 * 128-level container limit exactly at the boundary.
 */

#include <string>

#include <gtest/gtest.h>

#include "util/error.hh"
#include "util/json.hh"

namespace rampage
{
namespace
{

/** `depth` nested arrays around a scalar: [[[...0...]]]. */
std::string
nestedArrays(unsigned depth)
{
    std::string out;
    out.append(depth, '[');
    out += '0';
    out.append(depth, ']');
    return out;
}

/** `depth` nested single-key objects: {"k":{"k":...null...}}. */
std::string
nestedObjects(unsigned depth)
{
    std::string out;
    for (unsigned i = 0; i < depth; ++i)
        out += "{\"k\":";
    out += "null";
    out.append(depth, '}');
    return out;
}

TEST(JsonDepth, AtTheLimitParses)
{
    JsonValue doc = JsonValue::parse(nestedArrays(128));
    const JsonValue *inner = &doc;
    for (unsigned i = 0; i < 128; ++i) {
        ASSERT_TRUE(inner->isArray());
        inner = &inner->at(0);
    }
    EXPECT_EQ(inner->asInt(), 0);

    EXPECT_NO_THROW(JsonValue::parse(nestedObjects(128)));
    // Mixed containers share the one depth budget.
    EXPECT_NO_THROW(JsonValue::parse(
        std::string("[") += nestedObjects(127) += "]"));
}

TEST(JsonDepth, OnePastTheLimitThrows)
{
    EXPECT_THROW(JsonValue::parse(nestedArrays(129)), ConfigError);
    EXPECT_THROW(JsonValue::parse(nestedObjects(129)), ConfigError);
    EXPECT_THROW(JsonValue::parse(
                     std::string("[") += nestedObjects(128) += "]"),
                 ConfigError);
}

TEST(JsonDepth, PathologicalDepthRejectedNotCrashed)
{
    // Without the limit each '[' is one C++ stack frame: 300k open
    // brackets would overrun the stack long before the closing side
    // was even reached.
    EXPECT_THROW(JsonValue::parse(std::string(300'000, '[')),
                 ConfigError);
    EXPECT_THROW(JsonValue::parse(nestedArrays(300'000)), ConfigError);
}

TEST(JsonDepth, ErrorNamesTheLimit)
{
    try {
        JsonValue::parse(nestedArrays(200));
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &err) {
        EXPECT_NE(std::string(err.what()).find("nesting"),
                  std::string::npos)
            << err.what();
    }
}

} // namespace
} // namespace rampage
