// Unit tests for the common bit/hex/rng utilities and the JSON layer
// (round-trip fuzzing, fixpoint property, malformed-input rejection).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/hex.h"
#include "common/json.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace sbm {
namespace {

TEST(Bits, BitOfExtractsEachPosition) {
  const u64 w = 0x8000000000000001ull;
  EXPECT_EQ(bit_of(w, 0), 1u);
  EXPECT_EQ(bit_of(w, 1), 0u);
  EXPECT_EQ(bit_of(w, 63), 1u);
}

TEST(Bits, WithBitSetsAndClears) {
  u64 w = 0;
  w = with_bit(w, 5, 1);
  EXPECT_EQ(w, 32u);
  w = with_bit(w, 5, 0);
  EXPECT_EQ(w, 0u);
  // Setting an already-set bit is idempotent.
  w = with_bit(with_bit(w, 17, 1), 17, 1);
  EXPECT_EQ(bit_of(w, 17), 1u);
}

TEST(Bits, MsbByteOrdering) {
  const u32 w = 0x12345678u;
  EXPECT_EQ(msb_byte(w, 0), 0x12);
  EXPECT_EQ(msb_byte(w, 1), 0x34);
  EXPECT_EQ(msb_byte(w, 2), 0x56);
  EXPECT_EQ(msb_byte(w, 3), 0x78);
  EXPECT_EQ(from_msb_bytes(0x12, 0x34, 0x56, 0x78), w);
}

TEST(Bits, BigEndianRoundTrip32) {
  u8 buf[4];
  store_be32(buf, 0xdeadbeefu);
  EXPECT_EQ(buf[0], 0xde);
  EXPECT_EQ(buf[3], 0xef);
  EXPECT_EQ(load_be32(buf), 0xdeadbeefu);
}

TEST(Bits, BigEndianRoundTrip64) {
  u8 buf[8];
  store_be64(buf, 0x0123456789abcdefull);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0xef);
  EXPECT_EQ(load_be64(buf), 0x0123456789abcdefull);
}

TEST(Bits, Parity32) {
  EXPECT_EQ(parity32(0), 0u);
  EXPECT_EQ(parity32(1), 1u);
  EXPECT_EQ(parity32(3), 0u);
  EXPECT_EQ(parity32(0xffffffffu), 0u);
  EXPECT_EQ(parity32(0x7fffffffu), 1u);
}

TEST(Hex, FormatsPaperStyle) {
  EXPECT_EQ(hex32(0xa1fb4788u), "a1fb4788");
  EXPECT_EQ(hex32(0), "00000000");
  EXPECT_EQ(hex32(0xffffffffu), "ffffffff");
}

TEST(Hex, Parse32RoundTrip) {
  for (u32 w : {0u, 1u, 0xdeadbeefu, 0xffffffffu, 0x00000080u}) {
    EXPECT_EQ(parse_hex32(hex32(w)), w);
  }
}

TEST(Hex, Parse32RejectsBadInput) {
  EXPECT_THROW(parse_hex32("123"), std::invalid_argument);
  EXPECT_THROW(parse_hex32("123456789"), std::invalid_argument);
  EXPECT_THROW(parse_hex32("1234567g"), std::invalid_argument);
}

TEST(Hex, BytesRoundTrip) {
  const std::vector<u8> bytes = {0x00, 0xff, 0x12, 0xab};
  EXPECT_EQ(hex_bytes(bytes), "00ff12ab");
  EXPECT_EQ(parse_hex_bytes("00ff12ab"), bytes);
  EXPECT_THROW(parse_hex_bytes("abc"), std::invalid_argument);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, BitsLookBalanced) {
  Rng rng(123);
  int ones = 0;
  constexpr int kSamples = 10000;
  for (int i = 0; i < kSamples; ++i) ones += rng.next_bool() ? 1 : 0;
  EXPECT_GT(ones, kSamples / 2 - 500);
  EXPECT_LT(ones, kSamples / 2 + 500);
}

// ---- JSON round-trip fuzzing -------------------------------------------

/// Random document generator for the round-trip fuzz: scalars draw from the
/// full range the writer can emit (64-bit integers, negative ints, %.17g
/// doubles, strings with escapes / control bytes / raw UTF-8), containers
/// nest to a bounded depth.  Roots are objects/arrays, like every artifact
/// the repo writes — which also makes every strict prefix of the text
/// invalid (the balancing close comes last).
JsonValue random_json(Rng& rng, int depth) {
  JsonValue v;
  const unsigned pick = rng.next_below(depth >= 4 ? 4 : 6);
  switch (pick) {
    case 0:
      v.kind = JsonValue::Kind::kNull;
      return v;
    case 1:
      v.kind = JsonValue::Kind::kBool;
      v.boolean = rng.next_bool();
      return v;
    case 2: {
      v.kind = JsonValue::Kind::kNumber;
      switch (rng.next_below(4)) {
        case 0: v.number = std::to_string(rng.next_u64()); break;
        case 1: v.number = "-" + std::to_string(rng.next_u32()); break;
        case 2: {
          char buf[40];
          std::snprintf(buf, sizeof buf, "%.17g",
                        static_cast<double>(rng.next_u32()) / 977.0);
          v.number = buf;
          break;
        }
        default: v.number = std::to_string(rng.next_below(100)) + "e-" +
                            std::to_string(rng.next_below(20));
      }
      return v;
    }
    case 3: {
      v.kind = JsonValue::Kind::kString;
      static const char pool[] = "ab\"\\\n\t\x01 {}[]:,\xc3\xa9z0-";
      const size_t len = rng.next_below(12);
      for (size_t i = 0; i < len; ++i) v.string += pool[rng.next_below(sizeof pool - 1)];
      return v;
    }
    case 4: {
      v.kind = JsonValue::Kind::kArray;
      const size_t n = rng.next_below(5);
      for (size_t i = 0; i < n; ++i) v.items.push_back(random_json(rng, depth + 1));
      return v;
    }
    default: {
      v.kind = JsonValue::Kind::kObject;
      const size_t n = rng.next_below(5);
      for (size_t i = 0; i < n; ++i) {
        v.members.emplace_back("k" + std::to_string(i) + std::string(i, '"'),
                               random_json(rng, depth + 1));
      }
      return v;
    }
  }
}

/// One fuzz iteration: parse -> dump must be a fixpoint (dump of the
/// re-parse is byte-identical), per the JsonValue::dump contract.
void expect_roundtrip_fixpoint(const std::string& text) {
  const auto first = parse_json(text);
  ASSERT_TRUE(first.has_value()) << text;
  const std::string once = first->dump();
  const auto second = parse_json(once);
  ASSERT_TRUE(second.has_value()) << once;
  EXPECT_EQ(second->dump(), once) << text;
}

TEST(JsonFuzz, RandomDocumentsReachRoundTripFixpoint) {
  Rng rng(0xf122);
  for (int trial = 0; trial < 300; ++trial) {
    JsonValue root = random_json(rng, 3);  // force a container root
    if (!root.is_object() && !root.is_array()) {
      JsonValue wrap;
      wrap.kind = JsonValue::Kind::kArray;
      wrap.items.push_back(std::move(root));
      root = std::move(wrap);
    }
    expect_roundtrip_fixpoint(root.dump());
  }
}

TEST(JsonFuzz, RawNumberTokensSurviveBeyondDoublePrecision) {
  // 2^64-1 and a >53-bit odd integer are not representable as doubles; the
  // raw-token contract keeps them bit-exact through parse -> dump -> parse.
  const std::string text = "{\"max\":18446744073709551615,\"odd\":9007199254740993}";
  const auto v = parse_json(text);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->dump(), text);
  EXPECT_EQ(v->find("max")->as_u64(), 18446744073709551615ull);
  EXPECT_EQ(v->find("odd")->as_u64(), 9007199254740993ull);
}

TEST(JsonFuzz, NumbersThatAreNotU64ReadAsTheFallback) {
  // A count of -1 must not wrap to 2^64-1, 1.5 must not truncate to 1, and
  // 2^64 must not saturate.
  for (const char* token : {"-1", "-0", "1.5", "1e3", "18446744073709551616"}) {
    SCOPED_TRACE(token);
    const auto v = parse_json(token);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->as_u64(7), 7u);
  }
  EXPECT_EQ(parse_json("0")->as_u64(7), 0u);
}

TEST(JsonFuzz, WriterOutputIsAlwaysAFixpointSeed) {
  // Randomized JsonWriter documents (the artifact-producing side) must all
  // round-trip through the parser and reach the dump fixpoint.
  Rng rng(0x3133);
  for (int trial = 0; trial < 50; ++trial) {
    JsonWriter w;
    w.begin_object();
    w.field("seed", rng.next_u64());
    w.field("ratio", static_cast<double>(rng.next_u32()) / 3.0);
    w.field("name", std::string("trial\n\"") + std::to_string(trial));
    w.key("runs").begin_array();
    const size_t n = rng.next_below(6);
    for (size_t i = 0; i < n; ++i) w.value(rng.next_u64());
    w.end_array();
    w.key("nested").begin_object().field("ok", rng.next_bool()).end_object();
    w.end_object();
    expect_roundtrip_fixpoint(w.str());
  }
}

TEST(JsonFuzz, MetricsAndTracePayloadsRoundTrip) {
  // The new obs artifacts are JSON documents too: snapshot and trace output
  // must parse and reach the dump fixpoint.
  const obs::Mode saved = obs::mode();
  obs::set_mode(obs::Mode::kAll);
  obs::MetricsRegistry::global().counter("jsonfuzz.counter").add(41);
  obs::MetricsRegistry::global().gauge("jsonfuzz.gauge").set(17);
  obs::MetricsRegistry::global().histogram("jsonfuzz.hist").observe(1023);
  {
    obs::Span span("jsonfuzz", "payload", "arg", 7);
    obs::Tracer::global().instant("jsonfuzz", "marker", {{"x", 1}});
  }
  const std::string metrics = obs::MetricsRegistry::global().snapshot().to_json();
  const std::string trace = obs::Tracer::global().to_chrome_json();
  obs::set_mode(saved);

  expect_roundtrip_fixpoint(metrics);
  expect_roundtrip_fixpoint(trace);
  const auto parsed = parse_json(trace);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NE(parsed->find("traceEvents"), nullptr);
}

TEST(JsonFuzz, EveryStrictPrefixOfAValidDocumentIsRejected) {
  Rng rng(0x9ef1);
  for (int trial = 0; trial < 20; ++trial) {
    JsonValue root = random_json(rng, 4);
    JsonValue wrap;
    wrap.kind = JsonValue::Kind::kObject;
    wrap.members.emplace_back("payload", std::move(root));
    const std::string text = wrap.dump();
    for (size_t len = 0; len < text.size(); ++len) {
      EXPECT_FALSE(parse_json(text.substr(0, len)).has_value())
          << "prefix of length " << len << " of " << text;
    }
  }
}

TEST(JsonFuzz, MalformedInputsAreRejectedNotCrashed) {
  const char* rejected[] = {
      "", " ", "{", "[", "]", "}", "{]", "[}", "{\"a\"}", "{\"a\":}", "{\"a\":1,}",
      "[1,]", "[,]", "{,}", "1 2", "\"unterminated", "truth", "nul", "+", "-",
      "{\"a\" 1}", "[1 2]", "\"bad\\x\"", "\"\\u12g4\"", "{\"a\":1}extra", "--",
  };
  for (const char* text : rejected) {
    EXPECT_FALSE(parse_json(text).has_value()) << "accepted: " << text;
  }
  // 64-deep nesting is the documented bound; beyond it the parser refuses
  // rather than recursing without limit.
  EXPECT_TRUE(parse_json(std::string(64, '[') + std::string(64, ']')).has_value());
  EXPECT_FALSE(parse_json(std::string(80, '[') + std::string(80, ']')).has_value());

  // Byte-flip sweep: corrupting one byte of a valid document must never
  // crash — each position either still parses or is cleanly rejected.
  const std::string base =
      "{\"a\":[1,-2.5e3,true,null,\"s\\\"t\\n\"],\"b\":{\"c\":18446744073709551615}}";
  ASSERT_TRUE(parse_json(base).has_value());
  Rng rng(0xb17f);
  for (size_t pos = 0; pos < base.size(); ++pos) {
    std::string mutated = base;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << rng.next_below(7)));
    (void)parse_json(mutated);  // outcome unspecified; absence of UB is the test
  }
}

}  // namespace
}  // namespace sbm
