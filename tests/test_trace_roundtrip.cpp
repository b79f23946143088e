// Property test: random traces survive a text and a binary write/read
// round trip bit-exactly, and malformed inputs are rejected with errors
// rather than silently skewing the trace.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "trace/io.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace lfo;

/// Random trace with dense ids (read_text_trace densifies on load, so a
/// dense trace is a fixed point of the round trip) and adversarial costs:
/// huge magnitudes, many significant digits, subnormals.
trace::Trace random_trace(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<trace::Request> reqs;
  reqs.reserve(n);
  const std::uint64_t num_objects = 1 + rng.uniform(n);
  std::vector<std::uint64_t> sizes(num_objects);
  for (auto& s : sizes) s = 1 + rng.uniform(1ULL << 40);
  for (std::size_t i = 0; i < n; ++i) {
    trace::Request r;
    // First touch ids in order so ids are dense by first appearance.
    r.object = (i < num_objects) ? i : rng.uniform(num_objects);
    r.size = sizes[r.object];
    switch (rng.uniform(4)) {
      case 0: r.cost = static_cast<double>(r.size); break;
      case 1: r.cost = rng.uniform01() * 1e18; break;
      case 2: r.cost = rng.uniform01() * 1e-15; break;
      default: r.cost = std::exp(rng.normal(0.0, 20.0)); break;
    }
    reqs.push_back(r);
  }
  return trace::Trace(std::move(reqs));
}

void expect_identical(const trace::Trace& a, const trace::Trace& b,
                      const char* format) {
  ASSERT_EQ(a.size(), b.size()) << format;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].object, b[i].object) << format << " request " << i;
    ASSERT_EQ(a[i].size, b[i].size) << format << " request " << i;
    // Bit-exact, not approximate: storage must not lose precision.
    ASSERT_EQ(a[i].cost, b[i].cost) << format << " request " << i;
  }
}

TEST(TraceRoundTrip, TextIsBitExact) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    const auto original = random_trace(seed, 200 + seed * 37);
    std::stringstream buffer;
    trace::write_text_trace(original, buffer);
    const auto reloaded = trace::read_text_trace(buffer);
    expect_identical(original, reloaded, "text");
  }
}

TEST(TraceRoundTrip, BinaryIsBitExact) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    const auto original = random_trace(seed, 500);
    std::stringstream buffer;
    trace::write_binary_trace(original, buffer);
    const auto reloaded = trace::read_binary_trace(buffer);
    expect_identical(original, reloaded, "binary");
  }
}

TEST(TraceRoundTrip, EmptyTrace) {
  const trace::Trace empty;
  std::stringstream text, binary;
  trace::write_text_trace(empty, text);
  EXPECT_EQ(trace::read_text_trace(text).size(), 0u);
  trace::write_binary_trace(empty, binary);
  EXPECT_EQ(trace::read_binary_trace(binary).size(), 0u);
}

TEST(TraceRoundTrip, CommentsAndBlankLinesIgnored) {
  std::stringstream in("# header\n\n  \n1 100 5.0\n# tail\n2 200\n");
  const auto trace = trace::read_text_trace(in);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].size, 100u);
  EXPECT_EQ(trace[0].cost, 5.0);
  // Missing cost defaults to size (BHR cost model).
  EXPECT_EQ(trace[1].cost, 200.0);
}

TEST(TraceRoundTrip, MalformedLinesRejected) {
  const char* bad_inputs[] = {
      "42\n",             // too few fields
      "abc 100\n",        // non-numeric object id
      "1 12x34\n",        // non-numeric size
      "1 100 notacost\n", // non-numeric cost
      "-3 100\n",         // negative object id
  };
  for (const char* input : bad_inputs) {
    std::stringstream in(input);
    EXPECT_THROW(trace::read_text_trace(in), std::runtime_error)
        << "accepted malformed input: " << input;
  }
}

TEST(TraceRoundTrip, CorruptBinaryRejected) {
  // Wrong magic.
  std::stringstream bad_magic("XXXXXXXX\x01\x00\x00\x00\x00\x00\x00\x00");
  EXPECT_THROW(trace::read_binary_trace(bad_magic), std::runtime_error);

  // Truncated body: claim one request, provide nothing.
  const auto valid = random_trace(99, 3);
  std::stringstream buffer;
  trace::write_binary_trace(valid, buffer);
  const auto bytes = buffer.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() - 4));
  EXPECT_THROW(trace::read_binary_trace(truncated), std::runtime_error);

  // A 16-byte file whose header claims 2^40 records: rejected as
  // truncated, without allocating for the claimed count.
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::string header = bytes.substr(0, 8);
  header.append(reinterpret_cast<const char*>(&huge), sizeof huge);
  std::stringstream overclaimed(header);
  EXPECT_THROW(trace::read_binary_trace(overclaimed), std::runtime_error);
}

}  // namespace
