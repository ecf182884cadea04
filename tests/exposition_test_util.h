// Shared test helper: assert that a string parses as Prometheus text
// exposition format under the conventions MetricsRegistry::RenderPrometheus
// guarantees (actjoin_ prefix, trailing newline, `name[{labels}] value`
// samples with strtod-parsable values, TYPE lines naming only counter /
// gauge / histogram). Used by the registry unit tests and the admin
// endpoint's /metrics test — one grammar, checked the same way at both
// layers — plus ExpositionValue, which reads one sample back out of it.

#ifndef ACTJOIN_TESTS_EXPOSITION_TEST_UTIL_H_
#define ACTJOIN_TESTS_EXPOSITION_TEST_UTIL_H_

#include <cmath>
#include <cstdlib>
#include <set>
#include <string>

#include <gtest/gtest.h>

namespace actjoin::testutil {

// A minimal exposition-format check: every line is a comment or
// `name{labels} value` with the actjoin_ prefix and a strtod-parsable
// value that consumes the rest of the line.
inline void ExpectParsesAsExposition(const std::string& text) {
  std::set<std::string> typed;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "missing trailing newline";
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.rfind("# TYPE actjoin_", 0) == 0) {
      std::string rest = line.substr(std::string("# TYPE ").size());
      size_t sp = rest.find(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      std::string kind = rest.substr(sp + 1);
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
          << line;
      typed.insert(rest.substr(0, sp));
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0) continue;
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.rfind("actjoin_", 0), 0u) << line;
    // name[{labels}] value
    size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string value = line.substr(sp + 1);
    char* parse_end = nullptr;
    std::strtod(value.c_str(), &parse_end);
    EXPECT_EQ(*parse_end, '\0') << line;
    std::string name = line.substr(0, sp);
    size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      name = name.substr(0, brace);
    }
  }
  EXPECT_FALSE(typed.empty());
}

// The value of the sample line `series value` (series as rendered, e.g.
// `actjoin_requests_rejected_total{reason="shutdown"}`); NaN when the
// exposition has no such line, so a missing series never equals a count.
inline double ExpositionValue(const std::string& text,
                              const std::string& series) {
  const std::string prefix = series + " ";
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (text.compare(start, prefix.size(), prefix) == 0) {
      return std::strtod(text.c_str() + start + prefix.size(), nullptr);
    }
    start = end + 1;
  }
  return std::nan("");
}

}  // namespace actjoin::testutil

#endif  // ACTJOIN_TESTS_EXPOSITION_TEST_UTIL_H_
