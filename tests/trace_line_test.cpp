// The one-scan trace-line parser against the trim/tokenize/parse_u64 path
// it fronts.  A seeded grammar of well-formed and malformed "src dst"
// lines, damaged further by the fault-injection corruptor, goes through
// scan_packet_line line by line and through TraceTailReader as a stream;
// both must agree with a copy of the line parser as it stood before the
// scan existed, down to the packet, the diagnostic, the IngestReport, the
// record offsets and the palu_ingest_* counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/common/result.hpp"
#include "palu/io/parse.hpp"
#include "palu/io/tail.hpp"
#include "palu/io/trace.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"
#include "palu/rng/xoshiro.hpp"
#include "palu/testing/fault_injection.hpp"
#include "trace_line.hpp"  // src/io: scan_packet_line, not installed

namespace palu::io {
namespace {

// ------------------------------------------------------------ reference

// The line parser before the scan: trim, split at the first blank,
// parse_u64 both tokens.
namespace reference {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

Result<traffic::Packet> parse_packet_line(std::string_view body) {
  const std::size_t split = body.find_first_of(" \t");
  if (split == std::string_view::npos) {
    return Result<traffic::Packet>::failure("expected two tokens");
  }
  const std::string_view src_tok = trim(body.substr(0, split));
  const std::string_view dst_tok = trim(body.substr(split));
  if (src_tok.empty() || dst_tok.empty()) {
    return Result<traffic::Packet>::failure("expected two tokens");
  }
  const auto src = parse_u64(src_tok);
  if (!src.ok()) return Result<traffic::Packet>::failure(src.error());
  const auto dst = parse_u64(dst_tok);
  if (!dst.ok()) return Result<traffic::Packet>::failure(dst.error());
  return traffic::Packet{src.value(), dst.value()};
}

// kRepair's salvage: the first two digit runs that parse as uint64.
std::vector<std::uint64_t> salvage(std::string_view body) {
  std::vector<std::uint64_t> out;
  std::size_t i = 0;
  while (i < body.size() && out.size() < 2) {
    if (body[i] < '0' || body[i] > '9') {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < body.size() && body[j] >= '0' && body[j] <= '9') ++j;
    const auto parsed = parse_u64(body.substr(i, j - i));
    if (parsed.ok()) out.push_back(parsed.value());
    i = j;
  }
  return out;
}

// One line's verdict: not a record (blank or comment), a packet, or the
// diagnostic of a malformed record.
struct Verdict {
  bool record = false;
  std::optional<traffic::Packet> packet;
  std::string diagnostic;
};

Verdict classify(std::string_view line) {
  const std::string_view body = trim(line);
  if (body.empty() || body.front() == '#') return {};
  const auto parsed = parse_packet_line(body);
  if (parsed.ok()) return {true, parsed.value(), {}};
  return {true, std::nullopt, parsed.error()};
}

// What a TraceTailReader run produced, or must produce.
struct Run {
  std::vector<TailRecord> records;
  IngestReport report;
  std::uint64_t kept = 0, repaired = 0, dropped = 0, budget = 0;
  std::optional<std::string> thrown;
};

// The reader's contract, line by line: offsets one past each line, the
// ErrorPolicy gate, the error budget and the palu_ingest_lines_total
// outcomes, as TraceTailReader applied them before the scan.
Run read(std::string_view text, const IngestOptions& opts) {
  Run run;
  IngestReport& rep = run.report;
  std::uint64_t offset = 0;
  std::size_t line_number = 0;
  const auto note = [&](std::size_t n, const std::string& msg,
                        std::string_view line) {
    if (!rep.first_error) {
      rep.first_error = IngestError{n, msg, std::string(line)};
    }
  };
  const auto over_budget = [&] {
    const std::size_t bad = rep.lines_dropped + rep.lines_repaired;
    if (bad <= opts.max_bad_lines) return false;
    ++run.budget;
    run.thrown = "trace_tail: error budget exhausted (" +
                 std::to_string(bad) + " bad lines > max_bad_lines=" +
                 std::to_string(opts.max_bad_lines) +
                 "); first error at line " +
                 std::to_string(rep.first_error->line_number) + ": " +
                 rep.first_error->message;
    return true;
  };
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    const std::string_view line = text.substr(0, nl);
    offset += nl == std::string_view::npos ? line.size() : line.size() + 1;
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    ++line_number;
    const Verdict v = classify(line);
    if (!v.record) continue;
    ++rep.lines_read;
    if (v.packet) {
      ++rep.records_kept;
      ++run.kept;
      run.records.push_back(TailRecord{*v.packet, offset});
      continue;
    }
    if (opts.policy == ErrorPolicy::kRepair) {
      const auto ids = salvage(trim(line));
      if (ids.size() == 2) {
        ++run.repaired;
        ++rep.lines_repaired;
        note(line_number, v.diagnostic, line);
        if (over_budget()) return run;
        run.records.push_back(TailRecord{{ids[0], ids[1]}, offset});
        continue;
      }
    }
    ++run.dropped;
    if (opts.policy == ErrorPolicy::kStrict) {
      run.thrown = "trace_tail: malformed line " +
                   std::to_string(line_number) + ": " + v.diagnostic +
                   " (line: '" + std::string(line) + "')";
      return run;
    }
    ++rep.lines_dropped;
    note(line_number, v.diagnostic, line);
    if (over_budget()) return run;
  }
  return run;
}

}  // namespace reference

// -------------------------------------------------------------- corpus

std::string blank_run(Rng& rng, std::size_t min_len, std::size_t max_len,
                      double cr_rate) {
  std::string out;
  const std::size_t len = min_len + rng.uniform_index(max_len - min_len + 1);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(rng.bernoulli(cr_rate) ? '\r'
                  : rng.bernoulli(0.7)   ? ' '
                                         : '\t');
  }
  return out;
}

std::string token(Rng& rng) {
  std::string tok;
  const double sign = rng.uniform();
  if (sign < 0.03) tok.push_back('+');
  if (sign > 0.97) tok.push_back('-');
  switch (rng.uniform_index(16)) {
    case 0: return tok + "18446744073709551615";  // uint64 max
    case 1: return tok + "18446744073709551616";  // uint64 max + 1
    case 2: return tok + "9999999999999999999";   // 19 digits
    case 3: return tok + "10000000000000000000";  // 20 digits, fits
    case 4: return tok + "99999999999999999999";  // 20 digits, overflows
    case 5: return tok + "00000000000000000042";  // 20 digits, zero-padded
    default: break;
  }
  // 1–21 digits, a third of them short; a leading zero now and then.
  const std::size_t len = rng.bernoulli(0.33) ? 1 + rng.uniform_index(6)
                                              : 1 + rng.uniform_index(21);
  for (std::size_t i = 0; i < len; ++i) {
    tok.push_back(static_cast<char>('0' + rng.uniform_index(10)));
  }
  if (len > 1 && rng.bernoulli(0.1)) tok[tok.size() - len] = '0';
  return tok;
}

// `lines` lines of the grammar: blanks, comments, and 1–3 tokens with
// blanks, tabs and '\r' at every position.
std::string grammar_corpus(std::uint64_t seed, std::size_t lines) {
  Rng rng(seed);
  std::string text;
  for (std::size_t n = 0; n < lines; ++n) {
    const double kind = rng.uniform();
    if (kind < 0.02) {
      text += blank_run(rng, 0, 2, 0.2);
    } else if (kind < 0.04) {
      text += blank_run(rng, 0, 2, 0.1) + "# comment " + token(rng);
    } else {
      const double arity = rng.uniform();
      const std::size_t tokens = arity < 0.05 ? 1 : arity < 0.93 ? 2 : 3;
      text += blank_run(rng, 0, 2, 0.05);
      for (std::size_t t = 0; t < tokens; ++t) {
        if (t > 0) text += blank_run(rng, 1, 3, 0.05);
        text += token(rng);
      }
      text += blank_run(rng, 0, 2, 0.3);
    }
    text.push_back('\n');
  }
  return text;
}

// The grammar corpus with the corruptor's byte and line damage on top.
std::string damaged_corpus() {
  testing::CorruptionOptions damage;
  damage.rate = 0.05;
  std::string text = testing::corrupt_trace(grammar_corpus(23, 101000),
                                            damage, /*seed=*/2023);
  text += " 7\t8";  // an unterminated last line: finish() reads it
  return text;
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    lines.push_back(text.substr(0, nl));
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
  }
  return lines;
}

// ---------------------------------------------------------------- tests

TEST(TraceLineScan, AgreesWithTheLineParserOnEveryCorpusLine) {
  const std::string text = damaged_corpus();
  const auto lines = split_lines(text);
  ASSERT_GE(lines.size(), 100000u);
  std::size_t scanned = 0, declined_records = 0, malformed = 0;
  for (const std::string_view line : lines) {
    const reference::Verdict want = reference::classify(line);
    traffic::Packet got{};
    if (detail::scan_packet_line(line, got)) {
      ++scanned;
      ASSERT_TRUE(want.record && want.packet)
          << "scan accepted '" << line << "': " << want.diagnostic;
      ASSERT_EQ(got, *want.packet) << "'" << line << "'";
      continue;
    }
    // Declined lines take the trim + parse_packet_line path.
    const std::string_view body = detail::trim(line);
    if (body.empty() || body.front() == '#') {
      ASSERT_FALSE(want.record) << "'" << line << "'";
      continue;
    }
    ASSERT_TRUE(want.record) << "'" << line << "'";
    const auto parsed = detail::parse_packet_line(body);
    ASSERT_EQ(parsed.ok(), want.packet.has_value()) << "'" << line << "'";
    if (parsed.ok()) {
      ++declined_records;
      ASSERT_EQ(parsed.value(), *want.packet) << "'" << line << "'";
    } else {
      ++malformed;
      ASSERT_EQ(parsed.error(), want.diagnostic) << "'" << line << "'";
    }
  }
  // The corpus exercises all three outcomes.
  RecordProperty("scanned", static_cast<int>(scanned));
  RecordProperty("declined_records", static_cast<int>(declined_records));
  RecordProperty("malformed", static_cast<int>(malformed));
  EXPECT_GT(scanned, lines.size() / 5);
  EXPECT_GT(declined_records, 1000u);
  EXPECT_GT(malformed, 10000u);
}

TEST(TraceLineScan, BoundaryTokens) {
  traffic::Packet p{};
  EXPECT_TRUE(detail::scan_packet_line("9999999999999999999 0", p));
  EXPECT_EQ(p, (traffic::Packet{9999999999999999999ull, 0}));
  EXPECT_TRUE(detail::scan_packet_line(" \t007\t \t8 \r\t\r", p));
  EXPECT_EQ(p, (traffic::Packet{7, 8}));
  // Left to parse_u64: every 20-digit token, including ones that fit.
  EXPECT_FALSE(detail::scan_packet_line("18446744073709551615 1", p));
  EXPECT_FALSE(detail::scan_packet_line("1 18446744073709551616", p));
  EXPECT_FALSE(detail::scan_packet_line("1 00000000000000000001", p));
  // '\r' before the separator or at the front, signs, a third token.
  EXPECT_FALSE(detail::scan_packet_line("1\r 2", p));
  EXPECT_FALSE(detail::scan_packet_line("\r1 2", p));
  EXPECT_FALSE(detail::scan_packet_line("+1 2", p));
  EXPECT_FALSE(detail::scan_packet_line("1 -2", p));
  EXPECT_FALSE(detail::scan_packet_line("1 2 3", p));
  EXPECT_FALSE(detail::scan_packet_line("1 2\r3", p));
  EXPECT_FALSE(detail::scan_packet_line("12", p));
  EXPECT_FALSE(detail::scan_packet_line("1 ", p));
  EXPECT_FALSE(detail::scan_packet_line("", p));
  EXPECT_FALSE(detail::scan_packet_line("# 1 2", p));
}

reference::Run read_in_chunks(std::string_view text, IngestOptions opts,
                              std::size_t chunk) {
  obs::Registry registry;
  opts.metrics = &registry;
  reference::Run run;
  TraceTailReader reader(opts);
  try {
    for (std::size_t at = 0; at < text.size(); at += chunk) {
      reader.feed(text.substr(at, chunk), run.records);
    }
    reader.finish(run.records);
  } catch (const DataError& e) {
    run.thrown = e.what();
  }
  run.report = reader.report();
  const auto lines = [&](const char* outcome) {
    return registry
        .counter(obs::names::kIngestLines,
                 {{"reader", "trace_tail"}, {"outcome", outcome}})
        .value();
  };
  run.kept = lines("kept");
  run.repaired = lines("repaired");
  run.dropped = lines("dropped");
  run.budget = registry
                   .counter(obs::names::kIngestBudgetExhausted,
                            {{"reader", "trace_tail"}})
                   .value();
  return run;
}

void expect_same_run(const reference::Run& got, const reference::Run& want) {
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    ASSERT_EQ(got.records[i].packet, want.records[i].packet) << "record " << i;
    ASSERT_EQ(got.records[i].end_offset, want.records[i].end_offset)
        << "record " << i;
  }
  EXPECT_EQ(got.report.lines_read, want.report.lines_read);
  EXPECT_EQ(got.report.records_kept, want.report.records_kept);
  EXPECT_EQ(got.report.lines_repaired, want.report.lines_repaired);
  EXPECT_EQ(got.report.lines_dropped, want.report.lines_dropped);
  ASSERT_EQ(got.report.first_error.has_value(),
            want.report.first_error.has_value());
  if (want.report.first_error) {
    EXPECT_EQ(got.report.first_error->line_number,
              want.report.first_error->line_number);
    EXPECT_EQ(got.report.first_error->message,
              want.report.first_error->message);
    EXPECT_EQ(got.report.first_error->text, want.report.first_error->text);
  }
  EXPECT_EQ(got.kept, want.kept);
  EXPECT_EQ(got.repaired, want.repaired);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.budget, want.budget);
  EXPECT_EQ(got.thrown, want.thrown);
}

TEST(TraceLineScan, TailReaderMatchesTheLineByLineContract) {
  const std::string text = damaged_corpus();
  struct Case {
    ErrorPolicy policy;
    std::size_t budget;
  };
  for (const Case c : {Case{ErrorPolicy::kStrict, ~std::size_t{0}},
                       Case{ErrorPolicy::kSkip, ~std::size_t{0}},
                       Case{ErrorPolicy::kRepair, ~std::size_t{0}},
                       Case{ErrorPolicy::kSkip, 500},
                       Case{ErrorPolicy::kRepair, 500}}) {
    IngestOptions opts;
    opts.policy = c.policy;
    opts.max_bad_lines = c.budget;
    const reference::Run want = reference::read(text, opts);
    if (c.policy != ErrorPolicy::kStrict &&
        c.budget == ~std::size_t{0}) {
      ASSERT_FALSE(want.thrown);
      ASSERT_GT(want.records.size(), 50000u);
    } else {
      ASSERT_TRUE(want.thrown);  // the stream stops early
    }
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{65536}}) {
      SCOPED_TRACE("policy=" + std::string(to_string(c.policy)) +
                   " budget=" + std::to_string(c.budget) +
                   " chunk=" + std::to_string(chunk));
      expect_same_run(read_in_chunks(text, opts, chunk), want);
    }
  }
}

TEST(TraceLineScan, EdgeListReaderKeepsItsAccounting) {
  // read_edge_list takes the same scan first.  A scanned edge must count as
  // kept, not repaired, when the declared-range check drops it late.
  const std::string text =
      "# nodes=10\n"
      "1 2\n"
      " 3\t4 \r\n"
      "5\r 6\n"    // '\r' before the separator: the fallback accepts it
      "7 x8\n"     // repaired to 7 8
      "12 1\n"     // scanned, then out of range
      "-1 2\n"     // repaired to 1 2
      "9 11x\n";   // repaired to 9 11, then out of range
  IngestOptions opts;
  opts.policy = ErrorPolicy::kRepair;
  obs::Registry registry;
  opts.metrics = &registry;
  std::istringstream in(text);
  const EdgeListReadResult got = read_edge_list(in, opts);
  EXPECT_EQ(got.report.lines_read, 7u);
  EXPECT_EQ(got.report.records_kept, 3u);
  EXPECT_EQ(got.report.lines_repaired, 2u);
  EXPECT_EQ(got.report.lines_dropped, 2u);
  ASSERT_TRUE(got.report.first_error.has_value());
  EXPECT_EQ(got.report.first_error->line_number, 5u);
  EXPECT_EQ(got.report.first_error->message,
            "token 'x8' is not an unsigned integer");
  const std::vector<graph::Edge> want = {{1, 2}, {3, 4}, {5, 6}, {7, 8},
                                         {1, 2}};
  ASSERT_EQ(got.graph.num_edges(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.graph.edges()[i].u, want[i].u) << i;
    EXPECT_EQ(got.graph.edges()[i].v, want[i].v) << i;
  }
  const auto lines = [&](const char* outcome) {
    return registry
        .counter(obs::names::kIngestLines,
                 {{"reader", "read_edge_list"}, {"outcome", outcome}})
        .value();
  };
  EXPECT_EQ(lines("kept"), 4u);
  EXPECT_EQ(lines("repaired"), 3u);
  EXPECT_EQ(lines("dropped"), 2u);
}

}  // namespace
}  // namespace palu::io
