#include "palu/serve/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/fit/robust.hpp"

namespace palu::serve {
namespace {

// v3: lane stages are mle|moments|failed and the lane line lost its
// warm-base flag, both with the profile-likelihood fit.  (v2 added
// `consecutive <n>` to the counts line: the estimator's consecutive-stale
// run, which the serve staleness gauge is derived from.)  Older files
// fail the magic check and take the documented, counted fresh start —
// safer than resuming a lane whose stage and warm start mean something
// else.
constexpr char kMagic[] = "palu-serve-checkpoint v3";

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Doubles travel as C99 hexfloats: exact round trip, locale-free.
void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  out += buf;
}

double parse_double(std::string_view tok) {
  const std::string s(tok);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    throw DataError("serve checkpoint: bad double token '" + s + "'");
  }
  return v;
}

std::uint64_t parse_u64_tok(std::string_view tok) {
  const std::string s(tok);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) {
    throw DataError("serve checkpoint: bad integer token '" + s + "'");
  }
  return v;
}

bool parse_bool_tok(std::string_view tok) {
  if (tok == "1") return true;
  if (tok == "0") return false;
  throw DataError("serve checkpoint: bad bool token '" +
                  std::string(tok) + "'");
}

fit::RobustStage parse_stage(std::string_view tok) {
  if (tok == fit::to_string(fit::RobustStage::kMle)) {
    return fit::RobustStage::kMle;
  }
  if (tok == fit::to_string(fit::RobustStage::kMoments)) {
    return fit::RobustStage::kMoments;
  }
  if (tok == fit::to_string(fit::RobustStage::kFailed)) {
    return fit::RobustStage::kFailed;
  }
  throw DataError("serve checkpoint: bad stage token '" +
                  std::string(tok) + "'");
}

core::FitFreshness parse_freshness(std::string_view tok) {
  if (tok == "none") return core::FitFreshness::kNone;
  if (tok == "fresh") return core::FitFreshness::kFresh;
  if (tok == "stale") return core::FitFreshness::kStale;
  throw DataError("serve checkpoint: bad freshness token '" +
                  std::string(tok) + "'");
}

void append_lane(std::string& out, const char* name,
                 const core::StreamingFitSnapshot& lane) {
  out += "lane ";
  out += name;
  out += ' ';
  out += core::to_string(lane.freshness);
  out += ' ';
  out += fit::to_string(lane.stage);
  out += ' ';
  append_double(out, lane.fit.alpha);
  out += ' ';
  append_double(out, lane.fit.c);
  out += ' ';
  append_double(out, lane.fit.mu);
  out += ' ';
  append_double(out, lane.fit.u);
  out += ' ';
  append_double(out, lane.fit.l);
  out += ' ';
  append_double(out, lane.fit.tail_r_squared);
  out += ' ';
  append_double(out, lane.fit.excess_mass);
  out += ' ';
  append_double(out, lane.fit.moment_ratio);
  out += ' ';
  out += std::to_string(lane.fit.tail_points);
  out += lane.fit.mu_identifiable ? " 1" : " 0";
  out += lane.zm_valid ? " 1 " : " 0 ";
  append_double(out, lane.zm.alpha);
  out += ' ';
  append_double(out, lane.zm.delta);
  out += ' ';
  out += std::to_string(lane.zm.dmax);
  out += ' ';
  append_double(out, lane.zm.objective);
  out += lane.zm.converged ? " 1" : " 0";
  out += '\n';
}

std::vector<std::string_view> split(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ') ++j;
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

core::StreamingFitSnapshot parse_lane(
    const std::vector<std::string_view>& tok) {
  if (tok.size() != 20) {
    throw DataError("serve checkpoint: malformed lane line");
  }
  core::StreamingFitSnapshot lane;
  lane.freshness = parse_freshness(tok[2]);
  lane.stage = parse_stage(tok[3]);
  lane.fit.alpha = parse_double(tok[4]);
  lane.fit.c = parse_double(tok[5]);
  lane.fit.mu = parse_double(tok[6]);
  lane.fit.u = parse_double(tok[7]);
  lane.fit.l = parse_double(tok[8]);
  lane.fit.tail_r_squared = parse_double(tok[9]);
  lane.fit.excess_mass = parse_double(tok[10]);
  lane.fit.moment_ratio = parse_double(tok[11]);
  lane.fit.tail_points =
      static_cast<std::size_t>(parse_u64_tok(tok[12]));
  lane.fit.mu_identifiable = parse_bool_tok(tok[13]);
  lane.zm_valid = parse_bool_tok(tok[14]);
  lane.zm.alpha = parse_double(tok[15]);
  lane.zm.delta = parse_double(tok[16]);
  lane.zm.dmax = parse_u64_tok(tok[17]);
  lane.zm.objective = parse_double(tok[18]);
  lane.zm.converged = parse_bool_tok(tok[19]);
  return lane;
}

std::string render(const Checkpoint& ck) {
  std::string out;
  out += kMagic;
  out += '\n';
  out += "config window_packets " + std::to_string(ck.window_packets) +
         " quantity " + ck.quantity + " horizon " +
         std::to_string(ck.sliding_horizon) +
         (ck.warm_start ? " warm 1\n" : " warm 0\n");
  out += "input offset " + std::to_string(ck.input_offset) + " packets " +
         std::to_string(ck.packets_ingested) + " published " +
         std::to_string(ck.windows_published) + '\n';
  out += "counts windows " + std::to_string(ck.estimator.windows) +
         " stale " + std::to_string(ck.estimator.stale_windows) +
         " consecutive " +
         std::to_string(ck.estimator.consecutive_stale) + '\n';
  append_lane(out, "window", ck.estimator.window_lane);
  append_lane(out, "sliding", ck.estimator.sliding_lane);
  for (std::size_t k = 0; k < ck.estimator.horizon.size(); ++k) {
    const auto entries = ck.estimator.horizon[k].sorted();
    out += "hist " + std::to_string(k) + ' ' +
           std::to_string(entries.size());
    for (const auto& [d, c] : entries) {
      out += ' ';
      out += std::to_string(d);
      out += ':';
      out += std::to_string(c);
    }
    out += '\n';
  }
  out += "end\n";
  return out;
}

}  // namespace

void save_checkpoint(const std::string& path, const Checkpoint& ck) {
  std::string payload = render(ck);
  char sum[32];
  std::snprintf(sum, sizeof sum, "checksum %016llx\n",
                static_cast<unsigned long long>(fnv1a(payload)));
  payload += sum;

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw Error("serve checkpoint: cannot open '" + tmp +
                "': " + std::strerror(errno));
  }
  const char* p = payload.data();
  std::size_t left = payload.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw Error("serve checkpoint: write to '" + tmp +
                  "' failed: " + std::strerror(saved));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  // fsync before rename: the rename must never publish a file whose
  // bytes are still only in the page cache when the machine dies.
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    throw Error("serve checkpoint: fsync of '" + tmp +
                "' failed: " + std::strerror(saved));
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    throw Error("serve checkpoint: rename to '" + path +
                "' failed: " + std::strerror(saved));
  }
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw DataError("serve checkpoint: cannot open '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();

  // Split off and verify the trailing checksum line.
  const std::size_t tail = content.rfind("checksum ");
  if (tail == std::string::npos || tail == 0 ||
      content[tail - 1] != '\n' || content.back() != '\n') {
    throw DataError("serve checkpoint: '" + path +
                    "' is truncated (no checksum line)");
  }
  const std::string_view payload(content.data(), tail);
  const std::string_view sum_line(content.data() + tail,
                                  content.size() - tail - 1);
  char expect[32];
  std::snprintf(expect, sizeof expect, "checksum %016llx",
                static_cast<unsigned long long>(fnv1a(payload)));
  if (sum_line != expect) {
    throw DataError("serve checkpoint: '" + path +
                    "' failed checksum verification");
  }

  Checkpoint ck;
  std::istringstream lines{std::string(payload)};
  std::string line;
  if (!std::getline(lines, line) || line != kMagic) {
    throw DataError("serve checkpoint: '" + path +
                    "' has an unknown format version");
  }
  bool have_window = false, have_sliding = false, have_end = false;
  while (std::getline(lines, line)) {
    const auto tok = split(line);
    if (tok.empty()) continue;
    if (tok[0] == "config") {
      if (tok.size() != 9 || tok[1] != "window_packets" ||
          tok[3] != "quantity" || tok[5] != "horizon" || tok[7] != "warm") {
        throw DataError("serve checkpoint: malformed config line");
      }
      ck.window_packets = parse_u64_tok(tok[2]);
      ck.quantity = std::string(tok[4]);
      ck.sliding_horizon =
          static_cast<std::size_t>(parse_u64_tok(tok[6]));
      ck.warm_start = parse_bool_tok(tok[8]);
    } else if (tok[0] == "input") {
      if (tok.size() != 7) {
        throw DataError("serve checkpoint: malformed input line");
      }
      ck.input_offset = parse_u64_tok(tok[2]);
      ck.packets_ingested = parse_u64_tok(tok[4]);
      ck.windows_published = parse_u64_tok(tok[6]);
    } else if (tok[0] == "counts") {
      if (tok.size() != 7 || tok[1] != "windows" || tok[3] != "stale" ||
          tok[5] != "consecutive") {
        throw DataError("serve checkpoint: malformed counts line");
      }
      ck.estimator.windows =
          static_cast<std::size_t>(parse_u64_tok(tok[2]));
      ck.estimator.stale_windows =
          static_cast<std::size_t>(parse_u64_tok(tok[4]));
      ck.estimator.consecutive_stale =
          static_cast<std::size_t>(parse_u64_tok(tok[6]));
    } else if (tok[0] == "lane") {
      if (tok.size() < 2) {
        throw DataError("serve checkpoint: malformed lane line");
      }
      if (tok[1] == "window") {
        ck.estimator.window_lane = parse_lane(tok);
        have_window = true;
      } else if (tok[1] == "sliding") {
        ck.estimator.sliding_lane = parse_lane(tok);
        have_sliding = true;
      } else {
        throw DataError("serve checkpoint: unknown lane '" +
                        std::string(tok[1]) + "'");
      }
    } else if (tok[0] == "hist") {
      if (tok.size() < 3) {
        throw DataError("serve checkpoint: malformed hist line");
      }
      const std::size_t n =
          static_cast<std::size_t>(parse_u64_tok(tok[2]));
      if (tok.size() != 3 + n) {
        throw DataError("serve checkpoint: hist entry count mismatch");
      }
      stats::DegreeHistogram h;
      for (std::size_t i = 0; i < n; ++i) {
        const std::string_view pair = tok[3 + i];
        const std::size_t colon = pair.find(':');
        if (colon == std::string_view::npos) {
          throw DataError("serve checkpoint: malformed hist entry '" +
                          std::string(pair) + "'");
        }
        h.add(parse_u64_tok(pair.substr(0, colon)),
              parse_u64_tok(pair.substr(colon + 1)));
      }
      ck.estimator.horizon.push_back(std::move(h));
    } else if (tok[0] == "end") {
      have_end = true;
    } else {
      throw DataError("serve checkpoint: unknown record '" +
                      std::string(tok[0]) + "'");
    }
  }
  if (!have_window || !have_sliding || !have_end) {
    throw DataError("serve checkpoint: '" + path +
                    "' is missing required records");
  }
  return ck;
}

}  // namespace palu::serve
