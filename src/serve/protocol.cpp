#include "serve/protocol.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

#include "support/assert.hpp"

namespace bm::serve {

std::string errno_string(int err) {
  char buf[128];
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  // GNU strerror_r may return a pointer into libc's immutable table
  // instead of filling buf; either way the result is thread-safe.
  return strerror_r(err, buf, sizeof buf);
#else
  if (strerror_r(err, buf, sizeof buf) != 0)
    return "errno " + std::to_string(err);
  return buf;
#endif
}

std::string client_error_text(const std::exception& e) {
  if (const auto* err = dynamic_cast<const Error*>(&e)) return err->message();
  return e.what();
}

namespace {

const char* verb_name(Verb v) {
  switch (v) {
    case Verb::kPing: return "ping";
    case Verb::kSynth: return "synth";
    case Verb::kSchedule: return "schedule";
    case Verb::kStats: return "stats";
  }
  return "ping";
}

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kRejected: return "rejected";
    case Status::kCancelled: return "cancelled";
    case Status::kError: return "error";
  }
  return "error";
}

const char* cache_name(CacheOutcome c) {
  switch (c) {
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kHit: return "hit";
    case CacheOutcome::kBypass: return "bypass";
  }
  return "bypass";
}

std::uint64_t parse_u64(const std::string& v, const std::string& key) {
  BM_REQUIRE(!v.empty(), "empty value for header '" + key + "'");
  std::uint64_t out = 0;
  for (char c : v) {
    BM_REQUIRE(c >= '0' && c <= '9',
               "non-numeric value '" + v + "' for header '" + key + "'");
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return out;
}

double parse_double(const std::string& v, const std::string& key) {
  BM_REQUIRE(!v.empty(), "empty value for header '" + key + "'");
  errno = 0;
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  BM_REQUIRE(errno == 0 && end == v.c_str() + v.size(),
             "bad numeric value '" + v + "' for header '" + key + "'");
  return out;
}

/// Splits the payload into "key value" header lines and the body after the
/// first blank line; calls on_header for each header.
template <typename F>
std::string parse_payload(const std::string& payload,
                          const std::string& magic, F&& on_header) {
  std::size_t pos = 0;
  auto next_line = [&]() -> std::optional<std::string> {
    if (pos >= payload.size()) return std::nullopt;
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string::npos) eol = payload.size();
    std::string line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    return line;
  };

  auto first = next_line();
  BM_REQUIRE(first && *first == magic,
             "bad frame magic (expected '" + magic + "')");
  while (auto line = next_line()) {
    if (line->empty()) break;  // header/body separator
    const std::size_t sp = line->find(' ');
    BM_REQUIRE(sp != std::string::npos && sp > 0,
               "malformed header line '" + *line + "'");
    on_header(line->substr(0, sp), line->substr(sp + 1));
  }
  return pos >= payload.size() ? std::string() : payload.substr(pos);
}

void append_stats(std::string& p, const ScheduleStats& s) {
  p += "implied " + std::to_string(s.implied_syncs) + "\n";
  p += "serialized " + std::to_string(s.serialized_edges) + "\n";
  p += "cross " + std::to_string(s.cross_edges) + "\n";
  p += "path-sat " + std::to_string(s.cross_path_satisfied) + "\n";
  p += "timing-sat " + std::to_string(s.cross_timing_satisfied) + "\n";
  p += "barriers-inserted " + std::to_string(s.barriers_inserted) + "\n";
  p += "barriers-final " + std::to_string(s.barriers_final) + "\n";
  p += "merges " + std::to_string(s.merges) + "\n";
  p += "repairs " + std::to_string(s.repair_barriers) + "\n";
  p += "procs-used " + std::to_string(s.procs_used) + "\n";
  p += "completion " + std::to_string(s.completion.min) + "," +
       std::to_string(s.completion.max) + "\n";
  p += "critical " + std::to_string(s.critical_path.min) + "," +
       std::to_string(s.critical_path.max) + "\n";
}

void parse_range(const std::string& v, const std::string& key, TimeRange& r) {
  const std::size_t comma = v.find(',');
  BM_REQUIRE(comma != std::string::npos, "bad range for header '" + key + "'");
  r.min = static_cast<Time>(parse_u64(v.substr(0, comma), key));
  r.max = static_cast<Time>(parse_u64(v.substr(comma + 1), key));
}

}  // namespace

std::string encode_request(const Request& req) {
  std::string p = "req v1\n";
  p += "id " + std::to_string(req.id) + "\n";
  p += std::string("verb ") + verb_name(req.verb) + "\n";
  p += "procs " + std::to_string(req.sched.num_procs) + "\n";
  p += std::string("machine ") +
       (req.sched.machine == MachineKind::kSBM ? "sbm" : "dbm") + "\n";
  p += std::string("insertion ") +
       (req.sched.insertion == InsertionPolicy::kConservative ? "conservative"
                                                              : "optimal") +
       "\n";
  p += std::string("ordering ") +
       (req.sched.ordering == OrderingPolicy::kMaxThenMin ? "maxmin"
                                                          : "minmax") +
       "\n";
  p += std::string("assignment ");
  switch (req.sched.assignment) {
    case AssignmentPolicy::kListSerialize: p += "list"; break;
    case AssignmentPolicy::kRoundRobin: p += "rr"; break;
    case AssignmentPolicy::kLookahead: p += "lookahead"; break;
  }
  p += "\n";
  p += "lookahead-window " + std::to_string(req.sched.lookahead_window) + "\n";
  p += "latency " + std::to_string(req.sched.barrier_latency) + "\n";
  p += std::string("final-barrier ") +
       (req.sched.add_final_barrier ? "1" : "0") + "\n";
  p += std::string("repair ") + (req.sched.repair_sweep ? "1" : "0") + "\n";
  if (req.verb == Verb::kSynth) {
    p += "seed " + std::to_string(req.base_seed) + "\n";
    p += "index " + std::to_string(req.index) + "\n";
    p += "statements " + std::to_string(req.gen.num_statements) + "\n";
    p += "variables " + std::to_string(req.gen.num_variables) + "\n";
    p += "constants " + std::to_string(req.gen.num_constants) + "\n";
    p += "const-prob " + std::to_string(req.gen.const_operand_prob) + "\n";
    p += "const-max " + std::to_string(req.gen.const_max) + "\n";
  }
  if (req.verb == Verb::kSchedule)
    p += "seed " + std::to_string(req.seed) + "\n";
  p += std::string("verify ") + (req.verify ? "1" : "0") + "\n";
  p += std::string("no-cache ") + (req.no_cache ? "1" : "0") + "\n";
  p += "\n";
  p += req.source;
  return p;
}

Request decode_request(const std::string& payload) {
  Request req;
  req.source = parse_payload(
      payload, "req v1", [&](const std::string& k, const std::string& v) {
        if (k == "id") {
          req.id = parse_u64(v, k);
        } else if (k == "verb") {
          if (v == "ping") req.verb = Verb::kPing;
          else if (v == "synth") req.verb = Verb::kSynth;
          else if (v == "schedule") req.verb = Verb::kSchedule;
          else if (v == "stats") req.verb = Verb::kStats;
          else throw Error("unknown verb '" + v + "'");
        } else if (k == "procs") {
          req.sched.num_procs = parse_u64(v, k);
        } else if (k == "machine") {
          if (v == "sbm") req.sched.machine = MachineKind::kSBM;
          else if (v == "dbm") req.sched.machine = MachineKind::kDBM;
          else throw Error("unknown machine '" + v + "'");
        } else if (k == "insertion") {
          if (v == "conservative")
            req.sched.insertion = InsertionPolicy::kConservative;
          else if (v == "optimal")
            req.sched.insertion = InsertionPolicy::kOptimal;
          else throw Error("unknown insertion policy '" + v + "'");
        } else if (k == "ordering") {
          if (v == "maxmin") req.sched.ordering = OrderingPolicy::kMaxThenMin;
          else if (v == "minmax")
            req.sched.ordering = OrderingPolicy::kMinThenMax;
          else throw Error("unknown ordering policy '" + v + "'");
        } else if (k == "assignment") {
          if (v == "list")
            req.sched.assignment = AssignmentPolicy::kListSerialize;
          else if (v == "rr")
            req.sched.assignment = AssignmentPolicy::kRoundRobin;
          else if (v == "lookahead")
            req.sched.assignment = AssignmentPolicy::kLookahead;
          else throw Error("unknown assignment policy '" + v + "'");
        } else if (k == "lookahead-window") {
          req.sched.lookahead_window = parse_u64(v, k);
        } else if (k == "latency") {
          req.sched.barrier_latency = static_cast<long>(parse_u64(v, k));
        } else if (k == "final-barrier") {
          req.sched.add_final_barrier = v == "1";
        } else if (k == "repair") {
          req.sched.repair_sweep = v == "1";
        } else if (k == "seed") {
          req.base_seed = parse_u64(v, k);
          req.seed = req.base_seed;
        } else if (k == "index") {
          req.index = parse_u64(v, k);
        } else if (k == "statements") {
          req.gen.num_statements = static_cast<std::uint32_t>(parse_u64(v, k));
        } else if (k == "variables") {
          req.gen.num_variables = static_cast<std::uint32_t>(parse_u64(v, k));
        } else if (k == "constants") {
          req.gen.num_constants = static_cast<std::uint32_t>(parse_u64(v, k));
        } else if (k == "const-prob") {
          req.gen.const_operand_prob = parse_double(v, k);
        } else if (k == "const-max") {
          req.gen.const_max = static_cast<std::int64_t>(parse_u64(v, k));
        } else if (k == "verify") {
          req.verify = v == "1";
        } else if (k == "no-cache") {
          req.no_cache = v == "1";
        }
        // Unknown headers are ignored: forward compatibility.
      });
  return req;
}

std::string encode_response(const Response& resp) {
  std::string p = "resp v1\n";
  p += "id " + std::to_string(resp.id) + "\n";
  p += std::string("status ") + status_name(resp.status) + "\n";
  p += std::string("cache ") + cache_name(resp.cache) + "\n";
  if (!resp.fingerprint.empty()) p += "fingerprint " + resp.fingerprint + "\n";
  if (!resp.error.empty()) {
    // Errors are single-line by construction (first line wins on decode).
    std::string one_line = resp.error;
    for (char& c : one_line)
      if (c == '\n') c = ' ';
    p += "error " + one_line + "\n";
  }
  if (resp.status == Status::kOk &&
      (resp.stats.implied_syncs || resp.stats.procs_used))
    append_stats(p, resp.stats);
  p += "verify-errors " + std::to_string(resp.verify_errors) + "\n";
  p += "\n";
  p += resp.body;
  return p;
}

Response decode_response(const std::string& payload) {
  Response resp;
  resp.body = parse_payload(
      payload, "resp v1", [&](const std::string& k, const std::string& v) {
        if (k == "id") {
          resp.id = parse_u64(v, k);
        } else if (k == "status") {
          if (v == "ok") resp.status = Status::kOk;
          else if (v == "rejected") resp.status = Status::kRejected;
          else if (v == "cancelled") resp.status = Status::kCancelled;
          else if (v == "error") resp.status = Status::kError;
          else throw Error("unknown status '" + v + "'");
        } else if (k == "cache") {
          if (v == "hit") resp.cache = CacheOutcome::kHit;
          else if (v == "miss") resp.cache = CacheOutcome::kMiss;
          else if (v == "bypass") resp.cache = CacheOutcome::kBypass;
          else throw Error("unknown cache outcome '" + v + "'");
        } else if (k == "fingerprint") {
          resp.fingerprint = v;
        } else if (k == "error") {
          resp.error = v;
        } else if (k == "implied") {
          resp.stats.implied_syncs = parse_u64(v, k);
        } else if (k == "serialized") {
          resp.stats.serialized_edges = parse_u64(v, k);
        } else if (k == "cross") {
          resp.stats.cross_edges = parse_u64(v, k);
        } else if (k == "path-sat") {
          resp.stats.cross_path_satisfied = parse_u64(v, k);
        } else if (k == "timing-sat") {
          resp.stats.cross_timing_satisfied = parse_u64(v, k);
        } else if (k == "barriers-inserted") {
          resp.stats.barriers_inserted = parse_u64(v, k);
        } else if (k == "barriers-final") {
          resp.stats.barriers_final = parse_u64(v, k);
        } else if (k == "merges") {
          resp.stats.merges = parse_u64(v, k);
        } else if (k == "repairs") {
          resp.stats.repair_barriers = parse_u64(v, k);
        } else if (k == "procs-used") {
          resp.stats.procs_used = parse_u64(v, k);
        } else if (k == "completion") {
          parse_range(v, k, resp.stats.completion);
        } else if (k == "critical") {
          parse_range(v, k, resp.stats.critical_path);
        } else if (k == "verify-errors") {
          resp.verify_errors = parse_u64(v, k);
        }
      });
  return resp;
}

bool write_frame(int fd, const std::string& payload) {
  BM_REQUIRE(payload.size() <= kMaxFrameBytes, "frame payload too large");
  unsigned char header[4];
  const auto len = static_cast<std::uint32_t>(payload.size());
  header[0] = static_cast<unsigned char>(len & 0xFF);
  header[1] = static_cast<unsigned char>((len >> 8) & 0xFF);
  header[2] = static_cast<unsigned char>((len >> 16) & 0xFF);
  header[3] = static_cast<unsigned char>((len >> 24) & 0xFF);

  std::string buf(reinterpret_cast<const char*>(header), 4);
  buf += payload;
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(fd, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw Error("frame write failed: " + errno_string(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> read_frame(int fd) {
  auto read_exact = [&](char* dst, std::size_t want,
                        bool eof_ok) -> std::size_t {
    std::size_t got = 0;
    while (got < want) {
      const ssize_t n = ::read(fd, dst + got, want - got);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw Error("frame read failed: " + errno_string(errno));
      }
      if (n == 0) {
        BM_REQUIRE(eof_ok && got == 0, "connection closed mid-frame");
        return got;
      }
      got += static_cast<std::size_t>(n);
    }
    return got;
  };

  unsigned char header[4];
  if (read_exact(reinterpret_cast<char*>(header), 4, /*eof_ok=*/true) == 0)
    return std::nullopt;  // clean EOF between frames
  const std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                            static_cast<std::uint32_t>(header[1]) << 8 |
                            static_cast<std::uint32_t>(header[2]) << 16 |
                            static_cast<std::uint32_t>(header[3]) << 24;
  BM_REQUIRE(len <= kMaxFrameBytes, "oversized frame (" +
                                        std::to_string(len) + " bytes)");
  std::string payload(len, '\0');
  if (len > 0) read_exact(payload.data(), len, /*eof_ok=*/false);
  return payload;
}

}  // namespace bm::serve
