#include "sched/serialize.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "support/assert.hpp"

namespace bm {

std::string schedule_to_text(const Schedule& sched) {
  std::ostringstream os;
  os << "schedule v1\n";
  std::size_t alive = 0;
  for (BarrierId b = 1; b < sched.barrier_id_bound(); ++b)
    if (sched.barrier_alive(b)) ++alive;
  os << "procs " << sched.num_procs() << " instrs "
     << sched.instr_dag().num_instructions() << " barriers " << alive
     << " latency " << sched.barrier_latency() << '\n';
  for (BarrierId b = 1; b < sched.barrier_id_bound(); ++b) {
    if (!sched.barrier_alive(b)) continue;
    os << "barrier " << b << " mask ";
    bool first = true;
    sched.barrier_mask(b).for_each([&](std::size_t p) {
      if (!first) os << ',';
      first = false;
      os << p;
    });
    if (sched.final_barrier() && *sched.final_barrier() == b) os << " final";
    os << '\n';
  }
  for (ProcId p = 0; p < sched.num_procs(); ++p) {
    os << 'P' << p << ':';
    for (const ScheduleEntry& e : sched.stream(p))
      os << ' ' << (e.is_barrier ? 'B' : 'n') << e.id;
    os << '\n';
  }
  return os.str();
}

namespace {

struct ParsedEntry {
  bool is_barrier;
  std::uint32_t id;
};

std::uint64_t parse_number(const std::string& token, const char* what) {
  BM_REQUIRE(!token.empty(), std::string("missing ") + what);
  std::uint64_t value = 0;
  for (char ch : token) {
    BM_REQUIRE(ch >= '0' && ch <= '9',
               std::string("malformed ") + what + ": " + token);
    value = value * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  return value;
}

}  // namespace

Schedule schedule_from_text(const InstrDag& dag, const std::string& text) {
  std::istringstream in(text);
  std::string line;

  BM_REQUIRE(std::getline(in, line) && line == "schedule v1",
             "missing schedule header");
  std::size_t procs = 0, instrs = 0, barriers = 0;
  Time latency = 0;
  {
    BM_REQUIRE(!!std::getline(in, line), "missing size line");
    std::istringstream ls(line);
    std::string k1, k2, k3, k4;
    ls >> k1 >> procs >> k2 >> instrs >> k3 >> barriers;
    BM_REQUIRE(k1 == "procs" && k2 == "instrs" && k3 == "barriers" && ls,
               "malformed size line");
    if (ls >> k4) {  // optional (older dumps omit it)
      BM_REQUIRE(k4 == "latency" && (ls >> latency),
                 "malformed latency field");
    }
  }
  BM_REQUIRE(instrs == dag.num_instructions(),
             "instruction count does not match the DAG");

  struct ParsedBarrier {
    std::vector<std::size_t> mask;
    bool final = false;
  };
  std::map<std::uint32_t, ParsedBarrier> parsed_barriers;
  std::vector<std::vector<ParsedEntry>> parsed_streams(procs);

  for (std::size_t k = 0; k < barriers; ++k) {
    BM_REQUIRE(!!std::getline(in, line), "missing barrier line");
    std::istringstream ls(line);
    std::string kw, mask_kw, mask_str, final_kw;
    std::uint64_t id = 0;
    ls >> kw >> id >> mask_kw >> mask_str;
    BM_REQUIRE(kw == "barrier" && mask_kw == "mask" && ls,
               "malformed barrier line: " + line);
    ParsedBarrier pb;
    if (ls >> final_kw) {
      BM_REQUIRE(final_kw == "final", "unexpected token: " + final_kw);
      pb.final = true;
    }
    std::istringstream ms(mask_str);
    std::string part;
    while (std::getline(ms, part, ','))
      pb.mask.push_back(parse_number(part, "mask processor"));
    BM_REQUIRE(id >= 1, "barrier id 0 is reserved for the initial barrier");
    BM_REQUIRE(parsed_barriers.emplace(static_cast<std::uint32_t>(id), pb).second,
               "duplicate barrier id");
  }

  for (ProcId p = 0; p < procs; ++p) {
    BM_REQUIRE(!!std::getline(in, line), "missing stream line");
    std::istringstream ls(line);
    std::string head;
    ls >> head;
    std::string want = "P";
    want += std::to_string(p);
    want += ':';
    BM_REQUIRE(head == want, "unexpected stream header: " + head);
    std::string token;
    while (ls >> token) {
      BM_REQUIRE(token.size() >= 2 && (token[0] == 'n' || token[0] == 'B'),
                 "malformed stream entry: " + token);
      parsed_streams[p].push_back(
          {token[0] == 'B',
           static_cast<std::uint32_t>(parse_number(token.substr(1), "id"))});
    }
  }

  // Every stream barrier reference must have a declaration.
  for (ProcId p = 0; p < procs; ++p)
    for (const ParsedEntry& e : parsed_streams[p])
      BM_REQUIRE(!e.is_barrier || parsed_barriers.contains(e.id),
                 "stream references undeclared barrier");

  // Rebuild: instructions first (streams keep their relative order), then
  // barriers in ascending parsed id, splicing at the recorded positions.
  Schedule sched(dag, procs, latency);
  for (ProcId p = 0; p < procs; ++p)
    for (const ParsedEntry& e : parsed_streams[p])
      if (!e.is_barrier) sched.append_instr(p, e.id);

  std::map<std::uint32_t, BarrierId> remap;
  for (const auto& [old_id, pb] : parsed_barriers) {
    std::vector<Schedule::Loc> at;
    for (ProcId p = 0; p < procs; ++p) {
      std::uint32_t pos = 0;
      bool found = false;
      for (const ParsedEntry& e : parsed_streams[p]) {
        if (e.is_barrier && e.id == old_id) {
          BM_REQUIRE(!found, "barrier appears twice in one stream");
          found = true;
          at.push_back({p, pos});
          continue;
        }
        // Count entries already materialized: instructions and barriers
        // with a smaller parsed id (inserted earlier).
        if (!e.is_barrier || remap.contains(e.id)) ++pos;
      }
      const bool in_mask =
          std::find(pb.mask.begin(), pb.mask.end(), p) != pb.mask.end();
      BM_REQUIRE(found == in_mask,
                 "barrier mask inconsistent with stream occurrences");
    }
    BM_REQUIRE(!at.empty(), "barrier participates in no stream");
    remap[old_id] = sched.insert_barrier(at);
  }
  for (const auto& [old_id, pb] : parsed_barriers)
    if (pb.final) sched.set_final_barrier(remap.at(old_id));

  BM_REQUIRE(sched.order_feasible({}), "schedule order is infeasible");
  return sched;
}

}  // namespace bm
