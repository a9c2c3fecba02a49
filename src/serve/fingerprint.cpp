#include "serve/fingerprint.hpp"

#include <algorithm>
#include <array>

#include "ir/timing.hpp"
#include "support/assert.hpp"

namespace bm::serve {

namespace {

/// Edge kinds; dataflow kinds encode the consumer's operand slot so
/// non-commutative operand order is structural.
enum EdgeKind : std::uint32_t {
  kDataflowSlot0 = 1,
  kDataflowSlot1 = 2,
  kMemFlow = 3,   // store → later load
  kMemAnti = 4,   // load → next store
  kMemOutput = 5  // store → next store
};

struct TypedEdge {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t kind = 0;
};

/// Kind of the dag edge u→v. An operand slot of v naming u makes it
/// dataflow (the dag never adds a memory edge beside an operand edge);
/// otherwise the opcodes at the two ends tell the memory rules apart.
std::uint32_t edge_kind(const Program& prog, std::uint32_t u,
                        std::uint32_t v) {
  const Tuple& t = prog[v];
  for (int k = 0; k < t.operand_count(); ++k)
    if (t.operand(k).is_tuple() && t.operand(k).tuple_id() == u)
      return k == 0 ? kDataflowSlot0 : kDataflowSlot1;
  if (t.is_load()) return kMemFlow;
  BM_ASSERT_INTERNAL(t.is_store(), "memory edge into a binary tuple");
  return prog[u].is_load() ? kMemAnti : kMemOutput;
}

/// Base label: opcode + constant-operand signature. No uids, no var ids,
/// no program position — those are exactly the renumbering axes.
std::uint64_t base_label(const Tuple& t) {
  std::uint64_t h = mix64(0xB0A5E11Full + static_cast<std::uint64_t>(t.op));
  for (int k = 0; k < t.operand_count(); ++k) {
    if (!t.operand(k).is_const()) continue;
    h = mix2(h, mix2(static_cast<std::uint64_t>(k) + 17,
                     static_cast<std::uint64_t>(t.operand(k).const_value())));
  }
  return h;
}

std::size_t distinct_count(std::vector<std::uint64_t> labels) {
  std::sort(labels.begin(), labels.end());
  return static_cast<std::size_t>(
      std::unique(labels.begin(), labels.end()) - labels.begin());
}

}  // namespace

CanonicalProgram canonicalize_program(const Program& prog,
                                      const InstrDag& dag) {
  const std::size_t n = prog.size();
  BM_REQUIRE(dag.num_instructions() == n, "dag was not built from program");
  std::vector<TypedEdge> edges;
  edges.reserve(dag.implied_syncs());
  for (const auto& [u, v] : dag.sync_edges())
    edges.push_back({u, v, edge_kind(prog, u, v)});

  std::vector<std::uint64_t> label(n);
  for (std::size_t i = 0; i < n; ++i) label[i] = base_label(prog[i]);

  // Weisfeiler–Lehman refinement with typed directed edges. Each round a
  // node absorbs the sorted multiset of (kind, neighbor label) over its
  // in-edges and (separately keyed) out-edges; sorting makes the round —
  // and therefore the final labels — independent of node numbering.
  // Rounds continue until the partition stops refining (checked twice to
  // ride out plateaus), bounded by n rounds (each strict refinement grows
  // the class count, which is capped by n).
  std::vector<std::vector<std::uint64_t>> contrib(n);
  std::vector<std::uint64_t> next(n);
  std::size_t classes = distinct_count(label);
  for (std::size_t round = 0; round < n && classes < n; ++round) {
    for (auto& c : contrib) c.clear();
    for (const TypedEdge& e : edges) {
      contrib[e.to].push_back(
          mix2(0xD0C0FEEDull + e.kind, label[e.from]) | 1ull);
      contrib[e.from].push_back(
          mix2(0x07C0DE50ull + e.kind, label[e.to]) & ~1ull);
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::sort(contrib[i].begin(), contrib[i].end());
      std::uint64_t h = mix2(0x5EEDF00Dull, label[i]);
      for (std::uint64_t c : contrib[i]) h = mix2(h, c);
      next[i] = h;
    }
    label.swap(next);
    const std::size_t refined = distinct_count(label);
    if (refined == classes) break;  // stable partition
    classes = refined;
  }

  CanonicalProgram out;

  // Order-independent combine: invariant under any renumbering by
  // construction (sum and xor over the label multiset plus edge triples).
  std::uint64_t acc_sum = mix64(n);
  std::uint64_t acc_xor = 0;
  for (std::uint64_t l : label) {
    const std::uint64_t m = mix64(l);
    acc_sum += m;
    acc_xor ^= m;
  }
  for (const TypedEdge& e : edges) {
    const std::uint64_t m =
        mix2(mix2(label[e.from], label[e.to]), 0xE06EULL + e.kind);
    acc_sum += m;
    acc_xor ^= m;
  }
  out.fingerprint = mix2(mix2(acc_sum, acc_xor), mix64(edges.size()));

  // Canonical order: stabilized label, ties by original index. Ties are
  // either true automorphisms (any choice yields identical bytes) or rare
  // WL-unresolved pairs (bytes may then differ between numberings of the
  // same program — the cache treats that as a miss, never a wrong hit).
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (label[a] != label[b]) return label[a] < label[b];
              return a < b;
            });
  out.inv_perm = order;
  out.perm.resize(n);
  for (std::size_t c = 0; c < n; ++c) out.perm[order[c]] = c;

  // Canonical bytes: nodes in canonical order with opcode, constant
  // operands, and every typed edge expressed in canonical indices. Equal
  // bytes <=> identical scheduling DAG (labels, kinds, and shape).
  std::vector<std::vector<std::uint64_t>> in_edges(n);
  for (const TypedEdge& e : edges)
    in_edges[e.to].push_back(static_cast<std::uint64_t>(e.kind) << 32 |
                             out.perm[e.from]);
  std::string& b = out.bytes;
  b.reserve(n * 24);
  b += "canon v1 n=" + std::to_string(n) +
       " m=" + std::to_string(edges.size()) + "\n";
  for (std::size_t c = 0; c < n; ++c) {
    const Tuple& t = prog[order[c]];
    b += std::to_string(static_cast<int>(t.op));
    for (int k = 0; k < t.operand_count(); ++k)
      if (t.operand(k).is_const())
        b += " c" + std::to_string(k) + ":" +
             std::to_string(t.operand(k).const_value());
    auto& ins = in_edges[order[c]];
    std::sort(ins.begin(), ins.end());
    for (std::uint64_t e : ins)
      b += " e" + std::to_string(e >> 32) + ":" +
           std::to_string(static_cast<std::uint32_t>(e));
    b += '\n';
  }
  return out;
}

std::string fingerprint_hex(std::uint64_t fp) {
  static const char* kHex = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, fp >>= 4) s[i] = kHex[fp & 0xF];
  return s;
}

std::uint64_t config_digest(const SchedulerConfig& cfg, const TimingModel& tm,
                            std::uint64_t rng_key) {
  std::uint64_t h = mix64(0xC0FFEEull);
  h = mix2(h, cfg.num_procs);
  h = mix2(h, static_cast<std::uint64_t>(cfg.machine));
  h = mix2(h, static_cast<std::uint64_t>(cfg.barrier_latency));
  h = mix2(h, static_cast<std::uint64_t>(cfg.insertion));
  h = mix2(h, static_cast<std::uint64_t>(cfg.ordering));
  h = mix2(h, static_cast<std::uint64_t>(cfg.assignment));
  h = mix2(h, cfg.lookahead_window);
  h = mix2(h, (cfg.add_final_barrier ? 2u : 0u) | (cfg.repair_sweep ? 1u : 0u));
  for (int op = 0; op < static_cast<int>(kNumOpcodes); ++op) {
    const TimeRange& r = tm.range(static_cast<Opcode>(op));
    h = mix2(h, static_cast<std::uint64_t>(r.min));
    h = mix2(h, static_cast<std::uint64_t>(r.max));
  }
  return mix2(h, rng_key);
}

std::uint64_t gen_digest(const GeneratorConfig& g) {
  std::uint64_t h = mix64(0x6E6Eull);
  h = mix2(h, g.num_statements);
  h = mix2(h, g.num_variables);
  h = mix2(h, g.num_constants);
  std::uint64_t prob_bits = 0;
  static_assert(sizeof(prob_bits) == sizeof(g.const_operand_prob));
  __builtin_memcpy(&prob_bits, &g.const_operand_prob, sizeof(prob_bits));
  h = mix2(h, prob_bits);
  return mix2(h, static_cast<std::uint64_t>(g.const_max));
}

std::string rewrite_schedule_ids(const std::string& text,
                                 std::span<const std::uint32_t> map) {
  std::string out;
  out.reserve(text.size());
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line(text.data() + pos, eol - pos);
    // Instruction tokens appear only on stream lines ("P<p>: n<i> B<b> ...").
    if (!line.empty() && line[0] == 'P' &&
        line.find(':') != std::string_view::npos) {
      std::size_t i = 0;
      while (i < line.size()) {
        if (line[i] == ' ' && i + 1 < line.size() && line[i + 1] == 'n' &&
            i + 2 < line.size() && line[i + 2] >= '0' && line[i + 2] <= '9') {
          std::size_t j = i + 2;
          std::uint64_t id = 0;
          while (j < line.size() && line[j] >= '0' && line[j] <= '9')
            id = id * 10 + static_cast<std::uint64_t>(line[j++] - '0');
          BM_REQUIRE(id < map.size(), "schedule id out of range for rewrite");
          out += " n" + std::to_string(map[id]);
          i = j;
        } else {
          out += line[i++];
        }
      }
    } else {
      out.append(line);
    }
    if (eol < text.size()) out += '\n';
    pos = eol + 1;
  }
  return out;
}

}  // namespace bm::serve
