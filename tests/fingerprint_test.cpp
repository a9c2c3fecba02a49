// Canonical DAG fingerprint (serve/fingerprint.hpp):
//  - golden fixtures: fingerprints of the 100-schedule parity corpus
//    programs, committed in tests/golden/fingerprints.txt (regenerate with
//    BM_GOLDEN_REGEN=1 ./build/fingerprint_test after intentional changes);
//  - invariance: permuting instruction uids and valid reorderings of the
//    tuple list leave the fingerprint (and the canonical bytes) unchanged;
//  - pinned edge kinds: literal fingerprints of inputs with every memory
//    edge kind and both duplicate-suppression rules;
//  - sensitivity: any semantic edit — opcode, constant, operand wiring,
//    memory dependence — changes the fingerprint;
//  - the schedule-id rewriter round-trips through a permutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/synthesize.hpp"
#include "graph/instr_dag.hpp"
#include "serve/fingerprint.hpp"
#include "support/rng.hpp"

namespace bm {
namespace {

using serve::CanonicalProgram;
using serve::canonicalize_program;
using serve::config_digest;
using serve::fingerprint_hex;
using serve::rewrite_schedule_ids;

constexpr std::uint64_t kBaseSeed = 1990;
constexpr std::size_t kSeeds = 100;  // matches the golden parity corpus

/// Canonical form of `prog`, read from its dag as the serving path does.
CanonicalProgram canon(const Program& prog) {
  return canonicalize_program(prog,
                              InstrDag::build(prog, TimingModel::table1()));
}

Program corpus_program(std::size_t i) {
  GeneratorConfig gen;
  Rng rng = benchmark_rng(kBaseSeed, i);
  return synthesize_benchmark(gen, rng).program;
}

/// Reorders the tuple list by `order` (new index -> old index), rewriting
/// operand references. `order` must be a valid topological order of the
/// dataflow for the result to pass validate(). uids travel with tuples.
Program permute_program(const Program& in,
                        const std::vector<std::uint32_t>& order) {
  std::vector<std::uint32_t> new_index(in.size());
  for (std::uint32_t n = 0; n < order.size(); ++n) new_index[order[n]] = n;

  Program out(in.num_vars());
  for (std::uint32_t n = 0; n < order.size(); ++n) {
    Tuple t = in[order[n]];
    for (int k = 0; k < t.operand_count(); ++k)
      if (t.operand(k).is_tuple())
        t.operand(k) = Operand::tuple(new_index[t.operand(k).tuple_id()]);
    out.append(t);
  }
  return out;
}

/// A topological reorder that actually moves things: repeatedly picks the
/// *last* ready tuple instead of the first. Memory edges are respected by
/// keeping loads/stores of each variable in their original relative order.
std::vector<std::uint32_t> reversed_ready_order(const Program& prog) {
  const std::size_t n = prog.size();
  // prev_mem[i]: the latest earlier tuple touching the same variable with a
  // conflicting access (conservative: any same-var access). Coarser than
  // the real dependence rules, so any order it admits is dependence-valid.
  std::vector<int> indegree(n, 0);
  std::vector<std::vector<std::uint32_t>> succs(n);
  auto add_edge = [&](std::uint32_t a, std::uint32_t b) {
    succs[a].push_back(b);
    ++indegree[b];
  };
  std::vector<std::uint32_t> last_touch(prog.num_vars(), ~0u);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Tuple& t = prog[i];
    for (int k = 0; k < t.operand_count(); ++k)
      if (t.operand(k).is_tuple()) add_edge(t.operand(k).tuple_id(), i);
    if (t.is_load() || t.is_store()) {
      if (last_touch[t.var] != ~0u) add_edge(last_touch[t.var], i);
      last_touch[t.var] = i;
    }
  }
  std::vector<std::uint32_t> ready, order;
  for (std::uint32_t i = 0; i < n; ++i)
    if (indegree[i] == 0) ready.push_back(i);
  while (!ready.empty()) {
    const std::uint32_t i = ready.back();  // last ready first
    ready.pop_back();
    order.push_back(i);
    for (std::uint32_t s : succs[i])
      if (--indegree[s] == 0) ready.push_back(s);
  }
  EXPECT_EQ(order.size(), n);
  return order;
}

TEST(Fingerprint, GoldenCorpusFixtures) {
  std::ostringstream os;
  os << "fingerprints v1 base_seed=" << kBaseSeed << " seeds=" << kSeeds
     << "\n";
  for (std::size_t i = 0; i < kSeeds; ++i)
    os << i << " " << fingerprint_hex(canon(corpus_program(i)).fingerprint)
       << "\n";
  const std::string current = os.str();
  const std::string path = std::string(BM_GOLDEN_DIR) + "/fingerprints.txt";

  if (std::getenv("BM_GOLDEN_REGEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << current;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing " << path
                  << " — regenerate with: BM_GOLDEN_REGEN=1 "
                     "./build/fingerprint_test";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(current, expected.str())
      << "canonical fingerprints changed — renumbering-stable cache keys "
         "broke, or the hash was intentionally revised (then regenerate)";
}

TEST(Fingerprint, InvariantUnderUidRenumbering) {
  for (std::size_t i = 0; i < 10; ++i) {
    Program prog = corpus_program(i);
    const CanonicalProgram before = canon(prog);
    // uids are display-only; scramble them hard.
    for (std::size_t t = 0; t < prog.size(); ++t)
      prog[t].uid = static_cast<std::uint32_t>(9000 + 7 * t);
    const CanonicalProgram after = canon(prog);
    EXPECT_EQ(before.fingerprint, after.fingerprint) << "seed " << i;
    EXPECT_EQ(before.bytes, after.bytes) << "seed " << i;
  }
}

TEST(Fingerprint, InvariantUnderValidReordering) {
  std::size_t moved_programs = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    const Program prog = corpus_program(i);
    const std::vector<std::uint32_t> order = reversed_ready_order(prog);
    bool moved = false;
    for (std::uint32_t n = 0; n < order.size(); ++n)
      if (order[n] != n) moved = true;
    if (moved) ++moved_programs;

    const Program shuffled = permute_program(prog, order);
    shuffled.validate();
    const CanonicalProgram a = canon(prog);
    const CanonicalProgram b = canon(shuffled);
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "seed " << i;
    EXPECT_EQ(a.bytes, b.bytes) << "seed " << i;
    // (The perm/inv_perm pairs may legitimately differ on automorphic
    // nodes; equal canonical bytes is the contract the cache relies on.)
  }
  EXPECT_GT(moved_programs, 0u)
      << "reordering harness produced only identity permutations — the "
         "invariance claim was never exercised";
}

TEST(Fingerprint, SensitiveToSemanticEdits) {
  Program base = corpus_program(0);
  const std::uint64_t fp = canon(base).fingerprint;

  // Opcode change on some binary tuple.
  {
    Program p = base;
    for (std::size_t t = 0; t < p.size(); ++t)
      if (p[t].is_binary()) {
        p[t].op = p[t].op == Opcode::kAdd ? Opcode::kSub : Opcode::kAdd;
        break;
      }
    EXPECT_NE(canon(p).fingerprint, fp) << "opcode edit went unnoticed";
  }
  // Constant operand change.
  {
    Program p = base;
    bool edited = false;
    for (std::size_t t = 0; t < p.size() && !edited; ++t)
      for (int k = 0; k < p[t].operand_count(); ++k)
        if (p[t].operand(k).is_const()) {
          p[t].operand(k) =
              Operand::constant(p[t].operand(k).const_value() + 1);
          edited = true;
          break;
        }
    ASSERT_TRUE(edited);
    EXPECT_NE(canon(p).fingerprint, fp) << "constant edit went unnoticed";
  }
  // Operand rewiring: point a consumer at a different producer.
  {
    Program p = base;
    bool edited = false;
    for (std::size_t t = 0; t < p.size() && !edited; ++t)
      for (int k = 0; k < p[t].operand_count(); ++k) {
        const Operand& o = p[t].operand(k);
        if (o.is_tuple() && o.tuple_id() > 0) {
          p[t].operand(k) = Operand::tuple(o.tuple_id() - 1);
          if (p[t].operand_count() == 2 && p[t].operand(0) == p[t].operand(1))
            continue;  // would hit the duplicate-edge rule, pick another
          edited = true;
          break;
        }
      }
    ASSERT_TRUE(edited);
    p.validate();
    EXPECT_NE(canon(p).fingerprint, fp) << "rewiring went unnoticed";
  }
}

/// Raw tuple program (no optimize): loads, stores and binaries mixed, with
/// operands naming any earlier tuple (stores included) or a constant, so
/// every dependence rule and both duplicate-suppression rules occur.
Program raw_program(std::uint64_t seed) {
  Rng rng(seed);
  const auto vars = static_cast<std::uint32_t>(1 + rng.index(4));
  Program p(vars);
  const std::size_t len = 2 + rng.index(40);
  auto operand = [&]() {
    if (p.size() == 0 || rng.chance(0.2))
      return Operand::constant(rng.uniform(-3, 9));
    return Operand::tuple(static_cast<TupleId>(rng.index(p.size())));
  };
  const Opcode binops[] = {Opcode::kAdd, Opcode::kSub, Opcode::kMul,
                           Opcode::kDiv};
  for (std::size_t i = 0; i < len; ++i) {
    const auto uid = static_cast<std::uint32_t>(i);
    switch (rng.index(3)) {
      case 0:
        p.append(Tuple::load(uid, static_cast<VarId>(rng.index(vars))));
        break;
      case 1: {
        const Operand v = operand();
        p.append(Tuple::store(uid, static_cast<VarId>(rng.index(vars)), v));
        break;
      }
      default: {
        const Opcode op = binops[rng.index(4)];
        const Operand a = operand();
        const Operand b = rng.chance(0.15) ? a : operand();
        p.append(Tuple::binary(uid, op, a, b));
        break;
      }
    }
  }
  return p;
}

// Pins the typed edge set on inputs the optimizer never emits (the golden
// corpus only has dataflow and anti edges). Like the golden fixtures, the
// literals change only with an intentional hash revision: any other drift
// means an edge went missing or changed kind.
TEST(Fingerprint, PinnedEdgeKinds) {
  const auto T = [](TupleId id) { return Operand::tuple(id); };
  const auto C = [](std::int64_t v) { return Operand::constant(v); };
  Program p(2);                                            // x = 0, y = 1
  p.append(Tuple::load(0, 0));                             //  0 L x
  p.append(Tuple::store(1, 0, T(0)));                      //  1 S x <- 0: anti suppressed
  p.append(Tuple::load(2, 0));                             //  2 L x: flow 1->2
  p.append(Tuple::binary(3, Opcode::kAdd, T(2), T(2)));    //  3 one edge for both slots
  p.append(Tuple::binary(4, Opcode::kSub, C(5), T(3)));    //  4 slot-1 dataflow
  p.append(Tuple::load(5, 1));                             //  5 L y
  p.append(Tuple::store(6, 0, T(4)));                      //  6 S x: anti 2->6, output 1->6
  p.append(Tuple::store(7, 1, C(3)));                      //  7 S y: anti 5->7
  p.append(Tuple::binary(8, Opcode::kMul, T(5), C(2)));    //  8
  p.append(Tuple::store(9, 1, T(8)));                      //  9 S y: output 7->9
  p.append(Tuple::load(10, 1));                            // 10 L y: flow 9->10
  p.append(Tuple::store(11, 0, T(10)));                    // 11 S x: output 6->11
  p.append(Tuple::store(12, 0, T(11)));                    // 12 S x <- 11: output suppressed
  const CanonicalProgram c = canon(p);
  EXPECT_EQ(fingerprint_hex(c.fingerprint), "40ffc107e2359ed7");
  EXPECT_EQ(c.bytes,
            "canon v1 n=13 m=15\n"
            "1 e1:6 e5:9\n"
            "1 c0:3 e4:11\n"
            "1 e1:12\n"
            "1 e1:0\n"
            "0 e3:2\n"
            "3 c0:5 e2:8\n"
            "0 e3:10\n"
            "6 c1:2 e1:11\n"
            "2 e1:4\n"
            "1 e1:5 e4:4 e5:2\n"
            "1 e1:7 e5:1\n"
            "0\n"
            "0\n");

  std::uint64_t fold = 0xCBF29CE484222325ull;
  for (std::uint64_t seed = 0; seed < 200; ++seed)
    fold = (fold ^ canon(raw_program(seed)).fingerprint) * 0x100000001B3ull;
  EXPECT_EQ(fingerprint_hex(fold), "1bbf5e2037f6e3f2");
}

TEST(Fingerprint, ConfigDigestSeparatesParameters) {
  const TimingModel tm = TimingModel::table1();
  SchedulerConfig a;
  const std::uint64_t base = config_digest(a, tm, 1);

  SchedulerConfig b = a;
  b.num_procs = 16;
  EXPECT_NE(config_digest(b, tm, 1), base);
  b = a;
  b.machine = MachineKind::kDBM;
  EXPECT_NE(config_digest(b, tm, 1), base);
  b = a;
  b.insertion = InsertionPolicy::kOptimal;
  EXPECT_NE(config_digest(b, tm, 1), base);
  b = a;
  b.barrier_latency = 4;
  EXPECT_NE(config_digest(b, tm, 1), base);
  EXPECT_NE(config_digest(a, tm, 2), base) << "rng identity must key";
  EXPECT_NE(config_digest(a, TimingModel::table1_with_variation(4.0), 1),
            base)
      << "timing model must key";
  EXPECT_EQ(config_digest(a, tm, 1), base) << "digest must be deterministic";
}

TEST(Fingerprint, RewriteScheduleIdsMapsOnlyStreamTokens) {
  const std::string text =
      "schedule v1\n"
      "procs 2 instrs 3 barriers 1\n"
      "barrier 1 mask 0,1 final\n"
      "P0: n0 B1 n2\n"
      "P1: n1 B1\n";
  const std::vector<std::uint32_t> map = {10, 11, 12};
  const std::string out = rewrite_schedule_ids(text, map);
  EXPECT_EQ(out,
            "schedule v1\n"
            "procs 2 instrs 3 barriers 1\n"
            "barrier 1 mask 0,1 final\n"
            "P0: n10 B1 n12\n"
            "P1: n11 B1\n");
  // Round trip through the inverse permutation restores the input.
  std::vector<std::uint32_t> inv(13, 0);
  for (std::uint32_t i = 0; i < map.size(); ++i) inv[map[i]] = i;
  EXPECT_EQ(rewrite_schedule_ids(out, inv), text);
}

}  // namespace
}  // namespace bm
