#include <algorithm>
#include <functional>

#include <gtest/gtest.h>

#include "graph/instr_dag.hpp"
#include "support/rng.hpp"

namespace bm {
namespace {

Operand C(std::int64_t v) { return Operand::constant(v); }
Operand T(TupleId id) { return Operand::tuple(id); }

/// The paper's example synthetic benchmark (Fig. 1), built through the
/// public API. Variables: i,a,b,f,d,j,c,h,e,g = 0..9. Tuple uids are the
/// paper's tuple numbers.
Program figure1_program() {
  Program p(10);
  p.append(Tuple::load(0, 0));                                 //  0 Load i
  p.append(Tuple::load(1, 1));                                 //  1 Load a
  p.append(Tuple::binary(2, Opcode::kAdd, T(0), T(1)));        //  2 Add 0,1
  p.append(Tuple::store(3, 2, T(2)));                          //  3 Store b,2
  p.append(Tuple::load(4, 3));                                 //  4 Load f
  p.append(Tuple::load(24, 4));                                // 24 Load d
  p.append(Tuple::load(5, 5));                                 //  5 Load j
  p.append(Tuple::load(12, 6));                                // 12 Load c
  p.append(Tuple::binary(26, Opcode::kAnd, T(4), T(5)));       // 26 And 4,24
  p.append(Tuple::binary(6, Opcode::kAdd, T(4), T(6)));        //  6 Add 4,5
  p.append(Tuple::binary(30, Opcode::kSub, T(8), T(4)));       // 30 Sub 26,4
  p.append(Tuple::binary(18, Opcode::kSub, T(9), T(0)));       // 18 Sub 6,0
  // Tuple 22 prints as "Add 1,2" in Fig. 1; its [2,5] finish column is only
  // consistent if the second operand is the constant 2, not tuple 2.
  p.append(Tuple::binary(22, Opcode::kAdd, T(1), C(2)));       // 22 Add 1,#2
  p.append(Tuple::binary(38, Opcode::kAdd, T(7), T(10)));      // 38 Add 12,30
  p.append(Tuple::store(19, 0, T(11)));                        // 19 Store i,18
  p.append(Tuple::store(23, 1, T(12)));                        // 23 Store a,22
  p.append(Tuple::store(27, 7, T(8)));                         // 27 Store h,26
  p.append(Tuple::store(31, 8, T(10)));                        // 31 Store e,30
  p.append(Tuple::store(39, 9, T(13)));                        // 39 Store g,38
  return p;
}

TEST(InstrDagFig1, AsapColumnsMatchThePaper) {
  const Program p = figure1_program();
  const InstrDag dag = InstrDag::build(p, TimingModel::table1());
  // Expected min/max finish columns, in program order (Fig. 1).
  const std::vector<TimeRange> expected = {
      {1, 4}, {1, 4}, {2, 5}, {3, 6}, {1, 4}, {1, 4}, {1, 4},
      {1, 4}, {2, 5}, {2, 5}, {3, 6}, {3, 6}, {2, 5}, {4, 7},
      {4, 7}, {3, 6}, {3, 6}, {4, 7}, {5, 8}};
  const std::vector<TimeRange> actual = dag.asap_instruction_columns();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(actual[i], expected[i]) << "tuple uid " << p[i].uid;
}

TEST(InstrDagFig1, CriticalPathAndSyncCount) {
  const Program p = figure1_program();
  const InstrDag dag = InstrDag::build(p, TimingModel::table1());
  EXPECT_EQ(dag.critical_path(), (TimeRange{5, 8}));
  // 19 dataflow edges + 2 anti edges (Load i → Store i, Load a → Store a).
  EXPECT_EQ(dag.implied_syncs(), 21u);
}

TEST(InstrDagFig1, AntiDependenceEdgesPresent) {
  const Program p = figure1_program();
  const InstrDag dag = InstrDag::build(p, TimingModel::table1());
  EXPECT_TRUE(dag.graph().has_edge(0, 14));  // Load i → Store i,18
  EXPECT_TRUE(dag.graph().has_edge(1, 15));  // Load a → Store a,22
  EXPECT_FALSE(dag.graph().has_edge(14, 0));
}

TEST(InstrDagFig1, HeightsIncludeOwnTime) {
  const Program p = figure1_program();
  const InstrDag dag = InstrDag::build(p, TimingModel::table1());
  // Load f (dense 4) heads the longest chain: Load→And→Sub→Add→Store.
  EXPECT_EQ(dag.h_max(4), 8);
  EXPECT_EQ(dag.h_min(4), 5);
  // A final store's height is its own execution time.
  EXPECT_EQ(dag.h_max(18), 1);
  EXPECT_EQ(dag.h_min(18), 1);
  // Exit dummy: zero.
  EXPECT_EQ(dag.h_max(dag.exit()), 0);
}

TEST(InstrDag, EntryExitWiring) {
  Program p(1);
  p.append(Tuple::load(0, 0));
  p.append(Tuple::store(1, 0, T(0)));
  const InstrDag dag = InstrDag::build(p, TimingModel::table1());
  EXPECT_TRUE(dag.graph().has_edge(dag.entry(), 0));
  EXPECT_TRUE(dag.graph().has_edge(1, dag.exit()));
  EXPECT_TRUE(dag.is_dummy(dag.entry()));
  EXPECT_TRUE(dag.is_dummy(dag.exit()));
  EXPECT_FALSE(dag.is_dummy(0));
  EXPECT_EQ(dag.time(dag.entry()), (TimeRange{0, 0}));
  // Dummy edges are not implied synchronizations.
  EXPECT_EQ(dag.implied_syncs(), 1u);
}

TEST(InstrDag, EmptyProgram) {
  Program p(0);
  const InstrDag dag = InstrDag::build(p, TimingModel::table1());
  EXPECT_EQ(dag.num_instructions(), 0u);
  EXPECT_EQ(dag.implied_syncs(), 0u);
  EXPECT_EQ(dag.critical_path(), (TimeRange{0, 0}));
}

TEST(InstrDag, MemoryFlowAndOutputDependences) {
  // Hand-built (not generator-shaped) block: store, load, store on one var.
  Program p(2);
  p.append(Tuple::binary(0, Opcode::kAdd, C(1), C(2)));
  p.append(Tuple::store(1, 0, T(0)));   // store v0
  p.append(Tuple::load(2, 0));          // load v0  (flow from store 1)
  p.append(Tuple::binary(3, Opcode::kAdd, T(2), C(1)));
  p.append(Tuple::store(4, 0, T(3)));   // store v0 again
  p.append(Tuple::store(5, 1, T(3)));
  const InstrDag dag = InstrDag::build(p, TimingModel::table1());
  EXPECT_TRUE(dag.graph().has_edge(1, 2));  // memory flow store→load
  EXPECT_TRUE(dag.graph().has_edge(2, 4));  // anti load→store
  EXPECT_TRUE(dag.graph().has_edge(1, 4));  // output store→store
}

TEST(InstrDag, DuplicateOperandYieldsSingleEdge) {
  Program p(1);
  p.append(Tuple::load(0, 0));
  p.append(Tuple::binary(1, Opcode::kMul, T(0), T(0)));
  p.append(Tuple::store(2, 0, T(1)));
  const InstrDag dag = InstrDag::build(p, TimingModel::table1());
  // Edge 0→1 counted once; plus 1→2 flow and 0→2 anti.
  EXPECT_EQ(dag.implied_syncs(), 3u);
}

TEST(InstrDag, HeightsMatchBruteForceOnRandomPrograms) {
  Rng rng(1234);
  for (int trial = 0; trial < 10; ++trial) {
    // Random layered program.
    Program p(4);
    std::vector<TupleId> values;
    for (int v = 0; v < 4; ++v) values.push_back(p.append(Tuple::load(
        static_cast<std::uint32_t>(v), static_cast<VarId>(v))));
    for (int k = 0; k < 12; ++k) {
      const Opcode op = rng.chance(0.2) ? Opcode::kMul : Opcode::kAdd;
      const Operand a = T(values[rng.index(values.size())]);
      const Operand b = T(values[rng.index(values.size())]);
      values.push_back(p.append(
          Tuple::binary(static_cast<std::uint32_t>(100 + k), op, a, b)));
    }
    p.append(Tuple::store(200, 0, T(values.back())));
    const InstrDag dag = InstrDag::build(p, TimingModel::table1());

    // Brute force: h(i) = t(i) + max over successors (0 at exit).
    std::vector<Time> hmax(dag.graph().size(), -1);
    std::function<Time(NodeId)> rec = [&](NodeId n) -> Time {
      if (hmax[n] >= 0) return hmax[n];
      Time best = 0;
      for (NodeId s : dag.graph().succs(n)) best = std::max(best, rec(s));
      return hmax[n] = dag.time(n).max + best;
    };
    for (NodeId n = 0; n < dag.num_instructions(); ++n)
      EXPECT_EQ(dag.h_max(n), rec(n));
  }
}

}  // namespace
}  // namespace bm
