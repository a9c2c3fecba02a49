// Custom machine description: define your own per-opcode timing model (a
// slower interconnect with [1,12] loads and a pipelined constant-time
// multiplier), then compare SBM and DBM schedules across machine sizes.
#include <iostream>

#include "codegen/synthesize.hpp"
#include "harness/experiment.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace bm;
  const CliFlags flags(argc, argv);

  // A machine with remote-memory loads and a pipelined multiplier.
  TimingModel machine = TimingModel::table1();
  machine.set(Opcode::kLoad, {1, 12});   // interconnect contention
  machine.set(Opcode::kMul, {20, 20});   // pipelined: fixed latency
  machine.set(Opcode::kDiv, {24, 40});   // wider asynchronous divider
  machine.set(Opcode::kMod, {24, 40});

  GeneratorConfig gen;
  gen.num_statements = static_cast<std::uint32_t>(flags.get_int("statements", 50));
  gen.num_variables = static_cast<std::uint32_t>(flags.get_int("variables", 10));

  RunOptions opt;
  opt.seeds = static_cast<std::size_t>(flags.get_int("seeds", 50));
  opt.timing = machine;
  opt.sim_runs = 10;

  std::cout << "Custom machine: Load " << machine.range(Opcode::kLoad).to_string()
            << ", Mul " << machine.range(Opcode::kMul).to_string() << ", Div "
            << machine.range(Opcode::kDiv).to_string() << "\n\n";

  TextTable table({"#PEs", "machine", "barrier", "serialized", "static",
                   "compl [min,max]", "merges/blk"});
  for (std::size_t procs : {2u, 4u, 8u, 16u}) {
    for (MachineKind kind : {MachineKind::kSBM, MachineKind::kDBM}) {
      SchedulerConfig cfg;
      cfg.num_procs = procs;
      cfg.machine = kind;
      const PointAggregate agg = run_point(gen, cfg, opt);
      const FractionAggregate& f = agg.fractions;
      table.add_row({std::to_string(procs), std::string(to_string(kind)),
                     TextTable::pct(f.barrier_frac.mean()),
                     TextTable::pct(f.serialized_frac.mean()),
                     TextTable::pct(f.static_frac.mean()),
                     TextTable::interval(f.completion_min.mean(),
                                         f.completion_max.mean(), 1),
                     TextTable::num(f.merges.mean(), 2)});
    }
  }
  table.render(std::cout);
  std::cout << "\nNote how the wider Load range concentrates barriers after "
               "the initial loads, and how SBM merging trades barriers for "
               "completion time.\n";
  return 0;
}
