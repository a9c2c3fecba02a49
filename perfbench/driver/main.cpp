// perfbench_driver: runs one benchmark workload in-process against the
// repository's libraries and prints the result as one JSON line.
//
//   perfbench_driver --workload sweep|serve|native|megadag --seed N
//                    --seconds S --trace 0|1 [--setup-only 0|1]
//                    [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 measures the per-layer metrics: it records obs spans around
// each call into a layer (next to the spans the libraries emit), prints
// the self-time table, writes the obs trace to DIR/<workload>.trace.json
// and reports the tracing overhead against untraced blocks of the same run.
// --setup-only 1 runs the workload's set-up once, in this fresh process,
// and reports setup_s alone: one cold set-up sample.
#include <sys/stat.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "sweep|serve|native|megadag --seed N --seconds S --trace 0|1 "
               "[--setup-only 0|1] [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stod(v);
      else if (a == "--trace") opt.trace = std::stoi(v) != 0;
      else if (a == "--setup-only") opt.setup_only = std::stoi(v) != 0;
      else if (a == "--out-dir") opt.out_dir = v;
      else return usage(("unknown flag " + a).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (opt.seconds <= 0) return usage("--seconds must be positive");
  if (opt.setup_only && opt.trace)
    return usage("--setup-only measures setup_s, an untraced metric");

  void (*run)(const pb::Options&, pb::Report&, pb::Tracer&) = nullptr;
  if (opt.workload == "sweep") run = pb::run_sweep;
  else if (opt.workload == "serve") run = pb::run_serve;
  else if (opt.workload == "native") run = pb::run_native;
  else if (opt.workload == "megadag") run = pb::run_megadag;
  else return usage(("unknown workload '" + opt.workload + "'").c_str());

  pb::Report report;
  pb::Tracer tracer(opt.trace);
  if (opt.setup_only) {
    try {
      run(opt, report, tracer);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_driver: %s set-up: %s\n",
                   opt.workload.c_str(), e.what());
      return 1;
    }
    std::printf("%s\n", report.json().c_str());
    return 0;
  }

  const std::string host = pb::host_stamp_json();
  std::printf("host: %s\n", host.c_str());
  std::printf("workload: %s  seed: %llu  seconds: %g  trace: %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  try {
    run(opt, report, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  mkdir(opt.out_dir.c_str(), 0755);
  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) +
                           (opt.trace ? "-trace" : "");
  if (opt.trace) {
    std::printf("self time per span (span minus its child spans):\n");
    tracer.print_table();
    // One trace file per workload, replaced by each traced run.
    const std::string path = opt.out_dir + "/" + opt.workload + ".trace.json";
    const std::size_t spans = tracer.write(path);
    std::printf("trace_file: %s (%zu spans, first traced block)\n",
                path.c_str(), spans);
  }

  const std::string result = report.json();
  std::ofstream(stem + ".result.json")
      << "{\"host\": " << host << ", \"workload\": \"" << opt.workload
      << "\", \"seed\": " << opt.seed << ", \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  return 0;
}
