#include "sim/gantt.hpp"

#include <algorithm>
#include <sstream>

#include "support/assert.hpp"

namespace bm {

std::string render_gantt(const Schedule& sched, const ExecTrace& trace,
                         const GanttOptions& options) {
  BM_REQUIRE(options.max_width >= 10, "gantt needs at least 10 columns");
  const Time span = std::max<Time>(trace.completion, 1);
  const double scale =
      static_cast<double>(options.max_width) / static_cast<double>(span);
  auto col = [&](Time t) {
    const auto c = static_cast<std::size_t>(static_cast<double>(t) * scale);
    return std::min(c, options.max_width);
  };

  std::ostringstream os;
  for (ProcId p = 0; p < sched.num_procs(); ++p) {
    if (sched.stream(p).empty()) continue;
    std::string row(options.max_width + 1, ' ');
    for (const ScheduleEntry& e : sched.stream(p)) {
      if (e.is_barrier) {
        const Time fire = trace.barrier_fire.at(e.id);
        if (fire != kNotExecuted) row[col(fire)] = '|';
        continue;
      }
      const Time start = trace.start.at(e.id);
      const Time finish = trace.finish.at(e.id);
      if (start == kNotExecuted) continue;
      const std::size_t from = col(start);
      const std::size_t to = std::max(col(finish), from + 1);
      // Fill the span, then stamp the label over the leading cells.
      for (std::size_t c = from; c < to && c < row.size(); ++c) row[c] = '=';
      std::string label = "n";
      label += std::to_string(e.id);
      for (std::size_t k = 0; k < label.size() && from + k < to; ++k)
        row[from + k] = label[k];
    }
    os << 'P' << p << (p < 10 ? " " : "") << '[' << row << "]\n";
  }
  if (options.show_axis) {
    os << "t=0" << std::string(options.max_width > 10 ? options.max_width - 7 : 0, ' ')
       << "t=" << span << '\n';
  }
  return os.str();
}

}  // namespace bm
