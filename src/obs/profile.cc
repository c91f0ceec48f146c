#include "obs/profile.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace stems::obs {

namespace {

struct Col {
  const char* header;
  size_t width;
};

void AppendCell(std::string* out, const std::string& text, size_t width,
                bool right) {
  std::string cell = text;
  if (cell.size() > width) cell.resize(width);
  size_t pad = width - cell.size();
  if (right) out->append(pad, ' ');
  *out += cell;
  if (!right) out->append(pad, ' ');
  *out += "  ";
}

std::string U64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string Dbl(double v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::string QueryProfile::ToTable() const {
  static constexpr Col kCols[] = {
      {"module", 18}, {"kind", 9},    {"in", 9},       {"out", 9},
      {"sel(obs)", 8}, {"sel(asm)", 8}, {"builds", 8},  {"probes", 8},
      {"matches", 8}, {"spill_io", 8}, {"busy_vus", 10}, {"wait_vus", 10},
  };
  std::string out;
  for (const Col& c : kCols) {
    std::string h = c.header;
    AppendCell(&out, h, c.width, false);
  }
  out += "\n";
  size_t total_width = 0;
  for (const Col& c : kCols) total_width += c.width + 2;
  out.append(total_width, '-');
  out += "\n";
  for (const ModuleProfileRow& m : modules) {
    AppendCell(&out, m.name, kCols[0].width, false);
    AppendCell(&out, m.kind, kCols[1].width, false);
    AppendCell(&out, U64(m.tuples_in), kCols[2].width, true);
    AppendCell(&out, U64(m.tuples_out), kCols[3].width, true);
    AppendCell(&out, Dbl(m.observed_selectivity), kCols[4].width, true);
    AppendCell(&out, Dbl(m.assumed_selectivity), kCols[5].width, true);
    AppendCell(&out, U64(m.builds), kCols[6].width, true);
    AppendCell(&out, U64(m.probes), kCols[7].width, true);
    AppendCell(&out, U64(m.matches), kCols[8].width, true);
    AppendCell(&out, U64(m.spill_ios), kCols[9].width, true);
    AppendCell(&out, U64(m.busy_vus), kCols[10].width, true);
    AppendCell(&out, U64(m.queue_wait_vus), kCols[11].width, true);
    out += "\n";
  }
  out.append(total_width, '-');
  out += "\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "executor=%s policy=%s results=%" PRIu64 " routed=%" PRIu64
                " retired=%" PRIu64 "\n",
                executor.c_str(), policy.c_str(), totals.num_results,
                totals.tuples_routed, totals.tuples_retired);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "virtual_time_us=%" PRIu64 " wall_us=%" PRIu64
                " routing_wall_ns=%" PRIu64 " spill_ios=%" PRIu64
                " bytes_spilled=%" PRIu64 "\n",
                virtual_time_us, wall_us, totals.routing_wall_ns,
                totals.spill_ios, totals.bytes_spilled);
  out += buf;
  return out;
}

}  // namespace stems::obs
