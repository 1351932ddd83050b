#include "analysis/engine/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "obs/json.hpp"
#include "util/table.hpp"

namespace nfstrace {
namespace {

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n), sizeof(buf) - 1));
}

}  // namespace

std::string renderReportText(const std::string& input, StandardAnalyses& a) {
  std::string out;
  const TraceSummary& s = a.summary.result();
  appendf(out, "%s: %" PRIu64 " records, %.2f simulated days\n\n",
          input.c_str(), s.totalOps, s.days());

  // Operation mix (Table 2).
  {
    TextTable t({"Operation", "Calls", "% of total"});
    for (std::size_t i = 0; i < kNfsOpCount; ++i) {
      if (s.opCounts[i] == 0) continue;
      t.addRow({std::string(nfsOpName(static_cast<NfsOp>(i))),
                TextTable::withCommas(s.opCounts[i]),
                TextTable::percent(static_cast<double>(s.opCounts[i]) /
                                   static_cast<double>(s.totalOps))});
    }
    out += t.render();
  }
  appendf(out,
          "\ndata: %.1f MB read (%" PRIu64 " ops), %.1f MB written (%" PRIu64
          " ops)\nR/W ratios: bytes %.2f, ops %.2f; replies missing: %" PRIu64
          "\n",
          static_cast<double>(s.bytesRead) / 1e6, s.readOps,
          static_cast<double>(s.bytesWritten) / 1e6, s.writeOps,
          s.readWriteByteRatio(), s.readWriteOpRatio(), s.repliesMissing);

  // Hourly load (Table 5 flavor): all-hours vs peak-hours variance.
  {
    auto all = a.hourly.result().allHours();
    auto peak = a.hourly.result().peakHours();
    auto win = a.hourly.result().findLeastVarianceWindow();
    appendf(out,
            "\nhourly load: %zu hours; ops/hour mean %.0f (stddev %.0f%%), "
            "peak-hours mean %.0f (stddev %.0f%%)\n"
            "least-variance weekday window: %02d:00-%02d:00 (stddev %.0f%%)\n",
            a.hourly.result().hours().size(), all.totalOps.mean(),
            all.totalOps.stddevPercentOfMean(), peak.totalOps.mean(),
            peak.totalOps.stddevPercentOfMean(), win.startHour, win.endHour,
            win.stddevPercent);
  }

  // Reorder sweep (Figure 1).
  if (!a.reorder.sweep().empty()) {
    out += "\nreorder windows (fraction of accesses swapped):\n";
    TextTable t({"window (ms)", "swapped"});
    for (const auto& [w, frac] : a.reorder.sweep()) {
      t.addRow({TextTable::fixed(static_cast<double>(w) / 1000.0, 1),
                TextTable::percent(frac, 2)});
    }
    out += t.render();
  }

  // Run patterns (Table 3, with the standard 10 ms reorder window).
  {
    const auto& rp = a.runs.patterns();
    appendf(out, "\nruns: %zu total (%.2f%% of accesses reorder-swapped)\n",
            a.runs.runs().size(), 100.0 * a.runs.reorderSwappedFraction());
    TextTable t({"Type", "% of runs", "entire", "sequential", "random"});
    t.addRow({"read", TextTable::percent(rp.readFrac),
              TextTable::percent(rp.readEntire),
              TextTable::percent(rp.readSeq),
              TextTable::percent(rp.readRandom)});
    t.addRow({"write", TextTable::percent(rp.writeFrac),
              TextTable::percent(rp.writeEntire),
              TextTable::percent(rp.writeSeq),
              TextTable::percent(rp.writeRandom)});
    t.addRow({"read-write", TextTable::percent(rp.rwFrac),
              TextTable::percent(rp.rwEntire), TextTable::percent(rp.rwSeq),
              TextTable::percent(rp.rwRandom)});
    out += t.render();
  }

  // Block lifetimes over the trace's own span (Table 4).
  {
    const auto& bl = a.blocklife.stats();
    auto pct = [](std::uint64_t n, std::uint64_t d) {
      return d ? 100.0 * static_cast<double>(n) / static_cast<double>(d)
               : 0.0;
    };
    appendf(out,
            "\nblock life: %" PRIu64 " births (%.1f%% writes), %" PRIu64
            " deaths (%.1f%% overwrite, %.1f%% truncate, %.1f%% delete)\n",
            bl.births, pct(bl.birthsWrite, bl.births), bl.deaths,
            pct(bl.deathsOverwrite, bl.deaths),
            pct(bl.deathsTruncate, bl.deaths),
            pct(bl.deathsDelete, bl.deaths));
    auto lifetimes = a.blocklife.lifetimes();  // copy: quantile sorts
    if (!lifetimes.empty()) {
      appendf(out, "median block lifetime: %.1f s\n",
              lifetimes.quantile(0.5));
    }
  }

  // Per-user activity.
  {
    const UserStats& us = a.users.result();
    if (us.userCount() > 1) {
      appendf(out,
              "\nusers: %zu distinct UIDs; top 10%% generate %.1f%% of "
              "calls (imbalance %.2f)\n",
              us.userCount(), 100.0 * us.topUserShare(0.10), us.imbalance());
      auto top = us.byActivity();
      TextTable t({"UID", "ops", "MB read", "MB written", "active hours"});
      for (std::size_t i = 0; i < std::min<std::size_t>(5, top.size());
           ++i) {
        t.addRow({std::to_string(top[i].uid),
                  TextTable::withCommas(top[i].totalOps),
                  TextTable::fixed(
                      static_cast<double>(top[i].bytesRead) / 1e6, 1),
                  TextTable::fixed(
                      static_cast<double>(top[i].bytesWritten) / 1e6, 1),
                  std::to_string(top[i].activeHours)});
      }
      out += t.render();
    }
  }

  // Name census (§6.3).
  {
    const FileLifeCensus& census = a.names.census();
    if (census.totalCreated()) {
      appendf(out,
              "\nfile churn: %" PRIu64 " created, %" PRIu64
              " deleted (%.1f%% locks)\n",
              census.totalCreated(), census.totalDeleted(),
              100.0 * census.lockFractionOfDeleted());
      TextTable t({"Category", "created", "deleted", "p50 life (s)"});
      for (const auto& [cat, cs] : census.byCategory()) {
        auto lt = cs.lifetimesSec;  // copy: quantile sorts
        t.addRow({std::string(nameCategoryLabel(cat)),
                  TextTable::withCommas(cs.created),
                  TextTable::withCommas(cs.deleted),
                  lt.empty() ? "-" : TextTable::fixed(lt.quantile(0.5), 3)});
      }
      out += t.render();
    }
  }

  // Hierarchy reconstruction coverage (§4.1.1).
  appendf(out, "\nhierarchy: %zu known files, parent coverage %.1f%%\n",
          a.pathrec.knownFiles(), 100.0 * a.pathrec.parentCoverage());
  return out;
}

std::string renderReportJson(const std::string& input, StandardAnalyses& a) {
  const TraceSummary& s = a.summary.result();
  obs::JsonWriter w;
  w.beginObject();
  w.field("input", input);
  w.field("records", s.totalOps);
  w.field("days", s.days());

  w.key("op_mix").beginArray();
  for (std::size_t i = 0; i < kNfsOpCount; ++i) {
    if (s.opCounts[i] == 0) continue;
    w.beginObject();
    w.field("op", nfsOpName(static_cast<NfsOp>(i)));
    w.field("calls", s.opCounts[i]);
    w.field("fraction", static_cast<double>(s.opCounts[i]) /
                            static_cast<double>(s.totalOps));
    w.endObject();
  }
  w.endArray();

  w.key("data").beginObject();
  w.field("bytes_read", s.bytesRead);
  w.field("read_ops", s.readOps);
  w.field("bytes_written", s.bytesWritten);
  w.field("write_ops", s.writeOps);
  w.field("rw_byte_ratio", s.readWriteByteRatio());
  w.field("rw_op_ratio", s.readWriteOpRatio());
  w.field("replies_missing", s.repliesMissing);
  w.endObject();

  {
    auto all = a.hourly.result().allHours();
    auto peak = a.hourly.result().peakHours();
    w.key("hourly").beginObject();
    w.field("hours", static_cast<std::uint64_t>(
                         a.hourly.result().hours().size()));
    w.field("ops_mean", all.totalOps.mean());
    w.field("ops_stddev_pct", all.totalOps.stddevPercentOfMean());
    w.field("peak_ops_mean", peak.totalOps.mean());
    w.field("peak_ops_stddev_pct", peak.totalOps.stddevPercentOfMean());
    w.endObject();
  }

  w.key("reorder_sweep").beginArray();
  for (const auto& [win, frac] : a.reorder.sweep()) {
    w.beginObject();
    w.field("window_us", static_cast<std::int64_t>(win));
    w.field("swapped_fraction", frac);
    w.endObject();
  }
  w.endArray();

  {
    const auto& rp = a.runs.patterns();
    w.key("runs").beginObject();
    w.field("total", static_cast<std::uint64_t>(a.runs.runs().size()));
    w.field("reorder_swapped_fraction", a.runs.reorderSwappedFraction());
    auto pattern = [&w](const char* name, double frac, double entire,
                        double seq, double random) {
      w.key(name).beginObject();
      w.field("fraction", frac);
      w.field("entire", entire);
      w.field("sequential", seq);
      w.field("random", random);
      w.endObject();
    };
    pattern("read", rp.readFrac, rp.readEntire, rp.readSeq, rp.readRandom);
    pattern("write", rp.writeFrac, rp.writeEntire, rp.writeSeq,
            rp.writeRandom);
    pattern("read_write", rp.rwFrac, rp.rwEntire, rp.rwSeq, rp.rwRandom);
    w.endObject();
  }

  {
    const auto& bl = a.blocklife.stats();
    w.key("block_life").beginObject();
    w.field("births", bl.births);
    w.field("deaths", bl.deaths);
    w.field("births_write", bl.birthsWrite);
    w.field("deaths_overwrite", bl.deathsOverwrite);
    w.field("deaths_truncate", bl.deathsTruncate);
    w.field("deaths_delete", bl.deathsDelete);
    auto lifetimes = a.blocklife.lifetimes();  // copy: quantile sorts
    if (lifetimes.empty()) {
      w.key("median_lifetime_s").valueNull();
    } else {
      w.field("median_lifetime_s", lifetimes.quantile(0.5));
    }
    w.endObject();
  }

  {
    const UserStats& us = a.users.result();
    w.key("users").beginObject();
    w.field("count", static_cast<std::uint64_t>(us.userCount()));
    w.field("top_decile_share", us.topUserShare(0.10));
    w.field("imbalance", us.imbalance());
    w.endObject();
  }

  {
    const FileLifeCensus& census = a.names.census();
    w.key("file_churn").beginObject();
    w.field("created", census.totalCreated());
    w.field("deleted", census.totalDeleted());
    w.field("lock_fraction_of_deleted", census.lockFractionOfDeleted());
    w.endObject();
  }

  w.key("hierarchy").beginObject();
  w.field("known_files",
          static_cast<std::uint64_t>(a.pathrec.knownFiles()));
  w.field("parent_coverage", a.pathrec.parentCoverage());
  w.endObject();

  w.endObject();
  return w.str() + "\n";
}

}  // namespace nfstrace
