// bench_diff — compare fresh bench results against the committed baseline.
//
// Both inputs are files of `{"bench":...,"config":...,"msg_cost":...}` rows
// (bench_util's result_line format; non-JSON lines are skipped, so raw bench
// stdout works too). Every row must carry a (bench, config) key no other
// row of its file repeats: a row the diff cannot match would go unchecked,
// so a keyless or repeated row is an error (exit 2) that names the row.
// Rows are matched on (bench, config) and gated on every
// deterministic model axis the row carries: msg_cost, work, bytes,
// probes_per_op (the query planner's match-probe count) and worst_ratio
// (the competitive benches' measured ratio against the optimum). A
// fresh row whose value on any gated axis exceeds the baseline's by more
// than the tolerance (default 10%) is a regression and fails the run with
// exit 1; axes the baseline row lacks (or records as 0 — wall-clock-only
// rows) are skipped, so old baselines keep gating exactly what they always
// did. Rows present on only one side are listed as warnings — new benches
// aren't regressions, and removed benches should be dropped from the
// baseline deliberately — so CI catches cost drift the moment a PR
// introduces it.
//
// Two gate directions: most axes are costs (more = regression), but
// `goodput` is useful work (less = regression), so it gates on the
// *downward* ratio. `shed_rate` and `p99_model` are deterministic
// sim-model quantities from bench_overload and gate upward like costs, and
// so does `worst_ratio`: a higher competitive ratio is a worse policy.
// The chaos detail row's counts (`retransmits`, `retries`,
// `duplicates_refused`, `chaos_msg_cost`, `chaos_work`) gate both ways:
// the seeded fault schedule makes them exact, so a move in either
// direction means the schedule or the recovery path changed, and the row
// must be re-pinned on purpose.
//
// --repeat mode: compare two runs of the *same* benches and fail on ANY
// difference in any deterministic axis — run-to-run drift means a bench is
// nondeterministic and its baseline row is untrustworthy (the PR 7
// chaos_overhead re-pin was exactly this, re-pinned blind). CI runs the
// gated benches twice and feeds both outputs through this mode.
//
// --wall-report=PATH: additionally write every fresh row's wall-clock axes
// (ns_per_op, ops_per_sec, p50_ns, p99_ns) as JSONL to PATH, each with the
// baseline value and percentage delta when the baseline row carries the
// axis. This is the *soft* wall-clock budget: the report never gates (wall
// time moves with the runner, the load and the scheduler, not with the
// algorithms) — CI uploads it as an artifact so a wall-clock trajectory
// accumulates across runs and a real hot-path regression is visible the
// day it lands, without a flaky gate.
//
// Usage: bench_diff BASELINE FRESH [--tolerance=0.10] [--wall-report=PATH]
//        bench_diff --repeat RUN1 RUN2
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>

#include "obs/export.hpp"

namespace {

using RowKey = std::pair<std::string, std::string>;  // (bench, config)

std::map<RowKey, paso::obs::JsonRow> load_rows(const char* path) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path);
    std::exit(2);
  }
  std::map<RowKey, paso::obs::JsonRow> rows;
  std::size_t index = 0;
  for (paso::obs::JsonRow& row : paso::obs::read_json_rows(is)) {
    ++index;
    if (!row.has("bench") || !row.has("config")) {
      std::fprintf(stderr,
                   "bench_diff: %s: row %zu (bench \"%s\") has no "
                   "(bench, config) key\n",
                   path, index, row.str("bench").c_str());
      std::exit(2);
    }
    RowKey key{row.str("bench"), row.str("config")};
    if (!rows.emplace(key, std::move(row)).second) {
      std::fprintf(stderr, "bench_diff: %s: row %zu repeats key %s / %s\n",
                   path, index, key.first.c_str(), key.second.c_str());
      std::exit(2);
    }
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  double tolerance = 0.10;
  bool repeat_mode = false;
  const char* wall_report = nullptr;
  const char* paths[2] = {nullptr, nullptr};
  int path_count = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tolerance=", 12) == 0) {
      tolerance = std::atof(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--wall-report=", 14) == 0) {
      wall_report = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--repeat", 8) == 0) {
      repeat_mode = true;
    } else if (path_count < 2) {
      paths[path_count++] = argv[i];
    }
  }
  if (path_count != 2) {
    std::fprintf(stderr,
                 "usage: bench_diff BASELINE FRESH [--tolerance=0.10] "
                 "[--wall-report=PATH]\n"
                 "       bench_diff --repeat RUN1 RUN2\n");
    return 2;
  }

  const auto baseline = load_rows(paths[0]);
  const auto fresh = load_rows(paths[1]);
  if (baseline.empty() || fresh.empty()) {
    std::fprintf(stderr, "bench_diff: no result rows in %s\n",
                 baseline.empty() ? paths[0] : paths[1]);
    return 2;
  }

  // Gated axes, all deterministic model quantities (wall clock is
  // machine-dependent and never gated). shed_rate and p99_model come from
  // bench_overload: virtual-time quantities, so exactly reproducible.
  // worst_ratio comes from the seeded competitive sweeps.
  static const char* const kAxes[] = {"msg_cost",      "work",
                                      "bytes",         "probes_per_op",
                                      "shed_rate",     "p99_model",
                                      "worst_ratio"};
  // Axes where *less* is the regression (useful work per time unit).
  static const char* const kMinAxes[] = {"goodput"};
  // Axes where any move past the tolerance is the regression: the chaos
  // detail row's deterministic counts.
  static const char* const kExactAxes[] = {"retransmits", "retries",
                                           "duplicates_refused",
                                           "chaos_msg_cost", "chaos_work"};
  // Wall-clock axes: reported for visibility, NEVER gated — they move with
  // the machine, the load and the scheduler, not with the algorithms.
  static const char* const kWallAxes[] = {"ns_per_op", "ops_per_sec", "p50_ns",
                                          "p99_ns"};

  if (repeat_mode) {
    // Self-consistency: the two inputs are two runs of the same benches.
    // Any deterministic-axis difference — values, or a row/axis emitted on
    // one run only — is nondeterminism, and a nondeterministic row must
    // never be pinned in a baseline.
    int drift = 0;
    for (const auto& [key, a] : baseline) {
      const auto it = fresh.find(key);
      if (it == fresh.end()) {
        std::printf("FAIL %s / %s: emitted on run 1 only\n", key.first.c_str(),
                    key.second.c_str());
        ++drift;
        continue;
      }
      auto check_axis = [&](const char* axis) {
        const bool in_a = a.has(axis);
        const bool in_b = it->second.has(axis);
        if (in_a != in_b) {
          std::printf("FAIL %s / %s: %s present on run %d only\n",
                      key.first.c_str(), key.second.c_str(), axis,
                      in_a ? 1 : 2);
          ++drift;
          return;
        }
        if (!in_a) return;
        const double va = a.num(axis);
        const double vb = it->second.num(axis);
        if (va != vb) {
          std::printf("FAIL %s / %s: %s drifted run-to-run: %.17g != %.17g\n",
                      key.first.c_str(), key.second.c_str(), axis, va, vb);
          ++drift;
        }
      };
      for (const char* axis : kAxes) check_axis(axis);
      for (const char* axis : kMinAxes) check_axis(axis);
      for (const char* axis : kExactAxes) check_axis(axis);
    }
    for (const auto& [key, row] : fresh) {
      if (!baseline.contains(key)) {
        std::printf("FAIL %s / %s: emitted on run 2 only\n", key.first.c_str(),
                    key.second.c_str());
        ++drift;
      }
    }
    std::printf("bench_diff --repeat: %zu rows, %d drifting\n",
                baseline.size(), drift);
    return drift > 0 ? 1 : 0;
  }

  int regressions = 0;
  int compared = 0;
  int improved = 0;
  for (const auto& [key, base_row] : baseline) {
    const auto it = fresh.find(key);
    if (it == fresh.end()) {
      std::printf("warn: missing from fresh run: %s / %s\n", key.first.c_str(),
                  key.second.c_str());
      continue;
    }
    bool row_counted = false;
    for (const char* axis : kAxes) {
      if (!base_row.has(axis)) continue;
      const double base = base_row.num(axis);
      const double now = it->second.num(axis);
      // Axes the baseline meters as 0 have no model cost to regress.
      if (base <= 0) continue;
      if (!row_counted) {
        ++compared;
        row_counted = true;
      }
      const double ratio = now / base;
      if (ratio > 1.0 + tolerance) {
        std::printf("FAIL %s / %s: %s %.6g -> %.6g (+%.1f%% > %.0f%%)\n",
                    key.first.c_str(), key.second.c_str(), axis, base, now,
                    (ratio - 1.0) * 100, tolerance * 100);
        ++regressions;
      } else if (ratio < 1.0 - tolerance) {
        std::printf("note: improved %s / %s: %s %.6g -> %.6g (%.1f%%)\n",
                    key.first.c_str(), key.second.c_str(), axis, base, now,
                    (ratio - 1.0) * 100);
        ++improved;
      }
    }
    for (const char* axis : kMinAxes) {
      if (!base_row.has(axis)) continue;
      const double base = base_row.num(axis);
      const double now = it->second.num(axis);
      if (base <= 0) continue;
      if (!row_counted) {
        ++compared;
        row_counted = true;
      }
      const double ratio = now / base;
      if (ratio < 1.0 - tolerance) {
        std::printf("FAIL %s / %s: %s %.6g -> %.6g (%.1f%% < -%.0f%%)\n",
                    key.first.c_str(), key.second.c_str(), axis, base, now,
                    (ratio - 1.0) * 100, tolerance * 100);
        ++regressions;
      } else if (ratio > 1.0 + tolerance) {
        std::printf("note: improved %s / %s: %s %.6g -> %.6g (+%.1f%%)\n",
                    key.first.c_str(), key.second.c_str(), axis, base, now,
                    (ratio - 1.0) * 100);
        ++improved;
      }
    }
    for (const char* axis : kExactAxes) {
      if (!base_row.has(axis)) continue;
      if (!row_counted) {
        ++compared;
        row_counted = true;
      }
      const double base = base_row.num(axis);
      const double now = it->second.has(axis) ? it->second.num(axis) : -1;
      const double limit = tolerance * base;
      if (now < base - limit || now > base + limit) {
        std::printf("FAIL %s / %s: %s %.6g -> %.6g (moved past %.0f%%)\n",
                    key.first.c_str(), key.second.c_str(), axis, base, now,
                    tolerance * 100);
        ++regressions;
      }
    }
    for (const char* axis : kWallAxes) {
      if (!base_row.has(axis)) continue;
      const double base = base_row.num(axis);
      const double now = it->second.num(axis);
      if (base <= 0 || now <= 0) continue;
      const double delta = (now / base - 1.0) * 100;
      // Informational only: wall-clock drift is worth a glance, never a gate.
      if (delta > 25.0 || delta < -25.0) {
        std::printf("info: wall-clock %s / %s: %s %.6g -> %.6g (%+.1f%%, "
                    "not gated)\n",
                    key.first.c_str(), key.second.c_str(), axis, base, now,
                    delta);
      }
    }
  }
  for (const auto& [key, row] : fresh) {
    if (!baseline.contains(key)) {
      std::printf("warn: new row (not in baseline): %s / %s\n",
                  key.first.c_str(), key.second.c_str());
    }
  }

  if (wall_report != nullptr) {
    // Soft wall-clock budget: one JSONL row per (bench, config, wall axis)
    // the fresh run metered, with the baseline value and percent delta when
    // the baseline carries the axis. Never gated — CI stores this artifact
    // so wall-clock history accumulates without a machine-dependent gate.
    std::ofstream os(wall_report);
    if (!os) {
      std::fprintf(stderr, "bench_diff: cannot write %s\n", wall_report);
      return 2;
    }
    int wall_rows = 0;
    for (const auto& [key, row] : fresh) {
      const auto base_it = baseline.find(key);
      for (const char* axis : kWallAxes) {
        if (!row.has(axis)) continue;
        const double now = row.num(axis);
        if (now <= 0) continue;
        char value[64];
        std::snprintf(value, sizeof value, "%.6g", now);
        os << "{\"bench\":\"" << key.first << "\",\"config\":\"" << key.second
           << "\",\"axis\":\"" << axis << "\",\"value\":" << value;
        if (base_it != baseline.end() && base_it->second.has(axis)) {
          const double base = base_it->second.num(axis);
          if (base > 0) {
            char basebuf[64];
            char delta[64];
            std::snprintf(basebuf, sizeof basebuf, "%.6g", base);
            std::snprintf(delta, sizeof delta, "%.2f",
                          (now / base - 1.0) * 100);
            os << ",\"baseline\":" << basebuf << ",\"delta_pct\":" << delta;
          }
        }
        os << "}\n";
        ++wall_rows;
      }
    }
    std::printf("bench_diff: wall report (%d axis rows, not gated) -> %s\n",
                wall_rows, wall_report);
  }

  std::printf("bench_diff: %d rows compared, %d regressions, %d improved "
              "(tolerance %.0f%%)\n",
              compared, regressions, improved, tolerance * 100);
  return regressions > 0 ? 1 : 0;
}
