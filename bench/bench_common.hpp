// Shared scaffolding for the Fig. 8 / Fig. 9 network-wide experiments
// (paper §IV-B): the three evaluation topologies and the scenario runner.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "util/stats.hpp"
#include "util/table.hpp"

#include "core/experiment.hpp"
#include "core/placement.hpp"
#include "topo/arpanet.hpp"
#include "topo/transit_stub.hpp"
#include "topo/waxman.hpp"
#include "util/rng.hpp"

namespace scmp::bench {

inline std::vector<topo::Topology> evaluation_topologies(std::uint64_t seed) {
  std::vector<topo::Topology> topos;
  {
    Rng rng(seed);
    topos.push_back(topo::arpanet(rng));
  }
  {
    Rng rng(seed + 1);
    topos.push_back(topo::waxman_with_degree(50, 3.0, rng));
  }
  {
    Rng rng(seed + 2);
    topos.push_back(topo::waxman_with_degree(50, 5.0, rng));
  }
  return topos;
}

/// membench's internetwork: 4 transit domains x 6 routers, 5 stub domains
/// of 5 routers per transit node (624 routers), topology seed 7.
inline topo::Topology membench_internetwork() {
  Rng rng(7);
  topo::TransitStubConfig cfg;
  cfg.transit_domains = 4;
  cfg.transit_nodes = 6;
  cfg.stub_domains_per_node = 5;
  cfg.stub_nodes = 5;
  return topo::transit_stub(cfg, rng);
}

constexpr core::ProtocolKind kProtocols[] = {
    core::ProtocolKind::kScmp, core::ProtocolKind::kDvmrp,
    core::ProtocolKind::kMospf, core::ProtocolKind::kCbt};

/// Builds the §IV-B scenario: `group_size` random members, a source drawn
/// from the group (so shared-tree protocols need no per-packet
/// encapsulation — the data-overhead comparison then reflects pure tree
/// cost, which is what Fig. 8 correlates it with), one packet per second
/// from t=2 to t=30. Set `member_source=false` for an off-tree sender.
inline core::ScenarioConfig scenario_for(const graph::Graph& g,
                                         int group_size, std::uint64_t seed,
                                         bool member_source = true) {
  core::ScenarioConfig cfg;
  // The m-router (and CBT core) is placed by the paper's rule 1: the node
  // with the least average delay to all other nodes (§IV-A).
  {
    const graph::AllPairsPaths paths(g);
    cfg.mrouter =
        core::place_mrouter(g, paths, core::PlacementRule::kMinAverageDelay);
  }
  Rng rng(seed * 7919 + static_cast<std::uint64_t>(group_size));
  for (int v : rng.sample_without_replacement(g.num_nodes() - 1, group_size))
    cfg.members.push_back(v + 1);
  cfg.source = cfg.members.front();
  if (!member_source) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto v =
          static_cast<graph::NodeId>(rng.uniform_int(1, g.num_nodes() - 1));
      if (std::find(cfg.members.begin(), cfg.members.end(), v) ==
          cfg.members.end()) {
        cfg.source = v;
        break;
      }
    }
  }
  return cfg;
}

/// Prints each result table under a title and, when the binary was invoked
/// with `--csv <dir>`, mirrors it to <dir>/<stem>.csv for plotting.
class TableSink {
 public:
  TableSink(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--csv") csv_dir_ = argv[i + 1];
    }
  }

  void emit(const std::string& title, const std::string& stem,
            const Table& table) {
    std::cout << "== " << title << " ==\n";
    table.print(std::cout);
    std::cout << "\n";
    if (csv_dir_.empty()) return;
    const std::string path = csv_dir_ + "/" + stem + ".csv";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "warning: cannot write " << path << "\n";
      return;
    }
    table.write_csv(out);
  }

  bool csv_enabled() const { return !csv_dir_.empty(); }

 private:
  std::string csv_dir_;
};

/// Machine-readable result export shared by every bench binary: each series
/// point's distribution summary is collected and, on destruction, written to
/// `<dir>/BENCH_<name>.json` (schema "scmp-bench-v1"). The directory comes
/// from `--json <dir>` on the command line or the SCMP_BENCH_JSON_DIR
/// environment variable; without either, the collector is inert. A lost
/// export is an error: a directory that does not exist ends the process with
/// a failure status when the collector is built, before the run spends any
/// time, and so does a file that cannot be written. CI's bench-smoke job
/// validates every emitted file with tools/check_bench_json.py.
class BenchJson {
 public:
  BenchJson(std::string name, int argc, char** argv)
      : name_(std::move(name)) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") dir_ = argv[i + 1];
    }
    if (dir_.empty()) {
      if (const char* env = std::getenv("SCMP_BENCH_JSON_DIR")) dir_ = env;
    }
    std::error_code ec;
    if (enabled() && !std::filesystem::is_directory(dir_, ec)) {
      std::cerr << "error: JSON export directory " << dir_
                << " does not exist\n";
      std::exit(EXIT_FAILURE);
    }
  }

  ~BenchJson() { write(); }

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  bool enabled() const { return !dir_.empty(); }

  /// Records one (series, x) point. `series` names the curve (protocol,
  /// topology, metric); `x` is the sweep coordinate (group size, event
  /// count, ...); `stats` holds the repetition distribution.
  void add_point(const std::string& series, double x,
                 const RunningStats& stats) {
    if (!enabled()) return;
    points_.push_back(Point{series, x, summarize(stats)});
  }

  /// Writes the JSON file now (also called by the destructor, once); exits
  /// with a failure status when the file cannot be written.
  void write() {
    if (!enabled() || written_) return;
    written_ = true;
    const std::string path = dir_ + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    out << "{\n  \"schema\": \"scmp-bench-v1\",\n  \"bench\": \""
        << escape(name_) << "\",\n  \"points\": [";
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const Point& p = points_[i];
      out << (i == 0 ? "" : ",") << "\n    {\"series\": \""
          << escape(p.series) << "\", \"x\": " << num(p.x)
          << ", \"count\": " << p.summary.count
          << ", \"mean\": " << num(p.summary.mean)
          << ", \"ci95\": " << num(p.summary.ci95)
          << ", \"p50\": " << num(p.summary.p50)
          << ", \"p95\": " << num(p.summary.p95)
          << ", \"p99\": " << num(p.summary.p99)
          << ", \"min\": " << num(p.summary.min)
          << ", \"max\": " << num(p.summary.max) << "}";
    }
    out << "\n  ]\n}\n";
    out.close();
    if (!out) {
      std::cerr << "error: cannot write " << path << "\n";
      std::exit(EXIT_FAILURE);
    }
  }

 private:
  struct Point {
    std::string series;
    double x = 0.0;
    Summary summary;
  };

  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";  // JSON has no NaN / Inf
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }

  std::string name_;
  std::string dir_;
  std::vector<Point> points_;
  bool written_ = false;
};

}  // namespace scmp::bench
