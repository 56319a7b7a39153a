// triad_mon — fleet telemetry aggregator for triad_timed clusters.
//
//   $ ./triad_mon --node 1=127.0.0.1:9101 --node 2=127.0.0.1:9102
//   $ ./triad_mon --from 1=node1.jsonl --from 2=node2.jsonl --json
//   $ ./triad_mon --node 1=... --node 2=... --out-dir /tmp/fleet
//
// Collects each node's protocol trace — live from its telemetry
// endpoint (`triad_timed --telemetry`, GET /trace) or offline from a
// previously shipped JSONL file — merges the streams into the
// deterministic cluster timeline, and prints the fleet forensic report
// (obs/cluster.h): per-node slope and alarm table, cluster disagreement
// width, and the infection timeline with cross-node cause chains.
//
// With --out-dir it also writes, per node:
//   node<id>.jsonl         the shipped trace, byte-for-byte;
//   node<id>.forensic.txt  the single-node report — byte-identical to
//                          `triad_trace node<id>.jsonl` (same replay);
//   node<id>.metrics.prom  the scraped /metrics page (live nodes only).
//
// The report is a pure function of the collected streams: same streams
// in any order, same bytes out.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/cluster.h"
#include "obs/export.h"
#include "obs/forensic.h"
#include "runtime/real_env.h"
#include "util/parse.h"

namespace {

constexpr const char* kUsage =
    "usage: triad_mon [options] (--node ID=IP:PORT | --from ID=FILE)...\n"
    "\n"
    "  --node ID=IP:PORT    scrape a live triad_timed telemetry endpoint\n"
    "  --from ID=FILE       load a shipped JSONL trace dump instead\n"
    "  --json               emit the fleet report as one JSON object\n"
    "  --min-jump-ms <ms>   timeline floor for significant forward jumps\n"
    "                       (default 5.0)\n"
    "  --out-dir <dir>      also write per-node artifacts: node<ID>.jsonl,\n"
    "                       node<ID>.forensic.txt, node<ID>.metrics.prom\n"
    "  --help               this text\n";

struct Source {
  triad::NodeId id = 0;
  bool live = false;
  triad::runtime::SockAddr addr;  // live
  std::string path;               // offline
};

// The body of a 200 answer to GET `path` from a telemetry endpoint, or
// nullopt (dial failure, non-200, truncated response; reason in *error).
std::optional<std::string> scrape(triad::runtime::SockAddr addr,
                                  std::string_view path, std::string* error) {
  auto response =
      triad::runtime::http_get(addr, path, /*timeout_ms=*/2000, error);
  if (!response.has_value()) return std::nullopt;
  if (response->status != "HTTP/1.0 200 OK") {
    *error = "bad status: " + response->status.substr(0, 64);
    return std::nullopt;
  }
  return std::move(response->body);
}

bool write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  triad::obs::ClusterReportOptions options;
  std::vector<Source> sources;
  std::string out_dir;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      std::cout << kUsage;
      return 0;
    }
    if (std::strcmp(arg, "--json") == 0) {
      options.json = true;
    } else if (std::strcmp(arg, "--min-jump-ms") == 0 && i + 1 < argc) {
      if (!triad::parse_non_negative(argv[++i],
                                     &options.forensic.min_jump_ms)) {
        std::cerr << "triad_mon: bad --min-jump-ms " << argv[i] << "\n\n"
                  << kUsage;
        return 2;
      }
    } else if (std::strcmp(arg, "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if ((std::strcmp(arg, "--node") == 0 ||
                std::strcmp(arg, "--from") == 0) &&
               i + 1 < argc) {
      const bool live = std::strcmp(arg, "--node") == 0;
      const std::string value = argv[++i];
      const auto eq = value.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "triad_mon: expected ID=" << (live ? "IP:PORT" : "FILE")
                  << ", got " << value << "\n\n"
                  << kUsage;
        return 2;
      }
      Source source;
      if (!triad::parse_node_id(std::string_view(value).substr(0, eq),
                                &source.id)) {
        std::cerr << "triad_mon: node ID must be a decimal number >= 1, got "
                  << value << "\n\n"
                  << kUsage;
        return 2;
      }
      source.live = live;
      if (live) {
        const auto addr =
            triad::runtime::parse_sockaddr(value.substr(eq + 1));
        if (!addr.has_value()) {
          std::cerr << "triad_mon: bad address in " << value << "\n\n"
                    << kUsage;
          return 2;
        }
        source.addr = *addr;
      } else {
        source.path = value.substr(eq + 1);
      }
      sources.push_back(source);
    } else {
      std::cerr << "triad_mon: unknown option " << arg << "\n\n" << kUsage;
      return 2;
    }
  }
  if (sources.empty()) {
    std::cerr << "triad_mon: no nodes\n\n" << kUsage;
    return 2;
  }

  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::cerr << "triad_mon: cannot create " << out_dir << ": "
                << ec.message() << "\n";
      return 1;
    }
  }

  std::vector<triad::obs::NodeStream> streams;
  for (const Source& source : sources) {
    std::string text;
    if (source.live) {
      std::string error;
      const auto body = scrape(source.addr, "/trace", &error);
      if (!body.has_value()) {
        std::cerr << "triad_mon: node " << source.id << ": /trace scrape"
                  << " failed: " << error << "\n";
        return 1;
      }
      text = *body;
    } else {
      std::ifstream in(source.path, std::ios::binary);
      if (!in) {
        std::cerr << "triad_mon: cannot open " << source.path << "\n";
        return 1;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
    }

    std::size_t rejected = 0;
    triad::obs::NodeStream stream;
    stream.node = source.id;
    stream.events = triad::obs::parse_jsonl(text, &rejected);
    if (rejected > 0) {
      std::cerr << "triad_mon: node " << source.id << ": warning: "
                << rejected << " unparseable lines skipped\n";
    }

    if (!out_dir.empty()) {
      const std::filesystem::path dir(out_dir);
      const std::string stem = "node" + std::to_string(source.id);
      // The shipped bytes, untouched: `triad_trace <file>` replays the
      // exact stream the forensic file below was rendered from.
      if (!write_file(dir / (stem + ".jsonl"), text) ||
          !write_file(dir / (stem + ".forensic.txt"),
                      triad::obs::forensic_report(stream.events,
                                                  options.forensic))) {
        std::cerr << "triad_mon: cannot write " << out_dir << "/" << stem
                  << ".*\n";
        return 1;
      }
      if (source.live) {
        std::string error;
        const auto metrics = scrape(source.addr, "/metrics", &error);
        if (metrics.has_value()) {
          write_file(dir / (stem + ".metrics.prom"), *metrics);
        } else {
          std::cerr << "triad_mon: node " << source.id
                    << ": /metrics scrape failed: " << error << "\n";
        }
      }
    }
    streams.push_back(std::move(stream));
  }

  std::cout << triad::obs::cluster_report(std::move(streams), options);
  return 0;
}
