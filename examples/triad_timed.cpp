// triad_timed: the real-transport trusted-time daemon.
//
// Runs one cluster member over UDP/epoll (runtime::RealEnv):
//   --role ta      the Time Authority (reference clock root of trust)
//   --role node    a triad::Node + SO_REUSEPORT serve workers answering
//                  sealed timestamp requests from external clients
//   --role client  a probe (timed::BlockingProbe) issuing sealed requests
//                  to the --server serve endpoints, failing over across
//                  them, and checking each node's answers are monotone
//
// The observability flags behave exactly as on triad_sim: --metrics
// writes a Prometheus dump, --trace a JSONL protocol trace, --prof /
// --prof-trace the scope profile — each to a file or '-' (stdout, at
// most one). On SIGTERM/SIGINT the daemon shuts down cleanly and emits
// the final dumps.
//
// Live telemetry: --telemetry ip:port opens a read-only TCP listener
// serving /metrics, /trace, and /prof (scraped by Prometheus or the
// triad_mon fleet aggregator); --detectors runs the online attack
// detectors on the daemon's own trace, so alarms fire while the attack
// is happening, not just in post-hoc analysis.
//
// Quickstart (3-node loopback cluster): see README.md §triad_timed.

#include <climits>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/cli_output.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ta/time_authority.h"
#include "timed/service.h"
#include "util/parse.h"
#include "util/types.h"

namespace {

using triad::Duration;
using triad::NodeId;
using triad::runtime::SockAddr;

/// Upper bound on --workers: each worker is a thread with its own socket.
constexpr int kMaxWorkers = 64;

struct Options {
  std::string role = "node";
  /// --id, --listen, --serve, --workers, --peer, --ta-id, --seed,
  /// --calib-*, --telemetry and --detector* land here directly.
  triad::timed::ServiceConfig service;
  Duration duration = 0;  // 0 = run until SIGTERM/SIGINT
  // client role: --server entries, in preference order
  std::vector<std::pair<NodeId, SockAddr>> servers;
  int requests = 10;
  triad::obs::ObsOutputs outputs;
  bool help = false;
};

std::string usage() {
  return std::string(
      "usage: triad_timed [options]\n"
      "  --role node|ta|client   what to run (default node)\n"
      "  --id N                  this endpoint's wire identity (>= 1)\n"
      "  --listen ip:port        protocol endpoint (node, ta)\n"
      "  --serve ip:port         client-facing endpoint (node)\n"
      "  --workers N             SO_REUSEPORT serve workers, 1..64\n"
      "                          (default 1)\n"
      "  --peer id=ip:port       protocol address book entry (repeat;\n"
      "                          the --ta-id entry is the TA, the rest\n"
      "                          become this node's peers)\n"
      "  --ta-id N               the TA's wire identity (default 9)\n"
      "  --seed N                protocol rng seed (default 1)\n"
      "  --duration S            run S seconds, then exit (default: until\n"
      "                          SIGTERM)\n"
      "  --calib-pairs N         calibration round-trip pairs (default 8)\n"
      "  --calib-wait-high S     calibration high wait, at most 2 (the\n"
      "                          TA drops longer waits; default 1.0)\n"
      "  --server id=ip:port     a node's serve endpoint to probe (client;\n"
      "                          repeat to fail over across nodes)\n"
      "  --requests N            probes to issue (client, default 10)\n"
      "  --telemetry ip:port     read-only TCP telemetry listener serving\n"
      "                          /metrics, /trace, /prof (triad_mon scrapes\n"
      "                          it)\n"
      "  --detectors             run the online attack detectors on this\n"
      "                          daemon's live trace\n"
      "  --detector-nominal-mhz F  slope detector prior for the true TSC\n"
      "                          frequency (default: cluster-relative only)\n"
      "  --help\n"
      "Dumps written on exit:\n") +
      triad::obs::output_flags_usage(/*per_run=*/true);
}

// A count flag's value: a decimal integer in 1..INT_MAX.
bool parse_count(std::string_view text, int* out) {
  std::uint64_t n = 0;
  if (!triad::parse_u64(text, &n) || n == 0 || n > INT_MAX) return false;
  *out = static_cast<int>(n);
  return true;
}

bool parse_workers(std::string_view text, int* out) {
  return parse_count(text, out) && *out <= kMaxWorkers;
}

// Seconds up to 1e9: a Duration holds about 9.2e9 s of nanoseconds.
bool parse_seconds(std::string_view text, Duration* out) {
  double s = 0;
  if (!triad::parse_non_negative(text, &s) || s > 1e9) return false;
  *out = triad::from_seconds(s);
  return true;
}

// The TA drops a request asking for more than kMaxTaWait, so a node
// probing longer would re-send forever and never calibrate.
bool parse_calib_wait(std::string_view text, Duration* out) {
  return parse_seconds(text, out) && *out <= triad::ta::kMaxTaWait;
}

bool parse_mhz(std::string_view text, double* hz) {
  if (!triad::parse_non_negative(text, hz)) return false;
  *hz *= 1e6;
  return true;
}

// Works for a SockAddr and an optional one.
template <typename Addr>
bool parse_addr(std::string_view text, Addr* out) {
  const auto addr = triad::runtime::parse_sockaddr(text);
  if (addr) *out = *addr;
  return addr.has_value();
}

bool parse_peer(std::string_view text,
                std::vector<std::pair<NodeId, SockAddr>>* peers) {
  const auto eq = text.find('=');
  NodeId id = 0;
  SockAddr addr;
  if (eq == std::string_view::npos ||
      !triad::parse_node_id(text.substr(0, eq), &id) ||
      !parse_addr(text.substr(eq + 1), &addr)) {
    return false;
  }
  peers->emplace_back(id, addr);
  return true;
}

bool parse_role(std::string_view text, std::string* out) {
  *out = text;
  return text == "node" || text == "ta" || text == "client";
}

std::optional<Options> parse_args(int argc, char** argv, std::ostream& err) {
  Options options;
  triad::timed::ServiceConfig& service = options.service;
  service.node.id = 1;
  service.ta_id = 9;
  const auto fail = [&err](const std::string& message) {
    err << "triad_timed: " << message << "\n";
    return std::nullopt;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Parses the flag's value into *out; false after "bad --FLAG" on err.
    const auto take = [&](auto parse, auto* out) {
      const char* text = i + 1 < argc ? argv[++i] : "";
      if (parse(text, out)) return true;
      err << "triad_timed: bad " << arg << " '" << text << "'\n";
      return false;
    };
    switch (triad::obs::take_output_flag(argc, argv, &i, /*per_run=*/true,
                                         &options.outputs)) {
      case triad::obs::FlagParse::kTaken:
        continue;
      case triad::obs::FlagParse::kMissingValue:
        return fail(arg + " needs a path");
      case triad::obs::FlagParse::kNotMine:
        break;
    }
    bool ok = true;
    if (arg == "--help" || arg == "-h") {
      options.help = true;
      return options;
    } else if (arg == "--role") {
      ok = take(parse_role, &options.role);
    } else if (arg == "--id") {
      ok = take(triad::parse_node_id, &service.node.id);
    } else if (arg == "--listen") {
      ok = take(parse_addr<SockAddr>, &service.listen);
    } else if (arg == "--serve") {
      ok = take(parse_addr<SockAddr>, &service.serve);
    } else if (arg == "--telemetry") {
      ok = take(parse_addr<std::optional<SockAddr>>, &service.telemetry);
    } else if (arg == "--server") {
      ok = take(parse_peer, &options.servers);
    } else if (arg == "--workers") {
      ok = take(parse_workers, &service.workers);
    } else if (arg == "--peer") {
      ok = take(parse_peer, &service.peers);
    } else if (arg == "--ta-id") {
      ok = take(triad::parse_node_id, &service.ta_id);
    } else if (arg == "--seed") {
      ok = take(triad::parse_u64, &service.seed);
    } else if (arg == "--duration") {
      ok = take(parse_seconds, &options.duration);
    } else if (arg == "--calib-pairs") {
      ok = take(parse_count, &service.node.calib_pairs);
    } else if (arg == "--calib-wait-high") {
      ok = take(parse_calib_wait, &service.node.calib_wait_high);
    } else if (arg == "--requests") {
      ok = take(parse_count, &options.requests);
    } else if (arg == "--detectors") {
      service.enable_detectors = true;
    } else if (arg == "--detector-nominal-mhz") {
      ok = take(parse_mhz, &service.detectors.nominal_frequency_hz);
    } else {
      return fail("unknown flag '" + arg + "' (try --help)");
    }
    if (!ok) return std::nullopt;
  }
  if (std::string message = triad::obs::check_one_stdout(
          triad::obs::named_outputs(options.outputs));
      !message.empty()) {
    return fail(message);
  }
  return options;
}

// The signal handler only touches this pointer and calls the
// async-signal-safe stop() (atomic stores + one eventfd write).
triad::timed::TimedService* g_service = nullptr;

void on_signal(int) {
  if (g_service != nullptr) g_service->stop();
}

int run_client(const Options& options, std::ostream& out,
               std::ostream& err) {
  if (options.servers.empty()) {
    err << "triad_timed: --role client needs --server id=ip:port\n";
    return 2;
  }
  const triad::crypto::ClusterKeyring keyring(triad::Bytes(32, 0x42));
  triad::timed::BlockingProbe probe(options.service.node.id, options.servers,
                                    keyring);
  if (!probe.valid()) {
    err << "triad_timed: cannot open client socket\n";
    return 1;
  }
  // Monotone per serving node: different nodes' clocks are not ordered.
  std::map<NodeId, triad::SimTime> last;
  int served = 0;
  for (int i = 0; i < options.requests; ++i) {
    const auto ts = probe.request();
    if (!ts.has_value()) {
      out << "request " << (i + 1) << ": unavailable\n";
      continue;
    }
    triad::SimTime& previous = last[ts->served_by];
    const bool monotone = ts->timestamp > previous;
    previous = ts->timestamp;
    ++served;
    out << "request " << (i + 1) << ": t=" << ts->timestamp
        << "ns bound=" << ts->error_bound << "ns from=" << ts->served_by
        << (monotone ? "" : " NON-MONOTONE") << "\n";
    if (!monotone) return 1;
  }
  out << "served " << served << "/" << options.requests
      << " bad_frames=" << probe.bad_frames()
      << " timeouts=" << probe.timeouts()
      << " tainted=" << probe.tainted_answers() << "\n";
  return served > 0 ? 0 : 1;
}

int run_service(const Options& options, std::ostream& out,
                std::ostream& err) {
  const triad::obs::OutputRouter router(
      out, err, triad::obs::named_outputs(options.outputs));
  std::ostream& summary = router.summary();
  triad::obs::ProfileSession profile(options.outputs);

  triad::obs::Registry registry;

  triad::timed::ServiceConfig config = options.service;
  config.role = options.role == "ta" ? triad::timed::Role::kTa
                                     : triad::timed::Role::kNode;
  config.node.ta_address = config.ta_id;
  config.detectors.ta_address = config.ta_id;
  for (const auto& [id, addr] : config.peers) {
    if (id != config.ta_id && id != config.node.id) {
      config.node.peers.push_back(id);
    }
  }
  // The service owns the trace ring: /trace, the exit dump, and the
  // detector bank all read the same recording.
  if (options.outputs.trace.has_value() || config.telemetry.has_value() ||
      config.enable_detectors) {
    config.trace_capacity = std::size_t{1} << 18;
  }

  triad::timed::TimedService service(std::move(config), &registry);
  if (!service.valid()) {
    err << "triad_timed: " << service.error() << "\n";
    return 1;
  }

  g_service = &service;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  const NodeId id = options.service.node.id;
  summary << "triad_timed: role=" << options.role << " id=" << id
          << " protocol=" << service.protocol_addr().to_string();
  if (options.role == "node") {
    summary << " serve=" << service.serve_addr().to_string()
            << " workers=" << options.service.workers;
  }
  if (options.service.telemetry.has_value()) {
    summary << " telemetry=" << service.telemetry_addr().to_string();
  }
  summary << "\n";
  summary.flush();

  service.start();
  if (options.duration > 0) {
    service.run_for(options.duration);
    service.shutdown_workers();
  } else {
    service.run();  // until SIGTERM/SIGINT
  }
  g_service = nullptr;

  profile.finish(&registry);

  // --- final summary + dumps (the shape of triad_sim's single-run
  // summary, run_one in src/campaign/cli.cpp) ------------------------
  if (triad::TriadNode* node = service.node(); node != nullptr) {
    summary << "node " << id
            << ": state=" << triad::to_string(node->state())
            << " F_calib=" << node->calibrated_frequency_hz() / 1e6
            << "MHz availability=" << node->availability() * 100.0
            << "% aex=" << node->stats().aex_count
            << " ta_refs=" << node->stats().ta_time_references << "\n";
    summary << "served " << service.total_responses()
            << " sealed responses, bad_frames="
            << service.total_bad_frames() << "\n";
  }
  if (triad::ta::TimeAuthority* ta = service.authority(); ta != nullptr) {
    summary << "ta " << id << ": served "
            << ta->stats().requests_served
            << " rejected_frames=" << ta->stats().rejected_frames << "\n";
  }
  if (const triad::obs::RingTraceSink* ring = service.trace_ring();
      ring != nullptr) {
    summary << "trace events: " << ring->total() << " (dropped "
            << ring->dropped() << ", high watermark "
            << ring->high_watermark() << ")\n";
  }
  if (const triad::obs::DetectorBank* bank = service.detectors();
      bank != nullptr) {
    summary << "detector alarms: " << bank->alarms().size();
    if (!bank->alarms().empty()) {
      summary << " (first at "
              << triad::to_seconds(bank->first_alarm_at()) << " s)";
    }
    summary << "\n";
  }
  if (const triad::timed::TelemetryServer* telemetry = service.telemetry();
      telemetry != nullptr) {
    summary << "telemetry scrapes: " << telemetry->scrapes() << "\n";
  }

  return router.write(
      {{options.outputs.metrics, "metrics",
        [&](std::ostream& os) { registry.write_prometheus(os); }},
       {options.outputs.trace, "trace",
        [&](std::ostream& os) {
          triad::obs::write_jsonl(*service.trace_ring(), os);
        }},
       profile.table(), profile.chrome_trace()});
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse_args(argc, argv, std::cerr);
  if (!options.has_value()) return 2;
  if (options->help) {
    std::cout << usage();
    return 0;
  }
  if (options->role == "client") {
    return run_client(*options, std::cout, std::cerr);
  }
  return run_service(*options, std::cout, std::cerr);
}
