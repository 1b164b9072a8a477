// tcp_fleet: a LIGLO server plus 16 BestPeer nodes on loopback TCP in one
// process, set up like bestpeerd. Each node holds 1000 × 512 B objects; 4
// nodes hold no matches and the other 12 hold 10 each. One closed-loop
// issuer, on a match-less node. The only workload on the reactor, BPF1
// framing and TcpTransport::RunCpu.
//
// One issuer, not several: with 2 or 4 issuers the reactor thread is
// saturated, so query latency scales one for one with the host's speed,
// which drifted by about 25% between runs on a shared 4-vCPU Xeon VM; with
// one, the modelled RunCpu delays are a fixed part of it.
//
//   tcp_fleet --seed 1 --seconds 10 --trace 0

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common.h"
#include "core/node.h"
#include "core/search_agent.h"
#include "liglo/liglo_server.h"
#include "net/dispatcher.h"
#include "net/tcp_transport.h"
#include "probes.h"
#include "sim_driver.h"
#include "workload/corpus.h"

namespace {

using namespace bestpeer;   // NOLINT: benchmark driver.
using namespace hostbench;  // NOLINT

struct Shape {
  size_t nodes;
  size_t empty_nodes;  // Nodes 0.. hold no matches; the issuer is node 0.
  size_t objects;
  size_t matches;
  size_t warmup_queries;
  size_t min_queries;
};
constexpr Shape kFullShape{16, 4, 1000, 10, 8, 200};
constexpr Shape kTinyShape{6, 2, 40, 3, 2, 6};

constexpr NodeId kLigloNode = 0;
constexpr uint32_t kInitialPeerCount = 4;  // bestpeerd's.
constexpr int64_t kTimeoutNs = 10'000'000'000;
constexpr int64_t kLagProbeEveryNs = 10'000'000;

/// The fleet bestpeerd builds, minus telemetry. Stops the reactor before
/// anything the reactor thread touches is destroyed.
struct Fleet {
  metrics::Registry registry;
  std::unique_ptr<net::TcpNet> tcpnet;
  core::SharedInfra infra;
  std::unique_ptr<net::Dispatcher> server_dispatcher;
  std::unique_ptr<liglo::LigloServer> liglo_server;
  std::vector<std::unique_ptr<CapturingTransport>> capturing;
  std::vector<std::unique_ptr<core::BestPeerNode>> nodes;
  std::vector<double> join_ms;

  ~Fleet() {
    if (tcpnet != nullptr) tcpnet->Stop();
  }
};

/// Polls `done` on the reactor thread every millisecond until it holds or
/// the timeout passes.
bool WaitFor(net::TcpNet& tcpnet, const std::function<bool()>& done) {
  const int64_t deadline = NowNs() + kTimeoutNs;
  for (;;) {
    bool ok = false;
    tcpnet.Run([&]() { ok = done(); });
    if (ok) return true;
    if (NowNs() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// bestpeerd's set-up: LIGLO on node 0, populated nodes, then sequential
/// joins. With `captured`, node transports copy agent payloads into it.
Status Build(const Shape& shape, uint64_t seed, Tracer* tracer,
             std::vector<Bytes>* captured, Fleet* f) {
  ScopedSpan setup(tracer, "bench.setup");
  net::TcpOptions tcp_options;
  tcp_options.metrics = &f->registry;
  f->tcpnet = std::make_unique<net::TcpNet>(tcp_options);
  std::vector<net::TcpTransport*> transports;
  {
    ScopedSpan span(tracer, "net.add_node");
    for (size_t i = 0; i <= shape.nodes; ++i) {
      BP_ASSIGN_OR_RETURN(net::TcpTransport * t, f->tcpnet->AddNode());
      transports.push_back(t);
    }
  }
  {
    ScopedSpan span(tracer, "liglo.server_start");
    f->server_dispatcher = std::make_unique<net::Dispatcher>(transports[0]);
    liglo::LigloServerOptions server_options;
    server_options.initial_peer_count = kInitialPeerCount;
    // Which members LIGLO hands out shapes the overlay; it is part of the
    // workload (bestpeerd's default seed), while the seed draws the stores.
    server_options.sample_seed = 1 ^ 0x5EED;
    f->liglo_server = std::make_unique<liglo::LigloServer>(
        transports[0], f->server_dispatcher.get(), &f->infra.ip_directory,
        server_options);
  }

  core::BestPeerConfig config;
  config.max_direct_peers = kInitialPeerCount + 2;
  config.strategy = "none";
  config.default_ttl = static_cast<uint16_t>(shape.nodes);
  config.metrics = &f->registry;

  workload::CorpusGenerator corpus({512, 300, 0.8}, seed);
  for (size_t i = 0; i < shape.nodes; ++i) {
    net::Transport* transport = transports[i + 1];
    if (captured != nullptr) {
      f->capturing.push_back(
          std::make_unique<CapturingTransport>(transport, captured));
      transport = f->capturing.back().get();
    }
    std::unique_ptr<core::BestPeerNode> node;
    {
      ScopedSpan span(tracer, "core.create");
      BP_ASSIGN_OR_RETURN(node, core::BestPeerNode::Create(transport, &f->infra,
                                                           config));
    }
    {
      ScopedSpan span(tracer, "core.init_storage");
      BP_RETURN_IF_ERROR(node->InitStorage(HarnessStoreOptions()));
    }
    const bool empty = i < shape.empty_nodes;
    for (size_t o = 0; o < shape.objects; ++o) {
      Bytes content;
      {
        ScopedSpan span(tracer, "workload.make_object");
        content = corpus.MakeObject(!empty && o < shape.matches);
      }
      ScopedSpan span(tracer, "core.share_object");
      BP_RETURN_IF_ERROR(node->ShareObject(
          (static_cast<uint64_t>(node->node()) << 24) | o, content));
    }
    f->infra.code_cache.Load(node->node(), core::kSearchAgentClass);
    f->nodes.push_back(std::move(node));
  }
  {
    ScopedSpan span(tracer, "net.start");
    f->tcpnet->Start();
  }
  for (auto& node : f->nodes) {
    bool joined = false;
    const int64_t start = NowNs();
    f->tcpnet->Run([&]() {
      node->JoinNetwork(kLigloNode,
                        f->infra.ip_directory.AssignFresh(node->node()),
                        [&joined](auto) { joined = true; });
    });
    if (!WaitFor(*f->tcpnet, [&]() { return joined; })) {
      return Status::Internal("LIGLO join timed out");
    }
    const int64_t end = NowNs();
    f->join_ms.push_back(NsToMs(end - start));
    if (tracer != nullptr) tracer->Add("liglo.join", 0, start, end);
  }
  return Status::OK();
}

struct QueryRecord {
  double latency_ms = 0;
  double first_answer_ms = 0;
  size_t answers = 0;
};

struct LoopResult {
  std::vector<QueryRecord> counted;  // After warm-up.
  size_t issued = 0;
  size_t warmup = 0;
  size_t timeouts = 0;
  size_t issue_errors = 0;
  size_t wrong_answer_counts = 0;  // Over every query, warm-up included.
  double measured_s = 0;
  std::vector<double> lag_us;
};

/// The closed loop: the issuer (node 0) sends its next query as soon as its
/// previous one has every expected answer (or timed out). Issues
/// `exact_queries` when nonzero, else runs args.seconds past the warm-up
/// and at least shape.min_queries.
LoopResult RunQueries(const Shape& shape, const Args& args,
                      size_t exact_queries, Fleet& f, Tracer* tracer) {
  const size_t expected = (shape.nodes - shape.empty_nodes) * shape.matches;
  core::BestPeerNode& issuer = *f.nodes[0];
  LoopResult out;
  std::vector<QueryRecord> done;
  bool busy = false;
  uint64_t query_id = 0;
  int64_t issued_ns = 0;
  bool stop_issuing = false;
  int64_t measure_start = -1;
  int64_t last_done = 0;
  int64_t next_lag_probe = NowNs();
  for (;;) {
    bool finished = false;
    uint64_t finished_query = 0;
    int64_t finished_start = 0;
    {
      ScopedSpan poll(tracer, "net.run");
      f.tcpnet->Run([&]() {
        if (busy) {
          const core::QuerySession* s = issuer.FindSession(query_id);
          const bool complete = s != nullptr && s->total_answers() >= expected;
          if (!complete && NowNs() - issued_ns < kTimeoutNs) return;
          QueryRecord r;
          if (s != nullptr) {
            r.answers = s->total_answers();
            r.latency_ms = ToMillis(s->completion_time());
            if (!s->responses().empty()) {
              r.first_answer_ms =
                  ToMillis(s->responses().front().time - s->start_time());
            }
          }
          if (!complete) ++out.timeouts;
          if (r.answers != expected) ++out.wrong_answer_counts;
          done.push_back(r);
          last_done = NowNs();
          busy = false;
          finished = true;
          finished_query = query_id;
          finished_start = issued_ns;
        }
        if (stop_issuing) return;
        ScopedSpan span(tracer, "core.issue_search");
        auto id = issuer.IssueSearch(workload::CorpusGenerator::kNeedle);
        if (!id.ok()) {
          ++out.issue_errors;
          stop_issuing = true;
          return;
        }
        if (tracer != nullptr) tracer->TagOpen(id.value());
        busy = true;
        query_id = id.value();
        issued_ns = NowNs();
        ++out.issued;
      });
    }
    if (finished && tracer != nullptr) {
      // Issue to last answer, as a root span. It overlaps the polls, so its
      // layer ("query") stays out of the self-time split.
      tracer->Add("query.session", finished_query, finished_start,
                  finished_start +
                      static_cast<int64_t>(done.back().latency_ms * 1e6));
    }
    const int64_t now = NowNs();
    if (measure_start < 0 && done.size() >= shape.warmup_queries) {
      measure_start = now;
    }
    const size_t counted =
        measure_start < 0 ? 0 : done.size() - shape.warmup_queries;
    if (exact_queries > 0) {
      stop_issuing = out.issued >= exact_queries;
    } else if (counted >= shape.min_queries &&
               NsToMs(now - measure_start) >= args.seconds * 1e3) {
      stop_issuing = true;
    }
    if (stop_issuing && !busy) break;
    if (tracer != nullptr && now >= next_lag_probe) {
      // Reactor loop lag: how long a no-op task waits for the thread.
      const int64_t start = NowNs();
      f.tcpnet->Run([]() {});
      const int64_t end = NowNs();
      out.lag_us.push_back(NsToUs(end - start));
      tracer->Add("net.lag_probe", 0, start, end);
      next_lag_probe = start + kLagProbeEveryNs;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  out.warmup = std::min(done.size(), shape.warmup_queries);
  out.counted.assign(done.begin() + static_cast<std::ptrdiff_t>(out.warmup),
                     done.end());
  out.measured_s = measure_start < 0 ? 0 : NsToMs(last_done - measure_start) / 1e3;
  return out;
}

/// Adds the traced run's per-layer metrics. Call after the reactor stopped.
bool ReportLayers(const Shape& shape, Fleet& f, const LoopResult& loop,
                  const metrics::Snapshot& before,
                  const std::vector<Bytes>& captured, const Tracer& tracer,
                  Report* report) {
  AddSpanLayers(tracer, report);
  // Static peers (strategy "none"), wired by the LIGLO join below.
  report->Add("core.reconfigure_us", 0, "us");
  report->Add("core.wire_peers_us", 0, "us");

  bool ok = ProbeScan(*f.nodes[shape.empty_nodes], report) == shape.matches;
  AddPoolStats(f.nodes, report);
  ok = ProbeAgentMessages(captured, f.nodes[0]->config().codec, report) && ok;

  const metrics::Snapshot after = f.registry.TakeSnapshot();
  AddAgentCounters(before, after, report);
  auto delta = [&](const char* name) {
    return after.Value(name) - before.Value(name);
  };

  // No simulator runs here.
  report->Add("sim.events", 0, "count");
  report->Add("sim.run_us", 0, "us");
  report->Add("sim.events_per_s", 0, "1/s");
  const double queries = static_cast<double>(loop.issued);
  report->Add("net.messages_sent", delta("net.tx_msgs"), "count");
  report->Add("net.wire_bytes", delta("net.tx_bytes"), "bytes");
  report->Add("net.reactor_lag_us_p50", Percentile(loop.lag_us, 50), "us");
  report->Add("net.reactor_lag_us_p90", Percentile(loop.lag_us, 90), "us");
  report->Add("net.tx_msgs_per_query", delta("net.tx_msgs") / queries, "count");
  report->Add("net.tx_bytes_per_query", delta("net.tx_bytes") / queries,
              "bytes");
  report->Add("net.tx_dropped", after.Value("net.tx_dropped"), "count");
  report->Add("net.rx_dropped", after.Value("net.rx_dropped"), "count");
  report->Add("net.frame_errors", after.Value("net.frame_errors"), "count");
  report->Add("net.reconnects", after.Value("net.reconnects"), "count");

  double retries = 0, timeouts = 0;
  for (const auto& node : f.nodes) {
    retries += static_cast<double>(node->liglo_client().retries());
    timeouts += static_cast<double>(node->liglo_client().timeouts());
  }
  report->Add("liglo.join_ms_p50", Median(f.join_ms), "ms");
  report->Add("liglo.retries", retries, "count");
  report->Add("liglo.timeouts", timeouts, "count");
  return ok;
}

struct Pass {
  LoopResult loop;
  std::vector<double> setup_s;
  double wall_s = 0;
  double peak_rss_mb = 0;
  bool clean = false;  // No drops, frame errors or failed queries.
  bool probes_ok = true;
};

Result<Pass> RunPass(const Shape& shape, const Args& args, bool repeat_setups,
                     size_t exact_queries, Tracer* tracer, Report* report) {
  Pass pass;
  const int64_t pass_start = NowNs();
  std::vector<Bytes> captured;
  std::unique_ptr<Fleet> fleet;
  do {
    fleet.reset();
    const int64_t start = pass.setup_s.empty() ? pass_start : NowNs();
    fleet = std::make_unique<Fleet>();
    BP_RETURN_IF_ERROR(Build(shape, args.seed, tracer,
                             tracer != nullptr ? &captured : nullptr,
                             fleet.get()));
    pass.setup_s.push_back(NsToMs(NowNs() - start) / 1e3);
  } while (repeat_setups && WantAnotherSetup(pass.setup_s));
  metrics::Snapshot before;
  fleet->tcpnet->Run([&]() { before = fleet->registry.TakeSnapshot(); });
  pass.loop = RunQueries(shape, args, exact_queries, *fleet, tracer);
  pass.wall_s = NsToMs(NowNs() - pass_start) / 1e3;
  fleet->tcpnet->Stop();
  pass.peak_rss_mb = PeakRssMb();
  const metrics::Snapshot after = fleet->registry.TakeSnapshot();
  pass.clean = after.Value("net.tx_dropped") == 0 &&
               after.Value("net.rx_dropped") == 0 &&
               after.Value("net.frame_errors") == 0 &&
               pass.loop.timeouts == 0 && pass.loop.issue_errors == 0 &&
               pass.loop.wrong_answer_counts == 0;
  if (tracer != nullptr) {
    pass.probes_ok = ReportLayers(shape, *fleet, pass.loop, before, captured,
                                  *tracer, report);
  }
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const Shape& shape = args.tiny ? kTinyShape : kFullShape;
  Report report;
  Tracer tracer;
  // A traced run issues a fixed number of queries in both passes, so the
  // overhead compares equal work.
  const size_t exact_queries =
      args.trace ? shape.warmup_queries + shape.min_queries : 0;
  auto untraced =
      RunPass(shape, args, !args.trace, exact_queries, nullptr, nullptr);
  if (!untraced.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 untraced.status().ToString().c_str());
    return 1;
  }
  const Pass& pass = untraced.value();
  const LoopResult& loop = pass.loop;
  const size_t expected = (shape.nodes - shape.empty_nodes) * shape.matches;
  size_t received = 0;
  for (const QueryRecord& q : loop.counted) received += q.answers;
  const double recall =
      loop.counted.empty()
          ? 0
          : static_cast<double>(received) /
                static_cast<double>(expected * loop.counted.size());
  bool correct = pass.clean && recall == 1.0;

  std::printf("workload: %zu queries issued, %zu warm-up discarded, %zu "
              "counted, %zu timed out, %zu set-ups, seed %llu; highest "
              "supported percentile p%g\n",
              loop.issued, loop.warmup, loop.counted.size(), loop.timeouts,
              pass.setup_s.size(), static_cast<unsigned long long>(args.seed),
              HighestSupportedPercentile(loop.counted.size()));
  if (args.trace) {
    auto traced = RunPass(shape, args, false, exact_queries, &tracer, &report);
    if (!traced.ok()) {
      std::fprintf(stderr, "traced run failed: %s\n",
                   traced.status().ToString().c_str());
      return 1;
    }
    correct = correct && traced.value().clean && traced.value().probes_ok;
    report.Add("trace.overhead_pct",
               (traced.value().wall_s - pass.wall_s) / pass.wall_s * 100.0,
               "%");
    report.Add("trace.spans", static_cast<double>(tracer.spans().size()),
               "count");
    if (!ReportTrace(tracer, args, &report)) return 1;
  } else {
    const std::vector<double> latency =
        Column(loop.counted, &QueryRecord::latency_ms);
    report.Add("setup_s", Median(pass.setup_s), "s");
    report.Add("query_ms_p50", Percentile(latency, 50), "ms");
    report.Add("query_ms_p90", Percentile(latency, 90), "ms");
    report.Add("queries_per_s",
               loop.measured_s == 0
                   ? 0
                   : static_cast<double>(loop.counted.size()) / loop.measured_s,
               "1/s");
    report.Add("first_answer_ms_p50",
               Median(Column(loop.counted, &QueryRecord::first_answer_ms)),
               "ms");
    report.Add("recall", recall, "ratio");
    report.Add("peak_rss_mb", pass.peak_rss_mb, "MiB");
  }
  return report.Finish(correct, loop.issued + loop.issue_errors,
                       loop.timeouts + loop.issue_errors);
}
