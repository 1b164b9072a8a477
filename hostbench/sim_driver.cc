#include "sim_driver.h"

#include <memory>
#include <vector>

#include "core/node.h"
#include "core/search_agent.h"
#include "net/sim_transport.h"
#include "probes.h"
#include "sim/simulator.h"

namespace hostbench {

bestpeer::storm::StormOptions HarnessStoreOptions() {
  bestpeer::storm::StormOptions s;
  s.buffer_frames = 128;
  s.replacement = "lru";
  s.build_index = false;
  s.enable_query_cache = false;
  return s;
}

namespace {

using namespace bestpeer;  // NOLINT: benchmark driver.
using workload::ExperimentOptions;

/// The network workload::RunBestPeer builds, member for member and in the
/// same order, so destruction order matches too.
struct SimWorld {
  metrics::Registry registry;
  sim::Simulator simulator;
  std::unique_ptr<sim::SimNetwork> network;
  std::unique_ptr<net::SimTransportFleet> fleet;
  core::SharedInfra infra;
  std::vector<NodeId> ids;
  std::vector<std::unique_ptr<core::BestPeerNode>> nodes;
};

/// RunBestPeer's set-up sequence. Options that the gated figures leave
/// off (cache, gossip, summaries, index search) stay at their defaults.
Status Build(const ExperimentOptions& o, Tracer* tracer, SimWorld* w) {
  ScopedSpan setup(tracer, "bench.setup");
  o.fault.EnableOn(&w->simulator, o.seed, &w->registry);
  sim::NetworkOptions net_options = o.net;
  net_options.metrics = &w->registry;
  w->network = std::make_unique<sim::SimNetwork>(&w->simulator, net_options);
  w->fleet = std::make_unique<net::SimTransportFleet>(w->network.get());
  const workload::Topology& topo = o.topology;
  for (size_t i = 0; i < topo.node_count; ++i) {
    w->ids.push_back(w->network->AddNode());
  }

  core::BestPeerConfig config;
  config.max_direct_peers = o.max_direct_peers;
  config.strategy = o.scheme == workload::Scheme::kBpr ? o.strategy : "none";
  config.answer_mode = o.answer_mode;
  config.auto_fetch = o.auto_fetch;
  config.codec = o.codec;
  config.default_ttl = o.ttl;
  config.metrics = &w->registry;
  o.fault.ApplyTo(&config);

  workload::CorpusGenerator corpus({o.object_size, 500, 0.8}, o.seed);
  for (size_t i = 0; i < topo.node_count; ++i) {
    std::unique_ptr<core::BestPeerNode> node;
    {
      ScopedSpan span(tracer, "core.create");
      BP_ASSIGN_OR_RETURN(node, core::BestPeerNode::Create(
                                    w->fleet->For(w->ids[i]), &w->infra,
                                    config));
    }
    {
      ScopedSpan span(tracer, "core.init_storage");
      BP_RETURN_IF_ERROR(node->InitStorage(HarnessStoreOptions()));
    }
    const size_t matches = o.MatchesAt(i);
    for (size_t obj = 0; obj < o.objects_per_node; ++obj) {
      Bytes content;
      {
        ScopedSpan span(tracer, "workload.make_object");
        content = corpus.MakeObject(obj < matches);
      }
      ScopedSpan span(tracer, "core.share_object");
      // RunBestPeer's global object id: node in the high bits.
      BP_RETURN_IF_ERROR(node->ShareObject(
          (static_cast<storm::ObjectId>(i) << 24) | obj, content));
    }
    w->nodes.push_back(std::move(node));
  }
  {
    ScopedSpan span(tracer, "core.wire_peers");
    for (const auto& [a, b] : topo.edges) {
      w->nodes[a]->AddDirectPeerLocal(w->ids[b]);
      w->nodes[b]->AddDirectPeerLocal(w->ids[a]);
    }
  }
  ScopedSpan span(tracer, "core.prewarm_code_cache");
  for (NodeId id : w->ids) {
    w->infra.code_cache.Load(id, core::kSearchAgentClass);
    w->infra.code_cache.Load(id, core::kComputeAgentClass);
  }
  return Status::OK();
}

struct QueryRecord {
  double host_ms = 0;
  double first_answer_ms = 0;
  size_t answers = 0;
  SimTime completion = 0;
};

/// One query exactly as RunBestPeer runs it: IssueSearch, drain the
/// simulator, then (BPR) Reconfigure and drain again.
Result<QueryRecord> RunQuery(SimWorld& w, const ExperimentOptions& o,
                             Tracer* tracer) {
  core::BestPeerNode& base = *w.nodes[o.topology.base];
  const int64_t start = NowNs();
  ScopedSpan root(tracer, "bench.query");
  uint64_t query_id = 0;
  {
    ScopedSpan span(tracer, "core.issue_search");
    BP_ASSIGN_OR_RETURN(query_id,
                        base.IssueSearch(workload::CorpusGenerator::kNeedle));
    if (tracer != nullptr) tracer->TagOpen(query_id);
  }
  const core::QuerySession* session = base.FindSession(query_id);
  if (session == nullptr) return Status::Internal("query session lost");
  int64_t first = 0;
  {
    ScopedSpan span(tracer, "sim.run_until_idle");
    // Stepping to the first answer and then draining fires the same
    // events in the same order as one RunUntilIdle.
    while (session->responses().empty() && w.simulator.Step()) {
    }
    first = NowNs();
    w.simulator.RunUntilIdle();
  }
  QueryRecord r;
  const bool content_fetched =
      o.answer_mode != core::AnswerMode::kIndicate || o.auto_fetch;
  r.answers = content_fetched ? session->total_answers()
                              : session->total_indicated();
  r.completion = session->completion_time();
  if (o.scheme == workload::Scheme::kBpr) {
    {
      ScopedSpan span(tracer, "core.reconfigure");
      BP_RETURN_IF_ERROR(base.Reconfigure(query_id));
    }
    ScopedSpan span(tracer, "sim.run_until_idle");
    w.simulator.RunUntilIdle();
  }
  r.first_answer_ms = NsToMs(first - start);
  r.host_ms = NsToMs(NowNs() - start);
  return r;
}

struct Pass {
  std::vector<QueryRecord> queries;
  std::vector<double> setup_s;
  double query_phase_s = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;
  bool index_empty = true;
  bool probes_ok = true;
};

/// Adds the traced pass's per-layer counters and probes to `report`.
void ReportLayers(SimWorld& w, const ExperimentOptions& o, const Pass& pass,
                  uint64_t events, const std::vector<Bytes>& captured,
                  const Tracer& tracer, Report* report, bool* probes_ok) {
  const double queries = static_cast<double>(pass.queries.size());
  AddSpanLayers(tracer, report);
  report->Add("core.reconfigure_us", tracer.MeanUs("core.reconfigure"), "us");
  report->Add("core.wire_peers_us", tracer.TotalUs("core.wire_peers"), "us");

  // Probes run after the workload, on this world's own stores and the
  // agent messages it sent, on any node but the base.
  const size_t probe_node = o.topology.base == 1 ? 0 : 1;
  *probes_ok = ProbeScan(*w.nodes[probe_node], report) ==
               o.MatchesAt(probe_node);
  AddPoolStats(w.nodes, report);
  *probes_ok = ProbeAgentMessages(captured, o.codec, report) && *probes_ok;

  AddAgentCounters({}, w.registry.TakeSnapshot(), report);

  const double run_us = tracer.TotalUs("sim.run_until_idle");
  report->Add("sim.events", static_cast<double>(events), "count");
  report->Add("sim.run_us", run_us, "us");
  report->Add("sim.events_per_s",
              run_us == 0 ? 0 : static_cast<double>(events) / (run_us / 1e6),
              "1/s");
  const double sent = static_cast<double>(w.network->messages_sent());
  const double wire = static_cast<double>(w.network->total_wire_bytes());
  report->Add("net.messages_sent", sent, "count");
  report->Add("net.wire_bytes", wire, "bytes");
  // The reactor, BPF1 framing and LIGLO are not on the simulated path.
  report->Add("net.reactor_lag_us_p50", 0, "us");
  report->Add("net.reactor_lag_us_p90", 0, "us");
  report->Add("net.tx_msgs_per_query", queries == 0 ? 0 : sent / queries,
              "count");
  report->Add("net.tx_bytes_per_query", queries == 0 ? 0 : wire / queries,
              "bytes");
  report->Add("net.tx_dropped",
              static_cast<double>(w.network->messages_dropped()), "count");
  report->Add("net.rx_dropped", 0, "count");
  report->Add("net.frame_errors", 0, "count");
  report->Add("net.reconnects", 0, "count");
  report->Add("liglo.join_ms_p50", 0, "ms");
  report->Add("liglo.retries", 0, "count");
  report->Add("liglo.timeouts", 0, "count");
}

/// Builds the world (repeatedly when `repeat_setups`, keeping the last),
/// then runs the closed loop: `exact_queries` queries when nonzero, else
/// until args.seconds have passed and at least `min_queries` ran. With a
/// tracer, records spans and adds the per-layer metrics to `report`.
Result<Pass> RunPass(const Args& args, const ExperimentOptions& o,
                     bool repeat_setups,
                     size_t min_queries, size_t exact_queries, Tracer* tracer,
                     Report* report) {
  Pass pass;
  const int64_t pass_start = NowNs();
  std::unique_ptr<SimWorld> world;
  do {
    world.reset();
    const int64_t start = pass.setup_s.empty() ? pass_start : NowNs();
    world = std::make_unique<SimWorld>();
    BP_RETURN_IF_ERROR(Build(o, tracer, world.get()));
    pass.setup_s.push_back(NsToMs(NowNs() - start) / 1e3);
  } while (repeat_setups && WantAnotherSetup(pass.setup_s));
  for (const auto& node : world->nodes) {
    const storm::KeywordIndex& index = node->storage()->index();
    pass.index_empty = pass.index_empty && index.document_count() == 0 &&
                       index.keyword_count() == 0;
  }
  if (!pass.index_empty) std::fprintf(stderr, "a store built its index\n");

  std::vector<Bytes> captured;
  if (tracer != nullptr) {
    world->network->SetTrace(
        [&captured](const sim::SimMessage& msg, SimTime, SimTime) {
          if (msg.type == agent::kAgentTransferType &&
              captured.size() < kCapturedAgentMessages) {
            captured.push_back(msg.payload);
          }
        });
  }
  const uint64_t events_before = world->simulator.events_processed();
  const int64_t loop_start = NowNs();
  auto more = [&]() {
    const size_t n = pass.queries.size();
    if (exact_queries > 0) return n < exact_queries;
    return n < min_queries || NsToMs(NowNs() - loop_start) < args.seconds * 1e3;
  };
  while (more()) {
    BP_ASSIGN_OR_RETURN(QueryRecord r, RunQuery(*world, o, tracer));
    pass.queries.push_back(r);
  }
  const int64_t loop_end = NowNs();
  pass.query_phase_s = NsToMs(loop_end - loop_start) / 1e3;
  pass.wall_s = NsToMs(loop_end - pass_start) / 1e3;
  pass.peak_rss_mb = PeakRssMb();
  if (tracer != nullptr) {
    world->network->SetTrace(nullptr);
    ReportLayers(*world, o, pass,
                 world->simulator.events_processed() - events_before, captured,
                 *tracer, report, &pass.probes_ok);
  }
  return pass;
}

/// Replays the same options and seed through workload::RunExperiment and
/// counts queries whose answer count or virtual completion time differs.
/// `expected_answers` receives the oracle's total.
size_t CountMismatches(ExperimentOptions o, const std::vector<QueryRecord>& got,
                       size_t* expected_answers) {
  o.queries = got.size();
  auto oracle = workload::RunExperiment(o);
  *expected_answers = 0;
  if (!oracle.ok() || oracle.value().queries.size() != got.size()) {
    std::fprintf(stderr, "oracle run failed\n");
    return got.size();
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    const workload::QueryMetrics& want = oracle.value().queries[i];
    *expected_answers += want.total_answers;
    if (want.total_answers != got[i].answers ||
        want.completion != got[i].completion) {
      if (mismatches == 0) {
        std::fprintf(stderr,
                     "query %zu: answers %zu vs oracle %zu, completion %lld "
                     "vs oracle %lld us\n",
                     i, got[i].answers, want.total_answers,
                     static_cast<long long>(got[i].completion),
                     static_cast<long long>(want.completion));
      }
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

int RunSimDriver(const Args& args, ExperimentOptions options,
                 size_t min_queries) {
  options.seed = args.seed;
  Report report;
  Tracer tracer;
  // A traced run runs `min_queries` in both passes, not as many as fit in
  // args.seconds: its counts are then fixed for a seed, and the overhead
  // compares equal work.
  const size_t exact_queries = args.trace ? min_queries : 0;
  auto untraced = RunPass(args, options, !args.trace, min_queries,
                          exact_queries, nullptr, nullptr);
  if (!untraced.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 untraced.status().ToString().c_str());
    return 1;
  }
  const Pass& pass = untraced.value();
  const std::vector<QueryRecord>* checked = &pass.queries;
  bool correct = pass.index_empty;
  size_t failed = 0;

  Result<Pass> traced = Status::Internal("no traced pass");
  if (args.trace) {
    traced = RunPass(args, options, false, 0, exact_queries, &tracer, &report);
    if (!traced.ok()) {
      std::fprintf(stderr, "traced run failed: %s\n",
                   traced.status().ToString().c_str());
      return 1;
    }
    checked = &traced.value().queries;
    correct = correct && traced.value().index_empty && traced.value().probes_ok;
    for (size_t i = 0; i < pass.queries.size(); ++i) {
      if (pass.queries[i].answers != (*checked)[i].answers ||
          pass.queries[i].completion != (*checked)[i].completion) {
        ++failed;
      }
    }
  }

  size_t expected = 0;
  failed += CountMismatches(options, *checked, &expected);
  size_t received = 0;
  for (const QueryRecord& q : *checked) received += q.answers;
  correct = correct && failed == 0 && expected > 0;

  const size_t n = pass.queries.size();
  std::printf("workload: %zu queries, %zu set-ups, seed %llu; highest "
              "supported percentile p%g\n",
              n, pass.setup_s.size(),
              static_cast<unsigned long long>(args.seed),
              HighestSupportedPercentile(n));
  if (args.trace) {
    const double overhead =
        (traced.value().wall_s - pass.wall_s) / pass.wall_s * 100.0;
    report.Add("trace.overhead_pct", overhead, "%");
    report.Add("trace.spans", static_cast<double>(tracer.spans().size()),
               "count");
    if (!ReportTrace(tracer, args, &report)) return 1;
  } else {
    const std::vector<double> host = Column(pass.queries, &QueryRecord::host_ms);
    report.Add("setup_s", Median(pass.setup_s), "s");
    report.Add("query_ms_p50", Percentile(host, 50), "ms");
    report.Add("query_ms_p90", Percentile(host, 90), "ms");
    report.Add("queries_per_s", static_cast<double>(n) / pass.query_phase_s,
               "1/s");
    report.Add("first_answer_ms_p50",
               Median(Column(pass.queries, &QueryRecord::first_answer_ms)),
               "ms");
    report.Add("recall",
               expected == 0 ? 0
                             : static_cast<double>(received) /
                                   static_cast<double>(expected),
               "ratio");
    report.Add("peak_rss_mb", pass.peak_rss_mb, "MiB");
  }
  return report.Finish(correct, n, failed);
}

}  // namespace hostbench
