#include "scenario/runner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "core/node.h"
#include "core/search_agent.h"
#include "scenario/arrival.h"
#include "util/rng.h"
#include "workload/corpus.h"
#include "workload/topology.h"
#include "workload/world.h"

namespace bestpeer::scenario {

namespace {

// Each concern draws from its own seeded stream so enabling one never
// perturbs another. Replay skips the arrival and pick streams entirely
// while the churn (and fault) streams stay identical — that is what
// makes a replayed schedule reproduce the generating run exactly.
constexpr uint64_t kTopologyTweak = 0x70507ULL;
constexpr uint64_t kArrivalTweak = 0xA2217ULL;
constexpr uint64_t kPickTweak = 0x91C47ULL;
constexpr uint64_t kChurnTweak = 0xC1927ULL;

workload::Topology BuildTopology(const ScenarioSpec& spec) {
  const size_t n = spec.TotalNodes();
  const TopologySpec& t = spec.topology;
  if (t.kind == "star") return workload::MakeStar(n);
  if (t.kind == "line") return workload::MakeLine(n);
  if (t.kind == "random") {
    Rng rng(spec.seed ^ kTopologyTweak);
    return workload::MakeRandom(n, t.max_degree, rng);
  }
  return workload::MakeTree(n, t.fanout);
}

/// One internal arrival: when, who, what, which phase.
struct Arrival {
  SimTime at = 0;
  size_t node = 0;
  std::string keyword;
  size_t phase = 0;
};

}  // namespace

Result<ScenarioResult> RunScenario(const ScenarioSpec& spec,
                                   const ScenarioRunOptions& options) {
  if (spec.classes.empty() || spec.phases.empty()) {
    return Status::InvalidArgument("scenario: spec is empty (not parsed?)");
  }
  if (!(options.store_scale > 0 && options.store_scale <= 100)) {
    return Status::InvalidArgument("scenario: store_scale out of range");
  }
  if (options.replay != nullptr) {
    if (options.replay->scenario != spec.name) {
      return Status::InvalidArgument(
          "scenario: replay trace was recorded for '" +
          options.replay->scenario + "', not '" + spec.name + "'");
    }
    if (options.replay->seed != spec.seed) {
      return Status::InvalidArgument(
          "scenario: replay trace seed mismatch (trace " +
          std::to_string(options.replay->seed) + ", spec " +
          std::to_string(spec.seed) + ")");
    }
  }

  const size_t node_count = spec.TotalNodes();

  workload::World world(options.obs, spec.fault, spec.seed);
  sim::Simulator& simulator = world.simulator();
  sim::SimNetwork& network = world.network();

  const workload::Topology topo = BuildTopology(spec);

  // The fleet: per-class CPU threads and link profiles. Class c owns the
  // contiguous node-index range [ClassOffset(c), ClassOffset(c)+count).
  std::vector<NodeId> ids;
  ids.reserve(node_count);
  for (size_t i = 0; i < node_count; ++i) {
    const NodeClassSpec& cls = spec.classes[spec.ClassOf(i)];
    const NodeId id = network.AddNode(cls.cpu_threads);
    sim::LinkProfile profile;
    if (cls.bandwidth_mbps > 0) {
      // Mbit/s -> bytes/us: 1 Mbit/s = 1e6/8 bytes/s = 0.125 bytes/us.
      profile.bytes_per_us = cls.bandwidth_mbps / 8.0;
    }
    profile.extra_latency = MsToSimTime(cls.extra_latency_ms);
    if (profile.bytes_per_us > 0 || profile.extra_latency > 0) {
      network.SetLinkProfile(id, profile);
    }
    ids.push_back(id);
  }

  core::BestPeerConfig config;
  config.max_direct_peers = spec.max_direct_peers;
  config.strategy = spec.reconfigure_each_phase ? "maxcount" : "none";
  config.default_ttl = spec.ttl;
  config.metrics = &world.registry();
  spec.fault.ApplyTo(&config);

  // Pooled keywords: every matching object answers every pooled query.
  const std::vector<std::string> tokens =
      workload::CorpusGenerator::PoolTokens(spec.query_pool);

  workload::CorpusGenerator corpus({spec.object_size, 500, 0.8}, spec.seed);
  std::vector<std::unique_ptr<core::BestPeerNode>> nodes;
  nodes.reserve(node_count);
  for (size_t i = 0; i < node_count; ++i) {
    const NodeClassSpec& cls = spec.classes[spec.ClassOf(i)];
    BP_ASSIGN_OR_RETURN(auto node, core::BestPeerNode::Create(
                                       world.fleet().For(ids[i]),
                                       &world.infra(), config));
    storm::StormOptions store;
    store.buffer_frames = 128;
    store.replacement = "lru";
    BP_RETURN_IF_ERROR(node->InitStorage(store));
    // Fast mode scales the haystack, never the needles: match counts are
    // what the committed baselines assert on.
    const size_t objects = std::max(
        cls.matches_per_node,
        static_cast<size_t>(std::llround(
            static_cast<double>(cls.objects_per_node) * options.store_scale)));
    BP_RETURN_IF_ERROR(workload::ShareCorpus(
        *node, i, objects, cls.matches_per_node, corpus, tokens));
    nodes.push_back(std::move(node));
  }
  for (const auto& [a, b] : topo.edges) {
    nodes[a]->AddDirectPeerLocal(ids[b]);
    nodes[b]->AddDirectPeerLocal(ids[a]);
  }
  // The StorM search agent ships with the platform; steady state has it
  // resident everywhere.
  for (NodeId id : ids) {
    world.infra().code_cache.Load(id, core::kSearchAgentClass);
    world.infra().code_cache.Load(id, core::kComputeAgentClass);
  }

  // Churn waves are pre-scheduled as simulator events so they fire at
  // their declared instants no matter how the arrival loop advances the
  // clock. Victim selection draws from the dedicated churn stream at
  // fire time, in wave-declaration order for equal instants.
  Rng churn_rng(spec.seed ^ kChurnTweak);
  for (const ChurnWaveSpec& wave : spec.churn) {
    size_t class_index = 0;
    for (size_t c = 0; c < spec.classes.size(); ++c) {
      if (spec.classes[c].name == wave.target_class) class_index = c;
    }
    const size_t offset = spec.ClassOffset(class_index);
    const size_t count = spec.classes[class_index].count;
    const SimTime down_for = MsToSimTime(wave.down_for_ms);
    const double fraction = wave.fraction;
    simulator.ScheduleAt(
        MsToSimTime(wave.at_ms),
        [&network, &simulator, &churn_rng, &ids, offset, count, fraction,
         down_for]() {
          std::vector<size_t> online;
          for (size_t i = offset; i < offset + count; ++i) {
            if (network.IsOnline(ids[i])) online.push_back(i);
          }
          churn_rng.Shuffle(online);
          const size_t leave = static_cast<size_t>(std::llround(
              fraction * static_cast<double>(online.size())));
          auto victims = std::make_shared<std::vector<size_t>>(
              online.begin(),
              online.begin() + static_cast<ptrdiff_t>(leave));
          for (size_t v : *victims) network.SetOnline(ids[v], false);
          if (down_for > 0) {
            simulator.ScheduleAfter(down_for, [&network, &ids, victims]() {
              for (size_t v : *victims) network.SetOnline(ids[v], true);
            });
          }
        });
  }

  // The query schedule: generated from the spec's arrival processes, or
  // lifted verbatim from a recorded trace.
  std::vector<size_t> queriers;
  for (size_t i = 0; i < node_count; ++i) {
    if (spec.classes[spec.ClassOf(i)].issues_queries) queriers.push_back(i);
  }
  std::vector<double> phase_start_ms(spec.phases.size(), 0);
  for (size_t p = 1; p < spec.phases.size(); ++p) {
    phase_start_ms[p] =
        phase_start_ms[p - 1] + spec.phases[p - 1].duration_ms;
  }
  auto phase_of = [&](SimTime at) {
    size_t p = 0;
    while (p + 1 < spec.phases.size() &&
           at >= MsToSimTime(phase_start_ms[p + 1])) {
      ++p;
    }
    return p;
  };

  std::vector<Arrival> schedule;
  if (options.replay != nullptr) {
    schedule.reserve(options.replay->queries.size());
    for (const TracedQuery& q : options.replay->queries) {
      if (q.node >= node_count) {
        return Status::InvalidArgument(
            "scenario: replay trace names node " + std::to_string(q.node) +
            " but the spec has only " + std::to_string(node_count));
      }
      if (!spec.classes[spec.ClassOf(q.node)].issues_queries) {
        return Status::InvalidArgument(
            "scenario: replay trace issuer " + std::to_string(q.node) +
            " is in a non-querying class");
      }
      schedule.push_back({q.at, q.node, q.keyword, phase_of(q.at)});
    }
  } else {
    Rng arrival_rng(spec.seed ^ kArrivalTweak);
    Rng pick_rng(spec.seed ^ kPickTweak);
    ZipfSampler zipf(spec.query_pool, spec.query_zipf_skew);
    for (size_t p = 0; p < spec.phases.size(); ++p) {
      const std::vector<SimTime> times = GenerateArrivalTimes(
          spec.phases[p], MsToSimTime(phase_start_ms[p]), arrival_rng);
      for (SimTime at : times) {
        Arrival a;
        a.at = at;
        a.node = queriers[pick_rng.NextBounded(queriers.size())];
        a.keyword = std::string(workload::CorpusGenerator::kNeedle) +
                    std::to_string(zipf.Sample(pick_rng));
        // phase_of, not p: µs rounding can push a time onto the next
        // phase's boundary instant, and replay (which only has the
        // timestamp) must bucket it the same way.
        a.phase = phase_of(at);
        schedule.push_back(std::move(a));
      }
    }
  }

  // Drive the phases. RunUntil (never RunUntilIdle) keeps the clock
  // honest: queries overlap, spill across phase boundaries, and churn
  // events fire exactly when declared.
  ScenarioResult result;
  result.issued.scenario = spec.name;
  result.issued.seed = spec.seed;
  std::vector<std::pair<uint64_t, size_t>> issued_ids;  // (query_id, index)
  size_t ai = 0;
  for (size_t p = 0; p < spec.phases.size(); ++p) {
    const SimTime phase_end =
        MsToSimTime(phase_start_ms[p] + spec.phases[p].duration_ms);
    std::vector<uint64_t> last_query(node_count, 0);
    std::vector<bool> queried(node_count, false);
    while (ai < schedule.size() && schedule[ai].phase == p) {
      const Arrival& a = schedule[ai];
      ++ai;
      simulator.RunUntil(a.at);
      if (!network.IsOnline(ids[a.node])) {
        // The picked issuer is down: the query never happens. Replay
        // schedules only contain issued queries, so hitting this in
        // replay means the trace does not match the spec.
        if (options.replay != nullptr) {
          return Status::InvalidArgument(
              "scenario: replay issuer " + std::to_string(a.node) +
              " is offline at t=" + std::to_string(a.at) +
              "us (trace/spec mismatch)");
        }
        ++result.suppressed_arrivals;
        continue;
      }
      BP_ASSIGN_OR_RETURN(uint64_t query_id,
                          nodes[a.node]->IssueSearch(a.keyword));
      world.Arm();
      last_query[a.node] = query_id;
      queried[a.node] = true;
      issued_ids.emplace_back(query_id, result.queries.size());
      ScenarioQueryStats stats;
      stats.at = a.at;
      stats.issuer = a.node;
      stats.keyword = a.keyword;
      stats.phase = p;
      result.queries.push_back(std::move(stats));
      result.issued.queries.push_back({a.at, a.node, a.keyword});
    }
    simulator.RunUntil(phase_end);
    if (spec.reconfigure_each_phase) {
      // Every issuer reconfigures on its last query of the phase, in
      // node order — self-configuration as a fleet-wide, phase-aligned
      // sweep. Sessions may still be collecting; SelectPeers ranks on
      // the observations so far.
      for (size_t i = 0; i < node_count; ++i) {
        if (!queried[i] || !network.IsOnline(ids[i])) continue;
        BP_RETURN_IF_ERROR(nodes[i]->Reconfigure(last_query[i]));
      }
    }
  }
  // Drain: in-flight queries finish, pending rejoins fire (no queries
  // remain, so late rejoins change nothing observable).
  world.Arm();
  simulator.RunUntilIdle();

  for (const auto& [query_id, index] : issued_ids) {
    const core::QuerySession* session =
        nodes[result.queries[index].issuer]->FindSession(query_id);
    if (session == nullptr) {
      return Status::Internal("scenario: query session lost");
    }
    ScenarioQueryStats& stats = result.queries[index];
    stats.answers = session->total_answers();
    stats.unique_answers = session->unique_answers();
    stats.responders = session->responder_count();
    stats.completion = session->completion_time();
    world.RecordQuery(ids[stats.issuer], query_id, session->start_time(),
                      session->completion_time());
  }

  result.phases.resize(spec.phases.size());
  for (size_t p = 0; p < spec.phases.size(); ++p) {
    result.phases[p].name = spec.phases[p].name;
  }
  for (const ScenarioQueryStats& q : result.queries) {
    ScenarioPhaseStats& phase = result.phases[q.phase];
    ++phase.queries;
    phase.answers += q.answers;
    phase.mean_answers += static_cast<double>(q.answers);
    phase.mean_responders += static_cast<double>(q.responders);
    phase.mean_completion_ms += ToMillis(q.completion);
  }
  for (ScenarioPhaseStats& phase : result.phases) {
    if (phase.queries == 0) continue;
    const double n = static_cast<double>(phase.queries);
    phase.mean_answers /= n;
    phase.mean_responders /= n;
    phase.mean_completion_ms /= n;
  }

  world.Finish(&result);
  return result;
}

}  // namespace bestpeer::scenario
