// paper_star: the paper's §4.2 store shape (1000 × 1 KB objects per node,
// 10 matches) on a 64-node star, Fig. 5(a)'s search-phase options with BPR
// reconfiguration, k = 8 and TTL 64. One issuer repeats the query in a
// closed loop. Populate (corpus plus StorM writes) dominates set-up here.
//
//   paper_star --seed 1 --seconds 10 --trace 0

#include "common.h"
#include "sim_driver.h"
#include "workload/topology.h"

int main(int argc, char** argv) {
  hostbench::NowNs();
  hostbench::Args args;
  if (!hostbench::ParseArgs(argc, argv, &args)) return 2;
  bestpeer::workload::ExperimentOptions o;
  o.topology = bestpeer::workload::MakeStar(args.tiny ? 8 : 64);
  o.scheme = bestpeer::workload::Scheme::kBpr;
  o.objects_per_node = args.tiny ? 40 : 1000;
  o.object_size = 1024;
  o.matches_per_node = args.tiny ? 3 : 10;
  o.max_direct_peers = 8;
  o.ttl = 64;
  // Search phase: agents return match descriptors, nothing is fetched.
  o.answer_mode = bestpeer::core::AnswerMode::kIndicate;
  o.auto_fetch = false;
  return hostbench::RunSimDriver(args, o, args.tiny ? 6 : 100);
}
