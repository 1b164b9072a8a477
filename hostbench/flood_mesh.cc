// flood_mesh: a fixed 256-node random mesh (degree <= 8, TTL 64) with 64 × 1 KB
// objects and 2 matches per node. One issuer sends sequential BPR queries
// in a closed loop. Agent floods make the event loop, agent codec and
// StorM scans dominate; populate is small.
//
//   flood_mesh --seed 1 --seconds 10 --trace 0

#include "common.h"
#include "sim_driver.h"
#include "util/rng.h"
#include "workload/topology.h"

int main(int argc, char** argv) {
  hostbench::NowNs();
  hostbench::Args args;
  if (!hostbench::ParseArgs(argc, argv, &args)) return 2;
  // The mesh is part of the workload; the seed draws the stores. A mesh
  // per seed would add the spread between meshes to every comparison.
  bestpeer::Rng topology_rng(1);
  bestpeer::workload::ExperimentOptions o;
  o.topology = bestpeer::workload::MakeRandom(args.tiny ? 16 : 256,
                                              args.tiny ? 4 : 8, topology_rng);
  o.scheme = bestpeer::workload::Scheme::kBpr;
  o.objects_per_node = args.tiny ? 16 : 64;
  o.object_size = 1024;
  o.matches_per_node = args.tiny ? 1 : 2;
  o.max_direct_peers = 8;
  o.ttl = 64;
  o.answer_mode = bestpeer::core::AnswerMode::kIndicate;
  o.auto_fetch = false;
  return hostbench::RunSimDriver(args, o, args.tiny ? 6 : 100);
}
