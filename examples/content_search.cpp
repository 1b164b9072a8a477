// Content-based sharing with access control: active objects (§3.2.2).
//
// A hospital node shares a patient report as an *active object*: public
// requesters get a redacted rendering, the owning physician sees
// everything. The owner-defined "active node" (executable black box)
// does the filtering at the provider — requesters never see raw data.
//
//   ./build/examples/content_search

#include <cstdio>

#include "core/node.h"
#include "net/sim_transport.h"
#include "sim/simulator.h"

using namespace bestpeer;

int main() {
  sim::Simulator simulator;
  sim::SimNetwork network(&simulator, sim::NetworkOptions{});
  bestpeer::net::SimTransportFleet fleet(&network);
  core::SharedInfra infra;

  core::BestPeerConfig config;
  auto hospital = core::BestPeerNode::Create(fleet.AddNode(), &infra, config)
                      .value();
  auto researcher = core::BestPeerNode::Create(fleet.AddNode(), &infra, config)
                        .value();
  auto physician = core::BestPeerNode::Create(fleet.AddNode(), &infra, config)
                       .value();
  hospital->InitStorage({});
  hospital->AddDirectPeerLocal(researcher->node());
  researcher->AddDirectPeerLocal(hospital->node());
  hospital->AddDirectPeerLocal(physician->node());
  physician->AddDirectPeerLocal(hospital->node());

  // The owner registers the active node and builds the active object:
  // a mix of plain data elements and a filtered element.
  hospital->active_objects().active_nodes()
      .Register("redact-secrets", core::RedactSecretsActiveNode)
      .ok();
  core::ActiveObject report;
  report.AddDataElement(ToBytes("PATIENT REPORT 2026-07\n"));
  report.AddDataElement(ToBytes("Diagnosis: seasonal allergy.\n"));
  report.AddActiveElement(
      "redact-secrets",
      ToBytes("Identity: [SECRET]Jane Doe, NRIC S1234567A[/SECRET]\n"));
  report.AddDataElement(ToBytes("Treatment: antihistamines.\n"));
  hospital->active_objects().ShareActiveObject("report-2026-07", report);

  auto print_view = [](const char* who, Result<Bytes> content) {
    if (!content.ok()) {
      std::printf("%s: error %s\n", who, content.status().ToString().c_str());
      return;
    }
    std::printf("--- view for %s ---\n%s\n", who,
                ToString(content.value()).c_str());
  };

  // A researcher (public access) and the physician (owner access)
  // request the same object; the hospital renders per access level.
  researcher->active_objects().RequestActiveObject(
      hospital->node(), "report-2026-07", core::AccessLevel::kPublic,
      [&](Result<Bytes> content) {
        print_view("researcher (public)", std::move(content));
      });
  physician->active_objects().RequestActiveObject(
      hospital->node(), "report-2026-07", core::AccessLevel::kOwner,
      [&](Result<Bytes> content) {
        print_view("physician (owner)", std::move(content));
      });
  simulator.RunUntilIdle();

  std::printf(
      "The provider executed the filtering; the sensitive span never "
      "crossed the wire for the public requester.\n");
  return 0;
}
