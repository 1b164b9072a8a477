#include "core/node_summaries.h"

#include <utility>

#include "storm/query_expr.h"

namespace bestpeer::core {

ContentSummaries::ContentSummaries(
    NodeIo& io, const std::unique_ptr<storm::Storm>& storage,
    const PeerList& peers, metrics::Registry* metrics)
    : io_(io), storage_(storage), peers_(peers) {
  if (metrics != nullptr) {
    summary_skips_.set_total(metrics->GetCounter("core.summary_skips"));
  }
  io_.Handle(kPeerSummaryType, "peer.summary", this,
             &ContentSummaries::OnPeerSummary);
}

void ContentSummaries::OnPeerSummary(NodeId src,
                                     storm::ContentSummary& summary) {
  auto it = peer_summaries_.find(src);
  if (it != peer_summaries_.end() && it->second.epoch() > summary.epoch()) {
    return;  // Reordered delivery: keep the newer digest.
  }
  peer_summaries_[src] = std::move(summary);
}

const storm::ContentSummary& ContentSummaries::OwnSummary() {
  const uint64_t index_epoch =
      storage_ != nullptr ? storage_->mutation_epoch() + 1 : 0;
  if (!own_summary_valid_ || own_summary_.epoch() != index_epoch) {
    own_summary_ = storage_ != nullptr
                       ? storm::ContentSummary::Build(storage_->index(),
                                                      index_epoch)
                       : storm::ContentSummary();
    own_summary_valid_ = true;
  }
  return own_summary_;
}

void ContentSummaries::ScheduleRefresh() {
  if (push_pending_) return;
  // Debounce: a burst of mutations (store population, replica pushes)
  // yields one broadcast carrying the final epoch, not one per Put.
  push_pending_ = true;
  io_.transport().clock().ScheduleAfter(0, [this]() {
    push_pending_ = false;
    Broadcast();
  });
}

void ContentSummaries::Broadcast() {
  if (storage_ == nullptr) return;
  const storm::ContentSummary& summary = OwnSummary();
  if (summary.epoch() == last_broadcast_epoch_) return;
  last_broadcast_epoch_ = summary.epoch();
  const Bytes payload = summary.Encode();
  for (NodeId peer : peers_.Nodes()) {
    io_.Send(peer, kPeerSummaryType, payload);
  }
}

void ContentSummaries::SendTo(NodeId peer) {
  if (storage_ == nullptr) return;
  io_.Send(peer, kPeerSummaryType, OwnSummary());
}

std::vector<NodeId> ContentSummaries::SkipSet(const std::string& keyword) {
  std::vector<NodeId> skip;
  if (peer_summaries_.empty()) return skip;
  auto expr = storm::QueryExpr::Parse(keyword);
  if (!expr.ok()) return skip;
  for (const auto& [peer, summary] : peer_summaries_) {
    // Bloom filters have no false negatives: !MayMatch proves the peer
    // holds no object satisfying any DNF branch, so the skip is
    // recall-safe at hop 1. (The peer is not probed for its own
    // neighbours either — the pruning trade-off benched in
    // bench_index_search.)
    if (!summary.MayMatch(expr.value())) skip.push_back(peer);
  }
  summary_skips_.Add(skip.size());
  return skip;
}

}  // namespace bestpeer::core
