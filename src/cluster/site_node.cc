#include "cluster/site_node.h"

#include <utility>

namespace dsgm {

SiteNode::SiteNode(int site_id, std::shared_ptr<const CounterLayout> layout,
                   uint64_t seed, Channel<EventBatch>* events,
                   Channel<RoundAdvance>* commands,
                   Channel<UpdateBundle>* to_coordinator)
    : site_id_(site_id),
      events_(events),
      commands_(commands),
      to_coordinator_(to_coordinator),
      layout_(std::move(layout)),
      counters_(layout_->total_counters(), seed),
      event_ids_(2 * static_cast<size_t>(layout_->num_vars)),
      malformed_batches_(MetricsRegistry::Global().GetCounter(
          "cluster.site.malformed_batches")) {
  // Hot-path buffers: an event reports at most two counters per variable
  // and a bundle spans at most kMaxEventsPerReportBundle events, so once
  // FlushReports has re-reserved the outbox for a whole bundle it never
  // regrows: one allocation per bundle. The first bundle grows into it on
  // the Run() thread, which keeps that allocation off session setup.
  // DrainCommands pops at most kCommandPopBatch commands.
  outbox_reserve_ = static_cast<size_t>(kMaxEventsPerReportBundle) * 2 *
                    static_cast<size_t>(layout_->num_vars);
  command_buffer_.reserve(kCommandPopBatch);
  for (const CounterLayout::VarRecord& var : layout_->vars) {
    cards_.push_back(static_cast<uint32_t>(var.card));
  }
}

bool SiteNode::WellFormed(const EventBatch& batch) const {
  const size_t num_vars = cards_.size();
  if (batch.num_events < 0 ||
      batch.values.size() != static_cast<size_t>(batch.num_events) * num_vars) {
    return false;
  }
  // One unsigned compare rejects negatives too. No early exit: a bad batch
  // is rare, and a branch-free loop vectorizes.
  uint32_t out_of_domain = 0;
  for (size_t at = 0; at < batch.values.size(); at += num_vars) {
    const int32_t* row = batch.values.data() + at;
    for (size_t i = 0; i < num_vars; ++i) {
      out_of_domain |= static_cast<uint32_t>(row[i]) >= cards_[i];
    }
  }
  return out_of_domain == 0;
}

void SiteNode::ProcessEvent(const int32_t* values) {
  layout_->EventIds(values, event_ids_.data());
  for (const int64_t counter : event_ids_) {
    const uint32_t local = counters_.Increment(counter);
    if (local != 0) outbox_.push_back(CounterReport{counter, local});
  }
}

void SiteNode::FlushReports() {
  if (outbox_.empty()) return;
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kReports;
  bundle.site = site_id_;
  bundle.reports = std::move(outbox_);
  outbox_.clear();  // A moved-from vector is valid but unspecified.
  outbox_.reserve(outbox_reserve_);
  to_coordinator_->Push(std::move(bundle));
  updates_sent_.fetch_add(1, std::memory_order_relaxed);
}

void SiteNode::DrainCommands(bool block_until_closed) {
  std::vector<RoundAdvance>& commands = command_buffer_;
  while (true) {
    commands.clear();
    size_t got = block_until_closed
                     ? commands_->PopBatch(&commands, kCommandPopBatch)
                     : commands_->TryPopBatch(&commands, kCommandPopBatch);
    if (got == 0) {
      // Blocking mode: queue closed and drained. Non-blocking: nothing now.
      return;
    }
    UpdateBundle sync;
    sync.kind = UpdateBundle::Kind::kSync;
    sync.site = site_id_;
    for (const RoundAdvance& advance : commands) {
      // Commands can arrive from a real network peer; reject out-of-range
      // counter ids before indexing.
      if (advance.counter < 0 || advance.counter >= counters_.num_counters()) continue;
      sync.round = advance.round;
      sync.reports.push_back(CounterReport{
          advance.counter,
          counters_.OnAdvance(advance.counter, advance.probability)});
      if (advance.round > 0 &&
          static_cast<uint64_t>(advance.round) >
              rounds_seen_.load(std::memory_order_relaxed)) {
        rounds_seen_.store(static_cast<uint64_t>(advance.round),
                           std::memory_order_relaxed);
      }
    }
    if (sync.reports.empty()) {
      if (!block_until_closed) return;
      continue;
    }
    to_coordinator_->Push(std::move(sync));
    syncs_sent_.fetch_add(1, std::memory_order_relaxed);
    if (!block_until_closed) return;
  }
}

void SiteNode::Run() {
  std::vector<EventBatch> batches;
  batches.reserve(kEventPopBatch);
  while (true) {
    batches.clear();
    const size_t got = events_->PopBatch(&batches, kEventPopBatch);
    if (got == 0) break;  // Stream finished.
    for (const EventBatch& batch : batches) {
      if (!WellFormed(batch)) {
        malformed_batches_->Increment();
        continue;
      }
      const int32_t* cursor = batch.values.data();
      for (int32_t e = 0; e < batch.num_events; ++e) {
        ProcessEvent(cursor);
        cursor += layout_->num_vars;
        if ((e + 1) % kMaxEventsPerReportBundle == 0) FlushReports();
      }
      FlushReports();
      events_processed_.fetch_add(batch.num_events, std::memory_order_relaxed);
    }
    // The outbox is empty here, so this pop's reports precede its syncs.
    DrainCommands(/*block_until_closed=*/false);
  }
  UpdateBundle done;
  done.kind = UpdateBundle::Kind::kSiteDone;
  done.site = site_id_;
  to_coordinator_->Push(std::move(done));
  // Keep answering round advances until the coordinator closes our queue.
  DrainCommands(/*block_until_closed=*/true);
}

}  // namespace dsgm
